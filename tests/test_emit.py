"""Deterministic output encoding: floats, CSV, JSON, SVG."""

import json

import numpy as np
import pytest

from haarlab.emit import csv_bytes, format_float, json_bytes, svg_histogram
from haarlab.errors import HaarlabError


def test_format_float_17_digits():
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(2.0) == "2"
    assert float(format_float(123.456789)) == 123.456789


def test_format_float_round_trips():
    for x in (1e-300, -7.25, 3.141592653589793, 1e17 + 1.0):
        assert float(format_float(x)) == x


def test_csv_bytes_layout():
    data = csv_bytes(("a", "b"), [(1.5, "x"), (0.25, "y")])
    assert data == b"a,b\n1.5,x\n0.25,y\n"
    assert data.endswith(b"\n")


def test_csv_bytes_deterministic():
    rows = [(i / 7, f"r{i}") for i in range(20)]
    assert csv_bytes(("v", "n"), rows) == csv_bytes(("v", "n"), list(rows))


def test_json_bytes_sorted_and_stable():
    a = json_bytes({"b": 2, "a": [1, 2]})
    b = json_bytes({"a": [1, 2], "b": 2})
    assert a == b
    assert json.loads(a) == {"a": [1, 2], "b": 2}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 -float("inf"), np.float64("nan")])
def test_json_bytes_refuses_a_value_that_is_not_finite_by_its_key(bad):
    payload = {"N": 2, "observables": {"Tr(U)": {"k2": 0.5},
                                       "Tr(A)": {"k2": 1.0, "cov": [0.0, bad]}}}
    with pytest.raises(HaarlabError) as err:
        json_bytes(payload)
    assert str(err.value) == (f"JSON value at ['observables']['Tr(A)']"
                              f"['cov'][1] is {bad}, not a finite number")
    with pytest.raises(HaarlabError, match="^JSON value at the root is nan"):
        json_bytes(float("nan"))


def test_svg_histogram_structure():
    edges = [0.0, 0.5, 1.0, 1.5, 2.0]
    dens = [0.1, 0.4, 0.3, 0.2]
    overlay = [(x / 10, 0.25) for x in range(21)]
    svg = svg_histogram(edges, dens, overlay, "a title")
    text = svg.decode() if isinstance(svg, bytes) else svg
    assert text.lstrip().startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "a title" in text
    assert text.count("<rect") >= len(dens)
    assert "polyline" in text
