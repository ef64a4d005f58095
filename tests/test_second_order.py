"""Spoke-diagram covariance predictions."""

import random
from fractions import Fraction

import pytest

from haarlab.errors import DimensionError, NoReductionError
from haarlab.second_order import (FirstOrderTable, complex_spoke_prediction,
                                  real_spoke_prediction)
from oracles import rotate_rows


def _const_table(m, n, phi_val, phi_t_val):
    return FirstOrderTable(m, n,
                           tuple(tuple(phi_val for _ in range(n))
                                 for _ in range(m)),
                           tuple(tuple(phi_t_val for _ in range(n))
                                 for _ in range(m)))


def test_table_validation_and_cyclic_access():
    tbl = FirstOrderTable(2, 3, ((1, 2, 3), (4, 5, 6)),
                          ((0, 0, 0), (0, 0, 0)))
    assert tbl.phi_at(1, 1) == 1
    assert tbl.phi_at(3, 4) == 1       # wraps both ways
    assert tbl.phi_at(0, 0) == 6       # 0 -> last row / column
    with pytest.raises(DimensionError):
        FirstOrderTable(2, 2, ((1, 2),), ((1, 2), (3, 4)))
    with pytest.raises(DimensionError):
        FirstOrderTable(0, 1, (), ())


def test_rotate_rows():
    tbl = FirstOrderTable(3, 1, ((1,), (2,), (3,)), ((0,), (0,), (0,)))
    rot = rotate_rows(tbl, 1)
    assert rot.phi == ((2,), (3,), (1,))
    assert rotate_rows(tbl, 3).phi == tbl.phi


def test_mismatched_cycle_lengths_predict_zero():
    tbl = _const_table(2, 3, 1, 1)
    assert complex_spoke_prediction(tbl).value == 0
    assert real_spoke_prediction(tbl).value == 0


def test_all_ones_diagonal():
    # n spokes, each product of n ones: the complex rule gives n and
    # the real rule doubles it
    for n in (2, 3, 4):
        tbl = _const_table(n, n, 1, 1)
        assert complex_spoke_prediction(tbl).value == n
        assert real_spoke_prediction(tbl).value == 2 * n
        assert len(real_spoke_prediction(tbl).reversed_terms) == n


def test_spoke_products_multiply_entries():
    # m = n = 2 with distinct entries: terms are
    # phi(a1 b_k-1) phi(a2 b_k-2) for k = 1, 2
    phi = ((Fraction(1, 2), Fraction(3)), (Fraction(5), Fraction(7)))
    tbl = FirstOrderTable(2, 2, phi, ((0, 0), (0, 0)))
    pred = complex_spoke_prediction(tbl)
    # k=1: phi(a1 b2) phi(a2 b1); k=2: phi(a1 b1) phi(a2 b2)
    assert set(pred.spoke_terms) == {Fraction(3) * Fraction(5),
                                     Fraction(1, 2) * Fraction(7)}
    assert pred.value == 15 + Fraction(7, 2)


def test_reversed_spokes_use_transpose_table():
    phi_t = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))
    tbl = FirstOrderTable(2, 2, ((0, 0), (0, 0)), phi_t)
    pred = real_spoke_prediction(tbl)
    # k=1: phi_t(a1 b2) phi_t(a2 b1) = 0; k=2: phi_t(a1 b1) phi_t(a2 b2) = 4
    assert set(pred.reversed_terms) == {Fraction(0), Fraction(4)}
    assert pred.value == 4


def test_one_cycles_rejected_by_general_rules():
    # only the complex rule; the real rule's two terms cover 1-cycles
    with pytest.raises(NoReductionError):
        complex_spoke_prediction(_const_table(1, 1, 1, 1))


def test_one_by_one_real_convention():
    # m = n = 1: one spoke phi(a1 b1) and one reversed spoke phi(a1 b1^t)
    rng = random.Random(11)
    for _ in range(20):
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(2))
        pred = real_spoke_prediction(FirstOrderTable(1, 1, ((a,),), ((b,),)))
        assert pred.value == a + b
        assert pred.spoke_terms == (a,) and pred.reversed_terms == (b,)


def test_prediction_invariant_under_cycle_rotation():
    phi = ((Fraction(1), Fraction(2), Fraction(-1)),
           (Fraction(0), Fraction(1), Fraction(4)),
           (Fraction(2), Fraction(1), Fraction(1)))
    phi_t = tuple(tuple(x + 1 for x in row) for row in phi)
    tbl = FirstOrderTable(3, 3, phi, phi_t)
    base = real_spoke_prediction(tbl).value
    for s in (1, 2):
        assert real_spoke_prediction(rotate_rows(tbl, s)).value == base

