"""The front door: bad input raises a named HaarlabError (a
ValueError), never a bare ValueError.  Fuzzed: for any word string,
matrix CSV or command line built from these strategies, the library
raises nothing but a HaarlabError, and main returns an exit code 0-4,
printing an error line and no traceback whenever it is not 0."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from haarlab import cumulants, densities, haar_expect, weingarten
from haarlab.cli import main
from haarlab.combinat import cycles, enumerate_pairings, pi_epsilon
from haarlab.errors import CapacityError, DimensionError, HaarlabError
from haarlab.exact import qc_matrix
from haarlab.haar_expect import (HaarLetter, VARIANT_NAMES,
                                 expected_trace_product, load_matrix_csv,
                                 parse_trace_product)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=40)

CONSTANTS = {"A": qc_matrix([[1, 2], [3, 4]]),
             "B": qc_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])}

# a word is a product of trace factors, mostly well formed, or a run of
# loose tokens; at most 6 Haar letters, since each one spells a U
letters = st.sampled_from(["U", "Uc", "Ut", "U*", "A", "At", "B", "X",
                           "U*t"])
factors = st.builds(lambda head, body: f"{head}{' '.join(body)})",
                    st.sampled_from(["Tr(", "tr(", "Tr (", "T("]),
                    st.lists(letters, min_size=1, max_size=4))
tokens = st.sampled_from(["Tr(", "tr(", ")", " ", "U", "Uc", "A", "*", "t"])
words = st.one_of(st.lists(factors, min_size=1, max_size=2).map("".join),
                  st.lists(tokens, max_size=8).map("".join)).filter(
    lambda text: text.count("U") <= 6)
dims = st.sampled_from([2, 3, 1, None, 0, -1])

# CSV rows: six small integers (indices in -1..3, zero denominators
# included), or loose fields; files that are not UTF-8 too
index = st.sampled_from([1, 2, 3, 0, -1])
numerator = st.integers(-2, 3)
denominator = st.sampled_from([1, 2, 3, 0])
entries = st.tuples(index, index, numerator, denominator, numerator,
                    denominator)
loose = st.lists(st.sampled_from(["", "x", "1.5", " 2", "#", "row", "1/2",
                                  "1"]), max_size=7)
rows = st.one_of(entries, entries, loose).map(lambda r: ",".join(map(str, r)))
csv_bytes = st.one_of(
    st.lists(rows, max_size=4).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=12))

# integer options: mostly in range, sometimes not an integer
ints = st.sampled_from(["2", "3", "1", "2", "3", "0", "-1", "x"])

# figure1: N near its floor of 32 and at most 2 replicas, from flags or
# from a config whose values may have the wrong JSON type or be null
# (absent); a config object always sets N and replicas, and without one
# both flags are given
figure1_flags = {
    "--N": st.sampled_from(["32", "33", "32", "33", "31", "0", "x"]),
    "--replicas": st.sampled_from(["1", "2", "1", "2", "0", "-1", "x"]),
    "--seed": st.sampled_from(["0", "1", "0", "-1", "x"]),
    "--bins": st.sampled_from(["10", "60", "60", "9", "10001", "x"]),
}
figure1_configs = st.one_of(
    st.fixed_dictionaries(
        {"N": st.sampled_from([32, 33, "32", 32.0, 32, 33, 31, 32.5, True,
                               [32]]),
         "replicas": st.sampled_from([1, 2, 2.0, "2", 1, 2, 0, 1.5, False])},
        optional={"seed": st.sampled_from([None, None, 0, 1, -1, 1.5, "1"]),
                  "bins": st.sampled_from([None, None, 10, 60.0, 9, 10 ** 5,
                                           "60"])}),
    st.sampled_from([[], 3, "x", [{"N": 32}]]))

# verify: unknown suites and bad seeds; a real run only for "exact"
# with a valid seed, and never the slow "mc" or "all"
suites = st.sampled_from(["exact", "bogus", "", "EXACT", "mc ", "all2",
                          "exact2"])
seeds = st.sampled_from(["0", "7", "-1", "x", "1.5"])


@pytest.mark.parametrize("call, error", [
    (lambda: parse_trace_product("Tr(U)", {}, 0), DimensionError),
    (lambda: weingarten.wg_exact(0, 2), DimensionError),
    (lambda: next(enumerate_pairings(-1)), DimensionError),
    (lambda: haar_expect.entry_product_expectation([1], [1, 2], [1], 2),
     DimensionError),
    (lambda: densities.moments_from_free_cumulants([1] * 9), CapacityError),
    (lambda: cumulants.empirical_cumulants([[1, 2]], max_order=5),
     CapacityError),
    (lambda: cycles({1: 1, 2: 1}), HaarlabError),
    (lambda: pi_epsilon({1: 1, -1: -1}), HaarlabError),
    (lambda: weingarten.phi({1: 1}, {1: 1}), HaarlabError),
    (lambda: HaarLetter(2, 1), HaarlabError),
])
def test_bad_input_raises_a_named_haarlab_error(call, error):
    with pytest.raises(error):
        call()
    assert issubclass(error, ValueError)


def test_variant_names_are_the_grammar_and_the_reprs():
    for (eps, eta), name in VARIANT_NAMES.items():
        letter = parse_trace_product(f"Tr({name})", N=2).words[0].letters[0]
        assert letter == HaarLetter(eps, eta) and repr(letter) == name


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("front_door")


@pytest.fixture(scope="module")
def constant_args(tmp):
    """--constant values: a good 2x2 matrix, a broken file, a missing
    file and a malformed pair."""
    (tmp / "a.csv").write_text("1,1,1,1,0,1\n1,2,2,1,0,1\n2,2,-1,3,0,1\n")
    (tmp / "bad.csv").write_bytes(b"1,1,\xff,1,0,1\n")
    good = f"A={tmp / 'a.csv'}"
    return [good, good, good, f"A={tmp / 'bad.csv'}",
            f"A={tmp / 'missing.csv'}", "A"]


@FUZZ
@given(text=words, N=dims)
def test_words_raise_only_haarlab_errors(text, N):
    try:
        expr = parse_trace_product(text, CONSTANTS, N)
        expected_trace_product(expr)
    except HaarlabError:
        pass


@FUZZ
@given(data=csv_bytes)
def test_matrix_csv_raises_only_haarlab_errors(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    try:
        load_matrix_csv(str(path))
    except HaarlabError:
        pass


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def command_lines(draw, command, constant_args, tmp):
    if command == "wg":
        return ["wg", "--n", draw(ints), "--N", draw(ints)]
    if command == "verify":
        return ["verify", draw(suites), "--seed", draw(seeds)]
    if command == "figure1":
        argv = ["figure1"]
        outdirs = [str(tmp), str(tmp), str(tmp / "missing")]
        config = draw(st.none() | figure1_configs)
        if isinstance(config, dict) and draw(st.booleans()):
            config["outdir"] = draw(st.sampled_from(outdirs + [3, None]))
        if config is not None:
            (tmp / "figure1.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp / "figure1.json")]
        if not (isinstance(config, dict) and "outdir" in config) or \
                draw(st.booleans()):
            argv += ["--outdir", draw(st.sampled_from(outdirs))]
        for flag, values in figure1_flags.items():
            if config is None and flag in ("--N", "--replicas") or \
                    draw(st.booleans()):
                argv += [flag, draw(values)]
        return argv
    if command == "moment":
        argv = ["moment", draw(words), "--N", draw(ints)]
        if draw(st.booleans()):
            argv += ["--mc", draw(st.sampled_from(["20", "10", "5", "0"]))]
    else:
        argv = ["simulate", "--N", draw(ints), "--replicas",
                draw(st.sampled_from(["20", "20", "20", "15", "-1"]))]
        for word in draw(st.lists(words, min_size=1, max_size=2)):
            argv += ["--word", word]
    if draw(st.booleans()):
        argv += ["--constant", draw(st.sampled_from(constant_args))]
    return argv


@pytest.mark.parametrize("command",
                         ["wg", "moment", "simulate", "figure1", "verify"])
@FUZZ
@given(data=st.data())
def test_main_exits_with_a_documented_code(command, data, constant_args, tmp):
    argv = data.draw(command_lines(command, constant_args, tmp))
    code, err = _run(argv)
    assert 0 <= code <= 4
    assert "Traceback" not in err
    if code:
        assert "error" in err
