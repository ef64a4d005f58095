"""The acceptance gate: every published claim the package is built
around, one check per criterion, each printing its own pass/fail line.

Run with -s (or look at captured output on failure) to see the lines:

    pytest tests/test_acceptance.py -v -s

The checks live in haarlab.verify so the CLI `haarlab verify all`
exercises the identical code paths.
"""

from fractions import Fraction

import numpy as np
import pytest

from haarlab import haar_expect, verify
from haarlab.exact import QC, mat_mul, mat_trace, mat_transpose, qc_matrix
from haarlab.haar_expect import parse_trace_product
from haarlab.rmt import (Const, HaarU, Product, TraceStatistics, Variant,
                         trace_observables, word_product)

CRITERIA = [
    ("01_weingarten_exact_small_orders", "weingarten_exactness"),
    ("02_weingarten_leading_asymptotics", "weingarten_asymptotics"),
    ("03_constrained_index_sum_oracle", "index_sum_oracle"),
    ("04_unitary_but_not_orthogonal_invariance", "invariance_counterexample"),
    ("05_mixed_variant_first_order_limits", "first_order_limits"),
    ("06_power_trace_fluctuation_diagonal", "power_trace_fluctuations"),
    ("07_transpose_pair_second_order", "transpose_second_order"),
    ("08_conjugate_transpose_trace_decay", "conjugate_transpose_decay"),
    ("09_spectral_laws_against_references", "spectral_laws"),
    ("10_arcsine_self_convolution_oracle", "mu2_oracle"),
    ("11_cumulant_transforms_and_estimates", "cumulant_algebra"),
    ("12_byte_identical_reruns", "determinism"),
]

SEED = 0


@pytest.mark.parametrize("label,check_name", CRITERIA,
                         ids=[label for label, _ in CRITERIA])
def test_acceptance(label, check_name):
    result = verify.CHECKS[check_name](SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {label}: {result.claim} "
          f"(observed {result.observed}, tolerance {result.tolerance}, "
          f"{result.runtime:.2f}s)")
    assert result.passed, (
        f"{label} failed: expected {result.expected}, "
        f"observed {result.observed}, tolerance {result.tolerance}")


def test_suite_registry_covers_all_criteria():
    assert sorted(name for _, name in CRITERIA) \
        == sorted(verify.SUITES["all"])
    assert len(CRITERIA) == 12


def test_index_sum_oracle_checks_the_kernel_trace(monkeypatch):
    """Check 03's trace-product side is the pairing kernel's own trace,
    so a kernel that traces a b as a b^t fails it."""
    monkeypatch.setattr(haar_expect, "mat_trace_product",
                        lambda a, b: mat_trace(mat_mul(a, mat_transpose(b))))
    result = verify.CHECKS["index_sum_oracle"](SEED)
    assert not result.passed, result.observed


def _unit(N, k):
    """The N x N matrix unit E_kk, 0-based."""
    return qc_matrix([[int(i == j == k) for j in range(N)]
                      for i in range(N)])


def test_counterexample_values(monkeypatch):
    """Over a grid of angles and N = 2..10, E(u_11 ubar_22) = 0 and
    E(b_11 b'_22) = 4 cos^2 sin^2 / N as Fractions (no gap at the
    orthogonal angles cos^2 = 0, 1), from five values of Tr(U B)Tr(Uc C):
    the left side at the unit corners B = E_11, C = E_22, and four whose
    two cross terms (one corner diagonal, the other not) are each 0."""
    exact = verify._exact
    terms = []

    def recording(word, N, constants):
        terms.append((word, constants, exact(word, N, constants)))
        return terms[-1][2]

    def diagonal(m):
        return m.re[0, 1] == m.re[1, 0] == 0

    monkeypatch.setattr(verify, "_exact", recording)
    for c in map(Fraction, ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1")):
        for N in range(2, 11):
            terms.clear()
            lhs, rhs = verify._counterexample(c, N)
            assert type(lhs) is type(rhs) is Fraction
            assert (lhs, rhs) == (0, 4 * c * (1 - c) / N)
            assert len(terms) == 5
            assert {word for word, _, _ in terms} == {"Tr(U B)Tr(Uc C)"}
            # at cos^2 = 0 the corners R and S are the unit corners too
            units = [value for _, m, value in terms
                     if (m["B"], m["C"]) == (_unit(N, 0), _unit(N, 1))]
            assert units and all(value == lhs for value in units)
            cross = [value for _, m, value in terms
                     if diagonal(m["B"]) != diagonal(m["C"])]
            assert cross == [0, 0]


def test_counterexample_refuses_cross_terms_that_do_not_cancel(
        monkeypatch):
    exact = verify._exact
    monkeypatch.setattr(verify, "_exact",
                        lambda *args: exact(*args) + QC(1))
    with pytest.raises(RuntimeError, match="cross terms 2 "):
        verify._counterexample(Fraction(1, 4), 4)


def test_counterexample_refuses_an_imaginary_left_side(monkeypatch):
    """E(u_11 ubar_22), the word at B = E_11 and C = E_22, must be real:
    an imaginary part there raises, though the right side is fine."""
    exact = verify._exact

    def shifted(word, N, constants):
        value = exact(word, N, constants)
        return value + QC(0, 1) if constants["B"] == _unit(N, 0) else value

    monkeypatch.setattr(verify, "_exact", shifted)
    with pytest.raises(RuntimeError, match="imaginary parts 1 and 0$"):
        verify._counterexample(Fraction(1, 4), 4)


def _check08_tree(monkeypatch):
    """Run check 08 with a stand-in for trace_observables that draws no
    replica; return the tree it sampled, the run's keywords, and the
    trees word_product built for it."""
    built, runs = [], []

    def recording_product(letters):
        built.append(word_product(letters))
        return built[-1]

    def standin(observables, **kwargs):
        (name, node), = observables.items()
        runs.append((node, kwargs))
        return TraceStatistics((name,),
                               np.zeros((1, kwargs["replicas"]), complex))

    monkeypatch.setattr(verify, "word_product", recording_product)
    monkeypatch.setattr(verify, "trace_observables", standin)
    assert verify.CHECKS["conjugate_transpose_decay"](SEED).passed
    (node, kwargs), = runs
    return node, kwargs, built


def test_check08_samples_the_word_product_tree(monkeypatch):
    """Check 08's Monte Carlo tree is word_product of the letters of
    tr(U A U* Uc At Ut) on one Const A: the half U A U* times its
    transpose, the two halves one object."""
    node, kwargs, built = _check08_tree(monkeypatch)
    assert len(built) == 1 and built[0] is node
    assert kwargs == {"N": 128, "replicas": 2000, "seed": SEED,
                      "stream": "check08"}
    half, mirror = node.factors
    assert mirror == Variant(half, -1, 1) and mirror.node is half
    u, a, u_star = half.factors
    assert (u, a.name, u_star) == (HaarU(), "A", HaarU(-1, -1))
    assert a.matrix.tobytes() == np.diag(
        [1.0] * 64 + [-1.0] * 64).astype(complex).tobytes()


def test_check08_tree_traces_the_bytes_of_two_equal_consts(monkeypatch):
    """Sharing the half changes no byte: on the same 40 unitaries of
    check 08's stream at N = 128 and seeds 0-2, check 08's tree and
    U A U* times the transpose of U B U*, with B another Const holding
    A's matrix (halves that share no node), give identical traces."""
    node, kwargs, _ = _check08_tree(monkeypatch)
    a = node.factors[0].factors[1]
    b = Const("B", a.matrix)
    two = Product((Product((HaarU(), a, HaarU(-1, -1))),
                   Variant(Product((HaarU(), b, HaarU(-1, -1))), -1, 1)))
    for seed in range(3):
        stats = trace_observables({"shared": node, "two": two},
                                  N=kwargs["N"], replicas=40, seed=seed,
                                  stream=kwargs["stream"])
        assert stats.row("shared").tobytes() == stats.row("two").tobytes()


@pytest.mark.parametrize("check_name,words", [
    ("transpose_second_order", ("Tr(U)", "Tr(Uc)")),
    ("cumulant_algebra", ("Tr(U)", "Tr(Ut)", "Tr(Uc)", "Tr(U*)")),
    ("determinism", ("Tr(U)", "Tr(U Uc)")),
])
def test_checks_sample_their_words_through_word_nodes(monkeypatch,
                                                      check_name, words):
    """Checks 07, 11 and 12 name their observables by the words they
    sample, in order, and sample the trees word_nodes builds for those
    words, as `moment --mc` and `simulate` do."""
    runs = []

    def standin(observables, **kwargs):
        runs.append(dict(observables))
        return TraceStatistics(tuple(observables), np.zeros(
            (len(observables), kwargs["replicas"]), complex))

    monkeypatch.setattr(verify, "trace_observables", standin)
    verify.CHECKS[check_name](SEED)
    assert runs and all(list(run) == list(words) for run in runs)
    want = verify.word_nodes(parse_trace_product(word, N=2).words[0]
                             for word in words)
    assert all(list(run.values()) == want for run in runs)
