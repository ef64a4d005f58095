"""The acceptance gate: every published claim the package is built
around, one check per criterion, each printing its own pass/fail line.

Run with -s (or look at captured output on failure) to see the lines:

    pytest tests/test_acceptance.py -v -s

The checks live in haarlab.verify so the CLI `haarlab verify all`
exercises the identical code paths.
"""

import pytest

from haarlab import haar_expect, verify
from haarlab.exact import mat_mul, mat_trace, mat_transpose

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


def test_check08_traces_one_mirrored_node(monkeypatch):
    """Check 08's Monte Carlo word is one node times its own transpose,
    so its trace computes that node once.  Its observed string at seeds
    0-2 is the one from U A U* and U B U* built on two Consts that hold
    the same matrix (halves that share no node): both trees run in one
    batch, on the same unitaries, and the check then reads each."""
    from haarlab.rmt import Const, HaarU, Product, TraceStatistics, Variant
    real = verify.trace_observables
    nodes, two_const = [], {}

    def both_trees(observables, **kwargs):
        if two_const:
            return two_const.pop("stats")
        (name, node), = observables.items()
        nodes.append(node)
        a_np = node.factors[0].factors[1].matrix
        a, b = (Product((HaarU(), Const(nm, a_np), HaarU(-1, -1)))
                for nm in "AB")
        old = Product((a, Variant(b, -1, 1)))
        stats = real({name: node, "two": old}, **kwargs)
        two_const["stats"] = TraceStatistics((name,), stats.samples[1:])
        return TraceStatistics((name,), stats.samples[:1])

    monkeypatch.setattr(verify, "trace_observables", both_trees)
    for seed in range(3):
        observed = verify.CHECKS["conjugate_transpose_decay"](seed).observed
        assert verify.CHECKS["conjugate_transpose_decay"](seed).observed \
            == observed, seed
    assert len(nodes) == 3
    assert all(node.factors[1] == Variant(node.factors[0], -1, 1)
               and node.factors[1].node is node.factors[0] for node in nodes)
