"""Gate power: acceptance checks must fail when the code is wrong.

Each test plants one named defect and asserts that the checks measured
to fail under it do fail, and the suite verdict with them.  An exact
defect runs the whole exact suite and names exactly the checks that
fail; any other defect runs only the checks it lists, at seed 0.

The sampler defect is the one Mezzadri (2007) describes: the Q factor of
numpy's QR of a complex Ginibre matrix, without the phase fix that
multiplies each column by the phase of R's diagonal entry.  That Q is
not Haar distributed, and check 07's cov(Tr U, Tr Ubar) at N = 64 reads
about 0.80 instead of 1.
"""

import dataclasses
import functools
from fractions import Fraction

import numpy as np

from haarlab import haar_expect, rmt, verify
from haarlab.densities import arcsine_law


def _qr_without_phase_fix(N: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    ginibre = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, _ = np.linalg.qr(ginibre)
    return q


def test_check07_fails_on_qr_without_the_phase_fix(monkeypatch):
    monkeypatch.setattr(rmt, "sample_haar_unitary", _qr_without_phase_fix)
    result = verify.CHECKS["transpose_second_order"](0)
    assert not result.passed, result.observed
    assert "('mc'," in result.observed


def test_check09_fails_when_evaluate_drops_a_variants_transpose(
        monkeypatch):
    """evaluate reads Variant(node, -1, eta) as Variant(node, 1, eta).
    Figure 1's second panel becomes 2 (U + U*): check 09's sum-law KS
    reads 0.176 and m2 7.99 against 4.  Check 08's word becomes
    tr(L L) for the self-adjoint L = U A U*, whose square is I, so its
    Monte Carlo mean reads 1.000 against 0.007.  Checks 07, 11 and 12
    pass."""
    evaluate_node = rmt._evaluate

    def transpose_dropped(node, u, shared):
        if isinstance(node, rmt.Variant) and node.eps == -1:
            node = rmt.Variant(node.node, 1, node.eta)
        return evaluate_node(node, u, shared)

    monkeypatch.setattr(rmt, "_evaluate", transpose_dropped)
    result = verify.CHECKS["spectral_laws"](0)
    assert not result.passed, result.observed
    assert "('sum-law KS'," in result.observed
    assert "('arcsine KS'," not in result.observed
    result = verify.CHECKS["conjugate_transpose_decay"](0)
    assert not result.passed, result.observed
    assert "mc 1.00000; failures [('mc mean'," in result.observed


def test_checks05_and_06_fail_when_the_kernel_flips_one_letters_eps(
        monkeypatch):
    """The pairing kernel reads each word's first Haar letter with its
    eps flipped (U as Ut, Uc as U*, and back).  Check 05 reads
    E tr(U Ubar) = 1 at N = 2..8, where it is 1/N, and check 06 reads
    E|Tr U^2|^2 = 4/3, 3/2, 8/5, 5/3 at N = 2..5, where it is 2; checks
    01-04 and 10 pass."""
    rotate = haar_expect._rotate_to_haar_form

    def first_eps_flipped(letters):
        (u, run), *rest = rotate(letters)
        return [(dataclasses.replace(u, eps=-u.eps), run), *rest]

    monkeypatch.setattr(haar_expect, "_rotate_to_haar_form",
                        first_eps_flipped)
    failed = {r.name: r.observed for r in verify.run_suite("exact", 0)
              if not r.passed}
    assert sorted(failed) == ["first_order_limits", "power_trace_fluctuations"]
    assert "('tr(U Ubar)', 2, '1')" in failed["first_order_limits"]
    assert "(2, 3, '3/2')" in failed["power_trace_fluctuations"]


def test_checks01_and_02_fail_when_one_weingarten_entry_is_scaled(
        monkeypatch):
    """wg_table(2, 8) returns Wg((1, 1)) times 11/10, wherever the
    pairing kernel and the checks read it.  Check 01's Gram identity and
    closed form fail at (2, 8), and check 02's scaled distances to the
    leading term read 7.52, 1.00, 1.00, 1.00 at N = 8, 16, 32, 64;
    checks 03-06 and 10 pass."""
    table = verify.wg_table

    def scaled(n, N):
        values = table(n, N)
        if (n, N) == (2, 8):
            values = {**values, (1, 1): values[(1, 1)] * Fraction(11, 10)}
        return values

    monkeypatch.setattr(haar_expect, "wg_table", scaled)
    monkeypatch.setattr(verify, "wg_table", scaled)
    failed = {r.name: r.observed for r in verify.run_suite("exact", 0)
              if not r.passed}
    assert sorted(failed) == ["weingarten_asymptotics",
                              "weingarten_exactness"]
    assert "('closed form', (1, 1), 8)" in failed["weingarten_exactness"]
    assert "worst ratio 7.5156" in failed["weingarten_asymptotics"]


def test_check07_fails_when_every_replica_gets_replica_0s_unitary(
        monkeypatch):
    """The sampler is memoized on N, seed and stream tag and ignores the
    replica index j, so every replica of a run draws replica 0's unitary.
    Check 07's cov(Tr U, Tr Ubar) reads 0 +- 0: a variance needs
    replicas that differ."""
    draw = rmt.sample_haar_unitary
    first = functools.lru_cache(maxsize=None)(
        lambda N, seed, tag: draw(N, [seed, tag, 0]))
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, key: first(N, key[0], key[1]).copy())
    result = verify.CHECKS["transpose_second_order"](0)
    assert not result.passed
    assert "0.000000+0.000000j +- 0.000000; failures [('mc'," \
        in result.observed


def test_checks09_and_10_fail_when_the_sum_law_is_the_arcsine_law(
        monkeypatch):
    """The checks read the arcsine law where they want the sum law.
    Check 09 fails on the sum-law KS alone (0.216; the sampled moments
    still read 4 and 28), and check 10's quadrature moments read 2, 6,
    20 against 4, 28, 232."""
    monkeypatch.setattr(verify, "kesten_mckay_law", arcsine_law)
    spectra = verify.CHECKS["spectral_laws"](0)
    assert not spectra.passed
    assert "failures [('sum-law KS', 0.216" in spectra.observed
    oracle = verify.CHECKS["mu2_oracle"](0)
    assert not oracle.passed
    assert oracle.observed == "[(2, 2.0), (4, 6.0), (6, 20.0)]"
