"""Gate power: acceptance checks must fail when the code is wrong.

Each test plants one named defect and asserts that the checks measured
to fail under it do fail, and the suite verdict with them.  An exact
defect runs the whole exact suite and names exactly the checks that
fail; a Monte Carlo defect runs only the checks it lists, at seed 0.

The sampler defect is the one Mezzadri (2007) describes: the Q factor of
numpy's QR of a complex Ginibre matrix, without the phase fix that
multiplies each column by the phase of R's diagonal entry.  That Q is
not Haar distributed, and check 07's cov(Tr U, Tr Ubar) at N = 64 reads
about 0.80 instead of 1.
"""

import dataclasses

import numpy as np

from haarlab import haar_expect, rmt, verify


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
    reads 0.176 and m2 7.99 against 4.  Checks 07, 08, 11 and 12 pass:
    check 08's Variant sits in a mirrored Product, whose trace never
    evaluates it."""
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
