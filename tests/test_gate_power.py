"""Gate power: an acceptance check must fail when the sampler is wrong.

The defect is the one Mezzadri (2007) describes: the Q factor of numpy's
QR of a complex Ginibre matrix, without the phase fix that multiplies
each column by the phase of R's diagonal entry.  That Q is not Haar
distributed, and check 07's cov(Tr U, Tr Ubar) at N = 64 reads about
0.80 instead of 1.
"""

import numpy as np

from haarlab import rmt, verify


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
