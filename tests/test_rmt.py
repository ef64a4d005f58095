"""Haar sampling, observable trees, spectra, trace statistics."""

import os

import numpy as np
import pytest

from haarlab.errors import (DimensionError, InsufficientSamplesError,
                            NotSelfAdjointError)
from haarlab.rmt import (Conjugated, Const, EnsembleSpec, PhasedShift, HaarU,
                         Product, Scale, SpectralSample, Sum, Variant,
                         evaluate, phased_shift_matrix,
                         phased_shift_transpose_traces, histogram, ks_distance,
                         pooled_eigenvalues, realize, sample_haar_unitary,
                         spectral_replicas, spectrum, trace_observables,
                         variant_matrix, worker_count)


def test_haar_unitary_is_unitary_and_deterministic():
    u = sample_haar_unitary(12, seed=5)
    assert np.allclose(u @ u.conj().T, np.eye(12), atol=1e-12)
    v = sample_haar_unitary(12, seed=5)
    assert np.array_equal(u, v)
    w = sample_haar_unitary(12, seed=6)
    assert not np.allclose(u, w)
    with pytest.raises(DimensionError):
        sample_haar_unitary(0, seed=1)


def test_haar_mean_entries_vanish():
    # E u_ij = 0; averaging many draws should be small
    acc = np.zeros((4, 4), dtype=complex)
    reps = 3000
    for s in range(reps):
        acc += sample_haar_unitary(4, seed=s)
    assert np.max(np.abs(acc / reps)) < 0.03


def test_variant_matrix():
    m = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert np.array_equal(variant_matrix(m, 1, 1), m)
    assert np.array_equal(variant_matrix(m, -1, 1), m.T)
    assert np.array_equal(variant_matrix(m, 1, -1), np.conj(m))
    assert np.array_equal(variant_matrix(m, -1, -1), np.conj(m).T)


def test_evaluate_tree():
    u = sample_haar_unitary(3, seed=9)
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    node = Scale(2.0, Sum((Const("A", a), HaarU())))
    got = evaluate(node, u, 3)
    assert np.allclose(got, 2.0 * (a + u))
    prod = Product((Const("A", a), HaarU(-1, -1)))
    assert np.allclose(evaluate(prod, u, 3), a @ np.conj(u).T)


def test_conjugated_node():
    u = sample_haar_unitary(4, seed=2)
    b = np.eye(4, dtype=complex) * 0.5
    got = evaluate(Conjugated(Const("B", b)), u, 4)
    assert np.allclose(got, u @ b @ np.conj(u).T)
    # a Variant of a Conjugated transposes the whole sandwich
    got_t = evaluate(Variant(Conjugated(Const("B", b)), -1, 1), u, 4)
    assert np.allclose(got_t, (u @ b @ np.conj(u).T).T)


def test_phased_shift_matrix():
    a = phased_shift_matrix(4)
    # superdiagonal entries i^k, everything else zero
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 1] = 1j
    expect[1, 2] = -1.0
    expect[2, 3] = -1j
    assert np.array_equal(a, expect)
    # nilpotent: all power traces vanish below the dimension
    p = a.copy()
    for _ in range(2):
        p = p @ a
        assert abs(np.trace(p)) == 0.0
    u = sample_haar_unitary(4, seed=3)
    assert np.allclose(evaluate(PhasedShift(), u, 4), expect)


def test_phased_shift_transpose_traces():
    rows = phased_shift_transpose_traces([2, 3, 8])
    for (N, tr_full, tr_norm), expect in zip(rows, [-1.0, 0.0, -1.0]):
        # Tr(A A^t) = sum over k of (i^k)^2 alternates between -1 and 0
        assert tr_full == pytest.approx(expect)
        assert tr_norm == pytest.approx(expect / N)


def test_realize_and_spectrum():
    spec = EnsembleSpec(16, Sum((HaarU(), HaarU(-1, -1))))
    m = realize(spec, seed=4)
    s = spectrum(m, seed=4, replica=0)
    assert s.N == 16
    assert s.eigenvalues.shape == (16,)
    # eigenvalues of U + U* are 2*cos(angles), hence within [-2, 2]
    assert np.all(np.abs(s.eigenvalues) <= 2.0 + 1e-9)


def test_spectrum_rejects_non_hermitian():
    with pytest.raises(NotSelfAdjointError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_replicas_and_pooling():
    spec = EnsembleSpec(8, Sum((HaarU(), HaarU(-1, -1))))
    samples = spectral_replicas(spec, 5, seed=0)
    assert len(samples) == 5
    assert {s.replica for s in samples} == set(range(5))
    pooled = pooled_eigenvalues(samples)
    assert pooled.shape == (40,)
    assert np.all(np.diff(pooled) >= 0)


def test_histogram_normalization():
    samples = SpectralSample(np.linspace(-1.9, 1.9, 200), 200, 0, 0)
    edges, dens = histogram(samples, 20, (-2.0, 2.0))
    widths = np.diff(edges)
    assert np.sum(dens * widths) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        histogram(samples, 5, (-2.0, 2.0))


def test_ks_distance_uniform_grid():
    # the midpoint grid i/(n+1) has KS distance 1/(n+1) against U[0,1]
    n = 99
    pts = [(i + 1) / (n + 1) for i in range(n)]
    d = ks_distance(pts, lambda x: min(max(x, 0.0), 1.0))
    assert d == pytest.approx(1.0 / (n + 1), abs=1e-12)


def test_ks_distance_point_mass_needs_left_limits():
    # a single observation at the atom of a point mass: the two-sided
    # statistic is 0 only when the left limit is supplied
    cdf = lambda x: 1.0 if x >= 0.0 else 0.0
    cdf_left = lambda x: 1.0 if x > 0.0 else 0.0
    assert ks_distance([0.0], cdf) == 1.0
    assert ks_distance([0.0], cdf, cdf_left) == 0.0


def test_trace_observables_deterministic_and_threaded():
    obs = [("t1", HaarU()), ("t2", Product((HaarU(), HaarU(1, -1))))]
    a = trace_observables(obs, 6, 12, seed=7)
    b = trace_observables(obs, 6, 12, seed=7)
    assert np.array_equal(a.samples, b.samples)
    old = os.environ.get("HAARLAB_THREADS")
    os.environ["HAARLAB_THREADS"] = "4"
    try:
        assert worker_count() == 4
        c = trace_observables(obs, 6, 12, seed=7)
    finally:
        if old is None:
            del os.environ["HAARLAB_THREADS"]
        else:
            os.environ["HAARLAB_THREADS"] = old
    # identical regardless of worker count
    assert np.array_equal(a.samples, c.samples)


def test_trace_observables_sample_floor():
    with pytest.raises(InsufficientSamplesError):
        trace_observables([("t", HaarU())], 4, 9, seed=0)


def test_trace_statistics_covariance_and_merge():
    obs = {"u": HaarU(), "ubar": HaarU(1, -1)}
    first = trace_observables(obs, 32, 300, seed=1)
    # E Tr(U) Tr(U-) = 1 with fluctuations O(1/sqrt(R))
    cov = first.covariance("u", "ubar")
    assert abs(cov - 1.0) < 0.35
    more = trace_observables(obs, 32, 300, seed=1, first_replica=300)
    merged = first.merge(more)
    assert merged.replica_count == 600
    assert np.array_equal(merged.replica_ids, np.arange(600))
    with pytest.raises(ValueError):
        first.merge(first)           # overlapping replica ids
    other_seed = trace_observables(obs, 32, 300, seed=2, first_replica=300)
    with pytest.raises(ValueError):
        first.merge(other_seed)      # different run


def test_trace_statistics_csv_rows():
    obs = [("w", HaarU())]
    stats = trace_observables(obs, 4, 10, seed=3)
    rows = stats.csv_rows()
    assert len(rows) == 10
    name, replica, re, im = rows[0]
    assert name == "w" and replica == 0
    assert isinstance(re, float) and isinstance(im, float)
