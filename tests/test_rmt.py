"""Haar sampling, observable trees, spectra, trace statistics."""

import ctypes
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import haarlab
from haarlab import rmt
from haarlab.haar_expect import expected_trace_product, parse_trace_product
from haarlab.densities import arcsine_law
from haarlab.errors import (CapacityError, DimensionError, HaarlabError,
                            InsufficientSamplesError, NotSelfAdjointError,
                            WordParseError)
from haarlab.rmt import (Const, HaarU, Product, Sum, Variant, evaluate,
                         histogram, ks_distance, sample_haar_unitary,
                         spectral_replicas, spectrum, trace_observables,
                         variant_matrix, word_product, worker_count)


def test_haar_unitary_is_unitary_and_deterministic():
    u = sample_haar_unitary(12, seed=5)
    assert np.allclose(u @ u.conj().T, np.eye(12), atol=1e-12)
    v = sample_haar_unitary(12, seed=5)
    assert np.array_equal(u, v)
    w = sample_haar_unitary(12, seed=6)
    assert not np.allclose(u, w)
    with pytest.raises(DimensionError):
        sample_haar_unitary(0, seed=1)


def _draws(N, seed):
    """The one standard_normal draw sample_haar_unitary makes."""
    return np.random.default_rng(seed).standard_normal((N * (N + 1) // 2, 2))


def _reflector_vectors(draws):
    """x_1, ..., x_N as sample_haar_unitary reads them from its draw:
    interleaved (re, im) pairs, x_1 first; views into draws."""
    z = draws.view(complex)[:, 0]
    N = int(np.sqrt(2 * len(z)))
    return np.split(z, np.cumsum(np.arange(N, 1, -1)))


def _dense_reflector_product(xs):
    """H_1 diag(1, H_2) ... diag(I_{N-1}, H_N) diag(-e^{i theta_k}),
    each reflector an explicit N x N matrix; a zero x_k reflects
    nothing, H_k = I."""
    N = len(xs)
    u = np.eye(N, dtype=complex)
    phases = []
    for k, x in enumerate(xs):
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v = x.copy()
        v[0] += phase * np.linalg.norm(x)
        h = np.eye(N, dtype=complex)
        if np.any(v):
            h[k:, k:] -= 2 * np.outer(v, np.conj(v)) / np.vdot(v, v).real
        u = u @ h
        phases.append(-phase)
    return u * np.array(phases)


def _ginibre_qr_phase(g):
    """The QR sampler's path: Q of g with its columns rotated so that R
    has a positive real diagonal."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_sampler_equals_the_dense_reflector_product():
    # N = 1..70 runs one, two and three blocks of reflectors, most of
    # them with a ragged last block
    for N in range(1, 71):
        seed = [7, N]
        got = sample_haar_unitary(N, seed)
        want = _dense_reflector_product(_reflector_vectors(_draws(N, seed)))
        assert np.max(np.abs(got - want)) <= 1e-13, N
        assert np.max(np.abs(got.conj().T @ got - np.eye(N))) <= 1e-14, N


def test_zero_leading_entry_takes_phase_one(monkeypatch):
    N = 5
    draws = _draws(N, 3)
    xs = _reflector_vectors(draws)
    # x_5 has length 1: an exact 0 there is the zero vector, the case
    # of test_zero_householder_vector_is_the_identity_reflector
    for k in (0, 2, 3):
        xs[k][0] = 0.0

    class Fixed:
        def standard_normal(self, shape):
            assert shape == draws.shape
            return draws.copy()

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Fixed())
    got = sample_haar_unitary(N, 0)
    assert np.max(np.abs(got - _dense_reflector_product(xs))) <= 1e-13
    assert np.max(np.abs(got.conj().T @ got - np.eye(N))) <= 1e-14


def test_zero_householder_vector_is_the_identity_reflector(monkeypatch):
    # an exactly zero x_k made the block's T^-1 singular, and
    # np.linalg.inv raised LinAlgError
    N = 5
    draws = _draws(N, 3)
    xs = _reflector_vectors(draws)
    for k in (2, 4):
        xs[k][:] = 0.0

    class Fixed:
        def standard_normal(self, shape):
            return draws.copy()

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Fixed())
    got = sample_haar_unitary(N, 0)
    assert np.max(np.abs(got - _dense_reflector_product(xs))) <= 1e-13
    assert np.max(np.abs(got.conj().T @ got - np.eye(N))) <= 1e-14


@pytest.mark.parametrize("N", [1, 8, 33, 70])
def test_qr_round_trip_returns_the_sample(N):
    """U R with R upper triangular and its diagonal positive has U as
    the unitary factor of the QR sampler, whose R has such a diagonal."""
    rng = np.random.default_rng(N)
    u = sample_haar_unitary(N, [5, N])
    r = np.triu(rng.standard_normal((N, N))
                + 1j * rng.standard_normal((N, N)), 1) / N
    r += np.diag(rng.uniform(1.0, 2.0, N))
    assert np.max(np.abs(_ginibre_qr_phase(u @ r) - u)) <= 1e-12


def test_monte_carlo_means_match_the_exact_layer():
    """Transpose words at N = 3: the Monte Carlo mean of each trace
    product lies within 4 standard errors of expected_trace_product."""
    words = ["Tr(U Ut)Tr(U* Uc)", "Tr(U Ut U* Uc)", "Tr(U Uc)Tr(Ut U*)",
             "Tr(U U Ut)Tr(Uc)"]
    exprs = [parse_trace_product(w, N=3) for w in words]
    obs = [(f"{i}.{k}", Product(tuple(HaarU(l.eps, l.eta)
                                      for l in word.letters)))
           for i, expr in enumerate(exprs)
           for k, word in enumerate(expr.words)]
    stats = trace_observables(obs, 3, 2000, seed=0)
    for i, (text, expr) in enumerate(zip(words, exprs)):
        prod = np.prod([stats.row(f"{i}.{k}")
                        for k in range(len(expr.words))], axis=0)
        se = np.std(prod) / np.sqrt(prod.size)
        exact = complex(expected_trace_product(expr))
        assert abs(np.mean(prod) - exact) <= 4 * se, (text, exact)


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
    node = Sum((Const("A", a), HaarU(), HaarU(-1, 1)))
    assert np.array_equal(evaluate(node, u), a + u + u.T)
    # a one-term sum is its term, and the empty sum the zero matrix
    assert evaluate(Sum((Const("A", a),)), u) is a
    assert np.array_equal(evaluate(Sum(()), u), np.zeros((3, 3)))
    prod = Product((Const("A", a), HaarU(-1, -1)))
    assert np.allclose(evaluate(prod, u), a @ np.conj(u).T)
    assert np.array_equal(evaluate(Product(()), u), np.eye(3))


def _conjugated(node):
    """U node U* with the replica's shared U."""
    return Product((HaarU(), node, HaarU(-1, -1)))


def test_conjugated_node():
    u = sample_haar_unitary(4, seed=2)
    b = np.eye(4, dtype=complex) * 0.5
    got = evaluate(_conjugated(Const("B", b)), u)
    assert np.allclose(got, u @ b @ np.conj(u).T)
    # a Variant of U B U* transposes the whole sandwich
    got_t = evaluate(Variant(_conjugated(Const("B", b)), -1, 1), u)
    assert np.allclose(got_t, (u @ b @ np.conj(u).T).T)


def test_spectrum_of_one_replica():
    u = sample_haar_unitary(16, seed=4)
    eig = spectrum(evaluate(Sum((HaarU(), HaarU(-1, -1))), u))
    assert eig.shape == (16,)
    assert np.all(np.diff(eig) >= 0)
    # eigenvalues of U + U* are 2*cos(angles) of U's eigenvalues
    angles = np.angle(np.linalg.eigvals(u))
    assert np.allclose(eig, np.sort(2 * np.cos(angles)), atol=1e-12)


def test_spectrum_of_exactly_real_matrix_uses_real_part():
    """S + S^t with S = U + U* is exactly real in floating point, so
    its eigenvalues come from the real solver and agree with the
    complex one to rounding."""
    u = sample_haar_unitary(24, seed=2)
    sym = Sum((HaarU(), HaarU(-1, -1)))
    m = evaluate(Sum((sym, Variant(sym, -1, 1))), u)
    assert m.dtype == complex and not np.any(m.imag)
    eig = spectrum(m)
    assert np.array_equal(eig, np.linalg.eigvalsh(m.real))
    assert np.allclose(eig, np.linalg.eigvalsh(m), atol=1e-12)


def test_spectrum_rejects_non_hermitian():
    with pytest.raises(NotSelfAdjointError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectrum_rejects_nan():
    """A NaN makes the deviation NaN, which no comparison with the
    tolerance lets through."""
    m = np.eye(4)
    m[1, 2] = m[2, 1] = np.nan
    with pytest.raises(NotSelfAdjointError, match="nan"):
        spectrum(m)
    m = np.eye(4, dtype=complex)
    m[3, 3] = np.nan
    with pytest.raises(NotSelfAdjointError):
        spectrum(m)


def test_spectral_replicas_and_pooling():
    node = Sum((HaarU(), HaarU(-1, -1)))
    spectra = spectral_replicas(node, 8, 5, seed=3)
    assert spectra.shape == (5, 8) and spectra.dtype == float
    # row r is the spectrum of replica r's unitary, drawn from the
    # stream [seed, tag of the default call site, r]
    for r in range(5):
        u = sample_haar_unitary(8, [3, rmt.STREAMS["library"], r])
        assert np.array_equal(spectra[r], spectrum(evaluate(node, u)))
    pooled = np.sort(spectra, axis=None)
    assert pooled.shape == (40,)
    assert np.all(np.diff(pooled) >= 0)
    with pytest.raises(InsufficientSamplesError):
        spectral_replicas(node, 8, 0, seed=3)


def test_histogram_normalization():
    points = np.linspace(-1.9, 1.9, 200)
    edges, dens = histogram(points, 20, (-2.0, 2.0))
    widths = np.diff(edges)
    assert np.sum(dens * widths) == pytest.approx(1.0)
    # the shape of the array does not matter
    _, dens_2d = histogram(points.reshape(10, 20), 20, (-2.0, 2.0))
    assert np.array_equal(dens_2d, dens)
    with pytest.raises(InsufficientSamplesError):
        histogram(np.empty((0, 8)), 20, (-2.0, 2.0))
    # points that all miss the range: an error, not 0/0 densities
    with pytest.raises(InsufficientSamplesError):
        histogram([5.0, 6.0], 10, (-2.0, 2.0))


def test_histogram_refuses_few_bins_with_a_package_error():
    # the HaarlabError class figure1 --bins 5 raises, so the CLI maps
    # both to the same exit code
    with pytest.raises(WordParseError, match="bins must be at least 10"):
        histogram([0.5], 5, (0, 1))


def test_histogram_refuses_points_that_are_not_finite():
    # numpy drops a NaN from every bin, so the density would be that of
    # one point of two
    with pytest.raises(HaarlabError, match="^1 of 2 points for the "
                                           "histogram are not finite$"):
        histogram([np.nan, 0.1], 10, (-1.0, 1.0))


@pytest.mark.parametrize("hist_range", [(1.0, -1.0), (0.5, 0.5),
                                        (np.nan, 1.0), (-np.inf, 1.0)])
def test_histogram_refuses_a_range_that_is_not_finite_and_increasing(
        hist_range):
    # numpy raises its bare ValueError for three of these, and bins
    # (0.5, 0.5) as if it were (0.0, 1.0)
    with pytest.raises(HaarlabError, match="^histogram range .*: not finite "
                                           "lo < hi$"):
        histogram([0.1], 10, hist_range)


def test_ks_distance_uniform_grid():
    # the midpoint grid i/(n+1) has KS distance 1/(n+1) against U[0,1]
    n = 99
    pts = [(i + 1) / (n + 1) for i in range(n)]
    d = ks_distance(pts, lambda x: min(max(x, 0.0), 1.0))
    assert d == pytest.approx(1.0 / (n + 1), abs=1e-12)
    # any array of the same points, in any order and shape, gives the same
    shuffled = np.array(pts[::-1]).reshape(9, 11)
    assert ks_distance(shuffled, lambda x: min(max(x, 0.0), 1.0)) == d


def test_ks_distance_point_mass_needs_left_limits():
    # a single observation at the atom of a point mass: the two-sided
    # statistic is 0 only when the left limit is supplied
    cdf = lambda x: 1.0 if x >= 0.0 else 0.0
    cdf_left = lambda x: 1.0 if x > 0.0 else 0.0
    assert ks_distance([0.0], cdf) == 1.0
    assert ks_distance([0.0], cdf, cdf_left) == 0.0


@pytest.mark.parametrize("points", [[np.nan, np.nan], [0.1, np.inf, 0.5],
                                    [[-np.inf, 0.2], [np.nan, 0.3]]])
def test_ks_distance_rejects_points_that_are_not_finite(points):
    # a NaN or inf point would drop out of the sup while counting in n;
    # two NaNs alone would read as a perfect fit, 0.0
    calls = []

    def cdf(x):
        calls.append(x)
        return arcsine_law().cdf(x)

    bad = np.count_nonzero(~np.isfinite(points))
    message = f"^{bad} of {np.size(points)} points .* not finite"
    with pytest.raises(HaarlabError, match=message):
        ks_distance(np.array(points), cdf)
    assert calls == []


@pytest.mark.parametrize("cdf, cdf_left, shown", [
    (lambda x: float("nan"), None, "nan"),
    (lambda x: 7.0, None, "7.0"),
    (lambda x: 0.5, lambda x: -0.5, "-0.5")],
    ids=["nan", "above_one", "left_limit_below_zero"])
def test_ks_distance_refuses_a_reference_value_outside_the_unit_interval(
        cdf, cdf_left, shown):
    # a NaN reference once read as a perfect fit, 0.0, and 7.0 as a
    # distance of 7.0
    with pytest.raises(HaarlabError,
                       match=rf"^reference CDF at 0.1 is {shown}, outside"):
        ks_distance([0.1, 0.2, 0.3], cdf, cdf_left)


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


def test_worker_count_defaults_to_usable_cores(monkeypatch):
    monkeypatch.delenv("HAARLAB_THREADS", raising=False)
    assert worker_count() == len(os.sched_getaffinity(0))


def test_worker_count_above_the_cap_is_refused_before_any_thread(
        monkeypatch):
    threads = threading.active_count()
    monkeypatch.setenv("HAARLAB_THREADS", str(rmt.WORKER_CAP))
    assert worker_count() == rmt.WORKER_CAP
    monkeypatch.setenv("HAARLAB_THREADS", str(rmt.WORKER_CAP + 1))
    with pytest.raises(CapacityError, match="worker cap"):
        worker_count()
    with pytest.raises(CapacityError, match="worker cap"):
        spectral_replicas(rmt.FIGURE1_ARCSINE, 4, 1, seed=0)
    assert threading.active_count() == threads


@pytest.mark.parametrize("affinity", [True, False],
                         ids=["sched_getaffinity", "cpu_count"])
def test_default_worker_count_is_cut_to_the_cap(affinity, monkeypatch):
    """300 usable cores and no HAARLAB_THREADS: WORKER_CAP workers.
    Only the count is asked for, so no thread starts."""
    monkeypatch.delenv("HAARLAB_THREADS", raising=False)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(300)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 300)
    assert worker_count() == rmt.WORKER_CAP == 256
    assert rmt.check_run(64, 4000, 1, 0) == 256



def _counted_thread_starts(monkeypatch) -> list:
    """threading.Thread.start wrapped to record each thread it starts."""
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def test_one_worker_starts_no_thread(monkeypatch):
    monkeypatch.setenv("HAARLAB_THREADS", "1")
    started = _counted_thread_starts(monkeypatch)
    trace_observables([("t", HaarU())], 8, 12, seed=2)
    spectral_replicas(rmt.FIGURE1_ARCSINE, 8, 3, seed=2)
    assert started == []


@pytest.mark.parametrize("replicas", [1, 2, 3])
def test_surplus_workers_start_no_thread(replicas, monkeypatch):
    """Four workers for fewer replicas: the bytes of one worker, and at
    most one thread per replica after the caller's."""
    monkeypatch.setenv("HAARLAB_THREADS", "1")
    want = spectral_replicas(rmt.FIGURE1_SUM_LAW, 8, replicas, seed=4)
    monkeypatch.setenv("HAARLAB_THREADS", "4")
    started = _counted_thread_starts(monkeypatch)
    got = spectral_replicas(rmt.FIGURE1_SUM_LAW, 8, replicas, seed=4)
    assert got.tobytes() == want.tobytes()
    assert len(started) <= replicas - 1


def test_each_replica_is_drawn_once_by_its_worker(monkeypatch):
    """Three workers, ten replicas, thread switches forced often: every
    [seed, tag, j] is drawn once, row j holds replica j's result, worker
    w draws replicas w, w + 3, ..., and the caller is worker 0."""
    monkeypatch.setenv("HAARLAB_THREADS", "3")
    drawn = []

    def sampler(N, seed):
        drawn.append((tuple(seed), threading.get_ident()))
        return np.eye(N, dtype=complex) * (seed[2] + 1)

    monkeypatch.setattr(rmt, "sample_haar_unitary", sampler)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stats = trace_observables([("t", HaarU())], 4, 10, seed=9)
    finally:
        sys.setswitchinterval(interval)
    assert stats.row("t").tolist() == [4 * (j + 1) for j in range(10)]
    tag = rmt.STREAMS["library"]
    assert sorted(s for s, _ in drawn) == [(9, tag, j) for j in range(10)]
    thread = {j: t for (_, _, j), t in drawn}
    assert all(thread[j] == thread[j % 3] for j in range(10))
    assert thread[0] == threading.get_ident()
    assert threading.get_ident() not in (thread[1], thread[2])

_BYTES_SCRIPT = """
import hashlib
import numpy as np
from haarlab.rmt import (Const, HaarU, Product, Sum, Variant,
                         spectral_replicas, trace_observables)
a = Const("A", np.diag([1.0, -1.0] * 64))
obs = [("u", HaarU()), ("uu", Product((HaarU(), HaarU(-1, 1)))),
       ("uuu", Product((HaarU(), HaarU(1, -1), HaarU(-1, -1)))),
       ("uuuu", Product((HaarU(), HaarU(), HaarU(1, -1), HaarU(1, -1)))),
       ("uau", Product((HaarU(), a, HaarU(-1, -1), HaarU(1, -1),
                        Variant(a, -1, 1), HaarU(-1, 1))))]
stats = trace_observables(obs, 128, 12, seed=5)
print(hashlib.sha1(stats.samples.tobytes()).hexdigest())
sym = Sum((HaarU(), HaarU(-1, -1)))
for node in (sym, Sum((sym, Variant(sym, -1, 1)))):
    spectra = spectral_replicas(node, 128, 4, seed=5)
    print(hashlib.sha1(spectra.tobytes()).hexdigest())
"""


def test_trace_observables_bytes_independent_of_blas_and_workers():
    """Traces and both figure1 panels' spectra.  Environment variables
    must be set before numpy loads, hence one subprocess per (BLAS
    threads, replica workers) setting."""
    src = str(Path(haarlab.__file__).resolve().parent.parent)
    digests = {}
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       HAARLAB_THREADS=workers, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", _BYTES_SCRIPT],
                                 env=env, capture_output=True, text=True,
                                 timeout=120, check=True)
            digests[blas, workers] = out.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def _blas_thread_counts() -> list:
    """Each OpenBLAS library's current thread count (set, then put back)."""
    setters = list(rmt.blas_thread_setters().values())
    counts = [set_threads(1) for set_threads in setters]
    for set_threads, n in zip(setters, counts):
        set_threads(n)
    return counts


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS library at two threads for the test, then restored."""
    setters = list(rmt.blas_thread_setters().values())
    if not setters:
        pytest.skip("no OpenBLAS library with a thread-count setter loaded")
    previous = [set_threads(2) for set_threads in setters]
    yield [2] * len(setters)
    for set_threads, n in zip(setters, previous):
        set_threads(n)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_caller_blas_threads_restored_after_return(workers, two_blas_threads,
                                                   monkeypatch):
    monkeypatch.setenv("HAARLAB_THREADS", workers)
    trace_observables([("t", Product((HaarU(), HaarU())))], 16, 10, seed=1)
    assert _blas_thread_counts() == two_blas_threads


@pytest.mark.parametrize("workers", ["1", "2"])
def test_caller_blas_threads_restored_after_raise(workers, two_blas_threads,
                                                  monkeypatch):
    monkeypatch.setenv("HAARLAB_THREADS", workers)
    wrong = Const("A", np.eye(3))
    with pytest.raises(DimensionError):
        trace_observables([("t", Product((HaarU(), wrong)))], 4, 10, seed=1)
    assert _blas_thread_counts() == two_blas_threads


def test_trace_observables_without_openblas(monkeypatch):
    obs = [("t", Product((HaarU(), HaarU(1, -1))))]
    want = trace_observables(obs, 8, 12, seed=3)
    monkeypatch.setattr(rmt, "openblas_libraries", lambda: [])
    assert rmt.blas_thread_setters() == {}
    assert "not controlled" in rmt.threading_summary()
    got = trace_observables(obs, 8, 12, seed=3)
    assert np.array_equal(got.samples, want.samples)


def test_trace_observables_without_heap_controls(monkeypatch):
    obs = [("t", Product((HaarU(), HaarU(1, -1))))]
    want = trace_observables(obs, 8, 12, seed=3)
    monkeypatch.setattr(rmt, "_c_library", lambda: SimpleNamespace())
    assert rmt.heap_controls() is None
    assert rmt.threading_summary().endswith("; heap not controlled")
    got = trace_observables(obs, 8, 12, seed=3)
    assert got.samples.tobytes() == want.samples.tobytes()


def test_summary_names_the_heap_policy():
    want = ("kept during replica runs (glibc)" if rmt.heap_controls()
            else "not controlled")
    assert rmt.threading_summary().endswith(f"; heap {want}")


class _Recorder:
    """A stand-in C function that logs each call to calls and returns
    result(*args)."""

    def __init__(self, name, calls, result=lambda *args: 1):
        self.name, self.calls, self.result = name, calls, result

    def __call__(self, *args):
        self.calls.append((self.name, *args))
        return self.result(*args)


_MMAP, _TRIM = -3, -1
# glibc's DEFAULT_MMAP_THRESHOLD_MAX and mallopt(3)'s defaults
_RUN_CALLS = [("mallopt", _MMAP, 4 * 2 ** 20 * ctypes.sizeof(ctypes.c_long)),
              ("mallopt", _TRIM, 2 ** 30)]
_DEFAULT_CALLS = [("mallopt", _MMAP, 128 * 1024),
                  ("mallopt", _TRIM, 128 * 1024)]
_RUN_AND_TRIM = _RUN_CALLS + [("malloc_trim", 0)]


def _recorded_libc(monkeypatch, mallopt_result=lambda *args: 1):
    """Stand-in mallopt and malloc_trim, logging to the returned list,
    with no malloc tunables in the environment."""
    calls = []
    libc = SimpleNamespace(
        mallopt=_Recorder("mallopt", calls, mallopt_result),
        malloc_trim=_Recorder("malloc_trim", calls))
    monkeypatch.setattr(rmt, "_c_library", lambda: libc)
    monkeypatch.setattr(rmt, "_heap_refused", False)
    for name in list(os.environ):
        if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
            monkeypatch.delenv(name)
    return calls


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("n", [4, 3])
def test_heap_thresholds_stay_raised_and_the_run_trims(workers, n,
                                                       monkeypatch):
    """Both thresholds are raised for the run and stay raised; on
    return, after a raise too, malloc_trim(0) runs last.  n = 3 meets a
    4 x 4 constant and raises."""
    calls = _recorded_libc(monkeypatch)
    monkeypatch.setenv("HAARLAB_THREADS", workers)
    node = Product((HaarU(), Const("A", np.eye(4))))
    if n == 4:
        trace_observables([("t", node)], n, 10, seed=1)
    else:
        with pytest.raises(DimensionError):
            trace_observables([("t", node)], n, 10, seed=1)
    assert calls == _RUN_AND_TRIM


@pytest.mark.parametrize("name, value", [
    ("MALLOC_MMAP_THRESHOLD_", "65536"), ("MALLOC_ARENA_MAX", "2"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")])
def test_heap_left_alone_under_malloc_tunables(name, value, monkeypatch):
    """Malloc settings from the environment are the user's: the run
    makes no mallopt or malloc_trim call, the summary says so and the
    samples keep their bytes."""
    obs = [("t", Product((HaarU(), HaarU(1, -1))))]
    want = trace_observables(obs, 8, 12, seed=3)
    calls = _recorded_libc(monkeypatch)
    monkeypatch.setenv(name, value)
    assert rmt.heap_controls() is None
    assert rmt.threading_summary().endswith("; heap not controlled")
    got = trace_observables(obs, 8, 12, seed=3)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert calls == []


def test_heap_kept_under_other_glibc_tunables(monkeypatch):
    calls = _recorded_libc(monkeypatch)
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2")
    trace_observables([("t", HaarU())], 4, 10, seed=1)
    assert calls == _RUN_AND_TRIM


def test_refused_threshold_puts_the_defaults_back(monkeypatch):
    """A mmap threshold that mallopt refuses (as a glibc with a lower
    maximum would) sends both thresholds back to the defaults at once;
    the heap is then not controlled for the rest of the process."""
    calls = _recorded_libc(
        monkeypatch, lambda param, value: int(value <= 128 * 1024))
    obs = [("t", HaarU())]
    want = trace_observables(obs, 4, 10, seed=1).samples.tobytes()
    assert calls == _RUN_CALLS + _DEFAULT_CALLS
    assert rmt.threading_summary().endswith("; heap not controlled")
    calls.clear()
    assert trace_observables(obs, 4, 10, seed=1).samples.tobytes() == want
    assert calls == []


def test_every_run_sets_the_thresholds_and_trims_once(monkeypatch):
    """Two runs back to back, then two from two threads: each sets the
    run values and trims once, no default value is ever set, and the
    samples keep their bytes."""
    obs = [("t", Product((HaarU(), HaarU(1, -1))))]
    want = trace_observables(obs, 8, 12, seed=3).samples.tobytes()
    calls = _recorded_libc(monkeypatch)
    for _ in range(2):
        assert trace_observables(obs, 8, 12, seed=3).samples.tobytes() \
            == want
    assert calls == _RUN_AND_TRIM + _RUN_AND_TRIM
    calls.clear()
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda seed: trace_observables(obs, 8, 12, seed),
                            [3, 3]))
    assert [g.samples.tobytes() for g in got] == [want, want]
    assert sorted(calls) == sorted(_RUN_AND_TRIM + _RUN_AND_TRIM)


_FAULTS_SCRIPT = """
import resource
import numpy as np
from haarlab.rmt import Const, HaarU, Product, Variant, trace_observables
U, UT, UC, UH = HaarU(), HaarU(-1, 1), HaarU(1, -1), HaarU(-1, -1)
r = Const("R", np.random.default_rng(11).standard_normal((128, 128)))
obs = [("uru", Product((U, r, UH, UC, Variant(r, -1, 1), UT))),
       ("u", U), ("uc", UC), ("uut", Product((U, UT))),
       ("uucuc", Product((U, U, UC, UC)))]
# the first run maps the workers' arenas and BLAS buffers
trace_observables(obs, 128, 10, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trace_observables(obs, 128, 100, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_replicas_reuse_freed_memory(workers):
    """Minor page faults of a 100-replica N = 128 run of five words
    like mc_traces's, in a fresh process: about 28,800 at one worker and
    20,000 at two when glibc hands each replica's freed arrays back to
    the OS and faults them in again, a few hundred when the run keeps
    them.  A fresh process, because glibc's dynamic thresholds depend on
    what the process freed before."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap is kept under glibc only")
    src = str(Path(haarlab.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items()
           if not rmt.malloc_tuned({name: value})}
    env.update(HAARLAB_THREADS=workers, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    faults = int(out.stdout)
    assert faults < 4000, faults


def test_trace_observables_sample_floor():
    with pytest.raises(InsufficientSamplesError):
        trace_observables([("t", HaarU())], 4, 9, seed=0)


class _AllocationReached(Exception):
    pass


def test_run_caps_admit_the_cap_and_refuse_one_past_before_allocating(
        monkeypatch):
    """N = DIMENSION_CAP and replicas x width = VALUE_CAP reach the
    allocation of the result array; one past either is refused before
    numpy is called at all (rmt's numpy is replaced by a recorder)."""
    shapes = []

    class Recorder:
        def empty(self, shape, dtype):
            shapes.append(shape)
            raise _AllocationReached

        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} called before the refusal")

    monkeypatch.setattr(rmt, "np", Recorder())
    four = [(str(k), HaarU()) for k in range(4)]
    with pytest.raises(_AllocationReached):
        spectral_replicas(HaarU(), rmt.DIMENSION_CAP, 1, seed=0)
    with pytest.raises(_AllocationReached):
        trace_observables(four, 2, rmt.VALUE_CAP // 4, seed=0)
    assert shapes == [(1, rmt.DIMENSION_CAP), (rmt.VALUE_CAP // 4, 4)]
    with pytest.raises(CapacityError, match="exceeds the Monte Carlo cap"):
        spectral_replicas(HaarU(), rmt.DIMENSION_CAP + 1, 1, seed=0)
    with pytest.raises(CapacityError, match="stored values"):
        trace_observables(four, 2, rmt.VALUE_CAP // 4 + 1, seed=0)
    assert len(shapes) == 2


def test_sampler_refuses_n_above_the_cap_before_drawing(monkeypatch):
    """sample_haar_unitary at N = DIMENSION_CAP reaches numpy's generator
    (replaced by one that raises), and one past it is refused first."""
    def reached(seed):
        raise _AllocationReached

    monkeypatch.setattr(np.random, "default_rng", reached)
    with pytest.raises(_AllocationReached):
        sample_haar_unitary(rmt.DIMENSION_CAP, seed=0)
    with pytest.raises(CapacityError, match=r"^N = 8193 exceeds the Monte "
                                            r"Carlo cap 8192$"):
        sample_haar_unitary(rmt.DIMENSION_CAP + 1, seed=0)


def test_library_runs_refuse_a_negative_seed_before_any_draw(monkeypatch):
    draws = []
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed))
    with pytest.raises(WordParseError, match="^seed must be at least 0, "
                                             "got -1$"):
        trace_observables({"t": HaarU()}, 4, 10, seed=-1)
    with pytest.raises(WordParseError, match="^seed must be at least 0"):
        spectral_replicas(rmt.FIGURE1_ARCSINE, 4, 1, seed=-1)
    assert draws == []


def test_an_unknown_stream_is_named_before_numpy_is_called(monkeypatch):
    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} called before the refusal")

    draws = []
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed))
    monkeypatch.setattr(rmt, "np", Untouchable())
    with pytest.raises(HaarlabError, match=r"^stream 'nope' is not one of "
                                           r"\['library', 'simulate', "):
        trace_observables({"t": HaarU()}, 4, 10, seed=0, stream="nope")
    assert draws == []


@pytest.mark.parametrize("observables, message", [
    ({}, r"^no observables to trace$"),
    ([], r"^no observables to trace$"),
    ([("a", HaarU()), ("a", HaarU(1, -1))], r"^observable 'a' is given "
                                             r"twice$"),
    ([("a", HaarU()), ("b", HaarU()), ("b", HaarU(-1, 1))],
     r"^observable 'b' is given twice$")],
    ids=["empty-mapping", "empty-list", "repeated-first", "repeated-later"])
def test_trace_observables_refuses_no_or_repeated_names_before_any_draw(
        observables, message, monkeypatch):
    draws = []
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed))
    with pytest.raises(HaarlabError, match=message):
        trace_observables(observables, 64, 200, seed=0)
    assert draws == []


def _counted_draws(monkeypatch) -> list:
    """The seeds rmt's sampler is called with, the draws still made."""
    draws = []
    sample = rmt.sample_haar_unitary

    def counting(N, seed):
        draws.append(seed)
        return sample(N, seed)

    monkeypatch.setattr(rmt, "sample_haar_unitary", counting)
    return draws


@pytest.mark.parametrize("node, N", [
    (HaarU(), 1), (HaarU(), 512), (Sum((HaarU(), HaarU(-1, 1))), 64),
    (Sum((HaarU(), HaarU(-1, 1))), 2)], ids=["U-1", "U-512", "U+Ut-64",
                                             "U+Ut-2"])
def test_a_tree_that_is_not_self_adjoint_is_refused_before_any_draw(
        node, N, monkeypatch):
    """Each tree is tried once at a fixed unitary that is neither real nor
    symmetric; U + Ut is symmetric at every U, self-adjoint only at a
    real one."""
    monkeypatch.setenv("HAARLAB_THREADS", "2")
    draws = _counted_draws(monkeypatch)
    with pytest.raises(NotSelfAdjointError):
        spectral_replicas(node, N, 20, seed=0)
    assert draws == []


def test_a_wrong_size_constant_is_refused_before_any_draw(monkeypatch):
    monkeypatch.setenv("HAARLAB_THREADS", "2")
    draws = _counted_draws(monkeypatch)
    wrong = Const("A", np.eye(3))
    for node in (wrong, Product((HaarU(), wrong))):
        with pytest.raises(DimensionError, match="'A'"):
            trace_observables({"u": HaarU(), "t": node}, 512, 10, seed=0)
        with pytest.raises(DimensionError, match="'A'"):
            spectral_replicas(Sum((node, Variant(node, -1, -1))), 4, 2, seed=0)
    assert draws == []


def test_figure1_trees_pass_the_fixed_unitary(monkeypatch):
    """Both panels are self-adjoint at every unitary, so the check before
    the draws lets them through, at N = 1 too."""
    draws = _counted_draws(monkeypatch)
    for node in (rmt.FIGURE1_ARCSINE, rmt.FIGURE1_SUM_LAW):
        assert spectral_replicas(node, 1, 2, seed=0).shape == (2, 1)
    assert len(draws) == 4


@pytest.mark.parametrize("N", [0, -2])
def test_library_runs_refuse_n_below_1_before_any_draw(N, monkeypatch):
    # the fixed unitary cannot be built at N < 0, and a spectral run
    # allocates N values per replica
    draws = _counted_draws(monkeypatch)
    with pytest.raises(DimensionError, match="^N must be at least 1$"):
        trace_observables({"t": HaarU()}, N, 10, seed=0)
    with pytest.raises(DimensionError, match="^N must be at least 1$"):
        spectral_replicas(rmt.FIGURE1_ARCSINE, N, 1, seed=0)
    assert draws == []


def test_check_run_hands_the_runner_its_worker_count(monkeypatch):
    monkeypatch.setenv("HAARLAB_THREADS", "3")
    assert rmt.check_run(8, 10, 1, 0) == 3
    assert rmt.check_run(8, 2, 1, 0, floor=1) == 2
    admitted = []
    monkeypatch.setattr(rmt, "check_run",
                        lambda *run: admitted.append(run) or 1)
    monkeypatch.setattr(rmt, "worker_count",
                        lambda: pytest.fail("the runner read worker_count"))
    stats = trace_observables({"t": HaarU()}, 4, 10, seed=0)
    assert stats.replica_count == 10
    assert admitted == [(4, 10, 1, 0, rmt.REPLICA_FLOOR)]


def test_trace_statistics_covariance():
    obs = {"u": HaarU(), "ubar": HaarU(1, -1)}
    stats = trace_observables(obs, 32, 300, seed=1)
    # E Tr(U) Tr(U-) = 1 with fluctuations O(1/sqrt(R))
    cov = stats.cumulants(2)((1, 2))
    assert abs(cov - 1.0) < 0.35


def test_trace_statistics_csv_rows():
    obs = [("w", HaarU())]
    stats = trace_observables(obs, 4, 10, seed=3)
    rows = stats.csv_rows()
    assert len(rows) == 10
    name, replica, re, im = rows[0]
    assert name == "w" and replica == 0
    assert isinstance(re, float) and isinstance(im, float)


def test_trace_statistics_row_names_an_unknown_observable():
    stats = trace_observables({"a": HaarU()}, 4, 10, 0)
    with pytest.raises(HaarlabError,
                       match=r"^unknown observable 'b'; known: 'a'$"):
        stats.row("b")
    with pytest.raises(HaarlabError, match="unknown observable 'b'"):
        stats.mean("b")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_trace_observables_refuses_a_trace_that_is_not_finite():
    # each entry of A is a finite double, but (A A)_11 = 1e400 is not
    a = np.diag([1e200, 1.0]).astype(complex)
    obs = [("ok", HaarU()), ("big", _conjugated(Product((Const("A", a),
                                                         Const("A", a)))))]
    with pytest.raises(HaarlabError, match=r"^trace of observable 'big' at "
                       r"replica 0 is not finite$"):
        trace_observables(obs, 2, 10, seed=0)


def test_evaluate_computes_a_shared_subtree_once(monkeypatch):
    # figure1's panel-2 tree holds U + U* twice: once as a term, once
    # under the transpose
    calls = []
    inner = rmt.variant_matrix

    def counting(m, eps, eta):
        calls.append((eps, eta))
        return inner(m, eps, eta)

    monkeypatch.setattr(rmt, "variant_matrix", counting)
    u = sample_haar_unitary(6, seed=3)
    sym = Sum((HaarU(), HaarU(-1, -1)))
    m = evaluate(Sum((sym, Variant(sym, -1, 1))), u)
    assert len(calls) == 3
    s = u + np.conj(u.T)
    assert np.array_equal(m, s + s.T)


def test_evaluate_recomputes_a_leaf_object_reached_twice(monkeypatch):
    """Only Sums and Products are kept within a call: the one Uc object
    of Uc B Uc is conjugated at each appearance, so a replica holds no
    extra N x N copy of it."""
    calls = []
    inner = rmt.variant_matrix

    def counting(m, eps, eta):
        calls.append((eps, eta))
        return inner(m, eps, eta)

    monkeypatch.setattr(rmt, "variant_matrix", counting)
    u = sample_haar_unitary(6, seed=3)
    b = Const("B", np.arange(36.0).reshape(6, 6))
    uc = HaarU(1, -1)
    m = evaluate(Product((uc, b, uc)), u)
    assert calls == [(1, -1), (1, -1)]
    assert np.array_equal(m, np.conj(u) @ b.matrix @ np.conj(u))


def _diag_const(name, d):
    return Const(name, np.diag(np.asarray(d, dtype=complex)))


def _constants(n):
    """n x n constants: dense complex B, diagonal A (+-1), G (real) and
    C (complex), dense real R."""
    rng = np.random.default_rng(11)
    dense = Const("B", rng.standard_normal((n, n))
                  + 1j * rng.standard_normal((n, n)))
    signs = _diag_const("A", ([1.0, -1.0] * n)[:n])
    gauss = _diag_const("G", rng.standard_normal(n))
    cplx = _diag_const("C", rng.standard_normal(n)
                       + 1j * rng.standard_normal(n))
    real = Const("R", rng.standard_normal((n, n)))
    return dense, signs, gauss, cplx, real


U, UT, UC, UH = HaarU(), HaarU(-1, 1), HaarU(1, -1), HaarU(-1, -1)


def _mirrored_words(n):
    """(letters, mirror) for words whose second half is the (eps, eta)
    = mirror variant of the first, for each of the four variants."""
    b, a, _g, c, r = _constants(n)
    return [
        ((U, U, U, U), (1, 1)),
        ((U, b, U, b), (1, 1)),
        ((U, UT), (-1, 1)),
        ((U, a, UH, UC, a, UT), (-1, 1)),
        ((U, b, UH, UC, Variant(b, -1, 1), UT), (-1, 1)),
        ((U, U, UC, UC), (1, -1)),
        ((U, r, UC, r), (1, -1)),
        ((U, b, UC, Variant(b, 1, -1)), (1, -1)),
        ((U, c, Variant(c, -1, -1), UH), (-1, -1)),
    ]


def _mirrored_trees(n):
    """Hand-built products of the mirrored words, and three whose halves
    nest a Sum or a Product; none shares a node between its halves."""
    b, a, _g, _c, _r = _constants(n)
    sym = Sum((U, UH))
    ubu = _conjugated(b)
    mix = Sum((a, UC))
    return [Product(letters) for letters, _ in _mirrored_words(n)] + [
        Product((sym, Variant(sym, -1, 1))),
        Product((Product((U, b)), Product((Variant(b, -1, 1), UT)))),
        Product((ubu, mix, Variant(mix, -1, -1), Variant(ubu, -1, -1))),
    ]


def _near_misses(n):
    """Words that look mirrored but are not: odd length, halves that
    differ in one constant, a dense constant where its transpose would
    be, complex constants under conjugation."""
    b, a, g, c, r = _constants(n)
    return [
        (U, a, UH, UC, a),
        (U, a, UH, UC, g, UT),
        (U, b, U, r),
        (U, b, UH, UC, b, UT),
        (U, b, UC, b),
        (U, c, UC, c),
    ]


def _trace_trees(n):
    """Trees whose trace the fast path takes: products ending in a
    Haar letter, a dense or diagonal constant, a Sum, a Variant or a
    U X U* product, with subtrees shared by object; mirrored words as
    word_product builds them and as plain products, and near misses."""
    dense, signs, gauss, cplx, _real = _constants(n)
    sym = Sum((HaarU(), HaarU(-1, -1)))
    conj_a = _conjugated(signs)
    words = [w for w, _ in _mirrored_words(n)] + _near_misses(n)
    return [
        Product((HaarU(), HaarU(-1, 1))),
        Product((HaarU(), signs, HaarU(-1, -1), HaarU(1, -1), gauss,
                 HaarU(-1, 1))),
        Product((HaarU(), cplx)),
        Product((dense, HaarU(), dense)),
        Product((sym, Variant(sym, -1, 1))),
        Product((conj_a, Variant(conj_a, -1, 1))),
        Product((_conjugated(dense), Variant(_conjugated(gauss), -1, -1),
                 Sum((signs, HaarU(1, -1))))),
        Product((signs, HaarU(), _conjugated(Product((dense, cplx))))),
        Product((HaarU(),)),
        Sum((Product((HaarU(), signs)), dense)),
        _conjugated(signs),
        HaarU(1, -1),
    ] + _mirrored_trees(n) + [word_product(letters) for letters in words]


@pytest.mark.parametrize("n", [4, 16, 33])
def test_trace_path_matches_trace_of_evaluate(n):
    u = sample_haar_unitary(n, seed=[1, 2, n])
    for node in _trace_trees(n):
        got = evaluate(node, u, trace=True)
        want = np.trace(evaluate(node, u))
        # relative, with a floor for traces near 0
        assert abs(got - want) <= 1e-12 * max(abs(want), n), node


def _shared_half(tree):
    """((eps, eta), factors of L) when tree is Product((L, L)) or
    Product((L, Variant(L, eps, eta))) with L one object; else None."""
    if not (isinstance(tree, Product) and len(tree.factors) == 2):
        return None
    left, right = tree.factors
    if right is left:
        return (1, 1), left.factors
    if isinstance(right, Variant) and right.node is left:
        return (right.eps, right.eta), left.factors
    return None


def test_mirrored_halves_are_found_when_the_product_is_built():
    for letters, mirror in _mirrored_words(4):
        assert _shared_half(word_product(letters)) == \
            (mirror, letters[:len(letters) // 2]), letters
    for letters in _near_misses(4):
        assert word_product(letters) == Product(letters), letters
    assert word_product((UC,)) is UC


def test_a_mirrored_word_folds_only_its_left_half(monkeypatch):
    folded = []
    inner = rmt._fold

    def counting(factors, *args):
        folded.append(factors)
        return inner(factors, *args)

    monkeypatch.setattr(rmt, "_fold", counting)
    u = sample_haar_unitary(8, seed=4)
    _b, a, g, _c, _r = _constants(8)
    tree = word_product((U, a, UH, UC, a, UT))
    evaluate(tree, u, trace=True)
    # the prefix is the shared half, whose three factors fold once
    assert folded == [tree.factors[:1], (U, a, UH)]
    folded.clear()
    # one constant differs: the prefix path folds all but the last
    evaluate(word_product((U, a, UH, UC, g, UT)), u, trace=True)
    assert folded == [(U, a, UH, UC, g)]
    folded.clear()
    # so does a mirrored product whose halves share no node
    evaluate(Product((U, a, UH, UC, a, UT)), u, trace=True)
    assert folded == [(U, a, UH, UC, a)]


def _rotations(factors):
    return [factors[k:] + factors[:k] for k in range(len(factors))]


@pytest.mark.parametrize("n", [4, 16, 33])
def test_every_rotation_of_a_mirrored_word_is_mirrored(n):
    """The six rotations of tr(U R U* Uc Rt Ut) with a dense real R,
    four of which the given split alone missed, and every rotation of
    the other mirrored words: word_product shares a half of each, and
    its trace is the trace of the word's matrix."""
    r = _constants(n)[4]
    u = sample_haar_unitary(n, seed=[3, n])
    word = (U, r, UH, UC, Variant(r, -1, 1), UT)
    for letters, mirror in [(word, (-1, 1))] + _mirrored_words(n):
        for turned in _rotations(letters):
            tree = word_product(turned)
            _mirror, half = _shared_half(tree)
            assert len(half) == len(turned) // 2
            got = evaluate(tree, u, trace=True)
            want = np.trace(evaluate(Product(turned), u))
            assert abs(got - want) <= 1e-12 * max(abs(want), n), turned
        # the given split comes first, so its bytes do not move
        assert _shared_half(word_product(letters)) == \
            (mirror, letters[:len(letters) // 2])


def test_a_rotated_mirrored_word_folds_only_its_rotated_half(monkeypatch):
    folded = []
    inner = rmt._fold

    def counting(factors, *args):
        folded.append(factors)
        return inner(factors, *args)

    monkeypatch.setattr(rmt, "_fold", counting)
    u = sample_haar_unitary(8, seed=4)
    r = _constants(8)[4]
    rt = Variant(r, -1, 1)
    # tr(A U* Uc At Ut U) is mirrored two rotations on, about the
    # split Uc At Ut | U A U*
    tree = word_product((r, UH, UC, rt, UT, U))
    evaluate(tree, u, trace=True)
    assert folded == [tree.factors[:1], (UC, rt, UT)]
    folded.clear()
    # tr(Ut U A U* Uc At), one rotation on: U A U* | Uc At Ut
    tree = word_product((UT, U, r, UH, UC, rt))
    evaluate(tree, u, trace=True)
    assert folded == [tree.factors[:1], (U, r, UH)]


def test_haar_letters_refuse_signs_other_than_plus_or_minus_one():
    for make in (lambda: HaarU(0, 5), lambda: HaarU(1, 2),
                 lambda: Variant(HaarU(), 2, 7),
                 lambda: Variant(Sum((HaarU(),)), -1, 0)):
        with pytest.raises(HaarlabError, match="must be \\+1 or -1"):
            make()


@pytest.mark.parametrize("n", [1, 3, 128])
def test_trace_of_a_bare_haar_variant_reads_the_diagonal(n, monkeypatch):
    u = sample_haar_unitary(n, seed=[7, n])
    variants = [(eps, eta) for eps in (1, -1) for eta in (1, -1)]
    want = [np.trace(variant_matrix(u, eps, eta)) for eps, eta in variants]
    formed = []
    monkeypatch.setattr(rmt, "variant_matrix",
                        lambda *args: formed.append(args))
    got = [evaluate(HaarU(eps, eta), u, trace=True)
           for eps, eta in variants]
    assert np.array_equal(got, want)
    assert formed == []


@pytest.mark.parametrize("n", [16, 128])
def test_a_transposed_constant_traces_like_its_transposed_matrix(n):
    """Variant(B, -1, 1) gives the bytes of a constant holding B^t."""
    b = _constants(n)[0]
    bt = Const("Bt", b.matrix.T.copy())
    u = sample_haar_unitary(n, seed=n)
    for make in (lambda x: Product((x, U)), lambda x: Product((U, x)),
                 lambda x: Product((x, UC, b)), lambda x: Product((x, x))):
        got = evaluate(make(Variant(b, -1, 1)), u, trace=True)
        assert np.array_equal(got, evaluate(make(bt), u, trace=True))


def test_trace_of_a_shared_subtree_is_evaluated_once(monkeypatch):
    calls = []
    inner = rmt.variant_matrix

    def counting(m, eps, eta):
        calls.append((eps, eta))
        return inner(m, eps, eta)

    monkeypatch.setattr(rmt, "variant_matrix", counting)
    u = sample_haar_unitary(6, seed=3)
    sym = Sum((HaarU(), HaarU(-1, -1)))
    evaluate(Product((sym, Variant(sym, -1, 1), sym)), u, trace=True)
    # U, U* once for the shared sum, and its transpose
    assert len(calls) == 3


@pytest.mark.parametrize("n", [16, 64, 128])
def test_diagonal_constants_equal_dense_products(n):
    rng = np.random.default_rng(n)
    u = sample_haar_unitary(n, seed=n)
    uh = np.conj(u.T)
    for d in ([1.0, -1.0] * (n // 2), rng.standard_normal(n)):
        a = _diag_const("A", d)
        assert a.diagonal is not None
        dense = np.diag(np.asarray(d, dtype=complex))
        assert np.array_equal(evaluate(_conjugated(a), u), u @ dense @ uh)
        assert np.array_equal(evaluate(Product((HaarU(), a, HaarU(1, -1))), u),
                              u @ dense @ np.conj(u))
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = _diag_const("C", d)
    dense = np.diag(d)
    got = evaluate(_conjugated(c), u)
    assert np.max(np.abs(got - u @ dense @ uh)) <= 1e-15
    got = evaluate(Product((HaarU(), c, HaarU(1, -1))), u)
    assert np.max(np.abs(got - u @ dense @ np.conj(u))) <= 1e-15
    off = np.diag(d)
    off[0, 1] = 1e-300
    assert Const("D", off).diagonal is None


def test_evaluate_takes_the_size_from_u():
    """N is u's size, not an argument: a dense constant of another size
    raises DimensionError, not numpy's broadcast error."""
    u = sample_haar_unitary(4, seed=1)
    wrong = Const("A", np.arange(9.0).reshape(3, 3))
    for node in (Product((HaarU(), wrong)), Product((wrong, HaarU())),
                 Sum((HaarU(), wrong)), Variant(wrong, -1, 1)):
        for trace in (False, True):
            with pytest.raises(DimensionError, match="'A'"):
                evaluate(node, u, trace=trace)
    with pytest.raises(TypeError):
        evaluate(HaarU(), u, 4)


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_size_diagonal_constant_raises(trace):
    u = sample_haar_unitary(4, seed=1)
    wrong = Const("A", np.eye(3))
    assert wrong.diagonal is not None
    for node in (Product((HaarU(), wrong)), Product((wrong, HaarU())),
                 Product((HaarU(), wrong, HaarU())), _conjugated(wrong),
                 Product((_conjugated(wrong), HaarU()))):
        with pytest.raises(DimensionError):
            evaluate(node, u, trace=trace)


def test_seeds_draw_disjoint_unitaries():
    # with seed ^ j, seeds 0 and 1 drew the same unitaries whenever the
    # replica count was even
    obs = [("u", HaarU())]
    a = trace_observables(obs, 8, 10, seed=0).row("u")
    b = trace_observables(obs, 8, 10, seed=1).row("u")
    assert set(a.tolist()).isdisjoint(b.tolist())


def test_call_sites_draw_from_distinct_streams(monkeypatch, tmp_path):
    """The two figure1 panels and checks 07 and 11 each draw from their
    own stream: every replica seed [seed, tag, j] differs."""
    from haarlab import cli, verify
    drawn = []
    one = {}    # one real draw per N keeps the run short

    def sampler(N, seed):
        drawn.append(tuple(seed))
        if N not in one:
            one[N] = sample_haar_unitary(N, 0)
        return one[N]

    monkeypatch.setattr(rmt, "sample_haar_unitary", sampler)
    assert cli.main(["figure1", "--N", "32", "--replicas", "2", "--outdir",
                     str(tmp_path)]) == 0
    verify.CHECKS["transpose_second_order"](0)
    verify.CHECKS["cumulant_algebra"](0)
    tags = {name: rmt.STREAMS[name] for name in
            ("figure1.arcsine", "figure1.sum_law", "check07", "check11")}
    assert len(set(tags.values())) == 4
    by_tag = {}
    for seed, tag, j in drawn:
        by_tag.setdefault(tag, []).append((seed, j))
    assert sorted(by_tag) == sorted(tags.values())
    assert len(by_tag[tags["figure1.arcsine"]]) == 2
    assert len(by_tag[tags["check07"]]) == 4000
    assert len(set(drawn)) == len(drawn)
    assert len(set(rmt.STREAMS.values())) == len(rmt.STREAMS)


def _full_deviation(m):
    return np.max(np.abs(m - np.conj(m.T)))


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
def test_hermitian_deviation_is_the_full_max(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + np.conj(g.T)
    noisy = h + 1e-9 * rng.standard_normal((n, n))
    for m in (h, noisy, g, h.real, noisy.real):
        assert rmt.hermitian_deviation(m) == _full_deviation(m)
    for i, j in {(0, 0), (n - 1, 0), (n // 2, n - 1)}:
        bad = noisy.copy()
        bad[i, j] = np.nan
        assert np.isnan(rmt.hermitian_deviation(bad))
        assert np.isnan(_full_deviation(bad))


def test_spectrum_accepts_and_rejects_right_at_the_tolerance():
    tol = rmt.HERMITIAN_TOL
    above = np.nextafter(tol, 1.0)
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    for where in ((0, 1), (2, 0)):
        at = m.copy()
        at[where] = tol
        assert rmt.hermitian_deviation(at) == tol
        spectrum(at)
        over = m.copy()
        over[where] = above
        with pytest.raises(NotSelfAdjointError,
                           match=f"deviates from self-adjoint by "
                                 f"{_full_deviation(over):.3e}"):
            spectrum(over)
    # a diagonal entry off the real line deviates by twice its imaginary part
    at = m.copy()
    at[1, 1] += 0.5j * tol
    assert rmt.hermitian_deviation(at) == tol
    spectrum(at)
    at[1, 1] += 0.5j * (above - tol)
    with pytest.raises(NotSelfAdjointError):
        spectrum(at)
