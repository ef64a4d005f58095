"""Monte Carlo side of the package: Haar-unitary sampling, ensemble
expression trees sharing one U per replica, spectra, histograms, KS
distances, and mergeable trace statistics.

Everything here is double precision; exact values live in haar_expect.
Reproducibility contract: replica r draws its unitary from the derived
seed (seed XOR r), so any partition of the replica range over workers
produces the same numbers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cumulants import CumulantFunctional, empirical_cumulants
from .errors import (DimensionError, InsufficientSamplesError,
                     NotSelfAdjointError)

HERMITIAN_TOL = 1e-8
THREADS_ENV = "HAARLAB_THREADS"


def sample_haar_unitary(N: int, seed: int) -> np.ndarray:
    """Haar-distributed N x N unitary: complex Ginibre matrix, QR, then
    column phases fixed so the triangular factor has positive real
    diagonal.  Without the phase step QR output is not Haar."""
    if N < 1:
        raise DimensionError("N must be at least 1")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    g /= np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ----------------------------------------------------------------------
# ensemble expression trees

class Node:
    """Base marker for ensemble recipe nodes."""
    __slots__ = ()


@dataclass(frozen=True)
class HaarU(Node):
    """The shared Haar unitary of the replica, in one of its four
    variants (eps transposes, eta conjugates entries)."""
    eps: int = 1
    eta: int = 1


@dataclass(frozen=True, eq=False)
class Const(Node):
    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"constant {self.name!r} is not square")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PhasedShift(Node):
    """The superdiagonal matrix with (k, k+1) entry i^k (1-based); all
    its powers below the dimension are traceless."""


@dataclass(frozen=True)
class Variant(Node):
    node: Node
    eps: int = 1
    eta: int = 1


@dataclass(frozen=True)
class Conjugated(Node):
    """U . node . U* with the replica's shared U."""
    node: Node


@dataclass(frozen=True)
class Sum(Node):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Scale(Node):
    factor: complex
    node: Node


@dataclass(frozen=True)
class Product(Node):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class EnsembleSpec:
    N: int
    root: Node


def variant_matrix(m: np.ndarray, eps: int, eta: int) -> np.ndarray:
    if eps == -1:
        m = m.T
    if eta == -1:
        m = np.conj(m)
    return m


def phased_shift_matrix(N: int) -> np.ndarray:
    a = np.zeros((N, N), dtype=complex)
    for k in range(1, N):
        a[k - 1, k] = 1j ** k
    return a


def evaluate(node: Node, u: np.ndarray, N: int) -> np.ndarray:
    if isinstance(node, HaarU):
        return variant_matrix(u, node.eps, node.eta)
    if isinstance(node, Const):
        if node.matrix.shape != (N, N):
            raise DimensionError(
                f"constant {node.name!r} is {node.matrix.shape}, need {N}")
        return node.matrix
    if isinstance(node, PhasedShift):
        return phased_shift_matrix(N)
    if isinstance(node, Variant):
        return variant_matrix(evaluate(node.node, u, N), node.eps, node.eta)
    if isinstance(node, Conjugated):
        return u @ evaluate(node.node, u, N) @ np.conj(u.T)
    if isinstance(node, Sum):
        out = np.zeros((N, N), dtype=complex)
        for t in node.terms:
            out = out + evaluate(t, u, N)
        return out
    if isinstance(node, Scale):
        return node.factor * evaluate(node.node, u, N)
    if isinstance(node, Product):
        out = np.eye(N, dtype=complex)
        for f in node.factors:
            out = out @ evaluate(f, u, N)
        return out
    raise TypeError(f"not an ensemble node: {node!r}")


def realize(spec: EnsembleSpec, seed: int) -> np.ndarray:
    """One draw of the ensemble: a single Haar unitary is sampled from
    the seed and shared by every HaarU and Conjugated node."""
    u = sample_haar_unitary(spec.N, seed)
    return evaluate(spec.root, u, spec.N)


# ----------------------------------------------------------------------
# spectra

@dataclass(frozen=True)
class SpectralSample:
    eigenvalues: np.ndarray
    N: int
    replica: int
    seed: int


def spectrum(matrix: np.ndarray, seed: int = 0, replica: int = 0) -> SpectralSample:
    """Real spectrum of a self-adjoint realization.  A matrix that is not
    hermitian within HERMITIAN_TOL in max-norm is rejected rather than
    silently projected."""
    dev = np.max(np.abs(matrix - np.conj(matrix.T)))
    if dev > HERMITIAN_TOL:
        raise NotSelfAdjointError(
            f"matrix deviates from self-adjoint by {dev:.3e}")
    eig = np.linalg.eigvalsh(matrix)
    return SpectralSample(eig, matrix.shape[0], replica, seed)


def pooled_eigenvalues(samples) -> np.ndarray:
    if isinstance(samples, SpectralSample):
        samples = [samples]
    arrays = [s.eigenvalues for s in samples]
    if not arrays:
        raise InsufficientSamplesError("no spectral samples supplied")
    return np.sort(np.concatenate(arrays))


def histogram(samples, bins: int, hist_range: tuple) -> tuple:
    """Binned spectral density normalized to integrate to 1, pooled over
    one or many SpectralSamples.  Returns (bin_edges, densities)."""
    if bins < 10:
        raise ValueError("need at least 10 bins")
    pooled = pooled_eigenvalues(samples)
    if pooled.size == 0:
        raise InsufficientSamplesError("no eigenvalues to bin")
    density, edges = np.histogram(pooled, bins=bins, range=hist_range,
                                  density=True)
    return edges, density


def ks_distance(points, cdf: Callable[[float], float],
                cdf_left: Callable[[float], float] | None = None) -> float:
    """sup |empirical CDF - reference CDF| over the pooled points.

    For a continuous reference leave cdf_left unset.  A reference with
    jumps needs its left limits supplied separately, otherwise the
    statistic against a matching point mass reports 1 instead of 0.
    """
    if isinstance(points, SpectralSample):
        pooled = pooled_eigenvalues(points)
    elif isinstance(points, (list, tuple)) and points and \
            isinstance(points[0], SpectralSample):
        pooled = pooled_eigenvalues(points)
    else:
        pooled = np.sort(np.asarray(points, dtype=float))
    n = pooled.size
    if n == 0:
        raise InsufficientSamplesError("no points for the KS statistic")
    if cdf_left is None:
        cdf_left = cdf
    d = 0.0
    for i, x in enumerate(pooled, start=1):
        hi = abs(i / n - cdf(float(x)))
        lo = abs((i - 1) / n - cdf_left(float(x)))
        d = max(d, hi, lo)
    return d


# ----------------------------------------------------------------------
# trace statistics

@dataclass
class TraceStatistics:
    """Per-replica unnormalized traces of named observables, all computed
    from the same per-replica unitary.  Merging concatenates disjoint
    replica ranges and re-sorts, so any work partition yields the same
    object."""

    names: tuple
    N: int
    seed: int
    replica_ids: np.ndarray
    samples: np.ndarray

    @property
    def replica_count(self) -> int:
        return int(self.replica_ids.size)

    def row(self, name: str) -> np.ndarray:
        return self.samples[self.names.index(name)]

    def mean(self, name: str) -> complex:
        return complex(np.mean(self.row(name)))

    def covariance(self, name_a: str, name_b: str) -> complex:
        """cov(Tr a, Tr b) without conjugation; conjugate-variant words
        are separate observables."""
        a, b = self.row(name_a), self.row(name_b)
        return complex(np.mean(a * b) - np.mean(a) * np.mean(b))

    def moment(self, names: Sequence[str]) -> complex:
        prod = np.ones(self.replica_count, dtype=complex)
        for nm in names:
            prod = prod * self.row(nm)
        return complex(np.mean(prod))

    def cumulants(self, max_order: int = 2) -> CumulantFunctional:
        """Empirical joint cumulants of the trace variables, indexed by
        1-based observable position."""
        return empirical_cumulants([self.samples[i]
                                    for i in range(len(self.names))],
                                   max_order=max_order)

    def merge(self, other: "TraceStatistics") -> "TraceStatistics":
        if (self.names, self.N, self.seed) != (other.names, other.N, other.seed):
            raise ValueError("cannot merge statistics from different runs")
        ids = np.concatenate([self.replica_ids, other.replica_ids])
        if np.unique(ids).size != ids.size:
            raise ValueError("overlapping replica ranges")
        order = np.argsort(ids)
        samples = np.concatenate([self.samples, other.samples], axis=1)
        return TraceStatistics(self.names, self.N, self.seed,
                               ids[order], samples[:, order])

    def csv_rows(self) -> list:
        """(observable, replica, re, im) rows in a deterministic order."""
        rows = []
        for k, nm in enumerate(self.names):
            for j, rid in enumerate(self.replica_ids):
                z = self.samples[k, j]
                rows.append((nm, int(rid), float(z.real), float(z.imag)))
        return rows


def trace_observables(observables, N: int, replicas: int, seed: int,
                      first_replica: int = 0) -> TraceStatistics:
    """Tr of each observable tree per replica, the whole batch reusing
    one Haar draw per replica (derived seed = seed XOR replica id).

    Replicas may be computed by a thread pool (HAARLAB_THREADS); results
    land in preassigned slots, so the output does not depend on the
    worker count.
    """
    if isinstance(observables, Mapping):
        items = list(observables.items())
    else:
        items = list(observables)
    if replicas < 10:
        raise InsufficientSamplesError("need at least 10 replicas")
    names = tuple(nm for nm, _ in items)
    nodes = [node for _, node in items]
    ids = np.arange(first_replica, first_replica + replicas, dtype=np.int64)
    out = np.empty((len(items), replicas), dtype=complex)

    def run_one(j: int):
        rid = int(ids[j])
        u = sample_haar_unitary(N, seed ^ rid)
        for k, node in enumerate(nodes):
            out[k, j] = np.trace(evaluate(node, u, N))

    threads = worker_count()
    if threads == 1:
        for j in range(replicas):
            run_one(j)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_one, range(replicas)))
    return TraceStatistics(names, N, seed, ids, out)


def spectral_replicas(spec: EnsembleSpec, replicas: int, seed: int) -> list:
    """Spectra of independent realizations, one per derived replica seed."""
    out = []
    for r in range(replicas):
        m = realize(spec, seed ^ r)
        out.append(spectrum(m, seed=seed ^ r, replica=r))
    return out


def phased_shift_transpose_traces(n_values: Iterable[int]) -> list:
    """The recorded sequence (N, Tr(A A^t), tr(A A^t)) for the
    superdiagonal generator; the unnormalized trace oscillates between
    -1 and 0 while the normalized one tends to 0.  Nothing is asserted
    about a limit."""
    rows = []
    for N in n_values:
        a = phased_shift_matrix(N)
        t = np.trace(a @ a.T).real
        rows.append((int(N), float(t), float(t / N)))
    return rows
