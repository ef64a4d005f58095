"""Monte Carlo side of the package: Haar-unitary sampling, ensemble
expression trees sharing one U per replica, spectra, histograms, KS
distances, and per-replica trace statistics.

Everything here is double precision; exact values live in haar_expect.
Haar unitaries are products of Householder reflectors drawn directly
(Stewart 1980, Mezzadri 2007; see sample_haar_unitary), which have the
law of the phase-fixed QR of a Ginibre matrix without factoring one.
Both replica jobs, trace_observables and spectral_replicas, are tasks on
one runner, _run_replicas.  It is the only replica loop: replica j of a
call from the site whose tag in STREAMS is s draws its unitary from
numpy's default_rng([seed, s, j]).  Of W = min(worker_count(),
replicas) workers, worker w runs replicas w, w + W, w + 2W, ...; the
calling thread is worker 0 and W - 1 pool threads are the rest.  Every
BLAS and LAPACK call inside runs on one thread (the workers are the
only parallelism).  Each replica's result lands in its own row, so the
numbers depend neither on HAARLAB_THREADS nor on OPENBLAS_NUM_THREADS.
A run's N, replicas and seed and a histogram's bins are ints: a float,
a bool or a numpy integer raises TypeError before any draw.
Under glibc each run raises the heap's mmap and trim thresholds, and
they stay raised, so a replica reuses the pages the one before it freed
instead of faulting in new ones; each run ends by handing free memory
back with malloc_trim(0).  These settings are process-wide; the runner
leaves them alone when the environment sets glibc's malloc tunables
(malloc_tuned).
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .cumulants import CumulantFunctional, empirical_cumulants
from .errors import (CapacityError, DimensionError, HaarlabError,
                     InsufficientSamplesError, NotSelfAdjointError,
                     WordParseError, require_int)

HERMITIAN_TOL = 1e-8
_ROW_BLOCK = 64     # rows per block of hermitian_deviation
# reflectors per compact-WY block of sample_haar_unitary: at one BLAS
# thread, 32 was the fastest of 16-96 at N = 64 and 128, and within the
# host's noise of the fastest at N = 512 and 1024
_HOUSEHOLDER_BLOCK = 32
THREADS_ENV = "HAARLAB_THREADS"
# Caps, CapacityError beyond them: the largest N sample_haar_unitary
# draws (one N x N complex matrix is then 1 GiB, and each worker holds a
# few), in check_dimension; the most values a replica run's result
# array holds (1 GiB of doubles), in check_run; the most bins of a
# histogram (check_bins); and the most replica workers (a run starts
# one thread per worker after the first, which is the caller), which
# HAARLAB_THREADS may not exceed and worker_count cuts the cores to.
DIMENSION_CAP = 8192
VALUE_CAP = 2 ** 27
BIN_CAP = 10 ** 4
WORKER_CAP = 256
# the fewest replicas trace_observables accepts, check_run's default
REPLICA_FLOOR = 10

# The integer tag of each call site that draws replicas.  Replica j of a
# call tagged s with seed `seed` samples from default_rng([seed, s, j]),
# a stream of its own: no two seeds, call sites or replicas share one.
# A tag is part of the output contract; a new call site takes a new one.
STREAMS = {
    "library": 0,               # trace_observables / spectral_replicas default
    "simulate": 1,
    "moment": 2,                # moment --mc
    "figure1.arcsine": 3,
    "figure1.sum_law": 4,
    "check07": 5,               # verify checks, by number
    "check08": 6,
    "check09.arcsine": 7,
    "check09.sum_law": 8,
    "check11": 9,
    "check12.traces": 10,
    "check12.spectra": 11,
}


def sample_haar_unitary(N: int, seed) -> np.ndarray:
    """Haar-distributed N x N unitary, a product of Householder
    reflectors drawn directly (Stewart, "The efficient generation of
    random orthogonal matrices with an application to condition
    estimators", SIAM J. Numer. Anal. 17, 1980; Mezzadri, "How to
    generate random matrices from the classical compact groups",
    Notices AMS 54, 2007).

    For k = 1..N, x_k in C^(N-k+1) is complex Gaussian; e^{i theta_k} =
    x_k1 / |x_k1| (1 when x_k1 is exactly 0, as LAPACK's zlarfg takes
    it), v_k = x_k + e^{i theta_k} |x_k| e_1, and H_k = I - 2 v_k v_k^H /
    |v_k|^2 maps x_k to -e^{i theta_k} |x_k| e_1.  The result is
    U = H_1 diag(1, H_2) ... diag(I_{N-1}, H_N) diag(-e^{i theta_k}).

    This is the law of Mezzadri's sampler, the Q of a complex Ginibre
    matrix's QR factorization with the phases fixed so that R has a
    positive diagonal, less the trailing updates of Householder QR:
    after the first reflection of a Ginibre matrix, the trailing
    (N-1) x (N-1) block is again Ginibre and independent of the first
    column, so drawing it afresh changes nothing about the law.  Neither
    H_k nor theta_k depends on the scale of x_k, which is therefore
    drawn with unit variance per real part.

    All N(N+1)/2 entries come from one standard_normal draw of
    interleaved (re, im) pairs, x_1 first, then x_2, and so on.  U is
    formed from the last block of _HOUSEHOLDER_BLOCK reflectors
    backwards, each block applied in compact WY form, I - V T V^H with
    T^-1 = diag(|v|^2 / 2) + (strict upper triangle of V^H V) (Joffrain
    et al., "Accumulating Householder transformations, revisited", ACM
    TOMS 32, 2006).  seed is
    anything numpy's default_rng takes: an int, or a sequence of them
    such as _run_replicas's [seed, stream tag, replica].  check_dimension
    refuses a bad N before any allocation."""
    check_dimension(N)
    rng = np.random.default_rng(seed)
    # row k holds x_{k+1} in columns k..N-1, zeros to its left
    v = np.zeros((N, N), dtype=complex)
    v[~np.tri(N, k=-1, dtype=bool)] = \
        rng.standard_normal((N * (N + 1) // 2, 2)).view(complex)[:, 0]
    norm = np.linalg.norm(v, axis=1)
    first = v.diagonal()
    size = np.abs(first)
    phase = np.divide(first, size, out=np.ones(N, dtype=complex),
                      where=size > 0)
    v.flat[::N + 1] += phase * norm
    half = norm * (norm + size)     # |v_k|^2 / 2
    # an exactly zero x_k gives v_k = 0; any nonzero |v_k|^2 / 2 then
    # keeps T^-1 invertible and makes H_k the identity
    half[half == 0] = 1.0
    q = np.eye(N, dtype=complex)
    block = _HOUSEHOLDER_BLOCK
    for j in range((N - 1) // block * block, -1, -block):
        rows = v[j:j + block, j:]       # V^T of the block
        vh = np.conj(rows)
        t_inv = np.triu(vh @ rows.T, 1)
        t_inv.flat[::len(t_inv) + 1] = half[j:j + block]
        # q is the identity outside q[j:, j:], so only that block moves
        q[j:, j:] -= rows.T @ (np.linalg.inv(t_inv) @ (vh @ q[j:, j:]))
    q *= -phase
    return q


def check_dimension(N: int) -> None:
    """TypeError for an N that is not an int, DimensionError for N below
    1, CapacityError for N above DIMENSION_CAP."""
    require_int(N, "dimension N")
    if N < 1:
        raise DimensionError("N must be at least 1")
    if N > DIMENSION_CAP:
        raise CapacityError(
            f"N = {N} exceeds the Monte Carlo cap {DIMENSION_CAP}")


def worker_count() -> int:
    """Replica workers of _run_replicas: HAARLAB_THREADS when set,
    else the cores this process may run on, at most WORKER_CAP.  A
    HAARLAB_THREADS that is not a positive integer raises
    WordParseError, and one above WORKER_CAP CapacityError, before any
    worker starts."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        return min(cores, WORKER_CAP)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise WordParseError(
            f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    if count > WORKER_CAP:
        raise CapacityError(
            f"{THREADS_ENV} = {count} exceeds the worker cap {WORKER_CAP}")
    return count


# ----------------------------------------------------------------------
# BLAS threads

def openblas_libraries() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (numpy
    bundles one, and so does scipy where something has imported it),
    from /proc/self/maps; empty where that file does not exist."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields
                   if len(f) == 6 and "openblas" in os.path.basename(f[5])})


def blas_thread_setters() -> dict:
    """{file name: openblas_set_num_threads_local} of each loaded OpenBLAS
    library that exports it; the setter takes the calling thread's new
    BLAS thread count and returns the previous one."""
    setters = {}
    for path in openblas_libraries():
        setter = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local",
                         None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = ctypes.c_int
            setters[os.path.basename(path)] = setter
    return setters


def _set_blas_threads(setters: list, counts: list) -> list:
    """Give setters[i] the thread count counts[i]; returns the previous
    counts."""
    return [set_threads(n) for set_threads, n in zip(setters, counts)]


def threading_summary() -> str:
    """One line on how _run_replicas runs here: replica workers,
    BLAS threads per worker, the OpenBLAS libraries found and the heap
    policy."""
    names = list(blas_thread_setters())
    blas = "1 (pinned)" if names else "not controlled"
    heap = "kept during replica runs (glibc)" if heap_controls() \
        else "not controlled"
    return (f"replica workers: {worker_count()}; BLAS threads per worker: "
            f"{blas}; OpenBLAS: {', '.join(names) or 'none found'}; "
            f"heap {heap}")


# ----------------------------------------------------------------------
# the heap

# glibc's mallopt parameters (malloc.h), the values _run_replicas sets
# for a run, and the defaults that mallopt(3) documents for both.  Each
# replica frees and reallocates the same few N x N arrays, and under
# the defaults glibc hands them back to the OS and faults them in
# again: about 390 minor faults per replica of a simulate run at
# N = 128, against 3 with these thresholds.  The mmap threshold is
# glibc's largest, 4 MiB * sizeof(long) (DEFAULT_MMAP_THRESHOLD_MAX:
# 32 MiB on 64-bit hosts, 16 MiB on 32-bit ones), and 1 GiB is far
# above the free heap a run leaves between replicas.  Setting either
# threshold turns off glibc's dynamic adjustment of both, for good, so
# both are set; every run sets the same values, and they stay set after
# it returns.  Workspaces passed as out= would not help: they cannot
# reach the LAPACK work arrays inside eigvalsh or numpy's temporaries.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_RUN_THRESHOLDS = {
    _M_MMAP_THRESHOLD: 4 * 2 ** 20 * ctypes.sizeof(ctypes.c_long),
    _M_TRIM_THRESHOLD: 2 ** 30}
_DEFAULT_THRESHOLDS = {_M_MMAP_THRESHOLD: 128 * 1024,
                       _M_TRIM_THRESHOLD: 128 * 1024}
_heap_refused = False     # set once mallopt refuses a value (heap_controls)


def _c_library():
    """The C library's symbols as loaded into this process; None where
    ctypes has no handle on them (Windows)."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def malloc_tuned(env: Mapping = os.environ) -> bool:
    """True when env sets glibc's malloc tunables: a MALLOC_* variable
    (MALLOC_MMAP_THRESHOLD_, MALLOC_ARENA_MAX, ...) or a glibc.malloc
    entry in GLIBC_TUNABLES.  The runner then leaves the heap alone."""
    return (any(name.startswith("MALLOC_") for name in env)
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", ""))


def heap_controls() -> tuple | None:
    """(mallopt, malloc_trim) of the C library when it exports both, as
    glibc does; None otherwise, when the environment sets malloc
    tunables (malloc_tuned), or once mallopt has refused a value."""
    if _heap_refused or malloc_tuned():
        return None
    libc = _c_library()
    mallopt = getattr(libc, "mallopt", None)
    malloc_trim = getattr(libc, "malloc_trim", None)
    if mallopt is None or malloc_trim is None:
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    return mallopt, malloc_trim


def _set_thresholds(mallopt, values: dict) -> bool:
    """mallopt each (param, value), all of them even after a refusal;
    True when every call returned 1."""
    return all([mallopt(param, value) == 1
                for param, value in values.items()])


def _keep_heap():
    """Set _RUN_THRESHOLDS, which every run may do again, and return
    malloc_trim for the run to call when it ends.  When mallopt refuses
    a value, both thresholds go back to mallopt(3)'s defaults and the
    policy stays off.  None without heap_controls()."""
    global _heap_refused
    controls = heap_controls()
    if controls is None:
        return None
    mallopt, malloc_trim = controls
    if not _set_thresholds(mallopt, _RUN_THRESHOLDS):
        _set_thresholds(mallopt, _DEFAULT_THRESHOLDS)
        _heap_refused = True
        return None
    return malloc_trim


# ----------------------------------------------------------------------
# ensemble expression trees

class Node:
    """Base marker for ensemble recipe nodes."""
    __slots__ = ()


def _check_signs(eps: int, eta: int) -> None:
    """HaarlabError unless eps and eta are each +1 or -1."""
    if eps not in (1, -1) or eta not in (1, -1):
        raise HaarlabError(f"eps and eta must be +1 or -1, got {eps}, {eta}")


@dataclass(frozen=True)
class HaarU(Node):
    """The shared Haar unitary of the replica, in one of its four
    variants (eps transposes, eta conjugates entries)."""
    eps: int = 1
    eta: int = 1

    def __post_init__(self):
        _check_signs(self.eps, self.eta)


@dataclass(frozen=True, eq=False)
class Const(Node):
    """A constant matrix.  diagonal holds its diagonal when every entry
    off it is zero (None otherwise), and real says whether every
    imaginary part is zero, both found once here; products then scale
    by a diagonal instead of multiplying matrices, and word_product
    treats a diagonal constant as its own transpose and a real one as
    its own conjugate."""
    name: str
    matrix: np.ndarray
    diagonal: np.ndarray | None = field(init=False, repr=False)
    real: bool = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"constant {self.name!r} is not square")
        d = np.diagonal(m)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "diagonal",
                           d.copy() if np.count_nonzero(m)
                           == np.count_nonzero(d) else None)
        object.__setattr__(self, "real", not np.any(m.imag))

    @functools.cached_property
    def transposed(self) -> np.ndarray:
        """The transposed matrix, C-contiguous like matrix, made on first
        use.  A trace sums an entrywise product in memory order, so a
        transposed view would sum in another order than this copy."""
        return np.ascontiguousarray(self.matrix.T)

    def check_size(self, N: int) -> None:
        """DimensionError unless the matrix is N x N."""
        if self.matrix.shape != (N, N):
            raise DimensionError(
                f"constant {self.name!r} is {self.matrix.shape}, need {N}")


@dataclass(frozen=True)
class Variant(Node):
    node: Node
    eps: int = 1
    eta: int = 1

    def __post_init__(self):
        _check_signs(self.eps, self.eta)


@dataclass(frozen=True)
class Sum(Node):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Product(Node):
    """The product of factors, left to right."""
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


def _canonical(letter, eps: int, eta: int):
    """The (eps, eta) variant of a letter (HaarU, a Const or a Variant
    of one) as (HaarU or the Const, eps, eta), a diagonal constant
    always with eps = 1 and a real one with eta = 1, so that equal forms
    are equal matrices; None for any other node."""
    if isinstance(letter, HaarU):
        return HaarU, letter.eps * eps, letter.eta * eta
    if isinstance(letter, Const):
        return (letter, 1 if letter.diagonal is not None else eps,
                1 if letter.real else eta)
    if isinstance(letter, Variant):
        return _canonical(letter.node, letter.eps * eps, letter.eta * eta)
    return None


def word_product(letters) -> Node:
    """The tree of a trace word's letters (HaarU, Const, or a Variant of
    one), for evaluate(..., trace=True).  When the letters, or else a
    rotation of them, split into a first half H and a second that is
    the (eps, eta) variant of H for every U, it is Product((L, L)) for
    (1, 1) and else Product((L, Variant(L, eps, eta))), with
    L = Product(H) one object that evaluate computes once; its matrix
    is the rotation's product, whose trace is the word's.  A rotation
    by k + n/2 swaps the halves of rotation k, so the first n/2 are all
    to try.  Any other word is Product(letters), one letter itself."""
    letters = tuple(letters)
    if len(letters) == 1:
        return letters[0]
    half, odd = divmod(len(letters), 2)
    forms = [_canonical(f, 1, 1) for f in letters]
    for k in range(0 if odd or None in forms else half):
        left = (letters[k:] + letters[:k])[:half]
        right = (forms[k:] + forms[:k])[half:]
        for eps, eta in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            if [_canonical(f, eps, eta)
                    for f in (left[::-1] if eps == -1 else left)] == right:
                shared = Product(left)
                return Product((shared, shared if (eps, eta) == (1, 1)
                                else Variant(shared, eps, eta)))
    return Product(letters)


# The trees of figure1's two panels, built once: U + U* and
# U + U* + (U + U*)^t.  The second reaches the first twice, so evaluate
# computes U + U* once per replica.
FIGURE1_ARCSINE = Sum((HaarU(), HaarU(-1, -1)))
FIGURE1_SUM_LAW = Sum((FIGURE1_ARCSINE, Variant(FIGURE1_ARCSINE, -1, 1)))


def variant_matrix(m: np.ndarray, eps: int, eta: int) -> np.ndarray:
    if eps == -1:
        m = m.T
    if eta == -1:
        m = np.conj(m)
    return m


def _diagonal_const(node: Node, u: np.ndarray) -> np.ndarray | None:
    """The diagonal of node when it is a diagonal constant of u's size or
    a Variant of one: a transpose keeps the diagonal, and conjugation
    conjugates it."""
    if isinstance(node, Variant):
        d = _diagonal_const(node.node, u)
        return np.conj(d) if d is not None and node.eta == -1 else d
    if isinstance(node, Const) and node.diagonal is not None:
        node.check_size(u.shape[0])
        return node.diagonal
    return None


def evaluate(node: Node, u: np.ndarray, *,
             trace: bool = False) -> np.ndarray | complex:
    """The matrix of an ensemble tree at the replica's N x N unitary u,
    or with trace=True its trace.  N is u's size: a constant of another
    size raises DimensionError.

    The trace of a Product of several factors never forms the last
    product: it is Tr(P L) = sum(P * L^t) for the product P of all but
    its last factor L, O(N^2), and sum(diag(P) * d) when L is a diagonal
    constant d.  The trace of a bare Haar variant reads u's diagonal,
    conjugated for Uc and U*.  Any other node's trace is taken of its
    matrix.  Multiplying by a diagonal constant or a Variant of one (a
    Product factor after the first, as D in U D U* =
    Product((HaarU(), D, HaarU(-1, -1)))) scales columns instead of
    calling matmul; for a real diagonal the bytes are those of the
    dense product.

    Each call keeps the matrix of every Sum and Product it computes, by
    object, so one that the tree reaches twice is computed once per
    call: figure1's U + U* in U + U* + (U + U*)^t, and the half L of a
    mirrored word built by word_product, such as
    Product((L, Variant(L, -1, 1))) for tr(U A U* Uc At Ut) with
    L = U A U*, whose trace then costs one matmul, not two.  Leaves are
    not kept: a leaf object reached twice is evaluated twice, and a
    conjugate copy such as U* is freed once used, so a replica holds
    only the few N x N arrays that are live at once; in _run_replicas
    the next replica reuses their memory (_keep_heap).  Results may be
    shared views and are never modified."""
    if trace and isinstance(node, HaarU):
        t = np.trace(u)
        return np.conj(t) if node.eta == -1 else t
    memo: dict = {}
    if not trace:
        return _evaluate(node, u, memo)
    if not (isinstance(node, Product) and len(node.factors) > 1):
        return np.trace(_evaluate(node, u, memo))
    prefix = _fold(node.factors[:-1], u, memo)
    last = node.factors[-1]
    d = _diagonal_const(last, u)
    if d is not None:
        return np.sum(np.diagonal(prefix) * d)
    return np.sum(prefix * _evaluate(last, u, memo).T)


def _fold(factors: tuple, u: np.ndarray, memo: dict) -> np.ndarray:
    """The product of a non-empty run of factors, left to right, a
    diagonal constant after the first factor scaling columns."""
    out = _evaluate(factors[0], u, memo)
    for f in factors[1:]:
        d = _diagonal_const(f, u)
        out = out * d if d is not None else out @ _evaluate(f, u, memo)
    return out


def _evaluate(node: Node, u: np.ndarray, memo: dict) -> np.ndarray:
    """evaluate, with memo mapping the id of each Sum and Product that
    this call has computed to its matrix."""
    out = memo.get(id(node))
    if out is not None:
        return out
    N = u.shape[0]
    if isinstance(node, HaarU):
        out = variant_matrix(u, node.eps, node.eta)
    elif isinstance(node, Const):
        node.check_size(N)
        out = node.matrix
    elif isinstance(node, Variant) and isinstance(node.node, Const) \
            and node.eps == -1:
        node.node.check_size(N)
        out = variant_matrix(node.node.transposed, 1, node.eta)
    elif isinstance(node, Variant):
        out = variant_matrix(_evaluate(node.node, u, memo),
                             node.eps, node.eta)
    elif isinstance(node, Sum):
        if not node.terms:
            out = np.zeros((N, N), dtype=complex)
        else:
            out = _evaluate(node.terms[0], u, memo)
            for t in node.terms[1:]:
                out = out + _evaluate(t, u, memo)
    elif isinstance(node, Product):
        out = _fold(node.factors, u, memo) if node.factors else \
            np.eye(N, dtype=complex)
    else:
        raise TypeError(f"not an ensemble node: {node!r}")
    if isinstance(node, (Sum, Product)):
        memo[id(node)] = out
    return out


# ----------------------------------------------------------------------
# spectra

def hermitian_deviation(matrix: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)|, the max-norm of m - m^H, from the upper
    triangle one block of rows at a time.  The floating-point
    |m_ij - conj(m_ji)| is exactly symmetric in i and j (the real parts
    of the two differences are negatives, the imaginary parts the same
    sum), so this is the full maximum, NaN included, without the two
    N x N temporaries."""
    n = matrix.shape[0]
    return np.max([np.max(np.abs(matrix[i:i + _ROW_BLOCK, i:]
                                 - np.conj(matrix[i:, i:i + _ROW_BLOCK].T)))
                   for i in range(0, n, _ROW_BLOCK)])


def _check_self_adjoint(matrix: np.ndarray) -> None:
    """NotSelfAdjointError unless matrix is hermitian within HERMITIAN_TOL."""
    dev = hermitian_deviation(matrix)
    if not dev <= HERMITIAN_TOL:    # NaN fails this comparison too
        raise NotSelfAdjointError(
            f"matrix deviates from self-adjoint by {dev:.3e}")


def spectrum(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint matrix; one that
    _check_self_adjoint refuses is rejected rather than silently
    projected.  One whose imaginary part is exactly zero goes to the
    real solver, which is faster and agrees to rounding."""
    _check_self_adjoint(matrix)
    if not np.any(matrix.imag):
        matrix = matrix.real
    return np.linalg.eigvalsh(matrix)


def check_bins(bins: int) -> None:
    """TypeError for bins that are not an int, WordParseError for fewer
    than 10 histogram bins, CapacityError for more than BIN_CAP; figure1
    calls it before any law or sample."""
    require_int(bins, "bins")
    if bins < 10:
        raise WordParseError(f"bins must be at least 10, got {bins}")
    if bins > BIN_CAP:
        raise CapacityError(f"{bins} bins exceed the cap {BIN_CAP}")


def _finite(points, use: str) -> np.ndarray:
    """points as a float array; HaarlabError when one is NaN or infinite."""
    a = np.asarray(points, dtype=float)
    bad = a.size - np.count_nonzero(np.isfinite(a))
    if bad:
        raise HaarlabError(f"{bad} of {a.size} points {use} are not finite")
    return a


def histogram(points, bins: int, hist_range: tuple) -> tuple:
    """Binned density of an array of points (of any shape), normalized
    to integrate to 1.  Returns (bin_edges, densities).  Raises
    InsufficientSamplesError when no point lies in hist_range, and
    HaarlabError for a NaN or infinite point or range, or lo >= hi."""
    check_bins(bins)
    if not -np.inf < hist_range[0] < hist_range[1] < np.inf:
        raise HaarlabError(f"histogram range {hist_range}: not finite lo < hi")
    counts, edges = np.histogram(_finite(points, "for the histogram"),
                                 bins=bins, range=hist_range)
    total = counts.sum()
    if total == 0:
        raise InsufficientSamplesError(
            f"no point lies in the histogram range {hist_range}")
    # numpy's density=True, without its 0/0 when no point is in range
    return edges, counts / np.diff(edges) / total


def ks_distance(points, cdf: Callable[[float], float],
                cdf_left: Callable[[float], float] | None = None) -> float:
    """sup |empirical CDF - reference CDF| over an array of points (of
    any shape).

    For a continuous reference leave cdf_left unset.  A reference with
    jumps needs its left limits supplied separately, otherwise the
    statistic against a matching point mass reports 1 instead of 0.
    A NaN or infinite point raises HaarlabError: the sup would drop it;
    so does a reference value outside [0, 1], NaN included."""
    pooled = np.sort(_finite(points, "for the KS statistic"), axis=None)
    n = pooled.size
    if n == 0:
        raise InsufficientSamplesError("no points for the KS statistic")
    if cdf_left is None:
        cdf_left = cdf
    d = 0.0
    for i, x in enumerate(pooled, start=1):
        x = float(x)
        for level, value in ((i / n, cdf(x)), ((i - 1) / n, cdf_left(x))):
            if not 0.0 <= value <= 1.0:
                raise HaarlabError(
                    f"reference CDF at {x} is {value}, outside [0, 1]")
            d = max(d, abs(level - value))
    return d


# ----------------------------------------------------------------------
# trace statistics

@dataclass
class TraceStatistics:
    """Per-replica unnormalized traces of named observables, all computed
    from the same per-replica unitary."""

    names: tuple
    samples: np.ndarray     # observable x replica

    @property
    def replica_count(self) -> int:
        return self.samples.shape[1]

    def row(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise HaarlabError(f"unknown observable {name!r}; known: "
                               + ", ".join(map(repr, self.names)))
        return self.samples[self.names.index(name)]

    def mean(self, name: str) -> complex:
        return complex(np.mean(self.row(name)))

    def cumulants(self, max_order: int = 2) -> CumulantFunctional:
        """Empirical joint cumulants of the trace variables, indexed by
        1-based observable position."""
        return empirical_cumulants([self.samples[i]
                                    for i in range(len(self.names))],
                                   max_order=max_order)

    def csv_rows(self) -> list:
        """(observable, replica, re, im) rows in a deterministic order."""
        rows = []
        for k, nm in enumerate(self.names):
            for j, z in enumerate(self.samples[k]):
                rows.append((nm, j, float(z.real), float(z.imag)))
        return rows


# ----------------------------------------------------------------------
# the replica runner

def check_run(N: int, replicas: int, width: int, seed: int,
              floor: int = REPLICA_FLOOR) -> int:
    """Admit a run and return its workers, min(worker_count(), replicas);
    worker_count refuses a bad HAARLAB_THREADS.  replicas or a seed that
    is not an int raise TypeError, fewer than floor replicas
    InsufficientSamplesError, a bad N check_dimension's error,
    replicas * width above VALUE_CAP CapacityError, and a negative seed
    WordParseError.  _run_replicas and each command call it before any
    allocation or work."""
    require_int(replicas, "replicas")
    require_int(seed, "seed")
    if replicas < floor:
        raise InsufficientSamplesError(
            f"need at least {floor} {'replica' if floor == 1 else 'replicas'}"
            f", got {replicas}")
    check_dimension(N)
    if replicas * width > VALUE_CAP:
        raise CapacityError(
            f"{replicas} replicas of {width} values exceed the cap of "
            f"{VALUE_CAP} stored values")
    if seed < 0:
        raise WordParseError(f"seed must be at least 0, got {seed}")
    return min(worker_count(), replicas)


def _run_replicas(N: int, replicas: int, seed: int, stream: str,
                  task: Callable, width: int, dtype, floor: int = 1,
                  probe: Callable | None = None) -> np.ndarray:
    """The Monte Carlo layer's replica loop: row j of the returned
    (replicas, width) array is
    task(sample_haar_unitary(N, [seed, STREAMS[stream], j])).

    W = min(worker_count(), replicas) workers share the replicas, worker
    w taking every W-th one from j = w.  The calling thread is worker 0,
    and a pool of W - 1 threads runs the others, so a one-worker run
    starts no thread.  Every worker runs its BLAS and LAPACK calls on
    one thread; the caller's BLAS thread counts are restored on return.
    Under glibc, the run raises the heap thresholds so that freed memory
    stays in the process, leaves them raised, and hands free memory back
    to the OS with malloc_trim(0) on return (see _keep_heap).  Rows land
    in preassigned slots, so the output depends neither on
    HAARLAB_THREADS nor on OPENBLAS_NUM_THREADS.  check_run admits the
    run, and an unknown stream raises HaarlabError, before any allocation.
    A bad tree costs no draw: probe (task when None) runs first at the
    unitary with e^{ik} at (k - 1, k mod N), neither real nor symmetric."""
    workers = check_run(N, replicas, width, seed, floor)
    if stream not in STREAMS:
        raise HaarlabError(f"stream {stream!r} is not one of {list(STREAMS)}")
    tag = STREAMS[stream]
    out = np.empty((replicas, width), dtype=dtype)

    # an overflowing result is refused by name (trace_observables checks
    # every trace, spectrum every matrix), so numpy need not warn about
    # it; errstate is per thread, hence set in each worker
    def run_share(w: int):
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(w, replicas, workers):
                out[j] = task(sample_haar_unitary(N, [seed, tag, j]))

    setters = list(blas_thread_setters().values())
    one = [1] * len(setters)
    # the caller is worker 0, so it pins too, and restores what it found
    previous = _set_blas_threads(setters, one)
    malloc_trim = _keep_heap()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            (probe or task)(np.exp(1j * np.arange(1, N + 1))[:, None]
                            * np.roll(np.eye(N), 1, axis=1))
        with ThreadPoolExecutor(max_workers=workers,
                                initializer=_set_blas_threads,
                                initargs=(setters, one)) as pool:
            shares = pool.map(run_share, range(1, workers))
            run_share(0)
            list(shares)
    finally:
        _set_blas_threads(setters, previous)
        if malloc_trim is not None:
            malloc_trim(0)
    return out


def trace_observables(observables, N: int, replicas: int, seed: int,
                      stream: str = "library") -> TraceStatistics:
    """Tr of each observable tree per replica, the whole batch reusing
    one Haar draw per replica; replicas run on _run_replicas, drawing
    from the call site's stream (a key of STREAMS).  No observables, or
    a name given twice, raise HaarlabError before any draw; a trace
    that is not finite raises it naming its observable and replica."""
    items = list(observables.items() if isinstance(observables, Mapping)
                 else observables)
    names = tuple(nm for nm, _ in items)
    if not names:
        raise HaarlabError("no observables to trace")
    for i, nm in enumerate(names):
        if nm in names[:i]:
            raise HaarlabError(f"observable {nm!r} is given twice")
    nodes = [node for _, node in items]
    rows = _run_replicas(
        N, replicas, seed, stream,
        lambda u: [evaluate(node, u, trace=True) for node in nodes],
        len(nodes), complex, floor=REPLICA_FLOOR)
    bad = np.argwhere(~np.isfinite(rows.T))
    if bad.size:
        k, r = bad[0]
        raise HaarlabError(f"trace of observable {names[k]!r} at replica "
                           f"{r} is not finite")
    return TraceStatistics(names, rows.T.copy())


def spectral_replicas(node: Node, N: int, replicas: int, seed: int,
                      stream: str = "library") -> np.ndarray:
    """(replicas, N) array whose row r holds the ascending eigenvalues
    of node evaluated at replica r's unitary, run on _run_replicas with
    the call site's stream (a key of STREAMS)."""
    return _run_replicas(
        N, replicas, seed, stream, lambda u: spectrum(evaluate(node, u)), N,
        float, probe=lambda u: _check_self_adjoint(evaluate(node, u)))

