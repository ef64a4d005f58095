"""Classical multivariate moment/cumulant transforms over set partitions,
plus plug-in cumulant estimation from simulation replicas.

Values are whatever scalar kind the caller supplies (Fraction, float,
complex); the combinatorics is the same for the exact and the floating
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .combinat import SetPartition, enumerate_partitions, moebius_partition_to_top
from .errors import InsufficientSamplesError, MissingMomentError

BATCH_COUNT = 10


def _key(indices: Sequence[int]) -> tuple:
    """Mixed moments and cumulants of commuting scalars are symmetric, so
    a sorted tuple is the canonical lookup key."""
    return tuple(sorted(indices))


@dataclass
class MomentFunctional:
    """Joint moments E(X_{i1} ... X_{ir}), keyed by variable multiset."""

    values: dict

    def __post_init__(self):
        self.values = {_key(k): v for k, v in self.values.items()}

    def __call__(self, indices: Sequence[int]):
        if len(indices) == 0:
            return 1
        try:
            return self.values[_key(indices)]
        except KeyError:
            raise MissingMomentError(f"no moment stored for {_key(indices)}")


@dataclass
class CumulantFunctional:
    """Joint cumulants k_r(X_{i1}, ..., X_{ir}), same keying as moments.

    standard_errors holds batch-mean errors for the keys of order 1 and 2
    when the functional came out of empirical_cumulants.
    """

    values: dict
    standard_errors: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = {_key(k): v for k, v in self.values.items()}
        self.standard_errors = {_key(k): v
                                for k, v in self.standard_errors.items()}

    def __call__(self, indices: Sequence[int]):
        try:
            return self.values[_key(indices)]
        except KeyError:
            raise MissingMomentError(f"no cumulant stored for {_key(indices)}")

    def se(self, indices: Sequence[int]):
        try:
            return self.standard_errors[_key(indices)]
        except KeyError:
            raise InsufficientSamplesError(
                f"no batch standard error for {_key(indices)}: needs order "
                f"1 or 2 and at least {2 * BATCH_COUNT} replicas") from None


def e_pi(moments: MomentFunctional | CumulantFunctional, pi: SetPartition,
         indices: Sequence[int]):
    """Product over the blocks of pi of the within-block joint moments,
    E_pi(X_1, ..., X_R) = prod_{V in pi} E(prod_{j in V} X_j).

    pi partitions the positions 1..R; indices[j-1] names the variable at
    position j.  Given cumulants instead of moments it is the block
    product k_pi that cumulants_to_moments sums.
    """
    indices = tuple(indices)
    out = 1
    for block in pi.blocks:
        out = out * moments(tuple(indices[j - 1] for j in sorted(block)))
    return out


def cumulants_to_moments(cumulants: CumulantFunctional,
                         indices: Sequence[int]):
    """E(X_1 ... X_r) = sum over all set partitions of [r] of the
    block-products of cumulants."""
    indices = tuple(indices)
    r = len(indices)
    if r == 0:
        return 1
    total = None
    for pi in enumerate_partitions(r):
        term = e_pi(cumulants, pi, indices)
        total = term if total is None else total + term
    return total


def moments_to_cumulants(moments: MomentFunctional,
                         indices: Sequence[int]):
    """Moebius inversion of the moment-cumulant relation on the partition
    lattice: k_R = sum_pi mu(pi, 1_R) E_pi, with mu(pi, 1_R) =
    (-1)^(b-1) (b-1)! for b blocks.  Round-trips with
    cumulants_to_moments exactly."""
    indices = tuple(indices)
    r = len(indices)
    if r == 0:
        return 0
    total = None
    for pi in enumerate_partitions(r):
        term = moebius_partition_to_top(pi) * e_pi(moments, pi, indices)
        total = term if total is None else total + term
    return total


def _sample_moments(samples, max_order: int) -> MomentFunctional:
    import itertools

    rows = [list(row) for row in samples]
    nvars = len(rows)
    count = len(rows[0]) if rows else 0
    values = {}
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(1, nvars + 1),
                                                             order):
            acc = 0
            for s in range(count):
                prod = 1
                for v in combo:
                    prod = prod * rows[v - 1][s]
                acc = acc + prod
            values[combo] = acc / count
    return MomentFunctional(values)


def empirical_cumulants(samples, max_order: int = 2) -> CumulantFunctional:
    """Plug-in cumulant estimates from an R-variables x S-replicas array.

    Sample mixed moments go through moments_to_cumulants; the bias is
    O(1/S).  Orders 1 and 2 also get standard errors from means over
    BATCH_COUNT equal batches (trailing remainder replicas are dropped
    from the batching, not from the point estimate).
    """
    import itertools

    rows = [list(row) for row in samples]
    if not rows:
        raise InsufficientSamplesError("no variables supplied")
    count = len(rows[0])
    if any(len(r) != count for r in rows):
        raise InsufficientSamplesError("replica counts differ across variables")
    if count < 2:
        raise InsufficientSamplesError("need at least 2 replicas")
    if max_order > 4:
        raise ValueError("empirical cumulants supported up to order 4")

    nvars = len(rows)
    moments = _sample_moments(rows, max_order)
    values = {}
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(1, nvars + 1),
                                                             order):
            values[combo] = moments_to_cumulants(moments, combo)

    errors = {}
    nbatch = min(BATCH_COUNT, count)
    width = count // nbatch
    if width >= 2:
        per_batch = []
        for b in range(nbatch):
            chunk = [r[b * width:(b + 1) * width] for r in rows]
            bm = _sample_moments(chunk, min(max_order, 2))
            per_batch.append(bm)
        for order in (1, 2):
            if order > max_order:
                break
            for combo in itertools.combinations_with_replacement(
                    range(1, nvars + 1), order):
                vals = [moments_to_cumulants(bm, combo) for bm in per_batch]
                mean = sum(vals) / nbatch
                var = sum(abs(v - mean) ** 2 for v in vals) / (nbatch - 1)
                errors[combo] = math.sqrt(var / nbatch)
    return CumulantFunctional(values, errors)
