"""Classical multivariate moment/cumulant transforms, plus plug-in
cumulant estimation from simulation replicas.

The transforms are the sum over set partitions written as a recursion
on the block that holds the first position, memoized by variable
multiset; no partition is enumerated.  Values are whatever scalar kind
the caller supplies (Fraction, float, complex); the recursion is the
same for the exact and the floating path.  At most PARTITION_POINT_CAP
positions are accepted; more raise CapacityError before any work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import CapacityError, InsufficientSamplesError, MissingMomentError

BATCH_COUNT = 10
PARTITION_POINT_CAP = 10


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


def _first_block_splits(key: tuple):
    """(B, S minus B) for every proper subset B of the positions of S
    that contains the first position, each side read as its variables.

    Splitting off the block of the first position turns the sum over
    all set partitions of S into a sum over these splits plus the
    one-block term (Nica and Speicher, Lectures on the Combinatorics of
    Free Probability, 2006).
    """
    first, rest = key[0], key[1:]
    positions = range(len(rest))
    for size in range(len(rest)):
        for picked in itertools.combinations(positions, size):
            yield ((first,) + tuple(rest[j] for j in picked),
                   tuple(rest[j] for j in positions if j not in picked))


def _check_cap(indices: tuple) -> None:
    if len(indices) > PARTITION_POINT_CAP:
        raise CapacityError(
            f"moment-cumulant transform over {len(indices)} positions "
            f"exceeds cap {PARTITION_POINT_CAP}")


def cumulants_to_moments(cumulants: CumulantFunctional,
                         indices: Sequence[int]):
    """E(X_1 ... X_r), the sum over all set partitions of [r] of the
    block-products of cumulants, by the first-block recursion
    E(S) = sum over blocks B containing the first position of
    k(B) E(S minus B), with E of the empty set 1."""
    indices = tuple(indices)
    _check_cap(indices)
    memo = {(): 1}

    def moment(key: tuple):
        if key not in memo:
            total = cumulants(key)
            for block, others in _first_block_splits(key):
                total = total + cumulants(block) * moment(others)
            memo[key] = total
        return memo[key]

    return moment(_key(indices))


def _cumulants(moments):
    """k as a function of a sorted key, by the recursion
    k(S) = E(S) - sum over blocks B != S containing the first position
    of k(B) E(S minus B), with one memo for every key it is asked for;
    moments maps a sorted key to its moment."""
    memo = {}

    def cumulant(key: tuple):
        if key not in memo:
            total = moments(key)
            for block, others in _first_block_splits(key):
                total = total - cumulant(block) * moments(others)
            memo[key] = total
        return memo[key]

    return cumulant


def moments_to_cumulants(moments: MomentFunctional,
                         indices: Sequence[int]):
    """The inverse transform, k(S) = E(S) - sum over blocks B != S
    containing the first position of k(B) E(S minus B).  Round-trips
    with cumulants_to_moments exactly; at order 2 it is
    E(X_i X_j) - E(X_i) E(X_j) as written."""
    indices = tuple(indices)
    _check_cap(indices)
    if not indices:
        return 0
    return _cumulants(moments)(_key(indices))


def multisets(nvars: int, max_order: int) -> list[tuple]:
    """Every multiset of the variables 1..nvars with 1..max_order
    members, as a sorted tuple, by order and then lexicographically."""
    return [combo for order in range(1, max_order + 1)
            for combo in itertools.combinations_with_replacement(
                range(1, nvars + 1), order)]


def _mean(values: list):
    """Sum of values in list order (a fixed rounding), over their count."""
    acc = 0
    for v in values:
        acc = acc + v
    return acc / len(values)


def empirical_cumulants(samples, max_order: int = 2) -> CumulantFunctional:
    """Plug-in cumulant estimates from an R-variables x S-replicas array.

    Sample mixed moments go through moments_to_cumulants; the bias is
    O(1/S).  Orders 1 and 2 also get standard errors from means over
    BATCH_COUNT equal batches (trailing remainder replicas are dropped
    from the batching, not from the point estimate).
    """
    rows = [list(row) for row in samples]
    if not rows:
        raise InsufficientSamplesError("no variables supplied")
    count = len(rows[0])
    if any(len(r) != count for r in rows):
        raise InsufficientSamplesError("replica counts differ across variables")
    if count < 2:
        raise InsufficientSamplesError("need at least 2 replicas")
    if max_order > 4:
        raise CapacityError("empirical cumulants supported up to order 4")

    nbatch = min(BATCH_COUNT, count)
    width = count // nbatch
    moments: dict = {}
    batches = [{} for _ in range(nbatch)] if width >= 2 else []
    for combo in multisets(len(rows), max_order):
        prods = []
        for s in range(count):
            prod = 1
            for v in combo:
                prod = prod * rows[v - 1][s]
            prods.append(prod)
        moments[combo] = _mean(prods)
        if len(combo) <= 2:
            for b, batch in enumerate(batches):
                batch[combo] = _mean(prods[b * width:(b + 1) * width])
    cumulant = _cumulants(moments.__getitem__)
    values = {combo: cumulant(combo) for combo in moments}

    errors = {}
    if batches:
        per_batch = [_cumulants(batch.__getitem__) for batch in batches]
        for combo in batches[0]:
            vals = [k(combo) for k in per_batch]
            mean = sum(vals) / nbatch
            var = sum(abs(v - mean) ** 2 for v in vals) / (nbatch - 1)
            errors[combo] = math.sqrt(var / nbatch)
    return CumulantFunctional(values, errors)
