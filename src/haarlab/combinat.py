"""Permutation and pairing maps on [n] and [+-n].

Conventions used throughout:

* the unsigned domain [n] is {1, ..., n}; the signed domain [+-n] is
  {-n, ..., -1} union {1, ..., n};
* a permutation is its map {k: sigma(k)}, a plain dict, read by
  cycles and cycle_type;
* composition is function composition, (s * t)(k) = s(t(k)), so the
  map of s * t is {k: s[t[k]] for k in t};
* a pairing is a fixed-point-free involution, and it is passed around
  as its partner map {k: p(k)}, a plain dict: enumerate_pairings and
  enumerate_alpha_pairings yield such maps, and the kernel, pi_epsilon
  and weingarten.phi read them by indexing (the kernel reads a pair's
  class from sigma_p^-1 sigma_q, the permutation pq makes of the plus
  letters, and calls phi once per such permutation, not per pair);
* the "leader" of a set of points is the one with smallest absolute
  value, positive sign winning ties.  Canonical cycles start at their
  leader and cycle lists are sorted by leader.

The leader rule is what makes the mate-pair representative choice in
pi_epsilon deterministic; any choice would give the same downstream
traces, but tests need reproducible output.

No runtime path enumerates set partitions: the moment-cumulant
transforms recurse on the block of the first point instead.  The
brute-force partition sums and the explicit mate-pair grouping of pq
(pq_cycle_pairs) live in tests/oracles.py, as the oracles the tests
compare against.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, DimensionError, HaarlabError

# The exact engine's order limit: at most this many points (Haar
# letters) are paired; weingarten.DEFAULT_ORDER_CAP is half of it.
PAIRING_POINT_CAP = 12


def _leader_key(k: int) -> tuple[int, int]:
    return (abs(k), 0 if k > 0 else 1)


@functools.cache
def _signed_points(n: int) -> frozenset[int]:
    return frozenset(range(-n, n + 1)) - {0}


_NOT_SIGNED_PAIRING = "not a fixed-point-free involution of [+-n]"


def cycles(perm: Mapping[int, int]) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of a permutation given as its map {k: sigma(k)}:
    fixed points included, each cycle starting at its leader, the cycles
    sorted by leader.  A map that is not a bijection of its keys raises
    HaarlabError."""
    if set(perm.values()) != perm.keys():
        raise HaarlabError("map is not a bijection of its keys")
    seen: set[int] = set()
    out = []
    for start in sorted(perm, key=_leader_key):  # leader order: first unseen
        if start in seen:                         # point of a cycle is
            continue                              # automatically its leader
        cyc = [start]
        k = perm[start]
        while k != start:
            cyc.append(k)
            k = perm[k]
        seen.update(cyc)
        out.append(tuple(cyc))
    return tuple(out)


def cycle_type(perm: Mapping[int, int]) -> tuple[int, ...]:
    """The descending cycle lengths of a permutation map."""
    return tuple(sorted(map(len, cycles(perm)), reverse=True))


def _enumerate_matchings(points: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    if len(points) > PAIRING_POINT_CAP:
        raise CapacityError(
            f"pairing enumeration over {len(points)} points exceeds cap "
            f"{PAIRING_POINT_CAP}")
    if len(points) % 2:
        return
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for tail in _enumerate_matchings(rest[:i] + rest[i + 1:]):
            yield ((first, partner),) + tail


def enumerate_pairings(n: int, signed: bool = False
                       ) -> Iterator[dict[int, int]]:
    """All pairings of [n] (or of [+-n]) as partner maps {k: p(k)}.
    Odd point counts give an empty sequence, matching the convention
    P2(odd) = empty set."""
    if n < 0:
        raise DimensionError("n must be nonnegative")
    if signed:
        points = sorted(list(range(1, n + 1)) + list(range(-n, 0)),
                        key=_leader_key)
    else:
        points = list(range(1, n + 1))
    for blocks in _enumerate_matchings(points):
        yield {**dict(blocks), **{b: a for a, b in blocks}}


def enumerate_alpha_pairings(alpha: Sequence[int]) -> Iterator[dict[int, int]]:
    """The pairings p of [n] with alpha_k = -alpha_l whenever p(k) = l,
    as partner maps {k: p(k)}.

    For unbalanced alpha there are none and the iterator is empty.
    """
    n = len(alpha)
    if any(a not in (1, -1) for a in alpha):
        raise HaarlabError("alpha entries must be +1 or -1")
    if n > PAIRING_POINT_CAP:
        raise CapacityError(
            f"alpha-pairing enumeration over {n} points exceeds cap "
            f"{PAIRING_POINT_CAP}")
    plus = [k for k in range(1, n + 1) if alpha[k - 1] == 1]
    minus = [k for k in range(1, n + 1) if alpha[k - 1] == -1]
    if len(plus) != len(minus):
        return
    if not plus:
        return
    for perm in itertools.permutations(minus):
        yield {**dict(zip(plus, perm)), **dict(zip(perm, plus))}


# -- Moebius functions -------------------------------------------------

def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def moebius_cycle_type(lengths: Iterable[int]) -> int:
    """Product over cycles of (-1)^(len-1) Catalan(len-1)."""
    out = 1
    for l in lengths:
        out *= (-1) ** (l - 1) * catalan(l - 1)
    return out


def pi_epsilon(partner: Mapping[int, int]) -> tuple[tuple, tuple[int, ...]]:
    """The cycles/sign pair encoding the constrained index sum of a
    signed pairing, given as its partner map {k: p(k)} on [+-n].

    Walks p*delta, k -> p(-k), in leader order 1, -1, 2, -2, ...  The
    mate of a cycle (l_1, ..., l_r) is (-l_r, ..., -l_1), so the first
    unseen point always starts the leader representative of its mate
    pair, and marking |l| for every visited l marks the mate as well.
    Each representative (l_1, ..., l_r) is read as the cycle
    (|l_1|, ..., |l_r|) of pi with signs eps_{|l_k|} = sign(l_k); this
    is the grouping that pq_cycle_pairs(p, delta) in tests/oracles.py
    spells out, with delta the partner map {k: -k}.
    No cycle is its own mate: delta would then reverse it without a
    fixed point, so some k would have p(-k) = -k, which the input check
    excludes.  Hence no walk revisits a magnitude, and every start is
    either skipped or covered by its own walk.
    Returns (cycles, eps): the canonical cycles of pi on [n] (each
    starting at its smallest point, sorted by it, fixed points
    included) and eps a tuple indexed by position 1..n.  A map that is
    not a fixed-point-free involution of [+-n] raises HaarlabError.

    Beyond the keys, the input check rides on the walk.  Each step
    k -> p(-k) = k' tests its edge: k' != -k and p(k') == -k.  Two
    passing steps never lead into one k' (p(k') would equal two values),
    so every walk returns to its start.  Every magnitude is visited, and
    the tested edges then hold every point of [+-n]: each visited k as
    the k' of the step into it, each -k as the start of the step out of
    it.  So the map is a fixed-point-free involution exactly when its
    keys are [+-n] and every step passes.
    """
    n = len(partner) // 2
    if partner.keys() != _signed_points(n):
        raise HaarlabError(_NOT_SIGNED_PAIRING)
    eps = [0] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if eps[start]:  # start and -start lie on an earlier mate pair
            continue
        tilde = []
        k = start
        while True:
            m = abs(k)
            eps[m] = 1 if k > 0 else -1
            tilde.append(m)
            x = -k
            k = partner[x]
            if k == x or partner.get(k) != x:
                raise HaarlabError(_NOT_SIGNED_PAIRING)
            if k == start:
                break
        cycles.append(tuple(tilde))
    return tuple(cycles), tuple(eps[1:])
