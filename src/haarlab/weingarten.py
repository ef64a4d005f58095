"""Exact unitary Weingarten weights at concrete dimension N.

The order-n table comes from the character formula

    Wg_N(sigma) = (1/n!^2) sum_{lambda |- n, l(lambda) <= N}
                  chi^lambda(1)^2 chi^lambda(sigma) / s_lambda(1^N)

(Collins & Sniady, CMP 264, 2006), with the characters chi^lambda from
the Murnaghan-Nakayama rule and s_lambda(1^N) from the hook-content
formula.  The weight is a class function, so a table is a read-only
mapping {cycle type: Fraction}: one value per cycle type, indexed by the
descending tuple.

Restricting the sum to partitions with at most N rows is what makes the
formula valid for every N >= 1.  For N >= n no partition is dropped and
the table inverts the Gram matrix G(sigma, tau) = N^{#(sigma tau^-1)}.
For N < n that matrix is singular; the dropped partitions span its
kernel, so the table is its Moore-Penrose pseudo-inverse.  Kernel
elements vanish as operators on the n-fold tensor power, so pairing sums
over the pseudo-inverse still give the true Haar moments.  gram_entry
is kept as an independent oracle for the tests and acceptance checks:
it takes two permutations as plain maps {k: sigma(k)} and counts the
cycles of sigma tau^-1 with combinat.cycles.

A pair of pairings (p, q) of [2n] enters a pairing sum through its
class alone: the cycle type of pq's mate pairs, which phi returns.  For
alpha-pairings, which match plus letters to minus letters through
permutations sigma, that is the cycle type of sigma_p^-1 sigma_q, so the
pairing sum reads every pair's class from a table of those permutations
that phi labels once per permutation, counts pairs per class and reads
wg_table(n, N) once per class.

Tables are built up to order DEFAULT_ORDER_CAP, a module constant rather
than a per-call argument; a higher order raises CapacityError.  It is
half of combinat.PAIRING_POINT_CAP: an order-n weight belongs to a pair
of pairings of 2n Haar letters, so the two caps move together.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, TextIO

from .combinat import (PAIRING_POINT_CAP, cycle_type, cycles,
                       moebius_cycle_type)
from .errors import CapacityError, DimensionError, HaarlabError, require_int

DEFAULT_ORDER_CAP = PAIRING_POINT_CAP // 2

CycleType = tuple[int, ...]


def integer_partitions(n: int) -> list[CycleType]:
    """Partitions of n as descending tuples, in a fixed deterministic order."""
    if n == 0:
        return [()]
    out: list[CycleType] = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def normalize_cycle_type(cycle_type: Iterable[int]) -> CycleType:
    ct = tuple(sorted(cycle_type, reverse=True))
    if any(p < 1 for p in ct):
        raise HaarlabError("cycle type parts must be positive")
    return ct


def gram_entry(sigma: Mapping[int, int], tau: Mapping[int, int],
               N: int) -> int:
    """N raised to the number of cycles of sigma tau^{-1}, for two
    permutations of [n] given as maps {k: sigma(k)}."""
    points = set(range(1, len(sigma) + 1))
    if not (sigma.keys() == tau.keys() == points
            == set(sigma.values()) == set(tau.values())):
        raise HaarlabError(
            "gram_entry expects two permutations of the same [n]")
    return N ** len(cycles({t: sigma[k] for k, t in tau.items()}))


def _character(beta: frozenset[int], mu: CycleType) -> int:
    """chi^lambda(mu) by the Murnaghan-Nakayama rule.

    lambda is given by its beta-set {lambda_i + l - i}.  Removing a
    border strip of length r moves one bead from b down to the free
    position b - r; the sign is -1 to the number of beads jumped over.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            height = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** height * _character(beta - {b} | {b - r}, rest)
    return total


def _schur_at_ones(lam: CycleType, N: int) -> Fraction:
    """s_lambda(1^N) = prod over cells of (N + content) / hook length."""
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= N + j - i
            den *= (row - j) + (cols[j] - i) - 1
    return Fraction(num, den)


def wg_exact(n: int, N: int) -> Mapping[CycleType, Fraction]:
    """The order-n Weingarten table at dimension N, a read-only mapping
    {cycle type: Fraction} in integer_partitions order, for every N >= 1
    and every n up to DEFAULT_ORDER_CAP (CapacityError beyond it).

    Sums the character formula over partitions with at most N rows;
    for N < n that is the pseudo-inverse table.  An n or N that is not
    an int (a float, a bool) raises TypeError.
    """
    require_int(n, "order n")
    require_int(N, "dimension N")
    if n < 1:
        raise DimensionError("order n must be at least 1")
    if n > DEFAULT_ORDER_CAP:
        raise CapacityError(
            f"Weingarten order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    if N < 1:
        raise DimensionError("dimension N must be at least 1")
    types = integer_partitions(n)
    values = dict.fromkeys(types, Fraction(0))
    for lam in types:
        if len(lam) > N:
            continue
        beta = frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam))
        dim = _character(beta, (1,) * n)
        weight = (Fraction(dim * dim, math.factorial(n) ** 2)
                  / _schur_at_ones(lam, N))
        for mu in types:
            values[mu] += weight * _character(beta, mu)
    return MappingProxyType(values)


# perfbench/tracer.py wraps both module attributes by name, so the old
# pseudo-inverse entry point stays as an alias of the one builder.
wg_pseudo = wg_exact


@functools.lru_cache(maxsize=None, typed=True)
def wg_table(n: int, N: int) -> Mapping[CycleType, Fraction]:
    """Cached table used by the expectation engine.  Every caller shares
    the one mapping, which is why it is read-only.  The cache keys on
    the arguments' types, so a float or bool n or N, equal to a cached
    int, still reaches wg_exact's TypeError."""
    return wg_exact(n, N)


def wg_leading(cycle_type: Iterable[int], N: int) -> Fraction:
    """First-order asymptotics N^{-2n+#sigma} Moeb(sigma), with n the
    sum of the cycle type, for an int N >= 1 (DimensionError below,
    TypeError for a float or a bool)."""
    require_int(N, "dimension N")
    if N < 1:
        raise DimensionError("dimension N must be at least 1")
    ct = normalize_cycle_type(cycle_type)
    return Fraction(moebius_cycle_type(ct), N ** (2 * sum(ct) - len(ct)))


def phi(p: Mapping[int, int], q: Mapping[int, int]) -> CycleType:
    """The class of two pairings of [n], given as partner maps
    {k: p(k)} as the enumerators yield them: the descending tuple of
    the lengths of pq's mate-pair cycles, one length per pair.  The
    pair's Weingarten weight at dimension N is wg_table(n // 2, N) at
    that class (Collins & Sniady, CMP 264, 2006).

    Both maps are checked up front: unless each is a fixed-point-free
    involution of one [n], phi raises HaarlabError.  The p and q edges
    then split [n] into loops of even length 2l, and each loop carries
    two cycles of pq of length l, a cycle and its mate q c^{-1} q
    (pq_cycle_pairs in tests/oracles.py spells out the grouping).  So
    pq's cycle type lists every part of the class twice, and phi reads
    every other part.
    """
    points = set(range(1, len(p) + 1))
    for m in (p, q):
        if m.keys() != points or any(
                v == k or m.get(v) != k for k, v in m.items()):
            raise HaarlabError(
                "phi expects two fixed-point-free involutions of one [n]")
    return cycle_type({k: p[v] for k, v in q.items()})[::2]


def dump_table_csv(out: TextIO, orders: Iterable[tuple[int, int]]) -> None:
    """Golden-table dump of wg_table(n, N) for each (n, N) in orders:
    one row per cycle type, exact rationals split into numerator and
    denominator."""
    out.write("n,cycle_type,N,numerator,denominator\n")
    for n, N in orders:
        for ct, v in wg_table(n, N).items():
            label = "+".join(map(str, ct))
            out.write(f"{n},{label},{N},{v.numerator},{v.denominator}\n")
