"""Exact unitary Weingarten weights at concrete dimension N.

The order-n table comes from the character formula

    Wg_N(sigma) = (1/n!^2) sum_{lambda |- n, l(lambda) <= N}
                  chi^lambda(1)^2 chi^lambda(sigma) / s_lambda(1^N)

(Collins & Sniady, CMP 264, 2006), with the characters chi^lambda from
the Murnaghan-Nakayama rule and s_lambda(1^N) from the hook-content
formula.  The weight is a class function, so one value per cycle type
is enough.

Restricting the sum to partitions with at most N rows is what makes the
formula valid for every N >= 1.  For N >= n no partition is dropped and
the table inverts the Gram matrix G(sigma, tau) = N^{#(sigma tau^-1)}.
For N < n that matrix is singular; the dropped partitions span its
kernel, so the table is its Moore-Penrose pseudo-inverse.  Kernel
elements vanish as operators on the n-fold tensor power, so pairing sums
over the pseudo-inverse still give the true Haar moments.  gram_entry
is kept as an independent oracle for the tests and acceptance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, TextIO

from .combinat import Pairing, Permutation, moebius_cycle_type, pq_cycle_pairs
from .errors import CapacityError

DEFAULT_ORDER_CAP = 6

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
        raise ValueError("cycle type parts must be positive")
    return ct


def gram_entry(sigma: Permutation, tau: Permutation, N: int) -> int:
    """N raised to the number of cycles of sigma tau^{-1}."""
    if sigma.n != tau.n or sigma.signed or tau.signed:
        raise ValueError("gram_entry expects unsigned permutations of the same [n]")
    prod = sigma * tau.inverse()
    return N ** len(prod.cycles())


@dataclass(frozen=True)
class WeingartenTable:
    """Exact Weingarten weights of one order at one dimension.

    values maps every cycle type of n to a Fraction.  pseudo marks
    tables with N < n, which are pseudo-inverses of a singular Gram
    matrix.
    """

    n: int
    N: int
    values: dict[CycleType, Fraction] = field(compare=False)
    pseudo: bool = False

    def __getitem__(self, key) -> Fraction:
        if isinstance(key, Permutation):
            key = key.cycle_type()
        return self.values[normalize_cycle_type(key)]


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


def wg_exact(n: int, N: int, cap: int = DEFAULT_ORDER_CAP) -> WeingartenTable:
    """The order-n Weingarten table at dimension N, for every N >= 1.

    Sums the character formula over partitions with at most N rows;
    for N < n that is the pseudo-inverse table.
    """
    if n < 1:
        raise ValueError("order n must be at least 1")
    if n > cap:
        raise CapacityError(f"Weingarten order {n} exceeds cap {cap}")
    if N < 1:
        raise ValueError("dimension N must be at least 1")
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
    return WeingartenTable(n=n, N=N, values=values, pseudo=N < n)


# perfbench/tracer.py wraps both module attributes by name, so the old
# pseudo-inverse entry point stays as an alias of the one builder.
wg_pseudo = wg_exact


_TABLE_CACHE: dict[tuple[int, int, int], WeingartenTable] = {}


def wg_table(n: int, N: int, cap: int = DEFAULT_ORDER_CAP) -> WeingartenTable:
    """Cached table used by the expectation engine."""
    key = (n, N, cap)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = wg_exact(n, N, cap)
        _TABLE_CACHE[key] = table
    return table


def wg_leading(cycle_type: Iterable[int], n: int, N: int) -> Fraction:
    """First-order asymptotics N^{-2n+#sigma} Moeb(sigma)."""
    ct = normalize_cycle_type(cycle_type)
    if sum(ct) != n:
        raise ValueError(f"cycle type {ct} is not a partition of {n}")
    return Fraction(moebius_cycle_type(ct), N ** (2 * n - len(ct)))


def phi(p: Pairing, q: Pairing, N: int, cap: int = DEFAULT_ORDER_CAP) -> Fraction:
    """The pairing-indexed Weingarten weight.

    Decomposes pq into mate-pair cycles and evaluates the order-(n/2)
    weight at the cycle type formed by the representative cycle
    lengths.
    """
    if p.signed or q.signed:
        raise ValueError("phi expects pairings of an unsigned domain")
    pairs = pq_cycle_pairs(p, q)
    lengths = normalize_cycle_type(len(rep) for rep, _ in pairs)
    m = sum(lengths)
    return wg_table(m, N, cap)[lengths]


def dump_table_csv(out: TextIO, tables: Iterable[WeingartenTable]) -> None:
    """Golden-table dump: one row per cycle type, exact rationals split
    into numerator and denominator."""
    out.write("n,cycle_type,N,numerator,denominator\n")
    for table in tables:
        for ct in integer_partitions(table.n):
            v = table.values[ct]
            label = "+".join(map(str, ct))
            out.write(f"{table.n},{label},{table.N},{v.numerator},{v.denominator}\n")
