"""Brute-force oracles that the tests compare the runtime against.

Nothing in haarlab calls these.  Each spells out, slowly and directly,
a quantity that the package computes another way:

* enumerate_partitions and is_noncrossing list the set partitions and
  non-crossing partitions whose sums the moment-cumulant transforms
  (cumulants, densities) compute by recursion on the first block;
* pq_cycle_pairs groups the cycles of pq into mate pairs, the grouping
  that the single walks of combinat.pi_epsilon and weingarten.phi make;
* rotate_rows rotates a spoke table's letters, under which the spoke
  predictions are invariant;
* empirical_cumulants_by_key estimates cumulants the slow way, forming
  every replica product once for the point moments and again for each
  batch, and running the moment-cumulant recursion afresh for every
  key, with the arithmetic of cumulants.empirical_cumulants in the same
  order, so the two agree bit for bit;
* power_trace_moment computes E prod Tr(U^mu_i) prod Tr(Ubar^nu_j) from
  characters of the symmetric group, found by removing border strips
  cell by cell from the Young diagram, not by the pairing sum or the
  beta-set rule of weingarten._character.

Set partitions are plain tuples of sorted blocks ordered by their
smallest point.  The leader of a set of signed points is the one with
smallest absolute value, positive sign winning ties (combinat's rule).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from haarlab.combinat import _leader_key, cycles
from haarlab.cumulants import (BATCH_COUNT, PARTITION_POINT_CAP,
                               _first_block_splits)
from haarlab.errors import CapacityError
from haarlab.second_order import FirstOrderTable


# -- set partitions ------------------------------------------------------

def enumerate_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of [n], Bell(n) of them, each a tuple of
    sorted blocks ordered by their smallest point."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > PARTITION_POINT_CAP:
        raise CapacityError(
            f"partition enumeration for n={n} exceeds cap {PARTITION_POINT_CAP}")

    def rec(k: int, blocks: list[list[int]]) -> Iterator[list[list[int]]]:
        if k > n:
            yield blocks
            return
        for b in blocks:
            b.append(k)
            yield from rec(k + 1, blocks)
            b.pop()
        blocks.append([k])
        yield from rec(k + 1, blocks)
        blocks.pop()

    for blocks in rec(1, []):
        yield tuple(tuple(b) for b in blocks)


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """Brute four-index crossing test: a < b < c < d with a,c in one
    block and b,d in another means a crossing."""
    owner: dict[int, int] = {}
    for i, blk in enumerate(blocks):
        for k in blk:
            owner[k] = i
    pts = sorted(owner)
    for a, b, c, d in itertools.combinations(pts, 4):
        if owner[a] == owner[c] != owner[b] == owner[d]:
            return False  # crossing found
    return True


def enumerate_nc_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-crossing partitions of [n]; Catalan(n) of them."""
    for pi in enumerate_partitions(n):
        if is_noncrossing(pi):
            yield pi


# -- mate pairs of pq ----------------------------------------------------

def leader(points: Iterable[int]) -> int:
    return min(points, key=_leader_key)


def _canonical_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    i = cycle.index(leader(cycle))
    return cycle[i:] + cycle[:i]


def pq_cycle_pairs(p: Mapping[int, int], q: Mapping[int, int]
                   ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Cycles of the product pq of two pairings, given as partner maps,
    grouped into mate pairs (c, c').

    The mate of a cycle c = (i_1, ..., i_l) is c' = (q(i_l), ..., q(i_1)),
    which as a permutation is q c^{-1} q.  The representative (first slot
    of each returned pair) is the cycle containing the leader of the
    union of the two cycles' points.  A failed grouping means the inputs
    were not genuine pairings of the same domain, or a bug; it raises.
    """
    if p.keys() != q.keys():
        raise ValueError("p and q must live on the same domain")
    prod = {k: p[q[k]] for k in q}
    prod_cycles = cycles(prod)
    index = {_canonical_rotation(c): c for c in prod_cycles}
    used: set[tuple[int, ...]] = set()
    out = []
    for c in prod_cycles:
        key = _canonical_rotation(c)
        if key in used:
            continue
        mate_seq = tuple(q[x] for x in reversed(c))
        mate_key = _canonical_rotation(mate_seq)
        mate = index.get(mate_key)
        if mate is None or mate_key == key or mate_key in used:
            raise RuntimeError(
                "mate-pair grouping failed; pq cycles do not pair up")
        # pointwise check that the mate really is q c^{-1} q
        for x, y in zip(mate_seq, mate_seq[1:] + mate_seq[:1]):
            if prod[x] != y:
                raise RuntimeError("mate cycle is not a cycle of pq")
        used.add(key)
        used.add(mate_key)
        lead = leader(set(c) | set(mate))
        if lead in c:
            out.append((_canonical_rotation(c), mate_key))
        else:
            out.append((mate_key, _canonical_rotation(c)))
    out.sort(key=lambda pair: _leader_key(pair[0][0]))
    return out


# -- spoke tables --------------------------------------------------------

def rotate_rows(tbl: FirstOrderTable, shift: int) -> FirstOrderTable:
    """The table for the cyclically rotated letter sequence
    a_{1+shift}, a_{2+shift}, ..."""
    s = shift % tbl.m
    return FirstOrderTable(tbl.m, tbl.n,
                           tbl.phi[s:] + tbl.phi[:s],
                           tbl.phi_t[s:] + tbl.phi_t[:s])


# -- plug-in cumulant estimates ------------------------------------------

def _sample_moments(rows: list, max_order: int) -> dict:
    """Mean over the replicas of every product of order <= max_order,
    keyed by sorted variable multiset."""
    nvars = len(rows)
    count = len(rows[0]) if rows else 0
    values = {}
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(
                range(1, nvars + 1), order):
            acc = 0
            for s in range(count):
                prod = 1
                for v in combo:
                    prod = prod * rows[v - 1][s]
                acc = acc + prod
            values[combo] = acc / count
    return values


def _cumulant_from_moments(moments: dict, key: tuple):
    """k(key) by the first-block recursion, memoized for this key only."""
    memo = {}

    def cumulant(k: tuple):
        if k not in memo:
            total = moments[k]
            for block, others in _first_block_splits(k):
                total = total - cumulant(block) * moments[others]
            memo[k] = total
        return memo[k]

    return cumulant(key)


def empirical_cumulants_by_key(samples, max_order: int = 2
                               ) -> tuple[dict, dict]:
    """(values, standard errors) of the plug-in cumulants of an
    R-variables x S-replicas array, as dicts keyed by sorted variable
    multiset; standard errors for orders 1 and 2 from BATCH_COUNT equal
    batches when each batch holds at least 2 replicas."""
    rows = [list(row) for row in samples]
    nvars = len(rows)
    count = len(rows[0])
    moments = _sample_moments(rows, max_order)
    values = {}
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(
                range(1, nvars + 1), order):
            values[combo] = _cumulant_from_moments(moments, combo)
    errors = {}
    nbatch = min(BATCH_COUNT, count)
    width = count // nbatch
    if width >= 2:
        per_batch = [_sample_moments([r[b * width:(b + 1) * width]
                                      for r in rows], min(max_order, 2))
                     for b in range(nbatch)]
        for combo in per_batch[0]:
            vals = [_cumulant_from_moments(bm, combo) for bm in per_batch]
            mean = sum(vals) / nbatch
            var = sum(abs(v - mean) ** 2 for v in vals) / (nbatch - 1)
            errors[combo] = math.sqrt(var / nbatch)
    return values, errors


# -- power traces from characters ------------------------------------------

def integer_partitions(n: int, largest: int | None = None
                       ) -> Iterator[tuple[int, ...]]:
    """The partitions of n as non-increasing tuples, parts at most
    largest (default n)."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def _subdiagrams(lam: tuple[int, ...], size: int
                 ) -> Iterator[tuple[int, ...]]:
    """The partitions of size whose diagrams lie inside lam's, as tuples
    of row lengths, one per row of lam (zero rows included)."""
    def rows(i: int, left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if i == len(lam):
            if left == 0:
                yield ()
            return
        for r in range(min(lam[i], cap, left), -1, -1):
            for rest in rows(i + 1, left - r, r):
                yield (r,) + rest
    yield from rows(0, size, size)


def _border_strip_height(lam: tuple[int, ...], nu: tuple[int, ...]
                         ) -> int | None:
    """Rows of the skew diagram lam / nu less one when it is a border
    strip (edge-connected, no 2 x 2 square of cells); None otherwise."""
    cells = {(i, j) for i, row in enumerate(lam) for j in range(nu[i], row)}
    if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells
           for i, j in cells):
        return None
    todo = [next(iter(cells))]
    seen = set(todo)
    while todo:
        i, j = todo.pop()
        for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if cell in cells and cell not in seen:
                seen.add(cell)
                todo.append(cell)
    if seen != cells:
        return None
    return len({i for i, _ in cells}) - 1


@lru_cache(maxsize=None)
def symmetric_group_character(lam: tuple[int, ...],
                              mu: tuple[int, ...]) -> int:
    """chi^lam at a permutation of cycle type mu by the Murnaghan-Nakayama
    rule: remove every border strip of size mu[0] from lam's diagram,
    each with sign (-1)^(its rows - 1), and recurse on mu[1:]."""
    if not mu:
        return 1
    size = sum(lam) - mu[0]
    total = 0
    for nu in _subdiagrams(lam, size):
        height = _border_strip_height(lam, nu)
        if height is not None:
            total += (-1) ** height * symmetric_group_character(
                tuple(r for r in nu if r), mu[1:])
    return total


def power_trace_moment(mu: tuple[int, ...], nu: tuple[int, ...],
                       N: int) -> int:
    """E prod_i Tr(U^mu_i) prod_j Tr(Ubar^nu_j) for Haar U in U(N):
    sum over lam of n = |mu| = |nu| with at most N rows of
    chi^lam(mu) chi^lam(nu), and 0 when |mu| != |nu| (Diaconis and
    Shahshahani 1994; it follows from p_mu = sum_lam chi^lam(mu) s_lam and
    the orthonormality of the Schur functions of at most N rows)."""
    mu, nu = (tuple(sorted(parts, reverse=True)) for parts in (mu, nu))
    if sum(mu) != sum(nu):
        return 0
    return sum(symmetric_group_character(lam, mu)
               * symmetric_group_character(lam, nu)
               for lam in integer_partitions(sum(mu)) if len(lam) <= N)
