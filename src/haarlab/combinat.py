"""Permutations, pairings and set partitions on [n] and [+-n].

Conventions used throughout:

* the unsigned domain [n] is {1, ..., n}; the signed domain [+-n] is
  {-n, ..., -1} union {1, ..., n};
* an unsigned permutation acts on the signed domain by fixing every
  negative point;
* composition is function composition, (s * t)(k) = s(t(k));
* the "leader" of a set of points is the one with smallest absolute
  value, positive sign winning ties.  Canonical cycles start at their
  leader and cycle lists are sorted by leader.

The leader rule is what makes the mate-pair representative choice in
pq_cycle_pairs and pi_epsilon deterministic; any choice would give the
same downstream traces, but tests need reproducible output.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError

PAIRING_POINT_CAP = 12
PARTITION_POINT_CAP = 10


def _leader_key(k: int) -> tuple[int, int]:
    return (abs(k), 0 if k > 0 else 1)


def leader(points: Iterable[int]) -> int:
    return min(points, key=_leader_key)


def _check_domain(points: set[int], signed: bool, n: int) -> None:
    if signed:
        expect = set(range(1, n + 1)) | set(range(-n, 0))
    else:
        expect = set(range(1, n + 1))
    if points != expect:
        kind = "[+-n]" if signed else "[n]"
        raise ValueError(f"points {sorted(points)} do not form {kind} with n={n}")


class Permutation:
    """A bijection of [n], or of [+-n] when signed.

    Unsigned permutations silently fix negative points when called,
    matching the convention sigma(-k) = -k used by all the signed
    constructions.
    """

    __slots__ = ("_map", "n", "signed")

    def __init__(self, mapping: dict[int, int], signed: bool | None = None):
        points = set(mapping)
        if not points:
            raise ValueError("empty permutation; n must be at least 1")
        if 0 in points:
            raise ValueError("0 is not a domain point")
        inferred_signed = any(k < 0 for k in points)
        if signed is None:
            signed = inferred_signed
        elif inferred_signed and not signed:
            raise ValueError("negative points in an unsigned permutation")
        n = max(abs(k) for k in points)
        _check_domain(points, signed, n)
        if set(mapping.values()) != points:
            raise ValueError("mapping is not a bijection of its domain")
        object.__setattr__(self, "_map", dict(mapping))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "signed", signed)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def identity(cls, n: int, signed: bool = False) -> "Permutation":
        pts = list(range(1, n + 1)) + (list(range(-n, 0)) if signed else [])
        return cls({k: k for k in pts}, signed=signed)

    @classmethod
    def delta(cls, n: int) -> "Permutation":
        """The sign flip k -> -k on [+-n]."""
        m = {k: -k for k in range(1, n + 1)}
        m.update({-k: k for k in range(1, n + 1)})
        return cls(m, signed=True)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]],
                    signed: bool = False) -> "Permutation":
        pts = list(range(1, n + 1)) + (list(range(-n, 0)) if signed else [])
        m = {k: k for k in pts}
        seen: set[int] = set()
        for cyc in cycles:
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                if a in seen:
                    raise ValueError(f"point {a} appears in two cycles")
                seen.add(a)
                m[a] = b
        return cls(m, signed=signed)

    @classmethod
    def from_images(cls, images: Sequence[int]) -> "Permutation":
        """Unsigned permutation from the image list of 1..n."""
        return cls({i + 1: v for i, v in enumerate(images)}, signed=False)

    # -- behaviour -------------------------------------------------------
    def __call__(self, k: int) -> int:
        try:
            return self._map[k]
        except KeyError:
            if not self.signed and -self.n <= k <= -1:
                return k  # unsigned permutations fix negative points
            raise ValueError(f"point {k} outside domain (n={self.n}, "
                             f"signed={self.signed})") from None

    def domain(self) -> list[int]:
        return sorted(self._map, key=_leader_key)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(s * t)(k) = s(t(k))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch in composition")
        signed = self.signed or other.signed
        pts = (list(range(1, self.n + 1)) +
               (list(range(-self.n, 0)) if signed else []))
        return Permutation({k: self(other(k)) for k in pts}, signed=signed)

    def inverse(self) -> "Permutation":
        return Permutation({v: k for k, v in self._map.items()},
                           signed=self.signed)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition (fixed points included)."""
        seen: set[int] = set()
        out = []
        for start in self.domain():  # leader order: first unseen point of a
            if start in seen:        # cycle is automatically its leader
                continue
            cyc = [start]
            seen.add(start)
            k = self._map[start]
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self._map[k]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return (self.signed == other.signed and self._map == other._map)

    def __hash__(self):
        return hash((self.signed, frozenset(self._map.items())))

    def __repr__(self) -> str:
        cyc = "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles())
        return f"Permutation[{cyc}]"


def count_cycles(sigma: Permutation) -> int:
    return len(sigma.cycles())


class Pairing:
    """A perfect matching of [n] or [+-n].

    Stored as a block set; the involution view is derived on demand.
    Two pairings are equal iff their block sets are equal.
    """

    __slots__ = ("_blocks", "_partner", "n", "signed")

    def __init__(self, pairs: Iterable[Iterable[int]]):
        blocks = frozenset(frozenset(p) for p in pairs)
        partner: dict[int, int] = {}
        for blk in blocks:
            if len(blk) != 2:
                raise ValueError(f"block {set(blk)} is not a pair")
            a, b = sorted(blk, key=_leader_key)
            if a in partner or b in partner:
                raise ValueError("blocks are not disjoint")
            partner[a] = b
            partner[b] = a
        points = set(partner)
        if not points:
            raise ValueError("empty pairing")
        signed = any(k < 0 for k in points)
        n = max(abs(k) for k in points)
        _check_domain(points, signed, n)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_partner", partner)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "signed", signed)

    def __setattr__(self, name, value):
        raise AttributeError("Pairing is immutable")

    @classmethod
    def delta(cls, n: int) -> "Pairing":
        return cls([(k, -k) for k in range(1, n + 1)])

    @property
    def blocks(self) -> frozenset:
        return self._blocks

    def pairs(self) -> list[tuple[int, int]]:
        """Blocks as (leader, partner) tuples, sorted by leader."""
        out = [tuple(sorted(b, key=_leader_key)) for b in self._blocks]
        return sorted(out, key=lambda p: _leader_key(p[0]))

    def __call__(self, k: int) -> int:
        try:
            return self._partner[k]
        except KeyError:
            if not self.signed and -self.n <= k <= -1:
                return k
            raise ValueError(f"point {k} outside domain") from None

    def as_permutation(self) -> Permutation:
        return Permutation(dict(self._partner), signed=self.signed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pairing):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self):
        return hash(self._blocks)

    def __repr__(self) -> str:
        body = "".join(f"({a},{b})" for a, b in self.pairs())
        return f"Pairing[{body}]"


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


def enumerate_pairings(n: int, signed: bool = False) -> Iterator[Pairing]:
    """All pairings of [n] (or of [+-n]).  Odd point counts give an
    empty sequence, matching the convention P2(odd) = empty set."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if signed:
        points = sorted(list(range(1, n + 1)) + list(range(-n, 0)),
                        key=_leader_key)
    else:
        points = list(range(1, n + 1))
    for blocks in _enumerate_matchings(points):
        yield Pairing(blocks)


def enumerate_alpha_pairings(alpha: Sequence[int]) -> Iterator[Pairing]:
    """Pairings p of [n] with alpha_k = -alpha_l whenever p(k) = l.

    For unbalanced alpha there are none and the iterator is empty.
    """
    n = len(alpha)
    if any(a not in (1, -1) for a in alpha):
        raise ValueError("alpha entries must be +1 or -1")
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
        yield Pairing(tuple(zip(plus, perm)))


class SetPartition:
    """A partition of a finite set of positive integers (usually [n])."""

    __slots__ = ("_blocks", "ground")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blks = frozenset(frozenset(b) for b in blocks)
        ground: set[int] = set()
        for b in blks:
            if not b:
                raise ValueError("empty block")
            if ground & b:
                raise ValueError("blocks are not disjoint")
            ground |= set(b)
        if not ground:
            raise ValueError("empty partition")
        if any(k < 1 for k in ground):
            raise ValueError("ground set must be positive integers")
        object.__setattr__(self, "_blocks", blks)
        object.__setattr__(self, "ground", frozenset(ground))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @property
    def blocks(self) -> frozenset:
        return self._blocks

    def sorted_blocks(self) -> list[tuple[int, ...]]:
        return sorted((tuple(sorted(b)) for b in self._blocks), key=lambda b: b[0])

    def num_blocks(self) -> int:
        return len(self._blocks)

    def block_of(self, k: int) -> frozenset:
        for b in self._blocks:
            if k in b:
                return b
        raise ValueError(f"{k} not in ground set")

    def join(self, other: "SetPartition") -> "SetPartition":
        """Finest common coarsening (the lattice join)."""
        if self.ground != other.ground:
            raise ValueError("join requires the same ground set")
        parent = {k: k for k in self.ground}

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for blk in list(self._blocks) + list(other._blocks):
            it = iter(sorted(blk))
            root = find(next(it))
            for k in it:
                parent[find(k)] = root
        groups: dict[int, set[int]] = {}
        for k in self.ground:
            groups.setdefault(find(k), set()).add(k)
        return SetPartition(groups.values())

    def restrict(self, subset: Iterable[int]) -> "SetPartition":
        s = set(subset)
        if not s <= set(self.ground):
            raise ValueError("restriction set is not contained in the ground set")
        blocks = [b & s for b in self._blocks if b & s]
        return SetPartition(blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self):
        return hash(self._blocks)

    def __repr__(self) -> str:
        body = "".join("(" + ",".join(map(str, b)) + ")"
                       for b in self.sorted_blocks())
        return f"SetPartition[{body}]"


def join(pi: SetPartition, rho: SetPartition) -> SetPartition:
    return pi.join(rho)


def restrict(pi: SetPartition, subset: Iterable[int]) -> SetPartition:
    return pi.restrict(subset)


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n], Bell(n) of them."""
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
        yield SetPartition([tuple(b) for b in blocks])


def is_noncrossing(partition: SetPartition | Pairing) -> bool:
    """Brute four-index crossing test: a < b < c < d with a,c in one
    block and b,d in another means a crossing."""
    if isinstance(partition, Pairing):
        blocks = partition.blocks
    else:
        blocks = partition.blocks
    owner: dict[int, frozenset] = {}
    for blk in blocks:
        for k in blk:
            owner[k] = blk
    pts = sorted(owner)
    for a, b, c, d in itertools.combinations(pts, 4):
        if owner[a] is owner[c] and owner[b] is owner[d] and owner[a] is not owner[b]:
            return False  # crossing found
    return True


def enumerate_nc_pair_partitions(n: int) -> Iterator[Pairing]:
    """Non-crossing pairings of [n]; Catalan(n/2) of them for even n."""
    for p in enumerate_pairings(n):
        if is_noncrossing(p):
            yield p


def enumerate_nc_partitions(n: int) -> Iterator[SetPartition]:
    """Non-crossing partitions of [n]; Catalan(n) of them."""
    for pi in enumerate_partitions(n):
        if is_noncrossing(pi):
            yield pi


# -- Moebius functions -------------------------------------------------

def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def moebius_cycle_type(lengths: Iterable[int]) -> int:
    """Product over cycles of (-1)^(len-1) Catalan(len-1)."""
    out = 1
    for l in lengths:
        out *= (-1) ** (l - 1) * catalan(l - 1)
    return out


def moebius_partition_to_top(pi: SetPartition | int) -> int:
    """Moebius function mu(pi, 1) of the partition lattice,
    (-1)^(b-1) (b-1)! for a partition with b blocks."""
    b = pi if isinstance(pi, int) else pi.num_blocks()
    if b < 1:
        raise ValueError("block count must be positive")
    return (-1) ** (b - 1) * math.factorial(b - 1)


# -- mate-pair machinery ------------------------------------------------

def _canonical_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    i = cycle.index(leader(cycle))
    return cycle[i:] + cycle[:i]


def pq_cycle_pairs(p: Pairing, q: Pairing) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Cycles of the product pq grouped into mate pairs (c, c').

    The mate of a cycle c = (i_1, ..., i_l) is c' = (q(i_l), ..., q(i_1)),
    which as a permutation is q c^{-1} q.  The representative (first slot
    of each returned pair) is the cycle containing the leader of the
    union of the two cycles' points.  A failed grouping means the inputs
    were not genuine pairings of the same domain, or a bug; it raises.
    """
    if p.n != q.n or p.signed != q.signed:
        raise ValueError("p and q must live on the same domain")
    prod = p.as_permutation() * q.as_permutation()
    cycles = prod.cycles()
    index = {_canonical_rotation(c): c for c in cycles}
    used: set[tuple[int, ...]] = set()
    out = []
    for c in cycles:
        key = _canonical_rotation(c)
        if key in used:
            continue
        mate_seq = tuple(q(x) for x in reversed(c))
        mate_key = _canonical_rotation(mate_seq)
        mate = index.get(mate_key)
        if mate is None or mate_key == key or mate_key in used:
            raise RuntimeError(
                "mate-pair grouping failed; pq cycles do not pair up")
        # pointwise check that the mate really is q c^{-1} q
        for x, y in zip(mate_seq, mate_seq[1:] + mate_seq[:1]):
            if prod(x) != y:
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


def pi_epsilon(p: Pairing) -> tuple[Permutation, tuple[int, ...]]:
    """The permutation/sign pair encoding the constrained index sum of a
    signed pairing.

    Forms p*delta, groups its cycles into mate pairs, keeps the leader
    representative of each pair, and reads each representative cycle
    (l_1, ..., l_r) as the cycle (|l_1|, ..., |l_r|) with signs
    eps_{|l_k|} = sign(l_k).  Returns (pi, eps) with pi unsigned on [n]
    and eps a tuple indexed by position 1..n.
    """
    if not p.signed:
        raise ValueError("pi_epsilon expects a pairing of the signed domain")
    n = p.n
    pairs = pq_cycle_pairs(p, Pairing.delta(n))
    eps = [0] * (n + 1)
    cycles = []
    for rep, _mate in pairs:
        tilde = tuple(abs(l) for l in rep)
        if len(set(tilde)) != len(tilde):
            raise RuntimeError("representative cycle repeats a magnitude")
        for l in rep:
            if eps[abs(l)]:
                raise RuntimeError("magnitude covered by two representatives")
            eps[abs(l)] = 1 if l > 0 else -1
        cycles.append(tilde)
    if any(e == 0 for e in eps[1:]):
        raise RuntimeError("representatives do not cover every magnitude")
    pi = Permutation.from_cycles(n, cycles, signed=False)
    return pi, tuple(eps[1:])

