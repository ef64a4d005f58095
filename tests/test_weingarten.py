"""Weingarten tables: exact values, the defining Gram identity,
pseudo-inverse regime, leading asymptotics, CSV dump, and the class
phi gives a pair of pairings."""

import io
import itertools
from fractions import Fraction

import pytest

from haarlab.combinat import cycle_type, enumerate_pairings
from haarlab.errors import CapacityError, DimensionError
from haarlab.weingarten import (dump_table_csv, gram_entry,
                                integer_partitions, normalize_cycle_type,
                                phi, wg_leading, wg_table)
from oracles import pq_cycle_pairs


def _perms(n):
    """The permutations of [n] as image tuples (sigma(1), ..., sigma(n))."""
    return list(itertools.permutations(range(1, n + 1)))


def _map(images):
    return dict(enumerate(images, start=1))


def _compose(s, t):
    """(s * t)(k) = s(t(k)) on image tuples."""
    return tuple(s[k - 1] for k in t)


def _inverse(s):
    out = [0] * len(s)
    for k, v in enumerate(s, start=1):
        out[v - 1] = k
    return tuple(out)


def test_integer_partitions():
    assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                           (1, 1, 1, 1)]
    assert normalize_cycle_type([1, 3, 2]) == (3, 2, 1)


def test_gram_entry():
    s = {1: 2, 2: 1, 3: 3}  # (1 2)
    t = {1: 2, 2: 3, 3: 1}  # (1 2 3)
    # s t^-1 = (1 3)(2) has two cycles
    assert gram_entry(s, t, 4) == 4 ** 2
    assert gram_entry(s, s, 4) == 4 ** 3
    for bad in ({1: 2, 2: 1}, {1: 1, 2: 1, 3: 3}, {1: 2, 2: 1, 4: 4},
                {-1: -1, 1: 1, 2: 2}):
        with pytest.raises(ValueError):
            gram_entry(s, bad, 4)
        with pytest.raises(ValueError):
            gram_entry(bad, s, 4)


# classical closed forms, frozen from the defining linear system
@pytest.mark.parametrize("N", [3, 5, 11])
def test_low_order_closed_forms(N):
    assert wg_table(1, N)[(1,)] == Fraction(1, N)
    t2 = wg_table(2, N)
    assert t2[(1, 1)] == Fraction(1, N ** 2 - 1)
    assert t2[(2,)] == Fraction(-1, N * (N ** 2 - 1))
    t3 = wg_table(3, N)
    d = N * (N ** 2 - 1) * (N ** 2 - 4)
    assert t3[(1, 1, 1)] == Fraction(N ** 2 - 2, d)
    assert t3[(2, 1)] == Fraction(-1, (N ** 2 - 1) * (N ** 2 - 4))
    assert t3[(3,)] == Fraction(2, d)


@pytest.mark.parametrize("n,N", [(1, 1), (2, 3), (3, 3), (3, 7), (4, 4),
                                 (5, 5)])
def test_gram_identity(n, N):
    # sum_tau N^{#(sigma tau^-1)} Wg(tau) = [sigma = id], every sigma
    table = wg_table(n, N)
    ident = tuple(range(1, n + 1))
    for sigma in _perms(n):
        total = sum(Fraction(gram_entry(_map(sigma), _map(tau), N))
                    * table[cycle_type(_map(tau))] for tau in _perms(n))
        assert total == (1 if sigma == ident else 0)


def _convolve(f, g, perms):
    # (f * g)(sigma) = sum_tau f(tau) g(tau^-1 sigma) in the group algebra
    return {sigma: sum(f[tau] * g[_compose(_inverse(tau), sigma)]
                       for tau in perms)
            for sigma in perms}


def test_pseudo_inverse_regime():
    # N < n: the Gram system is singular, but pairing sums over the
    # pseudo-inverse still reproduce genuine moments.  A 1x1 Haar
    # unitary is a uniform phase u, and E |u|^(2n) = 1.
    for n in (2, 3):
        table = wg_table(n, 1)
        total = sum(table[cycle_type(_map(_compose(sigma, _inverse(tau))))]
                    for sigma in _perms(n) for tau in _perms(n))
        assert total == 1


@pytest.mark.parametrize("n,N", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
                                 (5, 2), (5, 4)])
def test_pseudo_inverse_is_moore_penrose(n, N):
    # N < n: the Gram element G(sigma) = N^#(sigma) is singular, and the
    # table is its Moore-Penrose pseudo-inverse W: G W G = G, W G W = W.
    perms = _perms(n)
    ident = _map(range(1, n + 1))
    table = wg_table(n, N)
    gram = {s: Fraction(gram_entry(_map(s), ident, N)) for s in perms}
    wg = {s: table[cycle_type(_map(s))] for s in perms}
    assert _convolve(_convolve(gram, wg, perms), gram, perms) == gram
    assert _convolve(_convolve(wg, gram, perms), wg, perms) == wg


def test_tables_are_read_only_mappings():
    # functools.cache hands every caller the same table object
    table = wg_table(2, 5)
    assert table is wg_table(2, 5)
    assert dict(table) == {(2,): Fraction(-1, 120), (1, 1): Fraction(1, 24)}
    with pytest.raises(TypeError):
        table[(2,)] = Fraction(0)
    assert wg_table(2, 5)[(2,)] == Fraction(-1, 120)


def test_leading_asymptotics():
    # Wg(sigma) ~ N^(#sigma - 2n) Moeb(sigma)
    assert wg_leading((2,), 10) == Fraction(-1, 1000)
    assert wg_leading((1, 1), 10) == Fraction(1, 10 ** 2)
    N = 101
    for n in (2, 3, 4):
        table = wg_table(n, N)
        for ct in integer_partitions(n):
            lead = wg_leading(ct, N)
            assert abs(float(table[ct] / lead) - 1.0) < 0.01


def test_wg_leading_validates_partition():
    # n is read off the cycle type, whose parts must be positive
    assert wg_leading((2, 1), 10) == wg_leading([1, 2], 10)
    for bad in ((2, 0), (3, -1)):
        with pytest.raises(ValueError):
            wg_leading(bad, 10)


def test_wg_leading_refuses_a_dimension_below_one():
    for ct, N in (((1,), 0), ((2,), -2)):
        with pytest.raises(DimensionError,
                           match="^dimension N must be at least 1$"):
            wg_leading(ct, N)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        wg_table(7, 10)


def test_phi_matches_low_order_tables():
    # the class of a pair is the cycle type of its mate pairs, one
    # length per pair, m = n/2 in all
    p = {1: 2, 2: 1, 3: 4, 4: 3}
    q = {1: 2, 2: 1, 3: 4, 4: 3}
    # identical pairings give m fixed-point representatives
    assert phi(p, q) == (1, 1)
    r = {1: 4, 4: 1, 2: 3, 3: 2}
    assert phi(p, r) == (2,)


def test_phi_rejects_signed_pairings():
    with pytest.raises(ValueError):
        phi({1: -1, -1: 1, 2: -2, -2: 2}, {1: -1, -1: 1, 2: -2, -2: 2})


def test_dump_table_csv_layout():
    buf = io.StringIO()
    dump_table_csv(buf, [(2, 5)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,cycle_type,N,numerator,denominator"
    assert lines[1] == "2,2,5,-1,120"
    assert lines[2] == "2,1+1,5,1,24"
    assert len(lines) == 3


def _oracle_class(p: dict, q: dict) -> tuple:
    """The cycle type of the representative cycles of pq, from the
    explicit mate-pair grouping."""
    lengths = [len(rep) for rep, _mate in pq_cycle_pairs(p, q)]
    return tuple(sorted(lengths, reverse=True))


@pytest.mark.parametrize("N", [1, 2, 5])
def test_phi_walk_matches_mate_pair_oracle(N):
    # the class is a cycle type of m, and indexes the order-m table
    for m in range(1, 4):
        pairings = list(enumerate_pairings(2 * m))
        for p in pairings:
            for q in pairings:
                assert phi(p, q) == _oracle_class(p, q)
                assert phi(p, q) in wg_table(m, N)


def test_phi_rejects_mismatched_domains():
    with pytest.raises(ValueError):
        phi({1: 2, 2: 1}, {1: 2, 2: 1, 3: 4, 4: 3})


def test_phi_raises_on_a_map_that_is_not_a_pairing():
    # p has the fixed point 2: the walk from 1 reaches the marked point 2
    # before it closes, where it once looped forever
    with pytest.raises(ValueError):
        phi({1: 2, 2: 2}, {1: 2, 2: 1})


def test_phi_rejects_a_map_leaving_its_domain():
    # p(1) = 3 lies outside [2]: once this returned Wg(1)(3) = 1/3
    with pytest.raises(ValueError):
        phi({1: 3, 2: 1}, {1: 2, 2: 1})
    with pytest.raises(ValueError):
        phi({1: 2, 2: 1}, {1: 0, 2: 1})


def _is_pairing(m: dict, n: int) -> bool:
    """Up-front oracle: m is a fixed-point-free involution of [n]."""
    return m.keys() == set(range(1, n + 1)) and \
        all(v != k and m.get(v) == k for k, v in m.items())


def _phi_agrees(p: dict, q: dict, n: int) -> None:
    if _is_pairing(p, n) and _is_pairing(q, n):
        assert phi(p, q) == _oracle_class(p, q), (p, q)
    else:
        with pytest.raises(ValueError):
            phi(p, q)


def test_phi_check_agrees_with_oracle_on_every_small_map():
    # every pair of maps from [n] to {0, ..., n + 1} for n <= 3, and at
    # n = 4 every such map against each pairing, in both slots
    checked = 0
    for n in range(1, 4):
        maps = [_map(v) for v in itertools.product(range(n + 2), repeat=n)]
        for p in maps:
            for q in maps:
                _phi_agrees(p, q, n)
                checked += 1
    maps = [_map(v) for v in itertools.product(range(6), repeat=4)]
    for pairing in enumerate_pairings(4):
        for m in maps:
            _phi_agrees(m, pairing, 4)
            _phi_agrees(pairing, m, 4)
            checked += 2
    assert checked == 3 ** 2 + 4 ** 4 + 5 ** 6 + 3 * 2 * 6 ** 4
