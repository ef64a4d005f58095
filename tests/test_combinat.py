"""Permutation and pairing maps, Moebius weights, and the set-partition
and mate-pair oracles of tests/oracles.py."""

import itertools
import math

import pytest

from haarlab.combinat import (catalan, cycle_type, cycles,
                              enumerate_alpha_pairings, enumerate_pairings,
                              moebius_cycle_type, pi_epsilon)
from oracles import (enumerate_nc_partitions, enumerate_partitions,
                     is_noncrossing, leader, pq_cycle_pairs)


def _delta(n):
    """The partner map k -> -k of [+-n]."""
    return {k: -k for k in range(-n, n + 1) if k}


def test_leader_prefers_small_magnitude_then_positive():
    assert leader({3, -1, 2}) == -1
    assert leader({1, -1, 2}) == 1
    assert leader({-2, 2, 5}) == 2


def test_cycles_and_cycle_type_of_maps():
    # canonical cycles: fixed points kept, each cycle starting at its
    # leader, the cycles sorted by leader (1, -1, 2, -2, ...)
    sigma = {1: 3, 2: 2, 3: 5, 4: 1, 5: 4}
    assert cycles(sigma) == ((1, 3, 5, 4), (2,))
    assert cycle_type(sigma) == (4, 1)
    signed = {-1: 3, 3: -2, -2: -1, 1: 2, 2: 1, -3: -3}
    assert cycles(signed) == ((1, 2), (-1, 3, -2), (-3,))
    assert cycle_type(signed) == (3, 2, 1)
    # a map that is not a bijection of its keys raises instead of
    # walking forever
    for bad in ({1: 2, 2: 2}, {1: 2}, {1: 2, 2: 3, 3: 2}):
        with pytest.raises(ValueError):
            cycles(bad)
        with pytest.raises(ValueError):
            cycle_type(bad)


def test_unsigned_pairing_counts():
    # matchings of [2k]: (2k-1)!!, odd point count: none
    assert sum(1 for _ in enumerate_pairings(4)) == 3
    assert sum(1 for _ in enumerate_pairings(6)) == 15
    assert list(enumerate_pairings(3)) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_pairing_count_is_double_factorial(n):
    # pairings of the 2n signed points: (2n-1)!!
    got = sum(1 for _ in enumerate_pairings(n, signed=True))
    assert got == math.prod(range(1, 2 * n, 2))


def test_alpha_pairings():
    # balanced alpha: pairings matching +1 positions to -1 positions
    assert sum(1 for _ in enumerate_alpha_pairings((1, -1, 1, -1))) == 2
    assert list(enumerate_alpha_pairings((1, 1, -1))) == []
    for p in enumerate_alpha_pairings((1, -1, -1, 1)):
        for a, b in p.items():
            assert {a, b} & {1, 4} and {a, b} & {2, 3}


def test_enumerators_yield_fixed_point_free_involutions():
    # the partner maps are used unchecked downstream, so each must be a
    # fixed-point-free involution of exactly its domain
    unsigned = set(range(1, 7))
    cases = [(unsigned, enumerate_pairings(6)),
             (set(_delta(3)), enumerate_pairings(3, signed=True)),
             (unsigned, enumerate_alpha_pairings((1, -1, -1, 1, 1, -1)))]
    for domain, pairings in cases:
        for p in pairings:
            assert type(p) is dict and p.keys() == domain
            assert all(p[v] == k != v for k, v in p.items())


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_partition_count_is_bell(n, bell):
    assert sum(1 for _ in enumerate_partitions(n)) == bell


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_nc_partition_count_is_catalan(n):
    got = sum(1 for _ in enumerate_nc_partitions(n))
    assert got == catalan(n)


def test_is_noncrossing():
    assert is_noncrossing(((1, 4), (2, 3)))
    assert not is_noncrossing(((1, 3), (2, 4)))


def test_moebius_cycle_type_is_free_moebius():
    # per cycle of length l: (-1)^(l-1) Catalan(l-1)
    assert moebius_cycle_type((1,)) == 1
    assert moebius_cycle_type((2,)) == -1
    assert moebius_cycle_type((3,)) == 2
    assert moebius_cycle_type((4,)) == -5
    assert moebius_cycle_type((2, 2)) == 1


def test_pq_cycle_pairs_mate_law():
    p = {1: -2, -2: 1, 2: -3, -3: 2, 3: -1, -1: 3}
    q = _delta(3)
    pairs = pq_cycle_pairs(p, q)
    for rep, mate in pairs:
        # the mate is q c^{-1} q applied to the representative cycle
        expect = tuple(q[x] for x in reversed(rep))
        rotations = {tuple(expect[i:] + expect[:i])
                     for i in range(len(expect))}
        assert mate in rotations
        for x, y in zip(rep, rep[1:] + rep[:1]):
            assert p[q[x]] == y


def test_pi_epsilon_covers_every_magnitude_once():
    for p in enumerate_pairings(3, signed=True):
        cycles, eps = pi_epsilon(p)
        assert len(eps) == 3
        assert all(e in (1, -1) for e in eps)
        assert sorted(k for cyc in cycles for k in cyc) == [1, 2, 3]


def test_pi_epsilon_of_delta():
    # p = delta gives pq = identity; each (k, -k) orbit pair collapses
    # to a fixed point with positive sign
    cycles, eps = pi_epsilon(_delta(4))
    assert cycles == ((1,), (2,), (3,), (4,))
    assert eps == (1, 1, 1, 1)


def test_pi_epsilon_rejects_unsigned():
    with pytest.raises(ValueError):
        pi_epsilon({1: 2, 2: 1, 3: 4, 4: 3})


def _pi_epsilon_from_mate_pairs(p):
    """pi_epsilon spelled out through pq_cycle_pairs(p, delta)."""
    n = len(p) // 2
    eps = [0] * (n + 1)
    cycles = []
    for rep, _mate in pq_cycle_pairs(p, _delta(n)):
        for l in rep:
            eps[abs(l)] = 1 if l > 0 else -1
        cycles.append(tuple(abs(l) for l in rep))
    return tuple(sorted(cycles)), tuple(eps[1:])


def test_pi_epsilon_walk_matches_mate_pair_oracle():
    seen = 0
    for n in range(1, 6):
        for p in enumerate_pairings(n, signed=True):
            assert pi_epsilon(p) == _pi_epsilon_from_mate_pairs(p)
            seen += 1
    assert seen == 1 + 3 + 15 + 105 + 945


def test_pi_epsilon_guards_a_corrupt_partner_map():
    # delta(2) with its involution broken: the input check refuses the
    # maps on which the walk would revisit magnitude 1 (1 -> p(-1) = -1)
    # or land on the first representative (2 -> p(-2) = 1)
    with pytest.raises(ValueError, match="involution"):
        pi_epsilon({1: -1, -1: -1, 2: -2, -2: 2})
    with pytest.raises(ValueError, match="involution"):
        pi_epsilon({1: -1, -1: 1, 2: -2, -2: 1})


@pytest.mark.parametrize("partner", [
    {1: -1, -1: 1, 2: -2},                  # -2 missing
    {1: 1, -1: -1},                         # fixed points
    {1: 2, 2: -1, -1: -2, -2: 1},           # a bijection, not an involution
], ids=["missing_point", "fixed_point", "bijection"])
def test_pi_epsilon_rejects_a_map_that_is_not_a_signed_pairing(partner):
    # test_pi_epsilon_rejects_unsigned covers an unsigned pairing's map
    with pytest.raises(ValueError, match="involution"):
        pi_epsilon(partner)


def _accepted_by_oracle(partner):
    """The input check pi_epsilon once ran before its walk, kept as the
    oracle of the check the walk now makes."""
    n = len(partner) // 2
    points = set(range(-n, n + 1)) - {0}
    return not (partner.keys() != points
                or not all(partner.get(v) == k != v
                           for k, v in partner.items()))


def _single_edits(p):
    """Single-edit corruptions of a signed pairing's partner map: a
    dropped key, an extra key, a fixed point, a value outside [+-n],
    two keys with one value, and a 3-cycle."""
    n = len(p) // 2
    keys = list(p)
    for k in keys:
        yield {x: y for x, y in p.items() if x != k}
        yield {**p, k: k}
        for bad in (0, n + 1, -n - 1):
            yield {**p, k: bad}
        for k2 in keys:
            if k2 != k:
                yield {**p, k: p[k2]}
    for extra in (0, n + 1, -n - 1):
        yield {**p, extra: 1}
    for a, b, c in itertools.permutations(keys, 3):
        yield {**p, a: b, b: c, c: a}


def _check_agrees(partner):
    try:
        pi_epsilon(partner)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _accepted_by_oracle(partner), partner


def test_pi_epsilon_check_matches_oracle_on_corrupted_pairings():
    pairings = corrupt = 0
    for n in range(4):
        for p in enumerate_pairings(n, signed=True):
            _check_agrees(p)
            pairings += 1
            for bad in _single_edits(p):
                _check_agrees(bad)
                corrupt += 1
    assert pairings == 1 + 1 + 3 + 15
    assert corrupt == 2940


def test_pi_epsilon_check_agrees_on_every_small_map():
    # every map from [+-2] to [-3, 3]: bijections, involutions with and
    # without fixed points, and maps leaving the domain
    keys = (1, -1, 2, -2)
    for values in itertools.product(range(-3, 4), repeat=4):
        _check_agrees(dict(zip(keys, values)))
