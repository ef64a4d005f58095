"""Weingarten tables: exact values, the defining Gram identity,
pseudo-inverse regime, leading asymptotics, CSV dump."""

import io
import itertools
from fractions import Fraction

import pytest

from haarlab.combinat import Pairing, Permutation, count_cycles
from haarlab.errors import CapacityError
from haarlab.weingarten import (dump_table_csv, gram_entry,
                                integer_partitions, normalize_cycle_type,
                                phi, wg_leading, wg_table)


def _perms(n):
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation.from_images(images)


def test_integer_partitions():
    assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                           (1, 1, 1, 1)]
    assert normalize_cycle_type([1, 3, 2]) == (3, 2, 1)


def test_gram_entry():
    s = Permutation.from_cycles(3, [(1, 2)])
    t = Permutation.from_cycles(3, [(1, 2, 3)])
    st_inv = s * t.inverse()
    assert gram_entry(s, t, 4) == 4 ** count_cycles(st_inv)
    assert gram_entry(s, s, 4) == 4 ** 3


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
    for sigma in _perms(n):
        total = sum(Fraction(gram_entry(sigma, tau, N))
                    * table[tau.cycle_type()] for tau in _perms(n))
        assert total == (1 if sigma == Permutation.identity(n) else 0)


def _convolve(f, g, perms):
    # (f * g)(sigma) = sum_tau f(tau) g(tau^-1 sigma) in the group algebra
    return {sigma: sum(f[tau] * g[tau.inverse() * sigma] for tau in perms)
            for sigma in perms}


def test_pseudo_inverse_regime():
    # N < n: the Gram system is singular, but pairing sums over the
    # pseudo-inverse still reproduce genuine moments.  A 1x1 Haar
    # unitary is a uniform phase u, and E |u|^(2n) = 1.
    for n in (2, 3):
        table = wg_table(n, 1)
        assert table.pseudo
        total = sum(table[(sigma * tau.inverse()).cycle_type()]
                    for sigma in _perms(n) for tau in _perms(n))
        assert total == 1


@pytest.mark.parametrize("n,N", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
                                 (5, 2), (5, 4)])
def test_pseudo_inverse_is_moore_penrose(n, N):
    # N < n: the Gram element G(sigma) = N^#(sigma) is singular, and the
    # table is its Moore-Penrose pseudo-inverse W: G W G = G, W G W = W.
    perms = list(_perms(n))
    ident = Permutation.identity(n)
    table = wg_table(n, N)
    assert table.pseudo
    gram = {s: Fraction(gram_entry(s, ident, N)) for s in perms}
    wg = {s: table[s] for s in perms}
    assert _convolve(_convolve(gram, wg, perms), gram, perms) == gram
    assert _convolve(_convolve(wg, gram, perms), wg, perms) == wg


def test_pseudo_flag_off_in_regular_regime():
    assert not wg_table(3, 3).pseudo
    assert wg_table(3, 2).pseudo


def test_leading_asymptotics():
    # Wg(sigma) ~ N^(#sigma - 2n) Moeb(sigma)
    assert wg_leading((2,), 2, 10) == Fraction(-1, 1000)
    assert wg_leading((1, 1), 2, 10) == Fraction(1, 10 ** 2)
    N = 101
    for n in (2, 3, 4):
        table = wg_table(n, N)
        for ct in integer_partitions(n):
            lead = wg_leading(ct, n, N)
            assert abs(float(table[ct] / lead) - 1.0) < 0.01


def test_wg_leading_validates_partition():
    with pytest.raises(ValueError):
        wg_leading((2, 2), 3, 10)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        wg_table(7, 10)
    # explicit cap raises the limit
    assert wg_table(7, 10, cap=7)[(7,)] != 0


def test_phi_matches_low_order_tables():
    # the pairing weight is the order-m Weingarten value at the
    # mate-pair cycle type, m = n/2
    p = Pairing([(1, 2), (3, 4)])
    q = Pairing([(1, 2), (3, 4)])
    # identical pairings give m fixed-point representatives
    assert phi(p, q, 5) == wg_table(2, 5)[(1, 1)]
    r = Pairing([(1, 4), (2, 3)])
    assert phi(p, r, 5) == wg_table(2, 5)[(2,)]


def test_phi_rejects_signed_pairings():
    with pytest.raises(ValueError):
        phi(Pairing.delta(2), Pairing.delta(2), 5)


def test_dump_table_csv_layout():
    buf = io.StringIO()
    dump_table_csv(buf, [wg_table(2, 5)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,cycle_type,N,numerator,denominator"
    assert lines[1] == "2,2,5,-1,120"
    assert lines[2] == "2,1+1,5,1,24"
    assert len(lines) == 3
