"""Classical moment-cumulant transforms and the empirical estimator."""

from fractions import Fraction

import numpy as np
import pytest

from haarlab.cumulants import (CumulantFunctional, MomentFunctional,
                               cumulants_to_moments, empirical_cumulants,
                               moments_to_cumulants, multisets)
from haarlab.errors import InsufficientSamplesError, MissingMomentError
from oracles import empirical_cumulants_by_key


def test_keys_are_symmetric():
    m = MomentFunctional({(2, 1): 7, (1,): 3})
    assert m((1, 2)) == 7
    assert m((2, 1)) == 7
    assert m(()) == 1
    with pytest.raises(MissingMomentError):
        m((2, 2))


def test_gaussian_moments_from_cumulants():
    # a standard Gaussian has k_1 = 0, k_2 = 1, k_r = 0 beyond; its
    # moments are m_{2j} = (2j-1)!!
    vals = {(1,) * r: (1 if r == 2 else 0) for r in range(1, 9)}
    k = CumulantFunctional(vals)
    for r, expect in [(1, 0), (2, 1), (3, 0), (4, 3), (6, 15), (8, 105)]:
        assert cumulants_to_moments(k, (1,) * r) == expect


def test_poisson_moments_from_cumulants():
    # all cumulants of a rate-1 Poisson equal 1; moments are the Bell
    # numbers
    vals = {}
    for r in range(1, 7):
        vals[(1,) * r] = 1
    k = CumulantFunctional(vals)
    bell = [1, 2, 5, 15, 52, 203]
    for r in range(1, 7):
        assert cumulants_to_moments(k, (1,) * r) == bell[r - 1]


def test_round_trip_exact_rationals():
    rng = np.random.default_rng(3)
    for trial in range(8):
        vals = {}
        for order in range(1, 5):
            from itertools import combinations_with_replacement
            for combo in combinations_with_replacement((1, 2), order):
                vals[combo] = Fraction(int(rng.integers(-9, 10)),
                                       int(rng.integers(1, 7)))
        m = MomentFunctional(dict(vals))
        k_vals = {key: moments_to_cumulants(m, key) for key in vals}
        k = CumulantFunctional(k_vals)
        for key in vals:
            assert cumulants_to_moments(k, key) == m(key)


def test_mixed_cumulant_of_independents_vanishes():
    # independent X, Y: E(X^a Y^b) factorizes, so mixed cumulants are 0.
    # use X with moments of a fair die, Y a coin in {0, 1}
    mx = {r: Fraction(sum(f ** r for f in range(1, 7)), 6) for r in range(1, 5)}
    my = {r: Fraction(1, 2) for r in range(1, 5)}
    vals = {}
    from itertools import combinations_with_replacement
    for order in range(1, 5):
        for combo in combinations_with_replacement((1, 2), order):
            a = sum(1 for c in combo if c == 1)
            b = len(combo) - a
            vals[combo] = (mx[a] if a else 1) * (my[b] if b else 1)
    m = MomentFunctional(vals)
    assert moments_to_cumulants(m, (1, 2)) == 0
    assert moments_to_cumulants(m, (1, 1, 2)) == 0
    assert moments_to_cumulants(m, (1, 2, 2)) == 0
    assert moments_to_cumulants(m, (1, 1, 2, 2)) == 0
    # within one variable they match the univariate values
    assert moments_to_cumulants(m, (1, 1)) \
        == mx[2] - mx[1] ** 2 == Fraction(35, 12)


def test_second_cumulant_is_covariance():
    m = MomentFunctional({(1,): 2, (2,): -1, (1, 2): 5, (1, 1): 4,
                          (2, 2): 1})
    assert moments_to_cumulants(m, (1, 2)) == 5 - 2 * (-1)
    assert moments_to_cumulants(m, (1, 1)) == 0


def test_empirical_cumulants_constant_series():
    k = empirical_cumulants([[1.0] * 40, [2.0] * 40])
    assert k((1,)) == pytest.approx(1.0)
    assert k((2,)) == pytest.approx(2.0)
    assert k((1, 2)) == pytest.approx(0.0)
    assert k.se((1,)) == pytest.approx(0.0)


def test_empirical_cumulants_linear_dependence():
    rng = np.random.default_rng(12)
    x = rng.normal(size=20000)
    samples = [x, 3.0 * x + 1.0]
    k = empirical_cumulants(samples)
    assert k((1, 1)) == pytest.approx(1.0, abs=0.05)
    assert k((1, 2)) == pytest.approx(3.0, abs=0.15)
    assert k((2, 2)) == pytest.approx(9.0, abs=0.4)
    assert k.se((1, 2)) < 0.2


def test_empirical_cumulants_third_order_gaussian():
    rng = np.random.default_rng(99)
    x = rng.normal(size=40000)
    k = empirical_cumulants([x], max_order=4)
    assert k((1, 1, 1)) == pytest.approx(0.0, abs=0.1)
    assert k((1, 1, 1, 1)) == pytest.approx(0.0, abs=0.3)


def test_empirical_cumulants_guards():
    with pytest.raises(InsufficientSamplesError):
        empirical_cumulants([[1.0]])
    with pytest.raises(ValueError):
        empirical_cumulants([[1.0, 2.0]], max_order=5)


def test_multisets_by_order_then_lexicographic():
    assert multisets(2, 3) == [(1,), (2,), (1, 1), (1, 2), (2, 2),
                               (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    assert multisets(3, 0) == []


@pytest.mark.parametrize("nvars, max_order, count", [
    (1, 4, 5), (2, 2, 15), (3, 3, 19), (5, 4, 20), (4, 2, 137),
    (2, 4, 233), (5, 1, 1001), (3, 3, 4000), (5, 2, 4000)])
def test_empirical_cumulants_match_the_per_key_oracle(nvars, max_order,
                                                      count):
    """Values and batch standard errors equal the per-key estimator's bit
    for bit: below 20 replicas (no standard errors), at counts that are
    not a multiple of BATCH_COUNT (dropped remainders) and at 4,000."""
    rng = np.random.default_rng([nvars, max_order, count])
    samples = rng.normal(size=(nvars, count)) \
        + 1j * rng.normal(size=(nvars, count))
    k = empirical_cumulants(samples, max_order)
    values, errors = empirical_cumulants_by_key(samples, max_order)
    assert k.values == values
    assert k.standard_errors == errors
    assert bool(errors) == (count >= 20)
    assert list(values) == multisets(nvars, max_order)
