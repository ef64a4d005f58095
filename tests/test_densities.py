"""Limit laws and free-convolution arithmetic.

The even moments asserted here were frozen after being derived three
independent ways (direct quadrature against the closed-form densities,
the non-crossing-partition generating recursion, and a walk count on
the 4-regular tree); all three agreed exactly.
"""

import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from haarlab.densities import (LimitLaw, arcsine_law,
                               free_cumulants_from_moments,
                               free_self_convolution, kesten_mckay_law,
                               moment_by_quadrature,
                               moments_from_free_cumulants, pdf_table)

ARCSINE_EVEN = {2: 2, 4: 6, 6: 20, 8: 70}        # central binomials
KM_EVEN = {2: 4, 4: 28, 6: 232, 8: 2092}
ARCSINE_KAPPA = {2: 2, 4: -2, 6: 4, 8: -10}


def test_arcsine_moments():
    law = arcsine_law()
    assert law.support == (-2.0, 2.0)
    for k in range(1, 9):
        expect = ARCSINE_EVEN.get(k, 0)
        assert law.moments[k - 1] == expect


def test_kesten_mckay_moments():
    law = kesten_mckay_law()
    c = 2 * math.sqrt(3)
    assert law.support == pytest.approx((-c, c))
    for k in range(1, 9):
        assert law.moments[k - 1] == KM_EVEN.get(k, 0)


@pytest.mark.parametrize("law_fn", [arcsine_law, kesten_mckay_law])
def test_density_integrates_to_one(law_fn):
    law = law_fn()
    assert moment_by_quadrature(law, 0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("law_fn", [arcsine_law, kesten_mckay_law])
def test_quadrature_matches_stored_moments(law_fn):
    law = law_fn()
    for k in range(1, 9):
        got = moment_by_quadrature(law, k)
        assert abs(got - float(law.moments[k - 1])) < 1e-10


def test_midpoint_rule_misses_other_edges_by_more_than_the_guard():
    # uniform density on [-1, 1]: its angle integrand has a kink at the
    # period's ends, so the rule converges only algebraically
    law = LimitLaw((-1.0, 1.0), lambda x: 0.5 if abs(x) < 1 else 0.0,
                   lambda x: min(max((x + 1) / 2, 0.0), 1.0),
                   (0, Fraction(1, 3)))
    assert abs(moment_by_quadrature(law, 2) - 1 / 3) > 1e-5


@pytest.mark.parametrize("law_fn", [arcsine_law, kesten_mckay_law])
def test_cdf_shape(law_fn):
    law = law_fn()
    a, b = law.support
    assert law.cdf(a - 0.5) == 0.0
    assert law.cdf(b + 0.5) == 1.0
    assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-9)   # symmetric
    xs = [a + (b - a) * t / 10 for t in range(11)]
    vals = [law.cdf(x) for x in xs]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def _quad_cdf(law, x):
    """The law's CDF by quadrature of its pdf, in the angle variable
    x = c*sin(theta) that tames both endpoints."""
    c = law.support[1]
    val, _err = quad(lambda th: law.pdf(c * math.sin(th)) * c * math.cos(th),
                     -math.pi / 2, math.asin(x / c),
                     epsabs=1e-10, epsrel=1e-10)
    return val


@pytest.mark.parametrize("law_fn", [arcsine_law, kesten_mckay_law])
def test_cdf_matches_quadrature_of_pdf(law_fn):
    law = law_fn()
    a, b = law.support
    xs = [a + (b - a) * (i + 0.5) / 200 for i in range(200)]
    xs += [a + 1e-6, a + 1e-7, b - 1e-6, b - 1e-7]
    for x in xs:
        assert abs(law.cdf(x) - _quad_cdf(law, x)) < 1e-9, x


def test_arcsine_free_cumulants():
    kappa = free_cumulants_from_moments(arcsine_law().moments)
    for r in range(1, 9):
        assert kappa[r - 1] == ARCSINE_KAPPA.get(r, 0)


def test_free_cumulant_round_trip():
    moments = [Fraction(0), Fraction(3), Fraction(1, 2), Fraction(11),
               Fraction(-2), Fraction(40), Fraction(7), Fraction(300)]
    kappa = free_cumulants_from_moments(moments)
    assert moments_from_free_cumulants(kappa) == moments


def test_semicircle_cumulants_truncate():
    # the standard semicircle has kappa_2 = 1 and nothing else; its
    # moments are the Catalan numbers
    catalan_moments = [0, 1, 0, 2, 0, 5, 0, 14]
    kappa = free_cumulants_from_moments(catalan_moments)
    assert kappa == [0, 1, 0, 0, 0, 0, 0, 0]


def test_self_convolution_doubles_cumulants():
    # arcsine boxplus arcsine has the Kesten-McKay moments
    got = free_self_convolution(arcsine_law())
    assert got == [KM_EVEN.get(k, 0) for k in range(1, 9)]


def test_order_cap():
    with pytest.raises(ValueError):
        free_cumulants_from_moments([0] * 9)


def test_pdf_table_spans_support():
    law = arcsine_law()
    rows = pdf_table(law, points=50)
    assert len(rows) == 50
    xs = [x for x, _ in rows]
    assert xs[0] == pytest.approx(law.support[0], abs=0.2)
    assert xs[-1] == pytest.approx(law.support[1], abs=0.2)
    assert all(y >= 0 for _, y in rows)
    assert xs == sorted(xs)
