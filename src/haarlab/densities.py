"""Reference limit laws for the spectral comparisons: the arcsine law on
[-2, 2] and its free additive self-convolution, which is the Kesten-McKay
law with two degrees of freedom on [-2*sqrt(3), 2*sqrt(3)].

The closed-form Kesten-McKay density is never trusted on its own; at
construction it is checked against moments obtained from the
non-crossing-partition cumulant oracle, and a mismatch raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from scipy.integrate import quad

from .combinat import enumerate_nc_partitions

MOMENT_ORDER = 8
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class LimitLaw:
    """A compactly supported limit law: density, numeric CDF, and exact
    moments through order 8."""

    support: tuple
    pdf: Callable[[float], float]
    cdf: Callable[[float], float]
    moments: tuple

    def moment(self, k: int):
        if k == 0:
            return 1
        return self.moments[k - 1]


def _symmetric_cdf(pdf: Callable[[float], float],
                   half_width: float) -> Callable[[float], float]:
    """CDF of a density on [-c, c] by quadrature in the angle variable
    x = c*sin(theta), which removes arcsine-type endpoint singularities
    and endpoint zeros alike."""
    c = half_width

    def integrand(theta: float) -> float:
        x = c * math.sin(theta)
        return pdf(x) * c * math.cos(theta)

    def cdf(x: float) -> float:
        if x <= -c:
            return 0.0
        if x >= c:
            return 1.0
        upper = math.asin(x / c)
        val, _err = quad(integrand, -math.pi / 2, upper,
                         epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
        return min(max(val, 0.0), 1.0)

    return cdf


def moment_by_quadrature(law: LimitLaw, k: int) -> float:
    """Integral of x^k against the law's density, via the same endpoint
    substitution as the CDF."""
    a, b = law.support
    c = max(abs(a), abs(b))

    def integrand(theta: float) -> float:
        x = c * math.sin(theta)
        return (x ** k) * law.pdf(x) * c * math.cos(theta)

    val, _err = quad(integrand, -math.pi / 2, math.pi / 2,
                     epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
    return val


# ----------------------------------------------------------------------
# moment / free-cumulant transforms over non-crossing partitions

def free_cumulants_from_moments(moments: Sequence, order: int) -> list:
    """Invert m_n = sum over NC(n) of block-products of cumulants, by
    peeling the full-block partition off the sum for each n in turn."""
    if order > MOMENT_ORDER:
        raise ValueError(f"order capped at {MOMENT_ORDER}")
    m = {i + 1: Fraction(moments[i]) for i in range(order)}
    kappa: dict[int, Fraction] = {}
    for n in range(1, order + 1):
        rest = Fraction(0)
        for pi in enumerate_nc_partitions(n):
            if pi.num_blocks() == 1:
                continue
            term = Fraction(1)
            for block in pi.blocks:
                term *= kappa[len(block)]
            rest += term
        kappa[n] = m[n] - rest
    return [kappa[n] for n in range(1, order + 1)]


def moments_from_free_cumulants(kappa: Sequence, order: int) -> list:
    """m_n = sum over NC(n) of the block-products of cumulants."""
    if order > MOMENT_ORDER:
        raise ValueError(f"order capped at {MOMENT_ORDER}")
    k = {i + 1: Fraction(kappa[i]) for i in range(order)}
    out = []
    for n in range(1, order + 1):
        total = Fraction(0)
        for pi in enumerate_nc_partitions(n):
            term = Fraction(1)
            for block in pi.blocks:
                term *= k[len(block)]
            total += term
        out.append(total)
    return out


def free_self_convolution(law: LimitLaw, order: int = MOMENT_ORDER) -> list:
    """Moments of law boxplus law: free cumulants of the input, doubled,
    then summed back over non-crossing partitions.  Exact when the input
    moments are exact."""
    kappa = free_cumulants_from_moments(law.moments, order)
    return moments_from_free_cumulants([2 * x for x in kappa], order)


# ----------------------------------------------------------------------
# the two laws

def arcsine_law() -> LimitLaw:
    """The arcsine law on [-2, 2], density 1/(pi*sqrt(4 - t^2)); even
    moments are the central binomial coefficients."""

    def pdf(t: float) -> float:
        if abs(t) >= 2:
            return 0.0
        return 1.0 / (math.pi * math.sqrt(4.0 - t * t))

    moments = tuple(math.comb(k, k // 2) if k % 2 == 0 else 0
                    for k in range(1, MOMENT_ORDER + 1))
    return LimitLaw((-2.0, 2.0), pdf, _symmetric_cdf(pdf, 2.0), moments)


def kesten_mckay_law() -> LimitLaw:
    """The law of the sum of two free arcsine elements: density
    2*sqrt(12 - x^2)/(pi*(16 - x^2)) on [-2*sqrt(3), 2*sqrt(3)].

    The density is cross-checked here against the non-crossing oracle
    applied to the arcsine moments; construction fails on disagreement.
    """
    c = 2.0 * math.sqrt(3.0)

    def pdf(x: float) -> float:
        if abs(x) >= c:
            return 0.0
        return 2.0 * math.sqrt(12.0 - x * x) / (math.pi * (16.0 - x * x))

    moments = tuple(free_self_convolution(arcsine_law(), MOMENT_ORDER))
    law = LimitLaw((-c, c), pdf, _symmetric_cdf(pdf, c), moments)
    for k in (2, 4, 6):
        got = moment_by_quadrature(law, k)
        if abs(got - float(moments[k - 1])) > 1e-6:
            raise RuntimeError(
                f"closed-form density disagrees with the non-crossing "
                f"oracle at moment {k}: {got} vs {moments[k - 1]}")
    return law


def pdf_table(law: LimitLaw, points: int = 200) -> list:
    """Evenly spaced (x, pdf(x)) pairs across the support, for plot
    overlays and CSV export."""
    a, b = law.support
    step = (b - a) / (points - 1)
    return [(a + i * step, law.pdf(a + i * step)) for i in range(points)]
