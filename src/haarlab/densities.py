"""Reference limit laws for the spectral comparisons: the arcsine law on
[-2, 2] and its free additive self-convolution, which is the Kesten-McKay
law with two degrees of freedom on [-2*sqrt(3), 2*sqrt(3)].

Both laws carry closed-form densities and CDFs.  The closed-form
Kesten-McKay density is never trusted on its own; at construction it is
checked against exact moments from the free moment-cumulant relation
(a sum over non-crossing partitions, computed by recursion on the block
of the first point, not by enumerating partitions), and a mismatch
raises.  Quadrature runs only in that check, through
moment_by_quadrature: a fixed midpoint rule in the angle variable
x = c*sin(theta), exact to rounding for densities with square-root
edges such as these two (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapacityError

MOMENT_ORDER = 8
_QUAD_POINTS = 64


@dataclass(frozen=True)
class LimitLaw:
    """A compactly supported limit law: density, closed-form CDF (0 below
    the support, 1 above it), and exact moments through order 8, the
    k-th at moments[k - 1]."""

    support: tuple
    pdf: Callable[[float], float]
    cdf: Callable[[float], float]
    moments: tuple


def moment_by_quadrature(law: LimitLaw, k: int) -> float:
    """Integral of x^k against the law's density, by the _QUAD_POINTS-point
    midpoint rule on theta in [-pi/2, pi/2] with x = c*sin(theta).

    The rule is exact to rounding only when pdf(c*sin(theta))*c*cos(theta)
    extends to a smooth pi-periodic function, which holds for a density
    with square-root edges (the arcsine law and Kesten-McKay law here):
    the midpoints are then half of the equispaced periodic rule on the
    full circle, which converges exponentially (Trefethen and Weideman,
    SIAM Review 56, 2014).  Other edges converge only as h^2 (a uniform
    density is off by 1e-4 at 64 points), which fails the 1e-6 moment
    guard of kesten_mckay_law instead of passing unnoticed."""
    a, b = law.support
    c = max(abs(a), abs(b))

    def integrand(theta: float) -> float:
        x = c * math.sin(theta)
        return (x ** k) * law.pdf(x) * c * math.cos(theta)

    h = math.pi / _QUAD_POINTS
    return h * math.fsum(integrand(-math.pi / 2 + (j + 0.5) * h)
                         for j in range(_QUAD_POINTS))


# ----------------------------------------------------------------------
# moment / free-cumulant transforms over non-crossing partitions

def _lower_blocks(kappa: list, m: list, n: int) -> Fraction:
    """rest(n) = sum over s < n of kappa_s [z^(n-s)] M(z)^s, where
    M(z) = 1 + sum_i m_i z^i: the sum over NC(n) of block-products of
    free cumulants without the one-block partition.

    The block of 1 with s points leaves s gaps, each filled by its own
    non-crossing partition, so it contributes kappa_s times the total
    of s-fold products of lower moments of sizes adding up to n - s
    (Nica and Speicher, Lectures on the Combinatorics of Free
    Probability, 2006).  Reads kappa_1..kappa_{n-1} and
    m_1..m_{n-1}.
    """
    series = [Fraction(1)] + m[:n - 1]
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)  # M(z)^0 below z^n
    rest = Fraction(0)
    for s in range(1, n):
        power = [sum(power[j] * series[i - j] for j in range(i + 1))
                 for i in range(n)]
        rest += kappa[s - 1] * power[n - s]
    return rest


def free_cumulants_from_moments(moments: Sequence) -> list:
    """Invert m_n = sum over NC(n) of block-products of cumulants:
    kappa_n = m_n - rest(n), for each n up to len(moments)."""
    if len(moments) > MOMENT_ORDER:
        raise CapacityError(f"order capped at {MOMENT_ORDER}")
    m = [Fraction(x) for x in moments]
    kappa: list = []
    for n in range(1, len(m) + 1):
        kappa.append(m[n - 1] - _lower_blocks(kappa, m, n))
    return kappa


def moments_from_free_cumulants(kappa: Sequence) -> list:
    """m_n = sum over NC(n) of the block-products of cumulants,
    kappa_n + rest(n), for each n up to len(kappa)."""
    if len(kappa) > MOMENT_ORDER:
        raise CapacityError(f"order capped at {MOMENT_ORDER}")
    k = [Fraction(x) for x in kappa]
    m: list = []
    for n in range(1, len(k) + 1):
        m.append(k[n - 1] + _lower_blocks(k, m, n))
    return m


def free_self_convolution(law: LimitLaw) -> list:
    """Moments of law boxplus law, through the order of law.moments:
    free cumulants of the input, doubled, then summed back over
    non-crossing partitions.  Exact when the input moments are exact."""
    kappa = free_cumulants_from_moments(law.moments)
    return moments_from_free_cumulants([2 * x for x in kappa])


# ----------------------------------------------------------------------
# the two laws

def arcsine_law() -> LimitLaw:
    """The arcsine law on [-2, 2], density 1/(pi*sqrt(4 - t^2)); even
    moments are the central binomial coefficients."""

    def pdf(t: float) -> float:
        if abs(t) >= 2:
            return 0.0
        return 1.0 / (math.pi * math.sqrt(4.0 - t * t))

    def cdf(t: float) -> float:
        if t <= -2:
            return 0.0
        if t >= 2:
            return 1.0
        return 0.5 + math.asin(t / 2) / math.pi

    moments = tuple(math.comb(k, k // 2) if k % 2 == 0 else 0
                    for k in range(1, MOMENT_ORDER + 1))
    return LimitLaw((-2.0, 2.0), pdf, cdf, moments)


def kesten_mckay_law() -> LimitLaw:
    """The law of the sum of two free arcsine elements: density
    2*sqrt(12 - x^2)/(pi*(16 - x^2)) on [-2*sqrt(3), 2*sqrt(3)], CDF
    1/2 + (2/pi)*(arcsin(x/(2*sqrt(3))) - arctan(x/(2*sqrt(12 - x^2)))/2).

    The exact moments come from free_self_convolution of the arcsine
    moments, and the density is cross-checked against them at orders
    2, 4 and 6 by moment_by_quadrature; construction fails on
    disagreement.
    """
    c = 2.0 * math.sqrt(3.0)

    def pdf(x: float) -> float:
        if abs(x) >= c:
            return 0.0
        return 2.0 * math.sqrt(12.0 - x * x) / (math.pi * (16.0 - x * x))

    def cdf(x: float) -> float:
        if x <= -c:
            return 0.0
        if x >= c:
            return 1.0
        # with x = c*sin(theta), x/(2*sqrt(12 - x^2)) = tan(theta)/2;
        # reading both terms off theta keeps their endpoint cancellation
        # exact to rounding
        theta = math.asin(x / c)
        return 0.5 + (2.0 / math.pi) * (
            theta - 0.5 * math.atan2(math.sin(theta), 2.0 * math.cos(theta)))

    moments = tuple(free_self_convolution(arcsine_law()))
    law = LimitLaw((-c, c), pdf, cdf, moments)
    for k in (2, 4, 6):
        got = moment_by_quadrature(law, k)
        if abs(got - float(moments[k - 1])) > 1e-6:
            raise RuntimeError(
                f"closed-form density disagrees with the free "
                f"self-convolution at moment {k}: {got} vs {moments[k - 1]}")
    return law


def pdf_table(law: LimitLaw, points: int = 200) -> list:
    """Evenly spaced (x, pdf(x)) pairs across the support, for plot
    overlays and CSV export."""
    a, b = law.support
    step = (b - a) / (points - 1)
    return [(a + i * step, law.pdf(a + i * step)) for i in range(points)]
