"""Spoke-diagram predictors for fluctuation covariances of traces of
alternating centered words, in the complex rule (cyclic spoke products)
and the real rule (spokes plus reversed spokes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, NoReductionError


@dataclass(frozen=True)
class FirstOrderTable:
    """First-order inputs for the spoke formulas.

    phi[i-1][j-1] holds phi(a_i b_j) and phi_t[i-1][j-1] holds
    phi(a_i b_j^t) for cycle letters a_1..a_m and b_1..b_n.  Accessors
    take 1-based indices and reduce them cyclically.
    """

    m: int
    n: int
    phi: tuple
    phi_t: tuple

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionError("cycle lengths must be positive")
        for name, tbl in (("phi", self.phi), ("phi_t", self.phi_t)):
            rows = tuple(tuple(row) for row in tbl)
            if len(rows) != self.m or any(len(r) != self.n for r in rows):
                raise DimensionError(f"{name} must be {self.m} x {self.n}")
            object.__setattr__(self, name, rows)

    def phi_at(self, i: int, j: int):
        return self.phi[(i - 1) % self.m][(j - 1) % self.n]

    def phi_t_at(self, i: int, j: int):
        return self.phi_t[(i - 1) % self.m][(j - 1) % self.n]


@dataclass(frozen=True)
class SecondOrderPrediction:
    """A predicted fluctuation covariance, kept with its per-diagram
    summands: n spoke products, and n reversed-spoke products in the
    real rule (none in the complex rule)."""

    value: object
    spoke_terms: tuple
    reversed_terms: tuple = ()


def _cyclic_products(entry, n: int, step: int) -> list:
    """[prod over i = 1..n of entry(i, k + step*i) for k = 1..n]: the
    spoke products for entry = phi_at, step = -1, and the reversed-spoke
    products for entry = phi_t_at, step = +1."""
    terms = []
    for k in range(1, n + 1):
        prod = 1
        for i in range(1, n + 1):
            prod = prod * entry(i, k + step * i)
        terms.append(prod)
    return terms


def complex_spoke_prediction(tbl: FirstOrderTable) -> SecondOrderPrediction:
    """Predicted covariance for the complex rule: when m = n, the sum
    over k of the cyclic products phi(a_1 b_{k-1}) ... phi(a_n b_{k-n});
    zero when m != n, since no spoke pairing of the two cycles exists.

    m = n = 1 carries no reduction in this rule and is rejected.
    """
    if tbl.m == 1 and tbl.n == 1:
        raise NoReductionError(
            "no complex spoke reduction for a pair of 1-cycles")
    if tbl.m != tbl.n:
        return SecondOrderPrediction(0, ())
    terms = _cyclic_products(tbl.phi_at, tbl.n, -1)
    return SecondOrderPrediction(sum(terms), tuple(terms))


def real_spoke_prediction(tbl: FirstOrderTable) -> SecondOrderPrediction:
    """Predicted covariance for the real rule: the complex spoke sum plus
    the reversed-spoke sum over phi(a_i b_{k+i}^t), zero when m != n; at
    m = n = 1 the sums are the single terms phi(a_1 b_1), phi(a_1 b_1^t)."""
    if tbl.m != tbl.n:
        return SecondOrderPrediction(0, (), ())
    spokes = _cyclic_products(tbl.phi_at, tbl.n, -1)
    rev = _cyclic_products(tbl.phi_t_at, tbl.n, 1)
    return SecondOrderPrediction(sum(spokes) + sum(rev),
                                 tuple(spokes), tuple(rev))
