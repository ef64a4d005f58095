"""Exact rational-complex scalars and matrices.

QC is a complex number with Fraction parts; the engine's traces are QC.
QCMatrix holds Gaussian integers over one denominator: numpy object
arrays re and im of Python ints and a positive int den, entries
(re + i im) / den, kept in lowest terms so that equal matrices compare
and hash equal.  A product is re re - im im and re im + im re over
den * den, less the terms with an all-zero imaginary part; Tr(ab) sums
the entries of a times b transposed.  numpy is
only a container of Python ints here: nothing is floated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import DimensionError

RationalLike = int | Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QC:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "QC":
        other = as_qc(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "QC":
        other = as_qc(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "QC":
        return as_qc(other) - self

    def __mul__(self, other) -> "QC":
        other = as_qc(other)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QC":
        other = as_qc(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    # -- structure -----------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QC)):
            other = as_qc(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"QC({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}i"


QC_ZERO = QC(0)
QC_ONE = QC(1)


def as_qc(x) -> QC:
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as QC")


class QCMatrix:
    """(re + i im) / den in lowest terms: re and im read-only object
    arrays of Python ints of one nonempty 2-D shape, den a positive
    int."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im, den: int):
        re = np.asarray(re, dtype=object)
        im = np.asarray(im, dtype=object)
        if re.ndim != 2 or re.shape != im.shape or 0 in re.shape:
            raise DimensionError(f"parts {re.shape}, {im.shape} are not a matrix")
        if den == 0:
            raise ZeroDivisionError("matrix with zero denominator")
        g = math.gcd(den, *re.flat, *im.flat) * (1 if den > 0 else -1)
        self.re, self.im, self.den = re // g, im // g, den // g
        self.re.flags.writeable = self.im.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, QCMatrix):
            return NotImplemented
        return (self.den == other.den and np.array_equal(self.re, other.re)
                and np.array_equal(self.im, other.im))

    def __hash__(self):
        return hash((self.den, self.shape, tuple(self.re.flat),
                     tuple(self.im.flat)))

    def __bool__(self) -> bool:  # any nonzero entry
        return bool(self.re.any() or self.im.any())

    def __repr__(self) -> str:
        return f"QCMatrix({self.re.tolist()}, {self.im.tolist()}, {self.den})"


def qc_matrix(rows: QCMatrix | Iterable[Iterable]) -> QCMatrix:
    """A QCMatrix as is, or nested rows of ints/Fractions/QC brought over
    their least common denominator."""
    if isinstance(rows, QCMatrix):
        return rows
    parts = [[(x.re, x.im) for x in map(as_qc, row)] for row in rows]
    if any(len(row) != len(parts[0]) for row in parts):
        raise DimensionError("ragged rows in matrix literal")
    den = math.lcm(*(f.denominator for row in parts for pair in row
                     for f in pair))
    return QCMatrix([[x.numerator * (den // x.denominator) for x, _ in row]
                     for row in parts],
                    [[y.numerator * (den // y.denominator) for _, y in row]
                     for row in parts], den)


def identity_qc(n: int) -> QCMatrix:
    return QCMatrix(np.eye(n, dtype=object), np.zeros((n, n), dtype=object), 1)


def _product_parts(a: QCMatrix, b: QCMatrix, product) -> tuple:
    """The real and imaginary numerators of a times b, re re - im im and
    re im + im re, where product multiplies two integer parts.  A term
    with an all-zero imaginary factor is skipped, so a real times a real
    costs one product, not four."""
    re = product(a.re, b.re)
    im = re * 0
    a_complex, b_complex = a.im.any(), b.im.any()
    if a_complex:
        im = im + product(a.im, b.re)
        if b_complex:
            re = re - product(a.im, b.im)
    if b_complex:
        im = im + product(a.re, b.im)
    return re, im


def mat_mul(a: QCMatrix, b: QCMatrix) -> QCMatrix:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape[0]}x{a.shape[1]} "
                             f"by {b.shape[0]}x{b.shape[1]}")
    return QCMatrix(*_product_parts(a, b, np.matmul), a.den * b.den)


def mat_transpose(a: QCMatrix) -> QCMatrix:
    return QCMatrix(a.re.T, a.im.T, a.den)


def mat_trace(a: QCMatrix) -> QC:
    if a.shape[0] != a.shape[1]:
        raise DimensionError("trace of a non-square matrix")
    return QC(Fraction(sum(a.re.diagonal()), a.den),
              Fraction(sum(a.im.diagonal()), a.den))


def mat_trace_product(a: QCMatrix, b: QCMatrix) -> QC:
    """Tr(ab) without forming ab: the entries of a times b transposed,
    summed."""
    if a.shape != b.shape[::-1]:
        raise DimensionError(f"Tr of a {a.shape[0]}x{a.shape[1]} times a "
                             f"{b.shape[0]}x{b.shape[1]} matrix")
    re, im = _product_parts(a, b, lambda x, y: (x * y.T).sum())
    den = a.den * b.den
    return QC(Fraction(re, den), Fraction(im, den))
