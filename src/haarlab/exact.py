"""Exact rational-complex scalars and matrices.

Everything in this module is built on fractions.Fraction so that the
Weingarten tables and the trace-expectation engine stay exact.  The
matrix helpers work on tuples of tuples of QC and skip zero entries
when multiplying, which makes products with identity, diagonal and
single-band matrices cheap without any special-case flags.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

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

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

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

    @property
    def is_real(self) -> bool:
        return self.im == 0

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
QC_I = QC(0, 1)


def as_qc(x) -> QC:
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as QC")


QCMatrix = tuple  # tuple of tuples of QC; alias for readability


def qc_matrix(rows: Iterable[Iterable]) -> QCMatrix:
    """Coerce a nested iterable of ints/Fractions/QC into a QC matrix."""
    mat = tuple(tuple(as_qc(x) for x in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise DimensionError("ragged rows in matrix literal")
    return mat


def identity_qc(n: int) -> QCMatrix:
    return tuple(tuple(QC_ONE if i == j else QC_ZERO for j in range(n))
                 for i in range(n))


def mat_dim(a: QCMatrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a: QCMatrix, b: QCMatrix) -> QCMatrix:
    n, k = mat_dim(a)
    k2, m = mat_dim(b)
    if k != k2:
        raise DimensionError(f"cannot multiply {n}x{k} by {k2}x{m}")
    # sparse row walk: only touch nonzero entries of the left factor
    out = []
    for i in range(n):
        row = [QC_ZERO] * m
        for l, ail in enumerate(a[i]):
            if not ail:
                continue
            brow = b[l]
            for j in range(m):
                if brow[j]:
                    row[j] = row[j] + ail * brow[j]
        out.append(tuple(row))
    return tuple(out)


def mat_sub(a: QCMatrix, b: QCMatrix) -> QCMatrix:
    if mat_dim(a) != mat_dim(b):
        raise DimensionError("shape mismatch in matrix difference")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: QCMatrix) -> QCMatrix:
    c = as_qc(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_transpose(a: QCMatrix) -> QCMatrix:
    return tuple(zip(*a)) if a else a


def mat_conj(a: QCMatrix) -> QCMatrix:
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def mat_trace(a: QCMatrix) -> QC:
    n, m = mat_dim(a)
    if n != m:
        raise DimensionError("trace of a non-square matrix")
    t = QC_ZERO
    for i in range(n):
        t = t + a[i][i]
    return t


def mat_is_identity(a: QCMatrix) -> bool:
    n, m = mat_dim(a)
    if n != m:
        return False
    return all(a[i][j] == (QC_ONE if i == j else QC_ZERO)
               for i in range(n) for j in range(n))


def to_complex_rows(a: QCMatrix) -> list[list[complex]]:
    return [[complex(x) for x in row] for row in a]

