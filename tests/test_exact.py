"""Rational complex arithmetic and the exact matrix type."""

import random
from fractions import Fraction

import numpy as np
import pytest

from haarlab.errors import DimensionError
from haarlab.exact import (QC, QC_ONE, QC_ZERO, QCMatrix, as_qc, identity_qc,
                           mat_mul, mat_trace, mat_trace_product,
                           mat_transpose, qc_matrix)


def test_qc_field_ops():
    a = QC(Fraction(1, 3), Fraction(2, 5))
    b = QC(Fraction(-1, 2), Fraction(1, 7))
    assert a + b == QC(Fraction(-1, 6), Fraction(19, 35))
    assert a - b == QC(Fraction(5, 6), Fraction(9, 35))
    prod = a * b
    assert prod == QC(Fraction(1, 3) * Fraction(-1, 2)
                      - Fraction(2, 5) * Fraction(1, 7),
                      Fraction(1, 3) * Fraction(1, 7)
                      + Fraction(2, 5) * Fraction(-1, 2))
    assert (a / b) * b == a
    assert -a + a == QC_ZERO
    assert a * QC_ONE == a


def test_qc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QC_ONE / QC_ZERO


def test_qc_conjugate_and_modulus():
    z = QC(Fraction(3), Fraction(-4))
    assert z * QC(Fraction(3), Fraction(4)) == QC(Fraction(25))
    assert complex(z) == 3 - 4j


def test_qc_mixes_with_python_numbers():
    z = QC(Fraction(1, 2))
    assert z + 1 == QC(Fraction(3, 2))
    assert 2 * z == QC_ONE
    assert 1 - z == z
    assert as_qc(Fraction(2, 3)) == QC(Fraction(2, 3))
    assert as_qc(5) == QC(Fraction(5))


def test_qc_str_forms():
    assert str(QC(Fraction(25, 2))) == "25/2"
    assert str(QC_ZERO) == "0"
    assert str(QC(Fraction(1, 3), Fraction(-2, 5))) == "1/3 - 2/5i"
    assert str(QC(Fraction(0), Fraction(1))) == "1i"


# -- QCMatrix against entry-by-entry QC arithmetic ---------------------

def _entries(m):
    """A QCMatrix read back as rows of QC."""
    return [[QC(Fraction(re, m.den), Fraction(im, m.den))
             for re, im in zip(re_row, im_row)]
            for re_row, im_row in zip(m.re.tolist(), m.im.tolist())]


def _ref_mul(a, b):
    return [[sum((a[i][l] * b[l][j] for l in range(len(b))), QC_ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_transpose(a):
    return [list(col) for col in zip(*a)]


def _ref_trace(a):
    return sum((a[i][i] for i in range(len(a))), QC_ZERO)


def _random_rows(rng, rows, cols):
    # about a third of the entries zero, the rest over mixed denominators
    return [[QC(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                Fraction(rng.choice([0, 0, rng.randint(-2, 2)]),
                         rng.randint(1, 3)))
             if rng.random() < 0.7 else QC_ZERO
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("rows, inner",
                         [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 1),
                          (4, 2)])
def test_matrix_ops_match_entrywise_reference(rows, inner):
    rng = random.Random(100 * rows + inner)
    for _ in range(8):
        a_rows = _random_rows(rng, rows, inner)
        b_rows = _random_rows(rng, inner, rows)
        a, b = qc_matrix(a_rows), qc_matrix(b_rows)
        assert _entries(a) == a_rows
        assert _entries(mat_mul(a, b)) == _ref_mul(a_rows, b_rows)
        assert _entries(mat_mul(b, a)) == _ref_mul(b_rows, a_rows)
        assert _entries(mat_transpose(a)) == _ref_transpose(a_rows)
        assert mat_trace_product(a, b) == _ref_trace(_ref_mul(a_rows, b_rows))
        assert mat_trace_product(b, a) == _ref_trace(_ref_mul(b_rows, a_rows))
        assert bool(a) == any(x for row in a_rows for x in row)
        if rows != inner:
            continue
        assert mat_trace(a) == _ref_trace(a_rows)


def test_identity_and_matrix_units():
    for n in (1, 2, 5):
        eye = [[QC(int(i == j)) for j in range(n)] for i in range(n)]
        assert _entries(identity_qc(n)) == eye
        assert QCMatrix([[3 * (i == j) for j in range(n)] for i in range(n)],
                        [[0] * n] * n, 3) == identity_qc(n)
    assert qc_matrix([[1, 0], [0, QC(1, 1)]]) != identity_qc(2)
    # a product that cancels its denominator equals the literal identity
    half = qc_matrix([[Fraction(1, 2), 0], [0, QC(0, Fraction(1, 2))]])
    double = qc_matrix([[2, 0], [0, QC(0, -2)]])
    assert mat_mul(half, double) == identity_qc(2)


def test_equality_and_hash_do_not_depend_on_the_written_denominator():
    a = qc_matrix([[Fraction(2, 4), 2], [0, QC(0, Fraction(3, 9))]])
    b = qc_matrix([[Fraction(1, 2), Fraction(6, 3)], [0, QC(0, Fraction(1, 3))]])
    c = QCMatrix([[3, 12], [0, 0]], [[0, 0], [0, 2]], 6)
    d = QCMatrix([[-6, -24], [0, 0]], [[0, 0], [0, -4]], -12)
    assert a == b == c == d
    assert len({hash(m) for m in (a, b, c, d)}) == 1
    assert len({a, b, c, d}) == 1
    assert d.den == 6 and d.re.tolist() == [[3, 12], [0, 0]]
    assert a != qc_matrix([[Fraction(1, 2), 2], [0, 0]])
    assert a != qc_matrix([[Fraction(1, 2), 2, 0], [0, QC(0, Fraction(1, 3)), 0]])
    assert qc_matrix(a) is a


def test_shape_mismatch_raises_dimension_error():
    wide = qc_matrix([[1, 2, 3], [4, 5, 6]])
    square = qc_matrix([[1, 2], [3, 4]])
    for bad in (lambda: mat_mul(wide, wide), lambda: mat_mul(wide, square),
                lambda: mat_trace_product(wide, wide),
                lambda: mat_trace_product(wide, square),
                lambda: mat_trace(wide),
                lambda: qc_matrix([[1, 2], [3]]), lambda: qc_matrix([]),
                lambda: QCMatrix([[1, 2]], [[1], [2]], 1)):
        with pytest.raises(DimensionError):
            bad()
    assert mat_trace_product(wide, mat_transpose(wide)) == QC(91)


def _integer_part(rng, rows, cols, zero):
    return np.array([[0 if zero else rng.randint(-9, 9) for _ in range(cols)]
                     for _ in range(rows)], dtype=object)


@pytest.mark.parametrize("a_real, b_real", [(True, True), (True, False),
                                            (False, True), (False, False)])
def test_products_equal_the_four_product_formula(a_real, b_real):
    """Skipping the terms whose imaginary part is all zero changes no
    value: entries stay Python ints, equal to the four-product sums."""
    rng = random.Random(31)
    a = QCMatrix(_integer_part(rng, 3, 4, False),
                 _integer_part(rng, 3, 4, a_real), 6)
    b = QCMatrix(_integer_part(rng, 4, 3, False),
                 _integer_part(rng, 4, 3, b_real), 10)
    den = a.den * b.den
    want = QCMatrix(a.re @ b.re - a.im @ b.im, a.re @ b.im + a.im @ b.re,
                    den)
    got = mat_mul(a, b)
    assert got == want and got.den == want.den
    assert {type(x) for x in [*got.re.flat, *got.im.flat]} == {int}
    assert bool(got.im.any()) == (not (a_real and b_real))
    assert mat_trace_product(a, b) == QC(
        Fraction((a.re * b.re.T).sum() - (a.im * b.im.T).sum(), den),
        Fraction((a.re * b.im.T).sum() + (a.im * b.re.T).sum(), den))
