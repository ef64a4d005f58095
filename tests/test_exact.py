"""Rational complex arithmetic and exact matrix helpers."""

from fractions import Fraction

import pytest

from haarlab.exact import (QC, QC_ONE, QC_ZERO, as_qc, identity_qc, mat_conj,
                           mat_is_identity, mat_mul, mat_trace, mat_transpose,
                           qc_matrix, to_complex_rows)


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
    assert z.conjugate() == QC(Fraction(3), Fraction(4))
    assert z * z.conjugate() == QC(Fraction(25))
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


def test_matrix_helpers():
    a = qc_matrix([[1, 2], [3, 4]])
    b = qc_matrix([[0, 1], [1, 0]])
    assert mat_trace(a) == QC(Fraction(5))
    assert mat_mul(a, b) == qc_matrix([[2, 1], [4, 3]])
    assert mat_transpose(a) == qc_matrix([[1, 3], [2, 4]])
    assert mat_is_identity(identity_qc(3))
    assert not mat_is_identity(a)
    j = qc_matrix([[QC(Fraction(0), Fraction(1))]])
    assert mat_conj(j)[0][0] == QC(Fraction(0), Fraction(-1))
    assert to_complex_rows(j) == [[1j]]

