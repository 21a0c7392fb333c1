from fractions import Fraction
from math import factorial

import pytest

from gstirling import stirling
from gstirling.qpoly import QPolynomial
from gstirling.rationals import rising
from gstirling.series import column_rows, family_columns, verify_gf_derivatives
from test_kernels import binomial_series, series_mul

F = Fraction
PAIRS = [
    (F("-1/2"), F("-1/2")),
    (F("-3/2"), F("-1/2")),
    (F(2), F(3)),
    (F(0), F(-1)),
    (F("1/3"), F(-2)),
]


def one(order):
    return (F(1),) + (F(0),) * order


def gf_rows(alpha, beta, nmax):
    """Rows 0..nmax of the triangle read off the column generating functions."""
    return column_rows(*family_columns(alpha, beta, nmax))


def test_binomial_series_values():
    assert binomial_series(0, 3) == one(3)
    assert binomial_series(1, 2) == (1, -1, 0)
    assert binomial_series(F(1, 2), 2) == (1, F(-1, 2), F(-1, 8))


@pytest.mark.parametrize("a", [F(1), F("-1/2"), F("7/3")])
def test_binomial_series_general_term(a):
    s = binomial_series(a, 6)
    for n in range(7):
        assert s[n] == rising(-a, n) / factorial(n)
        assert type(s[n]) is Fraction


def test_series_mul_identity_and_small_product():
    s = binomial_series(F("5/7"), 4)
    assert series_mul(s, one(4)) == s
    assert series_mul((1, -1), (1, 1)) == (1, 0)


@pytest.mark.parametrize("a", [F(1), F("-1/2"), F("2/3"), F(-3)])
def test_binomial_inverse_pair(a):
    prod = series_mul(binomial_series(a, 8), binomial_series(-a, 8))
    assert prod == one(8)


def test_series_mul_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        series_mul(one(3), one(4))


def test_exp_coefficient_matches_family_member():
    # 2! * [t^2] exp(x*((1-t)^-1 - 1)) is the degree-2 member at (0, -1)
    assert QPolynomial(gf_rows(0, -1, 4)[2]) == QPolynomial((0, 2, 1))


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_gf_first_members(alpha, beta):
    ps = [QPolynomial(row) for row in gf_rows(alpha, beta, 3)]
    assert ps[0] == QPolynomial.one()
    assert ps[1] == QPolynomial((-alpha, -beta))


def test_gf_collapses_at_0_1():
    ps = [QPolynomial(row) for row in gf_rows(0, 1, 5)]
    for n, p in enumerate(ps):
        assert p == QPolynomial((0,) * n + (F(-1) ** n,))


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_gf_degree_and_leading_coefficient(alpha, beta):
    for n, row in enumerate(gf_rows(alpha, beta, 8)):
        p = QPolynomial(row)
        assert p.degree == n
        assert p.lead == (-beta) ** n
        assert p(0) == rising(-alpha, n)


def test_gf_derivative_identity_m0():
    assert verify_gf_derivatives(F("2/3"), F(-2), (0,), 5) == (True,)


def test_gf_derivative_identity_examples():
    assert verify_gf_derivatives(F("-1/2"), F("-1/2"), (3,), 8) == (True,)
    assert verify_gf_derivatives(F(2), F(3), (2,), 6) == (True,)


def test_gf_derivative_detects_a_wrong_triangle_entry(monkeypatch):
    # S(3, 2) bumped by 1: the explicit sum holds 2! * d**3 * S(3, 2)
    right = stirling.explicit_rows

    def wrong(alpha, beta, nmax):
        d, rows = right(alpha, beta, nmax)
        if nmax >= 3:
            rows[3][2] += 2 * d**3
        return d, rows

    monkeypatch.setattr(stirling, "explicit_rows", wrong)
    assert verify_gf_derivatives(F("-1/2"), F("-1/2"), (3,), 10) == (False,)


def test_gf_derivative_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_gf_derivatives(1, 0, (1,), 4)
    with pytest.raises(ValueError):
        verify_gf_derivatives(1, 1, (5,), 4)
