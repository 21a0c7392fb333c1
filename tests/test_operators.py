from fractions import Fraction

import pytest

from gstirling import operators, stirling
from gstirling.operators import (
    ExpMonomialSum,
    verify_bell_operator,
    verify_rodrigues_first,
    verify_rodrigues_second,
)
from gstirling.stirling import stirling2

F = Fraction


def test_zero_exponential_exponent_rejected():
    with pytest.raises(ValueError):
        ExpMonomialSum(0, ((1, 1),))


def test_terms_normalize():
    e = ExpMonomialSum(1, ((F(1, 2), 1), (F(1, 2), -1), (0, 2)))
    assert e.terms() == {F(0): F(2)}
    assert e.coeff(F(1, 2)) == 0
    assert not e.is_zero
    assert ExpMonomialSum(1).is_zero


def test_derivative_of_empty_sum():
    empty = ExpMonomialSum(2)
    assert empty.derivative() == empty


def test_derivative_of_plain_exponential():
    e = ExpMonomialSum.monomial(1, 0)  # exp(x)
    assert e.derivative() == e


def test_derivative_term_rule():
    # d/dx x^(1/2) exp(x^(-1/2))
    #   = (1/2) x^(-1/2) exp(x^(-1/2)) - (1/2) x^(-1) exp(x^(-1/2))
    e = ExpMonomialSum.monomial(F(-1, 2), F(1, 2))
    expected = ExpMonomialSum(
        F(-1, 2), ((F(-1, 2), F(1, 2)), (F(-1), F(-1, 2)))
    )
    assert e.derivative() == expected


def test_euler_shift_base_cases():
    beta = F(3)
    e = ExpMonomialSum.monomial(beta, 0)
    assert e.euler_shift(0) == ExpMonomialSum.monomial(beta, beta, beta)
    gamma = F(5, 7)
    e = ExpMonomialSum.monomial(beta, gamma)
    assert e.euler_shift(0) == ExpMonomialSum(
        beta, ((gamma, gamma), (gamma + beta, beta))
    )


def test_euler_shift_iterated_fixture():
    # (x d/dx - 1/2)^2 on x * exp(x^2), worked by hand:
    # first pass: (1/2) x + 2 x^3; second: (1/4) x + 6 x^3 + 4 x^5
    e = ExpMonomialSum.monomial(2, 1)
    once = e.euler_shift(F(-1, 2))
    assert once == ExpMonomialSum(2, ((1, F(1, 2)), (3, 2)))
    twice = once.euler_shift(F(-1, 2))
    assert twice == ExpMonomialSum(2, ((1, F(1, 4)), (3, 6), (5, 4)))


def test_derivative_closure_term_count():
    for beta in (F(2), F(-1, 2), F(5, 3)):
        e = ExpMonomialSum.monomial(beta, F(1, 3))
        for n in range(1, 9):
            e = e.derivative()
            assert len(e.terms()) <= n + 1


@pytest.mark.parametrize("gamma,beta", [(F(0), F(1)), (F(1, 2), F(2)), (F(-1), F(-1, 2))])
@pytest.mark.parametrize("d", range(6))
def test_euler_operator_expansion_identity(gamma, beta, d):
    # sum_k S2(d, k) x^k (d/dx)^k equals (x d/dx)^d as operators
    seed = ExpMonomialSum.monomial(beta, gamma)
    rhs = seed
    for _ in range(d):
        rhs = rhs.euler_shift(0)
    lhs = ExpMonomialSum(beta)
    for k in range(d + 1):
        e = seed
        for _ in range(k):
            e = e.derivative()
        lhs = lhs + e.xshift(k).scale(stirling2(d, k))
    assert lhs == rhs


def test_sum_rejects_mixed_exponents():
    with pytest.raises(ValueError):
        ExpMonomialSum.monomial(1, 0) + ExpMonomialSum.monomial(2, 0)


# ---------------------------------------------------------------------------
# derivative representations of the family


def test_rodrigues_first_base_case():
    assert verify_rodrigues_first(F("2/3"), F(-2), 0) == (True,)


@pytest.mark.parametrize("alpha,beta", [(F(-1, 2), F(-1, 2)), (F(2), F(3))])
@pytest.mark.parametrize("n", range(7))
def test_rodrigues_first_examples(alpha, beta, n):
    assert verify_rodrigues_first(alpha, beta, n) == (True,) * (n + 1)


def test_rodrigues_second_base_case():
    assert verify_rodrigues_second(F("2/3"), F(-2), 0) == (True,)


@pytest.mark.parametrize("alpha,beta", [(F(-3, 2), F(-1, 2)), (F(0), F(-1))])
@pytest.mark.parametrize("n", range(7))
def test_rodrigues_second_examples(alpha, beta, n):
    assert verify_rodrigues_second(alpha, beta, n) == (True,) * (n + 1)


def test_rodrigues_detects_a_wrong_triangle_entry(monkeypatch):
    right = operators.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1)
        d, rows = right(alpha, beta, nmax)
        if nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(operators, "scaled_rows", wrong)
    alpha, beta = F(-1, 2), F(-1, 2)
    # each route fails degree 3 alone: no degree's walk reads the triangle
    for nmax in range(7):
        expected = tuple(n != 3 for n in range(nmax + 1))
        assert verify_rodrigues_first(alpha, beta, nmax) == expected
        assert verify_rodrigues_second(alpha, beta, nmax) == expected


def test_rodrigues_rejects_zero_beta():
    with pytest.raises(ValueError):
        verify_rodrigues_first(1, 0, 1)
    with pytest.raises(ValueError):
        verify_rodrigues_second(1, 0, 1)


# ---------------------------------------------------------------------------
# Euler-operator form of (shifted) Bell polynomials


def test_bell_operator_base_case():
    assert verify_bell_operator(F(1), F(2), F(1, 2), 0)


@pytest.mark.parametrize("n", range(6))
def test_bell_operator_pure_euler_power(n):
    # lam = alpha/beta removes the additive constant from the operator
    assert verify_bell_operator(F(1), F(2), F(1, 2), n)


@pytest.mark.parametrize("n", range(7))
def test_bell_operator_classical_instance(n):
    # alpha = 0, lam = 0, beta = 1: Bell_n(x) = exp(-x) (x d/dx)^n exp(x)
    assert verify_bell_operator(0, 1, 0, n)


@pytest.mark.parametrize("lam", [F(0), F(1), F(-2, 3)])
@pytest.mark.parametrize("n", range(5))
def test_bell_operator_with_zero_alpha(lam, n):
    assert verify_bell_operator(0, F(-3), lam, n)


@pytest.mark.parametrize("alpha,beta", [(F(-1, 2), F(-1, 2)), (F(2), F(-3)), (F(1, 3), F(1, 2))])
def test_bell_operator_general_parameters(alpha, beta):
    for lam in (F(0), F(1), alpha / beta):
        for n in range(5):
            assert verify_bell_operator(alpha, beta, lam, n)


def test_bell_operator_detects_a_wrong_stirling_number(monkeypatch):
    # S2(3, 2) enters the left side at n = 3 and at no smaller n
    right = stirling._stirling_rows

    def wrong(kind, nmax):
        rows = right(kind, nmax)
        if kind != 2 or nmax < 3:
            return rows
        bumped = rows[3][:2] + (rows[3][2] + 1,) + rows[3][3:]
        return rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(stirling, "_stirling_rows", wrong)
    for nmax in range(7):
        assert verify_bell_operator(F(1), F(2), F(1, 2), nmax) == (nmax < 3)


def test_bell_operator_rejects_zero_beta():
    with pytest.raises(ValueError):
        verify_bell_operator(1, 0, 0, 2)
