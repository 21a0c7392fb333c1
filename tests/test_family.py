from fractions import Fraction
from math import comb, factorial

import pytest

from gstirling import family
from gstirling.family import (
    FamilyParams,
    bell_rows,
    eval_dobinski,
    family_assoc_lah,
    family_laguerre,
    family_U,
    family_V,
    lah_rebase_report,
    poly,
    rebase,
    rising_expansion,
    scaled_addition,
    verify_bell_basis_forward,
)
from gstirling.qpoly import QPolynomial
from gstirling.rationals import rising
from gstirling.series import column_rows, family_columns
from gstirling.stirling import lah, partial_r_bell_rows, scaled_inverse_rows, stirling1
from test_kernels import derivative_recurrence_step, to_bell_basis

F = Fraction
PAIRS = [
    (F("-1/2"), F("-1/2")),
    (F("-3/2"), F("-1/2")),
    (F(2), F(-3)),
    (F(0), F(-1)),
    (F("1/3"), F("1/2")),
    (F(-2), F(2)),
]
PARAMS = [FamilyParams(a, b) for a, b in PAIRS]


def test_params_reject_zero_beta():
    with pytest.raises(ValueError):
        FamilyParams(1, 0)


@pytest.mark.parametrize("params", PARAMS)
def test_first_members(params):
    a, b = params.alpha, params.beta
    assert poly(params, 0) == QPolynomial.one()
    assert poly(params, 1) == QPolynomial((-a, -b))
    assert poly(params, 2) == QPolynomial((a * (a - 1), b * (2 * a + b - 1), b * b))


def test_monomial_collapse():
    params = FamilyParams(0, 1)
    assert poly(params, 3) == QPolynomial((0, 0, 0, -1))


@pytest.mark.parametrize("params", PARAMS)
def test_poly_matches_generating_function(params):
    for n, row in enumerate(column_rows(*family_columns(params.alpha, params.beta, 10))):
        assert poly(params, n) == QPolynomial(row)


# derivative_recurrence_step is the Fraction step that test_kernels.py keeps
# as the oracle of suite.recurrence_chain_ok


@pytest.mark.parametrize("params", PARAMS)
def test_recurrence_chain(params):
    current = QPolynomial.one()
    for n in range(12):
        current = derivative_recurrence_step(params, current, n)
        assert current == poly(params, n + 1)


def test_recurrence_step_base_case():
    params = FamilyParams(F("2/3"), F(-5))
    got = derivative_recurrence_step(params, QPolynomial.one(), 0)
    assert got == QPolynomial((F("-2/3"), F(5)))


# ---------------------------------------------------------------------------
# summed-series evaluation


def test_dobinski_at_zero_is_single_term():
    params = FamilyParams(F("1/3"), F(-2))
    for n in range(6):
        assert eval_dobinski(params, n, 0, F(1, 10**12)) == float(rising(F(-1, 3), n))


def test_dobinski_examples():
    u1 = eval_dobinski(FamilyParams(F(-1, 2), F(-1, 2)), 1, 1, 1e-12)
    assert abs(u1 - 1.0) <= 1e-10
    v = eval_dobinski(FamilyParams(0, -1), 2, 2, 1e-12)
    assert abs(v - 8.0) <= 1e-10


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("x", [F(0), F(1, 2), F(1), F(2), F(5)])
def test_dobinski_agrees_with_exact_evaluation(params, x):
    eps = 1e-10
    for n in range(7):
        approx = eval_dobinski(params, n, x, eps)
        exact = float(poly(params, n)(x))
        assert abs(approx - exact) <= eps + 1e-12 * max(1.0, abs(exact))


def test_dobinski_negative_x_supported():
    params = FamilyParams(F(1), F(1))
    for n in range(5):
        approx = eval_dobinski(params, n, F(-3, 2), 1e-11)
        exact = float(poly(params, n)(F(-3, 2)))
        assert abs(approx - exact) <= 1e-10


def test_dobinski_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        eval_dobinski(FamilyParams(1, 1), 2, 1, 0)
    with pytest.raises(ValueError):
        eval_dobinski(FamilyParams(1, 1), 2, 1, -1e-9)


# ---------------------------------------------------------------------------
# Bell polynomial basis


def bell_poly(n):
    """Bell_n as a polynomial, read off row n of ``bell_rows``."""
    return QPolynomial(bell_rows(n)[n])


def from_bell_basis(coeffs):
    """sum_j coeffs[j] * Bell_j, the polynomial with those Bell-basis coefficients."""
    rebuilt = QPolynomial()
    for j, c in enumerate(coeffs):
        rebuilt = rebuilt + c * bell_poly(j)
    return rebuilt


def test_bell_poly_values():
    assert bell_poly(0) == QPolynomial.one()
    assert bell_poly(3) == QPolynomial((0, 1, 3, 1))
    assert bell_poly(4)(1) == 15  # fourth Bell number


def test_bell_basis_base_cases():
    assert to_bell_basis(FamilyParams(F(1), F(2)), 0) == [1]
    b = F(-7, 3)
    assert to_bell_basis(FamilyParams(0, b), 1) == [0, -b]


@pytest.mark.parametrize("params", PARAMS)
def test_bell_basis_round_trip(params):
    for n in range(11):
        coeffs = to_bell_basis(params, n)
        assert from_bell_basis(coeffs) == poly(params, n)


@pytest.mark.parametrize("params", PARAMS)
def test_bell_basis_forward_identity(params):
    assert verify_bell_basis_forward(params, 10)


def test_u_coefficients_display():
    # corrected printed display: sum_{k=j..n} C(k, j) |s(n, k)| / 2**k
    for n in range(9):
        coeffs = to_bell_basis(FamilyParams(F(-1, 2), F(-1, 2)), n)
        for j in range(n + 1):
            expected = sum(
                comb(k, j) * abs(stirling1(n, k)) * F(1, 2**k)
                for k in range(j, n + 1)
            )
            assert coeffs[j] == expected


# ---------------------------------------------------------------------------
# basis transport


def monomial_to_family(params, n):
    """Expansion coefficients of x**n in the family basis: inverse-triangle row n."""
    d, rows = scaled_inverse_rows(params.alpha, params.beta, n)
    return [F(v, d**n) for v in rows[n]]


def test_monomial_expansion_base_cases():
    params = FamilyParams(F("2/3"), F(-2))
    assert monomial_to_family(params, 0) == [1]
    a, b = params.alpha, params.beta
    assert monomial_to_family(params, 1) == [-a / b, -1 / b]


def test_monomial_expansion_reconstructs_powers():
    params = FamilyParams(F(-3, 2), F(-1, 2))
    for n in range(11):
        coeffs = monomial_to_family(params, n)
        rebuilt = QPolynomial()
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + c * poly(params, k)
        assert rebuilt == QPolynomial((0,) * n + (1,))


def test_rebase_to_self_is_identity():
    params = FamilyParams(F("1/3"), F(-2))
    for n in range(7):
        coeffs = rebase(params, params, n)
        assert coeffs == [F(1) if j == n else F(0) for j in range(n + 1)]


def test_rebase_reconstructs():
    src = FamilyParams(F(-1, 2), F(-1, 2))
    dst = FamilyParams(0, -1)
    for n in range(7):
        coeffs = rebase(src, dst, n)
        rebuilt = QPolynomial()
        for j, c in enumerate(coeffs):
            rebuilt = rebuilt + c * poly(dst, j)
        assert rebuilt == poly(src, n)


def test_lah_rebase_signs():
    report = lah_rebase_report(FamilyParams(F("1/3"), F(-2)), 6)
    assert report.ok
    assert not report.constant_sign_ok  # the unsigned reading fails the oracle
    assert "(-1)**k" in report.confirmed_sign
    # the mirrored-target coefficients are Lah numbers up to that sign
    coeffs = rebase(FamilyParams(F("1/3"), F(-2)), FamilyParams(F("-1/3"), F(2)), 4)
    assert coeffs == [F(-1) ** k * lah(4, k) for k in range(5)]


def _bump_member(monkeypatch, target, degree):
    """Make member ``degree`` at ``target`` one more, as the family checks
    read it: entry (degree, 0) of ``family.scaled_rows`` plus d**degree."""
    right = family.scaled_rows

    def wrong(alpha, beta, nmax):
        d, rows = right(alpha, beta, nmax)
        if (alpha, beta) != (target.alpha, target.beta) or nmax < degree:
            return d, rows
        bumped = (rows[degree][0] + d**degree,) + rows[degree][1:]
        return d, rows[:degree] + (bumped,) + rows[degree + 1 :]

    monkeypatch.setattr(family, "scaled_rows", wrong)


def test_bell_basis_forward_detects_a_wrong_member(monkeypatch):
    params = FamilyParams(F("1/3"), F(-2))
    _bump_member(monkeypatch, params, 2)
    assert verify_bell_basis_forward(params, 1)
    assert not verify_bell_basis_forward(params, 4)


def test_lah_rebase_rejects_negative_nmax():
    with pytest.raises(ValueError, match="nmax must be >= 0, got -1"):
        lah_rebase_report(FamilyParams(1, 1), -1)


def test_lah_rebase_detects_a_wrong_mirrored_member(monkeypatch):
    # the coefficients still match the signed Lah numbers; only the
    # reconstruction from the mirrored members can notice
    params = FamilyParams(F("1/3"), F(-2))
    _bump_member(monkeypatch, FamilyParams(F("-1/3"), F(2)), 2)
    assert lah_rebase_report(params, 1).ok
    assert not lah_rebase_report(params, 4).ok


# ---------------------------------------------------------------------------
# addition formula


def addition(params, n, m):
    """The degree n+m member by the addition formula: ``scaled_addition`` over d**(n+m)."""
    d, out = scaled_addition(params, n, m)
    return QPolynomial(F(v, d ** (n + m)) for v in out)


@pytest.mark.parametrize("params", PARAMS)
def test_addition_degenerate_slices(params):
    for n in range(5):
        assert addition(params, n, 0) == poly(params, n)
        assert addition(params, 0, n) == poly(params, n)


def test_addition_example():
    params = FamilyParams(1, -2)
    assert addition(params, 4, 3) == poly(params, 7)


# ---------------------------------------------------------------------------
# named specializations


def test_u_and_v_small_members():
    assert family_U(0) == QPolynomial.one()
    assert family_U(1) == QPolynomial((F(1, 2), F(1, 2)))
    assert family_V(1) == QPolynomial((F(3, 2), F(1, 2)))


def test_u_v_match_their_generating_functions():
    for n, row in enumerate(column_rows(*family_columns(F(-1, 2), F(-1, 2), 8))):
        assert family_U(n) == QPolynomial(row)
    for n, row in enumerate(column_rows(*family_columns(F(-3, 2), F(-1, 2), 8))):
        assert family_V(n) == QPolynomial(row)


def test_laguerre_members():
    assert family_laguerre(0, 0) == QPolynomial.one()
    assert family_laguerre(0, 1) == QPolynomial((1, 1))
    assert family_laguerre(0, 2) == QPolynomial((1, 2, F(1, 2)))


def test_laguerre_is_scaled_family_member():
    lam = F(5, 2)
    for n in range(7):
        scaled = factorial(n) * family_laguerre(lam, n)
        assert scaled == poly(FamilyParams(-lam - 1, -1), n)


def test_assoc_lah_members():
    assert family_assoc_lah(1, 0) == QPolynomial.one()
    assert family_assoc_lah(1, 2) == QPolynomial((0, 2, 1))
    with pytest.raises(ValueError):
        family_assoc_lah(0, 2)


def test_assoc_lah_coefficients_are_partial_bell_values():
    m = 2
    rows = partial_r_bell_rows(0, 6, [rising(m, j) for j in range(1, 7)])
    for n in range(7):
        p = family_assoc_lah(m, n)
        for k in range(n + 1):
            assert p.coeff(k) == rows[n][k]


# ---------------------------------------------------------------------------
# rising-into-falling expansion


def test_rising_expansion_base_cases():
    params = FamilyParams(F("2/3"), F(-2))
    rep0 = rising_expansion(params, 0)
    assert rep0.equal and rep0.lhs == (QPolynomial.one(),)
    rep1 = rising_expansion(params, 1)
    assert rep1.equal
    assert rep1.lhs == (QPolynomial.one(), QPolynomial((-params.alpha, -params.beta)))
    assert rep1.rhs == rep1.lhs


def test_rising_expansion_example():
    rep = rising_expansion(FamilyParams(F(1, 2), F(-3)), 7)
    assert rep.equal


@pytest.mark.parametrize("params", PARAMS)
def test_rising_expansion_grid(params):
    rep = rising_expansion(params, 8)
    assert rep.equal and len(rep.lhs) == len(rep.rhs) == 9


def test_rising_expansion_detects_a_wrong_triangle_entry(monkeypatch):
    right = family.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1)
        d, rows = right(alpha, beta, nmax)
        if nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(family, "scaled_rows", wrong)
    params = FamilyParams(F(1, 2), F(-3))
    for nmax in range(7):
        rep = rising_expansion(params, nmax)
        assert rep.equal == (nmax < 3)
        assert [n for n in range(nmax + 1) if rep.lhs[n] != rep.rhs[n]] == (
            [3] if nmax >= 3 else []
        )
