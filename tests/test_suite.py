"""Failing paths of the suite batches: each must notice one wrong input."""

from fractions import Fraction

import pytest

from gstirling import family, rising, series, stirling, suite, zeros
from test_kernels import triangle_rows

F = Fraction


def test_rebase_roundtrip_detects_a_wrong_coefficient(monkeypatch):
    right = family.rebase

    def wrong(p_from, p_to, n):
        coeffs = right(p_from, p_to, n)
        if n == 2:
            coeffs[1] += 1
        return coeffs

    source, target = suite.REBASE_PAIRS[0]
    monkeypatch.setattr(family, "rebase", wrong)
    assert suite.rebase_roundtrip_ok(source, target, 1)
    assert not suite.rebase_roundtrip_ok(source, target, 3)


def test_inverse_pair_detects_a_wrong_inverse_entry(monkeypatch):
    # the inverse triangle of (1, -2) is read off the triangle at (1/2, -1/2);
    # its entry (3, 1) enters row 3 of the inverse and no earlier row
    right = stirling.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1), d = 2
        d, rows = right(alpha, beta, nmax)
        if (alpha, beta) != (F(1, 2), F(-1, 2)) or nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(stirling, "scaled_rows", wrong)
    assert suite.inverse_pair_ok(F(1), F(-2), 2)
    assert not suite.inverse_pair_ok(F(1), F(-2), 4)


def test_bell_basis_round_trip_detects_a_wrong_bell_basis_row(monkeypatch):
    # the round trip and the display read suite.rising_rows; the forward
    # identity reads neither it nor its entry (3, 1)
    right = suite.rising_rows

    def wrong(alpha, beta, nmax):
        d, rows = right(alpha, beta, nmax)
        if nmax >= 3:
            rows[3][1] += 1
        return d, rows

    monkeypatch.setattr(suite, "rising_rows", wrong)
    for alpha, beta in ((F(1, 3), F(-1, 2)), (F(0), F(2)), (F(-3, 2), F(1, 2))):
        assert suite.bell_basis_ok(alpha, beta, 2)
        assert not suite.bell_basis_ok(alpha, beta, 4)


def test_bell_basis_round_trip_detects_a_wrong_triangle_entry(monkeypatch):
    # the round trip alone reads T through stirling.scaled_rows: the forward
    # identity reads family.scaled_rows, and the display reads no T
    right = stirling.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1)
        d, rows = right(alpha, beta, nmax)
        if nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(stirling, "scaled_rows", wrong)
    for alpha, beta in ((F(1, 3), F(-1, 2)), (F(0), F(2)), (F(-3, 2), F(1, 2))):
        assert suite.bell_basis_ok(alpha, beta, 2)
        assert not suite.bell_basis_ok(alpha, beta, 4)


@pytest.mark.parametrize(
    "params, detail",
    [
        (family.U_PARAMS, "family=U n<=4"),
        (family.V_PARAMS, "family=V n<=4"),
        (family.laguerre_params(F(5, 2)), "family=laguerre lambda=5/2 n<=4"),
        (family.FamilyParams(F(0), F(-2)), "family=assoc-lah m=2 n<=4"),
    ],
)
def test_specializations_detect_a_wrong_bell_coefficient(monkeypatch, params, detail):
    # Bell-basis coefficient (3, 1) bumped by 1: the walk's row 3 holds d**3 times it
    right = suite.rising_rows

    def wrong(alpha, beta, nmax):
        d, rows = right(alpha, beta, nmax)
        if (alpha, beta) == (params.alpha, params.beta) and nmax >= 3:
            rows[3][1] += d**3
        return d, rows

    monkeypatch.setattr(suite, "rising_rows", wrong)
    failed = [detail for detail, ok in suite.specializations_ok(4) if not ok]
    assert failed == [detail]



def test_bell_displays_detect_a_wrong_first_kind_stirling_number(monkeypatch):
    # the displays read |s(n, k)| from the cached signed rows; the Bell-basis
    # coefficients they are compared with must not, or one wrong s(4, 2)
    # would sit on both sides and go unseen
    rows = stirling._stirling_rows(1, 8)
    bumped = rows[4][:2] + (rows[4][2] + 1,) + rows[4][3:]
    monkeypatch.setitem(stirling._TRIANGLES, ("stirling", 1), rows[:4] + (bumped,) + rows[5:])
    assert not suite.u_bell_display_ok(6)
    results = suite.specializations_ok(6)
    lines = [detail for detail, _ in results if detail.startswith("family=")]
    assert len(lines) == 8
    assert [detail for detail, ok in results if not ok] == lines
    assert not suite.bell_basis_ok(family.U_PARAMS.alpha, family.U_PARAMS.beta, 6)


def test_addition_detects_a_wrong_triangle_entry(monkeypatch):
    # the addition formula reads rows m and j <= n of the triangle; with
    # entry (3, 1) bumped, n + m = 3 splits into a sum of unbumped rows
    right = family.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1)
        d, rows = right(alpha, beta, nmax)
        if nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(family, "scaled_rows", wrong)
    for alpha, beta in ((F(1, 3), F(-1, 2)), (F(0), F(2)), (F(-3, 2), F(1, 2))):
        assert suite.addition_ok(alpha, beta, 2)
        assert not suite.addition_ok(alpha, beta, 3)


def test_recurrence_chain_detects_a_wrong_triangle_entry(monkeypatch):
    # the chain steps from the constant 1 and never reads the triangle, so
    # entry (3, 1) bumped leaves degrees up to 2 equal and degree 3 not
    right = stirling.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1)
        d, rows = right(alpha, beta, nmax)
        if nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(stirling, "scaled_rows", wrong)
    for alpha, beta in ((F(1, 3), F(-1, 2)), (F(0), F(2)), (F(-3, 2), F(1, 2))):
        assert suite.recurrence_chain_ok(alpha, beta, 2)
        assert not suite.recurrence_chain_ok(alpha, beta, 3)


def test_real_zeros_detects_a_member_with_complex_roots(monkeypatch):
    # row 2 of U replaced by d**2 * (1 + x**2), which has no real root
    alpha, beta = family.U_PARAMS.alpha, family.U_PARAMS.beta
    right = stirling.scaled_rows

    def wrong(a, b, nmax):
        d, rows = right(a, b, nmax)
        if (a, b) != (alpha, beta) or nmax < 2:
            return d, rows
        return d, rows[:2] + ((d**2, 0, d**2),) + rows[3:]

    monkeypatch.setattr(stirling, "scaled_rows", wrong)
    assert suite.real_zeros_ok(alpha, beta, 1) == (True, 1)
    assert suite.real_zeros_ok(alpha, beta, 4) == (False, 2)


def test_log_concave_detects_one_shrunk_integer_entry(monkeypatch):
    # T(6, 3) halved stays positive, so the Newton inequality at (6, 3) is
    # what must notice it, in every binding the check reads the rows through
    alpha, beta, n, k = F(-1, 2), F(-3, 2), 6, 3
    assert suite.log_concave_ok(alpha, beta, 8)
    right = stirling.scaled_rows

    def wrong(a, b, nmax):
        d, rows = right(a, b, nmax)
        if nmax < n:
            return d, rows
        shrunk = rows[n][:k] + (rows[n][k] // 2,) + rows[n][k + 1 :]
        return d, rows[:n] + (shrunk,) + rows[n + 1 :]

    monkeypatch.setattr(stirling, "scaled_rows", wrong)
    monkeypatch.setattr(zeros, "scaled_rows", wrong)
    assert suite.log_concave_ok(alpha, beta, n - 1)
    assert not suite.log_concave_ok(alpha, beta, 8)


@pytest.mark.parametrize("route", ["gstirling_explicit", "gstirling_egf"])
def test_triple_route_detects_a_wrong_entry_on_either_route(monkeypatch, route):
    # entry (4, 2) one off on one route: the explicit sum 2! * T(4, 2), or
    # entry 4 of column 2 of the series extraction, T(4, 2)
    right_explicit, right_columns = stirling.explicit_rows, series.columns

    def wrong_explicit(alpha, beta, nmax):
        d, rows = right_explicit(alpha, beta, nmax)
        if nmax >= 4:
            rows[4][2] += 1
        return d, rows

    def wrong_columns(head, base):
        cols = right_columns(head, base)
        if len(cols) > 4:
            cols[2][4] += 1
        return cols

    if route == "gstirling_explicit":
        monkeypatch.setattr(stirling, "explicit_rows", wrong_explicit)
    else:
        monkeypatch.setattr(series, "columns", wrong_columns)
    for alpha, beta in ((F(1, 3), F(-1, 2)), (F(0), F(-3)), (F(-3, 2), F(2))):
        assert suite.triple_route_ok(alpha, beta, 3)
        assert not suite.triple_route_ok(alpha, beta, 4)


def _rbell_sequences(alpha, beta, nmax):
    a = [rising(-beta, j) for j in range(1, nmax + 1)]
    b = [rising(-alpha, j) for j in range(nmax + 1)]
    return a, b


@pytest.mark.parametrize("which, index, delta", [("a", 2, 1), ("a", 0, F(1, 7)), ("b", 2, F(2, 5))])
def test_partial_r_bell_rows_detect_one_wrong_sequence_term(which, index, delta):
    # a_j enters row j on; b_j enters row j - 1 on
    alpha, beta, r, nmax = F(1, 3), F(-1, 2), 2, 6
    a, b = _rbell_sequences(alpha, beta, nmax)
    triangle = triangle_rows(r * alpha, beta, nmax)
    assert stirling.partial_r_bell_rows(r, nmax, a, b) == triangle
    seq = a if which == "a" else b
    seq[index] += delta
    first = index + 1 if which == "a" else index
    rows = stirling.partial_r_bell_rows(r, nmax, a, b)
    assert rows[:first] == triangle[:first]
    assert rows[first] != triangle[first]


def test_rbell_connection_detects_one_wrong_sequence_term(monkeypatch):
    # at (1/3, -1/2), d = 6 and beta*d = -3, so the u-form of the sequence
    # a_j = rising(1/2, j) is u_binomial(-3, 6, .), its entry j being 6**j * a_j
    right = stirling.u_binomial

    def wrong(p, scale, order):
        entries = right(p, scale, order)
        if (p, scale) == (-3, 6) and order >= 3:
            entries[3] += 1
        return entries

    monkeypatch.setattr(stirling, "u_binomial", wrong)
    # the term a_3 = rising(1/2, 3) is bumped from n = 3 on
    assert stirling.verify_rbell_connection(F(1, 3), F(-1, 2), 2, 2)
    assert not stirling.verify_rbell_connection(F(1, 3), F(-1, 2), 2, 3)
    assert not suite.rbell_ok(F(1, 3), F(-1, 2), 4)
