"""Failing paths of the suite batches: each must notice one wrong input."""

from fractions import Fraction

import pytest

from gstirling import family, stirling, suite, zeros

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
    # the round trip alone reads suite.rising_rows: the forward identity and
    # the display read neither it nor its entry (3, 1)
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
    right = family.to_bell_basis

    def wrong(p, n):
        coeffs = right(p, n)
        if p == params and n == 3:
            coeffs[1] += 1
        return coeffs

    monkeypatch.setattr(family, "to_bell_basis", wrong)
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
    right_explicit, right_egf = stirling.gstirling_explicit, stirling.gstirling_egf

    def wrong_explicit(alpha, beta, n, k):
        value = right_explicit(alpha, beta, n, k)
        return value + F(1, 7) if (n, k) == (4, 2) else value

    def wrong_egf(alpha, beta, nmax):
        rows = right_egf(alpha, beta, nmax)
        if nmax < 4:
            return rows
        bumped = rows[4][:2] + (rows[4][2] + F(1, 7),) + rows[4][3:]
        return rows[:4] + (bumped,) + rows[5:]

    wrong = wrong_explicit if route == "gstirling_explicit" else wrong_egf
    monkeypatch.setattr(stirling, route, wrong)
    for alpha, beta in ((F(1, 3), F(-1, 2)), (F(0), F(-3)), (F(-3, 2), F(2))):
        assert suite.triple_route_ok(alpha, beta, 3)
        assert not suite.triple_route_ok(alpha, beta, 4)


def _rbell_sequences(alpha, beta, nmax):
    a = [stirling.rising(-beta, j) for j in range(1, nmax + 1)]
    b = [stirling.rising(-alpha, j) for j in range(nmax + 1)]
    return a, b


@pytest.mark.parametrize("which, index, delta", [("a", 2, 1), ("a", 0, F(1, 7)), ("b", 2, F(2, 5))])
def test_partial_r_bell_rows_detect_one_wrong_sequence_term(which, index, delta):
    # a_j enters row j on; b_j enters row j - 1 on
    alpha, beta, r, nmax = F(1, 3), F(-1, 2), 2, 6
    a, b = _rbell_sequences(alpha, beta, nmax)
    triangle = stirling.triangle_rows(r * alpha, beta, nmax)
    assert stirling.partial_r_bell_rows(r, nmax, a, b) == triangle
    seq = a if which == "a" else b
    seq[index] += delta
    first = index + 1 if which == "a" else index
    rows = stirling.partial_r_bell_rows(r, nmax, a, b)
    assert rows[:first] == triangle[:first]
    assert rows[first] != triangle[first]


def test_rbell_connection_detects_one_wrong_sequence_term(monkeypatch):
    right = stirling.rising

    def wrong(a, n):
        value = right(a, n)
        return value + F(1, 5) if (a, n) == (F(1, 2), 3) else value

    monkeypatch.setattr(stirling, "rising", wrong)
    # at beta = -1/2 the term a_3 = rising(1/2, 3) is bumped from n = 3 on
    assert stirling.verify_rbell_connection(F(1, 3), F(-1, 2), 2, 2)
    assert not stirling.verify_rbell_connection(F(1, 3), F(-1, 2), 2, 3)
    assert not suite.rbell_ok(F(1, 3), F(-1, 2), 4)
