"""Failing paths of the suite batches: each must notice one wrong input."""

from fractions import Fraction

import pytest

from gstirling import family, stirling, suite

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
    right = stirling.triangle_rows

    def wrong(alpha, beta, nmax):
        rows = right(alpha, beta, nmax)
        if (alpha, beta) != (F(1, 2), F(-1, 2)) or nmax < 3:
            return rows
        bumped = rows[3][:1] + (rows[3][1] + 1,) + rows[3][2:]
        return rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(stirling, "triangle_rows", wrong)
    assert suite.inverse_pair_ok(F(1), F(-2), 2)
    assert not suite.inverse_pair_ok(F(1), F(-2), 4)


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
    failed = [result.detail for result in suite.specializations_ok(4) if not result.ok]
    assert failed == [detail]

