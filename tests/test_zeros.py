import math
import random
from fractions import Fraction

import pytest

from gstirling.family import FamilyParams, family_U, poly
from gstirling.qpoly import QPolynomial
from gstirling.zeros import (
    REGION_MAIN,
    REGION_NONE,
    REGION_SECONDARY,
    _count_distinct,
    _row_chain,
    all_roots_real,
    check_newton_logconcave,
    classify_region,
    isolate_roots,
    real_rooted_row,
    region_report,
    square_free_part,
    sturm_chain,
)
from test_kernels import poly_divmod

F = Fraction


def _from_roots(roots, extra=()):
    p = QPolynomial.one()
    for r in roots:
        p = p * QPolynomial((-F(r), 1))
    for quad in extra:
        p = p * QPolynomial(quad)
    return p


def test_count_examples():
    assert _count_distinct(sturm_chain(QPolynomial((1, 0, 1)))) == 0  # x^2 + 1
    assert _count_distinct(sturm_chain(QPolynomial((-1, 0, 1)))) == 2  # x^2 - 1
    assert _count_distinct(sturm_chain(QPolynomial((0, 2, 1)))) == 2  # x^2 + 2x
    assert _count_distinct(sturm_chain(QPolynomial((-1, 1, 0, 0, 1)))) == 2  # x^4 + x - 1
    assert _count_distinct(sturm_chain(QPolynomial((1, 1, 0, 0, 1)))) == 0  # x^4 + x + 1


def test_count_is_of_distinct_roots():
    p = _from_roots([1, 1, 1, -2])
    assert _count_distinct(sturm_chain(p)) == 2


def test_sturm_chain_shape():
    for p in (
        QPolynomial((-2, 0, 1)),
        family_U(6),
        -3 * _from_roots([1, 1, F(-1, 3)], [(2, 1, 1)]),  # repeated root
        # x^4 + x - 1: the third member, 4 - 3x, has a negative lead and
        # follows a degree gap of 2, so pseudo-division multiplies by
        # (-3)**3 < 0 there
        QPolynomial((-1, 1, 0, 0, 1)),
    ):
        _check_chain(p)


def _check_chain(p):
    ints = sturm_chain(p)
    chain = [QPolynomial(c) for c in ints]
    for c in ints:
        assert math.gcd(*c) == 1  # coprime integer coefficients
    # p and p' up to a positive rational factor
    for member, poly_ in zip(chain, (p, p.derivative())):
        assert member * (poly_.lead / member.lead) == poly_
        assert poly_.lead / member.lead > 0
    # the last member divides p and p'; the remainder steps below make it
    # their greatest common divisor
    for poly_ in (p, p.derivative()):
        assert poly_divmod(poly_, chain[-1])[1].is_zero
    # each later member is the negated remainder of its two predecessors,
    # up to a positive rational factor
    for i in range(2, len(chain)):
        _, rem = poly_divmod(chain[i - 2], chain[i - 1])
        ratio = chain[i].lead / (-rem).lead
        assert ratio > 0
        assert chain[i] * (1 / ratio) == -rem
    assert poly_divmod(chain[-2], chain[-1])[1].is_zero


def test_all_roots_real_examples():
    assert all_roots_real(_from_roots([1, 1, -2]))  # (x-1)^2 (x+2)
    assert not all_roots_real(QPolynomial((1, 0, 1)))
    assert not all_roots_real(_from_roots([3], [(1, 0, 1), (1, 0, 1)]))  # (x^2+1)^2 (x-3)
    assert not all_roots_real(_from_roots([0, 0, 0], [(2, 0, 1)]))  # x^3 (x^2+2)
    assert all_roots_real(_from_roots([1, 1, 1, -2, -2]))  # (x-1)^3 (x+2)^2
    with pytest.raises(ValueError):
        all_roots_real(QPolynomial.one())


def test_real_rooted_row_matches_all_roots_real():
    # integer coefficients of any positive multiple give the same chain,
    # member for member, and the same verdict
    polys = [
        _from_roots([1, 1, -2]),
        QPolynomial((1, 0, 1)),
        _from_roots([3], [(1, 0, 1), (1, 0, 1)]),
        _from_roots([0, 0, 0], [(2, 0, 1)]),
        _from_roots([1, 1, 1, -2, -2]),
        _from_roots([F(1, 2), -3], [(1, 1, 1)]),
        _from_roots([F(-2, 3), F(5, 7), 4]),
    ]
    for p in polys:
        den = math.lcm(*(c.denominator for c in p.coefficients))
        for scale in (den, 6 * den):
            row = tuple(int(c * scale) for c in p.coefficients)
            assert _row_chain(row) == sturm_chain(p)
            assert real_rooted_row(row) == all_roots_real(p)


@pytest.mark.parametrize("n", [1, 5, 12, 20])
def test_u_family_real_rooted(n):
    assert all_roots_real(family_U(n))


def test_isolate_roots_brackets_sqrt2():
    intervals = isolate_roots(QPolynomial((-2, 0, 1)))
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert hi - lo <= F(1, 64)
    neg, pos = intervals
    assert neg[0] ** 2 >= 2 >= neg[1] ** 2  # contains -sqrt(2)
    assert pos[0] ** 2 <= 2 <= pos[1] ** 2  # contains +sqrt(2)


def test_isolate_roots_degree_one():
    params = FamilyParams(F("2/3"), F(-2))
    (interval,) = isolate_roots(poly(params, 1))
    root = -params.alpha / params.beta
    assert interval[0] <= root <= interval[1]


def test_isolate_roots_third_member_of_u_family():
    intervals = isolate_roots(square_free_part(family_U(3)))
    assert len(intervals) == 3
    for lo, hi in intervals:
        assert hi <= 0  # all coefficients positive, so no positive roots
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi < lo  # pairwise disjoint


def test_isolate_roots_exact_rational_root():
    p = QPolynomial((0, 2, 1))  # roots 0 and -2
    intervals = isolate_roots(p)
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert hi - lo <= F(1, 64)
    assert any(lo <= 0 <= hi for lo, hi in intervals)
    assert any(lo <= -2 <= hi for lo, hi in intervals)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # root 0 is met at a split midpoint, root 1 at a refinement midpoint
        ((0, -1, 1), [(0, 0), (1, 1)]),
        ((3, -4, 1), [(F(255, 256), F(515, 512)), (F(1535, 512), F(385, 128))]),
    ],
)
def test_isolate_roots_exact_intervals(coeffs, expected):
    assert isolate_roots(QPolynomial(coeffs)) == expected


def test_isolate_roots_rejects_repeated_roots():
    with pytest.raises(ValueError):
        isolate_roots(_from_roots([1, 1]))


def test_isolate_roots_rejects_bad_width():
    with pytest.raises(ValueError):
        isolate_roots(QPolynomial((-2, 0, 1)), 0)


def test_isolation_fuzz_against_factored_ground_truth():
    rng = random.Random(20240817)
    for _ in range(60):
        n_real = rng.randint(0, 4)
        roots = sorted(rng.sample(range(-8, 9), n_real))
        # irreducible quadratics keep the real-root count at n_real
        n_quad = rng.randint(0, (8 - n_real) // 2 - 1) if n_real < 7 else 0
        quads = [(rng.randint(1, 9), rng.randint(-3, 3), 1) for _ in range(n_quad)]
        quads = [q for q in quads if q[1] * q[1] - 4 * q[0] < 0]
        p = _from_roots(roots, quads)
        if p.degree < 1:
            continue
        chain = sturm_chain(p)
        assert _count_distinct(chain) == len(roots)
        if len(chain[-1]) == 1:  # gcd(p, p') is a constant
            intervals = isolate_roots(p, F(1, 32))
            assert len(intervals) == len(roots)
            for r, (lo, hi) in zip(roots, intervals):
                assert lo <= r <= hi
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                assert hi < lo


def test_interlacing_of_derivative_roots():
    # between consecutive roots of a real-rooted member lies a root of its
    # derivative: an isolating interval of p' inside each gap between p's
    # intervals, whose endpoints are not roots of p
    for params in (FamilyParams(-1, -1), FamilyParams(F(-1, 2), F(-1, 2))):
        for n in range(3, 9):
            p = poly(params, n)
            intervals = isolate_roots(square_free_part(p), F(1, 128))
            assert all(lo < hi for lo, hi in intervals)
            dp_intervals = isolate_roots(square_free_part(p.derivative()), F(1, 128))
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                assert any(hi <= a and b <= lo for a, b in dp_intervals)


def test_region_classification():
    assert classify_region(-1, -1) == REGION_MAIN
    assert classify_region(1, -1) == REGION_MAIN  # boundary: discriminant 0
    assert classify_region(F(5, 2), 1) == REGION_SECONDARY
    assert classify_region(0, 3) == REGION_NONE
    assert classify_region(3, -1) == REGION_NONE  # alpha > 2
    assert classify_region(F(2), F(-3)) == REGION_NONE  # discriminant < 0


def test_region_report_secondary_region():
    report = region_report(FamilyParams(F(5, 2), 1), 5)
    assert report.region == REGION_SECONDARY
    asserted = [row.n for row in report.results if row.asserted]
    assert asserted == [1, 2, 3]  # up to ceil(5/2)
    assert all(row.all_real for row in report.results if row.asserted)
    assert report.ok


def test_region_report_main_region_with_roots():
    report = region_report(FamilyParams(-1, -1), 6)
    assert report.region == REGION_MAIN
    assert report.ok
    for row in report.results:
        assert row.asserted
        assert row.all_real
        assert len(row.roots) >= 1
        for lo, hi in row.roots:
            assert hi - lo <= F(1, 64)
    payload = report.to_json_dict()
    assert payload["region"] == "A"
    assert payload["results"][0]["n"] == 1
    assert isinstance(payload["results"][0]["roots"][0][0], str)


@pytest.mark.parametrize("params", [FamilyParams(0, 3), FamilyParams(F(3, 2), F(-3, 4))])
def test_region_report_rows_match_the_public_checks(params):
    # (0, 3) has a repeated root at 0, (3/2, -3/4) has non-real members
    width = F(1, 64)
    for row in region_report(params, 7, width).results:
        p = poly(params, row.n)
        assert row.all_real == all_roots_real(p)
        assert row.roots == tuple(isolate_roots(square_free_part(p), width))


def test_region_report_boundary_pair():
    # discriminant exactly zero still belongs to the main region
    report = region_report(FamilyParams(1, -1), 8)
    assert report.region == REGION_MAIN
    assert report.ok


def test_newton_logconcave_examples():
    assert check_newton_logconcave(FamilyParams(0, -1), 2)
    for n in range(2, 13):
        assert check_newton_logconcave(FamilyParams(-1, -1), n)
        assert check_newton_logconcave(FamilyParams(F(-1, 2), F(-3, 2)), n)


def test_newton_logconcave_rejects_outside_hypothesis():
    with pytest.raises(ValueError):
        check_newton_logconcave(FamilyParams(1, -1), 4)
    with pytest.raises(ValueError):
        check_newton_logconcave(FamilyParams(-1, 1), 4)
    with pytest.raises(ValueError):
        check_newton_logconcave(FamilyParams(-1, -1), 1)
