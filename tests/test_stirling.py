import random
import tracemalloc
from collections import deque
from collections.abc import Iterator
from fractions import Fraction
from math import comb, factorial

import pytest

from gstirling import stirling
from gstirling.family import FamilyParams, poly
from gstirling.qpoly import QPolynomial
from gstirling.rationals import rising
from gstirling.series import column_rows, family_columns
from gstirling.stirling import (
    composition_report,
    gstirling_table,
    lah,
    partial_r_bell_rows,
    rlah,
    scaled_inverse_rows,
    stirling1,
    stirling2,
    triangle_row,
    verify_rbell_connection,
)
from gstirling.suite import GRID
from test_kernels import gstirling_explicit, stored_rows, triangle_rows

F = Fraction
PAIRS = [
    (F("-1/2"), F("-1/2")),
    (F("-3/2"), F("-1/2")),
    (F(1), F(1)),
    (F(0), F(-1)),
    (F("1/3"), F(-2)),
    (F(2), F("1/2")),
]


def _partitions_into_blocks(n, k):
    """Count set partitions of {1..n} into exactly k blocks by enumerating
    restricted growth strings (independent of any recurrence)."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0

    def grow(pos, used):
        nonlocal count
        if pos == n:
            count += used == k
            return
        for _ in range(used):  # put the next element into an existing block
            grow(pos + 1, used)
        grow(pos + 1, used + 1)  # or open a new block

    grow(1, 1)
    return count


def test_partition_oracle_sanity():
    # Bell numbers 1, 1, 2, 5, 15, 52 as row sums of the oracle
    bells = [sum(_partitions_into_blocks(n, k) for k in range(n + 1)) for n in range(6)]
    assert bells == [1, 1, 2, 5, 15, 52]


@pytest.mark.parametrize("n", range(8))
def test_stirling2_matches_partition_enumeration(n):
    for k in range(n + 1):
        assert stirling2(n, k) == _partitions_into_blocks(n, k)


def test_stirling2_known_value():
    assert stirling2(4, 2) == 7


def _falling_factorial(n):
    # falling(x, n) = sum_k s(n, k) x^k, an oracle independent of the recurrence
    p = QPolynomial.one()
    for i in range(n):
        p = p * QPolynomial((-i, 1))
    return p


@pytest.mark.parametrize("n", range(9))
def test_stirling1_matches_falling_factorial_expansion(n):
    p = _falling_factorial(n)
    for k in range(n + 1):
        assert stirling1(n, k) == p.coeff(k)


def test_stirling_rows_grow_in_any_request_order(monkeypatch):
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    for n in (10, 3, 7, 0):
        p = _falling_factorial(n)
        for k in range(n + 1):
            assert stirling1(n, k) == p.coeff(k)
            # inclusion-exclusion count of surjections onto k blocks
            surjections = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
            assert stirling2(n, k) == surjections // factorial(k)
    assert stirling2(10, 3) == 9330 and stirling1(10, 3) == -1172700
    assert sorted(stirling._TRIANGLES) == [("stirling", 1), ("stirling", 2)]


def test_stirling_known_values_and_validation():
    assert stirling1(3, 1) == 2
    assert stirling1(5, 5) == 1 and stirling2(5, 5) == 1
    for fn in (stirling1, stirling2):
        with pytest.raises(ValueError):
            fn(3, 4)
        with pytest.raises(ValueError):
            fn(-1, 0)


# ---------------------------------------------------------------------------
# the central triangle


# gstirling_explicit is the closed form, one entry at a time, that
# test_kernels.py keeps as the oracle of the triangle rows


def test_explicit_base_cases():
    assert gstirling_explicit(F("5/7"), F(-2), 0, 0) == 1
    assert gstirling_explicit(1, 1, 2, 1) == 2
    with pytest.raises(ValueError):
        gstirling_explicit(1, 1, 2, 3)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_diagonal_and_edges(alpha, beta):
    rows = tuple(gstirling_table(alpha, beta, 8))
    for n in range(9):
        assert rows[n][n] == (-beta) ** n
        assert rows[n][0] == rising(-alpha, n)
    assert rows[1] == (-alpha, -beta)


def test_table_row_two_at_one_one():
    # recurrence from row 1 = [-1, -1]; the diagonal entry is (-beta)^2 = 1
    assert tuple(gstirling_table(1, 1, 2))[2] == (0, 2, 1)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_three_route_agreement(alpha, beta):
    rows = tuple(gstirling_table(alpha, beta, 8))
    egf = column_rows(*family_columns(alpha, beta, 8))
    for n in range(9):
        for k in range(n + 1):
            assert rows[n][k] == egf[n][k]
            assert rows[n][k] == gstirling_explicit(alpha, beta, n, k)


@pytest.mark.parametrize(
    "alpha,beta", [(F(2, 7), F(-5, 3)), (F(-9, 4), F(3, 5)), (F(5), F(1, 6))]
)
def test_triangle_rows_grow_in_any_request_order(monkeypatch, alpha, beta):
    assert (alpha, beta) not in GRID
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    seen, stored = [], []
    for nmax in (9, 3, 12, 0):
        # the table walks past the stored rows and stores nothing;
        # scaled_rows grows them
        before = stored_rows()
        rows = triangle_rows(alpha, beta, nmax)
        assert stored_rows() == before
        assert len(rows) == nmax + 1
        for n, row in enumerate(rows):
            assert all(type(v) is Fraction for v in row)
            assert row == tuple(gstirling_explicit(alpha, beta, n, k) for k in range(n + 1))
        for earlier in seen:
            common = min(len(earlier), len(rows))
            assert rows[:common] == earlier[:common]
        seen.append(rows)
        d, scaled = stirling.scaled_rows(alpha, beta, nmax)
        assert tuple(tuple(F(v, d**n) for v in row) for n, row in enumerate(scaled)) == rows
        stored.append(stirling._TRIANGLES[(alpha, beta)].rows)
    # one entry for the pair, its integer rows grown to the largest nmax
    # asked for and rows stored earlier kept, not rebuilt
    assert list(stirling._TRIANGLES) == [(alpha, beta)]
    entry = stirling._TRIANGLES[(alpha, beta)]
    assert len(entry.rows) == 13
    for earlier in stored:
        assert all(entry.rows[n] is row for n, row in enumerate(earlier))


@pytest.mark.parametrize("stored", [None, 0, 5, 20])
def test_streaming_readers_leave_the_store_as_it_was(monkeypatch, stored):
    # triangle_row, gstirling_table and poly (so eval) walk on past the rows
    # stored for the pair: they add no key and lengthen no entry, and each
    # row they read is the row of scaled_rows over d**n
    alpha, beta, n = F(5, 4), F(-7, 3), 14
    assert (alpha, beta) not in GRID
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    stirling.scaled_rows(F(1, 2), F(-3), 4)
    if stored is not None:
        stirling.scaled_rows(alpha, beta, stored)
    before = stored_rows()
    row = triangle_row(alpha, beta, n)
    table = tuple(gstirling_table(alpha, beta, n))
    member = poly(FamilyParams(alpha, beta), n)
    assert stored_rows() == before
    d, scaled = stirling.scaled_rows(alpha, beta, n)
    expected = tuple(tuple(F(v, d**m) for v in r) for m, r in enumerate(scaled))
    assert table == expected
    assert row == member.coefficients == expected[n]


def _traced_peak(read):
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_readers_hold_one_row(monkeypatch):
    # grown in the store, rows 0..400 and 0..300 of these pairs peak at
    # about 27 and 12 MiB; the walk holds one integer row at a time
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    assert _traced_peak(lambda: triangle_row(F(1, 3), F(-7, 5), 400)) < 4 * 2**20
    assert _traced_peak(lambda: deque(gstirling_table(F(11, 6), F(-14, 9), 300), maxlen=0)) < 4 * 2**20
    assert stirling._TRIANGLES == {}


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_the_cache_stores_integer_rows_only_and_the_table_is_yielded(monkeypatch):
    # every reader of the triangle reduces rows to Fractions itself; the
    # cache keeps the integer rows alone, and the table is not held whole
    alpha, beta = F(7, 5), F(-4, 3)
    assert (alpha, beta) not in GRID
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    rows = triangle_rows(alpha, beta, 6)
    assert triangle_row(alpha, beta, 9) == tuple(gstirling_explicit(alpha, beta, 9, k) for k in range(10))
    assert poly(FamilyParams(alpha, beta), 4).coefficients == rows[4]
    table = gstirling_table(alpha, beta, 11)
    assert isinstance(table, Iterator)
    assert tuple(table)[:7] == rows
    assert scaled_inverse_rows(alpha, beta, 5)[1][5][2] != 0
    d, scaled = stirling.scaled_rows(alpha, beta, 12)
    assert d == 15 and len(scaled) == 13
    assert sorted(stirling._TRIANGLES) == sorted([(alpha, beta), (-alpha / beta, 1 / beta)])
    for entry in stirling._TRIANGLES.values():
        assert all(type(v) is int for field in vars(entry).values() for v in _leaves(field))


def test_table_bounds_checked():
    # the table holds rows 0..nmax and nothing past them; a negative nmax is refused
    rows = gstirling_table(1, 1, 3)
    assert [len(row) for row in rows] == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        gstirling_table(1, 1, -1)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        triangle_row(F(1), F(1), -1)


# ---------------------------------------------------------------------------
# inverse triangle


def _inverse(alpha, beta, nmax):
    """Rows 0..nmax of the inverse triangle: ``scaled_inverse_rows`` over d'**n."""
    d, rows = scaled_inverse_rows(alpha, beta, nmax)
    return [[F(v, d**n) for v in row] for n, row in enumerate(rows)]


def test_inverse_base_and_validation():
    assert _inverse(F("2/3"), F(-2), 0)[0][0] == 1
    with pytest.raises(ValueError):
        _inverse(1, 0, 2)


def test_inverse_of_diagonal_family():
    # at (0, 1) the triangle is diagonal with entries (-1)^n, which is its
    # own matrix inverse: the inverse triangle has the same diagonal
    inverse = _inverse(0, 1, 4)
    for n in range(5):
        for k in range(n + 1):
            expected = F(-1) ** n if k == n else 0
            assert inverse[n][k] == expected


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_inverse_matrix_identity(alpha, beta):
    nmax = 8
    rows = tuple(gstirling_table(alpha, beta, nmax))
    inverse = _inverse(alpha, beta, nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            acc = sum(inverse[n][j] * rows[j][k] for j in range(k, n + 1))
            assert acc == (1 if n == k else 0)


# ---------------------------------------------------------------------------
# Lah and r-Lah numbers


def test_lah_values_and_closed_form():
    assert lah(3, 2) == 6
    for n in range(9):
        assert lah(n, n) == 1
        for k in range(n + 1):
            expected = comb(n - 1, k - 1) * factorial(n) // factorial(k) if k else (n == 0)
            assert lah(n, k) == expected


def test_rlah_closed_form():
    for r in range(4):
        for n in range(r, r + 7):
            for k in range(r, n + 1):
                if k + r == 0:  # r = 0, k = 0: only the empty product survives
                    expected = 1 if n == 0 else 0
                else:
                    expected = F(factorial(n - r), factorial(k - r)) * comb(
                        n + r - 1, k + r - 1
                    )
                assert rlah(r, n, k) == expected


def test_rlah_matches_reciprocal_laguerre_table():
    # the (-2, -1) triangle lists the r = 1 numbers with both indices shifted
    rows = tuple(gstirling_table(-2, -1, 6))
    for n in range(7):
        for k in range(n + 1):
            assert rows[n][k] == rlah(1, n + 1, k + 1)


def test_rlah_closed_form_matches_the_column_extraction():
    # the r-Lah numbers are the partial r-Bell values at a_j = b_j = j!
    factorials = [factorial(j) for j in range(1, 14)]
    for r in range(5):
        rows = stirling.partial_r_bell_rows(r, 12, factorials, factorials)
        for n, row in enumerate(rows):
            assert list(row) == [rlah(r, n + r, k + r) for k in range(n + 1)]


def test_rlah_validation():
    with pytest.raises(ValueError):
        rlah(2, 3, 1)  # k < r
    with pytest.raises(ValueError):
        lah(2, 3)
    with pytest.raises(ValueError):
        rlah(-1, 2, 1)


# ---------------------------------------------------------------------------
# partial (r-)Bell polynomials


def test_partial_bell_diagonal_is_power():
    rng = random.Random(7)
    for n in range(1, 7):
        a = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        if a[0] == 0:
            a[0] = F(1)
        assert partial_r_bell_rows(0, n, a)[n][n] == a[0] ** n


def test_partial_r_bell_constant_term():
    b = [F(3, 2)] + [F(1)] * 4
    for r in range(4):
        assert partial_r_bell_rows(r, 0, [], b)[0][0] == F(3, 2) ** r


def test_partial_r_bell_matches_triangle_instance():
    a = [rising(F(1, 2), j) for j in range(1, 7)]
    b = [rising(F(1, 2), j) for j in range(7)]
    assert partial_r_bell_rows(1, 6, a, b) == tuple(gstirling_table(F(-1, 2), F(-1, 2), 6))


def _oracle_partial_bell(n, k, a):
    # B(n, k) = sum_i C(n-1, i-1) * a_i * B(n-i, k-1), B(0, 0) = 1
    if n == 0 or k == 0:
        return F(int(n == k))
    return sum(
        comb(n - 1, i - 1) * a[i - 1] * _oracle_partial_bell(n - i, k - 1, a)
        for i in range(1, n - k + 2)
    )


def _oracle_r_fold(r, m, b):
    # m-th entry of the r-fold binomial convolution of b_1, b_2, ...
    if r == 0:
        return F(int(m == 0))
    return sum(comb(m, i) * b[i] * _oracle_r_fold(r - 1, m - i, b) for i in range(m + 1))


def test_partial_r_bell_matches_recurrence_oracle():
    # (n+r, k+r) value = sum_m C(n, m) * B(m, k) * (r-fold b)[n - m]
    rng = random.Random(2024)
    for trial in range(4):
        a = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(8)]
        b = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(9)]
        for r in range(4):
            rows = partial_r_bell_rows(r, 8, a, b)
            for n in range(9):
                for k in range(n + 1):
                    expected = sum(
                        comb(n, m) * _oracle_partial_bell(m, k, a) * _oracle_r_fold(r, n - m, b)
                        for m in range(k, n + 1)
                    )
                    value = rows[n][k]
                    assert type(value) is F and value == expected, (trial, r, n, k)


def test_partial_r_bell_at_large_r():
    # B**r is built by products, not r nested calls
    assert partial_r_bell_rows(2000, 1, [1], [1, 1])[1] == (2000, 1)
    # and by squaring: b = 1, 1, 1 makes B = 1 + t + t**2/2, whose r-th power
    # has t**2 coefficient r**2 / 2
    for r in (2, 3, 5, 6, 7, 2000, 10**9):
        assert partial_r_bell_rows(r, 2, [1, 1], [1, 1, 1])[2][0] == r**2


def test_partial_r_bell_rows_index_like_the_entries():
    # row n does not depend on how many rows past it are asked for
    a = [F(j, 3) - 1 for j in range(1, 7)]
    b = [F(2, j + 1) for j in range(7)]
    rows = partial_r_bell_rows(2, 6, a, b)
    assert [len(row) for row in rows] == list(range(1, 8))
    for n in range(7):
        assert rows[n] == partial_r_bell_rows(2, n, a, b)[n]


def test_partial_bell_rejects_short_sequences():
    with pytest.raises(ValueError):
        partial_r_bell_rows(0, 4, [1, 2, 3])
    with pytest.raises(ValueError):
        partial_r_bell_rows(2, 3, [1, 2, 3], [1, 2, 3])


@pytest.mark.parametrize(
    "alpha,beta,r,nmax",
    [
        (F(2), F(-1), 0, 6),
        (F("-1/2"), F("-1/2"), 1, 8),
        (F("1/3"), F(-2), 3, 6),
    ],
)
def test_rbell_connection(alpha, beta, r, nmax):
    assert verify_rbell_connection(alpha, beta, r, nmax)


def test_rbell_connection_rejects_zero_beta():
    with pytest.raises(ValueError):
        verify_rbell_connection(1, 0, 1, 4)


def test_rbell_connection_rejects_negative_nmax():
    with pytest.raises(ValueError, match="nmax must be >= 0, got -1"):
        verify_rbell_connection(1, 1, 0, -1)


# ---------------------------------------------------------------------------
# composition of triangles


def test_composition_trivial_case():
    report = composition_report(F("2/3"), F(-2), F("2/3"), F(-2), 6)
    assert report.ok


@pytest.mark.parametrize(
    "case",
    [
        (F(1), F(-1), F(0), F(-2)),
        (F("-1/2"), F("-1/2"), F(0), F(-1)),
        (F(2), F(3), F(1), F(1)),
    ],
)
def test_composition_cases(case):
    assert composition_report(*case, 6).ok


def test_composition_sign_resolution():
    # a nondegenerate case separates the two readings of the sign exponent
    report = composition_report(F(1), F(-1), F(0), F(-2), 6)
    assert report.ok
    assert not report.outer_sign_ok
    assert report.confirmed_sign == "summation-index"
    assert report.failures == ()


def test_composition_rising_half_detects_a_wrong_composed_entry(monkeypatch):
    # (1, -1) through (0, -2) composes at (1, 1/2); entry (3, 1) there
    # feeds the rising identity at n = 3 and no other
    right = stirling.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1), d = 2
        d, rows = right(alpha, beta, nmax)
        if (alpha, beta) != (F(1), F(1, 2)) or nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(stirling, "scaled_rows", wrong)
    report = composition_report(F(1), F(-1), F(0), F(-2), 4)
    assert not report.ok
    assert (3, -1) in report.failures
    assert (2, -1) not in report.failures and (4, -1) not in report.failures


def test_composition_triangle_half_detects_a_wrong_target_entry(monkeypatch):
    # entry (2, 1) of the (0, -2) triangle enters column 1 of every row n >= 2
    # of the triangle identity; the rising identity does not read that triangle
    right = stirling.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (2, 1) of S bumped by 1: its integer row holds d**2 * S(2, 1), d = 1
        d, rows = right(alpha, beta, nmax)
        if (alpha, beta) != (F(0), F(-2)) or nmax < 2:
            return d, rows
        bumped = rows[2][:1] + (rows[2][1] + d**2,) + rows[2][2:]
        return d, rows[:2] + (bumped,) + rows[3:]

    monkeypatch.setattr(stirling, "scaled_rows", wrong)
    report = composition_report(F(1), F(-1), F(0), F(-2), 4)
    assert not report.ok
    assert set(report.failures) == {(2, 1), (3, 1), (4, 1)}


def test_composition_rejects_zero_beta2():
    with pytest.raises(ValueError):
        composition_report(1, 1, 1, 0, 4)
