"""Property tests of the integer kernels on random rational parameters.

The triangle is cached in one form, the integer rows T(m, k) = d**m * S(m, k)
of ``stirling.scaled_rows``, d the common denominator of (alpha, beta);
``stirling.triangle_rows`` reduces them over d**m.  ``family.eval_dobinski``
sums its series as one integer numerator over d**n * q**k * k!.  Each is
checked against an independent route: the triangle against the closed form
``gstirling_explicit``, the series against ``_dobinski_fractions``, the same
sum written term by term over ``Fraction``.

The explicit sum, ``family.addition``, the column extraction behind
``stirling.gstirling_egf`` and ``stirling.partial_r_bell_rows``, the
gf-derivative check, the linear-factor products of
``qpoly.linear_products`` and the Bell-basis coefficients of
``family.to_bell_basis`` (one such product) run on integers too.  Each is compared with a
``Fraction`` transcription of the loop it replaced, kept below as an
oracle, together with ``binomial_series`` and ``series_mul``, the
``Fraction`` series helpers those loops used (test_series.py tests them).
The second Rodrigues route walks one Euler step per degree; the n-fold
derivative it replaced is kept below as its oracle.  Both Rodrigues routes
and the Bell operator walk integer coefficient lists on their exponent
lattice, and the general Bell display is one integer triangle product; the
``ExpMonomialSum`` walks and the ``Fraction`` display sum they replaced are
kept below as oracles, compared per degree on correct and on bumped cached
triangles.  The ``Fraction`` step, which scales each row back to integers
with ``scaled_row``, is the oracle for the integer rows, and the
``Fraction`` form of the Newton inequality is the oracle for
``zeros.check_newton_logconcave``, which reads the integer rows.
The connection identities (the Bell-basis forward identity and round trip,
the inverse pair, the Bell-operator left side, rebase, Lah rebase,
composition and the right side of the rising expansion) are integer
products of coefficient triangles through ``qpoly.triangle_product``.
``_combine_fractions``, a transcription of the ``QPolynomial`` sum they
replaced, and the ``Fraction`` bodies of those checks are kept below as
oracles: on correct triangles and on triangles with one entry bumped in
the cache, both routes must give the same verdicts.
Each property runs on a seeded ``random.Random`` draw and, when hypothesis
is installed, on its draws too.
"""

import dataclasses
import math
import random
from fractions import Fraction
from math import comb, factorial, perm

import pytest

from gstirling import family, operators, qpoly, series, stirling, suite, zeros
from gstirling.family import FamilyParams, addition, eval_dobinski, poly, to_bell_basis
from gstirling.operators import ExpMonomialSum
from gstirling.qpoly import QPolynomial, linear_products, rising_polys, rising_rows, triangle_product
from gstirling.rationals import common_scale, falling, rising, scaled_row
from gstirling.stirling import explicit_rows, gstirling_explicit, scaled_rows, triangle_rows

F = Fraction


def _dobinski_fractions(alpha, beta, n, x, epsilon):
    """exp(-x) * sum_k rising(-alpha - beta*k, n) * x**k / k!, summed over
    ``Fraction`` term by term and stopped by the same exact tail test."""
    eps, x = Fraction(epsilon), Fraction(x)
    if x == 0:
        return float(rising(-alpha, n))
    budget = eps if x > 0 else eps * Fraction(1, 4) ** (-math.floor(x))
    start = max(2 * n, math.ceil(4 * abs(x)), 1)
    bound_base = abs(alpha) + n
    total = Fraction(0)
    power = Fraction(1)
    kfact = 1
    k = 0
    while True:
        total += rising(-alpha - beta * k, n) * power / kfact
        if k >= start:
            majorant = (bound_base + abs(beta) * k) ** n * abs(power) / kfact
            if majorant < budget:
                break
        k += 1
        power *= x
        kfact *= k
    return math.exp(-float(x)) * float(total)


def _outcome(func, *args):
    """The repr of the float, or the exception's name and message."""
    try:
        return repr(func(*args))
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_triangle_growth(alpha, beta, sizes):
    expected = [
        tuple(gstirling_explicit(alpha, beta, n, k) for k in range(n + 1))
        for n in range(max(sizes) + 1)
    ]
    for nmax in sizes:
        rows = triangle_rows(alpha, beta, nmax)
        assert rows == tuple(expected[: nmax + 1])
        assert all(type(v) is Fraction for row in rows for v in row)


def _check_dobinski(alpha, beta, n, x, epsilon):
    expected = _outcome(_dobinski_fractions, alpha, beta, n, x, epsilon)
    assert _outcome(eval_dobinski, FamilyParams(alpha, beta), n, x, epsilon) == expected


def _rational(rng, lo, hi, max_den):
    den = rng.randint(1, max_den)
    return F(rng.randint(lo * den, hi * den), den)


def _sizes(rng):
    """Up to four triangle sizes in random order, the largest 25."""
    sizes = rng.sample(range(25), rng.randint(0, 3)) + [25]
    rng.shuffle(sizes)
    return sizes


def _fraction_step_rows(alpha, beta, nmax):
    """Rows 0..nmax of S by the ``Fraction`` step: each row is stored as
    ``Fraction``s and scaled back to integers at the next step."""
    d, a, b = common_scale(alpha, beta)
    rows = [(Fraction(1),)]
    for m in range(nmax):
        scale = d**m
        padded = (0, *scaled_row(rows[m], scale), 0)
        scale *= d
        rows.append(tuple(
            Fraction((m * d - a - b * j) * padded[j + 1] - b * padded[j], scale)
            for j in range(m + 2)
        ))
    return rows


def _check_scaled_rows(alpha, beta, sizes):
    """The integer rows against the ``Fraction`` step, for rows grown in the
    order of sizes."""
    expected = _fraction_step_rows(alpha, beta, max(sizes))
    for nmax in sizes:
        d, rows = scaled_rows(alpha, beta, nmax)
        assert d == common_scale(alpha, beta)[0]
        assert len(rows) == nmax + 1
        for m, row in enumerate(rows):
            assert all(type(v) is int for v in row)
            assert tuple(Fraction(v, d**m) for v in row) == expected[m]


# d = lcm(11, 12) = 132 is the largest common denominator of the draws;
# the integer pairs have d = 1, and a non-negative integer alpha makes
# S(n, 0) = rising(-alpha, n) vanish for n > alpha
TRIANGLE_RNG = random.Random(20261019)
TRIANGLE_DRAWS = [(F(-5, 11), F(7, 12), [7, 25, 3, 16])] + [
    (_rational(TRIANGLE_RNG, -3, 3, 12), _rational(TRIANGLE_RNG, -3, 3, 12), _sizes(TRIANGLE_RNG))
    for _ in range(6)
] + [(F(3), F(2), [25, 4]), (F(0), F(-1), [9, 25]), (F(2), F(-1, 3), [25])]


@pytest.mark.parametrize("alpha, beta, sizes", TRIANGLE_DRAWS)
def test_triangle_rows_match_the_closed_form(monkeypatch, alpha, beta, sizes):
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    _check_triangle_growth(alpha, beta, sizes)


@pytest.mark.parametrize("alpha, beta, sizes", TRIANGLE_DRAWS)
def test_scaled_rows_match_the_fraction_step(monkeypatch, alpha, beta, sizes):
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    _check_scaled_rows(alpha, beta, sizes)


def test_triangle_draws_hold_zero_negative_and_integer_entries():
    entries = [
        v for alpha, beta, _ in TRIANGLE_DRAWS for row in triangle_rows(alpha, beta, 25) for v in row
    ]
    assert 0 in entries and min(entries) < 0
    assert any(common_scale(alpha, beta)[0] == 1 for alpha, beta, _ in TRIANGLE_DRAWS)


@pytest.mark.parametrize("poly_first", [True, False])
def test_poly_and_triangle_rows_agree_in_either_order(monkeypatch, poly_first):
    for alpha, beta, sizes in TRIANGLE_DRAWS:
        if beta == 0:
            continue
        monkeypatch.setattr(stirling, "_TRIANGLES", {})
        for n in sizes:
            if poly_first:
                member = poly(FamilyParams(alpha, beta), n)
                row = triangle_rows(alpha, beta, n)[n]
            else:
                row = triangle_rows(alpha, beta, n)[n]
                member = poly(FamilyParams(alpha, beta), n)
            assert member.coefficients == row


def test_triangle_rows_grown_past_the_integer_rows_match_the_fraction_step(monkeypatch):
    # rows 0..9 are grown first; triangle_rows(20) grows the integer rows on
    # to 20 and reduces every row from them
    for alpha, beta, _ in TRIANGLE_DRAWS:
        monkeypatch.setattr(stirling, "_TRIANGLES", {})
        scaled_rows(alpha, beta, 9)
        assert list(triangle_rows(alpha, beta, 20)) == _fraction_step_rows(alpha, beta, 20)
        assert len(stirling._TRIANGLES[(alpha, beta)].rows) == 21


def _newton_fractions(row):
    """The Newton inequality of ``zeros.check_newton_logconcave`` on one
    ``Fraction`` row, as written before it moved to the integer rows."""
    n = len(row) - 1
    return all(
        row[k] ** 2 >= (1 + F(1, k)) * (1 + F(1, n - k)) * row[k + 1] * row[k - 1]
        for k in range(1, n)
    )


# alpha <= 0 and beta < 0, where log-concavity is claimed
LOGCONCAVE_RNG = random.Random(20261021)
LOGCONCAVE_PAIRS = [(F(0), F(-1)), (F(-1, 2), F(-1, 2)), (F(-11, 6), F(-14, 9))] + [
    (_rational(LOGCONCAVE_RNG, -3, 0, 12), -_rational(LOGCONCAVE_RNG, 0, 3, 12) or F(-1, 7))
    for _ in range(5)
]


@pytest.mark.parametrize("alpha, beta", LOGCONCAVE_PAIRS)
def test_newton_inequality_on_integer_rows_matches_the_fraction_inequality(monkeypatch, alpha, beta):
    # each row as stored, then with one interior entry shrunk: the integer
    # check and the Fraction oracle must give the same verdict on both
    params = FamilyParams(alpha, beta)
    d, rows = scaled_rows(alpha, beta, 25)
    rng = random.Random(str((alpha, beta)))
    shrunk_verdicts = []
    for n in range(2, 26):
        assert zeros.check_newton_logconcave(params, n) == _newton_fractions(triangle_rows(alpha, beta, n)[n])
        k = rng.randint(1, n - 1)
        shrunk = rows[n][:k] + (rows[n][k] * rng.randint(1, 9) // 10,) + rows[n][k + 1 :]
        with monkeypatch.context() as patch:
            patch.setattr(zeros, "scaled_rows", lambda a, b, nmax: (d, rows[:n] + (shrunk,)))
            verdict = zeros.check_newton_logconcave(params, n)
        assert verdict == _newton_fractions(tuple(F(v, d**n) for v in shrunk))
        shrunk_verdicts.append(verdict)
    assert not all(shrunk_verdicts)


DOBINSKI_RNG = random.Random(17)
DOBINSKI_DRAWS = [
    (
        _rational(DOBINSKI_RNG, -3, 3, 12),
        _rational(DOBINSKI_RNG, -3, 3, 12) or F(1, 12),
        DOBINSKI_RNG.randint(0, 60),
        x,
        DOBINSKI_RNG.choice((1e-12, 1e-6, 1e-3)),
    )
    for x in [F(0), F(-3), F(-1, 4), F(-5, 3), F(4), F(1, 2)]
    + [_rational(DOBINSKI_RNG, -3, 4, 4) for _ in range(10)]
]


@pytest.mark.parametrize("alpha, beta, n, x, epsilon", DOBINSKI_DRAWS)
def test_dobinski_matches_the_fraction_sum(alpha, beta, n, x, epsilon):
    _check_dobinski(alpha, beta, n, x, epsilon)


def test_kernels_on_hypothesis_draws(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def rationals(lo, hi, max_den):
        return st.integers(1, max_den).flatmap(
            lambda den: st.builds(F, st.integers(lo * den, hi * den), st.just(den))
        )

    pairs = rationals(-3, 3, 12)
    # sizes up to 25 in the order drawn; shrinking moves toward small,
    # cheap triangles
    sizes = st.lists(st.integers(0, 25), min_size=1, max_size=4)

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(pairs, pairs, sizes)
    def triangle(alpha, beta, sizes):
        monkeypatch.setattr(stirling, "_TRIANGLES", {})
        _check_triangle_growth(alpha, beta, sizes)
        monkeypatch.setattr(stirling, "_TRIANGLES", {})
        _check_scaled_rows(alpha, beta, sizes)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        pairs,
        pairs.filter(bool),
        st.integers(0, 60),
        rationals(-3, 4, 4),
        st.sampled_from((1e-12, 1e-6, 1e-3)),
    )
    def dobinski(alpha, beta, n, x, epsilon):
        _check_dobinski(alpha, beta, n, x, epsilon)

    triangle()
    dobinski()


# ---------------------------------------------------------------------------
# Fraction oracles: the loops the integer kernels replaced


def binomial_series(a, order):
    """(1 - t)**a truncated; the t**n coefficient is rising(-a, n)/n!."""
    a = Fraction(a)
    coeffs = []
    c = Fraction(1)
    for n in range(order + 1):
        coeffs.append(c)
        c = c * (n - a) / (n + 1)
    return tuple(coeffs)


def series_mul(s1, s2):
    """Truncated Cauchy product; the operands must share one order."""
    if len(s1) != len(s2):
        raise ValueError(f"mismatched series orders: {len(s1) - 1} vs {len(s2) - 1}")
    out = [Fraction(0)] * len(s1)
    for i, a in enumerate(s1):
        if a:
            for j, b in enumerate(s2[: len(s1) - i]):
                if b:
                    out[i + j] += a * b
    return tuple(out)


def _explicit_fractions(alpha, beta, n, k):
    total = Fraction(0)
    for j in range(k + 1):
        term = comb(k, j) * rising(-alpha - beta * j, n)
        total += term if (k - j) % 2 == 0 else -term
    return total / factorial(k)


def _addition_fractions(alpha, beta, n, m):
    rows = triangle_rows(alpha, beta, max(n, m))
    out = [Fraction(0)] * (n + m + 1)
    for j in range(n + 1):
        for k in range(m + 1):
            scalar = comb(n, j) * rising(m - beta * k, n - j) * rows[m][k]
            for i, c in enumerate(rows[j]):
                out[i + k] += scalar * c
    return QPolynomial(out)


def _egf_columns(head, base):
    columns = [head]
    for k in range(1, len(head)):
        columns.append(tuple(c / k for c in series_mul(columns[-1], base)))
    return columns


def _egf_rows(columns):
    return tuple(
        tuple(factorial(n) * column[n] for column in columns[: n + 1])
        for n in range(len(columns))
    )


def _family_columns_fractions(alpha, beta, order):
    base = (Fraction(0),) + binomial_series(beta, order)[1:]
    return _egf_columns(binomial_series(alpha, order), base)


def _derivative_holds_fractions(alpha, beta, m, order, explicit):
    columns = _family_columns_fractions(alpha, beta, order)
    length = order - m + 1
    lower = binomial_series(-m, order - m)
    weights = []
    for k in range(m + 1):
        s = explicit(alpha, beta, m, k)
        weights.append(
            tuple(s * c for c in series_mul(lower, binomial_series(beta * k, order - m)))
        )
    for j, column in enumerate(columns):
        lhs = [perm(i + m, m) * column[i + m] for i in range(length)]
        rhs = [Fraction(0)] * length
        for k in range(min(m, j) + 1):
            for i, c in enumerate(series_mul(weights[k], columns[j - k][:length])):
                rhs[i] += c
        if lhs != rhs:
            return False
    return True


def _rodrigues_second_fractions(alpha, beta, n):
    """Degree n of the second Rodrigues route taken afresh: the n-fold
    derivative E_n of x**(n-1-alpha) * exp(x**(-beta)), and whether
    x**(alpha+1) * E_n matches row n of the triangle at x**(-beta)."""
    e = ExpMonomialSum.monomial(-beta, n - 1 - alpha)
    for _ in range(n):
        e = e.derivative()
    row = triangle_rows(alpha, beta, n)[n]
    rhs = ExpMonomialSum(-beta, ((-beta * k, c) for k, c in enumerate(row)))
    return e, e.xshift(alpha + 1) == rhs


def _linear_products_fractions(factors):
    """1 followed by the running products of the factors c0 + c1*x, each
    one more ``QPolynomial`` product over ``Fraction``."""
    out = [QPolynomial.one()]
    for factor in factors:
        out.append(out[-1] * QPolynomial(factor))
    return out


def _bell_basis_fractions(alpha, beta, n):
    """The printed general Bell display, summed over ``Fraction``:
    coefficient j is beta**j * sum_{k=j..n} (-1)**k * |s(n, k)| * C(k, j)
    * alpha**(k-j)."""
    out = []
    for j in range(n + 1):
        inner = Fraction(0)
        for k in range(j, n + 1):
            term = abs(stirling.stirling1(n, k)) * comb(k, j) * alpha ** (k - j)
            inner += term if k % 2 == 0 else -term
        out.append(beta**j * inner)
    return out


def _partial_r_bell_fractions(r, nmax, a, b):
    base = (Fraction(0),) + tuple(Fraction(a[j]) / factorial(j + 1) for j in range(nmax))
    head = (Fraction(1),) + (Fraction(0),) * nmax
    for _ in range(r):
        head = series_mul(head, tuple(Fraction(b[j]) / factorial(j) for j in range(nmax + 1)))
    return _egf_rows(_egf_columns(head, base))


# ---------------------------------------------------------------------------
# the comparisons, shared by the seeded and the hypothesis draws


def _check_explicit(alpha, beta, n):
    for k in range(n + 1):
        value = gstirling_explicit(alpha, beta, n, k)
        assert value == _explicit_fractions(alpha, beta, n, k)
        assert type(value) is Fraction


def _check_addition(alpha, beta, n, m):
    params = FamilyParams(alpha, beta)
    assert addition(params, n, m) == _addition_fractions(alpha, beta, n, m)


def _check_gf_rows(alpha, beta, nmax):
    rows = stirling.gstirling_egf(alpha, beta, nmax)
    assert rows == _egf_rows(_family_columns_fractions(alpha, beta, nmax))
    assert all(type(v) is Fraction for row in rows for v in row)


def _check_gf_derivative(monkeypatch, alpha, beta, m, order, bump):
    """Both checks see the same explicit entries, entry (n, n // 2) off by
    ``bump`` (zero keeps them right); their verdicts must agree.  The integer
    sum k! * d**n * S(n, k) moves by bump * k! * d**n where that is an
    integer and by 1 where it is not, a weight d**n * S(n, k) off the integers
    for k >= 2."""
    def bumped_rows(a, b, nmax):
        d, rows = explicit_rows(a, b, nmax)
        for n, row in enumerate(rows):
            shift = bump * factorial(n // 2) * d**n
            row[n // 2] += shift.numerator if shift.denominator == 1 else 1
        return d, rows

    def explicit(a, b, n, k):
        d, rows = bumped_rows(a, b, n)
        return F(rows[n][k], factorial(k) * d**n)

    monkeypatch.setattr(stirling, "explicit_rows", bumped_rows)
    (verdict,) = series.verify_gf_derivatives(alpha, beta, (m,), order)
    assert verdict == _derivative_holds_fractions(alpha, beta, m, order, explicit)
    assert verdict == (bump == 0)


def _check_rising(alpha, beta, nmax):
    """The integer rows of rising(-alpha - beta*x, n) and of falling(x, n),
    and the Bell-basis coefficients read off the first, against the
    ``Fraction`` walk and the printed display."""
    expected = _linear_products_fractions((-alpha + i, -beta) for i in range(nmax))
    d, rows = rising_rows(alpha, beta, nmax)
    assert d == common_scale(alpha, beta)[0]
    for n, row in enumerate(rows):
        assert all(type(v) is int for v in row)
        assert QPolynomial(Fraction(v, d**n) for v in row) == expected[n]
    assert rising_polys(alpha, beta, nmax) == expected
    falling = linear_products((-j, 1) for j in range(nmax))
    assert [QPolynomial(row) for row in falling] == _linear_products_fractions(
        (-j, 1) for j in range(nmax)
    )
    for n in range(nmax + 1):
        coeffs = to_bell_basis(FamilyParams(alpha, beta), n)
        assert coeffs == _bell_basis_fractions(alpha, beta, n)
        assert all(type(v) is Fraction for v in coeffs)


def _check_partial_r_bell(r, nmax, a, b):
    rows = stirling.partial_r_bell_rows(r, nmax, a, b)
    assert rows == _partial_r_bell_fractions(r, nmax, a, b)
    assert all(type(v) is Fraction for row in rows for v in row)


def _pair(rng):
    """alpha and beta != 0 with denominators up to 12 that differ."""
    den_a = rng.randint(1, 12)
    den_b = rng.choice([d for d in range(1, 13) if d != den_a])
    alpha = F(rng.randint(-3 * den_a, 3 * den_a), den_a)
    beta = F(rng.choice([p for p in range(-3 * den_b, 3 * den_b + 1) if p]), den_b)
    return alpha, beta


ORACLE_RNG = random.Random(20261020)
ORACLE_PAIRS = [(F(0), F(7, 12)), (F(-5, 11), F(7, 12)), (F(0), F(-3, 2))] + [
    _pair(ORACLE_RNG) for _ in range(6)
]


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
def test_explicit_sum_matches_the_fraction_sum(alpha, beta):
    for n in (0, 1, 5, 12, 20):
        _check_explicit(alpha, beta, n)


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
def test_addition_matches_the_fraction_sum(alpha, beta):
    rng = random.Random(str((alpha, beta)))
    splits = [(0, 0), (20, 0), (0, 20)] + [
        (n, rng.randint(0, 20 - n)) for n in rng.sample(range(21), 6)
    ]
    for n, m in splits:
        _check_addition(alpha, beta, n, m)


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
def test_gf_rows_match_the_fraction_columns(alpha, beta):
    _check_gf_rows(alpha, beta, 20)
    _check_gf_rows(alpha, beta, 0)


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
@pytest.mark.parametrize("bump", [F(0), F(1), F(1, 7)])
def test_gf_derivative_matches_the_fraction_check(monkeypatch, alpha, beta, bump):
    rng = random.Random(str((alpha, beta, bump)))
    order = rng.randint(2, 20)
    _check_gf_derivative(monkeypatch, alpha, beta, rng.randint(1, min(order, 6)), order, bump)


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
def test_rising_rows_and_bell_basis_match_the_fraction_walk(alpha, beta):
    _check_rising(alpha, beta, 12)
    _check_rising(alpha, beta, 0)


def test_rodrigues_second_walk_matches_the_derivative_route():
    for alpha, beta in suite.GRID:
        verdicts = operators.verify_rodrigues_second(alpha, beta, 7)
        walked = ExpMonomialSum.monomial(-beta, -1 - alpha)
        for n in range(8):
            if n:
                walked = walked.euler_shift(n)  # the Leibniz step of the walk
            derived, ok = _rodrigues_second_fractions(alpha, beta, n)
            assert walked == derived
            assert verdicts[n] == ok


def _sequence(rng, length):
    return [_rational(rng, -3, 3, 12) for _ in range(length)]


PARTIAL_RNG = random.Random(3)
PARTIAL_DRAWS = [(0, 20), (3, 20), (1, 0), (2, 1)] + [
    (PARTIAL_RNG.randint(0, 3), PARTIAL_RNG.randint(0, 20)) for _ in range(6)
]


@pytest.mark.parametrize("r, nmax", PARTIAL_DRAWS)
def test_partial_r_bell_rows_match_the_fraction_columns(r, nmax):
    rng = random.Random(r * 100 + nmax)
    _check_partial_r_bell(r, nmax, _sequence(rng, nmax), _sequence(rng, nmax + 1))


def test_replaced_kernels_on_hypothesis_draws(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def rationals(lo, hi, max_den):
        return st.integers(1, max_den).flatmap(
            lambda den: st.builds(F, st.integers(lo * den, hi * den), st.just(den))
        )

    alphas, betas = rationals(-3, 3, 12), rationals(-3, 3, 12).filter(bool)
    settings = hypothesis.settings(max_examples=25, deadline=None)

    @settings
    @hypothesis.given(alphas, betas, st.integers(0, 20))
    def explicit_and_gf_rows(alpha, beta, n):
        _check_explicit(alpha, beta, n)
        _check_gf_rows(alpha, beta, n)

    @settings
    @hypothesis.given(alphas, betas, st.integers(0, 20), st.integers(0, 20))
    def additions(alpha, beta, n, m):
        hypothesis.assume(n + m <= 20)
        _check_addition(alpha, beta, n, m)

    @settings
    @hypothesis.given(
        alphas, betas, st.integers(0, 6), st.integers(0, 14), st.sampled_from((F(0), F(1), F(1, 7)))
    )
    def derivatives(alpha, beta, m, extra, bump):
        _check_gf_derivative(monkeypatch, alpha, beta, m, m + extra, bump)

    @settings
    @hypothesis.given(alphas, betas, st.integers(0, 12))
    def risings(alpha, beta, nmax):
        _check_rising(alpha, beta, nmax)

    @settings
    @hypothesis.given(st.integers(0, 3), st.integers(0, 20).flatmap(
        lambda nmax: st.tuples(
            st.just(nmax),
            st.lists(rationals(-3, 3, 12), min_size=nmax, max_size=nmax),
            st.lists(rationals(-3, 3, 12), min_size=nmax + 1, max_size=nmax + 1),
        )
    ))
    def partial_r_bells(r, drawn):
        _check_partial_r_bell(r, *drawn)

    explicit_and_gf_rows()
    additions()
    derivatives()
    risings()
    partial_r_bells()


# ---------------------------------------------------------------------------
# Fraction oracles of the operator walks: each verifier as it walked
# ``ExpMonomialSum``s before the integer exponent lattice


def _expansion_crosscheck_fractions(e, alpha, n, kmax):
    """The coefficient of x**(alpha + beta*k - n) in e, k <= kmax, against
    falling(alpha + beta*k, n) / k!, the termwise derivative of the
    expanded exponential."""
    b = e.beta_exp
    for k in range(kmax + 1):
        acc = Fraction(0)
        for j in range(min(k, n) + 1):
            acc += e.coeff(alpha - n + j * b) / factorial(k - j)
        if acc != falling(alpha + b * k, n) / factorial(k):
            return False
    return True


def _rodrigues_first_fractions(alpha, beta, nmax):
    """Per-degree verdicts of the first Rodrigues route, one ``derivative``
    per degree."""
    e = ExpMonomialSum.monomial(beta, alpha)
    verdicts = []
    for n, row in enumerate(triangle_rows(alpha, beta, nmax)):
        if n:
            e = e.derivative()
        lhs = e.xshift(n - alpha).scale(Fraction(-1) ** n)
        rhs = ExpMonomialSum(beta, ((beta * k, c) for k, c in enumerate(row)))
        verdicts.append(_expansion_crosscheck_fractions(e, alpha, n, n + 2) and lhs == rhs)
    return tuple(verdicts)


def _rodrigues_second_walk_fractions(alpha, beta, nmax):
    """Per-degree verdicts of the second Rodrigues route, one ``euler_shift``
    per degree."""
    e = ExpMonomialSum.monomial(-beta, -1 - alpha)
    verdicts = []
    for n, row in enumerate(triangle_rows(alpha, beta, nmax)):
        if n:
            e = e.euler_shift(n)
        rhs = ExpMonomialSum(-beta, ((-beta * k, c) for k, c in enumerate(row)))
        verdicts.append(e.xshift(alpha + 1) == rhs)
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# Fraction oracles of the connection identities: each check as it summed
# ``QPolynomial``s through ``combine`` before ``qpoly.triangle_product``


def _combine_fractions(coeffs, polys):
    """sum_j coeffs[j] * polys[j], summed in one ``Fraction`` coefficient list;
    ``polys`` may be longer than ``coeffs``."""
    if len(polys) < len(coeffs):
        raise ValueError(f"{len(coeffs)} coefficients for {len(polys)} polynomials")
    out = []
    for c, p in zip(coeffs, polys):
        if c:
            out.extend([Fraction(0)] * (len(p.coefficients) - len(out)))
            for i, v in enumerate(p.coefficients):
                out[i] += c * v
    return QPolynomial(out)


def _bell_polys_fractions(nmax):
    return [QPolynomial(stirling.stirling2(n, k) for k in range(n + 1)) for n in range(nmax + 1)]


def _bell_forward_fractions(params, nmax):
    a, b = params.alpha, params.beta
    members = [poly(params, k) for k in range(nmax + 1)]
    bells = _bell_polys_fractions(nmax)
    for n in range(nmax + 1):
        lhs = _combine_fractions([(-1) ** k * stirling.stirling2(n, k) for k in range(n + 1)], members)
        rhs = _combine_fractions([comb(n, k) * a ** (n - k) * b**k for k in range(n + 1)], bells)
        if lhs != rhs:
            return False
    return True


def _bell_basis_fractions_ok(alpha, beta, nmax):
    """``suite.bell_basis_ok`` with the forward identity, the round trip and
    the general display summed over ``Fraction``."""
    params = FamilyParams(alpha, beta)
    if not _bell_forward_fractions(params, nmax):
        return False
    bells = _bell_polys_fractions(nmax)
    for n in range(nmax + 1):
        if _combine_fractions(to_bell_basis(params, n), bells) != poly(params, n):
            return False
    return all(to_bell_basis(params, n) == _bell_basis_fractions(alpha, beta, n) for n in range(nmax + 1))


def _inverse_pair_fractions(alpha, beta, nmax):
    params = FamilyParams(alpha, beta)
    members = [poly(params, j) for j in range(nmax + 1)]
    for n in range(nmax + 1):
        inverse = stirling.triangle_row(-alpha / beta, 1 / beta, n)
        row = [(-1) ** (n - k) * inverse[k] for k in range(n + 1)]
        if _combine_fractions(row, members) != QPolynomial.monomial(n):
            return False
    return True


def _bell_operator_fractions(alpha, beta, lam, nmax):
    bells = _bell_polys_fractions(nmax)
    e = ExpMonomialSum.monomial(beta, alpha)
    for n in range(nmax + 1):
        if n:
            e = e.euler_shift(lam * beta - alpha).scale(1 / beta)
        shifted = _combine_fractions([comb(n, j) * lam ** (n - j) for j in range(n + 1)], bells)
        lhs = ExpMonomialSum(beta, ((beta * i, c) for i, c in enumerate(shifted.coefficients)))
        if lhs != e.xshift(-alpha):
            return False
    return True


def _rebase_roundtrip_fractions(source, target, nmax):
    p_from, p_to = FamilyParams(*source), FamilyParams(*target)
    members = [poly(p_to, j) for j in range(nmax + 1)]
    return all(
        _combine_fractions(family.rebase(p_from, p_to, n), members) == poly(p_from, n)
        for n in range(nmax + 1)
    )


def _lah_rebase_fractions(params, nmax):
    mirrored = FamilyParams(-params.alpha, -params.beta)
    members = [poly(mirrored, k) for k in range(nmax + 1)]
    alternating_ok = constant_ok = True
    for n in range(nmax + 1):
        coeffs = family.rebase(params, mirrored, n)
        unsigned = [stirling.lah(n, k) for k in range(n + 1)]
        if coeffs != [c if k % 2 == 0 else -c for k, c in enumerate(unsigned)]:
            alternating_ok = False
        target = poly(params, n)
        if _combine_fractions(coeffs, members) != target:
            alternating_ok = False
        if _combine_fractions(unsigned, members) != target:
            constant_ok = False
    return family.LahRebaseReport(ok=alternating_ok, constant_sign_ok=constant_ok)


def _composition_fractions(alpha, beta, alpha2, beta2, nmax):
    composed = triangle_rows(alpha - (alpha2 / beta2) * beta, beta / beta2, nmax)
    left = triangle_rows(alpha, beta, nmax)
    rights = [QPolynomial(row) for row in triangle_rows(alpha2, beta2, nmax)]
    lhs_rising = rising_polys(alpha, beta, nmax)
    rising_targets = rising_polys(alpha2, beta2, nmax)
    outer_ok = True
    failures = []
    for n in range(nmax + 1):
        plain = composed[n]
        signed = [c if j % 2 == 0 else -c for j, c in enumerate(plain)]
        index_sum = _combine_fractions(signed, rights)
        outer_sum = _combine_fractions(plain, rights)
        failures += [(n, k) for k in range(n + 1) if index_sum.coeff(k) != left[n][k]]
        outer_ok &= all((-1) ** k * outer_sum.coeff(k) == left[n][k] for k in range(n + 1))
        if _combine_fractions(signed, rising_targets) != lhs_rising[n]:
            failures.append((n, -1))
        outer_ok &= (-1) ** n * _combine_fractions(plain, rising_targets) == lhs_rising[n]
    return stirling.CompositionReport(
        ok=not failures, outer_sign_ok=outer_ok, failures=tuple(failures)
    )


def _rising_expansion_fractions(params, nmax):
    """Both sides of the rising expansion, the right one sum_j S(n, j) *
    falling(x, j) summed over ``Fraction``."""
    alpha, beta = params.alpha, params.beta
    falling = _linear_products_fractions((-j, 1) for j in range(nmax))
    rhs = tuple(_combine_fractions(row, falling) for row in triangle_rows(alpha, beta, nmax))
    return family.RisingExpansion(tuple(rising_polys(alpha, beta, nmax)), rhs)


# ---------------------------------------------------------------------------
# the kernel against the combine oracle, and both routes of each check


def _random_rows(rng, count, make):
    """``count`` rows, row n of length n + 1 or a random length up to n + 3,
    entries from ``make`` and about a third of them zero."""
    return [
        [make() if rng.random() < 0.7 else 0 for _ in range(rng.choice((n + 1, rng.randint(0, n + 3))))]
        for n in range(count)
    ]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("fractions", [False, True])
def test_triangle_product_matches_combine(seed, fractions):
    rng = random.Random(seed)
    if fractions:
        make = lambda: _rational(rng, -5, 5, 9)
    else:
        make = lambda: rng.randint(-10**6, 10**6)
    rows = rng.randint(0, 9)
    left = [row[: n + 1] for n, row in enumerate(_random_rows(rng, rows, make))]
    right = _random_rows(rng, rows + seed % 3, make)  # right is 0, 1 or 2 rows longer
    scale = rng.choice((1, 2, 6, 35))
    product = triangle_product(left, right, scale)
    polys = [QPolynomial(row) for row in right]
    assert len(product) == len(left)
    for n, row in enumerate(product):
        weighted = [c * scale ** (n - j) for j, c in enumerate(left[n])]
        assert QPolynomial(row) == _combine_fractions(weighted, polys)
        assert fractions or all(type(v) is int for v in row)


def test_triangle_product_rejects_a_row_longer_than_right():
    with pytest.raises(ValueError, match="row 1 has 2 entries for 1 rows"):
        triangle_product([[1], [1, 1]], [[1]])
    with pytest.raises(ValueError):
        _combine_fractions([1, 1], [QPolynomial.one()])


def _connection_verdicts(alpha, beta, alpha2, beta2, nmax):
    """(name, integer route, Fraction route) for each connection check."""
    params = FamilyParams(alpha, beta)
    source, target = (alpha, beta), (alpha2, beta2)
    checks = [
        ("bell-forward", family.verify_bell_basis_forward, _bell_forward_fractions, (params, nmax)),
        ("bell-basis", suite.bell_basis_ok, _bell_basis_fractions_ok, (alpha, beta, nmax)),
        ("inverse-pair", suite.inverse_pair_ok, _inverse_pair_fractions, (alpha, beta, nmax)),
        ("rebase", suite.rebase_roundtrip_ok, _rebase_roundtrip_fractions, (source, target, nmax)),
        ("lah-rebase", family.lah_rebase_report, _lah_rebase_fractions, (params, nmax)),
        ("composition", stirling.composition_report, _composition_fractions, (*source, *target, nmax)),
        ("rising-expansion", family.rising_expansion, _rising_expansion_fractions, (params, nmax)),
    ] + [
        (f"bell-operator lambda={lam}", operators.verify_bell_operator, _bell_operator_fractions,
         (alpha, beta, lam, nmax))
        for lam in (F(0), F(2, 3), alpha / beta)
    ]
    for name, new, old, args in checks:
        yield name, new(*args), old(*args)


def _holds(verdict) -> bool:
    if isinstance(verdict, family.RisingExpansion):
        return verdict.equal
    return verdict if isinstance(verdict, bool) else verdict.ok


# the cached triangles the connection checks read, by role
def _triangle_keys(alpha, beta, alpha2, beta2):
    return {
        "source": (alpha, beta),
        "target": (alpha2, beta2),
        "composed": (alpha - (alpha2 / beta2) * beta, beta / beta2),
        "inverse": (-alpha / beta, 1 / beta),
        "mirrored": (-alpha, -beta),
        "lah-composed": (F(0), F(-1)),
        "bell": ("stirling", 2),
    }


def _bump_cached_entry(patch, key, nmax, n, k):
    """Replace the cached rows of ``key`` by the same rows with the integer
    entry (n, k) one more, n <= nmax; every later reader sees the bump."""
    classical = key[0] == "stirling"
    if classical:
        rows = stirling._stirling_rows(key[1], nmax)
    else:
        scaled_rows(*key, nmax)
        rows = stirling._TRIANGLES[key].rows
    bumped = rows[:n] + (rows[n][:k] + (rows[n][k] + 1,) + rows[n][k + 1 :],) + rows[n + 1 :]
    if not classical:
        bumped = dataclasses.replace(stirling._TRIANGLES[key], rows=bumped)
    patch.setitem(stirling._TRIANGLES, key, bumped)


def _check_connections(monkeypatch, alpha, beta, alpha2, beta2, nmax, bump=None):
    """Every connection check on both routes, after bumping the entry
    ``bump`` = (role, n, k) of one cached triangle, if given; the two
    routes must agree, and the result is whether every check held."""
    with monkeypatch.context() as patch:
        if bump is not None:
            role, n, k = bump
            _bump_cached_entry(patch, _triangle_keys(alpha, beta, alpha2, beta2)[role], nmax, n, k)
        held = True
        for name, new, old in _connection_verdicts(alpha, beta, alpha2, beta2, nmax):
            assert new == old, name
            held &= _holds(new)
    return held


CONNECTION_NMAX = 7


def _bumps(rng, alpha, beta, alpha2, beta2, nmax):
    """One bump (role, n, k) with n >= 1 for each cached triangle the checks read."""
    for role in _triangle_keys(alpha, beta, alpha2, beta2):
        n = rng.randint(1, nmax)
        yield role, n, rng.randint(0, n)


@pytest.mark.parametrize("index", range(len(ORACLE_PAIRS)))
def test_connection_checks_match_the_fraction_sums(monkeypatch, index):
    # each pair against the next one; every triangle read by some check,
    # bumped, must fail one of them
    alpha, beta = ORACLE_PAIRS[index]
    alpha2, beta2 = ORACLE_PAIRS[(index + 1) % len(ORACLE_PAIRS)]
    assert _check_connections(monkeypatch, alpha, beta, alpha2, beta2, CONNECTION_NMAX)
    rng = random.Random(str((alpha, beta, alpha2, beta2)))
    for bump in _bumps(rng, alpha, beta, alpha2, beta2, CONNECTION_NMAX):
        held = _check_connections(monkeypatch, alpha, beta, alpha2, beta2, CONNECTION_NMAX, bump)
        assert not held, bump


def test_connection_checks_on_hypothesis_draws(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def rationals(lo, hi, max_den):
        return st.integers(1, max_den).flatmap(
            lambda den: st.builds(F, st.integers(lo * den, hi * den), st.just(den))
        )

    alphas, betas = rationals(-3, 3, 12), rationals(-3, 3, 12).filter(bool)
    roles = st.sampled_from(sorted(_triangle_keys(F(0), F(1), F(0), F(1))))

    rngs = st.randoms(use_true_random=False)

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(alphas, betas, alphas, betas, st.integers(1, 6), roles, rngs)
    def connections(alpha, beta, alpha2, beta2, nmax, role, rng):
        assert _check_connections(monkeypatch, alpha, beta, alpha2, beta2, nmax)
        n = rng.randint(1, nmax)
        _check_connections(monkeypatch, alpha, beta, alpha2, beta2, nmax, (role, n, rng.randint(0, n)))

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(alphas, betas, rationals(-3, 3, 12), st.integers(0, 6), rngs)
    def operator_walks(alpha, beta, lam, nmax, rng):
        checks = _operator_checks(alpha, beta, nmax, (lam,))
        _check_operator_walks(monkeypatch, checks, nmax)
        n = rng.randint(0, nmax)
        _check_operator_walks(monkeypatch, checks, nmax, ((alpha, beta), n, rng.randint(0, n)))

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(alphas, betas, st.integers(0, 6), rngs)
    def readers(alpha, beta, nmax, rng):
        checks = _reader_checks(alpha, beta, nmax)
        _check_operator_walks(monkeypatch, checks, nmax)
        n = rng.randint(0, nmax)
        _check_operator_walks(monkeypatch, checks, nmax, ((alpha, beta), n, rng.randint(0, max(n - 1, 0))))

    connections()
    operator_walks()
    readers()


# ---------------------------------------------------------------------------
# the operator walks and the general Bell display against their Fraction routes


def _operator_checks(alpha, beta, nmax, lams):
    """(name, integer route, Fraction route, arguments) for both Rodrigues
    routes, the Bell basis with its general display and the Bell operator
    at each of ``lams``."""
    return [
        ("rodrigues-first", operators.verify_rodrigues_first, _rodrigues_first_fractions, (alpha, beta, nmax)),
        ("rodrigues-second", operators.verify_rodrigues_second, _rodrigues_second_walk_fractions,
         (alpha, beta, nmax)),
        ("bell-basis", suite.bell_basis_ok, _bell_basis_fractions_ok, (alpha, beta, nmax)),
    ] + [
        (f"bell-operator lambda={lam}", operators.verify_bell_operator, _bell_operator_fractions,
         (alpha, beta, lam, nmax))
        for lam in lams
    ]


def _check_operator_walks(monkeypatch, checks, nmax, bump=None):
    """Both routes of each of ``checks``, after bumping the cached entry
    ``bump`` = (key, n, k), n <= nmax, if given; they must agree, and the
    verdicts are returned by name."""
    held = {}
    with monkeypatch.context() as patch:
        if bump is not None:
            _bump_cached_entry(patch, bump[0], nmax, *bump[1:])
        for name, new, old, args in checks:
            held[name] = new(*args)
            assert held[name] == old(*args), (name, bump)
    return held


OPERATOR_NMAX = 6


@pytest.mark.parametrize("alpha, beta", suite.GRID + tuple(ORACLE_PAIRS))
def test_operator_walks_match_the_fraction_routes(monkeypatch, alpha, beta):
    nmax = OPERATOR_NMAX
    checks = _operator_checks(alpha, beta, nmax, (F(0), F(1), alpha / beta, F(-3, 7)))
    held = _check_operator_walks(monkeypatch, checks, nmax)
    assert all(all(ok) if name.startswith("rodrigues") else ok for name, ok in held.items())
    # a wrong T(n, k) fails degree n of both routes alone and the Bell-basis
    # round trip; the Bell operator never reads T
    rng = random.Random(str((alpha, beta)))
    for n in range(nmax + 1):
        bump = ((alpha, beta), n, rng.randint(0, n))
        held = _check_operator_walks(monkeypatch, checks, nmax, bump)
        expected = tuple(m != n for m in range(nmax + 1))
        assert held.pop("rodrigues-first") == held.pop("rodrigues-second") == expected
        assert held.pop("bell-basis") is False
        assert all(held.values())
    held = _check_operator_walks(monkeypatch, checks[2:], nmax, (("stirling", 2), 3, 2))
    assert not any(held.values())
    held = _check_operator_walks(monkeypatch, checks[2:3], nmax, (("stirling", 1), 4, 2))
    assert held == {"bell-basis": False}


# ---------------------------------------------------------------------------
# the triangle readers on integer rows against their Fraction routes:
# triple-route, recurrence-chain, rbell, real-zeros with the region report,
# and the specialization Bell displays, each as it read Fraction rows


def _triple_route_fractions(alpha, beta, nmax):
    """``suite.triple_route_ok`` on ``Fraction`` rows: the recurrence against
    the series extraction and the explicit sum, entry by entry."""
    rows = triangle_rows(alpha, beta, nmax)
    egf = _egf_rows(_family_columns_fractions(alpha, beta, nmax))
    return all(
        rows[n][k] == egf[n][k] == _explicit_fractions(alpha, beta, n, k)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )


def _recurrence_chain_fractions(alpha, beta, nmax):
    params = FamilyParams(alpha, beta)
    current = QPolynomial.one()
    for n in range(nmax):
        current = family.derivative_recurrence_step(params, current, n)
        if current != poly(params, n + 1):
            return False
    return True


def _rbell_fractions(alpha, beta, r, nmax):
    a = [rising(-beta, j) for j in range(1, nmax + 1)]
    b = [rising(-alpha, j) for j in range(nmax + 1)]
    return _partial_r_bell_fractions(r, nmax, a, b) == triangle_rows(r * alpha, beta, nmax)


def _real_zeros_fractions(alpha, beta, nmax):
    params = FamilyParams(alpha, beta)
    degrees = zeros.asserted_degrees(alpha, beta, nmax)
    for checked, n in enumerate(degrees, 1):
        if not zeros.all_roots_real(poly(params, n)):
            return False, checked
    return True, len(degrees)


def _region_rows_fractions(params, nmax, max_width):
    """(n, all_real, roots) per degree, each chain built from ``poly``."""
    out = []
    for n in range(1, nmax + 1):
        q = poly(params, n)
        chain = zeros.sturm_chain(q)
        if len(chain[-1]) > 1:
            q = zeros.square_free_part(q)
            chain = zeros.sturm_chain(q)
        roots = tuple(zeros._isolate(chain, max_width))
        out.append((n, len(roots) == q.degree, roots))
    return out


def _region_rows(params, nmax, max_width):
    report = zeros.region_report(params, nmax, max_width)
    return [(row.n, row.all_real, row.roots) for row in report.results]


def _bell_display_fractions(params, nmax, weight):
    """``suite._bell_display_ok`` as it summed each display entry over
    ``Fraction`` against ``to_bell_basis``, one walk per degree."""
    for n in range(nmax + 1):
        coeffs = to_bell_basis(params, n)
        unsigned = [abs(stirling.stirling1(n, k)) for k in range(n + 1)]
        for j in range(n + 1):
            display = sum(comb(k, j) * unsigned[k] * weight(k, j) for k in range(j, n + 1))
            if coeffs[j] != display:
                return False
    return True


def _reader_checks(alpha, beta, nmax):
    """(name, integer route, Fraction route, arguments) for the triangle
    readers at one pair; rbell at r reads the triangle at (r*alpha, beta)."""
    return [
        ("triple-route", suite.triple_route_ok, _triple_route_fractions, (alpha, beta, nmax)),
        ("recurrence-chain", suite.recurrence_chain_ok, _recurrence_chain_fractions, (alpha, beta, nmax)),
        ("real-zeros", suite.real_zeros_ok, _real_zeros_fractions, (alpha, beta, nmax)),
        ("region", _region_rows, _region_rows_fractions, (FamilyParams(alpha, beta), max(nmax, 1), F(1, 8))),
    ] + [
        (f"rbell r={r}", stirling.verify_rbell_connection, _rbell_fractions, (alpha, beta, r, nmax))
        for r in suite.RBELL_RS
    ]


READER_NMAX = 6


@pytest.mark.parametrize("alpha, beta", suite.GRID + tuple(ORACLE_PAIRS))
def test_triangle_readers_match_the_fraction_routes(monkeypatch, alpha, beta):
    nmax = READER_NMAX
    checks = _reader_checks(alpha, beta, nmax)
    held = _check_operator_walks(monkeypatch, checks, nmax)
    assert held.pop("real-zeros")[0] and held.pop("region")
    assert all(held.values())
    d, sums = explicit_rows(alpha, beta, nmax)
    assert sums == [
        [factorial(k) * d**n * _explicit_fractions(alpha, beta, n, k) for k in range(n + 1)]
        for n in range(nmax + 1)
    ]
    # one wrong T(n, k) fails triple-route and, for n >= 1, recurrence-chain;
    # at (r*alpha, beta) it fails rbell at r; real-zeros and the region report
    # need only agree.  k < n keeps each member's degree: T(n, n) = (-b)**n
    # may be -1, which the bump would make 0
    rng = random.Random(str((alpha, beta)))
    for n in range(nmax + 1):
        k = rng.randint(0, max(n - 1, 0))
        held = _check_operator_walks(monkeypatch, checks, nmax, ((alpha, beta), n, k))
        assert not held["triple-route"]
        assert held["recurrence-chain"] == (n == 0)
        r = rng.choice(suite.RBELL_RS)
        rbell = [c for c in checks if c[0] == f"rbell r={r}"]
        held = _check_operator_walks(monkeypatch, rbell, nmax, ((r * alpha, beta), n, k))
        assert held == {f"rbell r={r}": False}


DISPLAY_CASES = [
    ("U", family.U_PARAMS, lambda k, j: F(1, 2**k)),
    ("V", family.V_PARAMS, lambda k, j: F(3, 2) ** k / 3**j),
] + [
    (f"laguerre {lam}", family.laguerre_params(lam), lambda k, j, lam=lam: (lam + 1) ** (k - j))
    for lam in (F(0), F(1), F(5, 2))
] + [
    (f"assoc-lah {m}", FamilyParams(F(0), F(-m)), lambda k, j, m=m: m**j if k == j else 0)
    for m in (1, 2, 3)
]


@pytest.mark.parametrize("name, params, weight", DISPLAY_CASES, ids=[c[0] for c in DISPLAY_CASES])
def test_bell_displays_match_the_fraction_sums(monkeypatch, name, params, weight):
    # one walk for every degree against one walk per degree, on correct
    # inputs, with s(4, 2) bumped in the cache and with the walk's entry
    # (3, 1) bumped, which both routes read through qpoly.linear_products
    nmax = 8
    assert suite._bell_display_ok(params, nmax, weight)
    assert _bell_display_fractions(params, nmax, weight)
    with monkeypatch.context() as patch:
        _bump_cached_entry(patch, ("stirling", 1), nmax, 4, 2)
        assert not suite._bell_display_ok(params, nmax, weight)
        assert not _bell_display_fractions(params, nmax, weight)
    right = qpoly.linear_products

    def bumped(factors):
        rows = right(factors)
        if len(rows) > 3:
            rows[3][1] += 1
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(qpoly, "linear_products", bumped)
        assert not suite._bell_display_ok(params, nmax, weight)
        assert not _bell_display_fractions(params, nmax, weight)
