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
derivative it replaced is kept below as its oracle.  The ``Fraction``
step, which scales each row back to integers with ``scaled_row``, is the
oracle for the integer rows, and the ``Fraction`` form of the Newton
inequality is the oracle for ``zeros.check_newton_logconcave``, which reads
the integer rows.
Each property runs on a seeded ``random.Random`` draw and, when hypothesis
is installed, on its draws too.
"""

import math
import random
from fractions import Fraction
from math import comb, factorial, perm

import pytest

from gstirling import operators, series, stirling, suite, zeros
from gstirling.family import FamilyParams, addition, eval_dobinski, poly, to_bell_basis
from gstirling.operators import ExpMonomialSum
from gstirling.qpoly import QPolynomial, linear_products, rising_polys, rising_rows
from gstirling.rationals import common_scale, rising, scaled_row
from gstirling.stirling import gstirling_explicit, scaled_rows, triangle_rows

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
    """Both checks see the same explicit entries, one of which may be off
    by ``bump`` (zero keeps them right); their verdicts must agree."""
    def explicit(a, b, n, k):
        value = gstirling_explicit(a, b, n, k)
        return value + bump if k == n // 2 else value

    monkeypatch.setattr(stirling, "gstirling_explicit", explicit)
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
