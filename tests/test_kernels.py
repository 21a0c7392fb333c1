"""Property tests of the two integer kernels on random rational parameters.

``stirling.triangle_rows`` steps the triangle on integers scaled by a power
of the common denominator d of (alpha, beta), and ``family.eval_dobinski``
sums its series as one integer numerator over d**n * q**k * k!.  Each is
checked against an independent route: the triangle against the closed form
``gstirling_explicit``, the series against ``_dobinski_fractions``, the same
sum written term by term over ``Fraction``.  Each property runs on a seeded
``random.Random`` draw and, when hypothesis is installed, on its draws too.
"""

import math
import random
from fractions import Fraction

import pytest

from gstirling import stirling
from gstirling.family import FamilyParams, eval_dobinski
from gstirling.rationals import rising
from gstirling.stirling import gstirling_explicit, triangle_rows

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


# d = lcm(11, 12) = 132 is the largest common denominator of the draws
TRIANGLE_RNG = random.Random(20261019)
TRIANGLE_DRAWS = [(F(-5, 11), F(7, 12), [7, 25, 3, 16])] + [
    (_rational(TRIANGLE_RNG, -3, 3, 12), _rational(TRIANGLE_RNG, -3, 3, 12), _sizes(TRIANGLE_RNG))
    for _ in range(6)
]


@pytest.mark.parametrize("alpha, beta, sizes", TRIANGLE_DRAWS)
def test_triangle_rows_match_the_closed_form(monkeypatch, alpha, beta, sizes):
    monkeypatch.setattr(stirling, "_TRIANGLES", {})
    _check_triangle_growth(alpha, beta, sizes)


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
