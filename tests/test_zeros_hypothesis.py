"""Property tests of root isolation, gcds and root counts on random
integer polynomials (optional)."""

from fractions import Fraction

import pytest

from gstirling.qpoly import QPolynomial, remainder_sequence
from gstirling.zeros import (
    _count_distinct,
    all_roots_real,
    isolate_roots,
    square_free_part,
    sturm_chain,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COEFFS = st.lists(st.integers(-30, 30), min_size=2, max_size=8).filter(lambda c: c[-1] != 0)
WIDTHS = st.builds(Fraction, st.integers(1, 9), st.integers(1, 2**24))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(COEFFS, WIDTHS)
def test_intervals_are_narrow_disjoint_and_bracket_a_root(coeffs, width):
    p = square_free_part(QPolynomial(coeffs))
    intervals = isolate_roots(p, width)
    assert len(intervals) == _count_distinct(sturm_chain(p))
    for lo, hi in intervals:
        assert lo <= hi and hi - lo <= width
        if lo == hi:
            assert p(lo) == 0
        else:
            assert p(lo) * p(hi) < 0
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi < lo


def _euclid_gcd(p, q):
    """Monic gcd by Euclid's loop over Fraction coefficients."""
    while not q.is_zero:
        p, q = q, divmod(p, q)[1]
    return p if p.is_zero else p * (1 / p.lead)


def _monic_gcd(p, q):
    """gcd(p, q) made monic: the last member of the remainder sequence, as
    ``zeros`` divides by it; gcd(0, 0) is the zero polynomial."""
    last = remainder_sequence(p, q)[-1]
    return QPolynomial(Fraction(c, last[-1]) for c in last) if last else QPolynomial()


FACTORS = st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda c: c[-1] != 0)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(FACTORS, COEFFS, st.integers(2, 3))
def test_repeated_factor_gcd_and_distinct_count(cofactor, base, power):
    repeated = QPolynomial(base)
    p = QPolynomial(cofactor)
    for _ in range(power):
        p = p * repeated
    dp = p.derivative()
    assert _monic_gcd(p, dp) == _euclid_gcd(p, dp)
    assert _monic_gcd(p, QPolynomial(cofactor)) == _euclid_gcd(p, QPolynomial(cofactor))
    assert _count_distinct(sturm_chain(p)) == _count_distinct(sturm_chain(square_free_part(p)))


LINEAR = st.tuples(st.fractions(-5, 5, max_denominator=6), st.integers(1, 3))
QUADRATIC = st.tuples(st.integers(-4, 4), st.integers(1, 9), st.integers(1, 2)).filter(
    lambda t: t[0] * t[0] < 4 * t[1]
)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.lists(LINEAR, max_size=3), st.lists(QUADRATIC, max_size=2))
def test_all_roots_real_on_products_of_known_factors(linears, quadratics):
    # (x - r)**m real-rooted, (x**2 + b*x + c)**k with b**2 < 4c not
    hypothesis.assume(linears or quadratics)
    p = QPolynomial.one()
    for r, m in linears:
        for _ in range(m):
            p = p * QPolynomial((-r, 1))
    for b, c, k in quadratics:
        for _ in range(k):
            p = p * QPolynomial((c, b, 1))
    assert all_roots_real(p) == (not quadratics)
