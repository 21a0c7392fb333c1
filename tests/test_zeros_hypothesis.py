"""Property test of root isolation on random square-free polynomials (optional)."""

from fractions import Fraction

import pytest

from gstirling.qpoly import QPolynomial
from gstirling.zeros import count_real_roots, isolate_roots, square_free_part

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COEFFS = st.lists(st.integers(-30, 30), min_size=2, max_size=8).filter(lambda c: c[-1] != 0)
WIDTHS = st.builds(Fraction, st.integers(1, 9), st.integers(1, 2**24))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(COEFFS, WIDTHS)
def test_intervals_are_narrow_disjoint_and_bracket_a_root(coeffs, width):
    p = square_free_part(QPolynomial(coeffs))
    intervals = isolate_roots(p, width)
    assert len(intervals) == count_real_roots(p)
    for lo, hi in intervals:
        assert lo <= hi and hi - lo <= width
        if lo == hi:
            assert p(lo) == 0
        else:
            assert p(lo) * p(hi) < 0
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi < lo
