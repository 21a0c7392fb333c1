"""Root isolation against sympy's independent real-root oracle (optional)."""

from fractions import Fraction

import pytest

from gstirling.family import FamilyParams, poly
from gstirling.zeros import isolate_roots, square_free_part

sympy = pytest.importorskip("sympy")

F = Fraction

# main region, boundary pair with rational roots, secondary region, a pair
# outside both with non-real members, and one with a repeated root at 0
MEMBERS = (
    ((-1, -1), 7, F(1, 64)),
    ((F(-1, 2), F(-1, 2)), 8, F(1, 2**20)),
    ((1, -1), 6, F(1, 2**20)),
    ((F(5, 2), 1), 5, F(1, 64)),
    ((F(3, 2), F(-3, 4)), 7, F(1, 64)),
    ((0, 3), 6, F(1, 2**20)),
)


def _rational(value: Fraction):
    return sympy.Rational(value.numerator, value.denominator)


@pytest.mark.parametrize("pair, n, width", MEMBERS)
def test_each_interval_holds_exactly_one_sympy_root(pair, n, width):
    q = square_free_part(poly(FamilyParams(*pair), n))
    intervals = isolate_roots(q, width)
    x = sympy.Symbol("x")
    expr = sum(_rational(c) * x**i for i, c in enumerate(q.coefficients))
    roots = sympy.real_roots(sympy.Poly(expr, x))
    assert len(roots) == len(intervals)
    for lo, hi in intervals:
        inside = [r for r in roots if _rational(lo) <= r <= _rational(hi)]
        assert len(inside) == 1
