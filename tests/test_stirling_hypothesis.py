"""Property tests of the triangle on random rational parameters (optional)."""

from fractions import Fraction

import pytest

from gstirling import series, stirling, suite

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
NONZERO = RATIONALS.filter(bool)
SIZES = st.integers(0, 8)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(RATIONALS, RATIONALS, SIZES)
def test_triple_route_off_the_grid(alpha, beta, nmax):
    hypothesis.assume((alpha, beta) not in suite.GRID)
    assert suite.triple_route_ok(alpha, beta, nmax)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(RATIONALS, NONZERO, SIZES)
def test_inverse_pair_off_the_grid(alpha, beta, nmax):
    hypothesis.assume((alpha, beta) not in suite.GRID)
    assert suite.inverse_pair_ok(alpha, beta, nmax)



@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(RATIONALS, NONZERO, st.integers(0, 3), SIZES)
def test_rbell_connection_off_the_grid(alpha, beta, r, nmax):
    hypothesis.assume((alpha, beta) not in suite.GRID)
    assert stirling.verify_rbell_connection(alpha, beta, r, nmax)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(RATIONALS, NONZERO, st.data())
def test_gf_derivative_off_the_grid(alpha, beta, data):
    hypothesis.assume((alpha, beta) not in suite.GRID)
    order = data.draw(SIZES)
    m = data.draw(st.integers(0, order))
    assert series.verify_gf_derivatives(alpha, beta, (m,), order) == (True,)
