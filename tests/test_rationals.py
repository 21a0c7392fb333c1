import random
from fractions import Fraction

import pytest

from gstirling.rationals import (
    WireFormatError,
    falling,
    format_rational,
    parse_rational,
    rising,
)

GRID = [Fraction(s) for s in ("-2", "-3/2", "-1", "-1/2", "0", "1/3", "1/2", "1", "2")]


@pytest.mark.parametrize("text", ["-3", "7/2", "0", "1", "-22/7", "+5", "100/25"])
def test_wire_roundtrip(text):
    value = parse_rational(text)
    assert parse_rational(format_rational(value)) == value


def test_wire_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(200):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "3/0", "1/2/3", "", "x", "1.0", "- 3", "2/-3"])
def test_wire_rejects_non_rationals(bad):
    with pytest.raises(WireFormatError):
        parse_rational(bad)


def test_format_normalizes():
    assert format_rational(Fraction(100, 25)) == "4"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(3) == "3"


@pytest.mark.parametrize("a", GRID)
def test_empty_products(a):
    assert rising(a, 0) == 1
    assert falling(a, 0) == 1


def test_known_values():
    assert rising(1, 5) == 120
    assert rising(-2, 2) == 2
    assert falling(3, 3) == 6
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)


@pytest.mark.parametrize("a", GRID)
@pytest.mark.parametrize("n", range(1, 8))
def test_one_step_recurrences(a, n):
    assert rising(a, n) == rising(a, n - 1) * (a + n - 1)
    assert falling(a, n) == falling(a, n - 1) * (a - n + 1)


@pytest.mark.parametrize("a", GRID)
@pytest.mark.parametrize("n", range(8))
def test_sign_flip_identity(a, n):
    assert falling(a, n) == Fraction(-1) ** n * rising(-a, n)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        rising(1, -1)
    with pytest.raises(ValueError):
        falling(1, -2)
