import random
from fractions import Fraction

import pytest

from gstirling.qpoly import QPolynomial, remainder_sequence
from gstirling.zeros import _divide_gcd
from test_kernels import poly_divmod


def _monic_gcd(p, q):
    """gcd(p, q) made monic: the last member of the remainder sequence, as
    ``zeros`` divides by it; gcd(0, 0) is the zero polynomial."""
    last = remainder_sequence(p, q)[-1]
    return QPolynomial(Fraction(c, last[-1]) for c in last) if last else QPolynomial()


def _random_poly(rng, max_deg=6, zero_ok=True):
    deg = rng.randint(-1 if zero_ok else 0, max_deg)
    if deg < 0:
        return QPolynomial()
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, 9)))
    return QPolynomial(coeffs)


def test_trailing_zeros_stripped():
    p = QPolynomial((1, 2, 0, 0))
    assert p.coefficients == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert QPolynomial((0, 0)).is_zero
    assert QPolynomial().degree == -1


def test_basic_values():
    x = QPolynomial((0, 1))
    p = x * x + 2 * x + QPolynomial.one()  # (x+1)^2
    assert p(3) == 16
    assert p.coeff(2) == 1 and p.coeff(5) == 0
    assert p.derivative() == 2 * x + 2 * QPolynomial.one()


def test_lead_of_zero_rejected():
    with pytest.raises(ValueError):
        QPolynomial().lead


def test_ring_identities_random():
    rng = random.Random(1729)
    for _ in range(100):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p - p).is_zero
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert (p * q)(x0) == p(x0) * q(x0)


# poly_divmod, the Fraction long division that test_kernels.py keeps as the
# oracle of the integer division in zeros


def test_divmod_random():
    rng = random.Random(8128)
    for _ in range(100):
        q = _random_poly(rng, zero_ok=False)
        p = _random_poly(rng)
        quo, rem = poly_divmod(p, q)
        assert p == quo * q + rem
        assert rem.is_zero or rem.degree < q.degree


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(QPolynomial.one(), QPolynomial())


def test_divexact_rejects_nonzero_remainder():
    # 1 + x over x: the integer division behind zeros.square_free_part
    with pytest.raises(ValueError, match="nonzero remainder"):
        _divide_gcd((1, 1), (0, 1))


def test_gcd_contains_common_factor():
    rng = random.Random(496)
    for _ in range(50):
        g = _random_poly(rng, max_deg=3, zero_ok=False)
        a = _random_poly(rng, max_deg=3, zero_ok=False)
        b = _random_poly(rng, max_deg=3, zero_ok=False)
        d = _monic_gcd(a * g, b * g)
        assert d.degree >= g.degree
        quo, rem = poly_divmod(a * g, d)
        assert rem.is_zero and quo * d == a * g
        if not d.is_zero:
            assert d.lead == 1  # monic


def test_gcd_of_coprime_is_one():
    p = QPolynomial((1, 0, 1))  # x^2 + 1
    q = QPolynomial((-1, 1))  # x - 1
    assert _monic_gcd(p, q) == QPolynomial.one()
    assert _monic_gcd(QPolynomial(), QPolynomial()).is_zero
