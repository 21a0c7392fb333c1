"""Dense univariate polynomials with exact rational coefficients."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .rationals import common_scale


class QPolynomial:
    """Immutable polynomial; ``coefficients[i]`` multiplies x**i.

    Trailing zeros are stripped on construction, so the zero polynomial
    stores no coefficients and reports degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int] = ()):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(coeffs)

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def lead(self) -> Fraction:
        """Leading coefficient; undefined for the zero polynomial."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k, zero when k is out of range."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({[str(c) for c in self._coeffs]})"

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self._coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QPolynomial):
            if self.is_zero or other.is_zero:
                return QPolynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a:
                    for j, b in enumerate(other._coeffs):
                        if b:
                            out[i + j] += a * b
            return QPolynomial(out)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return QPolynomial(a * c for a in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "QPolynomial":
        return QPolynomial(i * c for i, c in enumerate(self._coeffs) if i > 0)

    def __call__(self, x: Fraction | int) -> Fraction:
        """Evaluate exactly by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc


def triangle_product(left: Sequence, right: Sequence, scale: int = 1) -> list[list]:
    """Row n is sum_j left[n][j] * scale**(n-j) * right[j], low degree first.

    With row j of ``right`` carrying scale**j, row n of the product carries
    it too, and integer rows give integer rows; ``right`` may be longer.
    """
    out = []
    for n, row in enumerate(left):
        if len(right) < len(row):
            raise ValueError(f"row {n} has {len(row)} entries for {len(right)} rows")
        acc = [0] * max((len(right[j]) for j in range(len(row))), default=0)
        for j, c in enumerate(row):
            if c:
                c *= scale ** (n - j)
                for i, v in enumerate(right[j]):
                    acc[i] += c * v
        out.append(acc)
    return out


def linear_products(factors: Iterable[tuple[int, int]]) -> list[list[int]]:
    """[1] followed by the running products of the integer factors c0 + c1*x,
    each factor given as the pair (c0, c1) and each product as its
    coefficient list, low degree first."""
    out = [[1]]
    for c0, c1 in factors:
        row = [c0 * v for v in out[-1]] + [0]
        for i, v in enumerate(out[-1]):
            row[i + 1] += c1 * v
        out.append(row)
    return out


def rising_rows(alpha, beta, nmax: int) -> tuple[int, list[list[int]]]:
    """(d, rows 0..nmax of d**n * rising(-alpha - beta*x, n)): with (d, a, b)
    from ``common_scale``, row n is the product of i*d - a - b*x over i < n."""
    d, a, b = common_scale(Fraction(alpha), Fraction(beta))
    return d, linear_products((i * d - a, -b) for i in range(nmax))


def rising_polys(alpha, beta, nmax: int) -> list[QPolynomial]:
    """rising(-alpha - beta*x, n) for n = 0..nmax, read off ``rising_rows``."""
    d, rows = rising_rows(alpha, beta, nmax)
    return [QPolynomial(Fraction(v, d**n) for v in row) for n, row in enumerate(rows)]


def _primitive(p) -> tuple[int, ...]:
    """p scaled by a positive rational to coprime integer coefficients; p is a
    ``QPolynomial`` or integer coefficients, whose content alone is divided out."""
    if isinstance(p, QPolynomial):
        den = math.lcm(*(c.denominator for c in p.coefficients))
        p = [c.numerator * (den // c.denominator) for c in p.coefficients]
    return _content_free(p)


def _content_free(ints: list[int]) -> tuple[int, ...]:
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def _pseudo_divide(a, b) -> tuple[list[int], list[int]]:
    """(q, r) with lc**(e+1) * a = q * b + r, e = deg a - deg b, for integer
    coefficients a and b, low degree first; lc > 0 is b's leading
    coefficient, b being negated first if it is negative, and r keeps
    deg b entries, trailing zeros included."""
    if b[-1] < 0:
        b = tuple(-c for c in b)
    lead, db = b[-1], len(b) - 1
    rem, quo = list(a), []
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        rem = [lead * v for v in rem]
        quo = [lead * v for v in quo] + [c]
        if c:
            for j in range(db):
                rem[i - db + j] -= c * b[j]
    return quo[::-1], rem


def _negated_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """-(a mod b) scaled by a positive rational to coprime integers: the
    remainder of ``_pseudo_divide`` is lc**(e+1) * (a mod b), and dividing
    by -b leaves the remainder itself unchanged."""
    rem = _pseudo_divide(a, b)[1]
    while rem and rem[-1] == 0:
        rem.pop()
    return _content_free([-v for v in rem])


def remainder_sequence(p, q) -> tuple[tuple[int, ...], ...]:
    """The signed remainder sequence of p and q over the integers; each is a
    ``QPolynomial`` or integer coefficients with a nonzero leading one.

    The members are p, q, then the negated remainder of the two before,
    down to the last nonzero one, which is gcd(p, q) up to a constant
    factor.  Each member is stored scaled by a positive rational to
    coprime integer coefficients, low degree first, so it has the signs
    of the same sequence built over the rationals (Collins' primitive
    pseudo-remainder sequence, with the sign of lc**(d+1) corrected).
    """
    seq = [_primitive(p)]
    nxt = _primitive(q)
    while nxt:
        seq.append(nxt)
        nxt = _negated_remainder(seq[-2], nxt)
    return tuple(seq)

