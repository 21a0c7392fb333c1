"""Exact rational scalars, their wire format, and factorial-type products.

Every quantity downstream (coefficient triangles, polynomial families,
series oracles) is computed over arbitrary-precision rationals so that
identity checks are exact, never approximate.  ``fractions.Fraction``
already gives lowest-terms storage with a positive denominator, so it is
used as is; this module adds the wire format, the integer kernels'
scale and the rising / falling factorials of every coefficient formula.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

_WIRE_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class WireFormatError(ValueError):
    """A string is not in the exact "p/q" wire form."""


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" wire form, with "/q" omitted when q == 1.

    Decimal and scientific notation are rejected on purpose: the wire
    format is part of the exactness contract, so one half is "1/2",
    never "0.5".
    """
    s = text.strip()
    if not _WIRE_RE.fullmatch(s):
        raise WireFormatError(f"not a rational in p/q form: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise WireFormatError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Inverse of :func:`parse_rational`; emits "p" or "p/q" with q > 1."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def common_scale(alpha: Fraction, beta: Fraction) -> tuple[int, int, int]:
    """(d, alpha*d, beta*d), d = lcm(den alpha, den beta): d**n * S(n, k) is an integer."""
    d = lcm(alpha.denominator, beta.denominator)
    return d, alpha.numerator * (d // alpha.denominator), beta.numerator * (d // beta.denominator)


def scaled_row(row, scale: int) -> list[int]:
    """The integers scale * v for ``Fraction``s v whose denominators divide scale."""
    return [v.numerator * (scale // v.denominator) for v in row]


def rising(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"rising factorial needs n >= 0, got {n}")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def falling(a: Fraction | int, n: int) -> Fraction:
    """Falling factorial a(a-1)...(a-n+1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"falling factorial needs n >= 0, got {n}")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(n):
        out *= a - i
    return out
