"""Truncated power series in t over the rationals, all exact.

A series is a tuple of ``Fraction``s whose entry i multiplies t**i; its
truncation order is its length minus one.  Every triangle read off a
generating function head * exp(x*base), base with no constant term, comes
from one column extraction: the columns C_k = head * base**k / k! have no
t-power below k, so C_0..C_order give the whole truncated function and
n! * C_k[n] is entry (n, k).  The family's generating function is the
case head = (1-t)**alpha, base = (1-t)**beta - 1; the partial (r-)Bell
values in ``stirling`` are another.  Generating-function statements are
re-derived by expanding both sides to a fixed order and comparing
coefficients, with no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .qpoly import QPolynomial


def binomial_series(a: Fraction | int, order: int) -> tuple[Fraction, ...]:
    """(1 - t)**a truncated; the t**n coefficient is rising(-a, n)/n!."""
    a = Fraction(a)
    coeffs = []
    c = Fraction(1)
    for n in range(order + 1):
        coeffs.append(c)
        c = c * (n - a) / (n + 1)
    return tuple(coeffs)


def series_mul(s1: tuple, s2: tuple) -> tuple[Fraction, ...]:
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


def egf_columns(head: tuple, base: tuple) -> list[tuple[Fraction, ...]]:
    """The columns C_0..C_order of head * base**k / k!, order = len(head) - 1;
    ``base`` shares that order and has no constant term."""
    columns = [head]
    for k in range(1, len(head)):
        columns.append(tuple(c / k for c in series_mul(columns[-1], base)))
    return columns


def egf_rows(head: tuple, base: tuple) -> tuple[tuple[Fraction, ...], ...]:
    """Rows n = 0..order of n! * C_k[n], k <= n, read off ``egf_columns``."""
    columns = egf_columns(head, base)
    return tuple(
        tuple(factorial(n) * column[n] for column in columns[: n + 1])
        for n in range(len(columns))
    )


def _family_base(beta: Fraction, order: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) + binomial_series(beta, order)[1:]  # (1-t)**beta - 1


def gf_rows(alpha, beta, nmax: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows 0..nmax of the coefficient triangle read off the family's
    column series.  Any beta is accepted; at beta = 0 every column past
    C_0 is zero."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    return egf_rows(binomial_series(alpha, nmax), _family_base(beta, nmax))


def gf_polynomials(alpha, beta, nmax: int) -> list[QPolynomial]:
    """Polynomials read off the family's generating function.

    Entry n is n! times the t**n coefficient of the expanded generating
    function; its x**k coefficient is n! * C_k[n], row n of ``gf_rows``.
    This is the series-side route to the family and the oracle the
    recurrence construction is checked against.
    """
    if Fraction(beta) == 0:
        raise ValueError("the family requires beta != 0")
    return [QPolynomial(row) for row in gf_rows(alpha, beta, nmax)]


def verify_gf_derivative(alpha, beta, m: int, order: int) -> bool:
    """Check the closed form of the m-th t-derivative of the family GF.

    The m-th derivative of F(t, x) equals
    F(t, x) * (1-t)**(-m) * sum_k S(m, k) * x**k * (1-t)**(beta*k),
    where S is the family's coefficient triangle.  Both sides are
    compared one power of x at a time: for each j <= order, the x**j
    coefficient of the left side is C_j differentiated m times, and that
    of the right side is (1-t)**(-m) * sum_{k <= min(m, j)} S(m, k) *
    (1-t)**(beta*k) * C_{j-k}.  Both are scalar series compared through
    t**(order - m), the terms the order-`order` columns fix exactly.  Two
    polynomials in x are equal exactly when each coefficient is, and no
    x**j with j > order reaches t**(order - m), so the check is exact.
    The two binomial factors stay separate series, so the check does not
    assume the exponent law (1-t)**a * (1-t)**b = (1-t)**(a+b).
    """
    return verify_gf_derivatives(alpha, beta, (m,), order)


def verify_gf_derivatives(alpha, beta, ms, order: int) -> bool:
    """verify_gf_derivative for every m in ms, from one set of columns."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    for m in ms:
        if not 0 <= m <= order:
            raise ValueError(f"need 0 <= m <= order, got m={m}, order={order}")
    columns = egf_columns(binomial_series(alpha, order), _family_base(beta, order))
    return all(_derivative_holds(columns, alpha, beta, m) for m in ms)


def _derivative_holds(columns: list, alpha: Fraction, beta: Fraction, m: int) -> bool:
    from .stirling import gstirling_explicit  # deferred: stirling uses this module

    order = len(columns) - 1
    length = order - m + 1
    lower = binomial_series(-m, order - m)
    weights = []
    for k in range(m + 1):
        s = gstirling_explicit(alpha, beta, m, k)
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
