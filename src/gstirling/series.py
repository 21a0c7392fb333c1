"""Truncated power series in t, all exact.

The kernels hold a series in u-form at a scale L: a list of integers whose
entry n is n! * L**n times the t**n coefficient.  (1 - t)**(p/L) has the
entries prod_{i<n} (i*L - p), a product is the binomial convolution
sum_i C(n, i) * u_i * v_{n-i}, and an m-th t-derivative times L**m is a
shift by m.  Every triangle read off a generating function head * exp(x*base),
base with no constant term, comes from one column extraction, ``columns``:
C_k = head * base**k / k! has no t-power below k, and its u-form entry n is
L**n times entry (n, k).  The family's case is head = (1-t)**alpha,
base = (1-t)**beta - 1 at L = d; the partial (r-)Bell values in ``stirling``
are another.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .rationals import common_scale


def u_binomial(p: int, scale: int, order: int) -> list[int]:
    """u-form of (1 - t)**(p/scale) through t**order."""
    return list(accumulate((n * scale - p for n in range(order)), mul, initial=1))


def u_mul(u: list, v: list) -> list[int]:
    """u-form product of two u-form series of one order and scale."""
    out = [0] * len(u)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v[: len(u) - i]):
                if y:
                    out[i + j] += comb(i + j, i) * x * y
    return out


def columns(head: list, base: list) -> list[list[int]]:
    """The u-form columns C_0..C_order of head * base**k / k!; ``base`` shares
    head's order and scale, has no constant term, and step k divides by k
    exactly or raises ArithmeticError."""
    cols = [head]
    for k in range(1, len(head)):
        col = [divmod(v, k) for v in u_mul(cols[-1], base)]
        if any(rem for _, rem in col):
            raise ArithmeticError(f"column {k} is not integral at its scale")
        cols.append([q for q, _ in col])
    return cols


def family_columns(alpha, beta, order: int) -> tuple[int, list[list[int]]]:
    """(d, the family's ``columns`` through t**order at scale d): head (1-t)**alpha
    and base (1-t)**beta - 1, so entry n of column k is T(n, k) = d**n * S(n, k)."""
    d, a, b = common_scale(Fraction(alpha), Fraction(beta))
    return d, columns(u_binomial(a, d, order), [0] + u_binomial(b, d, order)[1:])


def column_rows(scale: int, cols: list, shift: int = 0) -> tuple[tuple, ...]:
    """Rows of ``columns``: entry (n, k) is column k's entry n over scale**(n + shift)."""
    return tuple(
        tuple(Fraction(col[n], scale ** (n + shift)) for col in cols[: n + 1])
        for n in range(len(cols))
    )


def verify_gf_derivative(alpha, beta, m: int, order: int) -> bool:
    """Check the closed form of the m-th t-derivative of the family GF.

    The m-th derivative of F(t, x) equals
    F(t, x) * (1-t)**(-m) * sum_k S(m, k) * x**k * (1-t)**(beta*k),
    where S is the family's coefficient triangle.  Both sides are
    compared one power of x at a time: for each j <= order, the x**j
    coefficient of the left side is C_j differentiated m times, and that
    of the right side is (1-t)**(-m) * sum_{k <= min(m, j)} S(m, k) *
    (1-t)**(beta*k) * C_{j-k}.  Both are scalar series compared through
    t**(order - m), the terms the order-`order` columns fix exactly; no
    x**j with j > order reaches t**(order - m), so the check is exact.
    The two binomial factors stay separate series, so the check does not
    assume the exponent law (1-t)**a * (1-t)**b = (1-t)**(a+b).
    """
    return verify_gf_derivatives(alpha, beta, (m,), order)[0]


def verify_gf_derivatives(alpha, beta, ms, order: int) -> tuple[bool, ...]:
    """verify_gf_derivative for every m in ms, one verdict each, from one set of columns."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    for m in ms:
        if not 0 <= m <= order:
            raise ValueError(f"need 0 <= m <= order, got m={m}, order={order}")
    from .stirling import explicit_rows  # deferred: stirling uses this module

    d, cols = family_columns(alpha, beta, order)
    _, sums = explicit_rows(alpha, beta, max(ms, default=0))
    _, _, b = common_scale(alpha, beta)
    return tuple(_derivative_holds(cols, d, b, sums[m], m) for m in ms)


def _derivative_holds(cols: list, d: int, b: int, sums: list, m: int) -> bool:
    """d**m times both sides in u-form: C_j[m:] against the sum over k of
    d**m * S(m, k) * (1-t)**(-m) * (1-t)**(beta*k) * C_{j-k}, each weight
    d**m * S(m, k) read as the explicit sum ``sums[k]`` = k! * d**m * S(m, k) over k!."""
    length = len(cols) - m
    lower = u_binomial(-m * d, d, length - 1)
    weights = []
    for k in range(m + 1):
        w, rem = divmod(sums[k], factorial(k))
        if rem:  # not the triangle's weight, whose d**m * S(m, k) is an integer
            return False
        weights.append([w * c for c in u_mul(lower, u_binomial(b * k, d, length - 1))])
    for j, col in enumerate(cols):
        terms = [u_mul(weights[k], cols[j - k][:length]) for k in range(min(m, j) + 1)]
        if col[m:] != [sum(entries) for entries in zip(*terms)]:
            return False
    return True
