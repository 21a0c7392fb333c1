"""Exact checks of the family's derivative and Euler-operator representations.

The identities act on finite sums of c * x**g * exp(x**b) terms, a shape
closed under d/dx and under x*d/dx.  Identities are compared as maps from
(rational) exponents to coefficients: finitely many real powers of x with
equal coefficient maps define equal functions on x > 0, so the comparison is
strictly stronger than any numeric check.  Each sum's exponents lie on one
lattice g + j*b, and ``_lattice_walk`` steps its integer coefficients over j.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Iterable

from .family import bell_rows
from .qpoly import triangle_product
from .rationals import common_scale
from .stirling import scaled_rows


def _lattice_walk(shifts: Iterable[int], b: int):
    """Yield [1], then for each c0 in ``shifts`` the next integer list,
    entry j = (c0 + b*j) * row[j] + b * row[j-1].  On the terms
    c_j * x**(g + j*B) * exp(x**B), d/dx and x*d/dx + s both send term j to
    terms j and j + 1 with weights (g + s + j*B) and B (s = 0 for d/dx), so
    each step is one of them scaled by c0 : b = (g + s) : B."""
    row = [1]
    yield row
    for c0 in shifts:
        padded = [0, *row, 0]
        row = [(c0 + b * j) * padded[j + 1] + b * padded[j] for j in range(len(row) + 1)]
        yield row


def verify_rodrigues_first(alpha, beta, nmax: int) -> tuple[bool, ...]:
    """Check the derivative representation of the family at x**beta for
    every n <= nmax:

    family_n(x**beta) = (-1)**n * x**(n-alpha) * exp(-x**beta)
                        * (d/dx)**n (x**alpha * exp(x**beta)).

    The n-fold derivative is sum_j c_j * x**(alpha - n + j*beta) * exp(x**beta).
    With (d, a, b) from ``common_scale``, C_n = d**n * c_n is one
    ``_lattice_walk`` step on from C_(n-1), and the identity is
    (-1)**n * C_n == T(n, .) of ``scaled_rows``.  Each C_n is cross-checked
    against the termwise derivative of the expanded exponential: for k <= n + 2,
    sum_j C_n[j] * perm(k, j) == d**n * falling(alpha + beta*k, n).  Entry n is
    degree n's verdict: the derivatives never read the triangle.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    d, a, b = common_scale(alpha, beta)
    shifts = [a - i * d for i in range(nmax)]
    _, rows = scaled_rows(alpha, beta, nmax)
    falling = [1] * (nmax + 3)  # d**n * falling(alpha + beta*k, n), k <= nmax + 2
    verdicts = []
    for n, (coeffs, row) in enumerate(zip(_lattice_walk(shifts, b), rows)):
        if n:
            falling = [f * (shifts[n - 1] + b * k) for k, f in enumerate(falling)]
        expanded = all(sum(c * perm(k, j) for j, c in enumerate(coeffs[: k + 1])) == falling[k]
                       for k in range(n + 3))
        verdicts.append(expanded and [(-1) ** n * c for c in coeffs] == list(row))
    return tuple(verdicts)


def verify_rodrigues_second(alpha, beta, nmax: int) -> tuple[bool, ...]:
    """Check the companion representation at x**(-beta) for every n <= nmax:

    family_n(x**(-beta)) = x**(alpha+1) * exp(-x**(-beta)) * E_n,
    E_n = (d/dx)**n g_n,  g_n = x**(n-1-alpha) * exp(x**(-beta)).

    Since g_{n+1} = x * g_n, Leibniz gives (d/dx)**(n+1) (x * g)
    = x * (d/dx)**(n+1) g + (n+1) * (d/dx)**n g, so
    E_{n+1} = (x*d/dx + n + 1) E_n: degree n is one Euler step on from
    degree n-1.  E_n is sum_j e_j * x**(-1 - alpha - j*beta) * exp(x**(-beta)):
    D_n = d**n * e_n walks on integers, and the identity is D_n == T(n, .).
    Entry n of the result is degree n's verdict; E_n never reads the
    triangle, so it depends on row n alone.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    d, a, b = common_scale(alpha, beta)
    _, rows = scaled_rows(alpha, beta, nmax)
    walk = _lattice_walk((i * d - a for i in range(nmax)), -b)
    return tuple(coeffs == list(row) for coeffs, row in zip(walk, rows))


def verify_bell_operator(alpha, beta, lam, nmax: int) -> bool:
    """Check the Euler-operator representation of shifted Bell polynomials
    for every n <= nmax:

    sum_j C(n, j) * lam**(n-j) * Bell_j(x**beta)
        = x**(-alpha) * exp(-x**beta)
          * ((x*d/dx - alpha)/beta + lam)**n (x**alpha * exp(x**beta)).

    The left side is the lam-shifted Bell polynomial (Dobinski weights
    (k + lam)**n instead of k**n) evaluated at x**beta; at lam = 0 it is
    the plain Bell polynomial.  The identity follows by conjugating the
    operator with x**alpha and substituting y = x**beta, which turns it
    into (y*d/dy + lam)**n acting on exp(y).  Degree n applies the
    operator once more to degree n-1's right side.

    The printed source states this with two misprints (the 1/beta factor
    missing from the operator, and the left side written as a Bell
    polynomial at a shifted argument); its own derivation carries
    beta**(-n) * (x*d/dx - alpha)**n and the lam**(n-j) weights verified
    here, and only this form holds for beta != 1 or lam != 0.  With lam = p/q,
    q**n times the Bell sum is an integer triangle product, and q**n times
    the right side, sum_j b_j * x**(alpha + j*beta) * exp(x**beta), a walk.
    """
    alpha, beta, lam = Fraction(alpha), Fraction(beta), Fraction(lam)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")

    p, q = lam.numerator, lam.denominator
    weights = [[comb(n, j) * p ** (n - j) * q**j for j in range(n + 1)] for n in range(nmax + 1)]
    shifted_bells = triangle_product(weights, bell_rows(nmax))
    return all(coeffs == bells for coeffs, bells in zip(_lattice_walk([p] * nmax, q), shifted_bells))
