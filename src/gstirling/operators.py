"""Exact symbolic algebra on finite sums of c * x**g * exp(x**b) terms.

The term shape is closed under d/dx and under x*d/dx, which is what the
derivative-representation identities of the family need.  Identities are
compared as maps from (rational) exponents to coefficients: finitely
many real powers of x with equal coefficient maps define equal functions
on x > 0, so the comparison is strictly stronger than any numeric check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from .family import bell_rows
from .qpoly import triangle_product
from .rationals import falling
from .stirling import triangle_rows


class ExpMonomialSum:
    """Finite sum of c * x**gamma * exp(x**beta_exp) with one shared beta_exp.

    Stored as an exponent-to-coefficient map with no zero coefficients.
    """

    __slots__ = ("_beta", "_terms")

    def __init__(self, beta_exp, terms: Iterable = ()):
        beta = Fraction(beta_exp)
        if beta == 0:
            raise ValueError("the exponential exponent must be nonzero")
        acc: dict[Fraction, Fraction] = {}
        for g, c in terms:
            g = g if isinstance(g, Fraction) else Fraction(g)
            c = c if isinstance(c, Fraction) else Fraction(c)
            if g in acc:
                c += acc[g]
            if c:
                acc[g] = c
            else:
                acc.pop(g, None)
        self._beta = beta
        self._terms = acc

    @classmethod
    def monomial(cls, beta_exp, gamma, coeff=1) -> "ExpMonomialSum":
        return cls(beta_exp, ((gamma, coeff),))

    @property
    def beta_exp(self) -> Fraction:
        return self._beta

    def terms(self) -> dict[Fraction, Fraction]:
        return dict(self._terms)

    def coeff(self, gamma) -> Fraction:
        return self._terms.get(Fraction(gamma), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpMonomialSum):
            return NotImplemented
        return self._beta == other._beta and self._terms == other._terms

    def __repr__(self) -> str:
        body = ", ".join(
            f"{c} * x**{g}" for g, c in sorted(self._terms.items())
        )
        return f"ExpMonomialSum(beta_exp={self._beta}, [{body}] * exp(x**{self._beta}))"

    def __add__(self, other: "ExpMonomialSum") -> "ExpMonomialSum":
        if not isinstance(other, ExpMonomialSum):
            return NotImplemented
        if self._beta != other._beta:
            raise ValueError("cannot add sums over different exponential exponents")
        merged = list(self._terms.items()) + list(other._terms.items())
        return ExpMonomialSum(self._beta, merged)

    def scale(self, factor) -> "ExpMonomialSum":
        f = Fraction(factor)
        return ExpMonomialSum(self._beta, ((g, c * f) for g, c in self._terms.items()))

    def xshift(self, delta) -> "ExpMonomialSum":
        """Multiply by x**delta (delta may be any rational)."""
        d = Fraction(delta)
        return ExpMonomialSum(self._beta, ((g + d, c) for g, c in self._terms.items()))

    def derivative(self) -> "ExpMonomialSum":
        """Exact d/dx, term by term:

        c * x**g -> c*g * x**(g-1) + c*beta * x**(g+beta-1),
        both still against exp(x**beta).
        """
        b = self._beta
        out = []
        for g, c in self._terms.items():
            if g:
                out.append((g - 1, c * g))
            out.append((g + b - 1, c * b))
        return ExpMonomialSum(b, out)

    def euler_shift(self, c) -> "ExpMonomialSum":
        """Apply (x * d/dx + c) exactly."""
        shift = Fraction(c)
        b = self._beta
        out = []
        for g, coeff in self._terms.items():
            out.append((g, coeff * (g + shift)))
            out.append((g + b, coeff * b))
        return ExpMonomialSum(b, out)


def _expansion_crosscheck(e: ExpMonomialSum, alpha: Fraction, n: int, kmax: int) -> bool:
    """Cross-check e = (d/dx)**n (x**alpha * exp(x**beta)) against the
    termwise derivative of the expanded exponential:

    coefficient of x**(alpha + beta*k - n) must be falling(alpha + beta*k, n) / k!.
    """
    b = e.beta_exp
    for k in range(kmax + 1):
        acc = Fraction(0)
        for j in range(min(k, n) + 1):
            acc += e.coeff(alpha - n + j * b) / factorial(k - j)
        if acc != falling(alpha + b * k, n) / factorial(k):
            return False
    return True


def verify_rodrigues_first(alpha, beta, nmax: int) -> tuple[bool, ...]:
    """Check the derivative representation of the family at x**beta for
    every n <= nmax:

    family_n(x**beta) = (-1)**n * x**(n-alpha) * exp(-x**beta)
                        * (d/dx)**n (x**alpha * exp(x**beta)).

    Both sides are reduced to exponent maps (the exp factors cancel) and
    compared exactly; each n-fold derivative, one derivative on from the
    last, is additionally cross-checked against the termwise expansion of
    the exponential.  Entry n of the result is degree n's verdict: the
    derivatives never read the triangle, so it depends on row n alone.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    e = ExpMonomialSum.monomial(beta, alpha)
    verdicts = []
    for n, row in enumerate(triangle_rows(alpha, beta, nmax)):
        if n:
            e = e.derivative()
        lhs = e.xshift(n - alpha).scale(Fraction(-1) ** n)
        rhs = ExpMonomialSum(beta, ((beta * k, c) for k, c in enumerate(row)))
        verdicts.append(_expansion_crosscheck(e, alpha, n, n + 2) and lhs == rhs)
    return tuple(verdicts)


def verify_rodrigues_second(alpha, beta, nmax: int) -> tuple[bool, ...]:
    """Check the companion representation at x**(-beta) for every n <= nmax:

    family_n(x**(-beta)) = x**(alpha+1) * exp(-x**(-beta)) * E_n,
    E_n = (d/dx)**n g_n,  g_n = x**(n-1-alpha) * exp(x**(-beta)).

    Since g_{n+1} = x * g_n, Leibniz gives (d/dx)**(n+1) (x * g)
    = x * (d/dx)**(n+1) g + (n+1) * (d/dx)**n g, so
    E_{n+1} = (x*d/dx + n + 1) E_n: degree n is one Euler step on from
    degree n-1.  Entry n of the result is degree n's verdict; E_n never
    reads the triangle, so it depends on row n alone.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    e = ExpMonomialSum.monomial(-beta, -1 - alpha)
    verdicts = []
    for n, row in enumerate(triangle_rows(alpha, beta, nmax)):
        if n:
            e = e.euler_shift(n)
        rhs = ExpMonomialSum(-beta, ((-beta * k, c) for k, c in enumerate(row)))
        verdicts.append(e.xshift(alpha + 1) == rhs)
    return tuple(verdicts)


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
    q**n times the Bell sum is an integer triangle product.
    """
    alpha, beta, lam = Fraction(alpha), Fraction(beta), Fraction(lam)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")

    p, q = lam.numerator, lam.denominator
    weights = [[comb(n, j) * p ** (n - j) * q**j for j in range(n + 1)] for n in range(nmax + 1)]
    shifted_bells = triangle_product(weights, bell_rows(nmax))
    e = ExpMonomialSum.monomial(beta, alpha)
    inv_beta = 1 / beta
    for n in range(nmax + 1):
        if n:
            e = e.euler_shift(lam * beta - alpha).scale(inv_beta)
        lhs = ExpMonomialSum(beta, ((beta * i, Fraction(c, q**n)) for i, c in enumerate(shifted_bells[n])))
        if lhs != e.xshift(-alpha):
            return False
    return True
