"""Exact real-root counting, isolation, and the region/log-concavity checks.

Root counts come from sign-variation differences along a signed remainder
chain; multiplicities are handled by recursive gcd splitting, and root
isolation bisects on exact counts.  Everything is rational arithmetic:
an interval either provably contains one root or provably does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .family import FamilyParams, poly
from .qpoly import QPolynomial, poly_divexact, poly_gcd
from .stirling import triangle_rows

REGION_MAIN = "A"
REGION_SECONDARY = "A-tilde"
REGION_NONE = "neither"


def _primitive(p: QPolynomial) -> QPolynomial:
    """Scale by a positive rational so coefficients are coprime integers."""
    if p.is_zero:
        return p
    den = 1
    for c in p.coefficients:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in p.coefficients]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return QPolynomial(Fraction(v // g) for v in ints)


@dataclass(frozen=True)
class SturmChain:
    """p, p', then sign-negated remainders (each rescaled by a positive
    rational) down to a constant for square-free input."""

    polys: tuple[QPolynomial, ...]


def sturm_chain(p: QPolynomial) -> SturmChain:
    if p.is_zero:
        raise ValueError("no remainder chain for the zero polynomial")
    chain = [p]
    nxt = _primitive(p.derivative())
    while not nxt.is_zero:
        chain.append(nxt)
        _, rem = divmod(chain[-2], chain[-1])
        nxt = _primitive(-rem)
    return SturmChain(tuple(chain))


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def _variations_at(chain: SturmChain, x: Fraction) -> int:
    return _variations(_sign(q(x)) for q in chain.polys)


def _variations_at_infinity(chain: SturmChain, positive: bool) -> int:
    signs = []
    for q in chain.polys:
        s = _sign(q.lead)
        if not positive and q.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def square_free_part(p: QPolynomial) -> QPolynomial:
    """p divided by gcd(p, p'): same distinct roots, all simple."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no square-free part")
    g = poly_gcd(p, p.derivative())
    return p if g.degree <= 0 else poly_divexact(p, g)


def _count_distinct(chain: SturmChain) -> int:
    return _variations_at_infinity(chain, False) - _variations_at_infinity(chain, True)


def _count_halfopen(chain: SturmChain, a: Fraction, b: Fraction) -> int:
    """Distinct roots in the half-open interval (a, b] for a square-free chain."""
    return _variations_at(chain, a) - _variations_at(chain, b)


def count_real_roots(p: QPolynomial) -> int:
    """Number of distinct real roots, from variations at minus/plus infinity."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no root count")
    return _count_distinct(sturm_chain(square_free_part(p)))


def all_roots_real(p: QPolynomial) -> bool:
    """True iff the total multiplicity of real roots equals the degree.

    The square-free part must have as many distinct real roots as its
    degree, and the repeated part (the gcd with the derivative) must
    itself be real-rooted, recursively.
    """
    if p.degree < 1:
        raise ValueError("real-rootedness is only defined for degree >= 1")
    g = poly_gcd(p, p.derivative())
    q = poly_divexact(p, g) if g.degree > 0 else p
    if _count_distinct(sturm_chain(q)) != q.degree:
        return False
    return g.degree < 1 or all_roots_real(g)


def _cauchy_bound(p: QPolynomial) -> Fraction:
    lead = abs(p.lead)
    longest = max((abs(c) for c in p.coefficients[:-1]), default=Fraction(0))
    return 1 + longest / lead


def isolate_roots(
    p: QPolynomial, max_width: Fraction = Fraction(1, 64)
) -> list[tuple[Fraction, Fraction]]:
    """Pairwise-disjoint rational intervals, one per distinct real root.

    Requires square-free input (callers divide out gcd(p, p') first);
    every interval has width <= max_width and contains exactly one root.
    An exactly-rational root is reported as a degenerate [r, r] interval.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if poly_gcd(p, p.derivative()).degree > 0:
        raise ValueError("root isolation requires square-free input")
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError(f"max_width must be > 0, got {max_width}")
    if p.degree < 1:
        return []

    chain = sturm_chain(p)
    bound = _cauchy_bound(p)
    found: list[tuple[Fraction, Fraction]] = []

    def refine(a: Fraction, b: Fraction) -> None:
        # exactly one root in (a, b]; shrink until the closed interval
        # [a, b] is narrow, starts strictly after the original left
        # endpoint, and has no root at either endpoint
        a_orig = a
        while True:
            if p(b) == 0:
                found.append((b, b))
                return
            if b - a <= max_width and a != a_orig and p(a) != 0:
                found.append((a, b))
                return
            mid = (a + b) / 2
            if p(mid) == 0:
                found.append((mid, mid))
                return
            if _count_halfopen(chain, a, mid) == 1:
                b = mid
            else:
                a = mid

    def split(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            refine(a, b)
            return
        mid = (a + b) / 2
        left = _count_halfopen(chain, a, mid)
        split(a, mid, left)
        split(mid, b, count - left)

    total = _count_halfopen(chain, -bound, bound)
    split(-bound, bound, total)
    return sorted(found)


def count_roots_between(p: QPolynomial, a: Fraction, b: Fraction) -> int:
    """Distinct roots of p in the half-open interval (a, b]."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no root count")
    return _count_halfopen(sturm_chain(square_free_part(p)), Fraction(a), Fraction(b))


def classify_region(alpha, beta) -> str:
    """Exact classification of a parameter pair into the two real-rootedness
    regions: the main region needs (beta-1)**2 + 4*alpha*beta >= 0 with
    beta < 0 and alpha <= 2; the secondary one needs beta > 0 and alpha >= 1."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta < 0 and alpha <= 2 and (beta - 1) ** 2 + 4 * alpha * beta >= 0:
        return REGION_MAIN
    if beta > 0 and alpha >= 1:
        return REGION_SECONDARY
    return REGION_NONE


@dataclass(frozen=True)
class RegionRow:
    n: int
    all_real: bool
    asserted: bool
    roots: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class RegionReport:
    """Per-degree real-rootedness results for one parameter pair.

    ``asserted`` marks the degrees the region classification covers: all
    degrees in the main region, degrees up to ceil(alpha) in the secondary
    region, none elsewhere.  Degrees outside the guarantee are still
    computed and reported, but nothing is claimed about them.
    """

    params: FamilyParams
    n_checked: int
    region: str
    results: tuple[RegionRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.all_real for row in self.results if row.asserted)

    def to_json_dict(self) -> dict:
        return {
            "alpha": str(self.params.alpha),
            "beta": str(self.params.beta),
            "region": self.region,
            "results": [
                {
                    "n": row.n,
                    "all_real": row.all_real,
                    "asserted": row.asserted,
                    "roots": [[str(lo), str(hi)] for lo, hi in row.roots],
                }
                for row in self.results
            ],
        }


def region_report(
    params: FamilyParams,
    nmax: int,
    max_width: Fraction = Fraction(1, 64),
) -> RegionReport:
    """Classify the parameters, then check real-rootedness degree by degree
    and isolate the real roots of each member's square-free part."""
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    region = classify_region(params.alpha, params.beta)
    covered_up_to = 0
    if region == REGION_MAIN:
        covered_up_to = nmax
    elif region == REGION_SECONDARY:
        covered_up_to = min(nmax, math.ceil(params.alpha))
    rows = []
    for n in range(1, nmax + 1):
        p = poly(params, n)
        rows.append(
            RegionRow(
                n=n,
                all_real=all_roots_real(p),
                asserted=n <= covered_up_to,
                roots=tuple(isolate_roots(square_free_part(p), max_width)),
            )
        )
    return RegionReport(params=params, n_checked=nmax, region=region, results=tuple(rows))


def check_newton_logconcave(params: FamilyParams, n: int) -> bool:
    """Strict-log-concavity inequality on triangle row n:

    S(n, k)**2 >= (1 + 1/k) * (1 + 1/(n-k)) * S(n, k+1) * S(n, k-1)
    for 1 <= k <= n-1, in exact arithmetic.

    Only the hypothesis alpha <= 0, beta < 0 is accepted; outside it the
    claim is not made and the parameters are rejected.
    """
    if params.alpha > 0 or params.beta >= 0:
        raise ValueError(
            "log-concavity is only claimed for alpha <= 0 and beta < 0"
        )
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    row = triangle_rows(params.alpha, params.beta, n)[n]
    for k in range(1, n):
        lhs = row[k] ** 2
        rhs = (1 + Fraction(1, k)) * (1 + Fraction(1, n - k)) * row[k + 1] * row[k - 1]
        if lhs < rhs:
            return False
    return True
