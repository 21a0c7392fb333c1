"""Exact real-root counting, isolation, and the region/log-concavity checks.

Root counts come from sign-variation differences along the signed
remainder chain of p and p', built once over the integers by
``qpoly.remainder_sequence`` as a tuple of integer members.  Its last
member is gcd(p, p'), so one chain gives the distinct-root count, the
square-free part p / gcd(p, p') (``_divide_gcd``, on integer rows) and
the verdict: p is real-rooted exactly when it has deg p - deg gcd(p, p')
distinct real roots.  A family member's chain is read off its integer row of
``scaled_rows``, a positive multiple of it.  Root isolation bisects
[-B, B] on exact counts, where B = 1 + max|c_i/c_n| is the Cauchy bound
read off the chain's first member, p as integers; once a root is alone
in its interval, bisection follows the sign of p only.  Every sign is read from one integer kernel,
``_sign_at``: the sign of q(n/d) with d > 0 is the sign of the integer
sum of c_i * n**i * d**(deg - i), and at (+-1, 0) the same sum is q's
leading term, whose sign is q's at +-infinity.  Bisection points are
integer numerators over one shared denominator, so no Fraction is built
until an interval is reported, and the intervals are exactly those of a
bisection on rational values.  An interval either provably contains one
root or provably does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .family import FamilyParams
from .qpoly import QPolynomial, _primitive, _pseudo_divide, remainder_sequence
from .stirling import scaled_rows

REGION_MAIN = "A"
REGION_SECONDARY = "A-tilde"
REGION_NONE = "neither"


def sturm_chain(p: QPolynomial) -> tuple[tuple[int, ...], ...]:
    """The signed remainder sequence of p and p' as a tuple of integer
    members: p, p', then each member the negated remainder of the two
    before it, down to the last nonzero one, which is gcd(p, p') up to a
    constant factor (a constant for square-free p).

    Member i is scaled by a positive rational to coprime integer
    coefficients, low degree first, so it has the signs of the rational one.
    """
    if p.is_zero:
        raise ValueError("no remainder chain for the zero polynomial")
    return remainder_sequence(p, p.derivative())


def _row_chain(row) -> tuple[tuple[int, ...], ...]:
    """``sturm_chain`` of p, read off the integer coefficients ``row`` of any
    positive multiple of p, low degree first."""
    return remainder_sequence(row, [i * c for i, c in enumerate(row)][1:])


def _sign_at(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """Sign of the sum of c_i * num**i * den**(deg - i), for den >= 0.

    For den > 0 it is the sign of q(num/den); at (+-1, 0) only the leading
    term is left, whose sign is that of q at +-infinity.
    """
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _chain_signs(chain: tuple[tuple[int, ...], ...], num: int, den: int) -> tuple[int, int]:
    """(Sign changes along the chain, sign of p) at the point ``_sign_at``
    reads; members that vanish there are skipped."""
    signs = [_sign_at(q, num, den) for q in chain]
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:])), signs[0]


def _divide_gcd(row, last: tuple[int, ...]) -> tuple[int, ...]:
    """``row``, the integer coefficients of a positive multiple of p, over
    ``last``, the last member of p's chain, as coprime integers: the quotient
    of ``_pseudo_divide``, a positive multiple of it, over its content.  A
    nonzero remainder raises ValueError."""
    quo, rem = _pseudo_divide(row, last)
    if any(rem):
        raise ValueError("polynomial division left a nonzero remainder")
    return _primitive(quo)


def square_free_part(p: QPolynomial) -> QPolynomial:
    """p divided by gcd(p, p'): same distinct roots, all simple, and the
    same leading coefficient."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no square-free part")
    chain = sturm_chain(p)  # chain[0] is p as coprime integers
    quo = _divide_gcd(chain[0], chain[-1])
    return QPolynomial(Fraction(c, quo[-1]) * p.lead for c in quo)


def _count_distinct(chain: tuple[tuple[int, ...], ...]) -> int:
    """Distinct real roots of p.  Square-freeness is not needed: dividing
    every member by gcd(p, p') leaves the sign variations at -/+ infinity
    unchanged."""
    return _chain_signs(chain, -1, 0)[0] - _chain_signs(chain, 1, 0)[0]


def all_roots_real(p: QPolynomial) -> bool:
    """True iff the total multiplicity of real roots equals the degree.

    p has deg p - deg gcd(p, p') distinct roots, so all of them are real
    exactly when the chain counts that many distinct real roots; every
    root of gcd(p, p') is one of them.
    """
    if p.degree < 1:
        raise ValueError("real-rootedness is only defined for degree >= 1")
    chain = sturm_chain(p)
    return _count_distinct(chain) == p.degree - (len(chain[-1]) - 1)


def real_rooted_row(row) -> bool:
    """``all_roots_real`` of the polynomial with integer coefficients ``row``."""
    chain = _row_chain(row)
    return _count_distinct(chain) == len(chain[0]) - len(chain[-1])


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
    # the chain ends in gcd(p, p') up to a constant factor
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        raise ValueError("root isolation requires square-free input")
    return _isolate(chain, max_width)


def _isolate(chain: tuple[tuple[int, ...], ...], max_width) -> list[tuple[Fraction, Fraction]]:
    """``isolate_roots`` on the chain of a square-free polynomial."""
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError(f"max_width must be > 0, got {max_width}")
    if len(chain[0]) < 2:
        return []

    # Points are lo/den, hi/den and mid/den with one shared den > 0; halving
    # doubles all three, so every point stays an exact integer ratio.
    # v_lo is the chain's variation count at lo, s_hi the sign of p at hi.
    width_num, width_den = max_width.numerator, max_width.denominator
    found: list[tuple[Fraction, Fraction]] = []

    def refine(lo: int, hi: int, den: int, s_hi: int) -> None:
        # exactly one root in (lo, hi]; shrink until the closed interval
        # is narrow, starts strictly after the original left endpoint, and
        # has no root at either endpoint.  Every point moved to is a mid
        # with p(mid) != 0, so only the original hi needs a zero test.
        # p changes sign only at the simple root, so the root lies in
        # (mid, hi] exactly when p(mid) and p(hi) differ in sign.
        if s_hi == 0:
            found.append((Fraction(hi, den), Fraction(hi, den)))
            return
        moved = False
        while not (moved and (hi - lo) * width_den <= width_num * den):
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            mid = (lo + hi) // 2
            s_mid = _sign_at(chain[0], mid, den)
            if s_mid == 0:
                found.append((Fraction(mid, den), Fraction(mid, den)))
                return
            if s_mid == s_hi:
                hi = mid
            else:
                lo, moved = mid, True
        found.append((Fraction(lo, den), Fraction(hi, den)))

    def split(lo: int, hi: int, den: int, v_lo: int, s_hi: int, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            refine(lo, hi, den, s_hi)
            return
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        v_mid, s_mid = _chain_signs(chain, mid, den)
        left = v_lo - v_mid
        split(lo, mid, den, v_lo, s_mid, left)
        split(mid, hi, den, v_mid, s_hi, count - left)

    # the Cauchy bound; scaling p to integers leaves every |c_i/c_n| alone
    lead = abs(chain[0][-1])
    bound = Fraction(lead + max(abs(c) for c in chain[0][:-1]), lead)
    num, den = bound.numerator, bound.denominator
    v_lo, _ = _chain_signs(chain, -num, den)
    v_hi, s_hi = _chain_signs(chain, num, den)
    split(-num, num, den, v_lo, s_hi, v_lo - v_hi)
    return found


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


def asserted_degrees(alpha, beta, nmax: int) -> range:
    """The degrees among 1..nmax whose real-rootedness the region
    classification asserts: all of them in the main region, those up to
    ceil(alpha) in the secondary region, none elsewhere."""
    region = classify_region(alpha, beta)
    if region == REGION_MAIN:
        return range(1, nmax + 1)
    if region == REGION_SECONDARY:
        return range(1, min(nmax, math.ceil(Fraction(alpha))) + 1)
    return range(1, 1)


@dataclass(frozen=True)
class RegionRow:
    n: int
    all_real: bool
    asserted: bool
    roots: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class RegionReport:
    """Per-degree real-rootedness results for one parameter pair.

    ``asserted`` marks the degrees ``asserted_degrees`` names.  Degrees
    outside the guarantee are still computed and reported, but nothing
    is claimed about them.
    """

    params: FamilyParams
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
    asserted = asserted_degrees(params.alpha, params.beta, nmax)
    _, triangle = scaled_rows(params.alpha, params.beta, nmax)
    rows = []
    for n in range(1, nmax + 1):
        # q has p's roots, all simple: one interval per distinct real root.
        # For square-free p, q is p, and the chain of row n, d**n * p, serves both steps.
        chain = _row_chain(triangle[n])
        if len(chain[-1]) > 1:
            chain = _row_chain(_divide_gcd(triangle[n], chain[-1]))
        roots = tuple(_isolate(chain, max_width))
        rows.append(
            RegionRow(
                n=n,
                all_real=len(roots) == len(chain[0]) - 1,
                asserted=n in asserted,
                roots=roots,
            )
        )
    return RegionReport(params=params, region=region, results=tuple(rows))


def check_newton_logconcave(params: FamilyParams, n: int) -> bool:
    """Strict-log-concavity inequality on triangle row n:

    S(n, k)**2 >= (1 + 1/k) * (1 + 1/(n-k)) * S(n, k+1) * S(n, k-1)
    for 1 <= k <= n-1, in exact arithmetic.  Multiplied by k*(n-k)*d**(2n) > 0
    it reads k*(n-k) * T(n, k)**2 >= (k+1)*(n-k+1) * T(n, k+1) * T(n, k-1)
    on the integer row T(n, .) = d**n * S(n, .) of ``scaled_rows``.

    Only the hypothesis alpha <= 0, beta < 0 is accepted; outside it the
    claim is not made and the parameters are rejected.
    """
    if params.alpha > 0 or params.beta >= 0:
        raise ValueError(
            "log-concavity is only claimed for alpha <= 0 and beta < 0"
        )
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    row = scaled_rows(params.alpha, params.beta, n)[1][n]
    return all(
        k * (n - k) * row[k] ** 2 >= (k + 1) * (n - k + 1) * row[k + 1] * row[k - 1]
        for k in range(1, n)
    )
