"""The two-parameter polynomial family and its named specializations.

Polynomials are built from the coefficient triangle (single source of
truth); the addition formula, the basis changes and the summed evaluation
are independent expressions of the same family and double as cross-checks
on one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial

from .qpoly import QPolynomial, linear_products, rising_polys, triangle_product
from .rationals import common_scale, rising, scaled_row
from .stirling import lah, scaled_rows, stirling2, triangle_row


@dataclass(frozen=True)
class FamilyParams:
    """The (alpha, beta) parameter pair; beta must be nonzero."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta == 0:
            raise ValueError("the family requires beta != 0")


def poly(params: FamilyParams, n: int) -> QPolynomial:
    """Degree-n member of the family, with triangle row n as coefficients:
    integer row n of the pair's triangle, walked on past the stored rows and
    reduced over d**n (``triangle_row``), the only row turned into
    ``Fraction``s for it."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return QPolynomial(triangle_row(params.alpha, params.beta, n))


def bell_rows(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient rows of the Bell polynomials Bell_0..Bell_nmax: row n
    holds the second-kind Stirling numbers S2(n, 0..n)."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    return tuple(tuple(stirling2(n, k) for k in range(n + 1)) for n in range(nmax + 1))


# eval_dobinski sums at least 4*|x| exact terms, each longer as |x| grows;
# past this |x| a call would run for minutes to hours, so it is rejected
MAX_ABS_X = 10**4


def eval_dobinski(params: FamilyParams, n: int, x, epsilon) -> float | Decimal:
    """Evaluate the degree-n family member by its summed series form:

    exp(-x) * sum_{k>=0} rising(-alpha - beta*k, n) * x**k / k!.

    The sum is exact; it stops once a majorant of the tail drops below
    epsilon, so the result is within epsilon (plus float rounding) of the
    exact polynomial value.  Negative x is allowed; there the majorant
    uses absolute values and converges more slowly.  A value past the
    float range comes back as a Decimal rounded to 17 significant digits.

    With d the common denominator of alpha and beta, a = alpha*d, b = beta*d
    and x = p/q, the partial sum up to k is N / D with D = d**n * q**k * k!
    and N an integer: term k adds prod_{i<n} (-a - b*k + i*d) * p**k to N,
    and the majorant test compares integers over the same D.
    An |x| past ``MAX_ABS_X`` is rejected before summing.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    x = Fraction(x)
    if abs(x) > MAX_ABS_X:
        raise ValueError(f"|x| must be <= {MAX_ABS_X}, got {x}")
    alpha, beta = params.alpha, params.beta
    if x == 0:
        return _times_exp(rising(-alpha, n), x)

    # Tail budget for the pre-factor exp(-x): at most 1 for x >= 0, and
    # exp(-x) <= 4**(-x) gives a rational bound for x < 0.
    budget = eps if x > 0 else eps * Fraction(1, 4) ** (-math.floor(x))
    # Beyond start, the term majorant g(k) * |x|**k / k! at least halves
    # each step: (1 + 1/k)**n <= 2 once k >= 2n, and |x|/(k+1) <= 1/4.
    start = max(2 * n, math.ceil(4 * abs(x)), 1)
    d, a, b = common_scale(alpha, beta)
    p, q = x.numerator, x.denominator
    # d * (|alpha| + n + |beta|*k) is bound_base + |b|*k, so its n-th power
    # is d**n * g(k), the numerator of the majorant over den
    bound_base = abs(a) + n * d

    num, den = 0, d**n
    power = 1
    k = 0
    while True:
        first = -a - b * k
        num += math.prod(range(first, first + n * d, d)) * power
        if k >= start:
            majorant = (bound_base + abs(b) * k) ** n * abs(power)
            if majorant * budget.denominator < budget.numerator * den:
                break
        k += 1
        power *= p
        num *= q * k
        den *= q * k
    return _times_exp(Fraction(num, den), x)


def _times_exp(total: Fraction, x: Fraction) -> float | Decimal:
    """exp(-x) * total as a float, or where the float route leaves the float
    range, in ``decimal`` rounded to 17 significant digits; that value is
    returned as a float if it fits one."""
    try:
        value = math.exp(-float(x)) * float(total)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    with localcontext() as ctx:
        # guard digits: exp scales the relative rounding error of x by |x|
        ctx.prec = 40 + int(abs(x)).bit_length()
        exact = (-Decimal(x.numerator) / x.denominator).exp() * total.numerator / total.denominator
        ctx.prec = 17
        exact = +exact
    value = float(exact)
    return value if math.isfinite(value) else exact


def verify_bell_basis_forward(params: FamilyParams, nmax: int) -> bool:
    """Check the forward Bell-basis identity for every n <= nmax:

    sum_k (-1)**k * S2(n, k) * family_k(x)
        = sum_k C(n, k) * alpha**(n-k) * beta**k * Bell_k(x),

    both sides times d**n as integer triangle products ((d, a, b) from ``common_scale``).
    """
    d, a, b = common_scale(params.alpha, params.beta)
    _, rows = scaled_rows(params.alpha, params.beta, nmax)
    bells = bell_rows(nmax)
    signed = [[v if k % 2 == 0 else -v for k, v in enumerate(row)] for row in bells]
    weights = [[comb(n, k) * a ** (n - k) * b**k for k in range(n + 1)] for n in range(nmax + 1)]
    return triangle_product(signed, rows, d) == triangle_product(weights, bells)


def rebase(params_from: FamilyParams, params_to: FamilyParams, n: int) -> list[Fraction]:
    """Connection coefficients from one parameter pair to another.

    Coefficient j is (-1)**j times the triangle entry (n, j) at the
    composed parameters (alpha - (alpha'/beta')*beta, beta/beta').
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a, b = params_from.alpha, params_from.beta
    a2, b2 = params_to.alpha, params_to.beta
    d, rows = scaled_rows(a - (a2 / b2) * b, b / b2, n)  # stored: callers loop over n
    composed = [Fraction(v, d**n) for v in rows[n]]
    return [composed[j] if j % 2 == 0 else -composed[j] for j in range(n + 1)]


def reconstructs(coeff_rows, params_to: FamilyParams, params_from: FamilyParams) -> bool:
    """Whether row n of coeff_rows, summed against the members of params_to,
    is member n of params_from for every n: on integers, with row n lifted
    by the lcm L of its denominators, at scale L * d_to**n * d_from**n."""
    nmax = len(coeff_rows) - 1
    d_from, source = scaled_rows(params_from.alpha, params_from.beta, nmax)
    d_to, target = scaled_rows(params_to.alpha, params_to.beta, nmax)
    scales = [math.lcm(*(v.denominator for v in row)) for row in coeff_rows]
    product = triangle_product([scaled_row(r, s) for r, s in zip(coeff_rows, scales)], target, d_to)
    return all(
        [v * d_from**n for v in product[n]] == [v * scales[n] * d_to**n for v in source[n]]
        for n in range(nmax + 1)
    )


def scaled_addition(params: FamilyParams, n: int, m: int) -> tuple[int, list[int]]:
    """(d, d**(n+m) times the degree n+m member assembled by the
    index-splitting formula), d from ``common_scale``:

    sum_{j<=n} sum_{k<=m} C(n, j) * rising(m - beta*k, n-j) * S(m, k)
        * x**k * family_j(x).

    Every term is an integer over d**(n+m): d**(n-j) * rising(m - beta*k, n-j)
    is prod_{l<n-j} (m*d - b*k + l*d), and rows m and j are the integers
    d**m * S(m, k) and d**j * S(j, i) of ``scaled_rows``, so the result
    compares with T(n+m, .) of ``scaled_rows`` on integers.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be >= 0, got (n={n}, m={m})")
    d, _, b = common_scale(params.alpha, params.beta)
    _, rows = scaled_rows(params.alpha, params.beta, max(n, m))
    row_m = rows[m]
    out = [0] * (n + m + 1)
    for j in range(n + 1):
        row_j = rows[j]
        for k in range(m + 1):
            first = m * d - b * k
            scalar = comb(n, j) * math.prod(range(first, first + (n - j) * d, d)) * row_m[k]
            if scalar:
                # scalar * x**k * family_j(x), family_j having row j as coefficients
                for i, c in enumerate(row_j):
                    out[i + k] += scalar * c
    return d, out


U_PARAMS = FamilyParams(Fraction(-1, 2), Fraction(-1, 2))
V_PARAMS = FamilyParams(Fraction(-3, 2), Fraction(-1, 2))


def family_U(n: int) -> QPolynomial:
    """The first classical specialization: parameters (-1/2, -1/2)."""
    return poly(U_PARAMS, n)


def family_V(n: int) -> QPolynomial:
    """The second classical specialization: parameters (-3/2, -1/2)."""
    return poly(V_PARAMS, n)


def laguerre_params(lam) -> FamilyParams:
    return FamilyParams(-Fraction(lam) - 1, Fraction(-1))


def family_laguerre(lam, n: int) -> QPolynomial:
    """Generalized Laguerre polynomial as the (-lambda-1, -1) member over n!.

    This follows the source convention with argument +x; the common
    classical convention is recovered by substituting x -> -x.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Fraction(1, factorial(n)) * poly(laguerre_params(lam), n)


def family_assoc_lah(m: int, n: int) -> QPolynomial:
    """Associated Lah polynomial: the (0, -m) member, m a positive integer."""
    if m < 1:
        raise ValueError(f"the associated Lah family requires m >= 1, got {m}")
    return poly(FamilyParams(Fraction(0), Fraction(-m)), n)


@dataclass(frozen=True)
class RisingExpansion:
    """Both sides of the rising-into-falling factorial expansion, indexed by n."""

    lhs: tuple[QPolynomial, ...]
    rhs: tuple[QPolynomial, ...]

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def rising_expansion(params: FamilyParams, nmax: int) -> RisingExpansion:
    """Expand rising(-alpha - beta*x, n) and sum_j S(n, j) * falling(x, j)
    into polynomials in x for every n <= nmax and report both sides.

    The left side is the integer walk ``rising_polys``.  The right side is
    the integer triangle product of T(n, j) = d**n * S(n, j) from
    ``scaled_rows`` with the falling-factorial rows of ``linear_products``,
    divided by d**n once.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    falling = linear_products((-j, 1) for j in range(nmax))
    d, rows = scaled_rows(params.alpha, params.beta, nmax)
    product = triangle_product(rows, falling)
    rhs = [QPolynomial(Fraction(v, d**n) for v in row) for n, row in enumerate(product)]
    return RisingExpansion(tuple(rising_polys(params.alpha, params.beta, nmax)), tuple(rhs))


@dataclass(frozen=True)
class LahRebaseReport:
    """Verdict on the sign convention of the Lah-number rebase.

    Rebasing onto the mirrored parameters (-alpha, -beta) produces Lah
    numbers up to sign; the printed source leaves the sign exponent
    dangling, and the exact reconstruction pins it to the summation
    index: coefficient k carries (-1)**k.
    """

    ok: bool
    constant_sign_ok: bool

    @property
    def confirmed_sign(self) -> str:
        return "(-1)**k on the k-th coefficient" if self.ok else "unresolved"


def lah_rebase_report(params: FamilyParams, nmax: int) -> LahRebaseReport:
    """Check that rebasing onto (-alpha, -beta) yields (-1)**k * L(n, k)
    and that those coefficients reconstruct the original polynomial."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    mirrored = FamilyParams(-params.alpha, -params.beta)
    coeffs = [rebase(params, mirrored, n) for n in range(nmax + 1)]
    unsigned = [[lah(n, k) for k in range(n + 1)] for n in range(nmax + 1)]
    signed = [[c if k % 2 == 0 else -c for k, c in enumerate(row)] for row in unsigned]
    return LahRebaseReport(
        ok=coeffs == signed and reconstructs(coeffs, mirrored, params),
        constant_sign_ok=reconstructs(unsigned, mirrored, params),
    )
