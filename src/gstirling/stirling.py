"""Coefficient triangles.

The central object is the two-parameter Stirling-type triangle S(n, k) of a
pair (alpha, beta): the coefficients of the polynomial family in the monomial
basis.  Around it sit its inverse, the classical Stirling numbers of both
kinds, the Lah and r-Lah numbers (a closed form) and partial (r-)Bell values.
``_TRIANGLES``, the package's only cache, keeps each pair's triangle as the
integer rows T(n, k) = d**n * S(n, k) of ``scaled_rows``, grown when read; a
``Fraction`` row is reduced from them only where a caller reads one.  The
other routes run on integers too: the alternating sum as k! * T(n, k)
(``explicit_rows``), and the column extraction ``series.columns`` behind
``gstirling_egf``, ``partial_r_bell_rows`` and ``verify_rbell_connection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, perm, prod
from typing import Sequence

from .qpoly import rising_rows, triangle_product
from .rationals import common_scale, scaled_row
from .series import column_rows, columns, family_columns, u_binomial, u_mul


def _check_indices(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError(f"triangle indices must be >= 0, got (n={n}, k={k})")
    if k > n:
        raise ValueError(f"triangle index k={k} exceeds n={n}")


_TRIANGLES: dict = {}


def _grown(rows: tuple, nmax: int, step) -> tuple:
    """``rows`` extended to rows 0..nmax, row m+1 being ``step(m, row_m)``.

    A longer tuple replaces the stored one, so rows already handed out
    never change.
    """
    if len(rows) > nmax:
        return rows
    grown = list(rows)
    for m in range(len(rows) - 1, nmax):
        grown.append(step(m, grown[m]))
    return tuple(grown)


@dataclass
class _Triangle:
    """The ``_TRIANGLES`` entry of one (alpha, beta): the integer rows
    T(m, k) = d**m * S(m, k) of ``scaled_rows``, grown only when asked for."""

    scale: int  # (scale, a, b) is (d, alpha*d, beta*d) of ``common_scale``
    a: int
    b: int
    rows: tuple = ((1,),)

    def step(self, m: int, row: tuple) -> tuple:
        """Integer row m+1 from integer row m.

        The recurrence S(m+1, j) = (m - alpha - beta*j) * S(m, j) - beta * S(m, j-1),
        seeded with S(0, 0) = 1 and zero outside 0 <= j <= m, becomes
        T(m+1, j) = (m*d - a - b*j) * T(m, j) - b * T(m, j-1) on integers.
        """
        d, a, b = self.scale, self.a, self.b
        padded = (0, *row, 0)
        return tuple((m * d - a - b * j) * padded[j + 1] - b * padded[j] for j in range(m + 2))


def scaled_rows(
    alpha: Fraction, beta: Fraction, nmax: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows 0..nmax of T(m, k) = d**m * S(m, k)), d from ``common_scale``.

    Every T(m, k) is an integer, so S(m, k) is ``Fraction(T(m, k), d**m)``;
    callers that need one row reduce only that.  One triangle is kept per
    (alpha, beta) and grown when a larger nmax is asked for.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    entry = _TRIANGLES.get((alpha, beta))
    if entry is None:
        entry = _TRIANGLES[(alpha, beta)] = _Triangle(*common_scale(alpha, beta))
    entry.rows = _grown(entry.rows, nmax, entry.step)
    return entry.scale, entry.rows[: nmax + 1]


def _reduced(d: int, rows: tuple, first: int = 0):
    """Rows first.. of integer ``rows`` at scale d as ``Fraction`` rows of S,
    each reduced to lowest terms as it is read."""
    for n in range(first, len(rows)):
        scale = d**n
        yield tuple(Fraction(v, scale) for v in rows[n])


def triangle_rows(alpha: Fraction, beta: Fraction, nmax: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows 0..nmax of S(n, k) as ``Fraction``s, reduced from ``scaled_rows``."""
    return tuple(_reduced(*scaled_rows(alpha, beta, nmax)))


def triangle_row(alpha: Fraction, beta: Fraction, n: int) -> tuple[Fraction, ...]:
    """Row n of S(n, k) as ``Fraction``s: row n of ``scaled_rows`` over d**n."""
    return next(_reduced(*scaled_rows(alpha, beta, n), n))


def gstirling_table(alpha, beta, nmax: int):
    """Rows 0..nmax of the triangle by its recurrence (the default, cheapest
    route), yielded one at a time, each reduced to ``Fraction``s as it is read."""
    return _reduced(*scaled_rows(Fraction(alpha), Fraction(beta), nmax))


def _alternating_sum(products: list[int], k: int) -> int:
    """sum_{j<=k} (-1)**(k-j) * C(k, j) * products[j]: k! * d**n * S(n, k) for
    products[j] = d**n * rising(-alpha - beta*j, n) = prod_{i<n} (i*d - a - b*j)."""
    return sum((-1) ** (k - j) * comb(k, j) * products[j] for j in range(k + 1))


def explicit_rows(alpha, beta, nmax: int) -> tuple[int, list[list[int]]]:
    """(d, rows 0..nmax of k! * T(n, k)): the explicit route on integers, each
    entry an ``_alternating_sum``; ``u_binomial(a + b*j, d, nmax)`` grows the
    product for j by one factor per n, and ``products`` yields row n's."""
    d, a, b = common_scale(Fraction(alpha), Fraction(beta))
    products = zip(*(u_binomial(a + b * j, d, nmax) for j in range(nmax + 1)))
    return d, [[_alternating_sum(p, k) for k in range(n + 1)] for n, p in enumerate(products)]


def gstirling_explicit(alpha, beta, n: int, k: int) -> Fraction:
    """Alternating-sum closed form, an independent route to one entry:
    S(n, k) = (1/k!) * sum_{j=0..k} (-1)**(k-j) * C(k, j) * rising(-alpha - beta*j, n),
    the integer ``_alternating_sum`` over k! * d**n (``common_scale``)."""
    _check_indices(n, k)
    d, a, b = common_scale(Fraction(alpha), Fraction(beta))
    products = [prod(range(-a - b * j, n * d - a - b * j, d)) for j in range(k + 1)]
    return Fraction(_alternating_sum(products, k), factorial(k) * d**n)


def gstirling_egf(alpha, beta, nmax: int) -> tuple[tuple[Fraction, ...], ...]:
    """Triangle extracted from column generating functions, a third route.

    Column k of the triangle has exponential generating function
    C_k = (1/k!) * ((1-t)**beta - 1)**k * (1-t)**alpha, so S(n, k) = n! * C_k[n],
    read off ``series.family_columns`` at scale d (any beta; at 0 only C_0 is nonzero).
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    return column_rows(*family_columns(alpha, beta, nmax))


def scaled_inverse_rows(alpha, beta, nmax: int) -> tuple[int, list[list[int]]]:
    """(d', rows 0..nmax of the inverse triangle times d'**n): entry (n, k) is
    (-1)**(n-k) * T'(n, k), T' the ``scaled_rows`` of the triangle at the
    parameters (-alpha/beta, 1/beta) and d' their common denominator."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the inverse triangle requires beta != 0")
    d, rows = scaled_rows(-alpha / beta, 1 / beta, nmax)
    return d, [[v if (n - k) % 2 == 0 else -v for k, v in enumerate(row)] for n, row in enumerate(rows)]


def gstirling_inverse(alpha, beta, n: int, k: int) -> Fraction:
    """Entry of the inverse triangle: (-1)**(n-k) * S'(n, k) where S' is the
    triangle at parameters (-alpha/beta, 1/beta) (``scaled_inverse_rows``)."""
    _check_indices(n, k)
    d, rows = scaled_inverse_rows(alpha, beta, n)
    return Fraction(rows[n][k], d**n)


def _stirling_rows(kind: int, nmax: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..nmax of the signed Stirling triangle of the first or second
    kind: c(n+1, k) = c(n, k-1) + w * c(n, k), with w = -n or w = k."""

    def step(n, row):
        padded = (0,) + row + (0,)
        return tuple(
            padded[k] + (-n if kind == 1 else k) * padded[k + 1] for k in range(n + 2)
        )

    key = ("stirling", kind)
    rows = _TRIANGLES[key] = _grown(_TRIANGLES.get(key, ((1,),)), nmax, step)
    return rows[: nmax + 1]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind (set-partition counts)."""
    _check_indices(n, k)
    return _stirling_rows(2, n)[n][k]


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind."""
    _check_indices(n, k)
    return _stirling_rows(1, n)[n][k]


def rlah(r: int, n: int, k: int) -> Fraction:
    """r-Lah number with full indices (both arguments already include r).

    The closed form (n-r)!/(k-r)! * C(n+r-1, k+r-1) (Nyul and Racz, "The
    r-Lah numbers", Discrete Math. 338, 2015); k = 0 forces r = 0, where only
    the empty arrangement counts.  It equals the partial r-Bell value at
    a_j = j! and b_{j+1} = (j+1)!.  The plain Lah numbers are the r = 0
    column of this family.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    _check_indices(n, k)
    if k < r:
        raise ValueError(f"need k >= r, got k={k}, r={r}")
    if k == 0:
        return Fraction(int(n == 0))
    # perm(n - r, n - k) is (n-r)!/(k-r)!
    return Fraction(perm(n - r, n - k) * comb(n + r - 1, k + r - 1))


def lah(n: int, k: int) -> Fraction:
    """Lah number L(n, k) = n!/k! * C(n-1, k-1)."""
    return rlah(0, n, k)


def _r_bell_columns(r: int, nmax: int, factor: list, base: list) -> list[list[int]]:
    """``series.columns`` of factor**r * base**k / k!, u-forms through t**nmax
    at one scale."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    head = [1] + [0] * nmax
    for bit in bin(r)[2:]:  # factor**r by squaring, so the cost grows with log(r)
        head = u_mul(head, head)
        if bit == "1":
            head = u_mul(head, factor)
    return columns(head, base)


def partial_r_bell_rows(r: int, nmax: int, a: Sequence, b: Sequence = ()) -> tuple[tuple, ...]:
    """Partial r-Bell values: entry [n][k], k <= n <= nmax, is the value with
    full indices (n+r, k+r), n! times the t**n coefficient of
    (1/k!) * (sum_{j>=1} a_j t**j / j!)**k * (sum_{j>=0} b_{j+1} t**j / j!)**r,
    read by ``series.column_rows`` at L, the lcm of the sequences' denominators.
    ``a`` lists a_1..a_nmax and ``b`` lists b_1..b_{nmax+1}."""
    if len(a) < nmax:
        raise ValueError(f"sequence a needs {nmax} terms, got {len(a)}")
    if r >= 1 and len(b) < nmax + 1:
        raise ValueError(f"sequence b needs {nmax + 1} terms, got {len(b)}")
    a = [Fraction(v) for v in a[:nmax]]
    b = [Fraction(v) for v in b[: nmax + 1]] if r else []
    scale = lcm(*(v.denominator for v in a + b))
    # L**(j+1) * a_{j+1} and L**(j+1) * b_{j+1}: the base's u-form, L times the factor's
    base = [0] + [v * scale**j for j, v in enumerate(scaled_row(a, scale))]
    factor = [v * scale**j for j, v in enumerate(scaled_row(b, scale))]
    return column_rows(scale, _r_bell_columns(r, nmax, factor, base), r)


def verify_rbell_connection(alpha, beta, r: int, nmax: int) -> bool:
    """Check that the triangle at (r*alpha, beta) equals the partial r-Bell
    triangle at a_j = rising(-beta, j), b_{j+1} = rising(-alpha, j) up to nmax.
    Their u-forms at scale d are d**j * rising(-beta, j) = prod_{i<j} (i*d - b)
    and d**j * rising(-alpha, j), so column k's entry n is d**n times the value,
    and T(n, k) of ``scaled_rows``, at d' dividing d, is lifted by (d/d')**n."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta == 0:
        raise ValueError("the family requires beta != 0")
    d, a, b = common_scale(alpha, beta)
    cols = _r_bell_columns(r, nmax, u_binomial(a, d, nmax), [0] + u_binomial(b, d, nmax)[1:])
    d_rows, rows = scaled_rows(r * alpha, beta, nmax)
    lift = d // d_rows
    return all(cols[k][n] == v * lift**n for n, row in enumerate(rows) for k, v in enumerate(row))


@dataclass(frozen=True)
class CompositionReport:
    """Outcome of the two-step parameter-composition identities.

    The printed source of these identities carries an ambiguous sign
    exponent, so both readings are tried: the sign following the inner
    summation index, and the sign following the fixed outer index.
    ``ok`` reflects the summation-index reading, which is the one the
    exact comparison confirms.
    """

    ok: bool
    outer_sign_ok: bool
    failures: tuple[tuple[int, int], ...]

    @property
    def confirmed_sign(self) -> str:
        if self.ok and not self.outer_sign_ok:
            return "summation-index"
        if self.outer_sign_ok and not self.ok:
            return "outer-index"
        if self.ok and self.outer_sign_ok:
            return "both (degenerate parameters)"
        return "neither"


def composition_report(alpha, beta, alpha2, beta2, nmax: int) -> CompositionReport:
    """Test the composition of two triangles through an intermediate one.

    With composed parameters (alpha - (alpha2/beta2)*beta, beta/beta2),
    the identities under test are::

        S[alpha,beta](n, k) = sum_j (+-1) * S[composed](n, j) * S[alpha2,beta2](j, k)
        rising(-alpha - beta*x, n) = sum_j (+-1) * S[composed](n, j) * rising(-alpha2 - beta2*x, j)

    with the sign exponent resolved to the summation index j.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    alpha2, beta2 = Fraction(alpha2), Fraction(beta2)
    if beta2 == 0:
        raise ValueError("composition requires the target beta != 0")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")

    # row n of each sum carries (dc * d2)**n, row n of T and R carries d**n
    dc, composed = scaled_rows(alpha - (alpha2 / beta2) * beta, beta / beta2, nmax)
    d, left = scaled_rows(alpha, beta, nmax)
    d2, right = scaled_rows(alpha2, beta2, nmax)
    _, lhs_rising = rising_rows(alpha, beta, nmax)
    _, rising_targets = rising_rows(alpha2, beta2, nmax)
    signed = [[c if j % 2 == 0 else -c for j, c in enumerate(row)] for row in composed]
    index_sums, index_risings = (triangle_product(signed, t, d2) for t in (right, rising_targets))
    outer_sums, outer_risings = (triangle_product(composed, t, d2) for t in (right, rising_targets))

    outer_ok = True
    failures: list[tuple[int, int]] = []
    for n in range(nmax + 1):
        up, down = d**n, (dc * d2) ** n
        failures += [(n, k) for k in range(n + 1) if index_sums[n][k] * up != left[n][k] * down]
        outer_ok &= all((-1) ** k * outer_sums[n][k] * up == left[n][k] * down for k in range(n + 1))
        if [v * up for v in index_risings[n]] != [v * down for v in lhs_rising[n]]:
            failures.append((n, -1))
        outer_ok &= [(-1) ** n * v * up for v in outer_risings[n]] == [v * down for v in lhs_rising[n]]

    return CompositionReport(ok=not failures, outer_sign_ok=outer_ok, failures=tuple(failures))
