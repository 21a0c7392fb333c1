"""Built-in verification suite.

One place defines the parameter grid and every identity batch the CLI's
``verify`` command can run, so that ``verify --all`` is reproducible and
its output deterministic.  Each batch returns plain pass/fail results;
formatting and exit codes stay in the CLI layer.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import family, operators, series, stirling, zeros
from .qpoly import QPolynomial, rising_rows, triangle_product
from .rationals import common_scale, falling, rising

GRID_ALPHAS = tuple(
    Fraction(s) for s in ("-2", "-3/2", "-1", "-1/2", "0", "1/3", "1/2", "1", "2")
)
GRID_BETAS = tuple(Fraction(s) for s in ("-3", "-2", "-1", "-1/2", "1/2", "1", "2"))
GRID = tuple((a, b) for a in GRID_ALPHAS for b in GRID_BETAS)

# Deterministic sample of (source, target) parameter pairs for rebasing.
REBASE_PAIRS = tuple(
    (
        (Fraction(sa), Fraction(sb)),
        (Fraction(ta), Fraction(tb)),
    )
    for (sa, sb), (ta, tb) in (
        (("-1/2", "-1/2"), ("0", "-1")),
        (("-1/2", "-1/2"), ("-1/2", "-1/2")),
        (("-3/2", "-1/2"), ("0", "-2")),
        (("1", "-1"), ("0", "-2")),
        (("1", "-1"), ("-1", "1")),
        (("2", "3"), ("1", "1")),
        (("0", "-2"), ("-1", "-1")),
        (("1/3", "-3"), ("1/2", "1/2")),
        (("-2", "2"), ("2", "-1/2")),
        (("1/2", "1/2"), ("-3/2", "-1/2")),
    )
)

COMPOSITION_CASES = tuple(
    (Fraction(a), Fraction(b), Fraction(a2), Fraction(b2))
    for a, b, a2, b2 in (
        ("1", "-1", "0", "-2"),
        ("-1/2", "-1/2", "0", "-1"),
        ("2", "3", "1", "1"),
        ("-2", "1/2", "-1/2", "-3"),
    )
)

# the r values rbell checks when no --r is given
RBELL_RS = range(4)

DOBINSKI_EPS = Fraction(1, 10**12)
DOBINSKI_TOL = 1e-10
DOBINSKI_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class CheckResult:
    identity: str
    detail: str
    ok: bool

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.identity} {self.detail}"


def _pair(alpha: Fraction, beta: Fraction) -> str:
    return f"alpha={alpha} beta={beta}"


def _bell_lambdas(alpha: Fraction, beta: Fraction) -> tuple[Fraction, ...]:
    """The lambda values bell-operator checks when no --lambda is given."""
    return (Fraction(0), Fraction(1), alpha / beta)


# ---------------------------------------------------------------------------
# identity batches (each returns a bare bool for one parameter choice)


def triple_route_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    """Recurrence, explicit sum, and series extraction must agree entrywise,
    on integers: T(n, k) of ``scaled_rows`` is entry n of column k of
    ``series.family_columns``, and k! * T(n, k) is the explicit sum."""
    _, rows = stirling.scaled_rows(alpha, beta, nmax)
    _, cols = series.family_columns(alpha, beta, nmax)
    _, sums = stirling.explicit_rows(alpha, beta, nmax)
    return all(v == cols[k][n] and factorial(k) * v == sums[n][k]
               for n, row in enumerate(rows) for k, v in enumerate(row))


def first_values_ok(alpha: Fraction, beta: Fraction) -> bool:
    """Degrees 0..3 must match their printed closed forms exactly."""
    params = family.FamilyParams(alpha, beta)
    a, b = alpha, beta
    if family.poly(params, 0) != QPolynomial.one():
        return False
    if family.poly(params, 1) != QPolynomial((-a, -b)):
        return False
    if family.poly(params, 2) != QPolynomial((a * (a - 1), b * (2 * a + b - 1), b**2)):
        return False
    # degree 3 is printed with the argument -x/beta, so transform c_k -> c_k * (-1/b)**k
    p3 = family.poly(params, 3)
    transformed = QPolynomial(
        p3.coeff(k) * Fraction(-1) ** k / b**k for k in range(4)
    )
    expected = QPolynomial(
        (
            -falling(a, 3),
            3 * a**2 + 3 * a * b - 6 * a + b**2 - 3 * b + 2,
            -3 * (a + b - 1),
            Fraction(1),
        )
    )
    return transformed == expected


def recurrence_chain_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    """next = (n - alpha - beta*x) * p_n - beta*x * p_n' from p_0 = 1 gives each
    member: on integers, (n*d - a - b*x) * cur - b*x * cur' against T(n+1, .)."""
    d, a, b = common_scale(alpha, beta)
    _, rows = stirling.scaled_rows(alpha, beta, nmax)
    current = [1]
    for n in range(nmax):
        cur = [0, *current, 0]  # cur[j + 1] is the coefficient of x**j
        # coefficient j of (n*d - a) * cur, of -b*x * cur and of -b*x * cur'
        current = [(n * d - a) * cur[j + 1] - b * cur[j] - b * j * cur[j + 1] for j in range(n + 2)]
        if current != list(rows[n + 1]):
            return False
    return True


def inverse_pair_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    """Inverse-triangle row n, summed against the family members, is x**n: on
    integers, the inverse rows (scale d') times T (scale d) give (d*d')**n * x**n."""
    d, rows = stirling.scaled_rows(alpha, beta, nmax)
    d_inv, inverse = stirling.scaled_inverse_rows(alpha, beta, nmax)
    return all(
        row == [0] * n + [(d * d_inv) ** n]
        for n, row in enumerate(triangle_product(inverse, rows, d))
    )


def bell_basis_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    """Forward identity, round trip, and the printed general display, whose
    weight (-1)**k * alpha**(k-j) * beta**j is (-alpha)**(k-j) * (-beta)**j.
    The round trip: the Bell-basis rows of ``rising_rows`` times the Bell rows
    are T.  Times d**n, the display has the weight (-a)**(k-j) * (-b)**j on
    integers, and its rows are those of the same walk."""
    params = family.FamilyParams(alpha, beta)
    if not family.verify_bell_basis_forward(params, nmax):
        return False
    _, rows = stirling.scaled_rows(alpha, beta, nmax)
    _, bell_coeffs = rising_rows(alpha, beta, nmax)
    if triangle_product(bell_coeffs, family.bell_rows(nmax)) != [list(row) for row in rows]:
        return False
    d, a, b = common_scale(alpha, beta)
    return _bell_display(nmax, lambda k, j: (-a) ** (k - j) * (-b) ** j, d) == bell_coeffs


def _bell_display(nmax: int, weight, scale: int = 1) -> list[list]:
    """Rows 0..nmax of the printed display, entry j of row n
    sum_{k=j..n} C(k, j) * |s(n, k)| * weight(k, j), as one ``triangle_product``;
    where ``weight`` gives scale**k times the weight, row n gives scale**n times
    the display.  (Inverting the forward basis identity forces the C(k, j)
    factor; the printed displays omit it, which goes unnoticed where it is 1:
    alpha = 0, j = n, or n <= 1.)"""
    unsigned = [[abs(stirling.stirling1(n, k)) for k in range(n + 1)] for n in range(nmax + 1)]
    weights = [[math.comb(k, j) * weight(k, j) for j in range(k + 1)] for k in range(nmax + 1)]
    return triangle_product(unsigned, weights, scale)


def _bell_display_ok(params, nmax: int, weight) -> bool:
    """Bell-basis coefficient j of each member up to nmax, row n of one walk
    ``rising_rows`` over d**n, which reads off no Stirling number, must
    equal the printed display with ``weight``."""
    d, walk = rising_rows(params.alpha, params.beta, nmax)
    return all([v * d**n for v in row] == walk[n] for n, row in enumerate(_bell_display(nmax, weight)))


def u_bell_display_ok(nmax: int) -> bool:
    """The first specialization's printed display, weight 1/2**k."""
    return _bell_display_ok(family.U_PARAMS, nmax, lambda k, j: Fraction(1, 2**k))


def rbell_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    return all(stirling.verify_rbell_connection(alpha, beta, r, nmax) for r in RBELL_RS)


def addition_ok(alpha: Fraction, beta: Fraction, total: int) -> bool:
    """The index-splitting sum of degree n+m against triangle row n+m, both
    as integers at scale d**(n+m)."""
    params = family.FamilyParams(alpha, beta)
    _, rows = stirling.scaled_rows(alpha, beta, total)
    for n in range(total + 1):
        for m in range(total + 1 - n):
            if family.scaled_addition(params, n, m)[1] != list(rows[n + m]):
                return False
    return True


def gf_derivative_ok(alpha: Fraction, beta: Fraction, mmax: int, order: int) -> bool:
    return all(series.verify_gf_derivatives(alpha, beta, range(mmax + 1), order))


def rodrigues_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    return all(operators.verify_rodrigues_first(alpha, beta, nmax)) and all(
        operators.verify_rodrigues_second(alpha, beta, nmax)
    )


def bell_operator_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    return all(
        operators.verify_bell_operator(alpha, beta, lam, nmax)
        for lam in _bell_lambdas(alpha, beta)
    )


def rebase_roundtrip_ok(source, target, nmax: int) -> bool:
    p_from = family.FamilyParams(*source)
    p_to = family.FamilyParams(*target)
    coeffs = [family.rebase(p_from, p_to, n) for n in range(nmax + 1)]
    return family.reconstructs(coeffs, p_to, p_from)


def real_zeros_ok(alpha: Fraction, beta: Fraction, nmax_main: int) -> tuple[bool, int]:
    """Real-rootedness over the degrees up to nmax_main that the region
    classification asserts (``zeros.asserted_degrees``).

    Returns (ok, number of asserted degrees checked); zero asserted
    degrees means the parameters carry no claim.
    """
    degrees = zeros.asserted_degrees(alpha, beta, nmax_main)
    _, rows = stirling.scaled_rows(alpha, beta, len(degrees))  # degrees is 1..len
    for checked, n in enumerate(degrees, 1):
        if not zeros.real_rooted_row(rows[n]):  # d**n times member n
            return False, checked
    return True, len(degrees)


def log_concave_ok(alpha: Fraction, beta: Fraction, nmax: int) -> bool:
    """Newton inequality plus entrywise nonnegativity on the hypothesis set,
    read on the integer rows T(n, k) = d**n * S(n, k), which share S's signs."""
    params = family.FamilyParams(alpha, beta)
    _, rows = stirling.scaled_rows(alpha, beta, nmax)
    if any(v < 0 for row in rows for v in row):
        return False
    return all(zeros.check_newton_logconcave(params, n) for n in range(2, nmax + 1))


def _dobinski_close(params, n: int, scale: int = 1) -> bool:
    # tolerance is relative: family values on this grid reach ~1e10, where
    # an absolute 1e-10 would be below double-precision resolution
    for x in DOBINSKI_POINTS:
        approx = family.eval_dobinski(params, n, x, DOBINSKI_EPS) / scale
        exact = float(family.poly(params, n)(x) / scale)
        if abs(approx - exact) > DOBINSKI_TOL * max(1.0, abs(exact)):
            return False
    return True


def specializations_ok(nmax: int) -> list[tuple[str, bool]]:
    """(detail, ok) for each named specialization, in print order."""
    results = []

    for name, params in (("U", family.U_PARAMS), ("V", family.V_PARAMS)):
        ok = all(_dobinski_close(params, n) for n in range(nmax + 1))
        ok = ok and stirling.verify_rbell_connection(
            params.alpha, params.beta, 1, nmax
        )
        if name == "U":
            ok = ok and u_bell_display_ok(nmax)
        else:
            ok = ok and _bell_display_ok(params, nmax, lambda k, j: Fraction(3, 2) ** k / 3**j)
        results.append((f"family={name} n<={nmax}", ok))

    for lam in (Fraction(0), Fraction(1), Fraction(5, 2)):
        lparams = family.laguerre_params(lam)
        ok = True
        for n in range(nmax + 1):
            if not _dobinski_close(lparams, n, scale=factorial(n)):
                ok = False
            lag = family.family_laguerre(lam, n)
            if lag * Fraction(factorial(n)) != family.poly(lparams, n):
                ok = False
        ok = ok and _bell_display_ok(lparams, nmax, lambda k, j: (lam + 1) ** (k - j))
        ok = ok and stirling.verify_rbell_connection(
            lparams.alpha, lparams.beta, 1, nmax
        )
        results.append((f"family=laguerre lambda={lam} n<={nmax}", ok))

    for m in (1, 2, 3):
        ok = True
        lah_params = family.FamilyParams(Fraction(0), Fraction(-m))
        bell = stirling.partial_r_bell_rows(0, nmax, [rising(m, j) for j in range(1, nmax + 1)])
        for n in range(nmax + 1):
            if family.family_assoc_lah(m, n) != QPolynomial(bell[n]):
                ok = False
            if not _dobinski_close(lah_params, n):
                ok = False
        # alpha = 0 leaves only the k = j term: m**j * |s(n, j)|
        ok = ok and _bell_display_ok(lah_params, nmax, lambda k, j: m**j if k == j else 0)
        results.append((f"family=assoc-lah m={m} n<={nmax}", ok))

    ok = True
    for n in range(7):
        row = stirling.triangle_row(Fraction(-2), Fraction(-1), n)
        if row != tuple(stirling.rlah(1, n + 1, k + 1) for k in range(n + 1)):
            ok = False
    results.append(("r-lah-remark r=1 n<=6", ok))
    return results


# ---------------------------------------------------------------------------
# the check table behind ``verify --all`` and ``verify --identity``
#
# A runner gets the pairs to check, the size nmax and the mode: "all" under
# --all, "grid" or "pair" under --identity without or with --alpha/--beta.
# It yields (detail, ok) for each PASS/FAIL line and a str for each NOTE
# line.  Runners call the public *_ok batches by their module-global names
# at call time, so rebinding one (a test double, a tracer) reaches every
# line of --all.  Under --identity, four runners print finer lines and call
# the checks beneath their batch instead: rbell per r, gf-derivative per m
# on one pair or whenever --m is given (each m's verdict from one column
# extraction), and on one pair rodrigues per n (line n is degree n's
# verdict from one walk of each route) and bell-operator per lambda.


def _triple_route(pairs, nmax, mode):
    for a, b in pairs:
        yield f"{_pair(a, b)} n<={nmax}", triple_route_ok(a, b, nmax)


def _first_values(pairs, nmax, mode):
    for a, b in pairs:
        yield _pair(a, b), first_values_ok(a, b)


def _recurrence_chain(pairs, nmax, mode):
    for a, b in pairs:
        yield f"{_pair(a, b)} n<={nmax}", recurrence_chain_ok(a, b, nmax)


def _inverse_pair(pairs, nmax, mode):
    for a, b in pairs:
        yield f"{_pair(a, b)} nmax={nmax}", inverse_pair_ok(a, b, nmax)


def _bell_basis(pairs, nmax, mode):
    for a, b in pairs:
        yield f"{_pair(a, b)} n<={nmax}", bell_basis_ok(a, b, nmax)
    if mode == "all":
        yield f"alpha=-1/2 beta=-1/2 printed-display n<={nmax}", u_bell_display_ok(nmax)


def _rbell(pairs, nmax, mode, r=None):
    for a, b in pairs:
        if mode == "all":
            yield f"{_pair(a, b)} r<={RBELL_RS[-1]} n<={nmax}", rbell_ok(a, b, nmax)
            continue
        for rr in (r,) if r is not None else RBELL_RS:
            ok = stirling.verify_rbell_connection(a, b, rr, nmax)
            yield f"{_pair(a, b)} r={rr} n<={nmax}", ok


def _addition(pairs, nmax, mode):
    for a, b in pairs:
        yield f"{_pair(a, b)} n+m<={nmax}", addition_ok(a, b, nmax)


def _gf_derivative(pairs, nmax, mode, m=None, order=None):
    order = nmax + 2 if order is None else order
    # a negative order still reaches verify_gf_derivatives, which rejects it
    ms = (m,) if m is not None else range(min(nmax, 5, max(order, 0)) + 1)
    for a, b in pairs:
        if mode != "pair" and m is None:
            yield f"{_pair(a, b)} m<={ms[-1]} order={order}", gf_derivative_ok(a, b, ms[-1], order)
            continue
        for mm, ok in zip(ms, series.verify_gf_derivatives(a, b, ms, order)):
            yield f"{_pair(a, b)} m={mm} order={order}", ok


def _rodrigues(pairs, nmax, mode):
    for a, b in pairs:
        if mode != "pair":
            yield f"{_pair(a, b)} n<={nmax}", rodrigues_ok(a, b, nmax)
            continue
        first = operators.verify_rodrigues_first(a, b, nmax)
        second = operators.verify_rodrigues_second(a, b, nmax)
        for n in range(nmax + 1):
            yield f"{_pair(a, b)} n={n}", first[n] and second[n]


def _bell_operator(pairs, nmax, mode, lam=None):
    if lam is not None and mode != "pair":
        raise ValueError("bell-operator --lambda needs --alpha and --beta")
    for a, b in pairs:
        if mode != "pair":
            yield f"{_pair(a, b)} n<={nmax}", bell_operator_ok(a, b, nmax)
            continue
        for lv in (Fraction(lam),) if lam is not None else _bell_lambdas(a, b):
            ok = operators.verify_bell_operator(a, b, lv, nmax)
            yield f"{_pair(a, b)} lambda={lv} n<={nmax}", ok


def _second_pair(name, mode, alpha2, beta2):
    """--alpha2/--beta2 on one pair; None on the grid, which uses a fixed sample."""
    if mode != "pair":
        if alpha2 is not None or beta2 is not None:
            raise ValueError(f"a {name} target also needs --alpha and --beta")
        return None
    if alpha2 is None or beta2 is None:
        raise ValueError(f"{name} needs --alpha2 and --beta2 for the second pair")
    if beta2 == 0:
        raise ValueError("beta2 must be nonzero")
    return Fraction(alpha2), Fraction(beta2)


def _rebase(pairs, nmax, mode, alpha2=None, beta2=None):
    second = _second_pair("rebase", mode, alpha2, beta2)
    for source, target in REBASE_PAIRS if second is None else ((pairs[0], second),):
        yield (
            f"from=({source[0]},{source[1]}) to=({target[0]},{target[1]}) n<={nmax}",
            rebase_roundtrip_ok(source, target, nmax),
        )


def _lah_rebase(pairs, nmax, mode):
    for a, b in pairs:
        report = family.lah_rebase_report(family.FamilyParams(a, b), nmax)
        yield f"{_pair(a, b)} n<={nmax}", report.ok
    yield "NOTE lah-rebase sign: coefficient k carries (-1)**k (the summation index)"


def _composition(pairs, nmax, mode, alpha2=None, beta2=None):
    second = _second_pair("composition", mode, alpha2, beta2)
    for a, b, a2, b2 in COMPOSITION_CASES if second is None else ((*pairs[0], *second),):
        report = stirling.composition_report(a, b, a2, b2, nmax)
        case = f"{_pair(a, b)} alpha2={a2} beta2={b2}"
        yield f"{case} n<={nmax}", report.ok
        if mode != "all":
            yield f"NOTE composition sign for {case}: confirmed {report.confirmed_sign}"
    if mode == "all":
        yield "NOTE composition sign: (-1)**j with j the summation index, both identities"


def _rising_expansion(pairs, nmax, mode):
    for a, b in pairs:
        ok = family.rising_expansion(family.FamilyParams(a, b), nmax).equal
        yield f"{_pair(a, b)} n<={nmax}", ok


def _real_zeros(pairs, nmax, mode):
    for a, b in pairs:
        ok, checked = real_zeros_ok(a, b, max(nmax, 1))
        # --all lists only the pairs that carry a real-rootedness claim
        if checked or mode != "all":
            yield f"{_pair(a, b)} region={zeros.classify_region(a, b)} degrees={checked}", ok


def _log_concave(pairs, nmax, mode):
    for a, b in pairs:
        if a <= 0 and b < 0:
            yield f"{_pair(a, b)} n<={max(nmax, 2)}", log_concave_ok(a, b, max(nmax, 2))
        elif mode == "pair":
            raise ValueError("log-concavity is only claimed for alpha <= 0 and beta < 0")


def _specializations(pairs, nmax, mode):
    yield from specializations_ok(nmax)


@dataclass(frozen=True)
class Check:
    """One identity as ``verify`` knows it."""

    name: str
    aliases: tuple[str, ...]
    flags: tuple[str, ...]  # options it reads besides --nmax, as keyword names
    size: int | None  # nmax under --all; None where the size is fixed
    run: Callable[..., Iterator[tuple[str, bool] | str]]
    default: int = 10  # nmax under --identity without --nmax


PAIR = ("alpha", "beta")

CHECKS = (
    Check("triple-route", ("triple",), PAIR, 12, _triple_route),
    Check("first-values", (), PAIR, None, _first_values),
    Check("recurrence-chain", ("lemma1",), PAIR, 12, _recurrence_chain),
    Check("inverse-pair", ("p5",), PAIR, 10, _inverse_pair),
    Check("bell-basis", ("p2",), PAIR, 10, _bell_basis),
    Check("rbell", ("p3",), PAIR + ("r",), 8, _rbell),
    Check("addition", ("c3",), PAIR, 10, _addition),
    # size 8 checks m <= 5 at order 10
    Check("gf-derivative", ("t2",), PAIR + ("m", "order"), 8, _gf_derivative),
    Check("rodrigues", ("t4",), PAIR, 6, _rodrigues),
    Check("bell-operator", ("bell-op",), PAIR + ("lam",), 5, _bell_operator),
    Check("rebase", ("p4",), PAIR + ("alpha2", "beta2"), 6, _rebase),
    Check("lah-rebase", ("p4-lah",), PAIR, 6, _lah_rebase),
    Check("composition", (), PAIR + ("alpha2", "beta2"), 6, _composition),
    Check("rising-expansion", ("c4",), PAIR, 10, _rising_expansion),
    Check("real-zeros", ("t3",), PAIR, 20, _real_zeros),
    Check("log-concave", ("c1",), PAIR, 12, _log_concave),
    Check("specializations", ("families",), (), 8, _specializations, default=8),
)

IDENTITY_NAMES = tuple(check.name for check in CHECKS)
ALIASES = {alias: check.name for check in CHECKS for alias in check.aliases}


def _collect(runs) -> tuple[list[CheckResult], list[str]]:
    results, notes = [], []
    for check, lines in runs:
        for line in lines:
            if isinstance(line, str):
                notes.append(line)
            else:
                results.append(CheckResult(check.name, *line))
    return results, notes


def given_options(owner: str, flags: tuple[str, ...], options: dict) -> dict:
    """The options that were set; setting one not in ``flags`` is a usage error."""
    given = {key: value for key, value in options.items() if value is not None}
    for key in given:
        if key not in flags:
            flag = "--lambda" if key == "lam" else f"--{key}"
            raise ValueError(f"{owner} does not take {flag}")
    return given


def run_all() -> tuple[list[CheckResult], list[str]]:
    """Every identity on the whole built-in grid, each at its --all size.

    Returns (results, notes); notes carry resolved conventions that are
    worth printing but are not pass/fail lines.
    """
    return _collect((check, check.run(GRID, check.size, "all")) for check in CHECKS)


def single_results(identity: str, nmax=None, **options) -> tuple[list[CheckResult], list[str]]:
    """Run one identity, either on explicit parameters or over the grid.

    Giving --alpha/--beta narrows the run to that pair; leaving both out
    runs the built-in grid.  rbell prints one line per r either way.  On
    one pair, gf-derivative, rodrigues and bell-operator print one line
    per m, n and lambda; on the grid, one aggregated line per pair.
    gf-derivative with --m checks that m alone and prints ``m=M`` either
    way.
    Setting an option the identity does not read is a usage error.
    """
    check = next((c for c in CHECKS if c.name == ALIASES.get(identity, identity)), None)
    if check is None:
        known = ", ".join(IDENTITY_NAMES)
        raise ValueError(f"unknown identity {identity!r}; choose from: {known}")
    options = given_options(f"identity {check.name}", check.flags, options)
    alpha, beta = options.pop("alpha", None), options.pop("beta", None)
    if (alpha is None) != (beta is None):
        raise ValueError("provide both --alpha and --beta, or neither")
    if beta is not None and Fraction(beta) == 0:
        raise ValueError("beta must be nonzero")
    if nmax is not None and nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    if alpha is None:
        pairs, mode = GRID, "grid"
    else:
        pairs, mode = ((Fraction(alpha), Fraction(beta)),), "pair"
    nmax = check.default if nmax is None else nmax
    return _collect([(check, check.run(pairs, nmax, mode, **options))])
