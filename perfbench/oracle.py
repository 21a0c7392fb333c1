"""Independent checks of ``gstirling`` output.

Nothing here imports the package.  Triangle entries come from the
alternating-sum closed form

    S(n, k) = (1/k!) * sum_j (-1)**(k-j) * C(k, j) * rising(-alpha - beta*j, n),

evaluated in integers over the common denominator, not from the
package's recurrence.  Each ``check_*`` function takes the stdout of an
invocation, whatever its exit code, and returns ``(items, problem)``: the
count of work items the output holds (checks, roots or triangle entries)
and a description of the first mismatch, or ``None``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb, factorial, lcm

from workloads import in_region_a


def _scaled(alpha: Fraction, beta: Fraction) -> tuple[int, int, int]:
    """(a, b, d) with alpha = a/d and beta = b/d."""
    d = lcm(alpha.denominator, beta.denominator)
    return int(alpha * d), int(beta * d), d


def _rising_scaled(t: int, d: int, n: int) -> int:
    """d**n * rising(t/d, n), an integer."""
    out = 1
    for i in range(n):
        out *= t + i * d
    return out


def entry(alpha: Fraction, beta: Fraction, n: int, k: int) -> Fraction:
    """Triangle entry S(n, k) by the alternating-sum closed form."""
    a, b, d = _scaled(alpha, beta)
    total = 0
    for j in range(k + 1):
        term = comb(k, j) * _rising_scaled(-a - b * j, d, n)
        total += term if (k - j) % 2 == 0 else -term
    return Fraction(total, factorial(k) * d**n)


def value(alpha: Fraction, beta: Fraction, n: int, x: Fraction) -> Fraction:
    """P_n(x), from the closed form summed over k first:

    P_n(x) = sum_j rising(-alpha - beta*j, n) * x**j/j! * sum_{m <= n-j} (-x)**m/m!
    """
    a, b, d = _scaled(alpha, beta)
    partial = []  # partial[m] = sum_{i <= m} (-x)**i / i!
    acc, term = Fraction(0), Fraction(1)
    for m in range(n + 1):
        acc += term
        partial.append(acc)
        term = term * -x / (m + 1)
    total, power = Fraction(0), Fraction(1)  # power = x**j / j!
    for j in range(n + 1):
        total += _rising_scaled(-a - b * j, d, n) * power * partial[n - j]
        power = power * x / (j + 1)
    return total / d**n


# --- dense polynomials as coefficient lists, low degree first -------------

def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _evaluate(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _remainder(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    r = list(p)
    while len(r) >= len(q):
        f = r[-1] / q[-1]
        shift = len(r) - len(q)
        for i, c in enumerate(q):
            r[shift + i] -= f * c
        r.pop()
        _trim(r)
    return r


def _quotient(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    r = list(p)
    out = [Fraction(0)] * (len(p) - len(q) + 1)
    for shift in range(len(out) - 1, -1, -1):
        f = r[shift + len(q) - 1] / q[-1]
        out[shift] = f
        for i, c in enumerate(q):
            r[shift + i] -= f * c
    return out


def square_free(p: list[Fraction]) -> list[Fraction]:
    """p / gcd(p, p'): the same distinct roots, each simple."""
    a, b = list(p), _trim([i * c for i, c in enumerate(p)][1:])
    while b:
        a, b = b, _remainder(a, b)
    return p if len(a) <= 1 else _quotient(p, a)


# --- checks ---------------------------------------------------------------

def verify_trailer(out: bytes) -> tuple[int, int]:
    """(checks, failures) from the ``# checks=C failures=F`` last line of
    a verify run; (0, 0) when there is no such line."""
    lines = out.decode(errors="replace").splitlines()
    fields = lines[-1].split() if lines else []
    if len(fields) != 3 or fields[0] != "#":
        return 0, 0
    counts = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
    try:
        return int(counts["checks"]), int(counts["failures"])
    except (KeyError, ValueError):
        return 0, 0


def check_verify(out: bytes, expected: dict) -> tuple[int, str | None]:
    """The recorded trailer and byte-for-byte the recorded stdout."""
    checks, failures = verify_trailer(out)
    if (checks, failures) != (expected["grid_checks"], 0):
        return checks, (f"trailer reports checks={checks} failures={failures},"
                        f" expected checks={expected['grid_checks']} failures=0")
    digest = hashlib.sha256(out).hexdigest()
    if digest != expected["grid_stdout_sha256"]:
        return checks, f"stdout sha256 {digest} differs from the recorded {expected['grid_stdout_sha256']}"
    return checks, None


def check_zeros(out: bytes, info: dict) -> tuple[int, str | None]:
    alpha, beta, width = info["alpha"], info["beta"], info["width"]
    report = json.loads(out)
    if (report["alpha"], report["beta"]) != (str(alpha), str(beta)):
        return 0, f"parameters echoed as {report['alpha']}, {report['beta']}"
    if (report["region"] == "A") != in_region_a(alpha, beta):
        return 0, f"region {report['region']} for alpha={alpha} beta={beta}"
    if [row["n"] for row in report["results"]] != list(range(1, info["nmax"] + 1)):
        return 0, "rows are not n = 1..nmax"
    roots = 0
    for row in report["results"]:
        n = row["n"]
        q = square_free([entry(alpha, beta, n, k) for k in range(n + 1)])
        intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in row["roots"]]
        roots += len(intervals)
        where = f"n={n}"
        if len(intervals) > len(q) - 1 or (row["all_real"] and len(intervals) != len(q) - 1):
            return roots, f"{where}: {len(intervals)} intervals for {len(q) - 1} distinct roots"
        if row["asserted"] and not row["all_real"]:
            return roots, f"{where}: real-rootedness is asserted here but all_real is false"
        previous_hi = None
        for lo, hi in intervals:
            if not lo <= hi or hi - lo > width:
                return roots, f"{where}: interval [{lo}, {hi}] wider than {width}"
            if previous_hi is not None and lo <= previous_hi:
                return roots, f"{where}: interval [{lo}, {hi}] overlaps its neighbour"
            previous_hi = hi
            if lo == hi:
                if _evaluate(q, lo) != 0:
                    return roots, f"{where}: degenerate [{lo}, {lo}] is not a root"
            elif _evaluate(q, lo) * _evaluate(q, hi) >= 0:
                return roots, f"{where}: no sign change over [{lo}, {hi}]"
    return roots, None


def _samples(n: int, tag: str) -> list[tuple[int, int]]:
    rng = random.Random(tag)
    picks = [(n, 0), (n, n), (n, rng.randint(0, n))]
    for _ in range(2):
        m = rng.randint(0, n)
        picks.append((m, rng.randint(0, m)))
    return picks


def check_table(out: bytes, info: dict) -> tuple[int, str | None]:
    alpha, beta, nmax = info["alpha"], info["beta"], info["nmax"]
    entries = (nmax + 1) * (nmax + 2) // 2
    if info["format"] == "json":
        payload = json.loads(out)
        if (payload["alpha"], payload["beta"]) != (str(alpha), str(beta)):
            return 0, f"parameters echoed as {payload['alpha']}, {payload['beta']}"
        rows = payload["rows"]
        if [len(row) for row in rows] != list(range(1, nmax + 2)):
            return 0, "rows are not the triangle 0..nmax"

        def lookup(n: int, k: int) -> str:
            return rows[n][k]
    else:
        lines = out.decode().splitlines()
        if lines[0] != "n,k,value" or len(lines) != entries + 1:
            return 0, f"{len(lines) - 1} csv rows, expected {entries}"

        def lookup(n: int, k: int) -> str:
            row_n, row_k, text = lines[1 + n * (n + 1) // 2 + k].split(",")
            if (int(row_n), int(row_k)) != (n, k):
                raise ValueError(f"csv row for ({n}, {k}) reads ({row_n}, {row_k})")
            return text

    for n, k in _samples(nmax, f"{alpha} {beta} {nmax}"):
        got, want = Fraction(lookup(n, k)), entry(alpha, beta, n, k)
        if got != want:
            return 0, f"S({n}, {k}) = {got}, closed form gives {want}"
    return entries, None


def check_poly(out: bytes, info: dict) -> tuple[int, str | None]:
    alpha, beta, n = info["alpha"], info["beta"], info["n"]
    payload = json.loads(out)
    coeffs = payload["coefficients"]
    if payload["n"] != n or len(coeffs) != n + 1:
        return 0, f"{len(coeffs)} coefficients for n={payload['n']}, expected {n + 1}"
    for _, k in _samples(n, f"{alpha} {beta} {n}"):
        got, want = Fraction(coeffs[k]), entry(alpha, beta, n, k)
        if got != want:
            return 0, f"coefficient {k} = {got}, closed form gives {want}"
    return 0, None


def check_eval(out: bytes, info: dict) -> tuple[int, str | None]:
    fields = dict(line.split(" = ", 1) for line in out.decode().splitlines())
    got = Fraction(fields["exact"])
    want = value(info["alpha"], info["beta"], info["n"], info["x"])
    if got != want:
        return 0, f"exact = {got}, reference P_n(x) = {want}"
    return 0, None


CHECKS = {
    "verify": check_verify,
    "zeros": check_zeros,
    "table": check_table,
    "poly": check_poly,
    "eval": check_eval,
}
