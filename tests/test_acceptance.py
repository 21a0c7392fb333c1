"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output on failure).  Comparisons are
exact rational equality unless a tolerance is stated in the test.
"""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from gstirling import family, stirling, suite, zeros

F = Fraction
GRID = suite.GRID
EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{tail}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_triple_route_equality():
    start = time.time()
    ok = all(suite.triple_route_ok(a, b, 12) for a, b in GRID)
    _report(1, "triple-route coefficient equality", ok, f"{time.time() - start:.1f}s")


def test_02_first_values_regression():
    ok = all(suite.first_values_ok(a, b) for a, b in GRID)
    _report(2, "first-values regression", ok)


def test_03_recurrence_chain():
    ok = all(suite.recurrence_chain_ok(a, b, 12) for a, b in GRID)
    _report(3, "derivative recurrence chain", ok)


def test_04_inverse_pair():
    ok = all(suite.inverse_pair_ok(a, b, 10) for a, b in GRID)
    _report(4, "inverse-pair matrix identity", ok)


def test_05_bell_basis():
    ok = all(suite.bell_basis_ok(a, b, 10) for a, b in GRID)
    ok = ok and suite.u_bell_display_ok(10)
    _report(5, "Bell-basis identity and round trip", ok)


def test_06_rbell_connection():
    ok = all(suite.rbell_ok(a, b, 8) for a, b in GRID)
    _report(6, "partial r-Bell connection", ok)


def test_07_addition_formula():
    ok = all(suite.addition_ok(a, b, 10) for a, b in GRID)
    _report(7, "addition formula", ok)


def test_08_gf_derivative():
    ok = all(suite.gf_derivative_ok(a, b, mmax=5, order=10) for a, b in GRID)
    _report(8, "generating-function derivative identity", ok)


def test_09_operator_identities():
    ok = all(suite.rodrigues_ok(a, b, 6) for a, b in GRID)
    ok = ok and all(suite.bell_operator_ok(a, b, 5) for a, b in GRID)
    # the grid includes alpha = 0, so the degenerate case is exercised
    assert any(a == 0 for a, _ in GRID)
    _report(9, "derivative and Euler-operator representations", ok)


def test_10_rebase_and_composition():
    ok = all(
        suite.rebase_roundtrip_ok(source, target, 6)
        for source, target in suite.REBASE_PAIRS
    )
    assert len(suite.REBASE_PAIRS) == 10
    sign_reports = [
        stirling.composition_report(a, b, a2, b2, 6)
        for a, b, a2, b2 in suite.COMPOSITION_CASES
    ]
    ok = ok and all(rep.ok for rep in sign_reports)
    # the resolved sign: the exponent follows the summation index; a
    # nondegenerate case rejects the outer-index reading
    assert any(rep.ok and not rep.outer_sign_ok for rep in sign_reports)
    lah_reports = [
        family.lah_rebase_report(family.FamilyParams(a, b), 6) for a, b in GRID
    ]
    ok = ok and all(rep.ok for rep in lah_reports)
    print("resolved sign convention: (-1)**index on the connection coefficients")
    _report(10, "rebase round trip and composition", ok)


def test_11_real_zeros():
    start = time.time()
    ok = True
    asserted_pairs = 0
    for a, b in GRID:
        good, checked = suite.real_zeros_ok(a, b, nmax_main=20)
        ok = ok and good
        asserted_pairs += checked > 0
    # the discriminant-zero boundary pair is part of the grid and of the
    # main region, so its degrees are asserted like any other member
    assert zeros.classify_region(F(1), F(-1)) == zeros.REGION_MAIN
    good, checked = suite.real_zeros_ok(F(1), F(-1), nmax_main=20)
    ok = ok and good and checked == 20
    _report(
        11,
        "real-rootedness over both regions",
        ok,
        f"{asserted_pairs} parameter pairs, {time.time() - start:.1f}s",
    )


def test_12_log_concavity():
    hypothesis_pairs = [(a, b) for a, b in GRID if a <= 0 and b < 0]
    assert hypothesis_pairs
    ok = all(suite.log_concave_ok(a, b, 12) for a, b in hypothesis_pairs)
    _report(12, "Newton log-concavity and nonnegativity", ok)


def test_13_specializations():
    results = suite.specializations_ok(8)
    for detail, ok in results:
        print(f"  {suite.CheckResult('specializations', detail, ok).line}")
    _report(13, "named specializations", all(ok for _, ok in results))


def test_14_cli_byte_stability():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "gstirling", "verify", "--all"],
            capture_output=True,
            timeout=1200,
        )
        for _ in range(2)
    ]
    ok = all(r.returncode == 0 for r in runs)
    ok = ok and runs[0].stdout == runs[1].stdout
    ok = ok and len(runs[0].stdout) > 0
    pinned = json.loads(EXPECTED.read_text())["grid_stdout_sha256"]
    ok = ok and hashlib.sha256(runs[0].stdout).hexdigest() == pinned
    _report(14, "verify --all exits 0 with byte-stable, pinned output", ok)
