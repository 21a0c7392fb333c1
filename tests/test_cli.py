import json
from fractions import Fraction

import pytest

from gstirling import cli, family, operators, suite
from gstirling.rationals import format_rational, parse_rational
from gstirling.stirling import gstirling_table

F = Fraction


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_golden(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "0", "--beta", "-1", "--nmax", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,2\n2,2,1\n"


def test_table_csv_one_one(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "1", "--beta", "1", "--nmax", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1:] == ["0,0,1", "1,0,-1", "1,1,-1"]


def test_table_json_schema_and_parseback(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "1/3", "--beta", "-2", "--nmax", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["alpha", "beta", "rows"]
    assert payload["alpha"] == "1/3"
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        for token in row:
            parse_rational(token)  # every value is wire-exact


@pytest.mark.parametrize("nmax", [0, 1, 12, 40])
def test_table_json_streams_the_bytes_of_json_dump(capsys, nmax):
    # the table is written row by row; its bytes are those of json.dump
    # over the whole payload, the form it was written in before
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "11/6", "--beta", "-14/9", "--nmax", str(nmax), "--format", "json"
    )
    assert code == 0
    rows = gstirling_table(F(11, 6), F(-14, 9), nmax)
    payload = {
        "alpha": "11/6",
        "beta": "-14/9",
        "rows": [[format_rational(v) for v in row] for row in rows],
    }
    assert out == json.dumps(payload, indent=2) + "\n"


def test_table_rejects_a_negative_nmax(capsys):
    code, out, err = run_cli(capsys, "table", "--alpha", "1", "--beta", "1", "--nmax", "-1")
    assert code == 2 and out == ""
    assert "nmax must be >= 0" in err


def test_table_diagonal_family(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "0", "--beta", "1", "--nmax", "3", "--format", "csv"
    )
    assert code == 0
    rows = {}
    for line in out.splitlines()[1:]:
        n, k, v = line.split(",")
        rows[(int(n), int(k))] = parse_rational(v)
    for n in range(4):
        for k in range(n + 1):
            expected = F(-1) ** n if n == k else 0
            assert rows[(n, k)] == expected


def test_poly_monomial_case(capsys):
    code, out, _ = run_cli(capsys, "poly", "--alpha", "0", "--beta", "1", "--n", "4")
    assert code == 0
    assert out == "0, 0, 0, 0, 1\n"


def test_poly_pretty(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--alpha", "0", "--beta", "1", "--n", "4", "--format", "pretty"
    )
    assert code == 0
    assert out.splitlines() == ["0, 0, 0, 0, 1", "pretty: x^4"]


def test_family_laguerre_golden(capsys):
    code, out, _ = run_cli(
        capsys, "family", "laguerre", "--lambda", "0", "--n", "2", "--format", "pretty"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1, 2, 1/2"
    assert lines[1] == "pretty: (x^2 + 4x + 2)/2"
    assert lines[2].startswith("note: ")


def test_family_u_and_assoc_lah(capsys):
    code, out, _ = run_cli(capsys, "family", "U", "--n", "1")
    assert code == 0 and out == "1/2, 1/2\n"
    code, out, _ = run_cli(capsys, "family", "assoc-lah", "--m", "1", "--n", "2")
    assert code == 0 and out == "0, 2, 1\n"
    code, _, _ = run_cli(capsys, "family", "assoc-lah", "--m", "0", "--n", "2")
    assert code == 2


def test_eval_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--alpha", "0", "--beta", "-1", "--n", "2", "--x", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "8"
    assert abs(payload["series"] - 8.0) <= 1e-10


def test_eval_rejects_bad_epsilon(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--alpha", "0", "--beta", "-1", "--n", "2", "--x", "2",
        "--epsilon", "-1e-6",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "eval", "--alpha", "0", "--beta", "-1", "--n", "2", "--x", "2",
        "--epsilon", "abc",
    )
    assert code == 2


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_eval_rejects_non_finite_epsilon(capsys, epsilon):
    code, out, err = run_cli(
        capsys, "eval", "--alpha", "0", "--beta", "-1", "--n", "2", "--x", "2",
        "--epsilon", epsilon,
    )
    assert code == 2 and out == ""
    assert "--epsilon must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n,x", [("180", "3"), ("1", "-710"), ("200", "0")])
def test_eval_past_the_float_route_exits_zero(capsys, n, x):
    # exp(-x) or the exact sum leaves the float range on the way
    code, out, _ = run_cli(
        capsys, "eval", "--alpha", "1/2", "--beta", "-1", "--n", n, "--x", x, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    exact = family.poly(family.FamilyParams(F(1, 2), F(-1)), int(n))(F(x))
    assert parse_rational(payload["exact"]) == exact
    # a float in range, else a string of 17 significant digits
    series = F(payload["series"])
    assert abs(series - exact) <= abs(exact) * F(1, 10**12)


@pytest.mark.parametrize("x", ["10001", "-20001/2", "1000000"])
def test_eval_past_the_x_cap_exits_two(capsys, x):
    # rejected before the series is summed, which would take hours at 10**6
    code, out, err = run_cli(capsys, "eval", "--alpha", "0", "--beta", "-1", "--n", "1", "--x", x)
    assert code == 2 and out == ""
    assert f"|x| must be <= {family.MAX_ABS_X}, got {x}" in err


def test_zeros_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--alpha", "-1", "--beta", "-1", "--nmax", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "A"
    assert [row["n"] for row in payload["results"]] == list(range(1, 7))
    for row in payload["results"]:
        assert row["all_real"] is True and row["asserted"] is True
        for lo, hi in row["roots"]:
            assert parse_rational(lo) <= parse_rational(hi)


def test_zeros_not_asserted_outside_regions(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--alpha", "0", "--beta", "3", "--nmax", "3", "--format", "json"
    )
    assert code == 0  # nothing asserted, nothing failed
    payload = json.loads(out)
    assert payload["region"] == "neither"
    assert all(row["asserted"] is False for row in payload["results"])


@pytest.mark.parametrize("width", ["0", "-1/64"])
def test_zeros_rejects_nonpositive_width(capsys, width):
    code, out, err = run_cli(
        capsys, "zeros", "--alpha", "-1", "--beta", "-1", "--nmax", "3", "--max-width", width
    )
    assert code == 2 and out == ""
    assert err.startswith("error: max_width must be > 0")


def test_decimals_rejected(capsys):
    code, _, _ = run_cli(capsys, "table", "--alpha", "0.5", "--beta", "1", "--nmax", "2")
    assert code == 2


def test_zero_beta_rejected(capsys):
    for argv in (
        ("table", "--alpha", "1", "--beta", "0", "--nmax", "2"),
        ("poly", "--alpha", "1", "--beta", "0", "--n", "2"),
        ("zeros", "--alpha", "1", "--beta", "0"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "beta" in err


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "t4", "--alpha", "-1/2", "--beta", "-1/2",
        "--nmax", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert len([l for l in lines if l.startswith("PASS rodrigues")]) == 7
    assert lines[-1] == "# checks=7 failures=0"


def test_verify_lah_rebase_reports_sign(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "p4-lah", "--nmax", "6")
    assert code == 0
    assert "NOTE lah-rebase sign: coefficient k carries (-1)**k" in out


def test_verify_inverse_pair(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "p5", "--alpha", "2", "--beta", "-3",
        "--nmax", "10",
    )
    assert code == 0
    assert "PASS inverse-pair alpha=2 beta=-3" in out


def test_verify_rebase_and_composition_single_pairs(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "p4", "--alpha", "1", "--beta", "-1",
        "--alpha2", "0", "--beta2", "-2", "--nmax", "6",
    )
    assert code == 0
    assert "PASS rebase from=(1,-1) to=(0,-2) n<=6" in out

    code, out, _ = run_cli(
        capsys, "verify", "--identity", "composition", "--alpha", "1", "--beta", "-1",
        "--alpha2", "0", "--beta2", "-2",
    )
    assert code == 0
    assert "confirmed summation-index" in out

    code, _, err = run_cli(
        capsys, "verify", "--identity", "p4", "--alpha", "1", "--beta", "-1"
    )
    assert code == 2
    assert "--alpha2" in err


def test_verify_rejects_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "nope")
    assert code == 2
    assert "unknown identity" in err


def test_verify_requires_identity_or_all(capsys):
    code, _, _ = run_cli(capsys, "verify")
    assert code == 2


def test_verify_rejects_half_specified_pair(capsys):
    code, _, _ = run_cli(capsys, "verify", "--identity", "t4", "--alpha", "1")
    assert code == 2


def test_verify_all_and_identity_are_exclusive(capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--identity", "nope")
    assert code == 2 and out == ""
    assert "--identity" in err and "--all" in err


def test_verify_all_rejects_pair_options(capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--alpha", "1")
    assert code == 2 and out == ""
    assert "--all does not take --alpha" in err


def test_verify_rejects_pair_for_specializations(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--identity", "specializations", "--alpha", "1", "--beta", "1"
    )
    assert code == 2 and out == ""
    assert "does not take --alpha" in err


def test_verify_rejects_second_pair_outside_rebase_and_composition(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--identity", "t4", "--alpha", "1", "--beta", "1",
        "--alpha2", "0", "--beta2", "-1",
    )
    assert code == 2 and out == ""
    assert "identity rodrigues does not take --alpha2" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "rbell", "--beta2", "-1")
    assert code == 2
    assert "does not take --beta2" in err


def test_verify_rejects_options_the_identity_does_not_read(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "rbell", "--lambda", "1")
    assert code == 2
    assert "identity rbell does not take --lambda" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "addition", "--order", "4")
    assert code == 2
    assert "does not take --order" in err


def test_verify_gf_derivative_order_below_the_default_m_range(capsys):
    # without --m, m runs to min(nmax, 5, order)
    gf = ("verify", "--identity", "gf-derivative")
    code, out, _ = run_cli(capsys, *gf, "--order", "3", "--alpha", "1/2", "--beta", "-1")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "PASS gf-derivative alpha=1/2 beta=-1 m=3 order=3",
        "# checks=4 failures=0",
    ]
    code, out, _ = run_cli(capsys, *gf, "--order", "3", "--nmax", "2")
    assert code == 0
    assert "m<=2 order=3" in out.splitlines()[0]
    assert out.splitlines()[-1] == f"# checks={len(suite.GRID)} failures=0"
    code, out, err = run_cli(capsys, *gf, "--order", "-1")
    assert code == 2 and out == ""
    assert "need 0 <= m <= order" in err


def test_verify_gf_derivative_m_on_the_grid_names_that_m(capsys):
    gf = ("verify", "--identity", "gf-derivative")
    code, out, _ = run_cli(capsys, *gf, "--m", "3", "--nmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS gf-derivative alpha=-2 beta=-3 m=3 order=4"
    assert all(line.endswith(" m=3 order=4") for line in lines[:-1])
    assert lines[-1] == f"# checks={len(suite.GRID)} failures=0"


def test_verify_bell_operator_lambda_needs_a_pair(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "bell-operator", "--lambda", "7")
    assert code == 2 and out == ""
    assert "--lambda needs --alpha and --beta" in err


def test_verify_real_zeros_bounds_secondary_degrees_by_nmax(capsys):
    # region A-tilde asserts degrees up to ceil(alpha) = 8; --nmax caps them
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "real-zeros", "--alpha", "8", "--beta", "1",
        "--nmax", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "PASS real-zeros alpha=8 beta=1 region=A-tilde degrees=2"


def test_verify_rbell_at_large_r(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "rbell", "--r", "2000", "--alpha", "1", "--beta", "1",
        "--nmax", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "PASS rbell alpha=1 beta=1 r=2000 n<=2"


def test_family_laguerre_rejects_a_negative_degree(capsys):
    code, out, err = run_cli(capsys, "family", "laguerre", "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: n must be >= 0, got -1\n"


def test_verify_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(
        suite, "rodrigues_ok", lambda a, b, nmax=6: False
    )
    code, out, _ = run_cli(capsys, "verify", "--identity", "t4")
    assert code == 3
    assert "FAIL rodrigues" in out
    assert out.splitlines()[-1].endswith("failures=63")


def test_verify_rodrigues_pair_fails_only_the_wrong_degree(capsys, monkeypatch):
    right = operators.scaled_rows

    def wrong(alpha, beta, nmax):
        # entry (3, 1) of S bumped by 1: its integer row holds d**3 * S(3, 1)
        d, rows = right(alpha, beta, nmax)
        if nmax < 3:
            return d, rows
        bumped = rows[3][:1] + (rows[3][1] + d**3,) + rows[3][2:]
        return d, rows[:3] + (bumped,) + rows[4:]

    monkeypatch.setattr(operators, "scaled_rows", wrong)
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "rodrigues", "--alpha", "-1/2", "--beta", "-1/2",
        "--nmax", "5",
    )
    assert code == 3
    assert out.splitlines() == [
        f"{'FAIL' if n == 3 else 'PASS'} rodrigues alpha=-1/2 beta=-1/2 n={n}" for n in range(6)
    ] + ["# checks=6 failures=1"]
    # both routes walk past degree 3 and still pass degrees 4 and 5
    half = F(-1, 2)
    expected = (True, True, True, False, True, True)
    assert operators.verify_rodrigues_first(half, half, 5) == expected
    assert operators.verify_rodrigues_second(half, half, 5) == expected


def test_output_file_and_io_error(tmp_path, capsys):
    target = tmp_path / "triangle.csv"
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "0", "--beta", "-1", "--nmax", "2",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text() == "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,2\n2,2,1\n"

    code, _, err = run_cli(
        capsys, "table", "--alpha", "0", "--beta", "-1", "--nmax", "2",
        "--output", str(tmp_path / "missing" / "file.csv"),
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--alpha", "1/3", "--beta", "-2", "--nmax", "4", "--format", "json"),
        ("zeros", "--alpha", "-1/2", "--beta", "-1/2", "--nmax", "4", "--format", "csv"),
        ("verify", "--identity", "first-values", "--alpha", "1", "--beta", "-1"),
    ],
    ids=lambda argv: argv[0],
)
def test_output_file_matches_stdout(tmp_path, capsys, argv):
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "out"
    code, out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == stdout.encode()


def test_output_file_is_not_created_when_the_command_fails(tmp_path, capsys):
    target = tmp_path / "value.txt"
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "0", "--beta", "0", "--nmax", "2", "--output", str(target)
    )
    assert code == 2 and out == ""
    assert not target.exists()


def test_single_identity_output_is_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "verify", "--identity", "first-values", "--alpha", "1", "--beta", "-2"
    )
    _, second, _ = run_cli(
        capsys, "verify", "--identity", "first-values", "--alpha", "1", "--beta", "-2"
    )
    assert first == second


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0
