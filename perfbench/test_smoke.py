"""Smoke tests of the benchmark: the traced run at a size of a few
seconds, and the verdict on wrong or failed invocations.

Run with: python3 -m pytest perfbench/test_smoke.py

The traced-run test takes a few seconds; the others check how an
invocation is judged, on made-up outputs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _traced_calls(runner, commands):
    traced = [runner.invoke(c, traced=True) for c in commands]
    assert [inv.failure for inv in traced] == [None] * len(traced)
    total = run.aggregate(traced)
    metrics = run.per_layer(total, 0.0, *run.suite_counts(traced))
    return {name: v for name, v in metrics.items() if name.endswith(".calls")}


def test_two_traced_runs_of_one_seed_give_identical_counts(tmp_path):
    commands = workloads.build("roots", 7, workloads.SMOKE) + workloads.build("tables", 7, workloads.SMOKE)
    commands.append(workloads.Command(
        "identity", ("verify", "--identity", "rodrigues", "--alpha", "-1/2", "--beta", "-1/2", "--nmax", "4")
    ))
    with run.Runner(run.ROOT, tmp_path) as runner:
        first = _traced_calls(runner, commands)
        assert first == _traced_calls(runner, commands)
    assert first["qpoly.eval.calls"] and first["stirling.table.calls"] and first["fractions.new.calls"]


def _grid_command():
    return workloads.build("grid", 0)[0]


def _result(command, code, stdout, stderr=""):
    items, failure, mismatch = run.classify(command, code, False, stdout, stderr, 1.0)
    inv = run.Invocation(command.args, 0.1, 0.1, 1.0, code, "", items, failure, mismatch)
    return inv, run.verdict([inv])


def test_a_failed_check_reported_by_the_program_makes_the_run_incorrect():
    grid = _grid_command()
    inv, (correct, _, failed) = _result(grid, 3, b"FAIL some-identity\n# checks=838 failures=1\n")
    assert inv.mismatch and not correct and failed == 1
    zeros = workloads.build("roots", 7, workloads.SMOKE)[0]
    inv, (correct, _, _) = _result(zeros, 3, b"")
    assert inv.mismatch and not correct


def test_grid_output_that_differs_from_the_recorded_digest_is_incorrect():
    inv, (correct, _, _) = _result(_grid_command(), 0, b"PASS x\n# checks=838 failures=0\n")
    assert inv.mismatch and "sha256" in inv.failure and not correct


def test_a_crash_without_output_is_a_failure_but_not_a_mismatch():
    evaluate = next(c for c in workloads.build("tables", 7, workloads.SMOKE) if c.kind == "eval")
    stderr = "Traceback (most recent call last):\nOverflowError: too large\n"
    inv, (correct, attempted, failed) = _result(evaluate, 1, b"", stderr)
    assert correct and (attempted, failed) == (1, 1) and not inv.mismatch
