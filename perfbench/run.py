#!/usr/bin/env python3
"""End-to-end benchmark of the gstirling command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {grid,roots,tables} --seed N --seconds S --trace {0,1}

The load is a closed loop with one client: one ``python -m gstirling``
process at a time, started only after the previous one has been reaped.
A pass runs the workload's seeded command list once; passes repeat until
the next one would end after ``--seconds``.  Every invocation gets a
timeout and every output is checked by an independent oracle
(``oracle.py``).  With ``--trace 1`` the run makes one untraced pass and
one traced pass (``tracer.py``), and reports per-layer metrics instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-run results, the run
history and the spans of traced runs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads
from tracer import CALLS, ERRORS, OUTER_NS, SELF_NS, UNDER
from workloads import Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_BURST = 8  # timed starts before the first pass and after every pass
MIN_PASSES = 2
TIMEOUT_S = {"verify": 120}
DEFAULT_TIMEOUT_S = 30
EXIT_CHECK_FAILED = 3  # gstirling's exit code when verify or zeros finds a failed check

# the command kind whose output items feed items_per_s, per workload
ITEM_KIND = {"grid": "verify", "roots": "zeros", "tables": "table"}
ITEM_NAME = {"grid": "checks_per_s", "roots": "roots_per_s", "tables": "entries_per_s"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_s", "1/s"),
)

# (metric, unit, how it is read from the summed tallies)
PER_LAYER = (
    ("cli.import.s", "s", ("import",)),
    ("cli.main.s", "s", ("outer", "cli.main")),
    ("cli.self.s", "s", ("module_self", "cli")),
    ("rationals.format.calls", "count", ("calls", "rationals.format")),
    ("rationals.format.s", "s", ("self", "rationals.format")),
    ("rationals.rising.calls", "count", ("calls", "rationals.rising")),
    ("rationals.rising.s", "s", ("self", "rationals.rising")),
    ("stirling.table.calls", "count", ("calls", "stirling.table")),
    ("stirling.table.s", "s", ("self", "stirling.table")),
    ("stirling.explicit.calls", "count", ("calls", "stirling.explicit")),
    ("stirling.explicit.s", "s", ("self", "stirling.explicit")),
    ("stirling.egf.s", "s", ("self", "stirling.egf")),
    ("stirling.inverse.calls", "count", ("calls", "stirling.inverse")),
    ("stirling.inverse.s", "s", ("self", "stirling.inverse")),
    ("stirling.partial_r_bell.calls", "count", ("calls", "stirling.partial_r_bell")),
    ("stirling.partial_r_bell.s", "s", ("self", "stirling.partial_r_bell")),
    ("stirling.rlah.calls", "count", ("calls", "stirling.rlah")),
    ("stirling.composition.s", "s", ("self", "stirling.composition")),
    ("family.poly.calls", "count", ("calls", "family.poly")),
    ("family.poly.s", "s", ("self", "family.poly")),
    ("family.addition.s", "s", ("self", "family.addition")),
    ("family.to_bell_basis.s", "s", ("self", "family.to_bell_basis")),
    ("family.rebase.s", "s", ("self", "family.rebase")),
    ("family.rising_expansion.s", "s", ("self", "family.rising_expansion")),
    ("family.eval_dobinski.calls", "count", ("calls", "family.eval_dobinski")),
    ("family.eval_dobinski.s", "s", ("self", "family.eval_dobinski")),
    ("family.eval_dobinski.errors", "count", ("errors", "family.eval_dobinski")),
    ("series.mul.calls", "count", ("calls", "series.mul")),
    ("series.mul.s", "s", ("self", "series.mul")),
    ("series.exp.calls", "count", ("calls", "series.exp")),
    ("series.exp.s", "s", ("self", "series.exp")),
    ("series.gf_derivative.calls", "count", ("calls", "series.gf_derivative")),
    ("series.gf_derivative.s", "s", ("self", "series.gf_derivative")),
    ("operators.derivative.calls", "count", ("calls", "operators.derivative")),
    ("operators.euler_shift.calls", "count", ("calls", "operators.euler_shift")),
    ("operators.rodrigues.s", "s", ("self", "operators.rodrigues")),
    ("operators.bell_operator.s", "s", ("self", "operators.bell_operator")),
    ("qpoly.init.calls", "count", ("calls", "qpoly.init")),
    ("qpoly.mul.calls", "count", ("calls", "qpoly.mul")),
    ("qpoly.mul.s", "s", ("self", "qpoly.mul")),
    ("qpoly.add.calls", "count", ("calls", "qpoly.add")),
    ("qpoly.divmod.calls", "count", ("calls", "qpoly.divmod")),
    ("qpoly.divmod.s", "s", ("self", "qpoly.divmod")),
    ("qpoly.eval.calls", "count", ("calls", "qpoly.eval")),
    ("qpoly.eval.s", "s", ("self", "qpoly.eval")),
    ("qpoly.gcd.calls", "count", ("calls", "qpoly.gcd")),
    ("qpoly.gcd.s", "s", ("self", "qpoly.gcd")),
    ("qpoly.max_coeff_bits", "bits", ("max_coeff_bits",)),
    ("zeros.sturm_chain.calls", "count", ("calls", "zeros.sturm_chain")),
    ("zeros.sturm_chain.s", "s", ("self", "zeros.sturm_chain")),
    ("zeros.square_free.s", "s", ("self", "zeros.square_free")),
    ("zeros.all_roots_real.s", "s", ("self", "zeros.all_roots_real")),
    ("zeros.isolate_roots.calls", "count", ("calls", "zeros.isolate_roots")),
    ("zeros.isolate_roots.s", "s", ("self", "zeros.isolate_roots")),
    ("zeros.roots_found", "count", ("roots_found",)),
    ("zeros.evals_per_root", "evals/root", ("evals_per_root",)),
    # suite.<identity>.s is the inclusive time of the identity's batch
    ("suite.triple-route.s", "s", ("outer", "suite.triple-route")),
    ("suite.first-values.s", "s", ("outer", "suite.first-values")),
    ("suite.recurrence-chain.s", "s", ("outer", "suite.recurrence-chain")),
    ("suite.inverse-pair.s", "s", ("outer", "suite.inverse-pair")),
    ("suite.bell-basis.s", "s", ("outer", "suite.bell-basis")),
    ("suite.rbell.s", "s", ("outer", "suite.rbell")),
    ("suite.addition.s", "s", ("outer", "suite.addition")),
    ("suite.gf-derivative.s", "s", ("outer", "suite.gf-derivative")),
    ("suite.rodrigues.s", "s", ("outer", "suite.rodrigues")),
    ("suite.bell-operator.s", "s", ("outer", "suite.bell-operator")),
    ("suite.rebase.s", "s", ("outer", "suite.rebase")),
    ("suite.lah-rebase.s", "s", ("outer", "family.lah_rebase_report")),
    ("suite.composition.s", "s", ("outer", "stirling.composition")),
    ("suite.rising-expansion.s", "s", ("outer", "family.rising_expansion")),
    ("suite.real-zeros.s", "s", ("outer", "suite.real-zeros")),
    ("suite.log-concave.s", "s", ("outer", "suite.log-concave")),
    ("suite.specializations.s", "s", ("outer", "suite.specializations")),
    ("suite.checks", "count", ("suite_checks",)),
    ("suite.failures", "count", ("suite_failures",)),
    ("fractions.new.calls", "count", ("fraction_new",)),
    ("trace.overhead_s", "s", ("overhead",)),
)

MODULES = ("cli", "rationals", "stirling", "family", "series", "operators", "qpoly", "zeros", "suite")


class SetupError(RuntimeError):
    pass


@dataclass
class Invocation:
    args: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout_sha256: str
    items: int = 0
    failure: str | None = None
    mismatch: bool = False  # the output is wrong, or the program reports a failed check
    suite_failures: int = 0  # failed checks in a verify trailer
    tally: dict | None = None

    def record(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k != "tally"}
        out["args"] = list(self.args)
        return out


def classify(command: Command, code: int, timed_out: bool, stdout: bytes, stderr: str,
             timeout: float) -> tuple[int, str | None, bool]:
    """(items, failure, mismatch) of one finished invocation.

    The oracle checks any output, whatever the exit code, and exit code 3
    (a check the program makes has failed) is a mismatch too, so a wrong
    result makes the run incorrect even when the program reports it
    itself.  A timeout, or a crash that printed nothing, is a failure but
    not a mismatch.
    """
    if timed_out:
        return 0, f"timeout after {timeout} s", False
    items, problem = 0, None
    if command.kind in oracle.CHECKS and (stdout or code in (0, EXIT_CHECK_FAILED)):
        try:
            items, problem = oracle.CHECKS[command.kind](stdout, command.info)
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            problem = f"unreadable output: {exc!r}"
    last_line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if problem:
        return items, f"oracle: {problem}", True
    if code == EXIT_CHECK_FAILED:
        return items, f"exit {code}: the program reports a failed check", True
    if "Traceback (most recent call last)" in stderr:
        return items, f"traceback: {last_line}", False
    if code != 0:
        return items, f"exit {code}: {last_line}", False
    return items, None, False


def verdict(invocations: list[Invocation]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) for the result line."""
    failed = sum(1 for inv in invocations if inv.failure)
    return not any(inv.mismatch for inv in invocations), len(invocations), failed


class Runner:
    """Starts CLI invocations one at a time, through the launcher, and
    checks each one.  Use as a context manager: closing waits for the
    launcher to exit."""

    def __init__(self, root: Path, scratch: Path):
        self.scratch = scratch
        self.warm = False
        scratch.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # fixed string hashing, so traced call counts repeat exactly
        env["PYTHONHASHSEED"] = "0"
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root, text=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def _spawn(self, argv: list[str], out_path: Path, err_path: Path, timeout: float) -> dict:
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path), "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        answer = self.launcher.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher process exited")
        return json.loads(answer)

    def invoke(self, command: Command, traced: bool = False) -> Invocation:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        tally_path = self.scratch / "tally.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(tally_path), "--", *command.args]
        else:
            argv = [sys.executable, "-m", "gstirling", *command.args]
        timeout = TIMEOUT_S.get(command.kind, DEFAULT_TIMEOUT_S)
        child = self._spawn(argv, out_path, err_path, timeout)
        stdout = out_path.read_bytes()
        stderr = err_path.read_text(errors="replace")
        code = child["exit"]
        inv = Invocation(
            args=command.args,
            wall_s=child["wall_s"],
            cpu_s=child["cpu_s"],
            rss_mb=child["rss_kb"] / 1024,
            exit=code,
            stdout_sha256=hashlib.sha256(stdout).hexdigest(),
        )
        if command.kind == "verify":
            inv.suite_failures = oracle.verify_trailer(stdout)[1]
        if traced and tally_path.exists():
            inv.tally = json.loads(tally_path.read_text())
            tally_path.unlink()
        inv.items, inv.failure, inv.mismatch = classify(
            command, code, child["timed_out"], stdout, stderr, timeout)
        return inv

    def setup(self, starts: int) -> list[Invocation]:
        """Timed CLI starts that do no math (interpreter start, package
        import, parser build).  The runner's first start, which also
        writes the bytecode caches, is made untimed."""
        if not self.warm:
            starts += 1
        timed = []
        for _ in range(starts):
            inv = self.invoke(Command("help", ("--help",)))
            if inv.failure:
                raise SetupError(f"`python -m gstirling --help` failed: {inv.failure}")
            timed.append(inv)
        if not self.warm:
            self.warm = True
            timed = timed[1:]
        return timed


def measure(runner: Runner, commands: list[Command], seconds: float) -> tuple[list, list]:
    """Whole passes back to back: at least MIN_PASSES, then more while the
    next one should end within `seconds`.  A burst of set-up starts
    follows every pass, so they sample the machine across the run.
    Returns (set-up starts, passes)."""
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        passes.append([runner.invoke(c) for c in commands])
        setup += runner.setup(SETUP_BURST)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return setup, passes


def tail(samples: list[float], list_length: int) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it in MIN_PASSES passes of the command list, read by
    nearest rank, so the percentile does not change with the number of
    passes; the maximum when those passes hold ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    least = MIN_PASSES * list_length
    if least <= 10:
        return ordered[-1], 100.0
    rank = -(-(least - 10) * n // least)  # ceil, in integers
    return ordered[rank - 1], 100.0 * (least - 10) / least


def end_to_end(workload: str, setup: list[Invocation], passes: list[list[Invocation]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes that go with them."""
    invocations = [inv for p in passes for inv in p]
    walls = [inv.wall_s for inv in invocations]
    kind = ITEM_KIND[workload]
    rates = []
    for p in passes:
        item_invs = [inv for inv in p if inv.args[0] == kind]
        rates.append(sum(inv.items for inv in item_invs) / sum(inv.wall_s for inv in item_invs))
    tail_value, tail_pct = tail(walls, len(passes[0]))
    metrics = {
        "setup_s": min(inv.wall_s for inv in setup),
        "wall_s": statistics.median(sum(inv.wall_s for inv in p) for p in passes),
        "cpu_s": statistics.median(sum(inv.cpu_s for inv in p) for p in passes),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": max(inv.rss_mb for inv in invocations),
        "items_per_s": statistics.median(rates),
    }
    failed = sum(1 for inv in invocations if inv.failure)
    notes = {
        "passes": len(passes),
        "setup_starts": len(setup),
        "cmd_tail_percentile": tail_pct,
        "cmd_samples": len(walls),
        "items_name": ITEM_NAME[workload],
        "error_rate": failed / len(invocations),
    }
    return metrics, notes


def aggregate(invocations: list[Invocation]) -> dict:
    """Sum the tallies of traced invocations."""
    total = {"tallies": {}, "fraction_new": 0, "max_coeff_bits": 0, "roots_found": 0,
             "import_ns": 0, "missing": set()}
    for inv in invocations:
        t = inv.tally or {}
        for name, values in t.get("tallies", {}).items():
            acc = total["tallies"].setdefault(name, [0] * len(values))
            for i, v in enumerate(values):
                acc[i] += v
        total["fraction_new"] += t.get("fraction_new", 0)
        total["max_coeff_bits"] = max(total["max_coeff_bits"], t.get("max_coeff_bits", 0))
        total["roots_found"] += t.get("roots_found", 0)
        total["import_ns"] += sum(e - s for _, _, name, s, e in t.get("spans", ()) if name == "cli.import")
        total["missing"].update(t.get("missing", ()))
    total["missing"] = sorted(total["missing"])
    return total


def suite_counts(invocations: list[Invocation]) -> tuple[int, int]:
    """(checks, failures) summed over the verify invocations."""
    verify = [inv for inv in invocations if inv.args[0] == "verify"]
    return sum(inv.items for inv in verify), sum(inv.suite_failures for inv in verify)


def per_layer(total: dict, overhead_s: float, checks: int, failures: int) -> dict:
    tallies = total["tallies"]

    def field(name: str, index: int) -> int:
        return tallies.get(name, [0] * 6)[index]

    values = {}
    for metric, _, (how, *arg) in PER_LAYER:
        if how == "calls":
            v = field(arg[0], CALLS)
        elif how == "errors":
            v = field(arg[0], ERRORS)
        elif how == "self":
            v = field(arg[0], SELF_NS) / 1e9
        elif how == "outer":
            v = field(arg[0], OUTER_NS) / 1e9
        elif how == "module_self":
            v = sum(t[SELF_NS] for n, t in tallies.items() if n.startswith(arg[0] + ".")) / 1e9
        elif how == "import":
            v = total["import_ns"] / 1e9
        elif how == "evals_per_root":
            found = total["roots_found"]
            v = field("qpoly.eval", UNDER) / found if found else 0.0
        elif how == "suite_checks":
            v = checks
        elif how == "suite_failures":
            v = failures
        elif how == "overhead":
            v = overhead_s
        else:
            v = total[how]
        values[metric] = v
    return values


def module_shares(total: dict, traced_wall: float) -> dict:
    """Self time per module as a share of traced wall time.  The share is
    the most a faster module could save, since nothing contends for the
    CPU.  suite.* spans are summed as self time here."""
    shares = {}
    for module in MODULES:
        ns = sum(t[SELF_NS] for n, t in total["tallies"].items() if n.startswith(module + "."))
        if module == "cli":
            ns += total["import_ns"]
        shares[module] = ns / 1e9 / traced_wall if traced_wall else 0.0
    return shares


# --- run record -------------------------------------------------------------

def git_sha(root: Path) -> str:
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def source_digest(root: Path, directory: str) -> str:
    h = hashlib.sha256()
    for path in sorted((root / directory).rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def history_quartiles(entry: dict) -> dict:
    """Append this run to the history and return, per metric, the
    quartiles over every recorded run of the same source and settings."""
    path = OUT / "history.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    key = ("workload", "trace", "seconds", "source", "bench")
    runs = []
    for line in path.read_text().splitlines():
        past = json.loads(line)
        if all(past.get(k) == entry[k] for k in key):
            runs.append(past["metrics"])
    quartiles = {}
    for name in entry["metrics"]:
        vals = [r[name] for r in runs if name in r]
        if len(vals) >= 2:
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            quartiles[name] = {"q1": q1, "median": q2, "q3": q3, "runs": len(vals),
                               "spread": (q3 - q1) / q2 if q2 else 0.0}
    return quartiles


def traced_run(runner: Runner, commands: list[Command], spans_path: Path):
    """One untraced and one traced pass; returns (invocations, per-layer
    metrics, notes, trace summary) and writes the spans."""
    untraced = [runner.invoke(c) for c in commands]
    traced = [runner.invoke(c, traced=True) for c in commands]
    for plain, inv in zip(untraced, traced):
        if inv.stdout_sha256 != plain.stdout_sha256 and not inv.failure:
            inv.failure, inv.mismatch = "oracle: traced stdout differs from untraced stdout", True
    invocations = untraced + traced
    traced_wall = sum(inv.wall_s for inv in traced)
    untraced_wall = sum(inv.wall_s for inv in untraced)
    total = aggregate(traced)
    metrics = per_layer(total, traced_wall - untraced_wall, *suite_counts(traced))
    with open(spans_path, "w", encoding="utf-8") as fh:
        for number, inv in enumerate(traced):
            for span_id, parent, name, start, end in (inv.tally or {}).get("spans", ()):
                fh.write(json.dumps({"invocation": number, "id": span_id, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
    summary = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "missing": total["missing"], "spans": str(spans_path.relative_to(ROOT)),
               "module_shares": module_shares(total, traced_wall), "tallies": total["tallies"]}
    notes = {"error_rate": sum(1 for i in invocations if i.failure) / len(invocations)}
    return invocations, metrics, notes, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gstirling" / "__main__.py").is_file():
        print(f"perfbench: no gstirling package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    # the launcher is started first, while this process is still small
    with Runner(ROOT, OUT / "tmp") as runner:
        try:
            setup = runner.setup(SETUP_BURST)
            commands = workloads.build(args.workload, args.seed)
            trace_info = {}
            if args.trace:
                spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
                invocations, metrics, notes, trace_info = traced_run(runner, commands, spans_path)
                units = {name: unit for name, unit, _ in PER_LAYER}
            else:
                more_setup, passes = measure(runner, commands, args.seconds)
                invocations = [inv for p in passes for inv in p]
                metrics, notes = end_to_end(args.workload, setup + more_setup, passes)
                units = dict(END_TO_END)
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git": git_sha(ROOT), "source": source_digest(ROOT, "src"),
        "bench": source_digest(ROOT, "perfbench"), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "load_start": load_start, "load_end": os.getloadavg(),
    }
    if args.workload == "roots":
        in_a = sum(workloads.in_region_a(c.info["alpha"], c.info["beta"]) for c in commands)
        notes["region_a_share"] = in_a / len(commands)
    quartiles = history_quartiles({**stamp, "metrics": metrics})
    correct, attempted, failed = verdict(invocations)
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps({
        "stamp": stamp, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "notes": notes, "quartiles": quartiles, "trace": trace_info,
        "invocations": [inv.record() for inv in invocations],
    }, indent=1))

    report(stamp, metrics, units, notes, quartiles, trace_info, invocations, results_path)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def report(stamp, metrics, units, notes, quartiles, trace_info, invocations, results_path) -> None:
    print(f"perfbench {stamp['workload']} seed={stamp['seed']} trace={stamp['trace']}"
          f" seconds={stamp['seconds']:g}")
    print(f"  git={stamp['git'][:12]} source={stamp['source']} python={stamp['python']}"
          f" nproc={stamp['nproc']} cpu={stamp['cpu']!r}")
    print(f"  load average {stamp['load_start'][0]:.2f} -> {stamp['load_end'][0]:.2f}")
    failed = [inv for inv in invocations if inv.failure]
    print(f"  invocations {len(invocations)}, failed {len(failed)},"
          f" error_rate {notes['error_rate']:.4f}")
    for inv in failed[:5]:
        print(f"    failed: {' '.join(inv.args)} -> {inv.failure[:160]}")
    if "region_a_share" in notes:
        print(f"  region A share of the drawn pairs: {notes['region_a_share']:.3f}")
    if "passes" in notes:
        print(f"  passes {notes['passes']}; cmd_tail_s is p{notes['cmd_tail_percentile']:.1f}"
              f" of {notes['cmd_samples']} samples; items_per_s is {notes['items_name']}")
    if trace_info:
        print(f"  traced wall {trace_info['traced_wall_s']:.3f} s, untraced"
              f" {trace_info['untraced_wall_s']:.3f} s, spans in {trace_info['spans']}")
        shares = ", ".join(f"{m} {s:.1%}" for m, s in trace_info["module_shares"].items())
        print(f"  self-time share of traced wall: {shares}")
        if trace_info["missing"]:
            print(f"  traced names that no longer exist: {', '.join(trace_info['missing'])}")
    for name, unit in units.items():
        value = metrics[name]
        line = f"  {name:<30} {value if isinstance(value, int) else format(value, '.6g'):>14} {unit}"
        q = quartiles.get(name)
        if q:
            line += (f"   [runs {q['runs']}: q1 {q['q1']:.6g} median {q['median']:.6g}"
                     f" q3 {q['q3']:.6g} spread {q['spread']:.3f}]")
        print(line)
    print(f"  results: {results_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
