"""Run one ``gstirling`` command with its public functions traced.

Usage: python3 perfbench/tracer.py TALLY.json -- <gstirling arguments>

Run with ``src`` on PYTHONPATH.  The command's stdout, stderr and exit
status are those of ``python -m gstirling``; on exit the tracer writes
TALLY.json with, per traced name, the call count, self time, errors and
outermost inclusive time, plus the recorded spans and the count of
``Fraction`` constructions.

Only public names are wrapped, so the trace survives refactors of private
helpers.  Every module's binding of a wrapped function is replaced, since
modules import names directly (``from .family import poly``).  A name
that no longer exists is listed under "missing" instead of failing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

# Spans shorter than this are kept only in the per-name tallies.  A parent
# lasts at least as long as its child, so every recorded span's parent is
# recorded too.
SPAN_MIN_NS = 200_000

# (span name, module under gstirling, attribute)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.run_table", "cli", "run_table"),
    ("cli.run_poly", "cli", "run_poly"),
    ("cli.run_eval", "cli", "run_eval"),
    ("cli.run_zeros", "cli", "run_zeros"),
    ("cli.run_family", "cli", "run_family"),
    ("cli.run_verify", "cli", "run_verify"),
    ("rationals.parse", "rationals", "parse_rational"),
    ("rationals.format", "rationals", "format_rational"),
    ("rationals.rising", "rationals", "rising"),
    ("stirling.table", "stirling", "gstirling_table"),
    ("stirling.explicit", "stirling", "gstirling_explicit"),
    ("stirling.egf", "stirling", "gstirling_egf"),
    ("stirling.inverse", "stirling", "gstirling_inverse"),
    ("stirling.partial_r_bell", "stirling", "partial_r_bell"),
    ("stirling.rlah", "stirling", "rlah"),
    ("stirling.composition", "stirling", "composition_report"),
    ("family.poly", "family", "poly"),
    ("family.addition", "family", "addition"),
    ("family.to_bell_basis", "family", "to_bell_basis"),
    ("family.rebase", "family", "rebase"),
    ("family.rising_expansion", "family", "rising_expansion"),
    ("family.lah_rebase_report", "family", "lah_rebase_report"),
    ("family.eval_dobinski", "family", "eval_dobinski"),
    ("series.mul", "series", "QXSeries.__mul__"),
    ("series.exp", "series", "series_exp"),
    ("series.gf_derivative", "series", "verify_gf_derivative"),
    ("operators.derivative", "operators", "ExpMonomialSum.derivative"),
    ("operators.euler_shift", "operators", "ExpMonomialSum.euler_shift"),
    ("operators.rodrigues", "operators", "verify_rodrigues_first"),
    ("operators.rodrigues", "operators", "verify_rodrigues_second"),
    ("operators.bell_operator", "operators", "verify_bell_operator"),
    ("qpoly.init", "qpoly", "QPolynomial.__init__"),
    ("qpoly.mul", "qpoly", "QPolynomial.__mul__"),
    ("qpoly.add", "qpoly", "QPolynomial.__add__"),
    ("qpoly.divmod", "qpoly", "QPolynomial.__divmod__"),
    ("qpoly.eval", "qpoly", "QPolynomial.__call__"),
    ("qpoly.gcd", "qpoly", "poly_gcd"),
    ("zeros.sturm_chain", "zeros", "sturm_chain"),
    ("zeros.square_free", "zeros", "square_free_part"),
    ("zeros.all_roots_real", "zeros", "all_roots_real"),
    ("zeros.isolate_roots", "zeros", "isolate_roots"),
    # the functions suite.run_all calls, one span name per identity
    ("suite.triple-route", "suite", "triple_route_ok"),
    ("suite.first-values", "suite", "first_values_ok"),
    ("suite.recurrence-chain", "suite", "recurrence_chain_ok"),
    ("suite.inverse-pair", "suite", "inverse_pair_ok"),
    ("suite.bell-basis", "suite", "bell_basis_ok"),
    ("suite.bell-basis", "suite", "u_bell_display_ok"),
    ("suite.rbell", "suite", "rbell_ok"),
    ("suite.addition", "suite", "addition_ok"),
    ("suite.gf-derivative", "suite", "gf_derivative_ok"),
    ("suite.rodrigues", "suite", "rodrigues_ok"),
    ("suite.bell-operator", "suite", "bell_operator_ok"),
    ("suite.rebase", "suite", "rebase_roundtrip_ok"),
    ("suite.real-zeros", "suite", "real_zeros_ok"),
    ("suite.log-concave", "suite", "log_concave_ok"),
    ("suite.specializations", "suite", "specializations_ok"),
)

# run_all's entry points for lah-rebase, composition and rising-expansion,
# which live outside suite.py; they join the suite group below
SUITE_ELSEWHERE = ("family.lah_rebase_report", "stirling.composition", "family.rising_expansion")

# tally fields; UNDER counts qpoly.eval calls made inside isolate_roots
CALLS, SELF_NS, OUTER_NS, ERRORS, UNDER, DEPTH = range(6)


def _coeff_bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coefficients),
        default=0,
    )


class Tracer:
    """Call tallies and spans for one process; see the module docstring."""

    def __init__(self):
        self.stack: list[list[int]] = []  # [span id, start ns, child ns]
        self.tallies: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.last_id = 0
        self.fraction_new = [0]
        self.max_coeff_bits = 0
        self.roots_found = 0
        self.missing: list[str] = []
        # shared by all identity spans, so a check nested in another
        # (specializations calls u_bell_display_ok) is not timed twice
        self.suite_depth = [0]

    def _tally(self, name: str) -> list[int]:
        return self.tallies.setdefault(name, [0] * 6)

    def span(self, name: str, start: int, end: int) -> None:
        self.last_id += 1
        self.spans.append((self.last_id, 0, name, start, end))

    def wrap(self, fn, name: str):
        tally = self._tally(name)
        group = self.suite_depth if name.startswith("suite.") or name in SUITE_ELSEWHERE else None
        under = self._tally("zeros.isolate_roots") if name == "qpoly.eval" else None
        observe = {"family.poly": self._saw_poly, "zeros.isolate_roots": self._saw_roots}.get(name)
        stack, spans, clock, tracer = self.stack, self.spans, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.last_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [tracer.last_id, clock(), 0]
            stack.append(frame)
            outer = not (group[0] if group is not None else tally[DEPTH])
            tally[DEPTH] += 1
            if group is not None:
                group[0] += 1
            if under is not None and under[DEPTH]:
                tally[UNDER] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tally[ERRORS] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tally[DEPTH] -= 1
                duration = end - frame[1]
                tally[CALLS] += 1
                tally[SELF_NS] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if group is not None:
                    group[0] -= 1
                if outer:
                    tally[OUTER_NS] += duration
                if duration >= SPAN_MIN_NS:
                    spans.append((frame[0], parent, name, frame[1], end))
            if observe is not None:
                observe(result)
            return result

        return traced

    def _saw_poly(self, p) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(p))

    def _saw_roots(self, intervals) -> None:
        self.roots_found += len(intervals)

    def count_fractions(self) -> None:
        """Count every Fraction construction in this process."""
        cell = self.fraction_new
        new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            cell[0] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = counted_new
        coprime = Fraction.__dict__.get("_from_coprime_ints")
        if coprime is not None:  # Python 3.12+ builds results through it
            make = coprime.__func__

            def counted_coprime(cls, numerator, denominator):
                cell[0] += 1
                return make(cls, numerator, denominator)

            Fraction._from_coprime_ints = classmethod(counted_coprime)

    def install(self) -> None:
        """Wrap every target and rebind it in every gstirling module."""
        modules = [m for key, m in sys.modules.items() if key == "gstirling" or key.startswith("gstirling.")]
        for name, module, attr in TARGETS:
            owner = sys.modules.get(f"gstirling.{module}")
            owner_name, _, member = attr.rpartition(".")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(original, name)
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)

    def dump(self, path: str, exit_code) -> None:
        payload = {
            "exit": exit_code,
            "tallies": self.tallies,
            "fraction_new": self.fraction_new[0],
            "max_coeff_bits": self.max_coeff_bits,
            "roots_found": self.roots_found,
            "missing": self.missing,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TALLY.json -- <gstirling arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.count_fractions()
    start = time.perf_counter_ns()
    from gstirling import cli

    tracer.span("cli.import", start, time.perf_counter_ns())
    tracer.install()
    code = None
    try:
        code = cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[1], code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
