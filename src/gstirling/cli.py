"""Command-line front end.

Subcommands: ``table`` (coefficient triangle), ``poly`` (one family
member), ``eval`` (summed-series evaluation), ``zeros`` (real-root
report), ``family`` (named specializations), ``verify`` (identity
checks).  Exit codes are fixed for scripting: 0 success, 1 I/O error,
2 usage or arithmetic error, 3 verification failure, 130 interrupted.
Rationals on the command line use the same exact "p/q" syntax as every
emitter; decimals are rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import re
import sys
from fractions import Fraction
from math import isfinite, lcm

from . import family, suite, zeros
from .qpoly import QPolynomial
from .rationals import WireFormatError, format_rational, parse_rational
from .stirling import gstirling_table

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERRUPT = 130  # 128 + SIGINT, as shells report it


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except WireFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonzero_beta(value: Fraction) -> Fraction:
    if value == 0:
        raise ValueError("beta must be nonzero")
    return value


def _emit(payload, output: str | None) -> None:
    """Write a dict as indented JSON, or an iterable of lines, to stdout or
    to the ``--output`` file, which is opened only now that the result is
    computed."""
    if output is None:
        stream = contextlib.nullcontext(sys.stdout)
    else:
        stream = open(output, "w", encoding="utf-8")
    with stream as fh:
        if isinstance(payload, dict):
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            fh.writelines(f"{line}\n" for line in payload)


def _pretty_poly(p: QPolynomial) -> str:
    """Human form with a common denominator, e.g. "(x^2 + 4x + 2)/2"."""
    if p.is_zero:
        return "0"
    den = 1
    for c in p.coefficients:
        den = lcm(den, c.denominator)
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k) * den
        if c == 0:
            continue
        mag = abs(int(c))
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    core = " ".join(terms)
    return core if den == 1 else f"({core})/{den}"


def _poly_output(p: QPolynomial, fmt: str, extra: dict, note: str | None = None) -> dict | list[str]:
    coeffs = [format_rational(c) for c in (p.coefficients or (Fraction(0),))]
    if fmt == "json":
        payload = dict(extra)
        payload["coefficients"] = coeffs
        payload["pretty"] = _pretty_poly(p)
        if note:
            payload["note"] = note
        return payload
    lines = [", ".join(coeffs)]
    if fmt == "pretty":
        lines.append(f"pretty: {_pretty_poly(p)}")
        if note:
            lines.append(f"note: {note}")
    return lines


def run_table(args) -> int:
    _nonzero_beta(args.beta)
    rows = gstirling_table(args.alpha, args.beta, args.nmax)
    if args.format == "json":
        # the lines json.dump(..., indent=2) writes for {"alpha", "beta",
        # "rows"}, one row at a time so the formatted table is never held
        # whole; wire-form rationals need no JSON escaping
        payload = itertools.chain(
            [
                "{",
                f'  "alpha": "{format_rational(args.alpha)}",',
                f'  "beta": "{format_rational(args.beta)}",',
                '  "rows": [',
            ],
            (
                "    [\n"
                + ",\n".join(f'      "{format_rational(v)}"' for v in row)
                + ("\n    ]," if n < args.nmax else "\n    ]")
                for n, row in enumerate(rows)
            ),
            ["  ]", "}"],
        )
    elif args.format == "csv":
        payload = itertools.chain(
            ["n,k,value"],
            (
                f"{n},{k},{format_rational(v)}"
                for n, row in enumerate(rows)
                for k, v in enumerate(row)
            ),
        )
    else:
        payload = (
            f"n={n}: " + ", ".join(format_rational(v) for v in row)
            for n, row in enumerate(rows)
        )
    _emit(payload, args.output)
    return EXIT_OK


def run_poly(args) -> int:
    _nonzero_beta(args.beta)
    params = family.FamilyParams(args.alpha, args.beta)
    p = family.poly(params, args.n)
    extra = {
        "alpha": format_rational(args.alpha),
        "beta": format_rational(args.beta),
        "n": args.n,
    }
    _emit(_poly_output(p, args.format, extra), args.output)
    return EXIT_OK


def run_eval(args) -> int:
    _nonzero_beta(args.beta)
    try:
        epsilon = float(args.epsilon)
    except ValueError:
        raise ValueError(f"epsilon must be a decimal string, got {args.epsilon!r}")
    if not isfinite(epsilon):
        raise ValueError(f"--epsilon must be finite, got {args.epsilon}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {args.epsilon}")
    params = family.FamilyParams(args.alpha, args.beta)
    value = family.eval_dobinski(params, args.n, args.x, epsilon)
    exact = family.poly(params, args.n)(args.x)
    if isinstance(value, float):
        series = repr(value)
    else:
        # past the float range: 17 significant digits in repr's style, and
        # a JSON string, since a JSON number this large reads back as inf
        mantissa, exponent = f"{value:.16e}".split("e")
        series = value = f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"
    if args.format == "json":
        payload = {
            "alpha": format_rational(args.alpha),
            "beta": format_rational(args.beta),
            "n": args.n,
            "x": format_rational(args.x),
            "epsilon": args.epsilon,
            "series": value,
            "exact": format_rational(exact),
        }
    else:
        payload = (f"series = {series}", f"exact = {format_rational(exact)}", f"epsilon = {args.epsilon}")
    _emit(payload, args.output)
    return EXIT_OK


def run_zeros(args) -> int:
    _nonzero_beta(args.beta)
    params = family.FamilyParams(args.alpha, args.beta)
    report = zeros.region_report(params, args.nmax, args.max_width)
    if args.format == "json":
        payload = report.to_json_dict()
    elif args.format == "csv":
        payload = ["n,all_real,asserted,roots"]
        for row in report.results:
            intervals = ";".join(f"{lo}..{hi}" for lo, hi in row.roots)
            payload.append(f"{row.n},{str(row.all_real).lower()},{str(row.asserted).lower()},{intervals}")
    else:
        payload = [
            f"alpha={format_rational(params.alpha)} beta={format_rational(params.beta)}"
            f" region={report.region}"
        ]
        for row in report.results:
            flag = "asserted" if row.asserted else "not asserted"
            intervals = ", ".join(f"[{lo}, {hi}]" for lo, hi in row.roots)
            payload.append(f"n={row.n}: all_real={row.all_real} ({flag}) roots: {intervals}")
    _emit(payload, args.output)
    return EXIT_OK if report.ok else EXIT_VERIFY


LAGUERRE_NOTE = "classical-convention polynomials are this sequence evaluated at -x"


def run_family(args) -> int:
    name = args.name
    extra: dict = {"family": name, "n": args.n}
    note = None
    if name == "U":
        p = family.family_U(args.n)
    elif name == "V":
        p = family.family_V(args.n)
    elif name == "laguerre":
        p = family.family_laguerre(args.lam, args.n)
        extra["lambda"] = format_rational(args.lam)
        note = LAGUERRE_NOTE
    else:
        if args.m < 1:
            raise ValueError(f"--m must be a positive integer, got {args.m}")
        p = family.family_assoc_lah(args.m, args.n)
        extra["m"] = args.m
    _emit(_poly_output(p, args.format, extra, note), args.output)
    return EXIT_OK


def run_verify(args) -> int:
    names = ("alpha", "beta", "alpha2", "beta2", "lam", "r", "m", "nmax", "order")
    options = {name: getattr(args, name) for name in names}
    if args.all:
        suite.given_options("--all", (), options)
        results, notes = suite.run_all()
    else:
        results, notes = suite.single_results(args.identity, **options)
    failures = sum(1 for res in results if not res.ok)
    lines = [res.line for res in results]
    lines.extend(notes)
    lines.append(f"# checks={len(results)} failures={failures}")
    _emit(lines, args.output)
    return EXIT_VERIFY if failures else EXIT_OK


def _add_output_options(parser, default_format: str) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json", "pretty"), default=default_format
    )
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")


class _Parser(argparse.ArgumentParser):
    # argparse only treats "-1"-style tokens as values, not option names, when
    # they match its negative-number pattern; widen it so "-1/2" parses too.
    # Subparsers are built with the parent's class, so they inherit this.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gstirling",
        description="Exact computations in a two-parameter Stirling-type polynomial family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--alpha", type=_rational, required=True)
    pair.add_argument("--beta", type=_rational, required=True)

    table = sub.add_parser("table", parents=[pair], help="emit the coefficient triangle")
    table.add_argument("--nmax", type=int, default=10)
    _add_output_options(table, "csv")
    table.set_defaults(func=run_table)

    polyp = sub.add_parser("poly", parents=[pair], help="emit one family member's coefficients")
    polyp.add_argument("--n", type=int, required=True)
    _add_output_options(polyp, "csv")
    polyp.set_defaults(func=run_poly)

    evalp = sub.add_parser("eval", parents=[pair], help="evaluate by the summed series form")
    evalp.add_argument("--n", type=int, required=True)
    evalp.add_argument("--x", type=_rational, required=True)
    evalp.add_argument("--epsilon", default="1e-12")
    _add_output_options(evalp, "pretty")
    evalp.set_defaults(func=run_eval)

    zerosp = sub.add_parser("zeros", parents=[pair], help="real-rootedness report with isolated roots")
    zerosp.add_argument("--nmax", type=int, default=10)
    zerosp.add_argument("--max-width", type=_rational, default=Fraction(1, 64))
    _add_output_options(zerosp, "json")
    zerosp.set_defaults(func=run_zeros)

    fam = sub.add_parser("family", help="named specializations")
    fam.add_argument("name", choices=("U", "V", "laguerre", "assoc-lah"))
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--lambda", dest="lam", type=_rational, default=Fraction(0))
    fam.add_argument("--m", type=int, default=1)
    _add_output_options(fam, "csv")
    fam.set_defaults(func=run_family)

    verify = sub.add_parser("verify", help="check identities, printing PASS/FAIL lines")
    which = verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run the built-in grid suite")
    which.add_argument(
        "--identity",
        default=None,
        help="one identity by name or alias; first-values accepts --nmax but"
        " always checks degrees 0..3",
    )
    verify.add_argument("--alpha", type=_rational, default=None)
    verify.add_argument("--beta", type=_rational, default=None)
    verify.add_argument("--alpha2", type=_rational, default=None)
    verify.add_argument("--beta2", type=_rational, default=None)
    verify.add_argument("--lambda", dest="lam", type=_rational, default=None)
    verify.add_argument("--r", type=int, default=None)
    verify.add_argument("--m", type=int, default=None)
    verify.add_argument("--nmax", type=int, default=None)
    verify.add_argument("--order", type=int, default=None)
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=run_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


def entry() -> None:
    raise SystemExit(main())
