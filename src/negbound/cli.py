"""Command-line interface.

Subcommands: analyze (cluster combinatorics), dvalue (per-origin minimal
degrees), bounds (evaluated bound formulas), nu (empirical infimum over a
curve list), dot (proximity graph export).  Exit codes: 0 success, 1 parse or
validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

# sufficiency, bounds and json are imported by the subcommands that use
# them, so a one-shot process loads no more than its report needs.
from .config import analysis_report, dot_export
from .errors import NegboundError, ParseError, quote
from .fileformat import (
    load_configuration,
    load_curves,
    parse_divisor,
    parse_rational,
)
from .surfaces import parse_surface


def format_rational(value: Fraction) -> str:
    """Exact form, with a 6-significant-digit decimal for non-integers."""
    if value.denominator == 1:
        return str(value.numerator)
    if sys.float_info.min <= abs(value) <= sys.float_info.max:
        approx = float(value)
    else:  # outside the normal float range: round in decimal instead
        from decimal import Context, Decimal
        approx = Context(prec=6).divide(Decimal(value.numerator),
                                        value.denominator).normalize()
    return f"{value} ({approx:.6g})"


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


class _Parser(argparse.ArgumentParser):
    """Quotes an invalid choice through ``errors.quote``, so a long one
    cannot flood stderr; subparsers inherit the class."""

    def _check_value(self, action, value):  # argparse's choice check
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {quote(value)} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="negbound",
        description="Cluster combinatorics and negativity bounds for blowups "
                    "of the plane and Hirzebruch surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name: str, summary: str, run, with_json: bool = True):
        """Subcommand ``name``, handled by ``run(config, args)``."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("input", type=Path, help="cluster file")
        if with_json:
            p.add_argument("--json", action="store_true",
                           help="emit a JSON report")
        p.add_argument("--output", type=Path, default=None,
                       help="write the report to a file instead of stdout")
        p.add_argument("--surface", default=None, metavar="SPEC",
                       help="override the file's surface ('p2' or 'f <delta>')")
        return p

    add_common("analyze", "validate and describe a cluster", _cmd_analyze)
    add_common("dvalue", "per-origin minimal degrees", _cmd_dvalue)

    bounds_p = add_common("bounds", "evaluate the bound formulas", _cmd_bounds)
    bounds_p.add_argument("--epsilon", type=_fraction_arg, default=None,
                          metavar="P/Q",
                          help="positive rational epsilon for the epsilon-family bound")
    bounds_p.add_argument("--n-convention", choices=("stated", "example"),
                          default="stated", dest="n_convention")
    bounds_p.add_argument("--pullback", action="store_true",
                          help="bound for pullbacks of nef divisors "
                               "(no epsilon needed)")
    # main's --epsilon/--pullback checks print the bounds usage line
    bounds_p.set_defaults(usage_error=bounds_p.error)

    nu_p = add_common("nu", "empirical infimum over a curve list", _cmd_nu)
    nu_p.add_argument("--divisor", required=True, metavar="LITERAL",
                      help="nef divisor literal, e.g. '3L - E2'")
    nu_p.add_argument("--curves", required=True, type=Path,
                      help="file with one curve-class literal per line")

    add_common("dot", "export the proximity graph as DOT", _cmd_dot,
               with_json=False)
    return parser


def _cmd_analyze(config, args) -> tuple[dict, str | None]:
    report = analysis_report(config)
    if args.json:  # main prints the report itself
        return report, None
    lines = [f"surface: {config.surface}",
             f"points: {len(report['points'])}   "
             f"origins: {' '.join(map(str, report['origins']))}   "
             f"ends: {' '.join(map(str, report['ends']))}",
             f"gamma: {report['gamma']}",
             f"{'id':>4} {'level':>5}  {'kind':<9} {'proximities':<12} E^2"]
    for p in report["points"]:
        prox = " ".join(map(str, p["proximities"])) or "-"
        lines.append(f"{p['id']:>4} {p['level']:>5}  {p['kind']:<9} "
                     f"{prox:<12} {p['e_sq']}")
    return report, "\n".join(lines)


def _cmd_dvalue(config, args) -> tuple[dict, str]:
    from .sufficiency import d_value_report
    report = d_value_report(config)
    lines = [f"origin {entry['id']}: d = {entry['d']}   "
             f"(hat size {entry['hat_size']})"
             for entry in report["origins"]]
    lines.append(f"total d: {report['total_d']}")
    return report, "\n".join(lines)


def _cmd_bounds(config, args) -> tuple[dict, str]:
    from .bounds import epsilon_family_bounds, nef_pullback_bounds
    if args.pullback:
        report = nef_pullback_bounds(config, args.n_convention)
    else:
        report = epsilon_family_bounds(config, args.epsilon, args.n_convention)
    if report.conventions_disagree:
        print(f"warning: n conventions disagree "
              f"(stated {report.n_stated}, example {report.n_example}); "
              f"using {report.convention}", file=sys.stderr)
    lines = [f"surface: {report.surface}",
             f"n: {report.n} ({report.convention})   "
             f"[stated {report.n_stated}, example {report.n_example}]",
             f"d: {report.d}   gamma: {report.gamma}"]
    if report.epsilon is not None:
        lines.append(f"epsilon: {format_rational(report.epsilon)}")
    width = max(len(name) for name, _ in report.terms)
    lines.append("terms:")
    for name, value in report.terms:
        lines.append(f"  {name:<{width}} = {format_rational(value)}")
    lines.append(f"bound: {format_rational(report.bound)}")
    return report.as_json_dict(), "\n".join(lines)


def _cmd_nu(config, args) -> tuple[dict, str]:
    from .bounds import empirical_nu
    divisor = args.divisor  # parsed by main, like every input
    report = empirical_nu(args.curves, divisor)
    lines = [f"divisor: {divisor}"]
    for r in report.ratios:
        ratio = "-" if r.ratio is None else format_rational(r.ratio)
        note = "" if r.qualifies else "   (not counted)"
        lines.append(f"curve {r.index}: C^2 = {format_rational(r.self_intersection)}   "
                     f"D.C = {format_rational(r.pairing_with_divisor)}   "
                     f"ratio = {ratio}{note}")
    value = "undefined" if report.value is None else format_rational(report.value)
    lines.append(f"nu over {len(report.ratios)} supplied curve(s): {value}")
    return {"divisor": str(divisor), **report.as_json_dict()}, "\n".join(lines)


def _cmd_dot(config, args) -> tuple[None, str]:
    return None, dot_export(config).rstrip("\n")


@contextmanager
def _uncapped_int_digits():
    """Lift the interpreter's cap on int/str conversion (Python 3.10.7+)
    for the block, so exact values of any size print; restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bounds" and args.pullback and args.epsilon is not None:
        args.usage_error("--epsilon cannot be combined with --pullback")
    if args.command == "bounds" and not args.pullback and args.epsilon is None:
        args.usage_error("--epsilon is required unless --pullback is given")
    try:
        config = load_configuration(args.input)
        if args.surface is not None:
            config = dataclasses.replace(config,
                                         surface=parse_surface(args.surface))
        if args.command == "nu":  # literals that need the cluster's lattice
            args.divisor = parse_divisor(args.divisor, config.surface, len(config))
            args.curves = load_curves(args.curves, config.surface, len(config))
        # All input is parsed, under the cap; results are exact at any size.
        with _uncapped_int_digits():
            data, text = args.run(config, args)
            if getattr(args, "json", False):
                import json
                text = json.dumps(data, indent=2)
        if args.output is not None:
            args.output.write_text(text + "\n", encoding="utf-8")
        else:
            print(text, flush=True)  # a reader that left raises here
    except BrokenPipeError:  # exit 1 quietly; at exit, flush into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NegboundError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
