"""Command-line front end.

Subcommands: qdepth, beta, sqf, hyp, verify.  Each is declared once, in
``COMMANDS``: its handler, its help line and its arguments.
``_declare`` fills a parser from one entry and adds the JSON flag, so a
flag that every subcommand takes is one line there.  ``build_parser``
builds the whole tree, every subcommand under one top-level parser.
``_emit_json`` names the subcommand in the JSON ``command`` field.

``main`` parses a line whose first argument names a subcommand with that
subcommand's parser alone, and any other line (none, ``-h``, an unknown or
abbreviated name, an option before the name) with the whole tree.  The two
agree exactly: the top level has no positional but the subcommand and no
option that takes a value, so argparse hands every argument after the
name to the subparser, whose names it matches exactly, never by
abbreviation; and ``_Parser.error`` prints no usage line, so a usage error
is the subparser's own text either way.

Exit codes: 0 success, 1 a mathematical property was violated, 2 bad input
or configuration.  JSON output writes coefficients, beta values, depths,
bounds, degrees and variable counts as decimal strings so consumers never
truncate; its only numbers are ``function.denomPower``, ``seed``,
``violationCount`` and ``casesRun``, and its only bool is ``match``.  It is
byte-identical across runs with the same seed and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .depth import BetaTable, QDepthResult, beta_table, qdepth
from .dsl import parse_function
from .errors import HilbertDepthError, ParseError
from .hypergeometric import big_e, coeff_table, gauss_2f1
from .series import from_table
from .squarefree import (
    HARD_VARIABLE_CAP,
    SquarefreeQuotient,
    alpha_vector,
    format_ideal,
    parse_ideal,
    qdepth_from_alpha,
)
from .verify import BATTERIES, DEFAULT_SEED, run_battery


# Longest error message printed whole; a longer one keeps its head and tail.
MAX_MESSAGE = 500


def _read_arg(value: str) -> str:
    """Literal argument, or the contents of a UTF-8 file when prefixed with @.

    A file that does not decode is a ParseError at the offending byte, so
    it exits 2 like any other bad input.
    """
    if not value.startswith("@"):
        return value
    path = value[1:]
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 ({exc.reason})", exc.start) from exc


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    payload["command"] = args.command
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _print_table(table: BetaTable) -> None:
    values = ", ".join(str(v) for v in table.values)
    print(f"beta table (d={table.d}, k={table.start_k}..{table.d}): [{values}]")


def _print_result(result: QDepthResult) -> None:
    print(f"qdepth:  {result.qdepth}")
    print(f"bounds:  [{result.lower_bound}, {result.upper_bound}]")
    _print_table(result.certificate)
    if result.refutation is None:
        print("refutation: none (depth equals the upper bound)")
    else:
        d, k, b = result.refutation
        print(f"refutation: beta at d={d}, k={k} is {b} < 0")


def cmd_qdepth(args: argparse.Namespace) -> int:
    h = parse_function(_read_arg(args.spec))
    result = qdepth(h)
    if args.json:
        _emit_json(args, {"function": h.to_json_dict(), **result.to_json_dict()})
    else:
        _print_result(result)
    return 0


def cmd_beta(args: argparse.Namespace) -> int:
    h = parse_function(_read_arg(args.spec))
    table = beta_table(h, args.d)
    if args.json:
        _emit_json(args, {"function": h.to_json_dict(), "table": table.to_json_dict()})
    else:
        _print_table(table)
    return 0


def cmd_sqf(args: argparse.Namespace) -> int:
    upper = parse_ideal(_read_arg(args.upper), args.n)
    lower = parse_ideal(_read_arg(args.lower), args.n)
    quotient = SquarefreeQuotient(args.n, upper, lower)
    alpha = alpha_vector(quotient, args.max_vars)
    direct = qdepth_from_alpha(alpha)
    table = from_table(dict(enumerate(alpha)))
    via_function = qdepth(table)
    match = direct.qdepth == via_function.qdepth
    if args.json:
        _emit_json(
            args,
            {
                "n": str(args.n),
                "upper": format_ideal(upper),
                "lower": format_ideal(lower),
                "alpha": [str(a) for a in alpha],
                "quotientDepth": direct.to_json_dict(),
                "functionDepth": via_function.to_json_dict(),
                "match": match,
            }
        )
    else:
        print(f"n:     {args.n}")
        print(f"upper: {format_ideal(upper)}")
        print(f"lower: {format_ideal(lower)}")
        print(f"alpha: {alpha}")
        print(f"qdepth from alpha:    {direct.qdepth}")
        print(f"qdepth from function: {via_function.qdepth}")
        _print_table(direct.certificate)
        print("verdict: MATCH" if match else "verdict: MISMATCH")
    return 0 if match else 1


def cmd_hyp(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise HilbertDepthError(f"need n >= 1, got {n}")
    gauss = [gauss_2f1(k, n) for k in range(n + 1)]
    sums = {k: big_e(n, k) for k in range(2, n + 1)}
    rows = [row[: k + 1] for k, row in enumerate(coeff_table(n, n, n).rows, 1)]
    if args.json:
        _emit_json(
            args,
            {
                "n": str(n),
                "gauss": [str(v) for v in gauss],
                "bigE": {str(k): str(e) for k, e in sums.items()},
                "coeffRows": [[str(v) for v in row] for row in rows],
            }
        )
        return 0
    print(f"gauss values (k=0..{n}): [{', '.join(str(v) for v in gauss)}]")
    if sums:
        parts = ", ".join(f"E({n},{k})={e}" for k, e in sums.items())
        print(f"integer sums: {parts}")
    print("derivative table (rows k, entries j=0..k, sign annotated):")
    for k, row in enumerate(rows, 1):
        entries = (f"{v}({'0' if v == 0 else '+' if v > 0 else '-'})" for v in row)
        print(f"  k={k}: " + "  ".join(entries))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all and args.batteries:
        raise HilbertDepthError(f"--all takes no battery names, got {args.batteries}")
    names = list(BATTERIES) if args.all else args.batteries
    if not names:
        raise HilbertDepthError("no batteries selected (name some or pass --all)")
    unknown = [b for b in names if b not in BATTERIES]
    if unknown:
        raise HilbertDepthError(f"unknown batteries {unknown}")
    repeated = sorted({b for b in names if names.count(b) > 1})
    if repeated:
        raise HilbertDepthError(f"batteries named more than once {repeated}")
    reports = [
        run_battery(name, args.max_n, args.max_degree, args.trials, args.seed)
        for name in names
    ]
    total = sum(len(r.violations) for r in reports)
    if args.json:
        _emit_json(
            args,
            {
                "seed": args.seed if args.seed is not None else DEFAULT_SEED,
                "batteries": [r.to_json_dict() for r in reports],
                "violationCount": total,
            }
        )
    else:
        for r in reports:
            print(r.summary_line())
            for v in r.violations:
                print(f"    violation: {v}")
        print(f"total violations: {total}")
    return 0 if total == 0 else 1


_SPEC = ("spec", {"help": "function expression, or @file"})

# name: (handler, help line, [(flag, add_argument options), ...]), in the
# order the help lists them.
COMMANDS = {
    "qdepth": (cmd_qdepth, "depth of a function expression", [_SPEC]),
    "beta": (cmd_beta, "beta table of a function expression",
             [_SPEC, ("--d", {"type": int, "required": True})]),
    "sqf": (cmd_sqf, "depth of a squarefree monomial quotient", [
        ("n", {"type": int, "help": "number of variables"}),
        ("upper", {"help": 'outer ideal, e.g. "x1*x3, x2" ("1" = ring)'}),
        ("lower", {"nargs": "?", "default": "0", "help": 'inner ideal (default "0")'}),
        ("--max-vars", {"type": int, "default": None,
                        "help": f"variable cap override (ceiling {HARD_VARIABLE_CAP})"}),
    ]),
    "hyp": (cmd_hyp, "exact hypergeometric tables for one n", [("n", {"type": int})]),
    "verify": (cmd_verify, "run verification batteries", [
        ("batteries", {"nargs": "*", "help": "battery names: " + ", ".join(BATTERIES)}),
        ("--all", {"action": "store_true", "help": "run every battery"}),
        ("--max-n", {"type": int, "default": None}),
        ("--max-degree", {"type": int, "default": None}),
        ("--trials", {"type": int, "default": None}),
        ("--seed", {"type": int, "default": None,
                    "help": f"randomized batteries seed (default {DEFAULT_SEED})"}),
    ]),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors, in subcommands too, leave by main's one-line exit 2."""

    def error(self, message: str):
        raise HilbertDepthError(message)


def _declare(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Fill ``parser`` as subcommand ``name``: its arguments from
    ``COMMANDS``, ``--json``, and its handler as ``func``.  Returns it."""
    handler, _, arguments = COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilbertdepth",
        description="Exact Hilbert depth of Hilbert functions, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in COMMANDS.items():
        _declare(sub.add_parser(name, help=help_line), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns or raises, building
    only the named subcommand's parser when ``argv[0]`` names one."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    name = argv[0]
    args = _declare(_Parser(prog=f"hilbertdepth {name}"), name).parse_args(argv[1:])
    args.command = name
    return args


def main(argv: list[str] | None = None) -> int:
    # The parsers reject literals over MAX_LITERAL_DIGITS digits, so the
    # interpreter's cap on int <-> str conversion (CPython 3.10.7 and later)
    # is lifted while the command runs: exact results print at any size.
    # It is lifted after parsing, so argparse's int() refuses an overlong
    # flag value instead of converting it in quadratic time.
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if cap is not None:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except (HilbertDepthError, OSError) as exc:
        message = str(exc)
        if len(message) > MAX_MESSAGE:
            # an echoed input can be any length; the tail keeps the position
            half = MAX_MESSAGE // 2
            message = f"{message[:half]}...{message[-half:]}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
