"""Command-line front end.

Subcommands: qdepth, beta, sqf, hyp, verify.  Exit codes: 0 success, 1 a
mathematical property was violated, 2 bad input or configuration.  JSON
output serializes every mathematical integer as a decimal string so
consumers never truncate, and is byte-identical across runs with the same
seed and flags.
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


def _emit_json(payload: dict) -> None:
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
        payload = {"command": "qdepth", "function": h.to_json_dict()}
        payload.update(result.to_json_dict())
        _emit_json(payload)
    else:
        _print_result(result)
    return 0


def cmd_beta(args: argparse.Namespace) -> int:
    h = parse_function(_read_arg(args.spec))
    table = beta_table(h, args.d)
    if args.json:
        _emit_json({"command": "beta", "function": h.to_json_dict(),
                    "table": table.to_json_dict()})
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
            {
                "command": "sqf",
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
    row = [gauss_2f1(k, n) for k in range(n + 1)]
    table = coeff_table(n, n, n)
    if args.json:
        _emit_json(
            {
                "command": "hyp",
                "n": str(n),
                "gauss": [str(v) for v in row],
                "bigE": {str(k): str(big_e(n, k)) for k in range(2, n + 1)},
                "coeffRows": [
                    [str(table.value(k, j)) for j in range(k + 1)]
                    for k in range(1, n + 1)
                ],
            }
        )
        return 0
    print(f"gauss values (k=0..{n}): [{', '.join(str(v) for v in row)}]")
    if n >= 2:
        parts = ", ".join(f"E({n},{k})={big_e(n, k)}" for k in range(2, n + 1))
        print(f"integer sums: {parts}")
    print("derivative table (rows k, entries j=0..k, sign annotated):")
    for k in range(1, n + 1):
        entries = []
        for j in range(k + 1):
            v = table.value(k, j)
            mark = "0" if v == 0 else ("+" if v > 0 else "-")
            entries.append(f"{v}({mark})")
        print(f"  k={k}: " + "  ".join(entries))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all and args.batteries:
        print(f"error: --all takes no battery names, got {args.batteries}",
              file=sys.stderr)
        return 2
    names = list(BATTERIES) if args.all else args.batteries
    if not names:
        print("error: no batteries selected (name some or pass --all)", file=sys.stderr)
        return 2
    unknown = [b for b in names if b not in BATTERIES]
    if unknown:
        print(f"error: unknown batteries {unknown}", file=sys.stderr)
        return 2
    repeated = sorted({b for b in names if names.count(b) > 1})
    if repeated:
        print(f"error: batteries named more than once {repeated}", file=sys.stderr)
        return 2
    reports = [
        run_battery(name, args.max_n, args.max_degree, args.trials, args.seed)
        for name in names
    ]
    total = sum(len(r.violations) for r in reports)
    if args.json:
        _emit_json(
            {
                "command": "verify",
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertdepth",
        description="Exact Hilbert depth of Hilbert functions, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qdepth = sub.add_parser("qdepth", help="depth of a function expression")
    p_qdepth.add_argument("spec", help="function expression, or @file")
    p_qdepth.add_argument("--json", action="store_true")
    p_qdepth.set_defaults(func=cmd_qdepth)

    p_beta = sub.add_parser("beta", help="beta table of a function expression")
    p_beta.add_argument("spec", help="function expression, or @file")
    p_beta.add_argument("--d", type=int, required=True)
    p_beta.add_argument("--json", action="store_true")
    p_beta.set_defaults(func=cmd_beta)

    p_sqf = sub.add_parser("sqf", help="depth of a squarefree monomial quotient")
    p_sqf.add_argument("n", type=int, help="number of variables")
    p_sqf.add_argument("upper", help='outer ideal, e.g. "x1*x3, x2" ("1" = ring)')
    p_sqf.add_argument("lower", nargs="?", default="0",
                       help='inner ideal (default "0")')
    p_sqf.add_argument("--max-vars", type=int, default=None,
                       help=f"variable cap override (ceiling {HARD_VARIABLE_CAP})")
    p_sqf.add_argument("--json", action="store_true")
    p_sqf.set_defaults(func=cmd_sqf)

    p_hyp = sub.add_parser("hyp", help="exact hypergeometric tables for one n")
    p_hyp.add_argument("n", type=int)
    p_hyp.add_argument("--json", action="store_true")
    p_hyp.set_defaults(func=cmd_hyp)

    p_verify = sub.add_parser("verify", help="run verification batteries")
    p_verify.add_argument(
        "batteries",
        nargs="*",
        help="battery names: " + ", ".join(BATTERIES),
    )
    p_verify.add_argument("--all", action="store_true", help="run every battery")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--max-degree", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"randomized batteries seed (default {DEFAULT_SEED})")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The parsers reject literals over MAX_LITERAL_DIGITS digits, so the
    # interpreter's cap on int <-> str conversion (CPython 3.10.7 and later)
    # is lifted while the command runs: exact results print at any size.
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (HilbertDepthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
