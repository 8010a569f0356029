"""Command-line front end.

Subcommands:

- seq: compute a named sequence and print it as plain text, JSON, or an
  OEIS b-file (b-file indices start at the catalogued offset).
- table: print triangle rows (same names as seq, row-per-line plain form).
- limit: evaluate a limiting probability to a digit count.
- verify: run the full validation suites and exit nonzero on mismatch.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ffpoly import NotCoprime
from .gfengine import (
    BadKindParams,
    LIMIT_KINDS,
    NonIntegralCount,
    UnresolvedDigits,
    limit_eval,
)
from .oracle import BudgetExceeded, DEFAULT_ENUM_BUDGET, DEFAULT_PAIR_BUDGET
from .qcount import CharNotTwo
from .sequences import (
    SEQUENCE_NAMES,
    TRIANGLE_NAMES,
    SequenceSpec,
    UnsupportedSequence,
    emit_bfile,
    emit_json,
    emit_plain,
    make_spec,
    sequence_values,
    triangle_column,
    triangle_flat_start,
    triangle_rows,
)
from .verify import failures, run_all

BUDGET_ENV = "QMC_ORACLE_BUDGET"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmcount",
        description="Exact counts of matrix classes over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="compute a sequence by name")
    seq.add_argument("name", choices=SEQUENCE_NAMES)
    _range_flags(seq)

    table = sub.add_parser("table", help="print a triangle row by row")
    table.add_argument("name", choices=TRIANGLE_NAMES)
    _range_flags(table)

    limit = sub.add_parser("limit", help="evaluate a limiting probability")
    limit.add_argument("kind", choices=LIMIT_KINDS)
    limit.add_argument("--q", type=int, required=True)
    limit.add_argument("--digits", type=int, default=5)

    verify = sub.add_parser("verify", help="run all validation suites")
    verify.add_argument("--oracle-budget", type=int, default=None)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--quiet", action="store_true", help="print failures only")

    return parser


def _range_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--q", type=int, required=True)
    cmd.add_argument("--k", type=int, default=None)
    cmd.add_argument("--min-n", type=int, default=None)
    cmd.add_argument("--max-n", type=int, default=10)
    cmd.add_argument("--format", choices=("plain", "json", "bfile"), default="plain")
    cmd.add_argument("--order", type=int, default=None)
    cmd.add_argument("--oracle-budget", type=int, default=None)


def _resolve_budget(flag_value: int | None) -> int | None:
    """Budget from the flag, else the environment, else None (library defaults)."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UnsupportedSequence(f"{BUDGET_ENV} must be an integer, not {env!r}")
    return None


def _emit(fmt: str, spec: SequenceSpec, values, start: int) -> None:
    """One run of values in the requested format, indexed from `start`."""
    if fmt == "json":
        print(emit_json(spec, values, offset=start))
    elif fmt == "bfile":
        sys.stdout.write(emit_bfile(start, values))
    else:
        print(emit_plain(values))


def _print_triangle(args: argparse.Namespace) -> int:
    name, q = args.name, args.q
    lo = args.min_n
    if args.k is not None:
        # single-cell access: the fixed-k column over the requested rows
        base = make_spec(name, q, None, min_n=lo, max_n=args.max_n)
        values = triangle_column(name, q, args.k, base.min_n, base.max_n)
        spec = SequenceSpec(name, q, args.k, base.min_n, base.max_n, None, base.min_n)
        _emit(args.format, spec, values, spec.min_n)
        return 0
    spec = make_spec(name, q, None, min_n=lo, max_n=args.max_n)
    rows = triangle_rows(name, q, spec.min_n, spec.max_n)
    if args.format == "plain":
        for row in rows:
            print(emit_plain(row))
    else:
        flat = [v for row in rows for v in row]
        _emit(args.format, spec, flat, triangle_flat_start(name, spec.min_n))
    return 0


def _run_seq(args: argparse.Namespace) -> int:
    if args.name in TRIANGLE_NAMES:
        return _print_triangle(args)
    budget = _resolve_budget(args.oracle_budget)
    spec = make_spec(
        args.name,
        args.q,
        args.k,
        min_n=args.min_n,
        max_n=args.max_n,
        align_to_oeis=(args.format == "bfile"),
    )
    budgets = {} if budget is None else {"enum_budget": budget, "pair_budget": budget}
    values = sequence_values(spec, order=args.order, **budgets)
    _emit(args.format, spec, values, spec.min_n)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    budget = _resolve_budget(args.oracle_budget)
    results = run_all(
        enum_budget=DEFAULT_ENUM_BUDGET if budget is None else budget,
        pair_budget=DEFAULT_PAIR_BUDGET if budget is None else budget,
        jobs=args.jobs,
    )
    for r in results:
        if r.ok and args.quiet:
            continue
        status = "PASS" if r.ok else "FAIL"
        detail = f": {r.detail}" if r.detail else ""
        print(f"[{status}] {r.suite}: {r.name}{detail}")
    bad = failures(results)
    print(f"{len(results) - len(bad)}/{len(results)} checks passed")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "seq":
            return _run_seq(args)
        if args.command == "table":
            return _print_triangle(args)
        if args.command == "limit":
            print(limit_eval(args.kind, args.q, args.digits))
            return 0
        return _run_verify(args)
    except (
        UnsupportedSequence,
        BadKindParams,
        NotCoprime,
        CharNotTwo,
        BudgetExceeded,
        NonIntegralCount,
        UnresolvedDigits,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
