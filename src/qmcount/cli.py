"""Command-line front end.

Subcommands:

- seq: compute a named sequence and print it as plain text, JSON, or an
  OEIS b-file (b-file indices start at the catalogued offset).
- table: print a triangle (triangle names only) as seq does: rows, one per
  line in plain form and flattened in JSON and b-files, or the column k.
- limit: evaluate a limiting probability to a digit count.
- verify: run the full validation suites and exit nonzero on mismatch.
  Only this command imports the verify suites and the brute-force oracle.

The limits module is bound at import, and sequences imports the series
engine in a series route when it runs, so a closed-form seq or table
request, qbell, a knapsack request or a limit never loads gfengine.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Decimal

from .limits import LIMIT_KINDS, UnresolvedDigits, limit_eval
from .scaled import NonIntegralCount
from .sequences import (
    SEQUENCE_NAMES,
    TRIANGLE_NAMES,
    SequenceSpec,
    emit_bfile,
    emit_json,
    emit_plain,
    make_spec,
    sequence_values,
    triangle_flat_start,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing leaves it unchanged."""
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
    # None: run_all's own default, oracle.DEFAULT_ENUM_BUDGET
    verify.add_argument("--oracle-budget", type=int, default=None)
    verify.add_argument("--quiet", action="store_true", help="print failures only")

    return parser


def _range_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--q", type=int, required=True)
    cmd.add_argument("--k", type=int, default=None)
    cmd.add_argument("--min-n", type=int, default=None)
    cmd.add_argument("--max-n", type=int, default=10)
    cmd.add_argument("--format", choices=("plain", "json", "bfile"), default="plain")


def _emit(fmt: str, spec: SequenceSpec, values, start: int) -> None:
    """One run of values in the requested format, indexed from `start`."""
    if fmt == "json":
        print(emit_json(spec, values, offset=start))
    elif fmt == "bfile":
        sys.stdout.write(emit_bfile(start, values))
    else:
        print(emit_plain(values))


def _run_seq(args: argparse.Namespace) -> int:
    spec = make_spec(
        args.name,
        args.q,
        args.k,
        min_n=args.min_n,
        max_n=args.max_n,
        align_to_oeis=(args.format == "bfile"),
    )
    # exact Decimals wherever a route builds its values from `one`: their text is linear
    values = sequence_values(spec, Decimal(1))
    start = spec.min_n
    if spec.name in TRIANGLE_NAMES and spec.k is None:
        if args.format == "plain":
            for row in values:
                print(emit_plain(row))
            return 0
        values = [v for row in values for v in row]
        start = triangle_flat_start(spec.name, spec.min_n)
    _emit(args.format, spec, values, start)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from .verify import failures, run_all

    results = run_all() if args.oracle_budget is None else run_all(args.oracle_budget)
    for r in results:
        if r.ok and args.quiet:
            continue
        status = "PASS" if r.ok else "FAIL"
        detail = f": {r.detail}" if r.detail else ""
        print(f"[{status}] {r.suite}: {r.name}{detail}")
    bad = failures(results)
    stopped = sum(r.raised for r in results)
    early = f", {stopped} suite{'s' * (stopped > 1)} stopped early" if stopped else ""
    print(f"{len(results) - len(bad)}/{len(results)} checks passed{early}")
    return 1 if bad else 0


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command in ("seq", "table"):
            return _run_seq(args)
        if args.command == "limit":
            print(limit_eval(args.kind, args.q, args.digits))
            return 0
        return _run_verify(args)
    except (NonIntegralCount, UnresolvedDigits, ValueError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
