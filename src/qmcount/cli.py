"""Command-line front end.

Subcommands:

- seq: compute a named sequence and print it as plain text, JSON, or an
  OEIS b-file (b-file indices start at the catalogued offset).
- table: print a triangle (triangle names only) as seq does: rows, one per
  line in plain form and flattened in JSON and b-files, or the column k.
- limit: evaluate a limiting probability to a digit count.
- verify: run the full validation suites and exit nonzero on mismatch.
  Only this command imports the verify suites and the brute-force oracle.

The grammar is declared once, in _COMMANDS.  An argv of the exact form
`COMMAND NAME (--flag VALUE)*` (for verify, `verify` and its flags), with
every flag spelled in full and given once and every value valid, is read
in one pass into the values argparse would give it.  Every other argv
goes to the argparse parser built from the same declaration on first
use, so help, every usage error and the forms the pass leaves alone
(abbreviated flags, `--flag=value`, repeated flags, values other than a
negative integer that start with `-`, options before the name) keep
argparse's text and exit codes.

The limits module is bound at import; sequences is imported by a seq or
table request, and it imports the series engine in a series route when
it runs, so a closed-form seq or table request, qbell, a knapsack request
or a limit never loads gfengine, and a limit loads neither sequences,
decimal nor argparse.

Exit codes: 0 success, 1 verification failure, 2 a usage error, a
refused request or a failed integrity check: every ArithmeticError or
ValueError a route raises prints one error line.
"""

from __future__ import annotations

import functools
import sys
from collections import namedtuple
from types import SimpleNamespace

from .limits import LIMIT_KINDS, limit_eval


class _Flag(namedtuple("_Flag", "option type default required choices help",
                       defaults=(None, False, None, None))):
    """One flag: its option string, its type (int or str, or bool for a
    switch that stores True), and argparse's default, required, choices
    and help."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.option[2:].replace("-", "_")


# help, the positional's name (None: no positional), a callable giving its
# choices, and the flags; the sequence names are read from sequences only
# when a seq or table argv is read or argparse is built
_Command = namedtuple("_Command", "help positional choices flags")


def _sequences_names(attr: str) -> tuple[str, ...]:
    from . import sequences

    return getattr(sequences, attr)


_RANGE_FLAGS = (
    _Flag("--q", int, required=True),
    _Flag("--k", int),
    _Flag("--min-n", int),
    _Flag("--max-n", int, 10),
    _Flag("--format", str, "plain", choices=("plain", "json", "bfile")),
)

_COMMANDS = {
    "seq": _Command(
        "compute a sequence by name", "name",
        functools.partial(_sequences_names, "SEQUENCE_NAMES"), _RANGE_FLAGS,
    ),
    "table": _Command(
        "print a triangle row by row", "name",
        functools.partial(_sequences_names, "TRIANGLE_NAMES"), _RANGE_FLAGS,
    ),
    "limit": _Command(
        "evaluate a limiting probability", "kind", lambda: LIMIT_KINDS,
        (_Flag("--q", int, required=True), _Flag("--digits", int, 5)),
    ),
    "verify": _Command(
        "run all validation suites", None, None,
        (
            # None: run_all's own default, oracle.DEFAULT_ENUM_BUDGET
            _Flag("--oracle-budget", int),
            _Flag("--quiet", bool, False, help="print failures only"),
        ),
    ),
}

_OPTIONS = {name: {f.option: f for f in cmd.flags} for name, cmd in _COMMANDS.items()}


def _read_argv(argv) -> SimpleNamespace | None:
    """The values argparse would give an argv `COMMAND NAME (--flag VALUE)*`
    whose flags are each spelled in full and given once and whose values
    are all valid; None for every other argv.  Never prints or raises."""
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return None
    values = {"command": argv[0]}
    i = 1
    if cmd.positional is not None:
        if len(argv) < 2 or argv[1] not in cmd.choices():
            return None
        values[cmd.positional] = argv[1]
        i = 2
    options = _OPTIONS[argv[0]]
    while i < len(argv):
        flag = options.get(argv[i])
        if flag is None or flag.dest in values:
            return None
        if flag.type is bool:
            value, i = True, i + 1
        elif i + 1 == len(argv):
            return None
        else:
            value, i = argv[i + 1], i + 2
            if flag.type is int:
                # a minus and ASCII digits only: argparse also takes plus
                # signs, spaces, underscores and other Unicode digits
                digits = value[1:] if value[:1] == "-" else value
                if not (digits.isascii() and digits.isdigit()):
                    return None
                try:
                    value = int(value)
                except ValueError:  # past the interpreter's digit limit
                    return None
            if flag.choices is not None and value not in flag.choices:
                return None
        values[flag.dest] = value
    for flag in cmd.flags:
        if flag.dest not in values:
            if flag.required:
                return None
            values[flag.dest] = flag.default
    return SimpleNamespace(**values)


@functools.cache
def build_parser():
    """The one argparse parser of this process, built from _COMMANDS on
    first use; parsing leaves it unchanged."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qmcount",
        description="Exact counts of matrix classes over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        command = sub.add_parser(name, help=cmd.help)
        if cmd.positional is not None:
            command.add_argument(cmd.positional, choices=cmd.choices())
        for flag in cmd.flags:
            if flag.type is bool:
                command.add_argument(flag.option, action="store_true", help=flag.help)
            else:
                command.add_argument(
                    flag.option, type=flag.type, default=flag.default,
                    required=flag.required, choices=flag.choices, help=flag.help,
                )
    return parser


# the two sequences functions a seq or table request runs, under the names
# perfbench/tracer.py wraps here; each imports sequences on its first call
def make_spec(*args, **kwargs):
    from .sequences import make_spec

    return make_spec(*args, **kwargs)


def sequence_values(*args, **kwargs):
    from .sequences import sequence_values

    return sequence_values(*args, **kwargs)


def _run_seq(args) -> int:
    from decimal import Decimal

    from .sequences import TRIANGLE_NAMES, emit_bfile, emit_json, emit_plain, triangle_flat_start

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
    if args.format == "json":
        print(emit_json(spec, values, offset=start))
    elif args.format == "bfile":
        sys.stdout.write(emit_bfile(start, values))
    else:
        print(emit_plain(values))
    return 0


def _run_verify(args) -> int:
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
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if args.command in ("seq", "table"):
            return _run_seq(args)
        if args.command == "limit":
            print(limit_eval(args.kind, args.q, args.digits))
            return 0
        return _run_verify(args)
    except (ArithmeticError, ValueError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
