"""Golden corpus of CLI requests: what each one prints and how it exits.

The requests come from the spec below: every seq and table route and
every limit kind at each q of QS, every format at the default range, a
--min-n window, a triangle's column, power_identity at each k of KS, and
qmcount's own refusals, one past each guard edge among them.  argparse's
own usage errors are left out: their wording belongs to the interpreter,
and test_cli covers them.  Each request runs through cli.main in this
process, and cli_corpus.txt holds one SHA-256 of its (stdout, stderr,
exit code) a line, so a mismatch names the requests that changed.  The
values are integer text, so the digests do not depend on the interpreter.

The module needs the standard library alone.  Run as a script, it checks
the corpus, or records it anew with --record:

    PYTHONPATH=src python tests/test_cli_corpus.py [--record]
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qmcount.cli import main
from qmcount.limits import LIMIT_KINDS
from qmcount.sequences import SEQUENCE_NAMES, TRIANGLE_NAMES

CORPUS = Path(__file__).with_name("cli_corpus.txt")

QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 1000003)
KS = (2, 3, 4, 5, 7, 8, 63, 255, 1000000007)
FORMATS = ("plain", "json", "bfile")
WINDOW = "--min-n 3 --max-n 7"
COLUMN = "--k 2"

# one past each guard edge, and the requests qmcount itself refuses
REFUSALS = (
    "seq invertible --q 2 --max-n 289",
    "seq invertible --q 1000003 --max-n 88",
    "seq separable_classes --q 2 --max-n 12600",
    "seq subspaces_total --q 2 --max-n 113",
    "table rank_row --q 2 --max-n 113",
    "seq diagonalizable --q 2 --max-n 58",
    "seq qbell --q 2 --max-n 58",
    "table qstirling_row --q 2 --max-n 35",
    "seq power_identity --q 2 --k 2 --max-n 113",
    "seq semisimple --q 2 --max-n 150",
    "seq cyclic --q 3 --max-n 129",
    "seq separable --q 9 --max-n 110",
    "seq power_identity --q 9 --k 2 --max-n 110",
    "seq min_centralizer --q 2 --max-n 238",
    "seq max_class --q 1009 --max-n 108",
    f"limit projective_frac --q {2**2099} --digits 1",
    f"limit projective_frac --q {2**1972} --digits 50",
    "limit cyclic --q 2 --digits 51",
    "limit invertible --q 2 --digits 0",
    "seq invertible --q 6",
    "limit conj_ratio --q 6",
    "seq invertible --q 1",
    f"seq invertible --q {2**89 - 1}",
    "seq power_identity --q 9 --k 6",
    "seq power_identity --q 2 --k 0",
    "seq power_identity --q 2",
    "seq invertible --q 2 --k 2",
    "seq invertible --q 2 --min-n -1",
    "table qstirling_row --q 2 --k 0",
    "table qstirling_row --q 2 --min-n 0",
    "seq min_centralizer --q 2 --min-n 0",
)


def requests() -> list[str]:
    """Every request of the corpus, one command line each, in a fixed order."""
    lines = []
    for q in QS:
        for name in SEQUENCE_NAMES:
            ks = KS if name == "power_identity" else (None,)
            for k in ks:
                seq = f"seq {name} --q {q}" + ("" if k is None else f" --k {k}")
                lines += [f"{seq} --format {fmt}" for fmt in FORMATS]
                lines.append(f"{seq} {WINDOW}")
        for name in TRIANGLE_NAMES:
            table = f"table {name} --q {q}"
            lines += [f"{table} --format {fmt}" for fmt in FORMATS]
            lines += [f"{table} {WINDOW}", f"{table} {COLUMN} {WINDOW}"]
            lines.append(f"{table} {COLUMN} --format bfile")
        lines += [f"limit {kind} --q {q}" for kind in LIMIT_KINDS]
    return lines + list(REFUSALS)


def digest(line: str) -> str:
    """SHA-256 of what cli.main prints to stdout and stderr and returns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(line.split())
    return hashlib.sha256(json.dumps([out.getvalue(), err.getvalue(), code]).encode()).hexdigest()


def recorded() -> dict[str, str]:
    pairs = (line.split(" ", 1) for line in CORPUS.read_text().splitlines())
    return {request: sha for sha, request in pairs}


def mismatches() -> list[str]:
    """The requests whose digest differs from the recorded one, and those
    recorded but no longer generated or generated but not recorded."""
    want = recorded()
    lines = requests()
    changed = [line for line in lines if want.get(line) != digest(line)]
    return changed + sorted(set(want) - set(lines))


def record() -> None:
    CORPUS.write_text("".join(f"{digest(line)} {line}\n" for line in requests()))


def test_requests_are_distinct():
    lines = requests()
    assert len(set(lines)) == len(lines)


def test_every_request_prints_as_recorded():
    assert mismatches() == []


if __name__ == "__main__":
    total = len(requests())
    if sys.argv[1:] == ["--record"]:
        record()
        print(f"recorded {total} requests in {CORPUS}")
        sys.exit(0)
    bad = mismatches()
    for line in bad:
        print(f"changed: {line}")
    print(f"{total - len(bad)}/{total} requests as recorded")
    sys.exit(1 if bad else 0)
