"""The three benchmark workloads: fixed request lists and their output checks.

A request is one call through a public entry point of qmcount: either
``qmcount.cli.main(argv)`` with stdout and stderr captured, or one library
function of ``oracle`` or ``gfengine``.  Every call looks its function up
on the module at call time, so the wrappers the traced run installs are
the ones called.

Each request's output is reduced to text: the CLI's stdout as printed, or
a canonical rendering of a library result in which integers are written
in hexadecimal (hexadecimal conversion is not covered by Python's
4300-digit int-to-text limit).  The text is compared by SHA-256 with the
reference recorded in ``refs.json`` from the seed commit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

WORKLOADS = ("oracle", "series", "formulas")

# Field sizes whose tables each workload builds during set-up.
SETUP_QS = {
    "oracle": (2, 3, 4, 5, 7),
    "series": (2, 3, 4, 5),
    "formulas": (2, 3, 4, 5, 7),
}

# Seconds budgeted per pass, a little above the pass time at the seed on an
# unloaded core of the 2-core Xeon host.  A run makes max(1, seconds //
# NOMINAL_PASS_S) passes, so the pass count depends only on --seconds and
# never on how fast a particular run happens to go.
NOMINAL_PASS_S = {"oracle": 20, "series": 10, "formulas": 5}

# gfengine.LIMIT_KINDS at the seed, copied so that a kind added later
# changes the workload only through an edit here.
LIMIT_KINDS = (
    "invertible",
    "linear_derangement_frac",
    "projective_frac",
    "cyclic",
    "conj_ratio",
)

SERIES_CLI = (
    "seq cyclic --q 2 --max-n 119 --format bfile",
    "seq separable --q 2 --max-n 119 --format bfile",
    "seq semisimple --q 2 --max-n 120 --format bfile",
    "seq conjclasses_gl --q 2 --max-n 120 --format bfile",
    "seq semisimple --q 3 --max-n 60 --format bfile",
    "seq cyclic --q 5 --max-n 40 --format bfile",
    "seq proj_derangement --q 4 --max-n 60 --format bfile",
    "seq conjclasses_all --q 3 --max-n 60 --format bfile",
    "seq power_identity --q 2 --k 3 --max-n 60 --format bfile",
    "seq power_identity --q 3 --k 8 --max-n 40 --format bfile",
)

# (kind, q, N): second routes read coefficient by coefficient
SERIES_GF = (
    ("cyclic_alt", 2, 119),
    ("separable_alt", 2, 119),
    ("bell", 2, 60),
    ("linear_derangement", 3, 60),
)

FORMULAS_CLI = (
    "seq diagonalizable --q 5 --max-n 30",
    "seq diagonalizable --q 7 --max-n 20",
    "seq qbell --q 2 --max-n 18",
    "seq projection --q 7 --max-n 60",
    "seq lin_derangement --q 2 --max-n 119",
    "seq subspaces_total --q 4 --max-n 60",
    "seq invertible --q 999999999989 --max-n 10",
    "seq min_centralizer --q 5 --max-n 2",
    "seq max_class --q 4 --max-n 2",
    "table qstirling_row --q 3 --max-n 16",
    "table rank_row --q 3 --max-n 60",
    "table qbinom_row --q 2 --max-n 60",
) + tuple(
    f"limit {kind} --q {q} --digits 50" for kind in LIMIT_KINDS for q in (2, 3, 4, 5)
)

ORACLE_SWEEPS = ((2, 4), (3, 3), (4, 2), (5, 2), (7, 2))


@dataclasses.dataclass(frozen=True)
class Request:
    """One call into qmcount; ``call`` returns (exit code, output, stderr)."""

    rid: str
    call: Callable[[], tuple[int, str, str]]


@dataclasses.dataclass
class Outcome:
    rid: str
    start: float  # perf_counter seconds
    end: float
    exit: int
    output: str
    stderr: str


@dataclasses.dataclass
class Pass:
    start: float  # perf_counter seconds
    end: float
    cpu_s: float
    outcomes: list[Outcome]


def canon(value) -> str:
    """Order-stable text for a library result, integers in hexadecimal."""
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, int):
        return format(value, "#x")
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(value[k])}" for k in sorted(value)) + "}"
    if dataclasses.is_dataclass(value):
        return "{" + ",".join(
            f"{f.name}={canon(getattr(value, f.name))}" for f in dataclasses.fields(value)
        ) + "}"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_request(line: str) -> Request:
    from qmcount import cli

    argv = line.split()

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return Request("qmcount " + line, call)


def lib_request(rid: str, fn) -> Request:
    return Request(rid, lambda: (0, canon(fn()), ""))


def gf_counts(kind: str, q: int, N: int) -> list[int]:
    from qmcount import gfengine

    gf = gfengine.gf_build(kind, q, N)
    return [gfengine.extract_count(gf, n, q) for n in range(N + 1)]


def build(workload: str) -> list[Request]:
    """The fixed request list of one pass, in its canonical order."""
    from qmcount import oracle

    if workload == "oracle":
        reqs = [
            lib_request(f"oracle.sweep_counts({q},{n})", lambda q=q, n=n: oracle.sweep_counts(q, n))
            for q, n in ORACLE_SWEEPS
        ]
        reqs += [
            lib_request("oracle.conjugacy_orbit_sizes(3,3)", lambda: oracle.conjugacy_orbit_sizes(3, 3)),
            lib_request(
                "oracle.conjugacy_orbit_sizes(2,3,restrict_gl=True)",
                lambda: oracle.conjugacy_orbit_sizes(2, 3, restrict_gl=True),
            ),
            lib_request("oracle.min_centralizer_order(2,3)", lambda: oracle.min_centralizer_order(2, 3)),
        ]
        return reqs
    if workload == "series":
        reqs = [cli_request(line) for line in SERIES_CLI]
        reqs += [
            lib_request(f"gfengine.gf_build({kind},{q},{N})", lambda a=(kind, q, N): gf_counts(*a))
            for kind, q, N in SERIES_GF
        ]
        return reqs
    if workload == "formulas":
        return [cli_request(line) for line in FORMULAS_CLI]
    raise ValueError(f"unknown workload {workload!r}")


def passes_for(workload: str, seconds: int) -> int:
    return max(1, seconds // NOMINAL_PASS_S[workload])


def pass_order(seed: int, n_requests: int, n_passes: int) -> list[list[int]]:
    """One permutation of the request list per pass; the seed sets them all."""
    rng = random.Random(seed)
    return [rng.sample(range(n_requests), n_requests) for _ in range(n_passes)]


def run_pass(requests: list[Request], order: list[int]) -> Pass:
    """Send the requests one after another, each when the last has returned."""
    outcomes = []
    w0, c0 = time.perf_counter(), time.process_time()
    for i in order:
        req = requests[i]
        t0 = time.perf_counter()
        code, out, err = req.call()
        outcomes.append(Outcome(req.rid, t0, time.perf_counter(), code, out, err))
    return Pass(w0, time.perf_counter(), time.process_time() - c0, outcomes)


def load_refs(workload: str, path: Path = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["workloads"][workload]


def parse_decimal(s: str) -> int:
    """int(s) for a decimal string of any length, read in chunks below the
    int-to-text limit so the limit need not be raised."""
    if not s.isdigit() or (len(s) > 1 and s[0] == "0"):
        raise ValueError(f"not a canonical decimal: {s[:40]!r}")
    value = 0
    for i in range(0, len(s), 4000):
        chunk = s[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def bfile_values(text: str) -> tuple[int, list[int]]:
    """Start index and values of a b-file, without the int-to-text limit."""
    start, values = None, []
    for line in text.splitlines():
        idx_s, val_s = line.split(" ")
        idx = parse_decimal(idx_s)
        if start is None:
            start = idx
        elif idx != start + len(values):
            raise ValueError(f"non-contiguous b-file index {idx}")
        values.append(parse_decimal(val_s))
    return (0 if start is None else start), values


def verdict(outcome: Outcome, ref: dict | None) -> tuple[str, str]:
    """('ok' | 'known_defect' | 'failed', reason) for one outcome."""
    if ref is None:
        return "failed", "no reference recorded"
    defect = ref.get("known_defect")
    if defect and outcome.exit == defect["exit"] and defect["stderr_contains"] in outcome.stderr:
        return "known_defect", defect["name"]
    if outcome.exit != ref["exit"]:
        first = outcome.stderr.strip().splitlines()[:1]
        return "failed", f"exit {outcome.exit}: {first[0] if first else ''}"
    if "values_sha256" in ref:
        try:
            start, values = bfile_values(outcome.output)
        except ValueError as exc:
            return "failed", f"unreadable b-file: {exc}"
        if digest(canon([start, values])) != ref["values_sha256"]:
            return "failed", "values differ from the reference"
        return "ok", ""
    if digest(outcome.output) != ref["sha256"]:
        return "failed", f"output differs from the reference ({len(outcome.output)} bytes)"
    return "ok", ""


def check(outcomes: list[Outcome], refs: dict) -> list[tuple[str, str, str]]:
    """(request id, verdict, reason) for every outcome."""
    return [(o.rid, *verdict(o, refs.get(o.rid))) for o in outcomes]
