"""qmcount benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload oracle|series|formulas \
        --seed N --seconds S --trace 0|1

Run from the root of a qmcount checkout; the package is imported from its
``src/`` directory.  Every request goes through an entry point users call
(``qmcount.cli.main`` or a public ``oracle``/``gfengine`` function), one
after another, in a seed-chosen order, and its output is checked against
``refs.json``.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass, prints the per-layer metrics and the tracing overhead,
and writes the spans to ``perfbench/out/``.  The last line of stdout is a
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads  # noqa: E402  (sibling modules)
from speed import SpeedClock  # noqa: E402

SETUP_PROBES = 11

# A fresh interpreter that imports qmcount and builds the workload's field
# tables: everything a process does before its first request.  It then
# times the speed kernel on its own CPU and prints the speed factor and the
# kernel's total time.
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import qmcount, speed; "
    "[qmcount.field_for(int(q)) for q in sys.argv[3:]]; "
    "c = speed.SpeedClock(); c.burst(12); print(c.factor(0.0, float('inf')), sum(c.d))"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup_seconds(qs) -> tuple[float, float]:
    """Median (normalized, raw) wall time of fresh processes doing the
    workload's set-up.  One unmeasured probe first, so bytecode caches are
    written before timing.  Each probe is normalized by the speed its own
    process measured, minus the time it spent measuring."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(HERE), *map(str, qs)]
    norm, raw = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        # no timeout: Popen.wait with one polls with sleeps of up to 50 ms,
        # which would round every probe up to the next poll
        proc = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        t1 = time.perf_counter()
        factor, own = map(float, proc.stdout.split())
        if i:
            norm.append((t1 - t0 - own) * factor)
            raw.append(t1 - t0)
    return statistics.median(norm), statistics.median(raw)


def import_qmcount():
    sys.path.insert(0, str(SRC))
    import qmcount

    where = Path(qmcount.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"qmcount imported from {where}, not from {SRC}")
    return qmcount


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def summarize(verdicts) -> tuple[int, int, list[str]]:
    """(unexpected failures, known defects, report lines)."""
    failed = [(rid, why) for rid, v, why in verdicts if v == "failed"]
    known = [(rid, why) for rid, v, why in verdicts if v == "known_defect"]
    lines = [f"FAILED {rid}: {why}" for rid, why in failed]
    for rid, why in sorted(set(known)):
        n = sum(1 for k in known if k[0] == rid)
        lines.append(f"KNOWN DEFECT x{n} {rid}: {why}")
    total = len(verdicts)
    bad = len(failed) + len(known)
    lines.append(
        f"failed_ratio {bad}/{total} = {bad / total:.4f} "
        f"({len(known)} known defect, {len(failed)} unexpected)"
    )
    return len(failed), len(known), lines


def untraced(workload: str, seed: int, seconds: int) -> tuple[dict, list, list[str]]:
    setup_s, setup_raw = setup_seconds(workloads.SETUP_QS[workload])
    qmcount = import_qmcount()
    for q in workloads.SETUP_QS[workload]:
        qmcount.field_for(q)
    refs = workloads.load_refs(workload)
    requests = workloads.build(workload)
    orders = workloads.pass_order(seed, len(requests), workloads.passes_for(workload, seconds))
    with SpeedClock() as clock:
        passes = [workloads.run_pass(requests, order) for order in orders]
    walls, cpus, raw_walls, latencies = [], [], [], []
    for p in passes:
        wall = clock.norm(p.start, p.end)
        walls.append(wall)
        cpus.append((p.cpu_s - clock.own_time(p.start, p.end)) * clock.factor(p.start, p.end))
        raw_walls.append(p.end - p.start)
        latencies += [clock.norm(o.start, o.end) for o in p.outcomes]
    outcomes = [o for p in passes for o in p.outcomes]
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "request_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "request_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"passes {len(orders)}, requests per pass {len(requests)}",
        f"request_tail_ms is p{pct:.1f} of {len(latencies)} samples, {beyond} beyond it",
        f"times are in reference seconds (see speed.py); raw: setup_s {setup_raw:.4f} s, "
        f"wall_s {statistics.median(raw_walls):.3f} s, host speed "
        f"{statistics.median(walls) / statistics.median(raw_walls):.3f} of the reference",
    ]
    return metrics, workloads.check(outcomes, refs), notes


def traced(workload: str, seed: int) -> tuple[dict, list, list[str]]:
    from tracer import Tracer, per_layer_metrics

    qmcount = import_qmcount()
    tr = Tracer()
    tr.install()
    idx, prev = tr.open("bench.setup")
    for q in workloads.SETUP_QS[workload]:
        qmcount.field_for(q)
    tr.close(idx, prev)
    tr.uninstall()

    refs = workloads.load_refs(workload)
    requests = workloads.build(workload)
    untraced_order, traced_order = workloads.pass_order(seed, len(requests), 2)
    wrapped = [
        workloads.Request(r.rid, _rooted(tr, i, r.call)) for i, r in enumerate(requests)
    ]
    clock = SpeedClock()
    with clock:
        plain = workloads.run_pass(requests, untraced_order)
        tr.install()
        try:
            traced_pass = workloads.run_pass(wrapped, traced_order)
        finally:
            tr.uninstall()

    got_t = traced_pass.outcomes
    wall_u = clock.norm(plain.start, plain.end)
    wall_t = clock.norm(traced_pass.start, traced_pass.end)
    bytes_out = sum(len(o.output) for o in got_t if o.rid.startswith("qmcount "))
    metrics = per_layer_metrics(
        tr, wall_t, wall_u, bytes_out, clock.factor(traced_pass.start, traced_pass.end)
    )
    path = OUT / f"trace-{workload}.spans"
    tr.dump(path, [r.rid for r in requests])
    m = {k: v["value"] for k, v in metrics.items()}
    notes = [f"not traced, name not found: {name}" for name in sorted(set(tr.missing))] + [
        f"spans {len(tr.start)} written to {path.relative_to(ROOT)}",
        f"tracing overhead {m['trace.overhead_s']:.3f} s "
        f"({m['trace.overhead_s'] / wall_u:.1%} of the untraced {wall_u:.3f} s pass)",
        f"oracle.classify inclusive {m['oracle.classify.s']:.3f} s "
        f"= {m['oracle.classify.s'] / wall_t:.1%} of the traced pass",
        f"exact_series self {m['exact_series.self_s']:.3f} s "
        f"= {m['exact_series.self_s'] / wall_t:.1%} of the traced pass",
    ]
    out = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
    return out, workloads.check(plain.outcomes + got_t, refs), notes


def _rooted(tr, i, call):
    """The request's call under a root span that marks which request it is."""

    def rooted():
        tr.cur_request = i
        idx, prev = tr.open("bench.request")
        try:
            return call()
        finally:
            tr.close(idx, prev)
            tr.cur_request = -1

    return rooted


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmcount" / "__init__.py").is_file():
        print(f"perfbench: no qmcount sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, verdicts, notes = traced(args.workload, args.seed)
    else:
        metrics, verdicts, notes = untraced(args.workload, args.seed, args.seconds)
    failed, _, lines = summarize(verdicts)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(verdicts),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
