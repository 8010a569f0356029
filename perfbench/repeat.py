"""Repeat benchmark runs over several seeds and summarize the spread.

    python3 perfbench/repeat.py --runs 10 [--workload oracle ...] \
        [--seconds 30] [--first-seed 1] [--out perfbench/BENCH_x.json]

Runs ``run.py`` once per seed and workload, one process at a time, and
prints for each end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
distance as a share of the median, next to the bound in BENCHMARK.json.
With --out it also writes the result as a BENCH json file: medians and
quartiles of the repeated runs, the Python version, the CPU model and
the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=None)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    result = {
        "commit": commit or None,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    all_steady = True
    for w in names:
        runs = [one_run(w, s, args.seconds, 0) for s in seeds]
        entry = {"correct": all(r["correct"] for r in runs), "metrics": {}}
        print(f"{w}: {len(runs)} runs, all correct: {entry['correct']}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            s = summarize(vals)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["values"] = vals
            entry["metrics"][name] = s
            bound = bounds.get(name)
            steady = bound is not None and s["spread"] < bound / 3
            all_steady &= steady or name == "setup_s"
            print(
                f"  {name:16s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  bound {bound}"
                + ("" if steady else "  <-- not below a third of the bound")
            )
        if args.trace:
            entry["trace"] = one_run(w, seeds[0], args.seconds, 1)["metrics"]
        result["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
