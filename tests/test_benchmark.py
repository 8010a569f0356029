"""The benchmark's output check: one pass of each workload matches refs.json.

perfbench/run.py reports whether every output matched only in its last
line, and exits 0 either way, so a change that alters a benchmarked
output (a library result is rendered field by field, so even swapping two
fields of a result record counts) would pass every other test.  This runs
each workload's requests once, in their canonical order, in a fresh
interpreter, and requires every verdict to be "ok".
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PASS = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import workloads
reqs = workloads.build({workload!r})
outcomes = workloads.run_pass(reqs, list(range(len(reqs)))).outcomes
verdicts = workloads.check(outcomes, workloads.load_refs({workload!r}))
print(json.dumps([len(verdicts), [v for v in verdicts if v[1] != "ok"]]))
"""


@pytest.mark.parametrize("workload", ["oracle", "series", "formulas"])
def test_one_benchmark_pass_matches_the_references(workload):
    code = PASS.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), workload=workload)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    count, wrong = json.loads(proc.stdout.splitlines()[-1])
    assert count > 0 and wrong == []
