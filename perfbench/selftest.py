"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that every metric prints by name with its unit, that a corrupted
reference or a failing exit is counted as failed, that the known defect
is recognized only by its recorded signature, and that two seeds give
identical outputs.  Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

FAST = {
    "formulas": [
        "qmcount limit cyclic --q 2 --digits 50",
        "qmcount limit invertible --q 3 --digits 50",
        "qmcount seq projection --q 7 --max-n 60",
        "qmcount table qbinom_row --q 2 --max-n 60",
    ],
    "oracle": [
        "oracle.sweep_counts(4,2)",
        "oracle.sweep_counts(5,2)",
        "oracle.conjugacy_orbit_sizes(2,3,restrict_gl=True)",
    ],
}


def fast_requests(workload):
    return [r for r in workloads.build(workload) if r.rid in FAST[workload]]


def bench_run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc


class MetricsPrint(unittest.TestCase):
    def check(self, trace, wanted):
        proc = bench_run("--workload", "formulas", "--seed", "3", "--seconds", "1", "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(
                any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines),
                f"no line for {m['name']}",
            )
        return result

    def test_end_to_end_metrics(self):
        result = self.check("0", BENCH["end_to_end"])
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        self.check("1", BENCH["per_layer"])


class FailureCounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.refs = workloads.load_refs("formulas")
        cls.done = workloads.run_pass(fast_requests("formulas"), range(len(FAST["formulas"])))

    def test_references_match(self):
        verdicts = workloads.check(self.done.outcomes, self.refs)
        self.assertEqual([v for _, v, _ in verdicts], ["ok"] * len(verdicts))

    def test_corrupted_reference_counts_as_failed(self):
        refs = json.loads(json.dumps(self.refs))
        rid = self.done.outcomes[0].rid
        refs[rid]["sha256"] = "0" * 64
        verdicts = workloads.check(self.done.outcomes, refs)
        failed, known, lines = run.summarize(verdicts)
        self.assertEqual(failed, 1)
        self.assertEqual(known, 0)
        self.assertIn(f"FAILED {rid}", "\n".join(lines))
        self.assertIn(f"failed_ratio 1/{len(verdicts)}", lines[-1])

    def test_nonzero_exit_counts_as_failed(self):
        o = self.done.outcomes[0]
        bad = workloads.Outcome(o.rid, o.start, o.end, 2, "", "error: boom\n")
        self.assertEqual(workloads.verdict(bad, self.refs[o.rid])[0], "failed")

    def test_known_defect_needs_its_signature(self):
        ref = workloads.load_refs("series")["qmcount seq semisimple --q 2 --max-n 120 --format bfile"]
        sig = ref["known_defect"]
        hit = workloads.Outcome("x", 0.0, 1.0, sig["exit"], "", f"error: {sig['stderr_contains']}\n")
        other = workloads.Outcome("x", 0.0, 1.0, sig["exit"], "", "error: something else\n")
        wrong = workloads.Outcome("x", 0.0, 1.0, 0, "0 1\n1 1\n", "")
        self.assertEqual(workloads.verdict(hit, ref)[0], "known_defect")
        self.assertEqual(workloads.verdict(other, ref)[0], "failed")
        self.assertEqual(workloads.verdict(wrong, ref)[0], "failed")


class SeedIndependence(unittest.TestCase):
    def test_two_seeds_same_outputs(self):
        for workload in FAST:
            reqs = fast_requests(workload)
            (a,) = workloads.pass_order(1, len(reqs), 1)
            b = next(o for s in range(2, 50) for (o,) in [workloads.pass_order(s, len(reqs), 1)] if o != a)
            out_a = {o.rid: o.output for o in workloads.run_pass(reqs, a).outcomes}
            out_b = {o.rid: o.output for o in workloads.run_pass(reqs, b).outcomes}
            self.assertEqual(out_a, out_b)
            self.assertEqual(workloads.pass_order(1, len(reqs), 3), workloads.pass_order(1, len(reqs), 3))


class Tail(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail([1.0, 2.0, 3.0]), (3.0, 100.0, 0))
        xs = [float(i) for i in range(100)]
        value, pct, beyond = run.tail(xs)
        self.assertEqual((value, beyond), (89.0, 10))
        self.assertAlmostEqual(pct, 90.0)


if __name__ == "__main__":
    unittest.main()
