"""Self-test of the benchmark harness (not part of the repository's test suite).

    python3 benchmarks/selftest.py

Checks that corrupted, failed and timed-out jobs are counted as failed, that
the Monte-Carlo checks use the exact law, that BENCHMARK.json matches the
metrics the harness prints, and that smoke runs on the closed chain of 4
print every metric with its unit in a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time
import unittest

import run

ROOT = run.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))  # the CLI's parser reads the job arguments

from workloads import (REFERENCE, WORKLOADS, Workload, check_output,
                       geometric_stop_moments)


SMOKE = (
    Workload("smoke-gap", ("gap", "--chain", "4", "--closed"), limit_s=30),
    Workload("smoke-sim", ("simulate", "--chain", "4", "--closed", "--noise", "worst_case",
                           "--runs", "50", "--pass-draws", "2000"), limit_s=30),
    Workload("smoke-check-bounds", ("check-bounds", "--instances", "5"), limit_s=30),
)


def _run_quietly(workload: Workload, trace: int) -> tuple[dict, str, float]:
    bench = run.Bench(ROOT)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        run.run(bench, workload, seed=3, seconds=0.0, trace=trace)
    text = buf.getvalue()
    return json.loads(text.splitlines()[-1]), text, time.perf_counter() - start


class OutputChecks(unittest.TestCase):
    def gap_row(self):
        return dict(REFERENCE["gap-dense"])

    def test_reference_row_passes(self):
        self.assertEqual(check_output(WORKLOADS["gap-dense"], self.gap_row()), [])

    def test_perturbed_nu_fails(self):
        row = self.gap_row()
        row["nu_measured"] += 1e-6
        self.assertTrue(check_output(WORKLOADS["gap-dense"], row))

    def test_nu_below_a_bound_fails(self):
        row = self.gap_row()
        row["thm2"] = row["nu_measured"] * 1.01
        problems = check_output(WORKLOADS["gap-dense"], row)
        self.assertTrue(any("below thm2" in p for p in problems), problems)

    def test_simulation_law(self):
        workload = dataclasses.replace(SMOKE[1], name="sim-design", args=(
            "simulate", "--runs", "4", "--pass-draws", "1000"))
        ref = REFERENCE["sim-design"]
        n, q = ref["n_tests"], ref["exact_pass_probability"]
        mean, _ = geometric_stop_moments(q, n)
        per_run = [{"n_tests": n, "n_passed": round(mean) - 1, "accepted": False}] * 4
        out = dict(ref, empirical_pass_rate=q, per_run=per_run)
        self.assertEqual(check_output(workload, out), [])
        self.assertTrue(check_output(workload, dict(out, empirical_pass_rate=q - 0.05)))
        slow = [dict(r, n_passed=10 * round(mean)) for r in per_run]
        self.assertTrue(check_output(workload, dict(out, per_run=slow)))

    def test_geometric_moments_match_the_untruncated_law(self):
        mean, var = geometric_stop_moments(0.9, 10_000)
        self.assertAlmostEqual(mean, 10.0, places=9)
        self.assertAlmostEqual(var, 0.9 / 0.01, places=6)
        self.assertEqual(geometric_stop_moments(0.5, 1), (1.0, 0.0))

    def test_failed_check_line_fails(self):
        workload = SMOKE[2]
        lines = [f"PASS c{i}: ok" for i in range(15)] + ["16/16 checks passed"]
        self.assertEqual(check_output(workload, lines), [])
        lines[3] = "FAIL c3: bad"
        self.assertTrue(check_output(workload, lines))


class JobFailures(unittest.TestCase):
    def test_nonzero_exit_counts_as_failed(self):
        bench = run.Bench(ROOT)
        refused = dataclasses.replace(WORKLOADS["gap-krylov"], env={})  # cap refuses: exit 3
        proc, parsed = bench.job(refused, 0)
        self.assertEqual(proc.returncode, 3)
        self.assertIsNone(parsed)
        self.assertEqual((bench.attempted, bench.failed), (1, 1))

    def test_job_past_its_limit_is_killed_and_counted(self):
        bench = run.Bench(ROOT)
        slow = dataclasses.replace(WORKLOADS["gap-krylov"], limit_s=1.0)
        start = time.perf_counter()
        proc, _ = bench.job(slow, 0)
        self.assertLess(time.perf_counter() - start, 5.0)
        self.assertTrue(proc.timed_out)
        self.assertEqual((bench.attempted, bench.failed), (1, 1))
        self.assertIn("limit", bench.failures[0])


class Spec(unittest.TestCase):
    def test_benchmark_json_names_the_harness_workloads(self):
        self.assertEqual({w["name"] for w in run.SPEC["workloads"]}, set(WORKLOADS))


class SmokeRuns(unittest.TestCase):
    def check_printed(self, result: dict, text: str, metrics: dict):
        self.assertTrue(result["correct"], text)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(metrics))
        for name, unit in metrics.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertRegex(text, rf"(?m)^{name.replace('.', '[.]')}\s+\S+ {unit}")

    def test_smoke_runs_print_every_metric(self):
        for workload in SMOKE:
            with self.subTest(workload=workload.name):
                result, text, wall = _run_quietly(workload, trace=0)
                self.check_printed(result, text, run.END_TO_END)
                self.assertLess(wall, 60.0)
                result, text, wall = _run_quietly(workload, trace=1)
                self.check_printed(result, text, run.PER_LAYER)
                self.assertLess(wall, 60.0)


if __name__ == "__main__":
    sys.exit(unittest.main())
