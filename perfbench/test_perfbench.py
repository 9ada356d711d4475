#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root (builds on first use, takes a few minutes):

    python3 perfbench/test_perfbench.py

* a wrong expected value planted in each workload is counted as a failure;
* the table2 workload's per-program counts and cycle ratios equal
  bench_table2 --json for the same build;
* every workload runs clean on the held-out seed, traced and untraced, and
  reports every metric BENCHMARK.json names.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def perfbench(workload, *extra, seed=run.DEFAULT_SEED, trace=0):
    """Runs one workload; returns (result object, note lines)."""
    run.WORK.mkdir(parents=True, exist_ok=True)
    out = subprocess.run(
        [str(run.BUILD / "perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--work-dir", str(run.WORK), *extra],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [l for l in lines if l.startswith("#")]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_planted_wrong_value_counts_as_failure(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = perfbench(workload, "--plant-wrong-expected")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_table2_rows_equal_bench_table2(self):
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            rows_path = Path(tmp) / "rows.json"
            table_path = Path(tmp) / "table2.json"
            result, _ = perfbench("table2", "--table2-rows", str(rows_path))
            self.assertEqual(result["failed"], 0)
            subprocess.run([str(run.BUILD / "bench_table2"), "--jobs", "4",
                            "--json", str(table_path)],
                           capture_output=True, check=True,
                           timeout=run.RUN_TIMEOUT_S)
            rows = {r["name"]: r for r in json.loads(rows_path.read_text())}
            table = json.loads(table_path.read_text())["per_workload"]
        self.assertEqual(sorted(rows), sorted(t["name"] for t in table))
        for expected in table:
            row = rows[expected["name"]]
            with self.subTest(program=expected["name"]):
                self.assertEqual(row["tests"], expected["tests"])
                for key in ("gcc_yes", "hli_yes", "combined_yes"):
                    self.assertEqual(row[key], expected[key])
                # bench_table2 prints the ratios with six significant digits.
                for machine in ("r4600", "r10000"):
                    speedup = (row[f"cycles_{machine}_native"] /
                               row[f"cycles_{machine}_hli"])
                    self.assertAlmostEqual(
                        speedup / expected[f"speedup_{machine}"], 1.0,
                        delta=1e-5)
                self.assertAlmostEqual(
                    row["cycles_r10000_native"] / row["cycles_r10000_irdep"] /
                    expected["irdep_speedup_r10000"], 1.0, delta=1e-5)

    def test_held_out_seed_runs_clean(self):
        end_to_end = [m["name"] for m in SPEC["end_to_end"]]
        per_layer = [m["name"] for m in SPEC["per_layer"]]
        for workload in run.WORKLOADS:
            for trace, names in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result, notes = perfbench(workload,
                                              seed=run.HELD_OUT_SEED,
                                              trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    if trace:
                        self.assertTrue(any("unaccounted share" in n
                                            for n in notes))
                    else:
                        for name in names:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
