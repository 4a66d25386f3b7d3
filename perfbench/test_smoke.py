"""Smoke test of the benchmark at a tiny size (one draw per target).

Run from the root of a checkout:

    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())["rows"]
# the top two degrees: at n = 0 the printed variant of cor3.8/r6 is right
TINY = {name: dataclasses.replace(w, draws=1, degrees=w.degrees[-2:])
        for name, w in run.WORKLOADS.items()}
SEED = 1


def invoke(workload: str, trace: int) -> tuple[int, dict]:
    """Run the command line at the tiny size; exit code and last JSON line."""
    buf = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, TINY), contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.qaskey = run.load_qaskey()

    def test_spec_lists_what_the_harness_emits(self):
        self.assertEqual(sorted(run.WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        self.assertEqual(run.END_TO_END_UNITS,
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertEqual(run.PER_LAYER_UNITS,
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        predicted = [m for row in PREDICTIONS for m in row["metrics"]]
        self.assertEqual(sorted(predicted), sorted(run.PER_LAYER_UNITS))

    def test_every_end_to_end_metric_for_every_workload(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                code, result = invoke(name, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 run.END_TO_END_UNITS)
                for k, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_counts_repeat_and_predicted_zeros_hold(self):
        zero_on = {}
        for row in PREDICTIONS:
            for m in row["metrics"]:
                zero_on[m] = row["zero_on"]
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                runs = [invoke(name, 1) for _ in range(2)]
                for code, result in runs:
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     run.PER_LAYER_UNITS)
                exact = [{k: v["value"] for k, v in r["metrics"].items()
                          if run.PER_LAYER_UNITS[k] in ("count", "bits")} for _, r in runs]
                self.assertEqual(exact[0], exact[1])
                metrics = runs[0][1]["metrics"]
                for k, workloads in zero_on.items():
                    if name in workloads:
                        self.assertEqual(metrics[k]["value"], 0, k)

    def sweep(self, name):
        w = TINY[name]
        return w, run.run_one_sweep(self.qaskey, w, run.target_ids(self.qaskey, w), SEED)

    def test_merged_report_equals_one_run_sweep(self):
        for name in ("catalog-exact", "series-exact-deep"):
            w, sweep = self.sweep(name)
            h = hashlib.sha256()
            for cfg in w.configs(self.qaskey, SEED):
                h.update(self.qaskey.run_sweep(cfg, w.globs).to_json(include_timing=False)
                         .encode())
            self.assertEqual(sweep.digest(), h.hexdigest())

    def test_gate_trips_on_forced_fail(self):
        w, sweep = self.sweep("catalog-exact")
        self.assertEqual(run.gate(w, [sweep]), [])
        entry = sweep.reports[0].entries[0]
        entry.passed, entry.failed = entry.passed - 1, entry.failed + 1
        self.assertTrue(run.gate(w, [sweep]))

        w, sweep = self.sweep("catalog-exact")
        for rep in sweep.reports:
            (quarantined,) = [e for e in rep.entries if e.quarantine]
            quarantined.quarantine["printed"]["fail"] = 0
        self.assertTrue(run.gate(w, [sweep]))

        # a quarantined record whose printed variant is no longer swept
        w, sweep = self.sweep("catalog-exact")
        for rep in sweep.reports:
            (quarantined,) = [e for e in rep.entries if e.quarantine]
            quarantined.quarantine = None
        self.assertTrue(run.gate(w, [sweep]))

        # float FAILs are counted, not gated; a short entry is always a problem
        w, sweep = self.sweep("all-float")
        entry = sweep.reports[0].entries[0]
        entry.passed, entry.failed = entry.passed - 1, entry.failed + 1
        self.assertEqual(run.gate(w, [sweep]), [])
        entry.failed -= 1
        self.assertTrue(run.gate(w, [sweep]))

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "aw-exact",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
