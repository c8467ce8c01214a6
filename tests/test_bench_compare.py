#!/usr/bin/env python3
"""Self-test of tools/bench_compare.py: the exit-code contract.

Builds small pdmm-bench-v1 reports in a temp dir and runs the script on
them. Registered with ctest as bench_compare.self_test; runs standalone as
`python3 tests/test_bench_compare.py`.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "tools", "bench_compare.py")


def point(bench, params, seconds=0.01, **counters):
    p = {"bench": bench, "experiment": "E0", "params": params, "reps": 1,
         "seconds": {"median": seconds, "min": seconds, "max": seconds},
         "work": 1000, "rounds": 40, "updates": 512, "max_batch_rounds": 9,
         "updates_per_sec": 512 / seconds, "metrics": {"ratio": 0.5}}
    p.update(counters)
    return p


def report():
    return {
        "schema": "pdmm-bench-v1",
        "meta": {"timestamp_utc": "2026-01-01T00:00:00Z",
                 "compiler": "12.2.0", "build_type": "release",
                 "os": "linux", "arch": "x86_64", "hardware_threads": 4,
                 "reps": 1, "warmup": 1, "threads": 0, "seed": 0,
                 "smoke": True},
        "results": [
            point("throughput", {"impl": "pdmm", "k": "256"}),
            point("throughput", {"impl": "sequential", "k": "256"}),
            point("dict", {"items": "4096", "op": "insert"}),
        ],
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f, indent=2)
        return path

    def compare(self, base, run):
        proc = subprocess.run(
            [sys.executable, SCRIPT, self.write("base.json", base),
             self.write("run.json", run)],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_identical_reports_pass(self):
        code, out = self.compare(report(), report())
        self.assertEqual(code, 0, out)
        self.assertIn("3 matched points, 0 with counter drift", out)

    def test_params_match_in_any_order(self):
        run = report()
        run["results"][0]["params"] = {"k": "256", "impl": "pdmm"}
        code, out = self.compare(report(), run)
        self.assertEqual(code, 0, out)

    def test_rounds_drift_fails_and_names_the_point(self):
        run = report()
        run["results"][1]["rounds"] += 1
        code, out = self.compare(report(), run)
        self.assertEqual(code, 3, out)
        self.assertIn("DRIFT throughput [impl=sequential k=256]: "
                      "rounds 40 -> 41", out)
        self.assertNotIn("impl=pdmm", out)

    def test_each_gated_counter_drifts(self):
        for counter in ("work", "rounds", "updates", "max_batch_rounds"):
            run = report()
            run["results"][2][counter] += 1
            code, out = self.compare(report(), run)
            self.assertEqual(code, 3, counter + ": " + out)
            self.assertIn(f"{counter} ", out)

    def test_counters_past_2_pow_53_compare_exactly(self):
        # 2^53 + 1 and 2^53 + 2 are one double apart but two integers.
        base, run = report(), report()
        base["results"][0]["work"] = 2**53 + 1
        run["results"][0]["work"] = 2**53 + 2
        base["results"][1]["rounds"] = 2**64 - 2
        run["results"][1]["rounds"] = 2**64 - 1
        code, out = self.compare(base, run)
        self.assertEqual(code, 3, out)
        self.assertIn(f"work {2**53 + 1} -> {2**53 + 2}", out)
        self.assertIn(f"rounds {2**64 - 2} -> {2**64 - 1}", out)

    def test_wall_clock_never_gates(self):
        run = report()
        for r in run["results"]:
            r["seconds"]["median"] *= 2
        run["meta"]["hardware_threads"] = 1
        code, out = self.compare(report(), run)
        self.assertEqual(code, 0, out)
        self.assertIn("2.000x", out)
        self.assertIn("hardware_threads 4 vs 1", out)

    def test_unmatched_points_are_reported_not_gated(self):
        run = report()
        run["results"] = run["results"][:2]
        code, out = self.compare(report(), run)
        self.assertEqual(code, 0, out)
        self.assertRegex(out, r"points only in \S+base.json: dict 1")

    def test_differing_seed_warmup_or_smoke_is_refused(self):
        for key, value in (("seed", 7), ("warmup", 2), ("smoke", False)):
            run = report()
            run["meta"][key] = value
            code, out = self.compare(report(), run)
            self.assertEqual(code, 1, key + ": " + out)
            self.assertIn(f"meta {key} differs", out)

    def test_not_a_report_is_refused(self):
        other = report()
        other["schema"] = "pdmm-bench-v0"
        for doc in (other, "{ not json", ["a", "list"]):
            code, out = self.compare(report(), doc)
            self.assertEqual(code, 1, out)

    def test_non_integer_counter_is_refused(self):
        for value in (1000.0, "1000", True, None):
            run = report()
            run["results"][0]["work"] = value
            code, out = self.compare(report(), run)
            self.assertEqual(code, 1, repr(value) + ": " + out)

    def test_duplicate_point_is_refused(self):
        run = report()
        run["results"].append(copy.deepcopy(run["results"][0]))
        code, out = self.compare(report(), run)
        self.assertEqual(code, 1, out)

    def test_no_matched_points_is_refused(self):
        run = report()
        for r in run["results"]:
            r["params"]["k"] = "1024"
        code, out = self.compare(report(), run)
        self.assertEqual(code, 1, out)
        self.assertIn("no point", out)

    def test_missing_file_is_refused(self):
        proc = subprocess.run(
            [sys.executable, SCRIPT, self.write("base.json", report()),
             os.path.join(self.tmp.name, "absent.json")],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 1, proc.stderr)

    def test_wrong_arguments_are_a_usage_error(self):
        proc = subprocess.run([sys.executable, SCRIPT, "only-one.json"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("usage:", proc.stderr)


if __name__ == "__main__":
    unittest.main()
