"""Tests for the benchmark's Python side: BENCHMARK.json naming rules,
the result line, and the fingerprint gate of compare.py.

    python3 -m unittest discover campaign_bench/tests
"""
import copy
import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())


def raw_result(spec, trace, **overrides):
    section = "per_layer" if trace else "end_to_end"
    raw = {"correct": True, "attempted": 10, "failed": 0,
           "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                       for m in spec[section]}}
    raw.update(overrides)
    return raw


class SpecTest(unittest.TestCase):
    def test_committed_spec_is_valid(self):
        self.assertEqual(run.spec_errors(SPEC), [])

    def test_workloads_and_end_to_end_names(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["sweep", "sni", "dns", "hostile"])
        self.assertEqual(
            {m["name"] for m in SPEC["end_to_end"]},
            {"targets_per_s", "handshakes_per_s", "attempt_mean_us",
             "attempt_p99_us", "cpu_s", "peak_rss_mb", "setup_s"})
        bounds = [m["bound"] for m in SPEC["end_to_end"]]
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(bounds))

    def test_invalid_names_are_caught(self):
        for bad in ["", "_x", "has space", "a" * 65, "qscan.outcome.Crypto Error"]:
            spec = copy.deepcopy(SPEC)
            spec["per_layer"][0]["name"] = bad
            self.assertTrue(run.spec_errors(spec), bad)
        ok = copy.deepcopy(SPEC)
        ok["per_layer"][0]["name"] = "a" * 64
        self.assertEqual(run.spec_errors(ok), [])

    def test_duplicates_units_bounds_and_setup(self):
        spec = copy.deepcopy(SPEC)
        spec["per_layer"][1]["name"] = spec["per_layer"][0]["name"]
        self.assertIn("duplicate", " ".join(run.spec_errors(spec)))
        spec = copy.deepcopy(SPEC)
        spec["per_layer"][0]["unit"] = "m s"
        self.assertIn("invalid unit", " ".join(run.spec_errors(spec)))
        spec = copy.deepcopy(SPEC)
        spec["end_to_end"][0]["bound"] = 0.3
        self.assertIn("bound", " ".join(run.spec_errors(spec)))
        spec = copy.deepcopy(SPEC)
        spec["end_to_end"] = [m for m in spec["end_to_end"]
                              if m["name"] != "setup_s"]
        self.assertIn("setup_s", " ".join(run.spec_errors(spec)))


class ResultLineTest(unittest.TestCase):
    def test_keys_and_metric_sets(self):
        for trace in (0, 1):
            line = run.result_line(raw_result(SPEC, trace), SPEC, trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            section = "per_layer" if trace else "end_to_end"
            self.assertEqual(set(line["metrics"]),
                             {m["name"] for m in SPEC[section]})

    def test_missing_extra_or_mislabelled_metric_is_an_error(self):
        raw = raw_result(SPEC, 0)
        del raw["metrics"]["cpu_s"]
        with self.assertRaises(ValueError):
            run.result_line(raw, SPEC, 0)
        raw = raw_result(SPEC, 0)
        raw["metrics"]["bogus"] = {"value": 1, "unit": "s"}
        with self.assertRaises(ValueError):
            run.result_line(raw, SPEC, 0)
        raw = raw_result(SPEC, 0)
        raw["metrics"]["cpu_s"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            run.result_line(raw, SPEC, 0)


class CompareTest(unittest.TestCase):
    def runs(self, value, fingerprint="a"):
        return [dict(raw_result(SPEC, 0), workload="sweep", trace=0,
                     fingerprint={"host": fingerprint},
                     metrics={m["name"]: {"value": value, "unit": m["unit"]}
                              for m in SPEC["end_to_end"]})
                for _ in range(3)]

    def test_fingerprints_must_match(self):
        self.assertEqual(len(compare.fingerprints(self.runs(1), self.runs(1))), 1)
        self.assertEqual(
            len(compare.fingerprints(self.runs(1), self.runs(1, "b"))), 2)

    def test_regression_beyond_bound_is_flagged(self):
        rows = compare.compare(self.runs(100.0), self.runs(100.0), SPEC)
        self.assertTrue(all(r[-1] == "ok" for r in rows))
        rows = {r[1]: r for r in compare.compare(self.runs(100.0),
                                                 self.runs(200.0), SPEC)}
        self.assertEqual(rows["cpu_s"][-1], "REGRESSED")        # lower is better
        self.assertEqual(rows["targets_per_s"][-1], "ok")       # higher is better


if __name__ == "__main__":
    unittest.main()
