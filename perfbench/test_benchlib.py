"""Tests of the benchmark's own rules (benchlib.py) and of BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank_index(100, 50), 49)
        self.assertEqual(benchlib.nearest_rank_index(100, 99), 98)
        self.assertEqual(benchlib.nearest_rank_index(1, 50), 0)
        self.assertEqual(benchlib.percentile(xs, 50), 50)
        self.assertEqual(benchlib.percentile(list(reversed(xs)), 50), 50)

    def test_ten_beyond_rule(self):
        # p99 needs 1000 samples: 10 lie beyond the 990th.
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.percentile(list(range(1000)), 99), 989)
        self.assertEqual(benchlib.samples_beyond(999, 99), 9)
        self.assertIsNone(benchlib.percentile(list(range(999)), 99))
        # p50 needs 20.
        self.assertEqual(benchlib.percentile(list(range(20)), 50), 9)
        self.assertIsNone(benchlib.percentile(list(range(19)), 50))
        self.assertIsNone(benchlib.percentile([], 50))

    def test_bad_arguments(self):
        with self.assertRaises(ValueError):
            benchlib.nearest_rank_index(0, 50)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank_index(10, 0)


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(i, parent, name, start, end):
        return {"id": i, "parent": parent, "name": name, "start": start,
                "end": end}

    def test_children_are_subtracted_once(self):
        spans = [
            self.span(0, -1, "bench.pass", 0.0, 10.0),
            self.span(1, 0, "exec.run", 1.0, 3.0),
            self.span(2, 0, "exec.run", 2.0, 5.0),   # overlaps span 1
            self.span(3, 0, "net.wait", 8.0, 12.0),  # runs past its parent
            self.span(4, 1, "sim.run", 1.5, 2.5),    # grandchild
        ]
        got = benchlib.self_times(spans)
        self.assertAlmostEqual(got["bench"], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(got["exec"], (2.0 - 1.0) + 3.0)
        self.assertAlmostEqual(got["net"], 4.0)
        self.assertAlmostEqual(got["sim"], 1.0)

    def test_leaf_is_all_self(self):
        got = benchlib.self_times([self.span(7, -1, "core.dag_seal", 2.0, 2.5)])
        self.assertEqual(got, {"core": 0.5})

    def test_self_fractions_in_reduction(self):
        raw = {"series": {}, "values": {}, "attempted": 1, "failed": 0}
        spans = [self.span(0, -1, "bench.pass", 0.0, 4.0),
                 self.span(1, 0, "exec.run", 0.0, 3.0)]
        got = benchlib.reduce_raw(raw, spans)
        self.assertAlmostEqual(got["exec.self_frac"]["value"], 0.75)
        self.assertAlmostEqual(got["bench.self_frac"]["value"], 0.25)


class NameTest(unittest.TestCase):
    def test_valid(self):
        for name in ("setup_s", "sim.vmakespan.matmul.DAM-C.dvfs-wave",
                     "net.submit_call_us.p99", "9lives", "a" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "a b", "-x", ".x", "x/y", "café", "a" * 65,
                     None):
            self.assertFalse(benchlib.valid_name(name), name)


class RegressionTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertFalse(benchlib.regressed(100.0, 110.0, 0.1, "lower"))
        self.assertTrue(benchlib.regressed(100.0, 110.1, 0.1, "lower"))
        self.assertFalse(benchlib.regressed(100.0, 50.0, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertFalse(benchlib.regressed(100.0, 90.0, 0.1, "higher"))
        self.assertTrue(benchlib.regressed(100.0, 89.9, 0.1, "higher"))
        self.assertFalse(benchlib.regressed(100.0, 200.0, 0.1, "higher"))

    def test_direction_is_checked(self):
        with self.assertRaises(ValueError):
            benchlib.regressed(1.0, 1.0, 0.1, "faster")

    def test_spread(self):
        self.assertAlmostEqual(benchlib.spread([10.0] * 10), 0.0)
        xs = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, _, q3 = (92.5, 100.0, 107.5)  # statistics.quantiles, exclusive
        self.assertAlmostEqual(benchlib.spread(xs), (q3 - q1) / 100.0)


class ReduceTest(unittest.TestCase):
    def test_reduction(self):
        raw = {
            "series": {
                "setup_s": {"unit": "s", "samples": [3.0, 1.0, 2.0]},
                "job_latency_s": {"unit": "s", "samples": list(range(30)),
                                  "percentiles": {"50": "job_latency_p50_s",
                                                  "99": "job_latency_p99_s"}},
                "tasks_per_s": {"unit": "1/s", "samples": [100.0, 50.0]},
                "traced.tasks_per_s": {"unit": "1/s", "samples": [90.0]},
            },
            "values": {"peak_rss_mb": {"unit": "MB", "value": 12.5}},
            "attempted": 4, "failed": 1,
        }
        got = benchlib.reduce_raw(raw)
        self.assertEqual(got["setup_s"]["value"], 1.0)  # one partial batch
        self.assertEqual(got["job_latency_p50_s"]["value"], 14)
        self.assertEqual(got["job_latency_p50_s"]["n"], 30)
        self.assertNotIn("job_latency_p99_s", got)  # too few samples beyond
        self.assertNotIn("traced.tasks_per_s", got)
        self.assertAlmostEqual(got["bench.trace_overhead_frac"]["value"], 0.1)
        self.assertEqual(got["peak_rss_mb"]["value"], 12.5)
        self.assertEqual(got["failed_frac"]["value"], 0.25)

    def test_batch_min_median(self):
        xs = [5.0, 1.0, 9.0, 4.0, 8.0, 3.0, 7.0, 6.0, 2.0, 0.5]
        # batches of 3: min 1, 3, 2; the trailing 0.5 is a partial batch
        self.assertEqual(benchlib.batch_min_median(xs, 3), 2.0)
        self.assertEqual(benchlib.batch_min_median(xs, 5), (1.0 + 0.5) / 2)
        self.assertEqual(benchlib.batch_min_median([4.0, 2.0], 5), 2.0)

    def test_trace_overhead_pairs_adjacent_passes(self):
        # The host slows down halfway: medians of the two lists would show
        # a 55% overhead, the pairs show the real 10%.
        untraced = [100.0, 100.0, 100.0, 50.0, 50.0]
        traced = [90.0, 90.0, 45.0, 45.0, 45.0]
        frac, n = benchlib.trace_overhead(untraced, traced)
        self.assertAlmostEqual(frac, 0.1)
        self.assertEqual(n, 5)


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            names.append(m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertIsNotNone(unit_re.fullmatch(m["unit"]), m["unit"])
        self.assertTrue(all(benchlib.valid_name(n) for n in names))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for path in spec["paths"]:
            self.assertTrue((ROOT / path).is_dir(), path)


if __name__ == "__main__":
    unittest.main()
