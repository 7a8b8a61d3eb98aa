#!/usr/bin/env python3
"""Tests of the benchmark's own math (benchstats.py) and of run.py's
output oracle. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402
import run  # noqa: E402

HEADER = ("application,topology,capacity,gate,reorder,time_s,compute_s,"
          "comm_s,fidelity,log_fidelity,max_energy_quanta,ms_gates,"
          "reorder_ms,shuttles,splits,merges,evictions")


def row(app, time_s, log_fidelity):
    return "%s,linear:6,14,FM,GS,%s,0,0,0.5,%s,1,1,0,0,0,0,0" % (
        app, time_s, log_fidelity)


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2.0)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.median([])


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(benchstats.supported_percentile(range(19)))
        p, value = benchstats.supported_percentile(range(1, 21))
        self.assertEqual((p, value), (50.0, 10.0))

    def test_picks_highest_supported(self):
        values = list(range(1, 1001))
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only one.
        self.assertEqual(benchstats.supported_percentile(values),
                         (99.0, 990.0))
        self.assertEqual(benchstats.supported_percentile(values[:100]),
                         (90.0, 90.0))


class GeomeanTest(unittest.TestCase):
    def test_value(self):
        self.assertAlmostEqual(benchstats.geomean([1, 4, 16]), 4.0)
        self.assertAlmostEqual(benchstats.geomean([2.5]), 2.5)

    def test_rejects_nonpositive(self):
        with self.assertRaises(ValueError):
            benchstats.geomean([1, 0])


class GoldenBestTest(unittest.TestCase):
    def test_fidelity_then_time_then_index(self):
        rows = [row("a", "0.5", "-0.2"), row("b", "0.3", "-0.1"),
                row("c", "0.2", "-0.1"), row("d", "0.2", "-0.1")]
        text = "\n".join([HEADER] + rows) + "\n"
        self.assertEqual(benchstats.golden_best(text), rows[2])

    def test_compares_numbers_not_text(self):
        rows = [row("a", "0.5", "-0.9"), row("b", "0.5", "-0.10")]
        self.assertEqual(benchstats.golden_best("\n".join([HEADER] + rows)),
                         rows[1])


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_parallel_children(self):
        spans = {
            1: (0, "pass", 0, 100),
            2: (1, "engine.run", 10, 60),
            # Two workers overlap in [20, 40): covered once.
            3: (2, "schedule", 20, 40),
            4: (2, "schedule", 30, 50),
            5: (1, "export", 70, 80),
            6: (5, "inner", 75, 90),  # sticks out of its parent
        }
        selfs = benchstats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 50 - 10)
        self.assertEqual(selfs[2], 50 - 30)
        self.assertEqual(selfs[3], 20)
        self.assertEqual(selfs[5], 10 - 5)
        self.assertEqual(benchstats.root_of(spans),
                         {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})

    def test_covered_length(self):
        self.assertEqual(benchstats.covered_length([], 0, 10), 0)
        self.assertEqual(
            benchstats.covered_length([(0, 4), (2, 6), (8, 20)], 1, 10), 7)


class OracleTest(unittest.TestCase):
    def test_counters_from_cli_lines(self):
        out = ("sweep x: 3 points, 1 workers\nstaged: 2 full, 1 replayed\n"
               "cache: s.qcache hits=3 misses=0 inserts=0 loaded=9 "
               "quarantined=0 healed=0\n")
        c = run.parse_counters(out)
        self.assertEqual(c["schedule.full"], 2)
        self.assertEqual(c["replay.count"], 1)
        self.assertEqual(c["store.hits"], 3)
        self.assertEqual(c["store.misses"], 0)

    def test_mismatched_lines(self):
        self.assertEqual(run.mismatched_lines("a\nb\n", "a\nb\n"), 0)
        self.assertEqual(run.mismatched_lines("a\nx\n", "a\nb\n"), 1)
        self.assertEqual(run.mismatched_lines("a\n", "a\nb\nc\n"), 2)
        self.assertEqual(run.mismatched_lines("a\nb", "a\nb\n"), 1)

    def test_split_counters_exact_only_at_one_worker(self):
        a = {"schedule.full": 8, "replay.count": 12, "export.rows": 20}
        b = {"schedule.full": 10, "replay.count": 10, "export.rows": 20}
        self.assertNotEqual(run.exact_counters(a, 1),
                            run.exact_counters(b, 1))
        self.assertEqual(run.exact_counters(a, 4), run.exact_counters(b, 4))


if __name__ == "__main__":
    unittest.main()
