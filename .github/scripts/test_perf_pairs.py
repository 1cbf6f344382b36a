#!/usr/bin/env python3
"""Self-tests of the parent-versus-head gate's comparison, on synthetic
benchmark results.

    python3 .github/scripts/test_perf_pairs.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import perf_pairs  # noqa: E402

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "reps_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]
WORKLOADS = ("mc-nominal", "sweep-replan")


def result(wall_s=0.1, reps_per_s=1000.0, peak_rss_mb=4.0, failed=0):
    metrics = {"wall_s": wall_s, "reps_per_s": reps_per_s, "peak_rss_mb": peak_rss_mb}
    return {
        "correct": failed == 0,
        "attempted": 50,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    }


def runs(pairs=5, **changed):
    """`pairs` parsed runs; `changed` maps a workload to result overrides."""
    return [{w: result(**changed.get(w, {})) for w in WORKLOADS} for _ in range(pairs)]


class CompareTests(unittest.TestCase):
    def test_within_every_bound_passes(self):
        head = runs(**{"mc-nominal": {"wall_s": 0.12, "reps_per_s": 800.0, "peak_rss_mb": 4.3}})
        rows, failures = perf_pairs.compare(runs(), head, END_TO_END)
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), len(WORKLOADS) * len(END_TO_END))
        self.assertTrue(all(row[-1] == "ok" for row in rows))

    def test_one_metric_beyond_its_bound_fails_and_is_named(self):
        head = runs(**{"mc-nominal": {"wall_s": 0.15}})
        rows, failures = perf_pairs.compare(runs(), head, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("mc-nominal wall_s", failures[0])
        worse = [row[:2] for row in rows if row[-1] == "WORSE"]
        self.assertEqual(worse, [("mc-nominal", "wall_s")])

    def test_higher_is_better_direction_is_honoured(self):
        faster = runs(**{"sweep-replan": {"reps_per_s": 2000.0, "wall_s": 0.05}})
        self.assertEqual(perf_pairs.compare(runs(), faster, END_TO_END)[1], [])
        slower = runs(**{"sweep-replan": {"reps_per_s": 700.0}})
        _, failures = perf_pairs.compare(runs(), slower, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("sweep-replan reps_per_s", failures[0])

    def test_medians_not_single_runs_are_compared(self):
        head = runs()
        head[0]["mc-nominal"] = result(wall_s=1.0)
        self.assertEqual(perf_pairs.compare(runs(), head, END_TO_END)[1], [])

    def test_beyond_bound_within_a_noisy_parent_is_unresolved(self):
        walls = [0.08, 0.10, 0.12, 0.14, 0.16]  # parent spread 0.33 > bound 0.25
        parent, head = runs(), runs()
        for i, wall in enumerate(walls):
            parent[i]["mc-nominal"] = result(wall_s=wall)
            head[i]["mc-nominal"] = result(wall_s=wall + 0.04 * (i > 0))
        rows, failures = perf_pairs.compare(parent, head, END_TO_END)
        self.assertEqual(failures, [])
        verdicts = {row[:2]: row[-1] for row in rows}
        self.assertEqual(verdicts[("mc-nominal", "wall_s")], "unresolved")

    def test_every_head_run_worse_fails_despite_a_noisy_parent(self):
        parent, head = runs(), runs()
        for i, wall in enumerate([0.08, 0.10, 0.12, 0.14, 0.16]):
            parent[i]["mc-nominal"] = result(wall_s=wall)
            head[i]["mc-nominal"] = result(wall_s=0.2 + 0.01 * i)
        _, failures = perf_pairs.compare(parent, head, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("mc-nominal wall_s", failures[0])

    def test_a_failed_head_operation_fails(self):
        head = runs()
        head[2]["sweep-replan"] = result(failed=1)
        _, failures = perf_pairs.compare(runs(), head, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("sweep-replan", failures[0])
        self.assertIn("failed 1 of 50", failures[0])


class PerPairTests(unittest.TestCase):
    def test_pair_values_and_the_better_count_follow_the_direction(self):
        parent, head = runs(), runs()
        for i in range(5):
            parent[i]["mc-nominal"] = result(wall_s=0.10, reps_per_s=1000.0)
            # Faster in pairs 0-3, slower in pair 4; rates mirror it.
            head[i]["mc-nominal"] = result(wall_s=0.08 if i < 4 else 0.12,
                                           reps_per_s=1250.0 if i < 4 else 800.0)
        rows = {row[:2]: row[2:] for row in perf_pairs.per_pair(parent, head, END_TO_END)}
        self.assertEqual(len(rows), len(WORKLOADS) * len(END_TO_END))
        pairs, better = rows[("mc-nominal", "wall_s")]
        self.assertEqual(pairs, [(0.10, 0.08)] * 4 + [(0.10, 0.12)])
        self.assertEqual(better, 4)
        self.assertEqual(rows[("mc-nominal", "reps_per_s")][1], 4)
        # Equal values are not better.
        self.assertEqual(rows[("sweep-replan", "wall_s")][1], 0)


class ParseTests(unittest.TestCase):
    def test_results_are_named_by_the_meta_lines(self):
        lines = []
        for w in WORKLOADS:
            lines += ["meta " + json.dumps({"workload": w, "seed": 1}), f"{w} wall_s 0.1 s"]
        lines += [json.dumps(result(wall_s=0.1 * (i + 1))) for i in range(len(WORKLOADS))]
        parsed = perf_pairs.parse_results("\n".join(lines) + "\n")
        self.assertEqual(list(parsed), list(WORKLOADS))
        self.assertEqual(parsed["sweep-replan"]["metrics"]["wall_s"]["value"], 0.2)

    def test_output_without_results_is_an_error(self):
        with self.assertRaises(perf_pairs.RunError):
            perf_pairs.parse_results("perfbench: build failed\n")


if __name__ == "__main__":
    unittest.main()
