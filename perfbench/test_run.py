#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from anywhere in a checkout:

    python3 perfbench/test_run.py

* a smoke-size run of every workload, untraced and traced, emits every
  metric of BENCHMARK.json with its unit, and nothing else;
* a tampered report, and a store-replay cell computed instead of served,
  each fail the operation;
* the attribution arithmetic is right on a hand-built trace.
"""

import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, trace):
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900,
    )
    if r.returncode != 0:
        raise AssertionError(f"run.py exited {r.returncode}: {r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def check(self, workload):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected, f"{workload} --trace {trace}")
            for name, m in result["metrics"].items():
                self.assertTrue(math.isfinite(m["value"]), f"{workload} {name}")
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                for name in expected:
                    self.assertGreater(metrics[name], 0, f"{workload} {name}")
            elif workload == "fleet-sweep":
                self.assertEqual(metrics["queue.retries"], 0)
                self.assertGreater(metrics["remote.blocks"], 0)
                self.assertEqual(metrics["queue.leases"], metrics["remote.blocks"])
            elif workload == "store-replay":
                self.assertEqual(metrics["store.hit_ratio"], 1.0)

    def test_mc_nominal(self):
        self.check("mc-nominal")

    def test_sweep_replan(self):
        self.check("sweep-replan")

    def test_fleet_sweep(self):
        self.check("fleet-sweep")

    def test_store_replay(self):
        self.check("store-replay")


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.eacp, cls.tracer = run.build()

    def workload(self, name):
        work = run.ROOT / ".bench_work" / f"selftest-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, work, True)
        w = run.Workload(name, 3, self.eacp, self.tracer, work, smoke=True)
        self.addCleanup(w.close)
        w.setup()
        w.reference()
        return w

    def test_untouched_report_passes(self):
        w = self.workload("mc-nominal")
        self.assertIsNotNone(w.untraced_op(0))
        self.assertEqual((w.attempted, w.failed), (1, 0))

    def test_tampered_report_trips_the_digest_gate(self):
        w = self.workload("mc-nominal")
        honest = w.command
        # The same invocation, with one character of the report changed.
        w.command = lambda store: ["sh", "-c", shlex.join(honest(store)) + " | sed '3s/./X/'"]
        self.assertIsNone(w.untraced_op(0))
        self.assertEqual((w.attempted, w.failed), (1, 1))
        self.assertIn("differs from the reference", w.failures[0])

    def test_computed_cell_fails_store_replay(self):
        w = self.workload("store-replay")
        victim = next(p for p in sorted(w.store.rglob("*.json")) if p.is_file())
        victim.unlink()
        self.assertIsNone(w.untraced_op(0))
        self.assertEqual(w.failed, 1)
        self.assertIn("computed instead of served", w.failures[0])


def layers(**overrides):
    """Layer probe output with every key the metric code reads."""
    base = {
        "faults.arrival_ns": 10.0, "policy.num_scp_ns": 1.0, "policy.num_ccp_ns": 1.0,
        "reduce.absorb_ns": 50.0, "reduce.merge_ns": 100.0,
        "exec.job_build_us": 1.0, "exec.block_us": 100.0, "queue.lease_us": 0.5,
        "probe.remote.encode_us": 1.0, "probe.remote.answer_us": 130.0,
        "probe.remote.rtt_us": 50.0, "probe.remote.block_ms": [0.2, 0.4, 0.6],
        "spec.parse_us": 1.0, "spec.emit_us": 1.0, "spec.expand_us": 2.0,
        "report.emit_us": 1.0, "store.hash_us": 3.0, "probe.store.put_us": 9.0,
        "probe.store.get_us": 4.0, "probe.store.entry_bytes": 2000.0,
        "probe.engine": engine(reps=0), "probe.plan": plan(),
    }
    base.update(overrides)
    return base


def engine(**overrides):
    """A traced run of the program's pooled path."""
    base = {"reps": 10, "rep_ns": 100_000, "segments": 200, "faults": 20, "rollbacks": 10,
            "checkpoints": 200}
    base.update(overrides)
    return base


def plan(**overrides):
    """A planning pass."""
    base = {"clock_floor_ns": 0.0, "reps": 10, "blocks": 1, "plans": 100, "plans_timed": 10,
            "plan_ns": 3_000, "arrivals": 50, "cache_hits": 1, "cache_misses": 3}
    base.update(overrides)
    return base


class Attribution(unittest.TestCase):
    def test_engine_workload(self):
        replay = {"parse_ns": 1_000, "emit_ns": 2_000, "cells": 1, "jobs": 1, "engine": engine()}
        terms = run.attribution("mc-nominal", replay, layers(), 0.001, 2)
        # plan: 3000 ns over 10 timed calls = 300 ns, times 100 calls;
        # arrivals: 50 x 10 ns; segments: the rest of the 100 us;
        # absorb: 10 x 50 ns; merge: 1 block x 100 ns.
        self.assertEqual(terms, {
            "cli": 1_000.0, "spec.parse": 1_000, "report.emit": 2_000,
            "exec.job_build": 1_000.0, "policy.plan": 30_000.0, "faults.arrival": 500.0,
            "engine.segment": 69_500.0, "reduce.absorb": 500.0, "reduce.merge": 100.0,
        })
        m = run.layer_metrics("mc-nominal", replay, 211.2e-6, layers(), 0.001, 2)
        self.assertAlmostEqual(m["attrib.explained_frac"][0], 0.5)
        self.assertAlmostEqual(m["engine.rep_ns"][0], 10_000.0)
        self.assertAlmostEqual(m["engine.segment_ns"][0], 347.5)
        self.assertAlmostEqual(m["policy.plan_ns"][0], 300.0)
        self.assertAlmostEqual(m["policy.plans_per_rep"][0], 10.0)
        self.assertAlmostEqual(m["policy.plan_cache_hit_ratio"][0], 0.25)

    def test_planning_counts_scale_to_the_traced_replications(self):
        # A planning pass over twice the replications: the same per-rep rates.
        p = plan(reps=20, blocks=2, plans=200, plans_timed=20, plan_ns=6_000, arrivals=100)
        replay = {"parse_ns": 0, "emit_ns": 0, "cells": 1, "jobs": 1, "engine": engine()}
        terms = run.attribution("mc-nominal", replay, layers(**{"probe.plan": p}), 0.0, 2)
        self.assertEqual((terms["policy.plan"], terms["faults.arrival"], terms["reduce.merge"]),
                         (30_000.0, 500.0, 100.0))

    def test_clock_floor_is_not_charged_to_planning(self):
        p = plan(clock_floor_ns=20.0)
        self.assertAlmostEqual(run.plan_ns(p), 280.0)
        self.assertEqual(run.engine_terms(engine(), p, 10.0), (28_000.0, 500.0, 71_500.0))

    def test_fleet_workload_counts_remote_busy_time_once_per_worker(self):
        replay = {
            "parse_ns": 0, "emit_ns": 0, "cells": 2, "jobs": 0, "engine": engine(reps=0),
            "leases": 4, "retries": 0, "blocks": 4, "request_bytes": 400,
            "block_ns": [1_000, 3_000, 1_000, 3_000],
        }
        terms = run.attribution("fleet-sweep", replay, layers(), 0.0, 2)
        self.assertEqual(terms["remote.block"], 4_000.0)
        self.assertEqual(terms["queue.lease"], 2_000.0)
        self.assertEqual(terms["exec.job_build"], 2_000.0)
        self.assertEqual(terms["spec.expand"], 4_000.0)
        m = run.layer_metrics("fleet-sweep", replay, 1e-5, layers(), 0.0, 2)
        self.assertAlmostEqual(m["remote.block_p50_ms"][0], 0.001)
        self.assertAlmostEqual(m["remote.answer_overhead_us"][0], 30.0)
        # Engine figures fall back to the probe when the replay ran none.
        self.assertEqual(m["engine.rep_ns"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
