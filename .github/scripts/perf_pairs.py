#!/usr/bin/env python3
"""Parent-versus-head performance gate over the repository benchmark.

    python3 .github/scripts/perf_pairs.py --parent DIR --head DIR \\
        --pairs N --seconds S --seed B

DIR is a checkout of each commit. Pair i runs

    python3 perfbench/run.py --workload all --seed B+i --seconds S

once in each tree, on this host, with the side that goes first alternating
between pairs. Each tree builds into its own `.bench_build`. The last lines
of a run hold one JSON result per workload, named by the run's `meta` lines.

The gate fails when a benchmark run exits non-zero, when any head result
has `failed > 0`, or when, for any workload and end-to-end metric of
`BENCHMARK.json`, the head's median over all pairs is worse than the
parent's median by more than the metric's `bound` in its `better`
direction. Such a difference is reported as unresolved instead, and does
not fail, when the parent's own runs spread wider than the bound (IQR over
median) and some head run is no worse than some parent run: on a shared
2-vCPU host the few-millisecond `setup_s` of mc-nominal and sweep-replan
varies by 25-50% between runs of the same build. It prints one row per
workload and metric: parent median, head median, ratio (head / parent),
bound, parent spread and verdict. Then, for each workload and metric, it
prints every pair's parent and head values and in how many pairs the
head was better, so a claimed gain can be checked pair by pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


class RunError(Exception):
    """A benchmark run that exited non-zero or printed no results."""


def parse_results(stdout):
    """Maps each workload of one `--workload all` run to its JSON result.

    The run prints a `meta {...}` line per workload, in the order it runs
    them, and ends with one JSON result line per workload in that order.
    """
    lines = stdout.splitlines()
    names = [json.loads(line[len("meta "):])["workload"]
             for line in lines if line.startswith("meta ")]
    if not names:
        raise RunError("the run printed no workload results")
    results = [json.loads(line) for line in lines[-len(names):]]
    return dict(zip(names, results))


def run_bench(tree, seed, seconds):
    """One `--workload all` run in `tree`; returns its parsed results."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        raise RunError(f"{' '.join(cmd)} in {tree} exited {r.returncode}:\n"
                       f"{r.stderr.strip()[-2000:]}")
    try:
        return parse_results(r.stdout)
    except (ValueError, KeyError) as e:
        raise RunError(f"{tree}: unreadable benchmark output: {e}") from e


def spread(values):
    """Interquartile range over median: the run-to-run noise of one side."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare(parent_runs, head_runs, end_to_end):
    """Compares per-pair parsed results of both sides.

    `parent_runs` and `head_runs` are lists with one `parse_results` map
    per pair; `end_to_end` is BENCHMARK.json's metric list. Returns
    (rows, failures): a row per workload and metric as (workload, metric,
    parent median, head median, ratio, bound, parent spread, verdict), and
    one message per failed check.

    A head median beyond the bound is a failure ("WORSE") when the
    parent's own spread is within the bound, or when every head run is
    worse than every parent run. Otherwise the parent's runs disagree with
    each other by more than the bound, the difference cannot be told from
    noise, and the row reads "unresolved" without failing.
    """
    failures = []
    for i, run in enumerate(head_runs):
        for workload, result in run.items():
            if result["failed"] > 0:
                failures.append(f"{workload}: head failed {result['failed']} of "
                                f"{result['attempted']} operations in pair {i}")
    rows = []
    for workload, first in parent_runs[0].items():
        for metric in (m for m in end_to_end if m["name"] in first["metrics"]):
            name = metric["name"]
            before = [run[workload]["metrics"][name]["value"] for run in parent_runs]
            try:
                after = [run[workload]["metrics"][name]["value"] for run in head_runs]
            except KeyError:
                failures.append(f"{workload} {name}: missing from a head run")
                continue
            p, h = statistics.median(before), statistics.median(after)
            ratio = h / p if p else (1.0 if h == 0 else float("inf"))
            bound, noise = metric["bound"], spread(before)
            lower = metric["better"] == "lower"
            verdict = "ok"
            if ratio > 1 + bound if lower else ratio < 1 - bound:
                every = min(after) > max(before) if lower else max(after) < min(before)
                verdict = "WORSE" if noise <= bound or every else "unresolved"
            if verdict == "WORSE":
                failures.append(f"{workload} {name}: head median {h:.6g} vs parent "
                                f"{p:.6g} ({metric['better']} is better, bound {bound})")
            rows.append((workload, name, p, h, ratio, bound, noise, verdict))
    return rows, failures


def per_pair(parent_runs, head_runs, end_to_end):
    """The pair-by-pair view of both sides.

    Returns a row per workload and end-to-end metric found in both sides:
    (workload, metric, [(parent, head) per pair], pairs in which the head
    is strictly better in the metric's `better` direction). Informational
    only: `compare` alone decides the gate.
    """
    rows = []
    for workload, first in parent_runs[0].items():
        for metric in (m for m in end_to_end if m["name"] in first["metrics"]):
            name = metric["name"]
            value = lambda run: run[workload]["metrics"][name]["value"]  # noqa: E731
            try:
                pairs = [(value(p), value(h)) for p, h in zip(parent_runs, head_runs)]
            except KeyError:
                continue
            lower = metric["better"] == "lower"
            better = sum(1 for p, h in pairs if (h < p if lower else h > p))
            rows.append((workload, name, pairs, better))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "head": args.head.resolve()}
    end_to_end = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "head": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            for side in order:
                print(f"pair {i}: {side} (seed {args.seed + i})", file=sys.stderr, flush=True)
                runs[side].append(run_bench(trees[side], args.seed + i, args.seconds))
    except RunError as e:
        print(f"perf-pairs: {e}", file=sys.stderr)
        return 1

    rows, failures = compare(runs["parent"], runs["head"], end_to_end)
    print(f"{'workload':<14} {'metric':<12} {'parent':>11} {'head':>11} {'ratio':>7} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for workload, name, before, after, ratio, bound, noise, verdict in rows:
        print(f"{workload:<14} {name:<12} {before:>11.5g} {after:>11.5g} {ratio:>7.3f} "
              f"{bound:>6.2f} {noise:>7.3f}  {verdict}")
    print("\nper pair (parent/head):")
    for workload, name, pairs, better in per_pair(runs["parent"], runs["head"], end_to_end):
        values = "  ".join(f"{p:.5g}/{h:.5g}" for p, h in pairs)
        print(f"{workload:<14} {name:<12} head better in {better} of {len(pairs)} pairs: {values}")
    for failure in failures:
        print(f"perf-pairs: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
