#!/usr/bin/env python3
"""The repository's benchmark: four workloads timed through the release
`eacp` binary, with a traced in-process run for per-layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds `eacp` and the benchmark's
own `perfbench-tracer` (into `$CARGO_TARGET_DIR`, default `.bench_build`),
writes its generated inputs under `.bench_work/`, and prints one JSON object
as its last line of output. `--workload all` runs every workload in turn and
prints one result line each. `--smoke` shrinks every workload for the
self-tests in `perfbench/test_run.py`.

Workloads (one closed-loop client; at most 2 compute threads, 2 connections):

* mc-nominal   -- `eacp mc` on the paper-nominal A_D_S job, one thread.
* sweep-replan -- `eacp sweep --store <fresh dir>` on a high fault-rate grid.
* fleet-sweep  -- `eacp sweep --queue --workers 2 --endpoints a,b` against two
                  `eacp serve` processes, many 2,000-replication cells.
* store-replay -- `eacp sweep --store` with every cell already in the store.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
`wall_s` (and the rates derived from it) is the run's typical invocation time
as defined by `Workload.typical_wall`, `setup_s` the median of its set-ups,
both as measured; memory is the median peak of a few untimed invocations.
`--trace 1` reports the per-layer ones.

Every timed report must match, byte for byte, a reference
computed in-process with `LocalRunner::new(1)`; a mismatch, a non-zero exit,
a timeout, a computed cell on store-replay or a dead or leaked server fails
the operation.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER_MANIFEST = Path("perfbench") / "tracer" / "Cargo.toml"
WORKLOADS = ("mc-nominal", "sweep-replan", "fleet-sweep", "store-replay")
SETUP_MIN_REPEATS = 12
SETUP_MAX_REPEATS = 100
SETUP_SHARE = 0.3
CALIBRATION_SHARE = 0.03
CALIBRATION_MIN_SAMPLES = 5
CALIBRATION_BYTES = 32 << 20
MIN_SAMPLES = 5
OP_TIMEOUT_S = 60.0
SPAWN_SAMPLES = 30
WORKERS = 2
MEMORY_SAMPLES = 9
RSS_POLL_S = 0.0005


class BenchError(Exception):
    """A failure that leaves no result to report."""


# --------------------------------------------------------------------------
# Workload inputs, generated from the seed.


def nominal_spec(name, replications, seed, threads=1):
    """The paper-nominal A_D_S experiment (lambda = 1.4e-3, k = 5, U = 0.76)."""
    return {
        "name": name,
        "scenario": {
            "work": {"kind": "utilization", "utilization": 0.76, "speed": 1.0, "deadline": 10000.0},
            "costs": {"kind": "paper-scp"},
            "dvs": {"kind": "paper-default"},
            "processors": 2,
        },
        "faults": {"kind": "poisson", "lambda": 0.0014},
        "policy": {"kind": "a_d_s", "lambda": 0.0014, "k": 5, "optimizer": "paper-closed-form"},
        "mc": {"replications": replications, "seed": seed, "threads": threads},
        "executor": {
            "faults_during_overhead": False,
            "stop_at_deadline": True,
            "max_operations": 50000000,
            "max_stalled_rounds": 64,
        },
    }


def make_doc(workload, seed, smoke=False):
    """The workload's input document. The seed picks replication seeds only;
    the grid shape is fixed per workload."""
    rng = random.Random(f"{workload}/{seed}")
    base_seed = rng.randrange(1, 2**31)
    if workload == "mc-nominal":
        return nominal_spec("mc-nominal", 2_000 if smoke else 20_000, base_seed)
    if workload == "sweep-replan":
        axes = [
            {"lambda": [0.007, 0.014, 0.021]},
            {"k": [3, 5, 8]},
            {"costs": [{"kind": "paper-scp"}, {"kind": "paper-ccp"}]},
        ]
        reps = 50 if smoke else 200
    elif workload == "fleet-sweep":
        seeds = [rng.randrange(1, 2**31)]
        axes = [
            {"utilization": [0.7, 0.76, 0.8]},
            {"lambda": [0.001, 0.002]},
            {"k": [3, 5]},
            {"seed": seeds},
        ]
        reps = 256 if smoke else 2_000
    elif workload == "store-replay":
        seeds = [rng.randrange(1, 2**31) for _ in range(1 if smoke else 4)]
        axes = [
            {"utilization": [0.7, 0.72, 0.74, 0.76, 0.78]},
            {"lambda": [0.001, 0.0014, 0.002, 0.003]},
            {"k": [3, 5, 8]},
            {"seed": seeds},
        ]
        reps = 200
    else:
        raise BenchError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    return {"base": nominal_spec(workload, reps, base_seed), "axes": axes}


def doc_shape(doc):
    """(cells, replications reported) of a generated document."""
    if "axes" not in doc:
        return 1, doc["mc"]["replications"]
    cells = 1
    for axis in doc["axes"]:
        (values,) = axis.values()
        cells *= len(values)
    return cells, cells * doc["base"]["mc"]["replications"]


# --------------------------------------------------------------------------
# Build and processes.


def target_dir():
    configured = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return configured if configured.is_absolute() else ROOT / configured


def build():
    """Builds the release `eacp` binary and the tracer; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} holds no eacp workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for args in (
        ["build", "--release", "--offline", "-p", "eacp-cli"],
        ["build", "--release", "--offline", "--manifest-path", str(TRACER_MANIFEST)],
    ):
        r = subprocess.run(
            ["cargo", *args], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=850,
        )
        if r.returncode != 0:
            raise BenchError(f"cargo {' '.join(args)} failed:\n{r.stderr[-2000:]}")
    release = target_dir() / "release"
    return release / "eacp", release / "perfbench-tracer"


def timed_spawn(cmd, stdout_path):
    """Runs `cmd` with stdout to a file; returns (ok, wall seconds, stderr).
    The clock runs from spawn until the process is reaped."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.PIPE)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            err = proc.stderr.read()
            proc.wait()
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            proc.stderr.close()
    return proc.returncode == 0, wall, err.decode(errors="replace")


def vm_hwm_kib(pid, name):
    """The peak resident set of process `pid` so far, once it runs `name`.
    (A child's `ru_maxrss` would also count the pages of the process that
    forked it, here the benchmark's own interpreter.)"""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    fields = dict(line.split(":", 1) for line in status.splitlines() if ":" in line)
    if fields.get("Name", "").strip() != name or "VmHWM" not in fields:
        return None
    return int(fields["VmHWM"].split()[0])


def peak_rss_kib(cmd, stdout_path):
    """Runs `cmd`, sampling its peak resident set until it exits."""
    peak = 0
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + OP_TIMEOUT_S
        while proc.poll() is None and time.monotonic() < deadline:
            peak = max(peak, vm_hwm_kib(proc.pid, Path(cmd[0]).name) or 0)
            time.sleep(RSS_POLL_S)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or peak == 0:
        raise BenchError(f"memory probe of {cmd[1]} failed")
    return peak


def run_checked(cmd, what):
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"{what} failed: {r.stderr.strip()[-2000:]}")
    return r.stdout


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise OSError("connection closed mid-frame")
        buf += chunk
    return buf


def ping(endpoint, timeout=2.0):
    """One `ping` in the block server's frame protocol: a 4-byte big-endian
    length, then a JSON request. True when the server answers `ok`."""
    host, port = endpoint.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port)), timeout=timeout) as s:
            payload = json.dumps({"v": 1, "op": "ping"}).encode()
            s.sendall(struct.pack(">I", len(payload)) + payload)
            (n,) = struct.unpack(">I", recv_exact(s, 4))
            return json.loads(recv_exact(s, n)).get("ok") is True
    except (OSError, ValueError):
        return False


def port_open(endpoint):
    host, port = endpoint.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port)), timeout=0.5):
            return True
    except OSError:
        return False


def die_with_parent():
    """In the child before exec: ask Linux to SIGKILL it when this process
    dies, so even a benchmark killed without unwinding leaks no server."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Fleet:
    """`eacp serve` processes on ephemeral loopback ports. `stop` kills and
    reaps them and reports whether any process or port outlived it."""

    def __init__(self):
        self.procs = []
        self.endpoints = []

    def start(self, eacp, n, deadline_s=10.0):
        for _ in range(n):
            proc = subprocess.Popen(
                [str(eacp), "serve", "--listen", "127.0.0.1:0"], cwd=ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                preexec_fn=die_with_parent,
            )
            self.procs.append(proc)
            line = proc.stdout.readline()
            if "listening on" not in line:
                raise BenchError(f"eacp serve did not announce an address: {line!r}")
            self.endpoints.append(line.split()[-1])
        deadline = time.monotonic() + deadline_s
        for endpoint in self.endpoints:
            while not ping(endpoint):
                if time.monotonic() > deadline:
                    raise BenchError(f"eacp serve at {endpoint} never answered ping")
                time.sleep(0.002)

    def alive(self):
        return all(p.poll() is None for p in self.procs)

    def peak_rss_kib(self):
        return sum(vm_hwm_kib(p.pid, "eacp") or 0 for p in self.procs)

    def stop(self):
        """Kills and reaps every server; True when none leaked."""
        for p in self.procs:
            if p.poll() is None:
                p.kill()
        clean = True
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                clean = False
            if p.stdout:
                p.stdout.close()
        if any(port_open(e) for e in self.endpoints):
            clean = False
        self.procs, self.endpoints = [], []
        return clean


# --------------------------------------------------------------------------
# One workload.


class Workload:
    def __init__(self, name, seed, eacp, tracer, work, smoke):
        self.name, self.seed, self.eacp, self.tracer = name, seed, eacp, tracer
        self.work, self.smoke = work, smoke
        self.doc = make_doc(name, seed, smoke)
        self.cells, self.reps = doc_shape(self.doc)
        self.fleet = Fleet()
        self.fleets_clean = True
        self.store = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.walls = []
        self.setup_times = []
        self.calibrations = []
        self.calibration_file = work / "calibration.bin"

    # -- set-up ------------------------------------------------------------

    def setup_once(self, d, fleet):
        """Writes the document into `d`, checks the program accepts it, and
        brings up what the timed command needs: a filled store or a running
        fleet. Returns (document path, store path or None)."""
        d.mkdir(parents=True)
        doc_path = d / "doc.json"
        doc_path.write_text(json.dumps(self.doc, indent=2) + "\n")
        sub = "mc" if self.name == "mc-nominal" else "sweep"
        emitted = json.loads(run_checked(
            [str(self.eacp), sub, "--spec", str(doc_path), "--emit-spec"], "emit-spec"))
        if sub == "sweep" and len(emitted) != self.cells:
            raise BenchError(f"grid expands to {len(emitted)} cells, expected {self.cells}")
        store = None
        if self.name == "store-replay":
            store = d / "store"
            run_checked([str(self.eacp), "sweep", "--spec", str(doc_path),
                         "--store", str(store)], "store fill")
        if self.name == "fleet-sweep":
            fleet.start(self.eacp, WORKERS)
        return doc_path, store

    def setup(self):
        """The set-up the run uses; its time is the first set-up sample."""
        t0 = time.perf_counter()
        self.doc_path, self.store = self.setup_once(self.work / "setup", self.fleet)
        self.setup_times.append(time.perf_counter() - t0)

    def setup_sample(self):
        """One more timed set-up, torn down untimed."""
        d = self.work / f"setup-{len(self.setup_times)}"
        spare = Fleet()
        try:
            t0 = time.perf_counter()
            self.setup_once(d, spare)
            self.setup_times.append(time.perf_counter() - t0)
        finally:
            if not spare.stop():
                self.fleets_clean = False
            shutil.rmtree(d, ignore_errors=True)

    def reference(self):
        """Untimed: the expected stdout bytes and summary digest."""
        out = self.work / "reference.out"
        meta = json.loads(run_checked(
            [str(self.tracer), "reference", self.name, str(self.doc_path), str(out)], "reference"))
        self.ref_digest = sha256_file(out)
        self.ref_summary = meta["summary_digest"]

    # -- timed operations --------------------------------------------------

    def command(self, store):
        eacp, doc = str(self.eacp), str(self.doc_path)
        if self.name == "mc-nominal":
            return [eacp, "mc", "--spec", doc, "--threads", "1", "--json"]
        if self.name == "sweep-replan":
            return [eacp, "sweep", "--spec", doc, "--store", str(store), "--threads", "1", "--json"]
        if self.name == "fleet-sweep":
            return [eacp, "sweep", "--spec", doc, "--queue", "--workers", str(WORKERS),
                    "--endpoints", ",".join(self.fleet.endpoints), "--json"]
        return [eacp, "sweep", "--spec", doc, "--store", str(store), "--json"]

    def fresh_store(self, i):
        """sweep-replan writes every cell into a new, empty store."""
        if self.name == "sweep-replan":
            store = self.work / f"store-{i}"
            store.mkdir()
            return store
        return self.store

    def store_snapshot(self):
        if self.store is None:
            return None
        return sorted(
            (str(p.relative_to(self.store)), p.stat().st_size, p.stat().st_mtime_ns)
            for p in self.store.rglob("*") if p.is_file()
        )

    def fail(self, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def untraced_op(self, i):
        store = self.fresh_store(i)
        before = self.store_snapshot()
        out = self.work / "op.out"
        ok, wall, err = timed_spawn(self.command(store), out)
        self.attempted += 1
        if not ok:
            self.fail(f"exit status: {err.strip()[-300:]}")
        elif sha256_file(out) != self.ref_digest:
            self.fail("report differs from the reference")
        elif before is not None and self.store_snapshot() != before:
            self.fail("a cell was computed instead of served")
        elif self.name == "fleet-sweep" and not self.fleet.alive():
            self.fail("a block server died")
        else:
            if self.name == "sweep-replan":
                shutil.rmtree(store)
            return wall
        return None

    def traced_op(self, i):
        store = self.fresh_store(i)
        before = self.store_snapshot()
        out, meta = self.work / "trace.out", self.work / "trace.json"
        cmd = [str(self.tracer), "replay", self.name, str(self.doc_path), str(out)]
        if store is not None:
            cmd += ["--store", str(store)]
        if self.name == "fleet-sweep":
            cmd += ["--endpoints", ",".join(self.fleet.endpoints), "--workers", str(WORKERS)]
        ok, wall, err = timed_spawn(cmd, meta)
        self.attempted += 1
        if not ok:
            self.fail(f"traced replay: {err.strip()[-300:]}")
            return None
        replay = json.loads(meta.read_text())
        if sha256_file(out) != self.ref_digest:
            self.fail("traced report differs from the reference")
        elif replay["summary_digest"] != self.ref_summary:
            self.fail("traced summaries are not bit-identical to the reference")
        elif before is not None and self.store_snapshot() != before:
            self.fail("a cell was computed instead of served (traced)")
        else:
            if self.name == "sweep-replan":
                shutil.rmtree(store)
            return wall, replay
        return None

    def calibration_sample(self):
        """Times `sha256sum` over a fixed file. It shares no code with the
        program; its time is printed with the run's diagnostics as a gauge
        of how loaded the host was, and changes no metric."""
        if not self.calibration_file.exists():
            rng = random.Random(0)
            with open(self.calibration_file, "wb") as f:
                for _ in range(CALIBRATION_BYTES >> 20):
                    f.write(rng.randbytes(1 << 20))
        ok, wall, err = timed_spawn(
            ["sha256sum", str(self.calibration_file)], self.work / "calibration.out")
        if not ok:
            raise BenchError(f"sha256sum failed: {err.strip()}")
        self.calibrations.append(wall)

    def op_pair(self, i):
        untraced = self.untraced_op(2 * i)
        traced = self.traced_op(2 * i + 1)
        return None if untraced is None or traced is None else (untraced, traced)

    def loop(self, op, seconds, sample_setup=False):
        """Closed loop: the next invocation starts when the last one ends.
        With `sample_setup`, set-up and calibration samples are interleaved
        while they take less than their share of the elapsed time, so a
        burst of contention from other tenants of the host skews few of
        them."""
        results = []
        t0 = time.perf_counter()
        i = 0
        while True:
            r = op(i)
            i += 1
            if r is not None:
                results.append(r)
            elapsed = time.perf_counter() - t0
            if (sample_setup and len(self.setup_times) < SETUP_MAX_REPEATS
                    and sum(self.setup_times) < SETUP_SHARE * elapsed):
                self.setup_sample()
            if sample_setup and sum(self.calibrations) < CALIBRATION_SHARE * elapsed:
                self.calibration_sample()
            if elapsed >= seconds and (len(results) >= MIN_SAMPLES or i >= 2 * MIN_SAMPLES):
                return results
            if elapsed >= 3 * seconds + 60:
                return results

    # -- metrics -------------------------------------------------------------

    def client_rss_kib(self):
        """Peak resident set of the timed command: the median over a few
        untimed runs, as one run's peak varies by a few percent with the
        address-space layout."""
        peaks = []
        for i in range(MEMORY_SAMPLES):
            store = self.fresh_store(f"rss-{i}")
            peaks.append(peak_rss_kib(self.command(store), self.work / "rss.out"))
            if self.name == "sweep-replan":
                shutil.rmtree(store)
        return statistics.median(peaks)

    def typical_wall(self, walls):
        """The invocation time a run reports.

        On a shared host, co-tenants slow every process by up to about 1.8x
        in stretches of a few seconds, so a run's median depends on how much
        of it fell in slow stretches. The single-process workloads run a
        fixed amount of CPU-bound work, which contention only ever slows, and
        fast stretches recur within any run of ten seconds or more: their
        fastest invocation is the steady estimate of what the program costs.
        fleet-sweep waits on wake-ups of three processes passing messages;
        its fastest invocation is a rare lucky alignment, so it reports the
        median."""
        return statistics.median(walls) if self.name == "fleet-sweep" else min(walls)

    def end_to_end(self, walls):
        self.walls = walls
        wall = self.typical_wall(self.walls)
        rss_kib = self.client_rss_kib() + self.fleet.peak_rss_kib()
        return {
            "wall_s": (wall, "s"),
            "reps_per_s": (self.reps / wall, "reps/s"),
            "cells_per_s": (self.cells / wall, "cells/s"),
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        }

    def spawn_floor_ms(self):
        walls = []
        for _ in range(SPAWN_SAMPLES):
            ok, wall, _ = timed_spawn([str(self.eacp), "presets"], self.work / "presets.out")
            if ok:
                walls.append(wall)
        if not walls:
            raise BenchError("eacp presets failed")
        return statistics.median(walls) * 1e3

    def per_layer(self, untraced_wall, traced, layers, spawn_ms):
        traced_wall = self.typical_wall([wall for wall, _ in traced])
        per_run = [layer_metrics(self.name, replay, wall, layers, spawn_ms, WORKERS)
                   for wall, replay in traced]
        m = {name: (statistics.median(m[name][0] for m in per_run), per_run[0][name][1])
             for name in per_run[0]}
        m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
        return m

    def run(self, seconds, trace):
        self.setup()
        self.reference()
        if not trace:
            samples = self.loop(self.untraced_op, seconds, sample_setup=True)
            if not samples:
                raise BenchError(f"every timed invocation failed: {self.failures}")
            while len(self.setup_times) < SETUP_MIN_REPEATS:
                self.setup_sample()
            while len(self.calibrations) < CALIBRATION_MIN_SAMPLES:
                self.calibration_sample()
            return self.end_to_end(samples)
        # Untraced and traced invocations alternate, so both see the same
        # host load and their ratio is the tracing overhead.
        pairs = self.loop(self.op_pair, seconds)
        if not pairs:
            raise BenchError(f"every timed invocation failed: {self.failures}")
        self.walls = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        scratch = self.work / "probe-store"
        layers = json.loads(run_checked(
            [str(self.tracer), "layers", self.name, str(self.doc_path), str(scratch)], "layer probes"))
        untraced_wall = self.typical_wall(self.walls)
        return self.per_layer(untraced_wall, traced, layers, self.spawn_floor_ms())

    def close(self):
        if not self.fleet.stop() or not self.fleets_clean:
            self.attempted += 1
            self.fail("a block server or its port outlived the run")


# --------------------------------------------------------------------------
# Per-layer metrics and attribution, from a replay and the layer probes.


def percentile(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(q / 100.0 * len(v)) - 1))]


def ratio(a, b):
    return a / b if b else 0.0


def plan_ns(p):
    """Mean planning call of the planning pass `p`, net of what an empty
    timed span reports."""
    return max(0.0, ratio(p["plan_ns"], p["plans_timed"]) - p["clock_floor_ns"])


def engine_terms(e, p, arrival_ns):
    """The replication time of traced run `e` split into planning,
    fault-arrival and segment time, in ns. `e` ran the program's pooled
    path; the planning and arrival counts per replication come from the
    planning pass `p` over the same cells or their first ones."""
    scale = ratio(e["reps"], p["reps"])
    plan_total = plan_ns(p) * p["plans"] * scale
    arrivals_total = arrival_ns * p["arrivals"] * scale
    return plan_total, arrivals_total, e["rep_ns"] - plan_total - arrivals_total


def attribution(workload, replay, layers, spawn_ms, workers):
    """Sum over layers of (self time per event x exact event count), in ns.

    Self times come from the replay's own spans where it has them (parse,
    emit, store get/put, engine replications, remote blocks) and from the
    isolated probes otherwise (job build, grid expansion, hashing, absorb,
    merge, lease). Remote blocks run `workers` at a time, so their busy
    time counts once per worker."""
    e = replay["engine"]
    terms = {
        "cli": spawn_ms * 1e6,
        "spec.parse": replay["parse_ns"],
        "report.emit": replay["emit_ns"],
    }
    if workload != "mc-nominal":
        terms["spec.expand"] = layers["spec.expand_us"] * 1e3 * replay["cells"]
    if "gets" in replay:
        terms["store.hash"] = layers["store.hash_us"] * 1e3 * (replay["gets"] + replay["puts"])
        terms["store.get"] = replay["get_ns"]
        terms["store.put"] = replay["put_ns"]
    if e["reps"]:
        p = layers["probe.plan"]
        plan, arrivals, segments = engine_terms(e, p, layers["faults.arrival_ns"])
        terms.update({
            "exec.job_build": layers["exec.job_build_us"] * 1e3 * replay["jobs"],
            "policy.plan": plan,
            "faults.arrival": arrivals,
            "engine.segment": segments,
            "reduce.absorb": layers["reduce.absorb_ns"] * e["reps"],
            "reduce.merge": layers["reduce.merge_ns"] * p["blocks"] * ratio(e["reps"], p["reps"]),
        })
    if "blocks" in replay:
        terms["exec.job_build"] = layers["exec.job_build_us"] * 1e3 * replay["cells"]
        terms["queue.lease"] = layers["queue.lease_us"] * 1e3 * replay["leases"]
        terms["remote.block"] = sum(replay["block_ns"]) / workers
    return terms


def layer_metrics(workload, replay, traced_wall, layers, spawn_ms, workers):
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}.
    Engine figures come from the replay when it computed replications in
    this process, else from the probe's traced run of the first cells;
    planning figures always come from the probe's planning pass."""
    e = replay["engine"] if replay["engine"]["reps"] else layers["probe.engine"]
    p = layers["probe.plan"]
    reps = e["reps"]
    arrival_ns = layers["faults.arrival_ns"]
    _, _, segment_total = engine_terms(e, p, arrival_ns)
    block_us = layers["exec.block_us"]
    if replay.get("block_ns"):
        block_ms = [b / 1e6 for b in replay["block_ns"]]
    else:
        block_ms = layers["probe.remote.block_ms"]
    p50 = percentile(block_ms, 50)
    has_store = "gets" in replay
    m = {
        "faults.arrival_ns": (arrival_ns, "ns"),
        "policy.plan_ns": (plan_ns(p), "ns"),
        "policy.plans_per_rep": (ratio(p["plans"], p["reps"]), "count"),
        "policy.num_scp_ns": (layers["policy.num_scp_ns"], "ns"),
        "policy.num_ccp_ns": (layers["policy.num_ccp_ns"], "ns"),
        "policy.plan_cache_hit_ratio": (
            ratio(p["cache_hits"], p["cache_hits"] + p["cache_misses"]), "ratio"),
        "engine.rep_ns": (ratio(e["rep_ns"], reps), "ns"),
        "engine.segment_ns": (ratio(segment_total, e["segments"]), "ns"),
        "engine.segments_per_rep": (ratio(e["segments"], reps), "count"),
        "engine.faults_per_rep": (ratio(e["faults"], reps), "count"),
        "engine.rollbacks_per_rep": (ratio(e["rollbacks"], reps), "count"),
        "engine.checkpoints_per_rep": (ratio(e["checkpoints"], reps), "count"),
        "reduce.absorb_ns": (layers["reduce.absorb_ns"], "ns"),
        "reduce.merge_ns": (layers["reduce.merge_ns"], "ns"),
        "exec.job_build_us": (layers["exec.job_build_us"], "us"),
        "exec.block_us": (block_us, "us"),
        "queue.lease_us": (layers["queue.lease_us"], "us"),
        "queue.leases": (replay.get("leases", 0), "count"),
        "queue.retries": (replay.get("retries", 0), "count"),
        "remote.blocks": (replay.get("blocks", 0), "count"),
        "remote.request_bytes": (replay.get("request_bytes", 0), "bytes"),
        "remote.encode_us": (layers["probe.remote.encode_us"], "us"),
        "remote.answer_overhead_us": (layers["probe.remote.answer_us"] - block_us, "us"),
        "remote.rtt_us": (layers["probe.remote.rtt_us"], "us"),
        "remote.block_p50_ms": (p50, "ms"),
        "remote.block_p99_ms": (percentile(block_ms, 99), "ms"),
        "remote.overhead_frac": (ratio(p50 - block_us / 1e3, p50), "ratio"),
        "spec.parse_us": (layers["spec.parse_us"], "us"),
        "spec.emit_us": (layers["spec.emit_us"], "us"),
        "spec.expand_us": (layers["spec.expand_us"], "us"),
        "report.emit_us": (layers["report.emit_us"], "us"),
        "store.hash_us": (layers["store.hash_us"], "us"),
        "store.get_us": (ratio(replay["get_ns"], replay["gets"]) / 1e3 if has_store and replay["gets"]
                         else layers["probe.store.get_us"], "us"),
        "store.put_us": (ratio(replay["put_ns"], replay["puts"]) / 1e3 if has_store and replay["puts"]
                         else layers["probe.store.put_us"], "us"),
        "store.entry_bytes": (replay["entry_bytes"] if has_store
                              else layers["probe.store.entry_bytes"], "bytes"),
        "store.hit_ratio": (ratio(replay["hits"], replay["gets"]) if has_store else 0.0, "ratio"),
        "cli.spawn_ms": (spawn_ms, "ms"),
    }
    explained = sum(attribution(workload, replay, layers, spawn_ms, workers).values())
    m["attrib.explained_frac"] = (explained / (traced_wall * 1e9), "ratio")
    return m


# --------------------------------------------------------------------------
# Run metadata.


def metadata(w, workload, seed):
    def probe(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    digest = hashlib.sha256()
    for path in sorted(p for pat in ("Cargo.toml", "Cargo.lock", "crates/**/*", "vendor/**/*")
                       for p in ROOT.glob(pat) if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    fleet = workload == "fleet-sweep"
    return {
        "workload": workload,
        "seed": seed,
        "threads": None if fleet else 1,
        "workers": WORKERS if fleet else None,
        "endpoints": list(w.fleet.endpoints) if fleet else [],
        "cells": w.cells,
        "replications": w.reps,
        "nproc": os.cpu_count(),
        "profile": "release",
        "rustc": probe(["rustc", "--version"]),
        "git_revision": probe(["git", "rev-parse", "HEAD"]),
        "source_sha256": digest.hexdigest(),
    }


def run_workload(workload, args, eacp, tracer):
    work = ROOT / ".bench_work" / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = Workload(workload, args.seed, eacp, tracer, work, args.smoke)
    try:
        metrics = w.run(args.seconds, args.trace)
        meta = metadata(w, workload, args.seed)
    finally:
        w.close()
        shutil.rmtree(work, ignore_errors=True)
    print("meta " + json.dumps(meta, sort_keys=True))
    if len(w.walls) >= 2:
        q = statistics.quantiles(w.walls, n=10, method="inclusive")
        print(f"{workload} invocations {len(w.walls)}: fastest {min(w.walls):.4f} s, "
              f"p10 {q[0]:.4f} s, median "
              f"{statistics.median(w.walls):.4f} s, p90 {q[-1]:.4f} s; set-ups "
              f"{len(w.setup_times)}, median {statistics.median(w.setup_times):.6f} s; "
              f"sha256sum calibration {len(w.calibrations)} runs, median "
              f"{statistics.median(w.calibrations) if w.calibrations else float('nan'):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    error_rate = ratio(w.failed, w.attempted)
    print(f"{workload} error_rate {error_rate:.6g} ratio ({w.failed} of {w.attempted} failed)")
    for why in w.failures:
        print(f"{workload} failure: {why}")
    return {
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrunken inputs, for the self-tests")
    args = p.parse_args(argv)
    # A terminating signal unwinds through the `finally` blocks that stop
    # the block servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        eacp, tracer = build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(name, args, eacp, tracer) for name in names]
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
