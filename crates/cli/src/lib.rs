//! Implementation of the `eacp` command-line tool.
//!
//! Subcommands:
//!
//! * `run` — execute one task instance under a chosen scheme, optionally
//!   with an ASCII execution timeline;
//! * `mc` — Monte-Carlo summary of a scheme at an operating point;
//! * `sweep` — expand a sweep grid and run every point (or one
//!   `--shard i/n` of it, writing report documents with `--out`);
//! * `merge` — reassemble a directory of shard report documents into the
//!   full grid report, failing on missing/duplicate/mismatched points;
//! * `queue` — `queue status DIR` inspects a result-collection directory:
//!   which grid points the present shard documents cover, which are still
//!   owed, whether the directory is ready to merge;
//! * `csv` — render a directory of report documents as a CSV matrix with
//!   paper-value deltas;
//! * `analyze` — print the paper's analysis quantities (`I1/I2/I3`,
//!   thresholds, `num_SCP`/`num_CCP`, `t_est`, chosen speed);
//! * `table` — regenerate one of the paper's tables, its two part
//!   documents through the same store / analytic tier / placement path
//!   as `sweep`;
//! * `feasibility` — checkpoint-aware EDF/RM analysis of a periodic task
//!   set, with a per-k sensitivity table (spec-driven via
//!   [`ExecutiveSpec`], or the `--tasks` shorthand);
//! * `executive` — run the non-preemptive EDF executive over N
//!   hyperperiods and emit an [`eacp_spec::ExecutiveRunReport`]; with
//!   `--mc` run N seeded horizons through the replication engine
//!   (mergeable [`eacp_exec::ExecutiveSummary`], store-cacheable), and
//!   with `--sweep grid.json` expand an executive [`Grid`] with the same
//!   shard/store workflow as `sweep`;
//! * `store` — inspect (`status`), prune (`gc`) and audit (`verify`) the
//!   content-addressed result store that `run`/`mc`/`sweep` consult with
//!   `--store DIR` (or `$EACP_STORE`);
//! * `presets` — list the named experiment presets.
//!
//! Every simulation subcommand is spec-driven: `--spec file.json` loads an
//! [`ExperimentSpec`] (`sweep` loads a [`SweepSpec`](eacp_spec::SweepSpec)),
//! `--preset name` loads a named preset, and bare flags desugar into a
//! spec. Flags given *alongside* `--spec`/`--preset` override the loaded
//! document, so `eacp mc --preset table1-a --lambda 2e-3` is the preset
//! at a different fault rate. `--emit-spec` prints the effective spec
//! instead of running it — the exact JSON any other consumer (the
//! experiments harness, CI, a remote executor) reproduces bit for bit.
//!
//! The library portion exists so argument parsing and command execution
//! are unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eacp_core::analysis::{
    checkpoint_interval_with_branch, choose_speed, estimated_completion_time, num_ccp, num_scp,
    IntervalInputs, OptimizeMethod, RenewalParams,
};
use eacp_energy::DvsConfig;
use eacp_exec::{
    coverage_dir, merge_dir, placement, render_executive_rows, render_rows, run_sweep_tiered, Cell,
    GridReport, NoopQueueObserver, PaperRef, QueueObserver, QueueStatus, Runner, ShardId,
};
use eacp_rtsched::feasibility::{
    edf_density, k_fault_wcet, minimum_feasible_speed, rm_response_times,
};
use eacp_rtsched::TaskSet;
use eacp_sim::{Executor, Policy, TraceRecorder};
use eacp_spec::{
    executive_preset, executive_preset_names, json, preset, preset_names, CostsSpec, ExecSpec,
    ExecutiveMcSpec, ExecutiveSpec, ExperimentSpec, FaultSpec, FromJson, Grid, GridCell, Json,
    Knob, McSpec, PaperScheme, PeriodicTaskSpec, PolicyAssignment, PolicySpec, RunReport,
    ScenarioSpec, TaskSetSpec, ToJson, WorkSpec, PAPER_DEADLINE, PAPER_TABLES,
};
use eacp_store::{
    run_cached_single, run_cached_tiered, run_sweep_cached_tiered, store_coverage, verify_store,
    CacheMode, CacheOutcome, FsBackend, NoopStoreObserver, RetentionPolicy, StoreBackend,
    StoreCell, StoreCounters, StoreCoverage, STORE_ENV_VAR,
};
use std::sync::Arc;

/// Usage text for `--help`.
pub const USAGE: &str = "\
eacp — energy-aware adaptive checkpointing (DATE 2006 reproduction)

USAGE:
  eacp run        [SPEC] [--scheme S] [--util U] [--lambda L] [--k K] [--deadline D]
                  [--variant scp|ccp] [--seed N] [--trace] [CACHE]
  eacp mc         [SPEC] [--scheme S] [--util U] [--lambda L] [--k K] [--deadline D]
                  [--variant scp|ccp] [--reps N] [--seed N] [--threads N] [--json]
                  [--queue [--workers N] [--endpoints H:P,... [--timeout-ms T]]]
                  [--no-analytic] [CACHE]
  eacp sweep      --spec sweep.json [--reps N] [--json] [--shard I/N] [--out DIR]
                  [--queue [--workers N] [--endpoints H:P,... [--timeout-ms T]]]
                  [--no-analytic] [CACHE]
  eacp serve      --listen HOST:PORT
  eacp merge      <DIR> [--out FILE]
  eacp queue      status <DIR>
  eacp csv        <DIR> [--out FILE]
  eacp analyze    [--util U] [--lambda L] [--k K] [--deadline D] [--variant scp|ccp]
  eacp table      <1|2|3|4> [--reps N] [--seed N] [--threads N] [--json] [--out DIR]
                  [--queue [--workers N] [--endpoints H:P,... [--timeout-ms T]]]
                  [--no-analytic] [--emit-spec] [CACHE]
  eacp feasibility [SPEC] [--tasks name:wcet:period[:deadline][,...]] [--util U] [--k K]
                  [--speed F]
  eacp executive  [SPEC] [--tasks ...] [--scheme S] [--util U] [--lambda L] [--k K]
                  [--speed F] [--hyperperiods N] [--seed N] [--json]
                  | --mc [--reps N] [--threads N] [--queue [--workers N]] [CACHE]
                  | --sweep grid.json [--reps N] [--shard I/N] [--out DIR]
                  [--queue [--workers N]] [CACHE]
  eacp store      status [--spec sweep.json [--reps N] [--seed N]]
                  | gc [--max-entries N] [--max-bytes N] | verify [--sample N]
                  (all take --store DIR or $EACP_STORE)
  eacp presets

CACHE (run/mc/sweep/table):
  --store DIR        consult/record a result store (default: $EACP_STORE)
  --no-cache         ignore any configured store for this invocation
  --refresh          recompute and re-record even on a hit

ANALYTIC SERVE TIER (mc/sweep/table):
  Replication-invariant cells — fault specs where every replication is
  the same execution (poisson lambda=0, deterministic fault times) — are
  answered in closed form: one execution, aggregated N times, marked
  \"served\": \"analytic\" in reports and store cells. --no-analytic forces
  the full Monte-Carlo loop; `store verify` re-derives each cell through
  the tier that recorded it.

PAPER TABLES:
  `eacp table N` regenerates the paper's Table N from its two grid
  documents, specs/tableNa.json and specs/tableNb.json (built in): every
  (U, lambda, k) row times the four scheme columns, --reps replications
  per scheme, row i seeded --seed + i. Both run on the grid path `sweep`
  uses: through the store (CACHE), the analytic tier (unless
  --no-analytic) and --threads or the --queue pool / --endpoints fleet,
  with identical summaries on every path. Text output is the table, its
  error statistics against the paper and the shape-criteria tally (with
  each failing criterion); --json emits every cell's specs and
  summaries; --out DIR writes tableN.txt (the text output), tableN.md
  and tableN.csv; --emit-spec prints the cells as `sweep --emit-spec`
  prints a grid's. The table fixes its operating points, so the shape
  flags (see PARAMETER FLAGS) and --spec, --preset, --shard and --sweep
  are rejected. The ablations are grid documents too: `eacp sweep --spec
  specs/ablation-*.json --out DIR`, then `eacp csv DIR`.

PERIODIC TASK SETS (feasibility/executive):
  Both subcommands resolve an ExecutiveSpec: --spec file.json loads a
  document, --preset NAME a named workload (avionics-trio,
  k-fault-feasibility-sweep), and --tasks desugars the shorthand into the
  same spec (flags override either). `feasibility` runs the
  checkpoint-aware EDF/RM analysis plus a per-k sensitivity table;
  `executive` simulates N hyperperiods of non-preemptive EDF and emits a
  JSON report (--json) with per-task deadline misses, energy and
  checkpoint totals. --emit-spec prints the effective spec on both.
  --util U rescales every task's WCET uniformly to total utilization U,
  as the executive grid's utilization axis does.

EXECUTIVE MONTE-CARLO:
  `executive --mc` runs the spec's mc.replications seeded horizons
  (replication i seeds hyperperiod horizon i) and reports miss-ratio /
  energy distributions with per-task aggregates; the summary is
  bit-identical for any --threads or --queue --workers count, and
  --store serves repeat cells byte-identical to recomputation.
  `executive --sweep grid.json` expands an executive sweep document
  (hyperperiods/utilization/lambda/k/seed axes) with the same --shard /
  --out / --store workflow as `eacp sweep`; `merge`, `queue status` and
  `csv` detect executive report collections automatically.

SHARDED SWEEPS:
  --shard I/N runs only shard I's grid-index range; --out DIR writes the
  shard (or full grid) as a report document. `eacp merge DIR` reassembles
  shards into the full grid report — identical to an unsharded run — and
  fails on missing, duplicate or spec-mismatched points. `eacp queue
  status DIR` shows how far the collection has progressed (covered /
  missing / duplicated points) without failing. `eacp csv DIR` renders
  report documents as CSV with paper-value deltas.

RESULT STORE:
  A store is a content-addressed cache of finished cells: each result is
  keyed by a stable hash of the canonical spec (minus name, Monte-Carlo
  block and queue scheduling) plus (seed, replications). With --store DIR
  (or $EACP_STORE), `run`/`mc`/`table` serve hits byte-identical to
  recomputation and record misses; `sweep --store` records each cell as
  it finishes and is resumable — kill it anywhere, rerun, and every
  finished cell is served and only the rest are computed.
  Corrupt entries are quarantined and recomputed, never served. `eacp
  store status` reports health (add --spec sweep.json for grid
  coverage), `gc` applies a retention policy, `verify` recomputes sampled
  cells and fails on any byte mismatch.

QUEUED EXECUTION AND THE REMOTE FLEET:
  --queue schedules work through a work queue drained by a worker pool
  (--workers N, 0 = auto) with lease retry; results are bit-identical to
  the default runner for any worker count. On `mc` the queue config is
  recorded in the effective spec (see --emit-spec). With --endpoints
  H:P,... each lease, a run of consecutive blocks of one cell, is
  shipped over TCP to `eacp serve` processes in one request instead of
  executing in-process (--timeout-ms caps each request, default 10000).
  `sweep` and `table` lease blocks of the whole grid from one queue
  (`executive --sweep` one cell at a time), with or without a store or
  endpoints; without either, a grid's text notes the leases and retries.
  Dead or wedged servers fail the lease; the retry budget re-leases to
  surviving endpoints and the final attempt always runs in-process, so
  a fleet run completes — bit-identical — even with every server down.
  `eacp serve --listen HOST:PORT` runs one stateless block server (start
  several, list them all in --endpoints; the merged summary is
  byte-identical to an unqueued run).

SPEC selection (run/mc):
  --spec file.json   load an ExperimentSpec document
  --preset NAME      load a named preset (see `eacp presets`)
  --emit-spec        print the effective spec as JSON instead of running
  Flags given alongside --spec/--preset override the loaded document.

PARAMETER FLAGS:
  --util --deadline --variant --lambda --k --speed --hyperperiods --seed
  each set one cell parameter, as the grid axis of the same name does. A
  flag the command's cell lacks is an error, never dropped (run/mc:
  --speed, --hyperperiods; feasibility/executive: --deadline). Grids and
  table fix the shape flags: --scheme and all of these but --seed. Any
  flag a command does not read is an error naming the flag and the
  command.

SCHEMES: poisson | kft | a_d | a_d_s | a_d_c | a_s | a_c | cscp (default a_d_s)
DEFAULTS: util 0.76, lambda 1.4e-3, k 5, deadline 10000, variant scp";

/// Parsed common options.
///
/// `explicit` records which flags the user actually passed — that is what
/// lets flags act as *overrides* on top of `--spec`/`--preset` instead of
/// silently re-imposing defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Scheme name (see [`USAGE`]).
    pub scheme: String,
    /// Task utilization at `f1`.
    pub util: f64,
    /// Fault rate.
    pub lambda: f64,
    /// Fault-tolerance target.
    pub k: u32,
    /// Relative deadline.
    pub deadline: f64,
    /// Cost variant: `scp` (ts=2, tcp=20) or `ccp` (ts=20, tcp=2).
    pub variant: String,
    /// RNG seed.
    pub seed: u64,
    /// Monte-Carlo replications.
    pub reps: u64,
    /// Monte-Carlo worker threads (0 = automatic).
    pub threads: usize,
    /// Print a trace timeline (run subcommand).
    pub trace: bool,
    /// Task-set spec (feasibility/executive subcommands).
    pub tasks: String,
    /// Fixed speed for feasibility (frequency value).
    pub speed: f64,
    /// Hyperperiods the executive simulates.
    pub hyperperiods: u32,
    /// Monte-Carlo mode for `executive` (`--mc`: N seeded horizons).
    pub mc: bool,
    /// Executive sweep document (`executive --sweep grid.json`).
    pub sweep: String,
    /// Path to an `ExperimentSpec`/`SweepSpec` JSON document.
    pub spec: String,
    /// Name of a built-in preset.
    pub preset: String,
    /// Shard selector `i/n` (sweep subcommand).
    pub shard: String,
    /// Schedule through the work-queue runner.
    pub queue: bool,
    /// Worker-pool size for `--queue` (0 = automatic).
    pub workers: usize,
    /// Comma-separated remote endpoints for `--queue` (`host:port,...`);
    /// empty = in-process workers.
    pub endpoints: String,
    /// Per-request transport timeout for `--endpoints`, in milliseconds.
    pub timeout_ms: u64,
    /// Listen address for `eacp serve` (`host:port`; port 0 = ephemeral).
    pub listen: String,
    /// Result-store directory (`--store`; empty = consult `$EACP_STORE`).
    pub store: String,
    /// Ignore any configured result store for this invocation.
    pub no_cache: bool,
    /// Disable the closed-form serve tier: always run the full
    /// Monte-Carlo loop even for replication-invariant cells.
    pub no_analytic: bool,
    /// Recompute and re-record even on a store hit.
    pub refresh: bool,
    /// Retention bound for `store gc`: keep at most this many entries.
    pub max_entries: u64,
    /// Retention bound for `store gc`: keep at most this many bytes.
    pub max_bytes: u64,
    /// Cells to spot-check for `store verify` (0 = all).
    pub sample: u64,
    /// Output path: a directory for `sweep`/`table`, a file for
    /// `merge`/`csv`.
    pub out: String,
    /// Emit results as JSON.
    pub json: bool,
    /// Print the effective spec instead of running it.
    pub emit_spec: bool,
    /// Positional arguments (e.g. the table number).
    pub positional: Vec<String>,
    /// Flag names the user explicitly passed.
    pub explicit: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scheme: "a_d_s".into(),
            util: 0.76,
            lambda: 1.4e-3,
            k: 5,
            deadline: 10_000.0,
            variant: "scp".into(),
            seed: 2006,
            reps: 2_000,
            threads: 0,
            trace: false,
            tasks: String::new(),
            speed: 1.0,
            hyperperiods: 1,
            mc: false,
            sweep: String::new(),
            spec: String::new(),
            preset: String::new(),
            shard: String::new(),
            queue: false,
            workers: 0,
            endpoints: String::new(),
            timeout_ms: eacp_spec::DEFAULT_REMOTE_TIMEOUT_MS,
            listen: String::new(),
            store: String::new(),
            no_cache: false,
            no_analytic: false,
            refresh: false,
            max_entries: 0,
            max_bytes: 0,
            sample: 0,
            out: String::new(),
            json: false,
            emit_spec: false,
            positional: Vec::new(),
            explicit: Vec::new(),
        }
    }
}

impl Options {
    fn has(&self, flag: &str) -> bool {
        self.explicit.iter().any(|f| f == flag)
    }
}

/// Parses flags following the subcommand.
///
/// # Errors
///
/// Returns a message for unknown flags or unparsable values.
pub fn parse_options<I: Iterator<Item = String>>(mut args: I) -> Result<Options, String> {
    let mut o = Options::default();
    while let Some(flag) = args.next() {
        let mut val = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--scheme" => o.scheme = val("--scheme")?,
            "--util" => o.util = parse_num(&val("--util")?, "--util")?,
            "--lambda" => o.lambda = parse_num(&val("--lambda")?, "--lambda")?,
            "--k" => o.k = parse_int(&val("--k")?, "--k")?,
            "--deadline" => o.deadline = parse_num(&val("--deadline")?, "--deadline")?,
            "--variant" => o.variant = val("--variant")?,
            "--seed" => o.seed = parse_int(&val("--seed")?, "--seed")?,
            "--reps" => o.reps = parse_int(&val("--reps")?, "--reps")?,
            "--threads" => o.threads = parse_int(&val("--threads")?, "--threads")?,
            "--speed" => o.speed = parse_num(&val("--speed")?, "--speed")?,
            "--hyperperiods" => {
                o.hyperperiods = parse_int(&val("--hyperperiods")?, "--hyperperiods")?
            }
            "--tasks" => o.tasks = val("--tasks")?,
            "--sweep" => o.sweep = val("--sweep")?,
            "--spec" => o.spec = val("--spec")?,
            "--preset" => o.preset = val("--preset")?,
            "--shard" => o.shard = val("--shard")?,
            "--workers" => o.workers = parse_int(&val("--workers")?, "--workers")?,
            "--endpoints" => o.endpoints = val("--endpoints")?,
            "--timeout-ms" => o.timeout_ms = parse_int(&val("--timeout-ms")?, "--timeout-ms")?,
            "--listen" => o.listen = val("--listen")?,
            "--store" => o.store = val("--store")?,
            "--max-entries" => o.max_entries = parse_int(&val("--max-entries")?, "--max-entries")?,
            "--max-bytes" => o.max_bytes = parse_int(&val("--max-bytes")?, "--max-bytes")?,
            "--sample" => o.sample = parse_int(&val("--sample")?, "--sample")?,
            "--out" => o.out = val("--out")?,
            "--no-cache" => o.no_cache = true,
            "--no-analytic" => o.no_analytic = true,
            "--refresh" => o.refresh = true,
            "--mc" => o.mc = true,
            "--queue" => o.queue = true,
            "--trace" => o.trace = true,
            "--json" => o.json = true,
            "--emit-spec" => o.emit_spec = true,
            other if !other.starts_with("--") => {
                o.positional.push(other.to_owned());
                continue;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        o.explicit.push(flag);
    }
    if !["scp", "ccp"].contains(&o.variant.as_str()) {
        return Err(format!("unknown variant {:?} (use scp|ccp)", o.variant));
    }
    if o.has("--workers") && !o.queue {
        return Err("--workers only applies with --queue".to_owned());
    }
    if o.has("--endpoints") && !o.queue {
        return Err("--endpoints only applies with --queue".to_owned());
    }
    if o.has("--endpoints") && o.endpoints.split(',').all(|e| e.trim().is_empty()) {
        return Err("--endpoints needs at least one host:port".to_owned());
    }
    if o.has("--timeout-ms") && !o.has("--endpoints") {
        return Err("--timeout-ms only applies with --endpoints".to_owned());
    }
    if o.no_cache && o.refresh {
        return Err("--no-cache conflicts with --refresh".to_owned());
    }
    if o.no_cache && o.has("--store") {
        return Err("--no-cache conflicts with --store (drop one)".to_owned());
    }
    if o.queue && o.has("--threads") {
        return Err(
            "--threads applies to the default runner; with --queue size the pool \
             with --workers"
                .to_owned(),
        );
    }
    Ok(o)
}

fn parse_num(s: &str, name: &str) -> Result<f64, String> {
    s.parse::<f64>().map_err(|e| format!("bad {name}: {e}"))
}

/// Parses a count, seed or size: a non-negative integer that fits `T`,
/// never a float truncated by a cast.
fn parse_int<T>(s: &str, name: &str) -> Result<T, String>
where
    T: std::str::FromStr<Err = std::num::ParseIntError>,
{
    s.parse::<T>().map_err(|e| format!("bad {name}: {e}"))
}

/// Desugars the `--queue [--workers N] [--endpoints ... [--timeout-ms T]]`
/// flags into the spec's queue section, so `--emit-spec` reproduces the
/// scheduling (and fleet) choice exactly.
fn queue_spec_of(o: &Options) -> eacp_spec::QueueSpec {
    eacp_spec::QueueSpec {
        workers: o.workers,
        endpoints: o
            .endpoints
            .split(',')
            .map(str::trim)
            .filter(|e| !e.is_empty())
            .map(str::to_owned)
            .collect(),
        timeout_ms: o.timeout_ms,
        ..Default::default()
    }
}

fn costs_of(o: &Options) -> CostsSpec {
    if o.variant == "scp" {
        CostsSpec::PaperScp
    } else {
        CostsSpec::PaperCcp
    }
}

/// The store directory: `--store DIR`, else `$EACP_STORE`; `None` when
/// neither names one or `--no-cache` disables both.
fn store_dir(o: &Options) -> Option<std::path::PathBuf> {
    if o.no_cache {
        return None;
    }
    let dir = if o.store.is_empty() {
        // The CLI is outside the audit's R1 determinism scope: resolving
        // operator configuration from the environment is its job.
        #[allow(clippy::disallowed_methods)]
        std::env::var(STORE_ENV_VAR).unwrap_or_default()
    } else {
        o.store.clone()
    };
    (!dir.is_empty()).then(|| dir.into())
}

/// Resolves the result store for `run`/`mc`/`sweep`/`table`, creating a
/// store directory that does not exist yet.
///
/// # Errors
///
/// Returns a message for an unopenable store directory, or `--refresh`
/// with no store configured.
fn resolve_store(o: &Options) -> Result<Option<FsBackend>, String> {
    let Some(dir) = store_dir(o) else {
        if o.refresh {
            return Err(format!(
                "--refresh needs a store (--store DIR or ${STORE_ENV_VAR})"
            ));
        }
        return Ok(None);
    };
    FsBackend::open(&dir).map(Some).map_err(|e| e.to_string())
}

/// The store required by `eacp store` subcommands (which make no sense
/// without one). They only read or prune a store, so a directory that
/// does not exist is a mistyped path: an error, and nothing is created.
fn require_store(o: &Options) -> Result<FsBackend, String> {
    let dir = store_dir(o)
        .ok_or_else(|| format!("store: no store configured (--store DIR or ${STORE_ENV_VAR})"))?;
    if !dir.is_dir() {
        return Err(format!("store: no store at {}", dir.display()));
    }
    FsBackend::open(&dir).map_err(|e| e.to_string())
}

fn cache_mode(o: &Options) -> CacheMode {
    if o.refresh {
        CacheMode::Refresh
    } else {
        CacheMode::ReadWrite
    }
}

/// One-line cache telemetry appended to `run`/`mc` text output.
fn store_note(cache: CacheOutcome, source: Option<&std::path::Path>) -> String {
    let what = match cache {
        CacheOutcome::Hit => "hit — served from the store",
        CacheOutcome::Miss => "miss — computed and recorded",
        CacheOutcome::Refreshed => "refreshed — recomputed and re-recorded",
    };
    match source {
        Some(p) => format!("store: {what} ({})\n", p.display()),
        None => format!("store: {what}\n"),
    }
}

/// The coverage footer shared by `eacp queue status` (report directories)
/// and `eacp store status --spec` (store cells): covered/missing counts —
/// plus duplicates where the collection can have them — and a readiness
/// verdict.
fn coverage_summary(
    covered: usize,
    total: usize,
    missing: &[usize],
    duplicated: Option<&[usize]>,
    complete_msg: &str,
    incomplete_msg: &str,
) -> String {
    let fmt_indices = |v: &[usize]| {
        if v.is_empty() {
            "none".to_owned()
        } else {
            format!(
                "{:?}{}",
                &v[..v.len().min(8)],
                if v.len() > 8 { ", ..." } else { "" }
            )
        }
    };
    let mut out = format!(
        "covered {covered}/{total} points; missing: {}",
        fmt_indices(missing)
    );
    if let Some(dup) = duplicated {
        out.push_str(&format!("; duplicated: {}", fmt_indices(dup)));
    }
    out.push('\n');
    let complete = missing.is_empty() && duplicated.is_none_or(<[usize]>::is_empty);
    out.push_str("status: ");
    out.push_str(if complete {
        complete_msg
    } else {
        incomplete_msg
    });
    out.push('\n');
    out
}

/// The flags that set one cell parameter, with the knob each sets, in
/// the order they apply. Every spec-resolving command applies them
/// through the kind's [`GridCell::set`] hook, so a flag means what the
/// matching grid axis means, and a kind without the parameter rejects it.
fn parameter_flags(o: &Options) -> [(&'static str, Knob); 8] {
    [
        ("--util", Knob::Utilization(o.util)),
        ("--deadline", Knob::Deadline(o.deadline)),
        ("--variant", Knob::Costs(costs_of(o))),
        ("--lambda", Knob::Lambda(o.lambda)),
        ("--k", Knob::K(o.k)),
        ("--speed", Knob::Speed(o.speed)),
        ("--hyperperiods", Knob::Hyperperiods(o.hyperperiods)),
        ("--seed", Knob::Seed(o.seed)),
    ]
}

/// The first shape flag passed: `--scheme` or a parameter flag other
/// than `--seed`. A grid's base and axes fix them all, so grids reject
/// them instead of silently dropping them.
fn shape_flag(o: &Options) -> Option<&'static str> {
    SHAPE.iter().copied().find(|&flag| o.has(flag))
}

/// Applies the explicitly passed parameter flags to `cell`.
fn apply_flags<C: GridCell>(o: &Options, cell: &mut C) -> Result<(), String> {
    for (flag, knob) in parameter_flags(o) {
        if o.has(flag) {
            cell.set(knob).map_err(|e| format!("{flag}: {e}"))?;
        }
    }
    Ok(())
}

/// Applies `--reps` and `--threads`, where passed, and `--queue` to a
/// cell run on its own. The queue section is recorded in the spec so
/// `--emit-spec` reproduces the scheduling choice; the summary is
/// bit-identical either way.
fn set_run_flags<C: Cell>(o: &Options, cell: &mut C) {
    cell.set_mc(
        o.has("--reps").then_some(o.reps),
        o.has("--threads").then_some(o.threads),
    );
    if o.queue {
        cell.set_queue(queue_spec_of(o));
    }
}

/// The policy description named by `--scheme`.
///
/// # Errors
///
/// Returns a message for unknown scheme names.
pub fn policy_spec_of(o: &Options) -> Result<PolicySpec, String> {
    PolicySpec::from_tag(&o.scheme, o.lambda, o.k, 0).map_err(|e| e.to_string())
}

/// Resolves the effective [`ExperimentSpec`] for `mc`: load
/// `--spec`/`--preset` if given (flags become overrides), else desugar the
/// flags into a spec.
///
/// # Errors
///
/// Returns a message for unreadable spec files, unknown presets, unknown
/// schemes, or flag overrides incompatible with the loaded spec.
pub fn experiment_spec(o: &Options) -> Result<ExperimentSpec, String> {
    // Monte-Carlo summaries default to the paper's analysis-faithful
    // executor semantics (matching the tables).
    experiment_spec_with(o, ExecSpec::paper())
}

/// [`experiment_spec`] with an explicit executor default for the
/// flag-desugaring path (loaded documents always keep their own executor).
fn experiment_spec_with(o: &Options, flag_executor: ExecSpec) -> Result<ExperimentSpec, String> {
    let mut spec = if !o.spec.is_empty() {
        ExperimentSpec::load(std::path::Path::new(&o.spec)).map_err(|e| e.to_string())?
    } else if !o.preset.is_empty() {
        preset(&o.preset).ok_or_else(|| {
            format!(
                "unknown preset {:?} (known: {})",
                o.preset,
                preset_names().join(", ")
            )
        })?
    } else {
        // Pure flag desugaring: the historical CLI behavior.
        ExperimentSpec {
            name: format!("cli-{}", o.scheme),
            scenario: ScenarioSpec {
                work: WorkSpec::Utilization {
                    utilization: o.util,
                    speed: 1.0,
                    deadline: o.deadline,
                },
                costs: costs_of(o),
                dvs: eacp_spec::DvsSpec::PaperDefault,
                processors: 2,
            },
            faults: FaultSpec::Poisson { lambda: o.lambda },
            policy: policy_spec_of(o)?,
            mc: McSpec {
                replications: o.reps,
                seed: o.seed,
                threads: o.threads,
            },
            executor: flag_executor,
        }
    };

    // Explicit flags override whatever the document said.
    if o.has("--scheme") {
        // Carry the loaded spec's parameters into the new scheme unless
        // the matching flag was also passed — switching the scheme must
        // not silently reset k, λ or the pinned speed to flag defaults.
        let lambda = spec.faults.nominal_lambda().unwrap_or(o.lambda);
        let lambda = if o.has("--lambda") { o.lambda } else { lambda };
        let k = if o.has("--k") {
            o.k
        } else {
            spec.policy.k().unwrap_or(o.k)
        };
        let speed = spec.policy.speed().unwrap_or(0);
        spec.policy =
            PolicySpec::from_tag(&o.scheme, lambda, k, speed).map_err(|e| e.to_string())?;
    }
    apply_flags(o, &mut spec)?;
    set_run_flags(o, &mut spec);
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Energies of at least this magnitude print in scientific notation: in
/// whole units, a runaway energy (explicit 1e300-cycle checkpoint costs)
/// would be a 300-digit number.
const ENERGY_SCI_FROM: f64 = 1e15;

/// An energy in a text report: whole units (`{:.0}`) below
/// [`ENERGY_SCI_FROM`], `{:.6e}` from there on. Width and alignment
/// apply as to any string (`{:>12}`); JSON reports carry the raw value.
struct Energy(f64);

impl std::fmt::Display for Energy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = if self.0.abs() < ENERGY_SCI_FROM {
            format!("{:.0}", self.0)
        } else {
            format!("{:.6e}", self.0)
        };
        f.pad(&text)
    }
}

/// `eacp run`: one seeded execution, optionally traced.
pub fn cmd_run(o: &Options) -> Result<String, String> {
    // Flag-desugared single runs keep the physical executor semantics
    // (faults during overhead) — the historical behavior; loaded documents
    // keep their own executor. The choice lives in the desugared spec so
    // `--emit-spec` reproduces exactly what this command executes.
    let spec = experiment_spec_with(o, ExecSpec::default())?;
    if o.emit_spec {
        return Ok(spec.to_json_string());
    }
    let store = resolve_store(o)?;
    let scenario = spec.scenario.build().map_err(|e| e.to_string())?;
    let mut policy = spec.policy.build().map_err(|e| e.to_string())?;
    let mut rec = TraceRecorder::new();
    let mut note = String::new();
    let out = match &store {
        // Tracing needs a live execution — the cache can replay the
        // outcome but not the event stream.
        Some(backend) if !o.trace => {
            let cached = run_cached_single(&spec, backend, cache_mode(o), &NoopStoreObserver)
                .map_err(|e| e.to_string())?;
            note = store_note(cached.cache, cached.source.as_deref());
            cached.outcome
        }
        _ => {
            let mut faults = spec.faults.build(spec.mc.seed).map_err(|e| e.to_string())?;
            let options = spec.executor.build().map_err(|e| e.to_string())?;
            let executor = Executor::new(&scenario).with_options(options);
            if o.trace {
                // Tracing is just one Observer on the unified engine path.
                executor.run_observed(&mut policy, &mut faults, &mut rec)
            } else {
                executor.run(&mut policy, &mut faults)
            }
        }
    };
    // Non-Poisson fault processes (burst, phased, ...) have no single λ;
    // show the fault kind instead of a confusing NaN.
    let faults_desc = match spec.faults.nominal_lambda() {
        Some(lambda) => format!("λ={lambda:e}"),
        None => format!("faults={}", spec.faults.kind()),
    };
    let mut s = format!(
        "scheme={} N={:.0} D={:.0} {} k={}\n\
         completed={} timely={} aborted={}\n\
         finish={:.1} energy={} faults={} rollbacks={}\n\
         checkpoints: SCP={} CCP={} CSCP={} fast-fraction={:.2}\n",
        policy.name(),
        scenario.task.work_cycles,
        scenario.task.deadline,
        faults_desc,
        // Report the k the policy actually runs with, not the flag
        // default ("-" for schemes without a fault-tolerance target).
        spec.policy
            .k()
            .map_or_else(|| "-".to_owned(), |k| k.to_string()),
        out.completed,
        out.timely,
        out.aborted,
        out.finish_time,
        Energy(out.energy),
        out.faults,
        out.rollbacks,
        out.store_checkpoints,
        out.compare_checkpoints,
        out.compare_store_checkpoints,
        out.fast_fraction(),
    );
    s.push_str(&note);
    if o.trace {
        s.push('\n');
        s.push_str(&rec.render(100));
    }
    Ok(s)
}

/// One cell on the runner its spec places it on, through the store when
/// one is configured — the dispatch shared by `mc` and `executive --mc`.
/// Returns the exact summary, the report (byte-identical on hit and
/// miss) and the cache note for text output.
fn run_cell<C: StoreCell>(
    o: &Options,
    cell: &C,
) -> Result<(C::Summary, C::Report, String), String> {
    let analytic = !o.no_analytic;
    match resolve_store(o)? {
        Some(backend) => {
            let run =
                run_cached_tiered(cell, &backend, cache_mode(o), &NoopStoreObserver, analytic)
                    .map_err(|e| e.to_string())?;
            let note = store_note(run.cache, run.source.as_deref());
            Ok((run.summary, run.report, note))
        }
        None => {
            let (summary, report) =
                eacp_exec::run_tiered(cell, analytic).map_err(|e| e.to_string())?;
            Ok((summary, report, String::new()))
        }
    }
}

/// `eacp mc`: Monte-Carlo summary with confidence interval.
pub fn cmd_mc(o: &Options) -> Result<String, String> {
    let spec = experiment_spec(o)?;
    if o.emit_spec {
        return Ok(spec.to_json_string());
    }
    let (summary, report, mut note) = run_cell(o, &spec)?;
    if report.served == eacp_spec::ServeTier::Analytic {
        note.insert_str(0, "served: analytic (replication-invariant cell)\n");
    }
    if o.json {
        // The report document is byte-identical on hit and miss; cache
        // telemetry stays out of it.
        return Ok(report.to_json_string());
    }
    let (lo, hi) = summary.p_timely_ci(1.96);
    Ok(format!(
        "scheme={} reps={}\nP = {:.4} [95% CI {:.4}, {:.4}]\nE(timely) = {}\n\
         E(all) = {}\nfaults/run = {:.2}  rollbacks/run = {:.2}\n\
         checkpoints/run = {:.1}  fast-fraction = {:.3}\naborted = {}  anomalies = {}\n{note}",
        report.policy_name,
        summary.replications,
        summary.p_timely(),
        lo,
        hi,
        Energy(summary.mean_energy_timely()),
        Energy(summary.energy_all.mean()),
        summary.faults.mean(),
        summary.rollbacks.mean(),
        summary.checkpoints.mean(),
        summary.fast_fraction.mean(),
        summary.aborted,
        summary.anomalies,
    ))
}

/// `eacp sweep`: expand a sweep document and run every grid point.
pub fn cmd_sweep(o: &Options) -> Result<String, String> {
    if o.spec.is_empty() {
        return Err("sweep: --spec sweep.json is required".to_owned());
    }
    cmd_grid::<ExperimentSpec>(o, &o.spec)
}

/// What differs between the grid commands' output for a cell kind;
/// everything else about a grid run is shared ([`cmd_grid`]).
trait CliCell: StoreCell {
    /// The grid command, as error messages name it.
    const COMMAND: &'static str;

    /// The text view: a header ending in `(… each{suffix})` and one line
    /// per point.
    fn table(grid: &GridReport<Self>, suffix: &str) -> String;
}

impl CliCell for ExperimentSpec {
    const COMMAND: &'static str = "sweep";

    fn table(grid: &GridReport, suffix: &str) -> String {
        let reps = grid.sweep.base.replications();
        let mut out = format!(
            "sweep over {} points ({reps} replications each{suffix})\n\n{:<44} {:>8} {:>12} {:>10}\n",
            grid.total_points, "experiment", "P", "E(timely)", "faults"
        );
        for p in &grid.points {
            let r = &p.report;
            out.push_str(&format!(
                "{:<44} {:>8.4} {:>12} {:>10.2}\n",
                r.spec.name,
                r.summary.p_timely,
                Energy(r.summary.energy_timely.mean),
                r.summary.faults.mean,
            ));
        }
        out
    }
}

impl CliCell for ExecutiveSpec {
    const COMMAND: &'static str = "executive --sweep";

    fn table(grid: &GridReport<ExecutiveSpec>, suffix: &str) -> String {
        let horizons = grid.sweep.base.replications();
        let mut out = format!(
            "executive sweep over {} points ({horizons} seeded horizons each{suffix})\n\n\
             {:<44} {:>10} {:>12} {:>10}\n",
            grid.total_points, "experiment", "miss", "E(horizon)", "faults"
        );
        for p in &grid.points {
            let r = &p.report;
            out.push_str(&format!(
                "{:<44} {:>10.4} {:>12} {:>10.2}\n",
                r.spec.name,
                r.summary.mean_miss_ratio(),
                Energy(r.summary.mean_energy()),
                r.summary.horizon_faults.mean(),
            ));
        }
        out
    }
}

/// Rejects the shape flags a grid fixes, then applies `--seed`, `--reps`
/// and `--threads` to its base — the only overrides that make sense on a
/// whole grid.
fn apply_grid_flags<C: CliCell>(o: &Options, grid: &mut Grid<C>) -> Result<(), String> {
    if let Some(flag) = shape_flag(o) {
        return Err(format!(
            "{}: {flag} cannot override a sweep document — edit the base spec or its axes",
            C::COMMAND
        ));
    }
    apply_flags(o, &mut grid.base)?;
    grid.base.set_mc(
        o.has("--reps").then_some(o.reps),
        o.has("--threads").then_some(o.threads),
    );
    Ok(())
}

/// The grid run shared by `sweep` and `executive --sweep`: grid flags,
/// `--shard`, `--emit-spec`, the store / fleet / queue / local dispatch
/// with its one-line note, then `--out`, `--json` or the kind's text
/// table.
fn cmd_grid<C: CliCell>(o: &Options, path: &str) -> Result<String, String> {
    let mut sweep = Grid::<C>::load(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    apply_grid_flags(o, &mut sweep)?;
    let shard = if o.shard.is_empty() {
        None
    } else {
        Some(ShardId::parse(&o.shard).map_err(|e| e.to_string())?)
    };
    let queue = o.queue.then(|| queue_spec_of(o));
    if o.emit_spec {
        let mut cells = sweep.expand().map_err(|e| e.to_string())?;
        if let Some(q) = &queue {
            // Emitted point specs must reproduce the scheduling choice,
            // exactly as `mc --queue --emit-spec` records it.
            for cell in &mut cells {
                cell.set_queue(q.clone());
            }
        }
        let range = shard.map_or(0..cells.len(), |s| s.range(cells.len()));
        return Ok(cells[range].to_json_string());
    }
    let store = resolve_store(o)?;
    let progress = Arc::new(QueueProgress::default());
    let runner = placement(queue.as_ref(), sweep.base.placement().1, progress.clone())
        .map_err(|e| e.to_string())?;
    let counters = StoreCounters::new();
    let grid = run_grid_cells(o, &sweep, shard, runner.as_ref(), store.as_ref(), &counters)
        .map_err(|e| e.to_string())?;
    let fleet = queue.as_ref().map_or(0, |q| q.endpoints.len());
    let note = match store {
        Some(_) => format!(", {}", store_tally(&counters)),
        // Remote fleet: the grid's canonical blocks fan out across the
        // endpoints from one lease queue.
        None if fleet > 0 => format!(", fleet: {fleet} endpoint(s)"),
        None if o.queue => format!(", queued: {}", progress.render(o.workers)),
        None => String::new(),
    };
    if !o.out.is_empty() {
        let path = grid
            .save(std::path::Path::new(&o.out))
            .map_err(|e| e.to_string())?;
        return Ok(format!(
            "wrote {} ({} of {} grid points{}{note})\n",
            path.display(),
            grid.points.len(),
            grid.total_points,
            shard.map_or_else(String::new, |s| format!(", shard {s}")),
        ));
    }
    if o.json {
        return Ok(json::pretty(|w| {
            w.array(|w| grid.points.iter().for_each(|p| p.report.write_json(w)));
        }));
    }
    let shard_note = shard.map_or_else(String::new, |s| {
        format!(", shard {s}: {} points", grid.points.len())
    });
    Ok(C::table(&grid, &format!("{shard_note}{note}")))
}

/// Runs a grid, or one shard of it, on `runner`: through the store when
/// one is configured — covered cells are served, the rest are computed and
/// recorded, which is what makes an interrupted sweep resumable — else
/// directly. `counters` count what the store served and computed.
fn run_grid_cells<C: CliCell>(
    o: &Options,
    grid: &Grid<C>,
    shard: Option<ShardId>,
    runner: &dyn Runner,
    store: Option<&FsBackend>,
    counters: &StoreCounters,
) -> Result<GridReport<C>, eacp_spec::SpecError> {
    let analytic = !o.no_analytic;
    match store {
        Some(backend) => run_sweep_cached_tiered(
            grid,
            shard,
            runner,
            backend,
            cache_mode(o),
            counters,
            analytic,
        ),
        None => run_sweep_tiered(grid, shard, runner, analytic),
    }
}

/// What a store-backed grid run served and computed:
/// `store: N served, M computed`, and any entries quarantined.
fn store_tally(counters: &StoreCounters) -> String {
    let mut note = format!(
        "store: {} served, {} computed",
        counters.hits(),
        counters.records()
    );
    if counters.quarantined() > 0 {
        note.push_str(&format!(", {} quarantined", counters.quarantined()));
    }
    note
}

/// Work-queue telemetry of the runner that ran a grid, accumulated across
/// its pool's threads; rendered as a one-line note in `eacp sweep
/// --queue` output. A lease is one run of canonical blocks.
#[derive(Default)]
struct QueueProgress {
    leases: std::sync::atomic::AtomicU64,
    retries: std::sync::atomic::AtomicU64,
}

impl QueueProgress {
    fn render(&self, workers: usize) -> String {
        use std::sync::atomic::Ordering;
        let pool = if workers == 0 {
            "auto-sized pool".to_owned()
        } else {
            format!("{workers}-worker pool")
        };
        format!(
            "{pool} ({} leases, {} retries)",
            self.leases.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
        )
    }
}

impl QueueObserver for QueueProgress {
    fn on_lease(&self, _worker: usize, _index: usize, _attempt: u32, _status: QueueStatus) {
        self.leases
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    fn on_retry(
        &self,
        _worker: usize,
        _index: usize,
        _attempt: u32,
        _error: &eacp_spec::SpecError,
        _status: QueueStatus,
    ) {
        self.retries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// `eacp queue`: work-queue utilities over the result-collection
/// convention. `queue status DIR` reports how far a (possibly still
/// running) distributed sweep has progressed.
pub fn cmd_queue(o: &Options) -> Result<String, String> {
    match o.positional.first().map(String::as_str) {
        Some("status") => {
            let dir = o
                .positional
                .get(1)
                .ok_or("queue status: missing report directory")?;
            let dir = std::path::Path::new(dir);
            // Executive collections produce the same SweepCoverage shape,
            // so both kinds render through one coverage formatter.
            let cov = if dir_has_executive_reports(dir)? {
                coverage_dir::<ExecutiveSpec>(dir)
            } else {
                coverage_dir::<ExperimentSpec>(dir)
            }
            .map_err(|e| e.to_string())?;
            let mut out = format!(
                "sweep {:?}: {} grid points{}\n",
                cov.sweep_name,
                cov.total_points,
                cov.shard_count
                    .map_or_else(String::new, |n| format!(", {n} shards declared")),
            );
            for doc in &cov.docs {
                let name = doc.path.file_name().map_or_else(
                    || doc.path.display().to_string(),
                    |n| n.to_string_lossy().into_owned(),
                );
                out.push_str(&format!(
                    "  {name:<28} {:<11} {:>4} point{}\n",
                    doc.shard
                        .map_or_else(|| "full grid".to_owned(), |s| format!("shard {s}")),
                    doc.indices.len(),
                    if doc.indices.len() == 1 { "" } else { "s" },
                ));
            }
            out.push_str(&coverage_summary(
                cov.covered(),
                cov.total_points,
                &cov.missing,
                Some(&cov.duplicated),
                "complete — ready to merge",
                "incomplete — not ready to merge",
            ));
            Ok(out)
        }
        Some(other) => Err(format!(
            "unknown queue subcommand {other:?} (expected: status)"
        )),
        None => Err("queue: missing subcommand (expected: status)".to_owned()),
    }
}

/// `eacp store`: result-store utilities — `status` reports backend health
/// (and, with `--spec sweep.json`, how much of that grid the store
/// covers), `gc` applies a retention policy, `verify` recomputes sampled
/// cells and fails on any byte mismatch with the stored entry.
pub fn cmd_store(o: &Options) -> Result<String, String> {
    let backend = require_store(o)?;
    match o.positional.first().map(String::as_str) {
        Some("status") => {
            let health = backend.health().map_err(|e| e.to_string())?;
            let mut out = format!(
                "store at {}\nentries: {} ({} bytes); quarantined: {}\n",
                health.location, health.entries, health.total_bytes, health.quarantined
            );
            if !o.spec.is_empty() {
                let text =
                    std::fs::read_to_string(&o.spec).map_err(|e| format!("{}: {e}", o.spec))?;
                let json = Json::parse(&text).map_err(|e| format!("{}: {e}", o.spec))?;
                // Cells are keyed by (spec hash, seed, replications), so
                // coverage must be asked about the same Monte-Carlo block
                // the sweep ran with — honor the same overrides. Both
                // sweep kinds produce one StoreCoverage shape, rendered
                // through the shared coverage formatter below.
                let cov = if json_is_executive_sweep(&json) {
                    sweep_store_coverage::<ExecutiveSpec>(o, &backend, &json)?
                } else {
                    sweep_store_coverage::<ExperimentSpec>(o, &backend, &json)?
                };
                out.push_str(&format!(
                    "sweep {:?}: {} grid points\n",
                    cov.sweep_name, cov.total_points
                ));
                out.push_str(&coverage_summary(
                    cov.covered(),
                    cov.total_points,
                    &cov.missing,
                    None,
                    "complete — a store-backed sweep is served entirely from cache",
                    "incomplete — a store-backed sweep computes the missing points",
                ));
            }
            Ok(out)
        }
        Some("gc") => {
            if !o.has("--max-entries") && !o.has("--max-bytes") {
                return Err(
                    "store gc: set a retention bound (--max-entries N and/or --max-bytes N)"
                        .to_owned(),
                );
            }
            let policy = RetentionPolicy {
                max_entries: o.has("--max-entries").then_some(o.max_entries),
                max_bytes: o.has("--max-bytes").then_some(o.max_bytes),
            };
            let report = backend.evict(&policy).map_err(|e| e.to_string())?;
            Ok(format!(
                "examined {} entries; evicted {} ({} bytes reclaimed); {} remaining\n",
                report.examined, report.evicted, report.reclaimed_bytes, report.remaining
            ))
        }
        Some("verify") => {
            let report = verify_store(&backend, o.sample as usize).map_err(|e| e.to_string())?;
            Ok(format!(
                "verified {} of {} entries: stored bytes match recomputation\n",
                report.checked, report.entries
            ))
        }
        Some(other) => Err(format!(
            "unknown store subcommand {other:?} (expected: status|gc|verify)"
        )),
        None => Err("store: missing subcommand (expected: status|gc|verify)".to_owned()),
    }
}

/// How much of a sweep document's grid the store covers. Cells are keyed
/// by (spec hash, seed, replications), so coverage is asked about the
/// same Monte-Carlo block the sweep ran with: the same grid flags apply.
fn sweep_store_coverage<C: CliCell>(
    o: &Options,
    backend: &FsBackend,
    json: &Json,
) -> Result<StoreCoverage, String> {
    let mut sweep = Grid::<C>::from_json(json).map_err(|e| format!("{}: {e}", o.spec))?;
    apply_grid_flags(o, &mut sweep)?;
    store_coverage(backend, &sweep).map_err(|e| format!("{}: {e}", o.spec))
}

/// Whether a report directory holds *executive* sweep documents (the
/// embedded sweep base describes a periodic task set) rather than
/// single-task experiment reports. The first document that embeds a
/// sweep decides; merge/coverage then reject any mixed stragglers.
fn dir_has_executive_reports(dir: &std::path::Path) -> Result<bool, String> {
    let paths = eacp_exec::list_report_files(dir).map_err(|e| e.to_string())?;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(sweep) = json.get("sweep") {
            return Ok(json_is_executive_sweep(sweep));
        }
    }
    Ok(false)
}

/// Whether a sweep *document* is an executive sweep (base has a task
/// set) rather than a single-task experiment sweep (base has a
/// scenario).
fn json_is_executive_sweep(json: &Json) -> bool {
    json.get("base").is_some_and(|b| b.get("tasks").is_some())
}

/// `eacp merge`: reassemble a directory of shard report documents into the
/// full grid report (printed, or written with `--out`). Handles both
/// single-task and executive sweep collections — the document shape
/// picks the merge path.
pub fn cmd_merge(o: &Options) -> Result<String, String> {
    let dir = o
        .positional
        .first()
        .ok_or("merge: missing report directory")?;
    let dir = std::path::Path::new(dir);
    let (text, points) = if dir_has_executive_reports(dir)? {
        merged::<ExecutiveSpec>(dir)
    } else {
        merged::<ExperimentSpec>(dir)
    }
    .map_err(|e| e.to_string())?;
    if o.out.is_empty() {
        return Ok(text);
    }
    std::fs::write(&o.out, &text).map_err(|e| format!("{}: {e}", o.out))?;
    Ok(format!("merged {points} grid points into {}\n", o.out))
}

/// A merged grid document and its point count.
fn merged<C: Cell>(dir: &std::path::Path) -> Result<(String, usize), eacp_spec::SpecError> {
    let grid = merge_dir::<C>(dir)?;
    Ok((grid.to_json_string(), grid.points.len()))
}

/// `eacp csv`: render a directory of report documents (grid/shard files
/// from `sweep --out`, or standalone `mc --json` reports) as a CSV matrix
/// with paper-value deltas.
pub fn cmd_csv(o: &Options) -> Result<String, String> {
    let dir = o
        .positional
        .first()
        .ok_or("csv: missing report directory")?;
    let dir = std::path::Path::new(dir);
    let (csv, rows) = if dir_has_executive_reports(dir)? {
        let rows = load_report_rows::<ExecutiveSpec>(dir)?;
        (render_executive_rows(&rows), rows.len())
    } else {
        let rows = load_report_rows::<ExperimentSpec>(dir)?;
        (render_rows(&rows, &paper_ref_of), rows.len())
    };
    if o.out.is_empty() {
        return Ok(csv);
    }
    std::fs::write(&o.out, &csv).map_err(|e| format!("{}: {e}", o.out))?;
    Ok(format!("wrote {} ({} rows)\n", o.out, rows))
}

/// CSV rows of one kind: `(grid index, report)`, standalone reports
/// without an index.
type ReportRows<C> = Vec<(Option<usize>, <C as Cell>::Report)>;

/// Loads every `.json` report document under `dir` into CSV rows: sweep
/// report documents contribute their grid points (sorted by index),
/// standalone reports follow without an index.
///
/// Uses the same directory-enumeration rule as `eacp merge`
/// ([`eacp_exec::list_report_files`]) and, like merge, fails loudly on a
/// grid point covered twice (e.g. shard documents *and* a merged grid
/// report in the same directory) instead of silently duplicating rows.
// The map keys duplicate-detection paths; nothing iterates it, so hash
// order cannot leak into output (see clippy.toml on R1 scope).
#[allow(clippy::disallowed_types)]
fn load_report_rows<C: Cell>(dir: &std::path::Path) -> Result<ReportRows<C>, String> {
    let paths = eacp_exec::list_report_files(dir).map_err(|e| e.to_string())?;
    let mut indexed: Vec<(usize, C::Report)> = Vec::new();
    let mut seen: std::collections::HashMap<usize, std::path::PathBuf> =
        std::collections::HashMap::new();
    let mut loose: Vec<C::Report> = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = eacp_spec::Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // Dispatch on the document's shape so a malformed field surfaces
        // its real parse error instead of a generic "not a report".
        if json.get("points").is_some() || json.get("sweep").is_some() {
            let grid = GridReport::<C>::from_json(&json).map_err(|e| {
                format!(
                    "{}: invalid {} report document: {e}",
                    path.display(),
                    C::KIND
                )
            })?;
            for p in grid.points {
                if let Some(first) = seen.insert(p.index, path.clone()) {
                    return Err(format!(
                        "{}: grid point {} already covered by {} — merged and \
                         shard documents mixed in one directory?",
                        path.display(),
                        p.index,
                        first.display()
                    ));
                }
                indexed.push((p.index, p.report));
            }
        } else if json.get("spec").is_some() {
            let report = C::Report::from_json(&json)
                .map_err(|e| format!("{}: invalid run report: {e}", path.display()))?;
            loose.push(report);
        } else {
            return Err(format!(
                "{}: not a sweep report document or a run report",
                path.display()
            ));
        }
    }
    if indexed.is_empty() && loose.is_empty() {
        return Err(format!("{}: no report documents found", dir.display()));
    }
    indexed.sort_by_key(|(i, _)| *i);
    let mut rows: ReportRows<C> = indexed.into_iter().map(|(i, r)| (Some(i), r)).collect();
    rows.extend(loose.into_iter().map(|r| (None, r)));
    Ok(rows)
}

/// The paper's reference values for a report's operating point, where the
/// report matches a transcribed table cell (paper deadline, DMR, a paper
/// table's cost variant and utilization speed, a tabulated `(U, λ)` row,
/// and a scheme column of that table).
fn paper_ref_of(report: &RunReport) -> Option<PaperRef> {
    use eacp_experiments::{TableId, TablePart};
    let spec = &report.spec;
    let (util, util_speed, deadline) = match spec.scenario.work {
        WorkSpec::Utilization {
            utilization,
            speed,
            deadline,
        } => (utilization, speed, deadline),
        WorkSpec::Cycles { .. } => return None,
    };
    if deadline != PAPER_DEADLINE || spec.scenario.processors != 2 {
        return None;
    }
    let lambda = spec.faults.nominal_lambda()?;
    let index = PAPER_TABLES
        .iter()
        .position(|t| t.costs == spec.scenario.costs && t.util_speed == util_speed)?;
    let scheme = match spec.policy.tag() {
        "poisson" => PaperScheme::Poisson,
        "kft" => PaperScheme::KFaultTolerant,
        "a_d" => PaperScheme::AdtDvs,
        tag if tag == PAPER_TABLES[index].proposed_tag => PaperScheme::Proposed,
        _ => return None,
    };
    [TablePart::A, TablePart::B].iter().find_map(|&part| {
        eacp_experiments::paper::paper_cell(TableId::ALL[index], part, util, lambda).map(|cell| {
            PaperRef {
                p: cell.p_of(scheme),
                e: cell.e_of(scheme),
            }
        })
    })
}

/// `eacp presets`: list the named presets.
pub fn cmd_presets() -> String {
    let mut out = String::from("named presets (eacp mc --preset NAME):\n");
    for name in preset_names() {
        // audit:allow(panic): `preset_names()` and `preset()` are backed by
        // the same static table, so lookup of a listed name cannot fail.
        let spec = preset(name).expect("every listed preset exists");
        out.push_str(&format!(
            "  {:<22} scheme={:<8} faults={}\n",
            name,
            spec.policy.tag(),
            spec.faults.kind(),
        ));
    }
    out.push_str("periodic workloads (eacp executive|feasibility --preset NAME):\n");
    for name in executive_preset_names() {
        // audit:allow(panic): same static-table pairing as `preset()` above.
        let spec = executive_preset(name).expect("every listed preset exists");
        out.push_str(&format!(
            "  {:<26} {} task(s), {} hyperperiod(s)\n",
            name,
            spec.tasks.len(),
            spec.hyperperiods,
        ));
    }
    out
}

/// `eacp analyze`: the paper's analysis quantities at the initial planning
/// point.
pub fn cmd_analyze(o: &Options) -> Result<String, String> {
    let costs = costs_of(o).build().map_err(|e| e.to_string())?;
    let dvs = DvsConfig::paper_default();
    let n = o.util * o.deadline;
    let c = costs.cscp_cycles();
    let speed = choose_speed(n, o.deadline, c, o.lambda, &dvs);
    let f = dvs.level(speed).frequency;
    let t1 = estimated_completion_time(n, dvs.level(0).frequency, c, o.lambda);
    let t2 = estimated_completion_time(n, dvs.level(1).frequency, c, o.lambda);
    let (itv, branch) = checkpoint_interval_with_branch(IntervalInputs {
        rd: o.deadline,
        rt: n / f,
        c: c / f,
        rf: o.k as f64,
        lambda: o.lambda,
    });
    let params = RenewalParams::new(
        costs.store_cycles / f,
        costs.compare_cycles / f,
        costs.rollback_cycles / f,
        o.lambda,
    );
    let (m, label) = if o.variant == "scp" {
        (
            num_scp(itv, &params, OptimizeMethod::PaperClosedForm),
            "num_SCP",
        )
    } else {
        (
            num_ccp(itv, &params, OptimizeMethod::PaperClosedForm),
            "num_CCP",
        )
    };
    Ok(format!(
        "task: N = {n:.0} cycles, D = {:.0}, λ = {:e}, k = {}, variant = {}\n\
         t_est(f1) = {t1:.1}   t_est(f2) = {t2:.1}   chosen speed = f{}\n\
         interval() = {itv:.2} time units  (branch: {branch:?})\n\
         {label}(interval) = {m}  →  sub-interval = {:.2}\n",
        o.deadline,
        o.lambda,
        o.k,
        o.variant,
        speed + 1,
        itv / m as f64,
    ))
}

/// `eacp table`: regenerate one paper table. Its two part documents
/// ([`eacp_experiments::table_grids`]) run on the grid path `eacp sweep`
/// uses (`run_grid_cells`), so `--store`, `--queue`/`--endpoints`,
/// `--threads` and `--no-analytic` apply to tables as to any grid; the
/// reports are regrouped into rows only for the renderers.
pub fn cmd_table(o: &Options) -> Result<String, String> {
    use eacp_experiments::{compare, render, shape, table_grids, TableId, TableResult};
    let which = o
        .positional
        .first()
        .ok_or("table: missing table number (1..4)")?;
    let id = match which.as_str() {
        "1" => TableId::Table1,
        "2" => TableId::Table2,
        "3" => TableId::Table3,
        "4" => TableId::Table4,
        other => return Err(format!("unknown table {other:?}")),
    };
    let queue = o.queue.then(|| queue_spec_of(o));
    let grids = table_grids(id).map(|mut grid| {
        grid.base.mc.replications = o.reps;
        grid.base.mc.seed = o.seed;
        // Recorded in each cell's spec, as `mc --queue` records it; the
        // summaries are bit-identical either way. The local pool size is
        // an execution choice, not part of the cell, so it stays out.
        if let Some(q) = &queue {
            grid.base.set_queue(q.clone());
        }
        grid
    });
    if o.emit_spec {
        let parts = grids
            .iter()
            .map(Grid::expand)
            .collect::<Result<Vec<_>, _>>();
        let cells = parts.map_err(|e| e.to_string())?.into_iter().flatten();
        return Ok(json::pretty(|w| {
            w.array(|w| cells.for_each(|cell| cell.write_json(w)))
        }));
    }
    let runner = placement(queue.as_ref(), o.threads, Arc::new(NoopQueueObserver))
        .map_err(|e| e.to_string())?;
    let store = resolve_store(o)?;
    let counters = StoreCounters::new();
    let reports = grids
        .iter()
        .map(|grid| run_grid_cells(o, grid, None, runner.as_ref(), store.as_ref(), &counters))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    // Both parts' cells in one tally; kept out of the written files, which
    // are the same whether the store served or computed.
    let note = match store {
        Some(_) => format!("{}\n", store_tally(&counters)),
        None => String::new(),
    };
    let result = TableResult::from_reports(id, &reports);
    if o.json && o.out.is_empty() {
        return Ok(render::to_json(&result));
    }
    let findings = shape::check_table(&result);
    let (passed, failed) = shape::tally(&findings);
    let tally = format!("shape: {passed} criteria passed, {failed} failed\n");
    let mut text = render::to_text(&result);
    text.push('\n');
    text.push_str(&compare::render_comparison(&result));
    text.push('\n');
    text.push_str(&tally);
    for f in findings.iter().filter(|f| !f.passed) {
        text.push_str(&format!("  FAIL {}: {}\n", f.criterion, f.detail));
    }
    if o.out.is_empty() {
        return Ok(text + &note);
    }
    let dir = std::path::Path::new(&o.out);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let base = dir.join(format!("table{}", id.number()));
    for (ext, body) in [
        ("txt", text),
        ("md", render::to_markdown(&result)),
        ("csv", render::to_csv(&result)),
    ] {
        let path = base.with_extension(ext);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(format!(
        "wrote {}.{{txt,md,csv}}\n{tally}{note}",
        base.display()
    ))
}

/// Parses `name:wcet:period[:deadline]` task lists into a [`TaskSetSpec`].
///
/// # Errors
///
/// Returns a message for malformed lists (invalid *values* — zero period,
/// deadline beyond the period — surface later as `SpecError`s when the
/// spec is validated).
pub fn parse_taskset_spec(spec: &str) -> Result<TaskSetSpec, String> {
    let mut tasks = Vec::new();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        let fields: Vec<&str> = part.split(':').collect();
        if fields.len() < 3 || fields.len() > 4 {
            return Err(format!(
                "task {part:?}: expected name:wcet:period[:deadline]"
            ));
        }
        let wcet: f64 = fields[1]
            .parse()
            .map_err(|e| format!("task {part:?}: bad wcet: {e}"))?;
        let period: u64 = fields[2]
            .parse()
            .map_err(|e| format!("task {part:?}: bad period: {e}"))?;
        let deadline: u64 = match fields.get(3) {
            Some(d) => d
                .parse()
                .map_err(|e| format!("task {part:?}: bad deadline: {e}"))?,
            None => period,
        };
        tasks.push(PeriodicTaskSpec {
            name: fields[0].to_owned(),
            wcet,
            period,
            deadline,
        });
    }
    if tasks.is_empty() {
        return Err("no tasks given".into());
    }
    Ok(TaskSetSpec { tasks })
}

/// Parses `name:wcet:period[:deadline]` task lists into the runtime
/// [`TaskSet`] (the `--tasks` shorthand validated through the spec layer).
///
/// # Errors
///
/// Returns a message for malformed lists or invalid task parameters.
pub fn parse_taskset(spec: &str) -> Result<TaskSet, String> {
    parse_taskset_spec(spec)?.build().map_err(|e| e.to_string())
}

/// Resolves the effective [`ExecutiveSpec`] for `feasibility`/`executive`:
/// load `--spec`/`--preset` if given, else desugar `--tasks` plus flags
/// into a spec. Explicit flags override the loaded document.
///
/// # Errors
///
/// Returns a message when no task source is given, for unreadable spec
/// files, unknown presets/schemes, or invalid parameters.
pub fn executive_spec(o: &Options) -> Result<ExecutiveSpec, String> {
    let mut spec = if !o.spec.is_empty() {
        ExecutiveSpec::load(std::path::Path::new(&o.spec)).map_err(|e| e.to_string())?
    } else if !o.preset.is_empty() {
        executive_preset(&o.preset).ok_or_else(|| {
            format!(
                "unknown executive preset {:?} (known: {})",
                o.preset,
                executive_preset_names().join(", ")
            )
        })?
    } else if !o.tasks.is_empty() {
        let mut spec =
            ExecutiveSpec::new(format!("cli-{}", o.scheme), parse_taskset_spec(&o.tasks)?);
        spec.costs = costs_of(o);
        spec.faults = FaultSpec::Poisson { lambda: o.lambda };
        spec.policy = PolicyAssignment::Shared(policy_spec_of(o)?);
        spec.k = o.k;
        spec.speed = o.speed;
        spec.hyperperiods = o.hyperperiods;
        spec.seed = o.seed;
        spec
    } else {
        return Err(
            "a task set is required: --tasks name:wcet:period[,...], --spec file.json \
             or --preset NAME"
                .to_owned(),
        );
    };

    // Explicit flags override whatever the document said.
    if o.has("--scheme") {
        // Carry the loaded spec's parameters into the new scheme unless
        // the matching flag was also passed — switching the scheme must
        // not silently reset k, λ or the pinned speed to flag defaults.
        // (A per-task assignment collapses to one shared scheme; the
        // policy k and pinned speed carry from the first task's policy.
        // The top-level spec.k stays what it was: it parameterizes the
        // feasibility analysis, not the policies.)
        let lambda = if o.has("--lambda") {
            o.lambda
        } else {
            spec.faults.nominal_lambda().unwrap_or(o.lambda)
        };
        let first_policy = match &spec.policy {
            PolicyAssignment::Shared(p) => Some(p),
            PolicyAssignment::PerTask(ps) => ps.first(),
        };
        let k = if o.has("--k") {
            o.k
        } else {
            first_policy.and_then(PolicySpec::k).unwrap_or(spec.k)
        };
        let speed = first_policy.and_then(PolicySpec::speed).unwrap_or(0);
        spec.policy = PolicyAssignment::Shared(
            PolicySpec::from_tag(&o.scheme, lambda, k, speed).map_err(|e| e.to_string())?,
        );
    }
    apply_flags(o, &mut spec)?;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// `eacp feasibility`: checkpoint-aware EDF/RM analysis of the resolved
/// [`ExecutiveSpec`], plus a per-k sensitivity table over the spec's DVS
/// levels.
pub fn cmd_feasibility(o: &Options) -> Result<String, String> {
    let spec = executive_spec(o)?;
    if o.emit_spec {
        return Ok(spec.to_json_string());
    }
    let set = spec.tasks.build().map_err(|e| e.to_string())?;
    let costs = spec.costs.build().map_err(|e| e.to_string())?;
    let dvs = spec.dvs.build().map_err(|e| e.to_string())?;
    let mut out = String::new();
    for t in set.tasks() {
        out.push_str(&format!(
            "{:<16} N={:<8.0} T={:<8} D={:<8} WCET_k({}) = {:.0}\n",
            t.name,
            t.wcet_cycles,
            t.period,
            t.deadline,
            spec.k,
            k_fault_wcet(t.wcet_cycles, costs.cscp_cycles(), spec.k)
        ));
    }
    let density = edf_density(&set, &costs, spec.k, spec.speed);
    out.push_str(&format!(
        "hyperperiod = {}\nEDF density at f={} : {:.3} → {}\n",
        set.hyperperiod(),
        spec.speed,
        density,
        if density <= 1.0 {
            "feasible"
        } else {
            "INFEASIBLE"
        }
    ));
    match rm_response_times(&set, &costs, spec.k, spec.speed) {
        Some(r) => {
            out.push_str("RM response times:\n");
            for (t, resp) in set.tasks().iter().zip(&r) {
                out.push_str(&format!(
                    "  {:<16} R = {resp:.0} (D = {})\n",
                    t.name, t.deadline
                ));
            }
        }
        None => out.push_str("RM: not schedulable\n"),
    }
    // How much fault tolerance the set can afford: EDF density and the
    // slowest feasible DVS level for every k up to the spec's target.
    out.push_str("k-fault sensitivity (EDF density, minimum feasible DVS level):\n");
    for k in 0..=spec.k {
        let d = edf_density(&set, &costs, k, spec.speed);
        let min_speed = match minimum_feasible_speed(&set, &costs, k, &dvs) {
            Some(idx) => format!("f{}", idx + 1),
            None => "infeasible at every level".to_owned(),
        };
        out.push_str(&format!(
            "  k={k}: density(f={}) = {d:.3}, min level = {min_speed}\n",
            spec.speed
        ));
    }
    Ok(out)
}

/// `eacp executive`: simulate the resolved [`ExecutiveSpec`] over N
/// hyperperiods of non-preemptive EDF and report per-task deadline
/// misses, energy and checkpoint totals. `--mc` runs N seeded horizons
/// through the replication engine instead (`cmd_executive_mc`);
/// `--sweep grid.json` expands an executive sweep document
/// (`cmd_executive_sweep`).
pub fn cmd_executive(o: &Options) -> Result<String, String> {
    if !o.sweep.is_empty() {
        return cmd_executive_sweep(o);
    }
    if o.mc {
        return cmd_executive_mc(o);
    }
    let spec = executive_spec(o)?;
    if o.emit_spec {
        return Ok(spec.to_json_string());
    }
    let (_, report) = eacp_exec::run_executive(&spec).map_err(|e| e.to_string())?;
    if o.json {
        return Ok(report.to_json_string());
    }
    let s = &report.summary;
    let mut out = format!(
        "executive {}: {} task(s), hyperperiod {} × {} = horizon {:.0}\n\
         jobs={} misses={} (ratio {:.3}) energy={}\n\
         faults={} rollbacks={} checkpoints: SCP={} CCP={} CSCP={}\n",
        report.spec.name,
        report.tasks.len(),
        s.hyperperiod,
        report.spec.hyperperiods,
        s.horizon,
        s.jobs,
        s.deadline_misses,
        s.miss_ratio,
        Energy(s.total_energy),
        s.faults,
        s.rollbacks,
        s.checkpoints.store,
        s.checkpoints.compare,
        s.checkpoints.compare_store,
    );
    for (t, policy) in report.tasks.iter().zip(&report.policy_names) {
        out.push_str(&format!(
            "  {:<20} {:<6} {:>3} jobs  {:>3} misses  E={:<10} faults={:<4} worst R={:.0}\n",
            t.name,
            policy,
            t.jobs,
            t.deadline_misses,
            Energy(t.energy),
            t.faults,
            t.worst_response,
        ));
    }
    Ok(out)
}

/// `eacp executive --mc`: Monte-Carlo over seeded executive horizons —
/// replication `i` runs one whole hyperperiod horizon with
/// `replication_seed(spec.seed, i)` and the per-horizon observations are
/// folded into a mergeable [`eacp_exec::ExecutiveSummary`].
///
/// The Monte-Carlo flags (`--reps`, `--threads`, `--queue --workers
/// --endpoints`) are folded into the spec's `mc` section, so `--emit-spec`
/// reproduces exactly what this command executes and spec validation is
/// the one check that rejects a fleet; with a store configured the cell is
/// served byte-identical to recomputation.
fn cmd_executive_mc(o: &Options) -> Result<String, String> {
    let mut spec = executive_spec(o)?;
    spec.mc = Some(spec.mc_or_default());
    set_run_flags(o, &mut spec);
    spec.validate().map_err(|e| e.to_string())?;
    if o.emit_spec {
        return Ok(spec.to_json_string());
    }
    let (_, report, note) = run_cell(o, &spec)?;
    if o.json {
        // Byte-identical on hit and miss; cache telemetry stays out.
        return Ok(report.to_json_string());
    }
    let s = &report.summary;
    let sd = |stats: &eacp_numerics::OnlineStats| stats.population_variance().sqrt();
    let horizons = s.horizons.max(1) as f64;
    let mut out = format!(
        "executive mc {}: {} seeded horizons × {} hyperperiod(s), {} task(s)\n\
         miss ratio = {:.4} (sd {:.4})  E(horizon) = {} (sd {})\n\
         jobs/horizon = {:.1}  faults/horizon = {:.2}  rollbacks/horizon = {:.2}\n\
         checkpoints/horizon: SCP={:.1} CCP={:.1} CSCP={:.1}\n",
        report.spec.name,
        s.horizons,
        report.spec.hyperperiods,
        report.spec.tasks.len(),
        s.mean_miss_ratio(),
        sd(&s.miss_ratio),
        Energy(s.mean_energy()),
        Energy(sd(&s.energy)),
        s.jobs as f64 / horizons,
        s.horizon_faults.mean(),
        s.horizon_rollbacks.mean(),
        s.checkpoints.store as f64 / horizons,
        s.checkpoints.compare as f64 / horizons,
        s.checkpoints.compare_store as f64 / horizons,
    );
    for ((task, agg), policy) in report
        .spec
        .tasks
        .tasks
        .iter()
        .zip(&s.per_task)
        .zip(&report.policy_names)
    {
        out.push_str(&format!(
            "  {:<20} {:<6} {:>6} jobs  {:>4} misses  E={:<12} faults={:<6} worst R={:.0}\n",
            task.name,
            policy,
            agg.jobs,
            agg.deadline_misses,
            Energy(agg.energy),
            agg.faults,
            agg.worst_response,
        ));
    }
    out.push_str(&note);
    Ok(out)
}

/// `eacp executive --sweep grid.json`: expand an executive [`Grid`] and
/// run every grid point (or one `--shard i/n` of it) as an executive
/// Monte-Carlo, through the same grid command as `eacp sweep`.
fn cmd_executive_sweep(o: &Options) -> Result<String, String> {
    if !o.spec.is_empty() || !o.preset.is_empty() || !o.tasks.is_empty() {
        return Err(
            "executive --sweep: the sweep document embeds its base spec — drop \
             --spec/--preset/--tasks"
                .to_owned(),
        );
    }
    if o.queue {
        // The same check `executive --mc` gets from its spec: executive
        // horizons cannot ship to a fleet.
        let mc = ExecutiveMcSpec {
            queue: Some(queue_spec_of(o)),
            ..ExecutiveMcSpec::default()
        };
        mc.validate().map_err(|e| e.to_string())?;
    }
    cmd_grid::<ExecutiveSpec>(o, &o.sweep)
}

/// `eacp serve`: run one stateless block server for the remote fleet.
///
/// Accepts framed `run_block` requests (spec + a replication range and
/// its canonical block size), executes them in-process and sends one
/// `Summary` per block back. Serves until the process is killed; the
/// client's lease retry absorbs that.
///
/// # Errors
///
/// Returns a message when `--listen` is missing or the bind fails.
pub fn cmd_serve(o: &Options) -> Result<String, String> {
    if o.listen.is_empty() {
        return Err("serve requires --listen HOST:PORT (use port 0 for an ephemeral port)".into());
    }
    eacp_exec::serve_blocking(&o.listen, |endpoint| {
        // Announce readiness on stdout so orchestration (CI fleet-smoke,
        // shell scripts) can scrape the bound address, then serve forever.
        println!("eacp serve: listening on {endpoint}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
    })
    .map_err(|e| e.to_string())?;
    Ok(String::new())
}

// Flag groups. A command lists the groups it reads; the groups' order is
// the order in which an unread flag is looked for.
const SHAPE: &[&str] = &[
    "--scheme",
    "--util",
    "--deadline",
    "--variant",
    "--lambda",
    "--k",
    "--speed",
    "--hyperperiods",
];
const SEED: &[&str] = &["--seed"];
const SPEC: &[&str] = &["--spec"];
const PRESET: &[&str] = &["--preset"];
const TASKS: &[&str] = &["--tasks"];
const MC: &[&str] = &["--reps", "--threads"];
const QUEUE: &[&str] = &["--queue", "--workers", "--endpoints", "--timeout-ms"];
const STORE: &[&str] = &["--store", "--no-cache"];
const REFRESH: &[&str] = &["--refresh"];
const ANALYTIC: &[&str] = &["--no-analytic"];
const SHARD: &[&str] = &["--shard"];
const JSON: &[&str] = &["--json"];
const OUT: &[&str] = &["--out"];
const EMIT: &[&str] = &["--emit-spec"];
const TRACE: &[&str] = &["--trace"];
const MODES: &[&str] = &["--mc", "--sweep"];
const LISTEN: &[&str] = &["--listen"];
const RETENTION: &[&str] = &["--max-entries", "--max-bytes", "--sample"];
const ANALYZE: &[&str] = &["--util", "--deadline", "--variant", "--lambda", "--k"];
const FLAG_GROUPS: &[&[&str]] = &[
    SHAPE, SEED, SPEC, PRESET, TASKS, MC, QUEUE, STORE, REFRESH, ANALYTIC, SHARD, JSON, OUT, EMIT,
    TRACE, MODES, LISTEN, RETENTION,
];

/// The first flag passed that none of `reads` holds, in [`FLAG_GROUPS`]
/// order.
fn unread_flag(o: &Options, reads: &[&[&str]]) -> Option<&'static str> {
    FLAG_GROUPS
        .iter()
        .flat_map(|group| group.iter().copied())
        .find(|&flag| o.has(flag) && !reads.iter().any(|group| group.contains(&flag)))
}

/// One subcommand: its parsed options in, its stdout text or a
/// user-facing error out.
type Command = fn(&Options) -> Result<String, String>;

/// Dispatches a full command line (without the program name). A flag the
/// command does not read is an error naming the flag and the command,
/// never silently dropped.
///
/// # Errors
///
/// Returns a user-facing message on any parse or execution failure.
pub fn dispatch(args: Vec<String>) -> Result<String, String> {
    let Some(cmd) = args.first().cloned() else {
        return Ok(USAGE.to_owned());
    };
    let (run, reads): (Command, &[&[&str]]) = match cmd.as_str() {
        // One seeded execution: no replications to count, thread or queue.
        "run" => (
            cmd_run,
            &[SHAPE, SEED, SPEC, PRESET, STORE, REFRESH, EMIT, TRACE],
        ),
        "mc" => (
            cmd_mc,
            &[
                SHAPE, SEED, SPEC, PRESET, MC, QUEUE, STORE, REFRESH, ANALYTIC, JSON, EMIT,
            ],
        ),
        "sweep" => (
            cmd_sweep,
            &[
                SHAPE, SEED, SPEC, MC, QUEUE, STORE, REFRESH, ANALYTIC, SHARD, JSON, OUT, EMIT,
            ],
        ),
        "serve" => (cmd_serve, &[LISTEN]),
        "merge" => (cmd_merge, &[OUT]),
        "queue" => (cmd_queue, &[]),
        "store" => (cmd_store, &[SHAPE, SEED, SPEC, MC, STORE, RETENTION]),
        "csv" => (cmd_csv, &[OUT]),
        "analyze" => (cmd_analyze, &[ANALYZE]),
        "table" => (
            cmd_table,
            &[SEED, MC, QUEUE, STORE, REFRESH, ANALYTIC, JSON, OUT, EMIT],
        ),
        "feasibility" => (cmd_feasibility, &[SHAPE, SEED, SPEC, PRESET, TASKS, EMIT]),
        "executive" => (
            cmd_executive,
            &[
                SHAPE, SEED, SPEC, PRESET, TASKS, MC, QUEUE, STORE, REFRESH, SHARD, JSON, OUT,
                EMIT, MODES,
            ],
        ),
        "presets" => (|_| Ok(cmd_presets()), &[]),
        "--help" | "-h" | "help" => return Ok(USAGE.to_owned()),
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    let o = parse_options(args.into_iter().skip(1))?;
    if let Some(flag) = unread_flag(&o, reads) {
        return Err(format!(
            "{cmd}: {flag} does not apply to this command (see `eacp --help`)"
        ));
    }
    run(&o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let o = parse_options(args("--scheme a_d --util 0.8 --k 3 --trace").into_iter()).unwrap();
        assert_eq!(o.scheme, "a_d");
        assert_eq!(o.util, 0.8);
        assert_eq!(o.k, 3);
        assert!(o.trace);
        assert_eq!(o.lambda, 1.4e-3); // default retained
        assert!(o.has("--scheme") && o.has("--trace") && !o.has("--lambda"));
    }

    #[test]
    fn every_flag_belongs_to_a_group() {
        // A flag outside every group would never be checked against the
        // command reading it: each one the usage text names must be in one.
        for word in USAGE.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if word.starts_with("--") && word.len() > 2 && word != "--help" {
                assert!(
                    FLAG_GROUPS.iter().any(|group| group.contains(&word)),
                    "{word} is in no flag group"
                );
            }
        }
    }

    #[test]
    fn energies_print_whole_below_the_threshold_and_scientific_above() {
        assert_eq!(Energy(39_123.6).to_string(), format!("{:.0}", 39_123.6));
        assert_eq!(format!("{:>12}|", Energy(149_458.0)), "      149458|");
        assert_eq!(format!("{:<10}|", Energy(-0.4)), "-0        |");
        assert_eq!(Energy(999_999_999_999_999.0).to_string(), "999999999999999");
        assert_eq!(Energy(1e15).to_string(), "1.000000e15");
        assert_eq!(Energy(-2.5e300).to_string(), "-2.500000e300");
        assert_eq!(Energy(f64::INFINITY).to_string(), "inf");
        assert_eq!(Energy(f64::NAN).to_string(), "NaN");
    }

    #[test]
    fn parse_rejects_unknown_flag() {
        assert!(parse_options(args("--bogus 1").into_iter()).is_err());
    }

    #[test]
    fn parse_rejects_bad_variant() {
        assert!(parse_options(args("--variant xyz").into_iter()).is_err());
    }

    #[test]
    fn parse_validates_fleet_flags() {
        // --endpoints rides on --queue, --timeout-ms on --endpoints, and
        // a list that trims away to nothing is an error, not a silent
        // in-process run.
        assert!(parse_options(args("--endpoints 127.0.0.1:7117").into_iter()).is_err());
        assert!(parse_options(args("--queue --timeout-ms 500").into_iter()).is_err());
        assert!(parse_options(
            ["--queue", "--endpoints", " , ,"]
                .map(str::to_owned)
                .into_iter()
        )
        .is_err());
        let o = parse_options(
            args("--queue --workers 4 --endpoints a:1,b:2 --timeout-ms 500").into_iter(),
        )
        .unwrap();
        assert_eq!(o.endpoints, "a:1,b:2");
        assert_eq!(o.timeout_ms, 500);
        // The desugared spec splits, trims and drops empty entries.
        let q = queue_spec_of(&o);
        assert_eq!(q.endpoints, vec!["a:1".to_owned(), "b:2".to_owned()]);
        assert_eq!(q.timeout_ms, 500);
        assert_eq!(q.workers, 4);
    }

    #[test]
    fn serve_requires_listen() {
        let err = dispatch(args("serve")).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
    }

    #[test]
    fn executive_rejects_endpoints() {
        let err = dispatch(args(
            "executive --preset avionics-trio --mc --queue --endpoints 127.0.0.1:7117",
        ))
        .unwrap_err();
        assert!(err.contains("not supported"), "{err}");

        // A spec file naming endpoints fails the same spec check instead
        // of silently running in-process.
        let dir = temp_store("exec-endpoints");
        std::fs::create_dir_all(&dir).unwrap();
        let emitted = dispatch(args(
            "executive --preset avionics-trio --mc --reps 4 --queue --emit-spec",
        ))
        .unwrap();
        let mut spec = ExecutiveSpec::from_json_str(&emitted).unwrap();
        if let Some(q) = spec.mc.as_mut().and_then(|mc| mc.queue.as_mut()) {
            q.endpoints = vec!["127.0.0.1:9".into()];
            q.timeout_ms = 200;
        }
        let path = dir.join("fleet-mc.json");
        std::fs::write(&path, spec.to_json_string()).unwrap();
        let err = dispatch(args(&format!(
            "executive --spec {} --mc --json",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("endpoints"), "{err}");

        // So does an executive sweep asked to use a fleet.
        let sweep = write_executive_sweep(&dir);
        let err = dispatch(args(&format!(
            "executive --sweep {} --queue --endpoints 127.0.0.1:9",
            sweep.display()
        )))
        .unwrap_err();
        assert!(err.contains("not supported"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_command_produces_report() {
        let out = dispatch(args("run --seed 7")).unwrap();
        assert!(out.contains("scheme=A_D_S"));
        assert!(out.contains("energy="));
    }

    #[test]
    fn run_with_trace_renders_timeline() {
        let out = dispatch(args("run --util 0.3 --lambda 1e-3 --trace --seed 3")).unwrap();
        assert!(out.contains("compute @f"), "no timeline in:\n{out}");
    }

    #[test]
    fn mc_command_reports_ci() {
        let out = dispatch(args("mc --reps 200 --scheme poisson")).unwrap();
        assert!(out.contains("95% CI"));
        assert!(out.contains("anomalies = 0"));
    }

    #[test]
    fn mc_json_emits_full_report() {
        let out = dispatch(args("mc --reps 50 --json")).unwrap();
        let doc = eacp_spec::Json::parse(&out).unwrap();
        assert_eq!(doc.req("policy").unwrap().as_str().unwrap(), "A_D_S");
        assert_eq!(
            doc.req("summary")
                .unwrap()
                .req("replications")
                .unwrap()
                .as_u64()
                .unwrap(),
            50
        );
        // The embedded spec reproduces the run.
        use eacp_spec::FromJson;
        let spec = ExperimentSpec::from_json(doc.req("spec").unwrap()).unwrap();
        assert_eq!(spec.mc.replications, 50);
    }

    #[test]
    fn mc_preset_runs_named_experiments() {
        let out = dispatch(args("mc --preset battery-budget --reps 60")).unwrap();
        assert!(out.contains("scheme=A_D_S"), "{out}");
        assert!(dispatch(args("mc --preset nope")).is_err());
    }

    #[test]
    fn emit_spec_round_trips_through_mc() {
        let emitted =
            dispatch(args("mc --emit-spec --reps 80 --scheme a_d --lambda 2e-3")).unwrap();
        let spec = ExperimentSpec::from_json_str(&emitted).unwrap();
        assert_eq!(spec.mc.replications, 80);
        assert_eq!(spec.policy.tag(), "a_d");
        match spec.faults {
            FaultSpec::Poisson { lambda } => assert_eq!(lambda, 2e-3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spec_file_drives_mc_and_flags_override_it() {
        let dir = std::env::temp_dir().join("eacp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc.replications = 40;
        spec.save(&path).unwrap();
        let p = path.to_str().unwrap();

        let out = dispatch(args(&format!("mc --spec {p}"))).unwrap();
        assert!(out.contains("reps=40"), "{out}");
        // Flag overrides the file.
        let out = dispatch(args(&format!("mc --spec {p} --reps 30 --scheme kft"))).unwrap();
        assert!(out.contains("reps=30"), "{out}");
        assert!(out.contains("scheme=k-f-t"), "{out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn analyze_command_matches_paper_operating_point() {
        let out = dispatch(args("analyze")).unwrap();
        assert!(out.contains("chosen speed = f2"), "{out}");
        assert!(out.contains("num_SCP"));
    }

    #[test]
    fn analyze_ccp_variant_uses_num_ccp() {
        let out = dispatch(args("analyze --variant ccp")).unwrap();
        assert!(out.contains("num_CCP"));
    }

    #[test]
    fn table_command_requires_number() {
        assert!(dispatch(args("table")).is_err());
        assert!(dispatch(args("table 9")).is_err());
        let out = dispatch(args("table 1 --reps 30")).unwrap();
        assert!(out.contains("Table 1"));
        assert!(out.contains("vs paper"));
    }

    #[test]
    fn table_json_report_is_parsable() {
        let out = dispatch(args("table 1 --reps 20 --json")).unwrap();
        let doc = eacp_spec::Json::parse(&out).unwrap();
        assert_eq!(doc.req("cells").unwrap().as_array().unwrap().len(), 14);
    }

    #[test]
    fn sweep_command_runs_grids() {
        use eacp_spec::{Axis, Knob, SweepSpec};
        let dir = std::env::temp_dir().join("eacp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "grid".into();
        base.mc.replications = 30;
        let sweep = SweepSpec {
            base,
            axes: vec![Axis::new(Knob::Lambda, vec![1.0e-4, 1.4e-3])],
        };
        std::fs::write(&path, sweep.to_json_string()).unwrap();
        let p = path.to_str().unwrap();

        let out = dispatch(args(&format!("sweep --spec {p}"))).unwrap();
        assert!(out.contains("sweep over 2 points"), "{out}");
        assert!(out.contains("grid-l0.0001"), "{out}");

        let json = dispatch(args(&format!("sweep --spec {p} --json"))).unwrap();
        let doc = eacp_spec::Json::parse(&json).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();

        assert!(dispatch(args("sweep")).is_err());
    }

    #[test]
    fn presets_command_lists_known_names() {
        let out = dispatch(args("presets")).unwrap();
        for name in eacp_spec::preset_names() {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn feasibility_parses_task_lists() {
        let set = parse_taskset("a:100:1000,b:200:2000:1500").unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.tasks()[1].deadline, 1500);
        assert!(parse_taskset("").is_err());
        assert!(parse_taskset("a:1").is_err());
        assert!(parse_taskset("a:x:1000").is_err());
    }

    #[test]
    fn feasibility_command_end_to_end() {
        let out = dispatch(args(
            "feasibility --tasks ctrl:900:5000,tele:2600:20000 --k 2",
        ))
        .unwrap();
        assert!(out.contains("EDF density"));
        assert!(out.contains("feasible"));
        assert!(out.contains("RM response times"));
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(vec![]).unwrap().contains("USAGE"));
        assert!(dispatch(args("help")).unwrap().contains("USAGE"));
        assert!(dispatch(args("frobnicate")).is_err());
    }

    #[test]
    fn unknown_scheme_is_rejected() {
        assert!(dispatch(args("run --scheme nope")).is_err());
    }

    #[test]
    fn all_eight_schemes_run_from_flags() {
        for tag in PolicySpec::TAGS {
            let out = dispatch(args(&format!("mc --reps 20 --scheme {tag}")))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(out.contains("anomalies = 0"), "{tag}:\n{out}");
        }
    }

    #[test]
    fn scheme_override_preserves_loaded_k_and_lambda() {
        // table1-b has k = 1, λ = 1e-4; switching the scheme must not
        // silently reset them to the flag defaults (k = 5, λ = 1.4e-3).
        let emitted = dispatch(args("mc --emit-spec --preset table1-b --scheme a_d")).unwrap();
        let spec = ExperimentSpec::from_json_str(&emitted).unwrap();
        assert_eq!(spec.policy.tag(), "a_d");
        assert_eq!(spec.policy.k(), Some(1));
        match spec.faults {
            FaultSpec::Poisson { lambda } => assert_eq!(lambda, 1.0e-4),
            other => panic!("unexpected {other:?}"),
        }
        // An explicit --k still wins.
        let emitted =
            dispatch(args("mc --emit-spec --preset table1-b --scheme a_d --k 3")).unwrap();
        let spec = ExperimentSpec::from_json_str(&emitted).unwrap();
        assert_eq!(spec.policy.k(), Some(3));
    }

    #[test]
    fn run_emit_spec_reproduces_the_flag_run_exactly() {
        // The flag-driven `run` uses the physical executor; its emitted
        // spec must encode that, so replaying the file gives the same
        // output (modulo nothing — byte-identical).
        let emitted = dispatch(args("run --emit-spec --seed 7")).unwrap();
        let spec = ExperimentSpec::from_json_str(&emitted).unwrap();
        assert!(spec.executor.faults_during_overhead, "run is physical");

        let direct = dispatch(args("run --seed 7")).unwrap();
        let dir = std::env::temp_dir().join("eacp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-spec.json");
        std::fs::write(&path, &emitted).unwrap();
        let replayed = dispatch(args(&format!("run --spec {}", path.to_str().unwrap()))).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(direct, replayed);
    }

    #[test]
    fn run_header_reports_the_spec_k_not_the_flag_default() {
        let out = dispatch(args("run --preset table1-b")).unwrap();
        assert!(out.contains("k=1"), "{out}");
        // Schemes without a fault-tolerance target show "-".
        let out = dispatch(args("run --scheme poisson")).unwrap();
        assert!(out.contains("k=-"), "{out}");
    }

    #[test]
    fn sweep_honors_mc_flags_and_rejects_shape_flags() {
        use eacp_spec::{Axis, Knob, SweepSpec};
        let dir = std::env::temp_dir().join("eacp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-flags.json");
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "grid".into();
        base.mc.replications = 20;
        let sweep = SweepSpec {
            base,
            axes: vec![Axis::new(Knob::Seed, vec![5, 6])],
        };
        std::fs::write(&path, sweep.to_json_string()).unwrap();
        let p = path.to_str().unwrap().to_owned();

        // --seed applies to the base (the Seed axis then overrides per
        // point, so the run still succeeds)...
        assert!(dispatch(args(&format!("sweep --spec {p} --seed 9"))).is_ok());
        // ...but experiment-shaping flags are rejected loudly, not
        // silently dropped.
        let err = dispatch(args(&format!("sweep --spec {p} --lambda 2e-3"))).unwrap_err();
        assert!(err.contains("--lambda"), "{err}");
        let err = dispatch(args(&format!("sweep --spec {p} --scheme a_d"))).unwrap_err();
        assert!(err.contains("--scheme"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_flags_are_validated() {
        assert!(parse_options(args("--no-cache --refresh").into_iter()).is_err());
        assert!(parse_options(args("--store d --no-cache").into_iter()).is_err());
        // --refresh needs a store; checked at resolution, not parse, so
        // $EACP_STORE can still satisfy it.
        let err = dispatch(args("mc --refresh --reps 30")).unwrap_err();
        assert!(err.contains("--refresh"), "{err}");
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eacp-cli-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mc_store_serves_hits_byte_identical() {
        let dir = temp_store("mc");
        let s = dir.to_str().unwrap();
        let line = format!("mc --reps 50 --seed 9 --threads 1 --store {s}");
        let cold = dispatch(args(&line)).unwrap();
        assert!(
            cold.contains("store: miss — computed and recorded"),
            "{cold}"
        );
        let warm = dispatch(args(&line)).unwrap();
        assert!(
            warm.contains("store: hit — served from the store"),
            "{warm}"
        );

        // The JSON report document is byte-identical on hit and miss and
        // carries no cache telemetry.
        let json_line = format!("{line} --json");
        let a = dispatch(args(&json_line)).unwrap();
        let b = dispatch(args(&json_line)).unwrap();
        assert_eq!(a, b);
        assert!(!a.contains("store:"), "{a}");

        let refreshed = dispatch(args(&format!("{line} --refresh"))).unwrap();
        assert!(refreshed.contains("store: refreshed"), "{refreshed}");
        // --no-cache computes without consulting the configured store.
        let bypassed = dispatch(args("mc --reps 50 --seed 9 --threads 1 --no-cache")).unwrap();
        assert!(!bypassed.contains("store:"), "{bypassed}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_store_caches_single_executions_but_not_traces() {
        let dir = temp_store("run");
        let s = dir.to_str().unwrap();
        let line = format!("run --seed 7 --store {s}");
        let cold = dispatch(args(&line)).unwrap();
        assert!(cold.contains("store: miss"), "{cold}");
        let warm = dispatch(args(&line)).unwrap();
        assert!(warm.contains("store: hit"), "{warm}");
        // Identical execution report either way (modulo the cache note).
        assert_eq!(
            cold.replace("store: miss — computed and recorded", ""),
            warm.split("store: hit").next().unwrap().to_owned() + "\n",
        );
        // A traced run needs the live event stream: no cache note.
        let traced = dispatch(args(&format!("{line} --trace"))).unwrap();
        assert!(!traced.contains("store:"), "{traced}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_store_resumes_and_store_subcommands_inspect_it() {
        use eacp_spec::{Axis, Knob, SweepSpec};
        let dir = temp_store("sweep");
        let s = dir.to_str().unwrap();
        let spec_path = dir.join("sweep.json");
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "grid".into();
        base.mc.replications = 30;
        base.mc.threads = 1;
        let sweep = SweepSpec {
            base,
            axes: vec![Axis::new(Knob::Lambda, vec![1.0e-4, 1.4e-3])],
        };
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&spec_path, sweep.to_json_string()).unwrap();
        let p = spec_path.to_str().unwrap();

        // "Interrupted": only shard 0 of 2 lands in the store.
        let out = dispatch(args(&format!("sweep --spec {p} --shard 0/2 --store {s}"))).unwrap();
        assert!(out.contains("store: 0 served, 1 computed"), "{out}");

        let status = dispatch(args(&format!("store status --spec {p} --store {s}"))).unwrap();
        assert!(status.contains("entries: 1"), "{status}");
        assert!(
            status.contains("covered 1/2 points; missing: [1]"),
            "{status}"
        );
        assert!(status.contains("incomplete"), "{status}");

        // Resume over the full grid: the finished half is served.
        let resumed = dispatch(args(&format!("sweep --spec {p} --store {s}"))).unwrap();
        assert!(resumed.contains("store: 1 served, 1 computed"), "{resumed}");
        let plain = dispatch(args(&format!("sweep --spec {p}"))).unwrap();
        assert_eq!(resumed.replace(", store: 1 served, 1 computed", ""), plain);

        let status = dispatch(args(&format!("store status --spec {p} --store {s}"))).unwrap();
        assert!(
            status.contains("complete — a store-backed sweep is served"),
            "{status}"
        );

        // verify recomputes every cell and matches bytes; gc prunes.
        let verified = dispatch(args(&format!("store verify --store {s}"))).unwrap();
        assert!(verified.contains("verified 2 of 2 entries"), "{verified}");
        let gc = dispatch(args(&format!("store gc --max-entries 1 --store {s}"))).unwrap();
        assert!(gc.contains("evicted 1"), "{gc}");
        assert!(dispatch(args(&format!("store gc --store {s}"))).is_err());
        assert!(dispatch(args(&format!("store bogus --store {s}"))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    const EXEC_DUO: &str = "--tasks sensor:500:4000,control:1200:8000 --lambda 8e-4 --k 2 \
                            --hyperperiods 2 --seed 7";

    #[test]
    fn executive_mc_reports_distributions_and_is_runner_invariant() {
        let out = dispatch(args(&format!(
            "executive {EXEC_DUO} --mc --reps 12 --threads 1"
        )))
        .unwrap();
        assert!(out.contains("executive mc"), "{out}");
        assert!(out.contains("12 seeded horizons"), "{out}");
        assert!(out.contains("miss ratio ="), "{out}");
        assert!(out.contains("sensor"), "{out}");

        // Runner placement (threads, queue workers) never changes a bit
        // of the Monte-Carlo aggregate.
        let summary_of = |line: &str| {
            let doc = Json::parse(&dispatch(args(line)).unwrap()).unwrap();
            doc.req("summary").unwrap().pretty()
        };
        let single = summary_of(&format!(
            "executive {EXEC_DUO} --mc --reps 12 --threads 1 --json"
        ));
        let multi = summary_of(&format!(
            "executive {EXEC_DUO} --mc --reps 12 --threads 4 --json"
        ));
        let queued = summary_of(&format!(
            "executive {EXEC_DUO} --mc --reps 12 --queue --workers 3 --json"
        ));
        assert_eq!(single, multi);
        assert_eq!(single, queued);
    }

    #[test]
    fn executive_mc_emit_spec_records_the_scheduling_choice() {
        let emitted = dispatch(args(&format!(
            "executive {EXEC_DUO} --mc --reps 9 --queue --workers 2 --emit-spec"
        )))
        .unwrap();
        let spec = ExecutiveSpec::from_json_str(&emitted).unwrap();
        let mc = spec.mc.expect("mc section recorded");
        assert_eq!(mc.replications, 9);
        assert_eq!(mc.queue.map(|q| q.workers), Some(2));
    }

    #[test]
    fn executive_mc_store_serves_hits_byte_identical() {
        let dir = temp_store("exec-mc");
        let s = dir.to_str().unwrap();
        let line = format!("executive {EXEC_DUO} --mc --reps 10 --threads 1 --store {s}");
        let cold = dispatch(args(&line)).unwrap();
        assert!(cold.contains("store: miss"), "{cold}");
        let warm = dispatch(args(&line)).unwrap();
        assert!(warm.contains("store: hit"), "{warm}");
        // The JSON report document is byte-identical on hit and miss.
        let json_line = format!("{line} --json");
        let a = dispatch(args(&json_line)).unwrap();
        let b = dispatch(args(&json_line)).unwrap();
        assert_eq!(a, b);
        assert!(!a.contains("store:"), "{a}");
        let verified = dispatch(args(&format!("store verify --store {s}"))).unwrap();
        assert!(verified.contains("verified 1 of 1 entries"), "{verified}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn write_executive_sweep(dir: &std::path::Path) -> std::path::PathBuf {
        use eacp_spec::{Axis, ExecutiveSpec, Grid, Knob};
        let mut base = executive_preset("avionics-trio").unwrap();
        base.name = "exec-grid".into();
        base.hyperperiods = 2;
        base.mc = Some(ExecutiveMcSpec {
            replications: 8,
            threads: 1,
            queue: None,
        });
        let sweep = Grid::<ExecutiveSpec> {
            base,
            axes: vec![Axis::new(Knob::Lambda, vec![2.0e-4, 1.0e-3])],
        };
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("exec-sweep.json");
        std::fs::write(&path, sweep.to_json_string()).unwrap();
        path
    }

    #[test]
    fn executive_sweep_shards_merge_and_render_like_experiment_sweeps() {
        let dir = temp_store("exec-sweep");
        let spec_path = write_executive_sweep(&dir);
        let p = spec_path.to_str().unwrap();

        let full = dispatch(args(&format!("executive --sweep {p}"))).unwrap();
        assert!(full.contains("executive sweep over 2 points"), "{full}");
        assert!(full.contains("exec-grid-l0.0002"), "{full}");

        // Shards collect into a report directory; status/merge/csv all
        // detect the executive document shape.
        let reports = dir.join("reports");
        for shard in ["0/2", "1/2"] {
            let out = dispatch(args(&format!(
                "executive --sweep {p} --shard {shard} --out {}",
                reports.display()
            )))
            .unwrap();
            assert!(out.contains("1 of 2 grid points"), "{out}");
        }
        let status = dispatch(args(&format!("queue status {}", reports.display()))).unwrap();
        assert!(status.contains("covered 2/2 points"), "{status}");
        assert!(status.contains("ready to merge"), "{status}");

        let merged_path = dir.join("merged.json");
        let merged = dispatch(args(&format!(
            "merge {} --out {}",
            reports.display(),
            merged_path.display()
        )))
        .unwrap();
        assert!(merged.contains("merged 2 grid points"), "{merged}");

        let csv = dispatch(args(&format!("csv {}", reports.display()))).unwrap();
        assert!(
            csv.starts_with("index,experiment,policies,horizons"),
            "{csv}"
        );
        assert!(csv.contains("exec-grid-l0.0002"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "{csv}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn executive_sweep_store_resumes_byte_identically() {
        let dir = temp_store("exec-resume");
        let spec_path = write_executive_sweep(&dir);
        let p = spec_path.to_str().unwrap();
        let s = dir.to_str().unwrap();

        // "Interrupted": only shard 0 of 2 lands in the store.
        let out = dispatch(args(&format!(
            "executive --sweep {p} --shard 0/2 --store {s}"
        )))
        .unwrap();
        assert!(out.contains("store: 0 served, 1 computed"), "{out}");

        let status = dispatch(args(&format!("store status --spec {p} --store {s}"))).unwrap();
        assert!(
            status.contains("covered 1/2 points; missing: [1]"),
            "{status}"
        );
        assert!(status.contains("incomplete"), "{status}");

        // Resume over the full grid: the finished half is served, and the
        // report is byte-identical to an uninterrupted run.
        let resumed = dispatch(args(&format!("executive --sweep {p} --store {s}"))).unwrap();
        assert!(resumed.contains("store: 1 served, 1 computed"), "{resumed}");
        let plain = dispatch(args(&format!("executive --sweep {p}"))).unwrap();
        assert_eq!(resumed.replace(", store: 1 served, 1 computed", ""), plain);

        let status = dispatch(args(&format!("store status --spec {p} --store {s}"))).unwrap();
        assert!(status.contains("complete"), "{status}");
        let verified = dispatch(args(&format!("store verify --store {s}"))).unwrap();
        assert!(verified.contains("verified 2 of 2 entries"), "{verified}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn executive_sweep_rejects_shape_overrides() {
        let dir = temp_store("exec-flags");
        let spec_path = write_executive_sweep(&dir);
        let p = spec_path.to_str().unwrap();
        let err = dispatch(args(&format!("executive --sweep {p} --lambda 1e-3"))).unwrap_err();
        assert!(err.contains("--lambda"), "{err}");
        let err = dispatch(args(&format!(
            "executive --sweep {p} --preset avionics-trio"
        )))
        .unwrap_err();
        assert!(err.contains("--spec/--preset/--tasks"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
