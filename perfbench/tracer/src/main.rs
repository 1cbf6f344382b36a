//! In-process companion of `perfbench/run.py`.
//!
//! ```text
//! perfbench-tracer reference <workload> <doc> <out>
//! perfbench-tracer replay    <workload> <doc> <out> [--store DIR] [--endpoints A,B --workers N]
//! perfbench-tracer layers    <workload> <doc> <scratch-dir>
//! ```
//!
//! * `reference` computes the workload's report with `LocalRunner::new(1)`
//!   and writes the exact bytes the `eacp` command prints to `<out>`.
//! * `replay` repeats the workload's timed `eacp` command in this process,
//!   through the program's public functions with timing and counting
//!   wrappers at its trait seams, writes the report to `<out>` and prints
//!   the counts and span totals.
//! * `layers` prints isolated per-call costs of each layer.
//!
//! `reference` and `replay` also print `summary_digest`, a hash of every
//! cell's lossless summary, so a traced run can be checked bit for bit.

#![forbid(unsafe_code)]
// A timing harness reads the clock by design; the workspace's R1
// determinism rule binds the simulation crates, not their measurement.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod engine;
mod probes;

use eacp_exec::{Job, LocalRunner, Observer, QueueRunner, RemoteWorker, Runner, Summary};
use eacp_spec::{
    ExperimentSpec, Json, QueueSpec, RunReport, ServeTier, SpecError, SweepSpec, ToJson,
};
use eacp_store::{CacheMode, FsBackend, StoreBackend, StoreCounters};
use engine::{
    EngineStats, QueueCounter, Summaries, TimingBackend, TimingWorker, TracedRunner, WorkerStats,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench-tracer: {e}");
        std::process::exit(2);
    }
}

/// A workload's input document: one experiment, or a sweep grid.
enum Doc {
    Mc(ExperimentSpec),
    Sweep(SweepSpec),
}

impl Doc {
    fn parse(workload: &str, text: &str) -> Result<Self, SpecError> {
        if workload == "mc-nominal" {
            ExperimentSpec::from_json_str(text).map(Doc::Mc)
        } else {
            SweepSpec::from_json_str(text).map(Doc::Sweep)
        }
    }

    /// The grid; a plain spec is a grid with no axes.
    fn sweep(&self) -> SweepSpec {
        match self {
            Doc::Mc(spec) => SweepSpec {
                base: spec.clone(),
                axes: Vec::new(),
            },
            Doc::Sweep(sweep) => sweep.clone(),
        }
    }

    fn cells(&self) -> Result<Vec<ExperimentSpec>, SpecError> {
        match self {
            Doc::Mc(spec) => Ok(vec![spec.clone()]),
            Doc::Sweep(sweep) => sweep.expand(),
        }
    }

    /// The program's stdout for these reports: one pretty report for `mc`,
    /// a pretty array for `sweep`, then the newline `main` appends.
    fn emit(&self, reports: &[RunReport]) -> String {
        let body = match self {
            Doc::Mc(_) => reports[0].to_json().pretty(),
            Doc::Sweep(_) => Json::Array(reports.iter().map(ToJson::to_json).collect()).pretty(),
        };
        body + "\n"
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn summary_digest(summaries: &[Summary]) -> String {
    let text: String = summaries.iter().map(|s| s.to_json().pretty()).collect();
    hex(&eacp_store::sha256(text.as_bytes()))
}

fn write(path: &Path, text: &str) -> Result<(), SpecError> {
    std::fs::write(path, text).map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))
}

fn read(path: &Path) -> Result<String, SpecError> {
    std::fs::read_to_string(path).map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))
}

fn ns(d: std::time::Duration) -> Json {
    (d.as_nanos() as f64).into()
}

fn run(args: &[String]) -> Result<(), SpecError> {
    let usage = || {
        SpecError::invalid(
            "usage: perfbench-tracer reference|replay|layers <workload> <doc> <path> [options]",
        )
    };
    let [mode, workload, doc_path, path, rest @ ..] = args else {
        return Err(usage());
    };
    let mut store = None;
    let mut endpoints = Vec::new();
    let mut workers = 1usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--store" => store = Some(PathBuf::from(value)),
            "--endpoints" => endpoints = value.split(',').map(str::to_owned).collect(),
            "--workers" => {
                workers = value
                    .parse()
                    .map_err(|e| SpecError::invalid(format!("--workers: {e}")))?
            }
            _ => return Err(usage()),
        }
    }
    let path = Path::new(path);
    match mode.as_str() {
        "reference" => reference(workload, Path::new(doc_path), path),
        "replay" => replay(
            workload,
            Path::new(doc_path),
            path,
            store.as_deref(),
            endpoints,
            workers,
        ),
        "layers" => {
            let doc = Doc::parse(workload, &read(Path::new(doc_path))?)?;
            let probes = probes::run_all(&doc.cells()?, &doc.sweep(), path)?;
            println!("{}", probes.pretty());
            Ok(())
        }
        _ => Err(usage()),
    }
}

fn reference(workload: &str, doc_path: &Path, out: &Path) -> Result<(), SpecError> {
    let doc = Doc::parse(workload, &read(doc_path)?)?;
    let runner = LocalRunner::new(1);
    let mut summaries = Vec::new();
    let mut reports = Vec::new();
    for spec in doc.cells()? {
        let job = Job::from_spec(&spec)?;
        let (summary, served) = match eacp_exec::serve_closed_form(&job) {
            Some(s) => (s, ServeTier::Analytic),
            None => (runner.run(&job)?, ServeTier::Mc),
        };
        let mut report = probes::report_of(&spec, job.policy_name(), &summary);
        report.served = served;
        reports.push(report);
        summaries.push(summary);
    }
    write(out, &doc.emit(&reports))?;
    println!(
        "{}",
        Json::obj([("summary_digest", summary_digest(&summaries).as_str().into())]).pretty()
    );
    Ok(())
}

/// The fleet point runner of `eacp sweep --queue --endpoints`, with a
/// timing worker and a counting queue observer.
struct FleetRunner {
    inner: QueueRunner<TimingWorker<RemoteWorker>>,
    queue: QueueCounter,
    summaries: Arc<Summaries>,
}

impl Runner for FleetRunner {
    fn name(&self) -> &'static str {
        "traced-fleet"
    }

    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        let s = self.inner.run_with(job, &self.queue)?;
        self.summaries.push(&s);
        Ok(s)
    }

    fn run_observed(&self, _job: &Job, _obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        Err(SpecError::invalid(
            "the traced fleet runner has no observed path",
        ))
    }
}

fn replay(
    workload: &str,
    doc_path: &Path,
    out: &Path,
    store: Option<&Path>,
    endpoints: Vec<String>,
    workers: usize,
) -> Result<(), SpecError> {
    let start = Instant::now();
    let text = read(doc_path)?;
    let t = Instant::now();
    let doc = Doc::parse(workload, &text)?;
    let parse = t.elapsed();
    let summaries = Arc::new(Summaries::default());
    let traced = TracedRunner {
        stats: EngineStats::default(),
        summaries: &summaries,
        jobs: engine::Counter::default(),
    };
    let mut fields: Vec<(&'static str, Json)> = Vec::new();
    let reports: Vec<RunReport> = match (&doc, store) {
        (Doc::Mc(spec), None) => vec![eacp_exec::run_point_tiered(&traced, spec, true)?],
        (Doc::Sweep(sweep), Some(dir)) => {
            let backend = TimingBackend::new(FsBackend::open(dir)?, &summaries);
            let grid = eacp_store::run_sweep_cached_tiered(
                sweep,
                None,
                &traced,
                &backend,
                CacheMode::ReadWrite,
                &StoreCounters::new(),
                true,
            )?;
            // Served entries measure themselves; written ones are read back.
            let entry_bytes = if backend.hits.get() > 0 {
                backend.hit_bytes.get() as f64 / backend.hits.get() as f64
            } else {
                let health = backend.health()?;
                health.total_bytes as f64 / health.entries.max(1) as f64
            };
            fields.extend([
                ("gets", backend.gets.get().into()),
                ("get_ns", backend.get_ns.get().into()),
                ("hits", backend.hits.get().into()),
                ("puts", backend.puts.get().into()),
                ("put_ns", backend.put_ns.get().into()),
                ("entry_bytes", entry_bytes.into()),
            ]);
            grid.points.into_iter().map(|p| p.report).collect()
        }
        (Doc::Sweep(sweep), None) if !endpoints.is_empty() => {
            let queue = QueueSpec {
                workers,
                endpoints,
                ..Default::default()
            };
            queue.validate()?;
            let remote = RemoteWorker::from_queue_spec(&queue);
            let lease_timeout = remote.lease_timeout();
            let worker = Arc::new(WorkerStats::default());
            let fleet = FleetRunner {
                inner: QueueRunner::new(queue.workers)
                    .with_max_attempts(queue.max_attempts)
                    .with_worker(TimingWorker {
                        inner: remote,
                        stats: Arc::clone(&worker),
                    })
                    .with_lease_timeout(lease_timeout),
                queue: QueueCounter::default(),
                summaries: Arc::clone(&summaries),
            };
            let grid = eacp_exec::run_sweep_tiered(sweep, None, &fleet, true)?;
            let blocks = worker.block_ns.lock().expect("block times lock").clone();
            fields.extend([
                ("leases", fleet.queue.leases.get().into()),
                ("retries", fleet.queue.retries.get().into()),
                ("blocks", (blocks.len() as u64).into()),
                ("request_bytes", worker.request_bytes.get().into()),
                (
                    "block_ns",
                    Json::Array(blocks.into_iter().map(Json::from).collect()),
                ),
            ]);
            grid.points.into_iter().map(|p| p.report).collect()
        }
        _ => {
            return Err(SpecError::invalid(format!(
                "no replay defined for {workload} with these options"
            )))
        }
    };
    let t = Instant::now();
    let emitted = doc.emit(&reports);
    let emit = t.elapsed();
    write(out, &emitted)?;
    let recorded = summaries.0.lock().expect("summaries lock").clone();
    fields.extend([
        ("summary_digest", summary_digest(&recorded).as_str().into()),
        ("cells", (reports.len() as u64).into()),
        ("jobs", traced.jobs.get().into()),
        ("parse_ns", ns(parse)),
        ("emit_ns", ns(emit)),
        ("body_ns", ns(start.elapsed())),
        ("engine", traced.stats.to_json()),
    ]);
    println!("{}", Json::obj(fields).pretty());
    Ok(())
}
