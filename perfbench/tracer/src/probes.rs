//! Isolated layer probes: the per-call cost of one layer operation on the
//! workload's own cells, each timed in a loop long enough to read a clock
//! reliably and reported as the median of several rounds; and the traced
//! engine and planning passes over the workload's first cells.

use crate::engine::{run_planning, run_traced, EngineStats, PlanStats};
use eacp_core::analysis::{num_ccp, num_scp, OptimizeMethod, RenewalParams};
use eacp_exec::remote::{answer_request, ping, run_block_request};
use eacp_exec::{InProcessWorker, Job, RemoteServer, RemoteWorker, WorkQueue, Worker};
use eacp_faults::{BatchedFaults, FaultProcess};
use eacp_sim::{replication_seed, NoopObserver, Summary};
use eacp_spec::{
    ExperimentSpec, FaultSpec, Json, RunReport, ServeTier, SpecError, SummaryReport, SweepSpec,
    ToJson,
};
use eacp_store::{spec_hash, CellEntry, CellId, FsBackend, StoreBackend};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 5;
const ROUND: Duration = Duration::from_millis(20);
/// The engine probes run whole cells, first to last, until they have run
/// this many replications (every cell of mc-nominal and sweep-replan).
const PROBE_REPS: u64 = 20_000;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nanoseconds per call of `f`: the median over rounds of each round's
/// mean, calling `f` in batches of `batch` between clock reads.
fn per_call_ns(batch: u64, mut f: impl FnMut()) -> f64 {
    let means = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            let mut n = 0u64;
            while t.elapsed() < ROUND {
                for _ in 0..batch {
                    f();
                }
                n += batch;
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(means)
}

fn lambda_of(spec: &ExperimentSpec) -> f64 {
    match spec.faults {
        FaultSpec::Poisson { lambda } => lambda,
        _ => 0.0,
    }
}

/// Every probe, on `cells` (the workload's expanded grid) and `sweep`
/// (its grid document; a single-cell grid for a plain spec).
pub fn run_all(
    cells: &[ExperimentSpec],
    sweep: &SweepSpec,
    scratch: &Path,
) -> Result<Json, SpecError> {
    let cell0 = &cells[0];
    let n = cells.len();
    let mut fields: Vec<(&'static str, Json)> = Vec::new();

    // engine: the program's pooled path, timed per replication, and the
    // planning pass, on the same first cells; both must agree bit for bit.
    let engine = EngineStats::default();
    let plan = Arc::new(PlanStats::default());
    for cell in cells {
        let pooled = run_traced(cell, &engine)?;
        if run_planning(cell, &plan)? != pooled {
            return Err(SpecError::invalid(format!(
                "the planning pass of {} differs from the program's summary",
                cell.name
            )));
        }
        if engine.reps.get() >= PROBE_REPS {
            break;
        }
    }
    fields.push(("probe.engine", engine.to_json()));
    fields.push(("probe.plan", plan.to_json()));

    // fault-model: one arrival, including the per-replication reset share.
    let mut faults = BatchedFaults::new(cell0.faults.build(cell0.mc.seed)?);
    let mut i = 0u64;
    fields.push((
        "faults.arrival_ns",
        per_call_ns(256, || {
            if i.is_multiple_of(64) {
                faults.reset(replication_seed(cell0.mc.seed, i / 64));
            }
            black_box(faults.next_fault());
            i += 1;
        })
        .into(),
    ));

    // core analysis kernels, cold: a fresh interval length every call.
    let costs = cell0.scenario.costs.build()?;
    let params = RenewalParams::new(
        costs.store_cycles,
        costs.compare_cycles,
        costs.rollback_cycles,
        lambda_of(cell0),
    );
    let mut t = 0u64;
    let mut next_t = || {
        t = (t + 37) % 2000;
        50.0 + t as f64
    };
    fields.push((
        "policy.num_scp_ns",
        per_call_ns(64, || {
            black_box(num_scp(
                black_box(next_t()),
                &params,
                OptimizeMethod::PaperClosedForm,
            ));
        })
        .into(),
    ));
    fields.push((
        "policy.num_ccp_ns",
        per_call_ns(64, || {
            black_box(num_ccp(
                black_box(next_t()),
                &params,
                OptimizeMethod::PaperClosedForm,
            ));
        })
        .into(),
    ));

    // exec: job construction and one in-process canonical block.
    let mut k = 0usize;
    fields.push((
        "exec.job_build_us",
        (per_call_ns(8, || {
            black_box(Job::from_spec(&cells[k % n]).expect("validated cell"));
            k += 1;
        }) / 1e3)
            .into(),
    ));
    let job0 = Job::from_spec(cell0)?;
    let block0 = *plan
        .first_block
        .get()
        .ok_or_else(|| SpecError::invalid("the planning pass ran no block"))?;
    let block_summary = InProcessWorker.run_assignment(&job0, block0, 1)?;

    // reduction: folding one outcome, and merging one block's partial.
    let mut replicator = job0.replicator();
    let outcomes: Vec<_> = (block0.lo..block0.hi)
        .map(|rep| replicator.run_replication(rep, &mut NoopObserver))
        .collect();
    let mut acc = Summary::empty();
    let mut a = 0usize;
    fields.push((
        "reduce.absorb_ns",
        per_call_ns(256, || {
            acc.absorb(&outcomes[a % outcomes.len()]);
            a += 1;
        })
        .into(),
    ));
    black_box(&acc);
    let mut total = Summary::empty();
    fields.push((
        "reduce.merge_ns",
        per_call_ns(256, || total.merge(black_box(&block_summary))).into(),
    ));
    black_box(&total);

    // queue: one lease + complete with no payload.
    let lease_ns = median(
        (0..ROUNDS)
            .map(|_| {
                let q = WorkQueue::new(0..4096usize);
                let t = Instant::now();
                while let Some(lease) = q.lease() {
                    q.complete(lease);
                }
                t.elapsed().as_nanos() as f64 / 4096.0
            })
            .collect(),
    );
    fields.push(("queue.lease_us", (lease_ns / 1e3).into()));

    // remote, against an in-process block server on a loopback port.
    let mut wire_spec = cell0.clone();
    wire_spec.executor.queue = None;
    let request = run_block_request(&wire_spec, block0.lo, block0.hi);
    fields.push((
        "probe.remote.encode_us",
        (per_call_ns(4, || {
            black_box(run_block_request(&wire_spec, block0.lo, block0.hi));
        }) / 1e3)
            .into(),
    ));
    let server = RemoteServer::bind("127.0.0.1:0")?;
    let endpoint = server.endpoint().to_owned();
    fields.push((
        "probe.remote.rtt_us",
        (per_call_ns(1, || {
            ping(&endpoint, Duration::from_secs(5)).expect("loopback ping");
        }) / 1e3)
            .into(),
    ));
    // The same block in-process, answered from request text, and shipped
    // to the server, in turn: all three see the same host load, so their
    // differences are the transport's.
    let worker = RemoteWorker::new(vec![endpoint], 10_000);
    let (mut local_us, mut answer_us, mut block_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while block_ms.len() < 20
        || (start.elapsed() < Duration::from_millis(300) && block_ms.len() < 400)
    {
        let t = Instant::now();
        black_box(InProcessWorker.run_assignment(&job0, block0, 1)?);
        local_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        black_box(answer_request(&request));
        answer_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        black_box(worker.run_assignment(&job0, block0, 1)?);
        block_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    server.shutdown();
    fields.push(("exec.block_us", median(local_us).into()));
    fields.push(("probe.remote.answer_us", median(answer_us).into()));
    fields.push((
        "probe.remote.block_ms",
        Json::Array(block_ms.into_iter().map(Json::from).collect()),
    ));

    // spec codec and report emission.
    let text0 = cell0.to_json_string();
    fields.push((
        "spec.parse_us",
        (per_call_ns(4, || {
            black_box(ExperimentSpec::from_json_str(&text0).expect("round-trip"));
        }) / 1e3)
            .into(),
    ));
    fields.push((
        "spec.emit_us",
        (per_call_ns(4, || {
            black_box(cell0.to_json_string());
        }) / 1e3)
            .into(),
    ));
    fields.push((
        "spec.expand_us",
        (per_call_ns(1, || {
            black_box(sweep.expand().expect("validated grid"));
        }) / 1e3
            / n as f64)
            .into(),
    ));
    let report = report_of(cell0, job0.policy_name(), &block_summary);
    fields.push((
        "report.emit_us",
        (per_call_ns(4, || {
            black_box(report.to_json().pretty());
        }) / 1e3)
            .into(),
    ));

    // store: hashing, and put/get of real entries in a scratch store.
    let mut h = 0usize;
    fields.push((
        "store.hash_us",
        (per_call_ns(8, || {
            black_box(spec_hash(&cells[h % n]));
            h += 1;
        }) / 1e3)
            .into(),
    ));
    let store = FsBackend::open(scratch)?;
    // Cells resized to the probe block, so each entry is a valid record.
    let entries: Vec<CellEntry> = cells
        .iter()
        .take(32)
        .map(|c| {
            let mut c = c.clone();
            c.mc.replications = block_summary.replications;
            CellEntry::summary(&c, &block_summary)
        })
        .collect();
    let ids: Vec<CellId> = entries.iter().map(|e| e.cell).collect();
    let mut p = 0usize;
    fields.push((
        "probe.store.put_us",
        (per_call_ns(1, || {
            store.put(&entries[p % entries.len()]).expect("scratch put");
            p += 1;
        }) / 1e3)
            .into(),
    ));
    let mut g = 0usize;
    fields.push((
        "probe.store.get_us",
        (per_call_ns(1, || {
            black_box(store.get(&ids[g % ids.len()]).expect("scratch get"));
            g += 1;
        }) / 1e3)
            .into(),
    ));
    let health = store.health()?;
    fields.push((
        "probe.store.entry_bytes",
        (health.total_bytes as f64 / health.entries.max(1) as f64).into(),
    ));
    Ok(Json::obj(fields))
}

/// The report the program emits for one computed cell.
pub fn report_of(spec: &ExperimentSpec, policy: &str, summary: &Summary) -> RunReport {
    RunReport {
        spec: spec.clone(),
        policy_name: policy.to_owned(),
        summary: SummaryReport::from_summary(summary),
        served: ServeTier::Mc,
        source: None,
    }
}
