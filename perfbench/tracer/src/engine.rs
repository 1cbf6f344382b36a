//! Timing and counting wrappers around the program's trait seams: an engine
//! `Observer`, a `Policy` around `PolicyKind`, a `FaultProcess` around
//! `BatchedFaults`, a `Worker` that marks block boundaries, a `Runner` that
//! traces every job, a `StoreBackend` around any backend, a `Worker` around
//! `RemoteWorker`, and a `QueueObserver`.
//!
//! Every wrapper forwards to the real implementation, so a traced run
//! computes the same summaries as an untraced one; the caller checks that.

use eacp_core::policies::PolicyKind;
use eacp_exec::{
    BlockAssignment, InProcessWorker, Job, LocalRunner, QueueObserver, QueueRunner, QueueStatus,
    Runner, Worker,
};
use eacp_faults::{BatchedFaults, FaultProcess};
use eacp_sim::{
    CheckpointKind, CommitWindow, Directive, Observer, PlanContext, Policy, RunOutcome, Summary,
};
use eacp_spec::{ExperimentSpec, Json, SpecError};
use eacp_store::{
    CellEntry, CellId, EvictionReport, Lookup, RetentionPolicy, StoreBackend, StoreHealth,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A statistic counter; `Relaxed` because it publishes no other data.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_time(&self, d: Duration) {
        self.add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// --------------------------------------------------------------------------
// The program's own path: spec-built jobs through `LocalRunner`.

/// Replication times and exact per-replication counts of traced runs.
#[derive(Debug, Default)]
pub struct EngineStats {
    pub reps: Counter,
    pub rep_ns: Counter,
    pub segments: Counter,
    pub faults: Counter,
    pub rollbacks: Counter,
    pub checkpoints: Counter,
}

impl EngineStats {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("reps", self.reps.get().into()),
            ("rep_ns", self.rep_ns.get().into()),
            ("segments", self.segments.get().into()),
            ("faults", self.faults.get().into()),
            ("rollbacks", self.rollbacks.get().into()),
            ("checkpoints", self.checkpoints.get().into()),
        ])
    }
}

/// Times each replication between its start and end brackets and takes
/// its counts from the outcome. Plain fields: it runs on one thread.
#[derive(Default)]
struct ReplicationTimer {
    start: Option<Instant>,
    reps: u64,
    rep_ns: u64,
    segments: u64,
    faults: u64,
    rollbacks: u64,
    checkpoints: u64,
}

impl Observer for ReplicationTimer {
    fn on_replication_start(&mut self, _replication: u64, _seed: u64) {
        self.start = Some(Instant::now());
    }

    fn on_replication_end(&mut self, _replication: u64, out: &RunOutcome) {
        if let Some(t) = self.start.take() {
            self.rep_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        self.reps += 1;
        self.segments += u64::from(out.segments);
        self.faults += u64::from(out.faults);
        self.rollbacks += u64::from(out.rollbacks);
        self.checkpoints += u64::from(out.checkpoints());
    }
}

/// Runs `spec` as the program does, a `Job::from_spec` job over the
/// canonical blocks of `LocalRunner::new(1)`, observed by a replication
/// timer.
pub fn run_traced(spec: &ExperimentSpec, stats: &EngineStats) -> Result<Summary, SpecError> {
    let job = Job::from_spec(spec)?;
    let mut timer = ReplicationTimer::default();
    let summary = LocalRunner::new(1).run_observed(&job, &mut timer)?;
    stats.reps.add(timer.reps);
    stats.rep_ns.add(timer.rep_ns);
    stats.segments.add(timer.segments);
    stats.faults.add(timer.faults);
    stats.rollbacks.add(timer.rollbacks);
    stats.checkpoints.add(timer.checkpoints);
    Ok(summary)
}

/// Ordered record of every cell summary a replay produced or served.
#[derive(Default)]
pub struct Summaries(pub Mutex<Vec<Summary>>);

impl Summaries {
    pub fn push(&self, s: &Summary) {
        self.0.lock().expect("summaries lock").push(s.clone());
    }
}

/// A `Runner` that computes every job through [`run_traced`].
pub struct TracedRunner<'a> {
    pub stats: EngineStats,
    pub summaries: &'a Summaries,
    pub jobs: Counter,
}

impl Runner for TracedRunner<'_> {
    fn name(&self) -> &'static str {
        "traced-local"
    }

    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        let spec = job
            .spec()
            .ok_or_else(|| SpecError::invalid("traced runs need a spec-built job"))?;
        self.jobs.add(1);
        let s = run_traced(spec, &self.stats)?;
        self.summaries.push(&s);
        Ok(s)
    }

    fn run_observed(&self, _job: &Job, _obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        Err(SpecError::invalid("the traced runner has no observed path"))
    }
}

// --------------------------------------------------------------------------
// The planning pass: the same experiment with a timing policy and a
// counting fault stream, which only a `Job::from_parts` job can carry.

/// Planning-call and fault-arrival counts of planning passes.
#[derive(Debug, Default)]
pub struct PlanStats {
    pub reps: Counter,
    pub blocks: Counter,
    /// `plan` and `commit_window` calls: both are one planning decision.
    pub plans: Counter,
    /// The sampled planning calls `plan_ns` covers.
    pub plans_timed: Counter,
    pub plan_ns: Counter,
    pub arrivals: Counter,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    /// The first block the program's runner handed out.
    pub first_block: OnceLock<BlockAssignment>,
}

impl PlanStats {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("clock_floor_ns", clock_floor_ns().into()),
            ("reps", self.reps.get().into()),
            ("blocks", self.blocks.get().into()),
            ("plans", self.plans.get().into()),
            ("plans_timed", self.plans_timed.get().into()),
            ("plan_ns", self.plan_ns.get().into()),
            ("arrivals", self.arrivals.get().into()),
            ("cache_hits", self.cache_hits.get().into()),
            ("cache_misses", self.cache_misses.get().into()),
        ])
    }
}

type PolicyPool = Arc<Mutex<Vec<PolicyKind>>>;

/// Times sampled planning calls of the wrapped scheme and counts all of
/// them. On drop the scheme goes back to the pool, so one instance serves
/// a whole block, as on the program's pooled path, and its plan cache
/// lives as long.
struct TimedPolicy {
    inner: Option<PolicyKind>,
    calls: u64,
    stats: Arc<PlanStats>,
    pool: PolicyPool,
}

/// One planning call in this many is timed; all are counted. Timing every
/// call would double the cost of the cheapest ones.
pub const PLAN_SAMPLE: u64 = 16;

impl TimedPolicy {
    fn inner(&mut self) -> &mut PolicyKind {
        self.inner.as_mut().expect("policy is present until drop")
    }

    fn timed<R>(&mut self, call: impl FnOnce(&mut PolicyKind) -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(PLAN_SAMPLE) {
            return call(self.inner());
        }
        let t = Instant::now();
        let r = call(self.inner());
        self.stats.plan_ns.add_time(t.elapsed());
        self.stats.plans_timed.add(1);
        r
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner
            .as_ref()
            .expect("policy is present until drop")
            .name()
    }

    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        self.timed(|p| p.plan(ctx))
    }

    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        self.inner().on_compare(ctx, kind, mismatch);
    }

    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        self.timed(|p| p.commit_window(ctx))
    }

    fn on_commit_window_executed(&mut self) {
        self.inner().on_commit_window_executed();
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        self.stats.plans.add(self.calls);
        if let (Some(p), Ok(mut pool)) = (self.inner.take(), self.pool.lock()) {
            pool.push(p);
        }
    }
}

/// Counts fault arrivals drawn from the wrapped batched stream.
struct CountingFaults {
    inner: BatchedFaults,
    stats: Arc<PlanStats>,
}

impl FaultProcess for CountingFaults {
    fn next_fault(&mut self) -> f64 {
        self.stats.arrivals.add(1);
        self.inner.next_fault()
    }

    fn mean_rate(&self) -> Option<f64> {
        self.inner.mean_rate()
    }
}

/// Empties the policy pool into the plan-cache counts, so the next block
/// starts with a fresh instance.
fn harvest(pool: &PolicyPool, stats: &PlanStats) {
    let mut pool = pool.lock().expect("policy pool lock");
    for p in pool.drain(..) {
        if let PolicyKind::Adaptive(a) = &p {
            let (hits, misses) = a.plan_cache_stats();
            stats.cache_hits.add(hits);
            stats.cache_misses.add(misses);
        }
    }
}

/// The in-process worker, retiring the pooled policy at every block the
/// program's queue runner hands it.
struct BlockBoundary {
    pool: PolicyPool,
    stats: Arc<PlanStats>,
}

impl Worker for BlockBoundary {
    fn name(&self) -> &'static str {
        "block-boundary"
    }

    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        attempt: u32,
    ) -> Result<Summary, SpecError> {
        harvest(&self.pool, &self.stats);
        self.stats.blocks.add(1);
        let _ = self.stats.first_block.set(assignment);
        InProcessWorker.run_assignment(job, assignment, attempt)
    }
}

/// Runs `spec` through a timing policy and a counting fault stream over the
/// canonical blocks of a one-worker `QueueRunner`.
pub fn run_planning(spec: &ExperimentSpec, stats: &Arc<PlanStats>) -> Result<Summary, SpecError> {
    let pool: PolicyPool = Arc::default();
    let policy_spec = spec.policy;
    policy_spec.build()?;
    let fault_spec = spec.faults.clone();
    fault_spec.build(0)?;
    let base_seed = spec.mc.seed;
    let (stats_p, stats_f, pool_p) = (Arc::clone(stats), Arc::clone(stats), Arc::clone(&pool));
    let job = Job::from_parts(
        spec.name.clone(),
        spec.scenario.build()?,
        spec.executor.build()?,
        spec.mc.replications,
        base_seed,
        move |seed| {
            let popped = pool_p.lock().expect("policy pool lock").pop();
            let mut p =
                popped.unwrap_or_else(|| policy_spec.build().expect("validated policy spec"));
            p.reset(seed);
            Box::new(TimedPolicy {
                inner: Some(p),
                calls: 0,
                stats: Arc::clone(&stats_p),
                pool: Arc::clone(&pool_p),
            })
        },
        move |seed| {
            let mut f =
                BatchedFaults::new(fault_spec.build(base_seed).expect("validated fault spec"));
            f.reset(seed);
            Box::new(CountingFaults {
                inner: f,
                stats: Arc::clone(&stats_f),
            })
        },
    )?;
    let runner = QueueRunner::new(1).with_worker(BlockBoundary {
        pool: Arc::clone(&pool),
        stats: Arc::clone(stats),
    });
    let summary = runner.run(&job)?;
    harvest(&pool, stats);
    stats.reps.add(spec.mc.replications);
    Ok(summary)
}

/// What an empty timed span reports, in nanoseconds: sampled planning spans
/// are corrected by it so the timer is not charged to the layer it times.
pub fn clock_floor_ns() -> f64 {
    let n = 10_000u32;
    let mut reported = Duration::ZERO;
    for _ in 0..n {
        reported += std::hint::black_box(Instant::now().elapsed());
    }
    reported.as_nanos() as f64 / f64::from(n)
}

// --------------------------------------------------------------------------
// Store, fleet and queue seams.

/// Times `get`/`put` of the wrapped store and records served summaries.
pub struct TimingBackend<'a, B> {
    pub inner: B,
    pub summaries: &'a Summaries,
    pub gets: Counter,
    pub get_ns: Counter,
    pub hits: Counter,
    pub hit_bytes: Counter,
    pub puts: Counter,
    pub put_ns: Counter,
}

impl<'a, B> TimingBackend<'a, B> {
    pub fn new(inner: B, summaries: &'a Summaries) -> Self {
        Self {
            inner,
            summaries,
            gets: Counter::default(),
            get_ns: Counter::default(),
            hits: Counter::default(),
            hit_bytes: Counter::default(),
            puts: Counter::default(),
            put_ns: Counter::default(),
        }
    }
}

impl<B: StoreBackend> StoreBackend for TimingBackend<'_, B> {
    fn get(&self, id: &CellId) -> Result<Lookup, SpecError> {
        let t = Instant::now();
        let found = self.inner.get(id);
        self.get_ns.add_time(t.elapsed());
        self.gets.add(1);
        if let Ok(Lookup::Hit { entry, text }) = &found {
            self.hits.add(1);
            self.hit_bytes.add(text.len() as u64);
            self.summaries.push(entry.as_summary()?);
        }
        found
    }

    fn put(&self, entry: &CellEntry) -> Result<(), SpecError> {
        let t = Instant::now();
        let r = self.inner.put(entry);
        self.put_ns.add_time(t.elapsed());
        self.puts.add(1);
        r
    }

    fn list(&self) -> Result<Vec<CellId>, SpecError> {
        self.inner.list()
    }

    fn health(&self) -> Result<StoreHealth, SpecError> {
        self.inner.health()
    }

    fn evict(&self, policy: &RetentionPolicy) -> Result<EvictionReport, SpecError> {
        self.inner.evict(policy)
    }
}

/// Block times and request bytes seen by a [`TimingWorker`].
#[derive(Default)]
pub struct WorkerStats {
    pub block_ns: Mutex<Vec<u64>>,
    pub request_bytes: Counter,
}

/// Times each leased block of the wrapped worker and counts request bytes.
pub struct TimingWorker<W> {
    pub inner: W,
    pub stats: Arc<WorkerStats>,
}

impl<W: Worker> Worker for TimingWorker<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        attempt: u32,
    ) -> Result<Summary, SpecError> {
        if let Some(spec) = job.spec() {
            // The request exactly as the remote worker frames it.
            let mut spec = spec.clone();
            spec.executor.queue = None;
            let request = eacp_exec::remote::run_block_request(&spec, assignment.lo, assignment.hi);
            self.stats.request_bytes.add(request.len() as u64 + 4);
        }
        let t = Instant::now();
        let r = self.inner.run_assignment(job, assignment, attempt);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats
            .block_ns
            .lock()
            .expect("block times lock")
            .push(ns);
        r
    }
}

/// Counts leases and retries of a draining work queue.
#[derive(Default)]
pub struct QueueCounter {
    pub leases: Counter,
    pub retries: Counter,
}

impl QueueObserver for QueueCounter {
    fn on_lease(&self, _worker: usize, _index: usize, _attempt: u32, _status: QueueStatus) {
        self.leases.add(1);
    }

    fn on_retry(
        &self,
        _worker: usize,
        _index: usize,
        _attempt: u32,
        _error: &SpecError,
        _status: QueueStatus,
    ) {
        self.retries.add(1);
    }
}
