//! One conformance suite for the cell pipeline, run for both workload
//! kinds: single-task `SweepSpec` grids and executive `Grid<ExecutiveSpec>`
//! grids go through the same shard / merge / coverage / store code, so
//! they must honor the same contracts:
//!
//! * shard → merge is byte-identical to the unsharded grid;
//! * a store-backed sweep is byte-identical cold, warm and without a
//!   store, and `store verify` re-proves (and catches tampering in) every
//!   recorded cell;
//! * a sweep resumed after shard 0 of 2, or after a run killed mid-grid,
//!   equals an uninterrupted run;
//! * coverage reports missing and duplicated points without failing;
//! * truncated, lying-`total_points` and wrong-type documents fail with
//!   the offending file named.

use eacp_exec::{
    coverage_dir, merge_dir, run_sweep, run_sweep_tiered, run_tiered, BlockAssignment, BlockBatch,
    Cell, ExecutiveJob, ExecutiveSummary, GridReport, InProcessWorker, Job, LocalRunner, Observer,
    QueueObserver, QueueRunner, QueueStatus, Runner, ShardId, Summary, Worker,
};
use eacp_spec::{
    Axis, ExecutiveMcSpec, ExecutiveSpec, ExperimentSpec, FaultSpec, FromJson, Grid, Json, Knob,
    McSpec, PolicyAssignment, PolicySpec, SpecError, SweepSpec, TaskSetSpec, ToJson,
};
use eacp_store::{
    run_cached_with_tiered, run_sweep_cached_tiered, store_coverage, verify_store, CacheMode,
    CacheOutcome, CellPayload, Lookup, MemBackend, NoopStoreObserver, StoreBackend, StoreCell,
    StoreCounters,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A cell kind under test: a 4-point grid named "grid".
trait Fixture: StoreCell {
    const TAG: &'static str;
    fn grid(seed: u64) -> Grid<Self>;
}

impl Fixture for ExperimentSpec {
    const TAG: &'static str = "single";

    fn grid(seed: u64) -> Grid<Self> {
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "grid".into();
        base.mc = McSpec {
            replications: 40,
            seed,
            threads: 1,
        };
        SweepSpec {
            base,
            axes: vec![
                Axis::new(Knob::Lambda, vec![1.0e-4, 1.4e-3]),
                Axis::new(Knob::K, vec![1, 5]),
            ],
        }
    }
}

impl Fixture for ExecutiveSpec {
    const TAG: &'static str = "executive";

    fn grid(seed: u64) -> Grid<Self> {
        let mut base = ExecutiveSpec::new(
            "grid",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        base.faults = FaultSpec::Poisson { lambda: 5e-4 };
        base.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 5e-4, 2, 0).unwrap());
        base.hyperperiods = 2;
        base.seed = seed;
        base.mc = Some(ExecutiveMcSpec {
            replications: 12,
            threads: 1,
            queue: None,
        });
        Grid {
            base,
            axes: vec![
                Axis::new(Knob::Lambda, vec![2e-4, 1e-3]),
                Axis::new(Knob::K, vec![1, 3]),
            ],
        }
    }
}

/// A fresh scratch directory per kind and test.
fn scratch<S: Fixture>(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eacp-conformance-{}-{test}-{}",
        S::TAG,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shard(index: u64, count: u64) -> Option<ShardId> {
    Some(ShardId::new(index, count).unwrap())
}

fn pretty<C: Cell>(grid: &GridReport<C>) -> String {
    grid.to_json().pretty()
}

fn shards_merge_byte_identically<S: Fixture>() {
    let sweep = S::grid(5);
    let base = scratch::<S>("merge");
    let dir = base.join("sharded");

    let full = run_sweep(&sweep, None, 1).unwrap();
    assert_eq!(full.points.len(), 4);
    let mut collected = Vec::new();
    for i in 0..3 {
        let part = run_sweep(&sweep, shard(i, 3), 1).unwrap();
        part.save(&dir).unwrap();
        collected.extend(part.points);
    }
    collected.sort_by_key(|p| p.index);
    assert_eq!(collected, full.points, "a point never depends on its shard");

    let merged = merge_dir::<S>(&dir).unwrap();
    assert_eq!(merged, full, "merged grid must equal the unsharded grid");
    assert_eq!(pretty(&merged), pretty(&full));

    // The document codec round-trips, and a loaded shard names its file.
    let back = GridReport::<S>::from_json(&Json::parse(&pretty(&full)).unwrap()).unwrap();
    assert_eq!(back, full);
    assert_eq!(pretty(&back), pretty(&full));
    let path = dir.join("shard-1-of-3.json");
    let loaded = GridReport::<S>::load(&path).unwrap();
    assert_eq!(loaded.source.as_deref(), Some(path.as_path()));

    // Withheld shard → loud failure.
    let withheld = base.join("withheld");
    std::fs::create_dir_all(&withheld).unwrap();
    for name in ["shard-0-of-3.json", "shard-2-of-3.json"] {
        std::fs::copy(dir.join(name), withheld.join(name)).unwrap();
    }
    let err = merge_dir::<S>(&withheld).unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");

    // Duplicated shard → loud failure.
    let duplicated = base.join("duplicated");
    std::fs::create_dir_all(&duplicated).unwrap();
    for i in 0..3 {
        let name = format!("shard-{i}-of-3.json");
        std::fs::copy(dir.join(&name), duplicated.join(&name)).unwrap();
    }
    std::fs::copy(
        dir.join("shard-0-of-3.json"),
        duplicated.join("shard-0-of-3-copy.json"),
    )
    .unwrap();
    let err = merge_dir::<S>(&duplicated).unwrap_err();
    assert!(err.to_string().contains("covered twice"), "{err}");

    // A shard of a different sweep → loud failure.
    let mismatched = base.join("mismatched");
    std::fs::create_dir_all(&mismatched).unwrap();
    for name in ["shard-0-of-3.json", "shard-1-of-3.json"] {
        std::fs::copy(dir.join(name), mismatched.join(name)).unwrap();
    }
    run_sweep(&S::grid(999), shard(2, 3), 1)
        .unwrap()
        .save(&mismatched)
        .unwrap();
    let err = merge_dir::<S>(&mismatched).unwrap_err();
    assert!(err.to_string().contains("sweep spec differs"), "{err}");

    // No documents at all.
    let empty = base.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(merge_dir::<S>(&empty).is_err());

    std::fs::remove_dir_all(&base).unwrap();
}

fn store_is_byte_identical_cold_warm_and_plain<S: Fixture>() {
    let sweep = S::grid(5);
    let runner = LocalRunner::new(1);
    let store = MemBackend::new();
    let counters = StoreCounters::new();
    let cached = |counters: &StoreCounters| {
        run_sweep_cached_tiered(
            &sweep,
            None,
            &runner,
            &store,
            CacheMode::ReadWrite,
            counters,
            true,
        )
        .unwrap()
    };

    let plain = run_sweep_tiered(&sweep, None, &runner, true).unwrap();
    let cold = cached(&counters);
    assert_eq!(cold, plain);
    assert_eq!(pretty(&cold), pretty(&plain));
    assert_eq!((counters.hits(), counters.misses()), (0, 4));
    assert_eq!(counters.records(), 4);

    // Warm rerun: all four points served, still byte-identical, and each
    // hit embeds the caller's expansion spec (name, mc and all), not a
    // reconstruction from the canonical cell document.
    let warm = cached(&counters);
    assert_eq!(pretty(&warm), pretty(&plain));
    assert_eq!((counters.hits(), counters.misses()), (4, 4));
    let expected = sweep.expand().unwrap();
    for point in &warm.points {
        assert_eq!(S::of_report(&point.report), &expected[point.index]);
    }

    // One cell: miss then hit, both bit-identical to a direct run; a
    // memory backend has no artifact path to report.
    let cell = &expected[0];
    let fresh = MemBackend::new();
    let run = || {
        run_cached_with_tiered(
            cell,
            &runner,
            &fresh,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap()
    };
    let (first, second) = (run(), run());
    assert_eq!(
        (first.cache, second.cache),
        (CacheOutcome::Miss, CacheOutcome::Hit)
    );
    let (direct, direct_report) = run_tiered(cell, true).unwrap();
    assert_eq!((&first.summary, &second.summary), (&direct, &direct));
    assert_eq!(
        second.report.to_json().pretty(),
        direct_report.to_json().pretty()
    );
    assert!(second.source.is_none(), "memory backend has no path");

    // Every recorded cell re-verifies, and tampering with a payload value
    // (internally consistent, so it passes integrity checks) is caught by
    // the byte comparison against a recomputation.
    verify_store(&store, 0).unwrap();
    let id = store.list().unwrap()[0];
    let Lookup::Hit { mut entry, .. } = store.get(&id).unwrap() else {
        panic!("expected hit");
    };
    match &mut entry.payload {
        CellPayload::Summary(s) => s.timely = s.timely.wrapping_sub(1),
        CellPayload::Executive(s) => s.jobs = s.jobs.wrapping_add(1),
        CellPayload::Outcome(_) => panic!("sweeps record Monte-Carlo cells"),
    }
    store.put(&entry).unwrap();
    let err = verify_store(&store, 0).unwrap_err();
    assert!(err.to_string().contains("differ"), "{err}");
}

fn resume_after_shard_zero_equals_uninterrupted<S: Fixture>() {
    let sweep = S::grid(5);
    let runner = LocalRunner::new(1);
    let store = MemBackend::new();
    let cached = |shard: Option<ShardId>, counters: &StoreCounters| {
        run_sweep_cached_tiered(
            &sweep,
            shard,
            &runner,
            &store,
            CacheMode::ReadWrite,
            counters,
            true,
        )
        .unwrap()
    };

    // "Killed at the shard boundary": only shard 0 of 2 completed.
    cached(shard(0, 2), &StoreCounters::new());
    let coverage = store_coverage(&store, &sweep).unwrap();
    assert_eq!(coverage.sweep_name, "grid");
    assert_eq!(coverage.total_points, 4);
    assert_eq!(coverage.covered(), 2);
    assert_eq!(coverage.missing, vec![2, 3]);
    assert!(!coverage.complete());

    // Resume over the full grid: the finished half hits, the rest
    // computes, and the result equals an uninterrupted run.
    let counters = StoreCounters::new();
    let resumed = cached(None, &counters);
    assert_eq!((counters.hits(), counters.misses()), (2, 2));
    let plain = run_sweep_tiered(&sweep, None, &runner, true).unwrap();
    assert_eq!(resumed, plain);
    assert_eq!(pretty(&resumed), pretty(&plain));
    assert!(store_coverage(&store, &sweep).unwrap().complete());
}

/// A runner that fails its `fail_at`-th job (0-based), as a process killed
/// mid-grid would: the jobs before it finish, none after it start.
struct KilledAt {
    fail_at: usize,
    calls: AtomicUsize,
}

impl KilledAt {
    fn call(&self) -> Result<(), SpecError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.fail_at {
            return Err(SpecError::invalid("killed mid-grid"));
        }
        Ok(())
    }
}

impl Runner for KilledAt {
    fn name(&self) -> &'static str {
        "killed"
    }
    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        self.call()?;
        LocalRunner::new(1).run(job)
    }
    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        self.call()?;
        LocalRunner::new(1).run_observed(job, obs)
    }
    fn run_executive(&self, job: &ExecutiveJob) -> Result<ExecutiveSummary, SpecError> {
        self.call()?;
        LocalRunner::new(1).run_executive(job)
    }
}

fn a_grid_killed_mid_run_resumes_from_every_finished_cell<S: Fixture>() {
    const FINISHED: usize = 2;
    let sweep = S::grid(5);
    let store = MemBackend::new();
    let cached = |runner: &dyn Runner, counters: &StoreCounters| {
        run_sweep_cached_tiered(
            &sweep,
            None,
            runner,
            &store,
            CacheMode::ReadWrite,
            counters,
            true,
        )
    };
    let killed = KilledAt {
        fail_at: FINISHED,
        calls: AtomicUsize::new(0),
    };
    let err = cached(&killed, &StoreCounters::new()).unwrap_err();
    assert!(err.to_string().contains("killed mid-grid"), "{err}");
    // The store holds exactly the cells that finished before the kill.
    let cells = sweep.expand().unwrap();
    let mut finished: Vec<_> = cells[..FINISHED].iter().map(StoreCell::cell_id).collect();
    finished.sort_unstable();
    assert_eq!(store.list().unwrap(), finished);

    // A rerun serves them and computes the rest, byte-identical to an
    // uninterrupted run.
    let runner = LocalRunner::new(1);
    let counters = StoreCounters::new();
    let resumed = cached(&runner, &counters).unwrap();
    assert_eq!(counters.hits(), FINISHED as u64);
    assert_eq!(counters.records(), (cells.len() - FINISHED) as u64);
    let plain = run_sweep_tiered(&sweep, None, &runner, true).unwrap();
    assert_eq!(pretty(&resumed), pretty(&plain));
}

fn coverage_lists_missing_and_duplicated_points<S: Fixture>() {
    let sweep = S::grid(5);
    let base = scratch::<S>("coverage");
    let dir = base.join("partial");

    // Shards 0 and 2 of 3 present, shard 0 duplicated under a second file
    // name; shard 1 still owed.
    for i in [0, 2] {
        run_sweep(&sweep, shard(i, 3), 1)
            .unwrap()
            .save(&dir)
            .unwrap();
    }
    std::fs::copy(
        dir.join("shard-0-of-3.json"),
        dir.join("shard-0-of-3-copy.json"),
    )
    .unwrap();

    let cov = coverage_dir::<S>(&dir).unwrap();
    assert_eq!(cov.sweep_name, "grid");
    assert_eq!(cov.total_points, 4);
    assert_eq!(cov.shard_count, Some(3));
    assert_eq!(cov.docs.len(), 3);
    // Balanced 4-over-3 partition: shard 0 owns {0,1}, shard 1 owns {2},
    // shard 2 owns {3}.
    assert_eq!(cov.missing, vec![2]);
    assert_eq!(cov.duplicated, vec![0, 1]);
    assert_eq!(cov.covered(), 3);
    assert!(!cov.complete());

    // Completing the set clears both lists.
    std::fs::remove_file(dir.join("shard-0-of-3-copy.json")).unwrap();
    run_sweep(&sweep, shard(1, 3), 1)
        .unwrap()
        .save(&dir)
        .unwrap();
    let cov = coverage_dir::<S>(&dir).unwrap();
    assert!(cov.complete(), "{cov:?}");
    assert_eq!(cov.covered(), 4);

    std::fs::remove_dir_all(&base).unwrap();
}

fn corrupt_documents_name_the_file<S: Fixture>() {
    let sweep = S::grid(5);
    let base = scratch::<S>("corrupt");
    let half = || run_sweep(&sweep, shard(0, 2), 1).unwrap();

    // Truncated JSON.
    let truncated = base.join("truncated");
    let path = half().save(&truncated).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let err = merge_dir::<S>(&truncated).unwrap_err();
    assert!(matches!(err, SpecError::Invalid(_)), "{err}");
    assert!(err.to_string().contains("shard-0-of-2.json"), "{err}");

    // A total_points that does not match the embedded sweep must be a
    // SpecError, never an allocation-size panic — for merge and for the
    // coverage pass alike.
    let lying = base.join("lying");
    let path = half().save(&lying).unwrap();
    let text = std::fs::read_to_string(&path).unwrap().replace(
        "\"total_points\": 4",
        "\"total_points\": 1152921504606846976",
    );
    std::fs::write(&path, text).unwrap();
    for err in [
        merge_dir::<S>(&lying).unwrap_err(),
        coverage_dir::<S>(&lying).unwrap_err(),
    ] {
        assert!(err.to_string().contains("expands to 4"), "{err}");
        assert!(err.to_string().contains("shard-0-of-2.json"), "{err}");
    }

    // Structurally-wrong field types also name the file.
    let wrong = base.join("wrong");
    std::fs::create_dir_all(&wrong).unwrap();
    std::fs::write(
        wrong.join("shard-bad.json"),
        r#"{"sweep": 3, "points": "x"}"#,
    )
    .unwrap();
    let err = merge_dir::<S>(&wrong).unwrap_err();
    assert!(err.to_string().contains("shard-bad.json"), "{err}");

    std::fs::remove_dir_all(&base).unwrap();
}

/// Instantiates every contract once per workload kind.
macro_rules! for_both_kinds {
    ($($contract:ident),* $(,)?) => {
        mod single_task {
            $(#[test]
            fn $contract() {
                super::$contract::<eacp_spec::ExperimentSpec>();
            })*
        }
        mod executive {
            $(#[test]
            fn $contract() {
                super::$contract::<eacp_spec::ExecutiveSpec>();
            })*
        }
    };
}

for_both_kinds!(
    shards_merge_byte_identically,
    store_is_byte_identical_cold_warm_and_plain,
    resume_after_shard_zero_equals_uninterrupted,
    a_grid_killed_mid_run_resumes_from_every_finished_cell,
    coverage_lists_missing_and_duplicated_points,
    corrupt_documents_name_the_file,
);

/// A worker that serves batches in-process and counts them: one count per
/// lease, as `remote_fleet.rs` counts `run_block` requests.
struct CountingWorker(Arc<AtomicUsize>);

impl Worker for CountingWorker {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        attempt: u32,
    ) -> Result<Summary, SpecError> {
        InProcessWorker.run_assignment(job, assignment, attempt)
    }
    fn run_blocks(
        &self,
        job: &Job,
        batch: BlockBatch,
        attempt: u32,
    ) -> Result<Vec<Summary>, SpecError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        InProcessWorker.run_blocks(job, batch, attempt)
    }
    fn serves_batches(&self) -> bool {
        true
    }
}

/// A store-backed grid leases its misses from one queue in grid-wide
/// batches, exactly as the storeless grid does; a warm rerun leases
/// nothing.
#[test]
fn a_store_backed_grid_leases_the_whole_grid_from_one_queue() {
    let mut sweep = ExperimentSpec::grid(5);
    sweep.base.mc.replications = 1024;
    let leases = Arc::new(AtomicUsize::new(0));
    let runner = || QueueRunner::new(2).with_worker(CountingWorker(leases.clone()));
    let plain = run_sweep_tiered(&sweep, None, &runner(), true).unwrap();
    let storeless = leases.swap(0, Ordering::SeqCst);
    // Four cells of 1,024 replications: 256 blocks of 16, leased in 8
    // batches of 32 (cell by cell, each cell alone would take 8).
    assert_eq!(storeless, 8);
    let store = MemBackend::new();
    let cached = || {
        run_sweep_cached_tiered(
            &sweep,
            None,
            &runner(),
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap()
    };
    assert_eq!(pretty(&cached()), pretty(&plain));
    assert_eq!(leases.swap(0, Ordering::SeqCst), storeless, "cold");
    assert_eq!(pretty(&cached()), pretty(&plain));
    assert_eq!(leases.load(Ordering::SeqCst), 0, "warm");
}

/// Records the queue size every lease reports.
#[derive(Default)]
struct LeaseTotals(std::sync::Mutex<Vec<usize>>);

impl QueueObserver for LeaseTotals {
    fn on_lease(&self, _worker: usize, _index: usize, _attempt: u32, status: QueueStatus) {
        self.0.lock().unwrap().push(status.total);
    }
}

impl LeaseTotals {
    fn take(&self) -> Vec<usize> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

/// The executive twin of the test above: an executive grid leases every
/// cell's blocks from one queue, with or without a store, so every lease
/// sees the whole grid's block count; a warm rerun leases nothing.
#[test]
fn an_executive_grid_leases_the_whole_grid_from_one_queue() {
    let mut sweep = ExecutiveSpec::grid(5);
    // Four cells of 40 horizons: three blocks of 16 each, one per lease.
    sweep.base.set_mc(Some(40), None);
    const GRID_BLOCKS: usize = 12;
    let leases = Arc::new(LeaseTotals::default());
    let runner = || QueueRunner::new(2).with_observer(leases.clone());
    let plain = run_sweep_tiered(&sweep, None, &runner(), true).unwrap();
    assert_eq!(pretty(&plain), pretty(&run_sweep(&sweep, None, 1).unwrap()));
    assert_eq!(leases.take(), vec![GRID_BLOCKS; GRID_BLOCKS], "storeless");
    let store = MemBackend::new();
    let cached = || {
        run_sweep_cached_tiered(
            &sweep,
            None,
            &runner(),
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap()
    };
    assert_eq!(pretty(&cached()), pretty(&plain));
    assert_eq!(leases.take(), vec![GRID_BLOCKS; GRID_BLOCKS], "cold");
    assert_eq!(pretty(&cached()), pretty(&plain));
    assert_eq!(leases.take(), Vec::<usize>::new(), "warm");
}

/// A paper table part document — `specs/table2a.json` at 20 replications:
/// one points axis of 32 cells, four schemes per row and row `i` seeded
/// `seed + i` — honors the same contracts byte for byte.
mod table_document {
    use super::*;

    fn grid() -> SweepSpec {
        let path = format!("{}/../../specs/table2a.json", env!("CARGO_MANIFEST_DIR"));
        let mut grid = SweepSpec::load(std::path::Path::new(&path)).unwrap();
        grid.base.mc.replications = 20;
        grid
    }

    #[test]
    fn shards_merge_byte_identically() {
        let sweep = grid();
        let dir = std::env::temp_dir().join(format!(
            "eacp-conformance-table2a-merge-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let full = run_sweep(&sweep, None, 1).unwrap();
        assert_eq!(full.points.len(), 32);
        for i in 0..3 {
            run_sweep(&sweep, shard(i, 3), 1)
                .unwrap()
                .save(&dir)
                .unwrap();
        }
        let merged = merge_dir::<ExperimentSpec>(&dir).unwrap();
        assert_eq!(pretty(&merged), pretty(&full));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_is_byte_identical_cold_warm_and_plain() {
        let sweep = grid();
        let runner = LocalRunner::new(1);
        let store = MemBackend::new();
        let counters = StoreCounters::new();
        let cached = || {
            run_sweep_cached_tiered(
                &sweep,
                None,
                &runner,
                &store,
                CacheMode::ReadWrite,
                &counters,
                true,
            )
            .unwrap()
        };
        let plain = run_sweep_tiered(&sweep, None, &runner, true).unwrap();
        let cold = cached();
        assert_eq!((counters.hits(), counters.records()), (0, 32));
        let warm = cached();
        assert_eq!(counters.hits(), 32);
        assert_eq!(pretty(&cold), pretty(&plain));
        assert_eq!(pretty(&warm), pretty(&plain));
    }
}
