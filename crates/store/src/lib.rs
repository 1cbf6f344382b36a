//! Content-addressed persistent result store for EACP experiments.
//!
//! The simulator is deterministic: a result is a pure function of the
//! canonical experiment spec, the Monte-Carlo seed and the replication
//! count. That triple is a [`CellId`] — the spec part content-addressed by
//! a SHA-256 [`SpecHash`] over the canonical spec text — and this crate
//! caches results by cell so repeated runs, resumed sweeps and CI jobs
//! serve finished cells from storage instead of recomputing them.
//!
//! The determinism contract is what makes the cache *sound*: a hit is
//! byte-identical to a recomputation (entries persist the lossless
//! accumulator state, not the rounded report schema), and `eacp store
//! verify` can prove it at any time by re-running a cell and comparing
//! bytes. Storage is pluggable behind [`StoreBackend`]: [`FsBackend`]
//! persists one JSON file per cell with atomic write-rename and
//! quarantine-on-corruption; [`MemBackend`] is the in-memory reference.
//!
//! A **hit** builds no document tree. The lookup writes the cell's
//! canonical spec text straight from the spec (the writer with the
//! kind's member filter) and hashes it; the thread's digest memo turns
//! the hash into a string compare when the text is the one it hashed last,
//! as it is for every cell of a grid that differs only in its seed. The
//! backend reads the entry's bytes and [`CellEntry`]'s reader body decodes
//! them in one pass through [`eacp_spec::JsonReader`]: members into slots,
//! the payload's numbers straight into its accumulators, and the embedded
//! spec compared byte for byte with the text the lookup just hashed,
//! indented one level, and kept as that text. [`CellEntry::validate`]'s
//! re-hash is then a string compare against the memo. Only an embedded
//! spec that differs from the hashed text is parsed, printed and hashed
//! again — an entry reformatted by hand is served as before, and one whose
//! spec belongs to another cell is quarantined. The caller rebuilds the
//! report from the lossless payload. Reports and entries are written by
//! the spec layer's streaming writer straight into their output text.
//!
//! Every entry point is written once over [`StoreCell`] — the store's
//! extension of the execution layer's `Cell` — so single-task and
//! executive cells share one pipeline. Each kind's [`StoreCell`] impl is
//! its key (hash-strip rule, seed, replication count) and payload mapping.
//!
//! Entry points:
//!
//! * [`run_cached_with_tiered`] — cache-or-compute for one cell on a given
//!   runner: replay keyed by [`CellId`] around the compute path;
//!   [`run_cached_tiered`] runs it on the cell's own placement (`eacp mc`,
//!   `eacp executive --mc`);
//! * [`run_cached_single`] — the same for one raw-seed execution
//!   (`eacp run`), keyed with the `replications == 0` sentinel;
//! * [`run_sweep_cached_tiered`] — a resumable sweep: every uncovered grid
//!   cell goes to the runner in one call and is recorded as soon as it is
//!   final; [`store_coverage`] reports which cells are covered;
//! * [`verify_store`] / [`verify_cell`] — recompute stored cells and fail
//!   on any byte mismatch.
//!
//! The one-cell and the grid entry points share one routine: it looks
//! every cell up once, turns each hit into its report on the spot, hands
//! the misses to one `Cell::compute_grid` call whose completion hook
//! records each finished cell, and computes a cell repeated within a grid
//! once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cell;
pub mod fs;
pub mod hash;
pub mod observe;
pub mod sweep;

pub use backend::{EvictionReport, Lookup, MemBackend, RetentionPolicy, StoreBackend, StoreHealth};
pub use cell::{CellEntry, CellId, CellPayload, StoreCell};
pub use fs::{FsBackend, STORE_ENV_VAR};
pub use hash::{sha256, spec_hash, SpecHash};
pub use observe::{NoopStoreObserver, StoreCounters, StoreObserver};
pub use sweep::{run_sweep_cached_tiered, store_coverage, StoreCoverage};

use eacp_exec::{LocalRunner, NoopQueueObserver, Runner};
use eacp_sim::RunOutcome;
use eacp_spec::{ExecutiveSpec, ExperimentSpec, ServeTier, SpecError};
use std::sync::Arc;

/// How the cache participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Serve hits, record misses — the default.
    ReadWrite,
    /// Ignore any existing entry, recompute, and overwrite (`--refresh`).
    Refresh,
}

/// Where a result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the store without computing.
    Hit,
    /// Computed (no intact entry existed) and recorded.
    Miss,
    /// Recomputed and overwritten under [`CacheMode::Refresh`].
    Refreshed,
}

impl CacheOutcome {
    /// The outcome of a computed (not served) result under `mode`.
    fn computed(mode: CacheMode) -> Self {
        match mode {
            CacheMode::ReadWrite => CacheOutcome::Miss,
            CacheMode::Refresh => CacheOutcome::Refreshed,
        }
    }
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Refreshed => "refreshed",
        })
    }
}

/// The result of a cache-or-compute Monte-Carlo run of one cell.
#[derive(Debug, Clone)]
pub struct CachedRun<C: StoreCell = ExperimentSpec> {
    /// The cell the run landed in.
    pub id: CellId,
    /// The exact in-memory aggregate (bit-identical on hit and miss).
    pub summary: C::Summary,
    /// The serializable report (byte-identical on hit and miss).
    pub report: C::Report,
    /// On a hit, the store entry the result was served from.
    pub source: Option<std::path::PathBuf>,
    /// Hit, miss, or refresh.
    pub cache: CacheOutcome,
}

/// Cache-or-compute for one cell on the runner its own spec places it on
/// (`eacp_exec::placement`: local, work queue, or remote fleet). Every
/// placement gives a bit-identical summary (the canonical-reduction
/// contract), which is why the scheduling choice is not part of the cell
/// key and the cell bytes are location-independent.
///
/// # Errors
///
/// An invalid queue section, plus everything [`run_cached_with_tiered`]
/// reports.
pub fn run_cached_tiered<C: StoreCell>(
    cell: &C,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
    analytic: bool,
) -> Result<CachedRun<C>, SpecError> {
    let (queue, threads) = cell.placement();
    let runner = eacp_exec::placement(queue, threads, Arc::new(NoopQueueObserver))?;
    run_cached_with_tiered(cell, runner.as_ref(), store, mode, observer, analytic)
}

/// Cache-or-compute for one cell on an explicit [`Runner`]: an intact
/// entry under the cell's [`CellId`] is replayed, anything else is
/// computed (`Cell::compute`, with the closed-form serve tier enabled
/// or disabled by `analytic`) and recorded.
///
/// Cells record the tier that computed them, and a hit serves whatever
/// tier the recording run used, so one store can hold a mix of analytic
/// and forced-Monte-Carlo cells and `store verify` re-derives each
/// through its own tier.
///
/// # Errors
///
/// Backend failures, a hit holding another kind's payload, and compute
/// failures.
pub fn run_cached_with_tiered<C: StoreCell>(
    cell: &C,
    runner: &dyn Runner,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
    analytic: bool,
) -> Result<CachedRun<C>, SpecError> {
    let store = (store, mode, observer);
    cache_or_compute(
        std::slice::from_ref(cell),
        &[0],
        runner,
        store,
        analytic,
        |_, run| run,
    )?
    .pop()
    .ok_or_else(|| SpecError::invalid("cache-or-compute returned no cell"))
}

/// Cache-or-compute for the cells `points` of a grid's expansion `cells`:
/// the one routine behind every store-backed run, one cell or a whole
/// grid. Each cell is looked up once and a hit is handed to `keep` on the
/// spot, so its decoded entry is gone before the next lookup. Every miss
/// goes to one [`Cell::compute_grid`] call, whose completion hook records
/// each cell as soon as its summary is final: a run killed midway leaves
/// every finished cell in the store, in whatever order the runner
/// finished them. A miss repeated in `points` is computed once and served
/// to its repeats. Returns what `keep` made of each cell (given its grid
/// index), in `points` order.
///
/// [`Cell::compute_grid`]: eacp_exec::Cell::compute_grid
pub(crate) fn cache_or_compute<C: StoreCell, T>(
    cells: &[C],
    points: &[usize],
    runner: &dyn Runner,
    (store, mode, observer): (&dyn StoreBackend, CacheMode, &dyn StoreObserver),
    analytic: bool,
    keep: impl Fn(usize, CachedRun<C>) -> T,
) -> Result<Vec<T>, SpecError> {
    /// A point: what `keep` made of a hit, or the grid index, miss number
    /// and outcome of a computed cell.
    enum Slot<T> {
        Served(T),
        Computed(usize, usize, CacheOutcome),
    }
    let run = |index: usize, id, summary: C::Summary, served, source, cache| {
        let report = cells[index].report(&summary, served);
        keep(
            index,
            CachedRun {
                id,
                summary,
                report,
                source,
                cache,
            },
        )
    };
    let mut slots = Vec::with_capacity(points.len());
    let (mut misses, mut miss_ids) = (Vec::new(), Vec::new());
    let mut first_miss = std::collections::BTreeMap::new();
    for &index in points {
        let id = cells[index].cell_id();
        slots.push(if let Some(&miss) = first_miss.get(&id) {
            observer.on_hit(&id);
            Slot::Computed(index, miss, CacheOutcome::Hit)
        } else if let Some(entry) = replay(store, &id, mode, observer)? {
            let summary = entry.summary_of::<C>()?.clone();
            Slot::Served(run(
                index,
                id,
                summary,
                entry.served,
                entry.source,
                CacheOutcome::Hit,
            ))
        } else {
            first_miss.insert(id, misses.len());
            misses.push(index);
            miss_ids.push(id);
            Slot::Computed(index, misses.len() - 1, CacheOutcome::computed(mode))
        });
    }
    let record = |miss: usize, summary: &C::Summary, served: ServeTier| {
        let (cell, id) = (&cells[misses[miss]], miss_ids[miss]);
        store.put(&CellEntry::record(cell, id, summary, served))?;
        observer.on_record(&id);
        Ok(())
    };
    let computed = C::compute_grid(cells, &misses, runner, analytic, &record)?;
    let resolve = |slot| match slot {
        Slot::Served(kept) => kept,
        Slot::Computed(index, miss, cache) => {
            let (summary, served) = computed[miss].clone();
            run(index, miss_ids[miss], summary, served, None, cache)
        }
    };
    Ok(slots.into_iter().map(resolve).collect())
}

/// The replay half of cache-or-compute: the intact entry under `id`, when
/// `mode` serves hits and one exists. Reports the hit, miss or quarantine
/// to `observer`.
fn replay(
    store: &dyn StoreBackend,
    id: &CellId,
    mode: CacheMode,
    observer: &dyn StoreObserver,
) -> Result<Option<CellEntry>, SpecError> {
    if mode == CacheMode::Refresh {
        return Ok(None);
    }
    match store.get(id)? {
        Lookup::Hit { entry, .. } => {
            observer.on_hit(id);
            return Ok(Some(entry));
        }
        Lookup::Quarantined { detail } => observer.on_quarantine(id, &detail),
        Lookup::Miss => {}
    }
    observer.on_miss(id);
    Ok(None)
}

/// The result of a cache-or-compute single execution.
#[derive(Debug, Clone)]
pub struct CachedSingle {
    /// The cell (always the `replications == 0` sentinel).
    pub id: CellId,
    /// The run's outcome (bit-identical on hit and miss).
    pub outcome: RunOutcome,
    /// On a hit, the store entry the result was served from.
    pub source: Option<std::path::PathBuf>,
    /// Hit, miss, or refresh.
    pub cache: CacheOutcome,
}

/// Cache-or-compute for one raw-seed execution (the `eacp run` path).
///
/// Single executions run one replication directly with `mc.seed` — a
/// different computation from a 1-replication Monte-Carlo cell, so they
/// are keyed with the `replications == 0` sentinel. Anomalous outcomes
/// (policy bugs) are returned but never recorded.
pub fn run_cached_single(
    spec: &ExperimentSpec,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
) -> Result<CachedSingle, SpecError> {
    let id = CellId::for_single(spec);
    if let Some(entry) = replay(store, &id, mode, observer)? {
        return Ok(CachedSingle {
            id,
            outcome: entry.as_outcome()?.clone(),
            source: entry.source,
            cache: CacheOutcome::Hit,
        });
    }
    let outcome = run_single(spec)?;
    if outcome.anomaly.is_none() {
        store.put(&CellEntry::outcome(spec, &outcome))?;
        observer.on_record(&id);
    }
    Ok(CachedSingle {
        id,
        outcome,
        source: None,
        cache: CacheOutcome::computed(mode),
    })
}

/// One raw-seed execution of a spec — the computation `eacp run` performs,
/// reproduced here so `verify_cell` can re-derive single-execution cells.
fn run_single(spec: &ExperimentSpec) -> Result<RunOutcome, SpecError> {
    let scenario = spec.scenario.build()?;
    let mut policy = spec.policy.build()?;
    let mut faults = spec.faults.build(spec.mc.seed)?;
    let options = spec.executor.build()?;
    Ok(eacp_sim::Executor::new(&scenario)
        .with_options(options)
        .run(&mut policy, &mut faults))
}

/// Recomputes one stored cell and fails unless the stored bytes equal the
/// recomputation's canonical bytes exactly.
///
/// The error names the entry's provenance path (filesystem backends), so a
/// mismatched artifact is identifiable without bisecting the store.
pub fn verify_cell(store: &dyn StoreBackend, id: &CellId) -> Result<(), SpecError> {
    let (entry, text) = match store.get(id)? {
        Lookup::Hit { entry, text } => (entry, text),
        Lookup::Miss => return Err(SpecError::invalid(format!("cell {id} is not in the store"))),
        Lookup::Quarantined { detail } => {
            return Err(SpecError::invalid(format!(
                "cell {id} failed integrity checks and was quarantined: {detail}"
            )))
        }
    };
    let recomputed = match &entry.payload {
        CellPayload::Outcome(_) => {
            let spec = ExperimentSpec::from_entry(&entry)?;
            CellEntry::outcome(&spec, &run_single(&spec)?)
        }
        CellPayload::Summary(_) => recompute::<ExperimentSpec>(&entry)?,
        CellPayload::Executive(_) => recompute::<ExecutiveSpec>(&entry)?,
    };
    if recomputed.canonical_text() != text {
        let origin = entry
            .source
            .as_ref()
            .map_or_else(|| "in-memory entry".to_owned(), |p| p.display().to_string());
        return Err(SpecError::invalid(format!(
            "cell {id} ({origin}): stored bytes differ from recomputation — \
             corrupt entry or non-reproducible result"
        )));
    }
    Ok(())
}

/// Re-derives a summary cell through the tier that recorded it: an
/// analytic cell must reproduce analytically (a Monte-Carlo recomputation
/// of the same aggregate can differ in the last ulp of the merged
/// accumulators).
fn recompute<C: StoreCell>(entry: &CellEntry) -> Result<CellEntry, SpecError> {
    let cell = C::from_entry(entry)?;
    let analytic = entry.served == ServeTier::Analytic;
    let (summary, served) = cell.compute(&LocalRunner::new(0), analytic)?;
    if served != entry.served {
        return Err(SpecError::invalid(format!(
            "cell {}: marked analytic but its spec is not \
             replication-invariant — tampered entry",
            entry.cell
        )));
    }
    Ok(CellEntry::record(&cell, cell.cell_id(), &summary, served))
}

/// What [`verify_store`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Live entries in the store.
    pub entries: u64,
    /// Entries recomputed and byte-compared.
    pub checked: u64,
}

/// Recomputes a deterministic sample of the store's cells (`sample == 0`
/// means every cell) and fails on the first byte mismatch.
///
/// The sample is an even stride over the sorted cell ids — deterministic
/// by construction, so repeated verification of an unchanged store checks
/// the same cells.
pub fn verify_store(store: &dyn StoreBackend, sample: usize) -> Result<VerifyReport, SpecError> {
    let ids = store.list()?;
    let n = ids.len();
    let take = if sample == 0 { n } else { sample.min(n) };
    for k in 0..take {
        verify_cell(store, &ids[k * n / take])?;
    }
    Ok(VerifyReport {
        entries: n as u64,
        checked: take as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::McSpec;

    fn small_spec(seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: 60,
            seed,
            threads: 1,
        };
        spec
    }

    #[test]
    fn refresh_recomputes_and_overwrites() {
        let store = MemBackend::new();
        let spec = small_spec(4);
        run_cached_tiered(
            &spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        let refreshed =
            run_cached_tiered(&spec, &store, CacheMode::Refresh, &NoopStoreObserver, true).unwrap();
        assert_eq!(refreshed.cache, CacheOutcome::Refreshed);
        // The overwrite is idempotent: the next lookup still hits.
        let hit = run_cached_tiered(
            &spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(hit.summary, refreshed.summary);
    }

    #[test]
    fn single_executions_cache_under_the_sentinel() {
        let store = MemBackend::new();
        let spec = small_spec(5);
        let miss =
            run_cached_single(&spec, &store, CacheMode::ReadWrite, &NoopStoreObserver).unwrap();
        assert_eq!(miss.cache, CacheOutcome::Miss);
        assert_eq!(miss.id.replications, 0);
        let hit =
            run_cached_single(&spec, &store, CacheMode::ReadWrite, &NoopStoreObserver).unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(hit.outcome, miss.outcome, "hit must be bit-identical");
        // The sentinel cell never collides with a Monte-Carlo cell of the
        // same spec and seed.
        let mc = run_cached_tiered(
            &spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_ne!(mc.id, hit.id);
        assert_eq!(store.health().unwrap().entries, 2);
    }

    #[test]
    fn verify_passes_on_intact_stores_and_names_tampered_cells() {
        let store = MemBackend::new();
        for seed in 0..3 {
            run_cached_tiered(
                &small_spec(seed),
                &store,
                CacheMode::ReadWrite,
                &NoopStoreObserver,
                true,
            )
            .unwrap();
        }
        run_cached_single(
            &small_spec(9),
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
        )
        .unwrap();
        let report = verify_store(&store, 0).unwrap();
        assert_eq!(report.entries, 4);
        assert_eq!(report.checked, 4);
        // Sampling checks fewer cells but still passes deterministically.
        let report = verify_store(&store, 2).unwrap();
        assert_eq!(report.checked, 2);

        // Tamper with a payload value. The count is not covered by the
        // spec hash and stays internally consistent, so the entry passes
        // integrity checks — only the byte comparison against an actual
        // recomputation can catch it.
        let ids = store.list().unwrap();
        let Lookup::Hit { mut entry, .. } = store.get(&ids[0]).unwrap() else {
            panic!("expected hit");
        };
        match &mut entry.payload {
            CellPayload::Summary(s) => s.timely = s.timely.wrapping_sub(1),
            CellPayload::Outcome(o) => o.faults += 1,
            CellPayload::Executive(s) => s.jobs = s.jobs.wrapping_add(1),
        }
        store.put(&entry).unwrap();
        let err = verify_store(&store, 0).unwrap_err();
        assert!(err.to_string().contains("differ"), "{err}");
    }

    fn executive_spec(seed: u64) -> ExecutiveSpec {
        use eacp_spec::{ExecutiveMcSpec, FaultSpec, PolicyAssignment, PolicySpec, TaskSetSpec};
        let mut spec = ExecutiveSpec::new(
            "exec-store-test",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        spec.faults = FaultSpec::Poisson { lambda: 8e-4 };
        spec.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 8e-4, 2, 0).unwrap());
        spec.hyperperiods = 2;
        spec.seed = seed;
        spec.mc = Some(ExecutiveMcSpec {
            replications: 10,
            threads: 1,
            queue: None,
        });
        spec
    }

    #[test]
    fn executive_cells_never_collide_with_single_task_cells() {
        let store = MemBackend::new();
        let exec_spec = executive_spec(3);
        let mc_spec = small_spec(3);
        let a = run_cached_tiered(
            &exec_spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        let b = run_cached_tiered(
            &mc_spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(store.health().unwrap().entries, 2);
        // Asking an executive cell for a single-task summary is an error,
        // not a silent reinterpretation.
        let Lookup::Hit { entry, .. } = store.get(&a.id).unwrap() else {
            panic!("expected hit");
        };
        assert!(entry.as_summary().is_err());
        assert!(entry.summary_of::<ExecutiveSpec>().is_ok());
    }

    #[test]
    fn executive_hash_ignores_name_seed_and_scheduling() {
        let base = executive_spec(1);
        let mut renamed = base.clone();
        renamed.name = "something-else".into();
        let mut reseeded = base.clone();
        reseeded.seed = 99;
        let mut rescheduled = base.clone();
        rescheduled.mc = Some(eacp_spec::ExecutiveMcSpec {
            replications: 500,
            threads: 8,
            queue: Some(eacp_spec::QueueSpec {
                workers: 4,
                max_attempts: 2,
                ..Default::default()
            }),
        });
        for variant in [&renamed, &reseeded, &rescheduled] {
            assert_eq!(base.cell_id().spec_hash, variant.cell_id().spec_hash);
        }
        let mut retasked = base.clone();
        retasked.hyperperiods = 5;
        assert_ne!(base.cell_id().spec_hash, retasked.cell_id().spec_hash);
    }

    #[test]
    fn missing_cells_are_verify_errors() {
        let store = MemBackend::new();
        let id = small_spec(1).cell_id();
        let err = verify_cell(&store, &id).unwrap_err();
        assert!(err.to_string().contains("not in the store"), "{err}");
    }
}
