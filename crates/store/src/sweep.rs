//! Store-backed sweeps: serve finished grid cells, schedule only the rest.
//!
//! A sweep expansion derives each grid point's spec (and per-point seed)
//! deterministically from the grid index, so every point *is* a cell,
//! content-addressed. A store-backed sweep records each cell as soon as
//! its summary is final, in whatever order the runner finishes them, so
//! it is resumable for free: kill it anywhere, rerun with the same store,
//! and every finished cell is served as a cache hit while only the
//! uncovered cells go through the runner. The resulting [`GridReport`] is
//! byte-identical to an uninterrupted run — hits reconstruct the exact
//! summary from the lossless entry payload.
//! Both workload kinds share this module: it takes any [`Grid`] of
//! [`StoreCell`]s.

use crate::backend::{Lookup, StoreBackend};
use crate::cell::StoreCell;
use crate::observe::StoreObserver;
use crate::{cache_or_compute, CacheMode, CachedRun};
use eacp_exec::{GridReport, PointReport, Runner, ShardId};
use eacp_spec::{Grid, SpecError};

/// How much of a sweep's grid the store already covers — the store-side
/// analogue of the execution layer's `SweepCoverage` over report files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCoverage {
    /// The sweep's base experiment name.
    pub sweep_name: String,
    /// Total grid points in the full sweep.
    pub total_points: usize,
    /// Grid indices with no intact store entry, ascending.
    pub missing: Vec<usize>,
}

impl StoreCoverage {
    /// Points already covered by intact entries.
    pub fn covered(&self) -> usize {
        self.total_points - self.missing.len()
    }

    /// Whether a store-backed sweep would be served entirely from cache.
    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Inspects how much of `sweep`'s grid the store already holds.
///
/// Corrupt entries encountered along the way are quarantined by the
/// backend and counted as missing — exactly what a subsequent
/// [`run_sweep_cached_tiered`] would recompute.
pub fn store_coverage<C: StoreCell>(
    store: &dyn StoreBackend,
    sweep: &Grid<C>,
) -> Result<StoreCoverage, SpecError> {
    let cells = sweep.expand()?;
    let mut missing = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        if !matches!(store.get(&cell.cell_id())?, Lookup::Hit { .. }) {
            missing.push(index);
        }
    }
    Ok(StoreCoverage {
        sweep_name: sweep.base.name().to_owned(),
        total_points: cells.len(),
        missing,
    })
}

/// Runs a sweep shard against a store: covered cells are served, uncovered
/// cells are scheduled onto `runner` and recorded (`analytic = false` is
/// the CLI's `--no-analytic`).
///
/// Same shard semantics and same report document as
/// `eacp_exec::run_sweep_tiered`, byte for byte: a point's report never
/// depends on whether it was computed or served.
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_cached_tiered<C: StoreCell>(
    sweep: &Grid<C>,
    shard: Option<ShardId>,
    runner: &dyn Runner,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
    analytic: bool,
) -> Result<GridReport<C>, SpecError> {
    GridReport::build(sweep, shard, |cells, points| {
        let store = (store, mode, observer);
        let point = |index, run: CachedRun<C>| PointReport {
            index,
            report: run.report,
        };
        cache_or_compute(cells, points, runner, store, analytic, point)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemBackend, NoopStoreObserver};
    use eacp_exec::LocalRunner;
    use eacp_spec::{Axis, ExperimentSpec, Knob, McSpec, SweepSpec};

    #[test]
    fn per_point_seed_axes_key_distinct_cells() {
        // A seed axis gives grid points identical canonical specs that
        // differ only in mc.seed — the cell key must keep them apart.
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "grid".into();
        base.mc = McSpec {
            replications: 40,
            seed: 5,
            threads: 1,
        };
        let sweep = SweepSpec {
            base,
            axes: vec![Axis::new(Knob::Seed, vec![1, 2, 3])],
        };
        let store = MemBackend::new();
        let report = run_sweep_cached_tiered(
            &sweep,
            None,
            &LocalRunner::new(1),
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_eq!(report.points.len(), 3);
        assert_eq!(store.health().unwrap().entries, 3);
    }
}
