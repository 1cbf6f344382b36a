//! Property tests for `ExecutiveSummary::merge`: merging any contiguous
//! partition of the seeded horizons equals the unpartitioned fold (the
//! invariant the fixed-block reduction of every runner and the sharded
//! executive sweeps rely on),
//! merge is associative, and the empty summary is the exact two-sided
//! identity.

use eacp_exec::ExecutiveSummary;
use eacp_rtsched::executive::JobRecord;
use proptest::prelude::*;

/// Tasks every synthetic horizon draws its job records from; merge
/// requires both sides to agree on this arity.
const TASKS: usize = 3;

/// Builds a synthetic job record from sampled raw values; `status`
/// selects timely / late so both counter paths are exercised, and the
/// checkpoint counters are cheap deterministic functions of the inputs
/// so every field of the fold carries signal.
fn job(
    task: u64,
    energy: f64,
    response: f64,
    faults: u64,
    rollbacks: u64,
    status: u64,
) -> JobRecord {
    let release = response % 5_000.0;
    JobRecord {
        task: (task % TASKS as u64) as usize,
        release,
        absolute_deadline: release + 8_000.0,
        started: release,
        finished: release + response,
        timely: !status.is_multiple_of(3),
        energy,
        faults: faults as u32,
        rollbacks: rollbacks as u32,
        store_checkpoints: (faults * 3 % 17) as u32,
        compare_checkpoints: (rollbacks * 5 % 13) as u32,
        compare_store_checkpoints: 1 + (faults % 7) as u32,
    }
}

type RawJob = (u64, f64, f64, u64, u64, u64);

fn horizons_from(raw: &[Vec<RawJob>]) -> Vec<Vec<JobRecord>> {
    raw.iter()
        .map(|h| {
            h.iter()
                .map(|&(t, e, resp, f, r, st)| job(t, e, resp, f, r, st))
                .collect()
        })
        .collect()
}

fn absorb_all(horizons: &[Vec<JobRecord>]) -> ExecutiveSummary {
    let mut s = ExecutiveSummary::empty(TASKS);
    for h in horizons {
        s.absorb_horizon(h);
    }
    s
}

/// Float moments match to merge-rounding tolerance.
fn close(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn horizon_strategy() -> impl Strategy<Value = Vec<Vec<RawJob>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                0u64..40,
                1.0f64..1e5,
                1.0f64..2e4,
                0u64..20,
                0u64..10,
                0u64..40,
            ),
            0..12,
        ),
        1..60,
    )
}

proptest! {
    /// Any multi-way contiguous partition of the horizons, merged in
    /// order, equals the unpartitioned fold: counts exactly, moments to
    /// tolerance.
    #[test]
    fn merging_any_partition_equals_unpartitioned_fold(
        raw in horizon_strategy(),
        cuts in proptest::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let horizons = horizons_from(&raw);
        let whole = absorb_all(&horizons);

        let mut bounds: Vec<usize> =
            cuts.iter().map(|f| (f * horizons.len() as f64) as usize).collect();
        bounds.push(0);
        bounds.push(horizons.len());
        bounds.sort_unstable();
        let mut merged = ExecutiveSummary::empty(TASKS);
        for pair in bounds.windows(2) {
            merged.merge(&absorb_all(&horizons[pair[0]..pair[1]]));
        }

        // Counters are exactly partition-invariant.
        prop_assert_eq!(merged.horizons, whole.horizons);
        prop_assert_eq!(merged.jobs, whole.jobs);
        prop_assert_eq!(merged.deadline_misses, whole.deadline_misses);
        prop_assert_eq!(merged.faults, whole.faults);
        prop_assert_eq!(merged.rollbacks, whole.rollbacks);
        prop_assert_eq!(&merged.checkpoints, &whole.checkpoints);
        prop_assert_eq!(merged.miss_ratio.count(), whole.miss_ratio.count());
        prop_assert_eq!(merged.miss_ratio.min(), whole.miss_ratio.min());
        prop_assert_eq!(merged.miss_ratio.max(), whole.miss_ratio.max());
        prop_assert_eq!(merged.energy.min(), whole.energy.min());
        prop_assert_eq!(merged.energy.max(), whole.energy.max());
        // Per-task rows: counters and worst response (a max) exact,
        // energy (a sum) to tolerance.
        for (m, w) in merged.per_task.iter().zip(&whole.per_task) {
            prop_assert_eq!(m.jobs, w.jobs);
            prop_assert_eq!(m.deadline_misses, w.deadline_misses);
            prop_assert_eq!(m.faults, w.faults);
            prop_assert_eq!(m.rollbacks, w.rollbacks);
            prop_assert_eq!(m.worst_response.to_bits(), w.worst_response.to_bits());
            prop_assert!(close(m.energy, w.energy));
        }
        // Float moments match to merge-rounding tolerance.
        prop_assert!(close(merged.total_energy, whole.total_energy));
        prop_assert!(close(merged.mean_miss_ratio(), whole.mean_miss_ratio()));
        prop_assert!(close(merged.mean_energy(), whole.mean_energy()));
        prop_assert!(close(merged.horizon_faults.mean(), whole.horizon_faults.mean()));
        prop_assert!(close(merged.horizon_rollbacks.mean(), whole.horizon_rollbacks.mean()));
        prop_assert!(close(
            merged.energy.population_variance(),
            whole.energy.population_variance()
        ));
        prop_assert!(close(
            merged.miss_ratio.population_variance(),
            whole.miss_ratio.population_variance()
        ));
    }

    /// Merge is associative: (a ⊔ b) ⊔ c equals a ⊔ (b ⊔ c) — counts
    /// exactly, moments to tolerance.
    #[test]
    fn merge_is_associative(raw in horizon_strategy()) {
        let horizons = horizons_from(&raw);
        let third = (horizons.len() / 3).max(1).min(horizons.len());
        let two_thirds = (2 * horizons.len() / 3).clamp(third, horizons.len());
        let a = absorb_all(&horizons[..third]);
        let b = absorb_all(&horizons[third..two_thirds]);
        let c = absorb_all(&horizons[two_thirds..]);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left.horizons, right.horizons);
        prop_assert_eq!(left.jobs, right.jobs);
        prop_assert_eq!(left.deadline_misses, right.deadline_misses);
        prop_assert_eq!(left.faults, right.faults);
        prop_assert_eq!(left.rollbacks, right.rollbacks);
        prop_assert_eq!(&left.checkpoints, &right.checkpoints);
        prop_assert!(close(left.total_energy, right.total_energy));
        prop_assert!(close(left.mean_miss_ratio(), right.mean_miss_ratio()));
        prop_assert!(close(left.mean_energy(), right.mean_energy()));
        prop_assert!(close(
            left.energy.population_variance(),
            right.energy.population_variance()
        ));
    }

    /// The empty summary is an exact two-sided identity of merge.
    #[test]
    fn empty_summary_is_the_merge_identity(raw in horizon_strategy()) {
        let horizons = horizons_from(&raw);
        let s = absorb_all(&horizons);

        let mut left = ExecutiveSummary::empty(TASKS);
        left.merge(&s);
        prop_assert_eq!(&left, &s);

        let mut right = s.clone();
        right.merge(&ExecutiveSummary::empty(TASKS));
        prop_assert_eq!(&right, &s);
    }
}
