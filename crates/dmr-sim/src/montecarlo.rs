//! Monte-Carlo replication vocabulary: the per-replication seeding
//! contract ([`replication_seed`]) and the mergeable aggregate
//! ([`Summary`]).
//!
//! The paper: "Due to the stochastic nature of the fault arrival process,
//! the experiment is repeated 10,000 times for the same task and the results
//! are averaged over these runs."
//!
//! Execution itself lives in `eacp-exec`: its `Job`/`Runner` API loops the
//! engine over replications seeded by [`replication_seed`] and reduces
//! [`RunOutcome`](crate::outcome::RunOutcome)s into a [`Summary`].

use eacp_numerics::{wilson_interval, OnlineStats};

/// Derives the per-replication seed from the base seed (SplitMix64 mixing,
/// so neighbouring replication indices yield decorrelated streams).
///
/// This is the seeding contract of the workspace: every Monte-Carlo driver
/// (`eacp-exec`'s `Job`/`Runner`, local or queued) derives replication
/// `rep`'s seed this way, so replication outcomes are identical no matter
/// which driver, thread count, worker pool or shard ran them.
#[inline]
pub fn replication_seed(base_seed: u64, replication: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(replication.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Aggregated Monte-Carlo results.
///
/// `energy_timely` matches the paper's `E` (mean over timely completions —
/// `NaN` when no run was timely, exactly as the paper's Tables 1(b)/3(b)
/// report for `U = 1.00`); `p_timely` matches the paper's `P`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total replications.
    pub replications: u64,
    /// Replications that completed at or before the deadline.
    pub timely: u64,
    /// Replications that completed at all (possibly late).
    pub completed: u64,
    /// Replications the policy aborted.
    pub aborted: u64,
    /// Replications with executor anomalies (policy bugs; must be 0).
    pub anomalies: u64,
    /// Energy over timely replications (the paper's `E`).
    pub energy_timely: OnlineStats,
    /// Energy over all replications (untimely runs charged up to ≈`D`).
    pub energy_all: OnlineStats,
    /// Completion time over timely replications.
    pub finish_timely: OnlineStats,
    /// Fault count per replication.
    pub faults: OnlineStats,
    /// Rollback count per replication.
    pub rollbacks: OnlineStats,
    /// Checkpoint count (all kinds) per replication.
    pub checkpoints: OnlineStats,
    /// Fraction of cycles executed at the fastest speed, per replication.
    pub fast_fraction: OnlineStats,
}

impl Summary {
    /// An all-zero summary: the identity element of [`Summary::merge`].
    pub fn empty() -> Self {
        Self {
            replications: 0,
            timely: 0,
            completed: 0,
            aborted: 0,
            anomalies: 0,
            energy_timely: OnlineStats::new(),
            energy_all: OnlineStats::new(),
            finish_timely: OnlineStats::new(),
            faults: OnlineStats::new(),
            rollbacks: OnlineStats::new(),
            checkpoints: OnlineStats::new(),
            fast_fraction: OnlineStats::new(),
        }
    }

    /// Folds one replication outcome into the aggregate.
    pub fn absorb(&mut self, out: &crate::outcome::RunOutcome) {
        self.replications += 1;
        if out.timely {
            self.timely += 1;
            self.energy_timely.push(out.energy);
            self.finish_timely.push(out.finish_time);
        }
        if out.completed {
            self.completed += 1;
        }
        if out.aborted {
            self.aborted += 1;
        }
        if out.anomaly.is_some() {
            self.anomalies += 1;
        }
        self.energy_all.push(out.energy);
        self.faults.push(out.faults as f64);
        self.rollbacks.push(out.rollbacks as f64);
        self.checkpoints.push(out.checkpoints() as f64);
        self.fast_fraction.push(out.fast_fraction());
    }

    /// Merges another partial aggregate into this one (parallel / sharded
    /// reduction).
    ///
    /// Counts, minima and maxima are exactly order-invariant. The floating-
    /// point moments (means, variances) are order-invariant up to last-ulp
    /// rounding of the underlying [`OnlineStats::merge`]; drivers that need
    /// bit-identical results across thread counts must merge partials in a
    /// canonical order over a partition that does not depend on the thread
    /// count — which is exactly what `eacp-exec`'s `LocalRunner` does with
    /// its fixed-size replication blocks.
    pub fn merge(&mut self, other: &Summary) {
        self.replications += other.replications;
        self.timely += other.timely;
        self.completed += other.completed;
        self.aborted += other.aborted;
        self.anomalies += other.anomalies;
        self.energy_timely.merge(&other.energy_timely);
        self.energy_all.merge(&other.energy_all);
        self.finish_timely.merge(&other.finish_timely);
        self.faults.merge(&other.faults);
        self.rollbacks.merge(&other.rollbacks);
        self.checkpoints.merge(&other.checkpoints);
        self.fast_fraction.merge(&other.fast_fraction);
    }

    /// Probability of timely completion (the paper's `P`).
    pub fn p_timely(&self) -> f64 {
        if self.replications == 0 {
            f64::NAN
        } else {
            self.timely as f64 / self.replications as f64
        }
    }

    /// Wilson confidence interval on `P` at `z` standard normal quantiles.
    pub fn p_timely_ci(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.timely, self.replications, z)
    }

    /// Mean energy over timely runs (the paper's `E`; `NaN` when `P = 0`).
    pub fn mean_energy_timely(&self) -> f64 {
        self.energy_timely.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CheckpointCosts;
    use crate::engine::{Executor, ExecutorOptions};
    use crate::policy::{CheckpointKind, Directive, PlanContext, Policy};
    use crate::scenario::Scenario;
    use crate::task::TaskSpec;
    use eacp_energy::DvsConfig;
    use eacp_faults::PoissonProcess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct FixedCscp {
        interval: f64,
    }

    impl Policy for FixedCscp {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
            Directive::run(0, self.interval, CheckpointKind::CompareStore)
        }
    }

    fn scenario() -> Scenario {
        Scenario::new(
            TaskSpec::new(1000.0, 2000.0),
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        )
    }

    /// Sequential replication loop on the engine API under the seeding
    /// contract — the Summary fixtures for the aggregate tests below.
    fn run_reps(s: &Scenario, replications: u64, base_seed: u64, lambda: f64) -> Summary {
        let executor = Executor::new(s).with_options(ExecutorOptions::default());
        let mut sum = Summary::empty();
        for rep in 0..replications {
            let seed = replication_seed(base_seed, rep);
            let mut policy = FixedCscp { interval: 100.0 };
            let mut faults = PoissonProcess::new(lambda, StdRng::seed_from_u64(seed));
            sum.absorb(&executor.run(&mut policy, &mut faults));
        }
        sum
    }

    #[test]
    fn fault_free_aggregate_is_deterministic() {
        let s = scenario();
        let sum = run_reps(&s, 100, 0xEAC9_2006, 0.0);
        assert_eq!(sum.replications, 100);
        assert_eq!(sum.timely, 100);
        assert_eq!(sum.p_timely(), 1.0);
        assert_eq!(sum.anomalies, 0);
        // All runs identical: zero variance.
        assert_eq!(sum.energy_timely.population_variance(), 0.0);
        assert!((sum.finish_timely.mean() - 1220.0).abs() < 1e-9);
    }

    #[test]
    fn fault_rate_reduces_timeliness() {
        let s = Scenario::new(
            TaskSpec::new(1000.0, 1400.0),
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        );
        let low = run_reps(&s, 2000, 7, 1e-5);
        let high = run_reps(&s, 2000, 7, 2e-3);
        assert!(low.p_timely() > high.p_timely());
        assert!(low.faults.mean() < high.faults.mean());
        // Faulty runs do strictly more work on average.
        assert!(high.energy_all.mean() > 0.0);
    }

    #[test]
    fn p_ci_brackets_p() {
        let s = scenario();
        let sum = run_reps(&s, 300, 3, 1e-3);
        let p = sum.p_timely();
        let (lo, hi) = sum.p_timely_ci(1.96);
        assert!(lo <= p && p <= hi);
    }

    #[test]
    fn nan_energy_when_nothing_timely() {
        // Deadline impossible to meet.
        let s = Scenario::new(
            TaskSpec::new(1000.0, 500.0),
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        );
        let sum = run_reps(&s, 50, 0xEAC9_2006, 0.0);
        assert_eq!(sum.timely, 0);
        assert_eq!(sum.p_timely(), 0.0);
        assert!(sum.mean_energy_timely().is_nan(), "paper-style NaN cell");
        // Unconditional energy is still defined.
        assert!(sum.energy_all.mean() > 0.0);
    }

    #[test]
    fn replication_seed_decorrelates() {
        let s0 = replication_seed(1, 0);
        let s1 = replication_seed(1, 1);
        let s2 = replication_seed(2, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
    }
}
