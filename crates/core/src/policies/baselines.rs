//! Static-interval baseline schemes: Poisson-arrival and k-fault-tolerant.

use crate::analysis::{k_fault_interval, poisson_interval};
use eacp_sim::{CheckpointKind, CommitWindow, Directive, PlanContext, Policy};

/// The Poisson-arrival baseline (Duda 1983): compare-and-store checkpoints
/// at a constant interval `sqrt(2C/λ)`, minimizing the *average* execution
/// time; runs at one fixed speed and never aborts.
///
/// # Examples
///
/// ```
/// use eacp_core::policies::PoissonArrival;
/// use eacp_sim::{CheckpointCosts, Executor, Scenario, TaskSpec};
/// use eacp_energy::DvsConfig;
/// use eacp_faults::DeterministicFaults;
///
/// let s = Scenario::new(
///     TaskSpec::new(1000.0, 5000.0),
///     CheckpointCosts::paper_scp_variant(),
///     DvsConfig::paper_default(),
/// );
/// let mut p = PoissonArrival::new(1e-3, 0);
/// let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
/// assert!(out.timely);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrival {
    lambda: f64,
    speed: usize,
    interval: Option<f64>,
}

impl PoissonArrival {
    /// Creates the scheme for fault rate `lambda`, running at DVS level
    /// `speed`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or NaN.
    pub fn new(lambda: f64, speed: usize) -> Self {
        assert!(
            lambda >= 0.0 && !lambda.is_nan(),
            "lambda must be non-negative"
        );
        Self {
            lambda,
            speed,
            interval: None,
        }
    }

    /// The constant checkpoint interval, once computed (time units at the
    /// configured speed).
    pub fn interval(&self) -> Option<f64> {
        self.interval
    }

    /// Restores the just-constructed state (interval not yet computed) so
    /// one instance can serve many replications.
    pub fn reset(&mut self) {
        self.interval = None;
    }
}

impl Policy for PoissonArrival {
    fn name(&self) -> &str {
        "Poisson"
    }

    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        let f = ctx.dvs.level(self.speed).frequency;
        let c = ctx.costs.cscp_cycles() / f;
        let lambda = self.lambda;
        let itv = *self
            .interval
            .get_or_insert_with(|| poisson_interval(c, lambda));
        // λ = 0 yields an infinite interval: a single checkpoint at task
        // end (the min against the remaining time keeps it finite).
        let dur = itv.min(ctx.remaining_time_at(self.speed));
        Directive::run(self.speed, dur, CheckpointKind::CompareStore)
    }

    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        // Every segment commits: the next interval is a one-segment window.
        // The executor only takes it when the interval fits before the
        // task end, which is exactly when `plan()`'s min() would pick the
        // constant interval; an infinite interval (λ = 0) is rejected by
        // the executor's finiteness guard and falls back to `plan()`. A
        // mismatch at the window's commit changes nothing here: the
        // scheme keeps its interval through faults.
        let f = ctx.dvs.level(self.speed).frequency;
        let c = ctx.costs.cscp_cycles() / f;
        let lambda = self.lambda;
        let itv = *self
            .interval
            .get_or_insert_with(|| poisson_interval(c, lambda));
        Some(CommitWindow {
            speed: self.speed,
            compute_time: itv,
            sub_kind: CheckpointKind::Store, // unused: subs == 0
            subs: 0,
        })
    }
}

/// The k-fault-tolerant baseline (Lee/Shin/Min 1999): compare-and-store
/// checkpoints at a constant interval `sqrt(NC/k)`, minimizing the
/// *worst-case* execution time under up to `k` faults; fixed speed, never
/// aborts.
#[derive(Debug, Clone)]
pub struct KFaultTolerant {
    k: u32,
    speed: usize,
    interval: Option<f64>,
}

impl KFaultTolerant {
    /// Creates the scheme tolerating up to `k` faults at DVS level `speed`.
    pub fn new(k: u32, speed: usize) -> Self {
        Self {
            k,
            speed,
            interval: None,
        }
    }

    /// The constant checkpoint interval, once computed (time units at the
    /// configured speed).
    pub fn interval(&self) -> Option<f64> {
        self.interval
    }

    /// Restores the just-constructed state (interval not yet computed) so
    /// one instance can serve many replications.
    pub fn reset(&mut self) {
        self.interval = None;
    }
}

impl Policy for KFaultTolerant {
    fn name(&self) -> &str {
        "k-f-t"
    }

    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        let f = ctx.dvs.level(self.speed).frequency;
        let c = ctx.costs.cscp_cycles() / f;
        let k = self.k;
        let n_time = ctx.work_cycles / f;
        let itv = *self
            .interval
            .get_or_insert_with(|| k_fault_interval(n_time, k as f64, c));
        let dur = itv.min(ctx.remaining_time_at(self.speed));
        Directive::run(self.speed, dur, CheckpointKind::CompareStore)
    }

    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        // Same shape as `PoissonArrival`: one-segment commit windows at
        // the constant Lee/Shin/Min interval (k = 0 gives an infinite
        // interval, rejected by the executor's finiteness guard).
        let f = ctx.dvs.level(self.speed).frequency;
        let c = ctx.costs.cscp_cycles() / f;
        let k = self.k;
        let n_time = ctx.work_cycles / f;
        let itv = *self
            .interval
            .get_or_insert_with(|| k_fault_interval(n_time, k as f64, c));
        Some(CommitWindow {
            speed: self.speed,
            compute_time: itv,
            sub_kind: CheckpointKind::Store, // unused: subs == 0
            subs: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_energy::DvsConfig;
    use eacp_faults::{DeterministicFaults, PoissonProcess};
    use eacp_sim::{CheckpointCosts, Executor, Scenario, TaskSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario() -> Scenario {
        Scenario::new(
            TaskSpec::new(7600.0, 10_000.0),
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        )
    }

    #[test]
    fn poisson_uses_duda_interval() {
        let s = scenario();
        let mut p = PoissonArrival::new(0.0014, 0);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        let expected_itv = (2.0 * 22.0 / 0.0014_f64).sqrt();
        assert!((p.interval().unwrap() - expected_itv).abs() < 1e-9);
        // ceil(7600 / 177.28) = 43 checkpoints.
        assert_eq!(out.compare_store_checkpoints, 43);
        assert_eq!(out.store_checkpoints, 0);
        assert_eq!(out.compare_checkpoints, 0);
    }

    #[test]
    fn poisson_zero_lambda_single_checkpoint() {
        let s = scenario();
        let mut p = PoissonArrival::new(0.0, 0);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert_eq!(out.compare_store_checkpoints, 1);
        assert!((out.finish_time - 7622.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_at_high_speed_halves_exposure() {
        let s = scenario();
        let mut slow = PoissonArrival::new(0.0014, 0);
        let mut fast = PoissonArrival::new(0.0014, 1);
        let o_slow = Executor::new(&s).run(&mut slow, &mut DeterministicFaults::none());
        let o_fast = Executor::new(&s).run(&mut fast, &mut DeterministicFaults::none());
        assert!(o_fast.finish_time < o_slow.finish_time / 1.9);
        assert!(o_fast.energy > o_slow.energy, "V² doubles at f2");
    }

    #[test]
    fn kft_uses_lee_interval() {
        let s = scenario();
        let mut p = KFaultTolerant::new(5, 0);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        let expected_itv = (7600.0 * 22.0 / 5.0_f64).sqrt();
        assert!((p.interval().unwrap() - expected_itv).abs() < 1e-9);
    }

    #[test]
    fn kft_zero_k_single_checkpoint() {
        let s = scenario();
        let mut p = KFaultTolerant::new(0, 0);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert_eq!(out.compare_store_checkpoints, 1);
    }

    #[test]
    fn baselines_recover_from_faults() {
        let s = scenario();
        for policy in [true, false] {
            let mut faults = DeterministicFaults::new(vec![500.0, 3000.0]);
            let out = if policy {
                let mut p = PoissonArrival::new(0.0014, 0);
                Executor::new(&s).run(&mut p, &mut faults)
            } else {
                let mut p = KFaultTolerant::new(5, 0);
                Executor::new(&s).run(&mut p, &mut faults)
            };
            assert!(out.completed);
            assert_eq!(out.rollbacks, 2);
            assert_eq!(out.faults, 2);
        }
    }

    #[test]
    fn baseline_never_aborts_under_heavy_faults() {
        let s = Scenario::new(
            TaskSpec::new(7600.0, 8_000.0),
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        );
        let mut p = PoissonArrival::new(5e-3, 0);
        let mut faults = PoissonProcess::new(5e-3, StdRng::seed_from_u64(1));
        let out = Executor::new(&s).run(&mut p, &mut faults);
        assert!(!out.aborted);
        assert!(out.anomaly.is_none());
    }
}
