//! The paper's adaptive checkpointing schemes, with and without DVS and
//! with optional SCP/CCP subdivision — one implementation covering
//! `A_D`, `A_D_S`, `A_D_C` (Figs. 6/7), `adapchp-SCP`/`-CCP` (Fig. 3) and
//! the no-DVS adaptive-CSCP ablation.

use crate::analysis::OptimizeMethod;
use crate::policies::plan_table::{LevelPlan, PlanTable};
use eacp_sim::{CheckpointKind, CommitWindow, Directive, PlanContext, Policy};

/// Which sub-checkpoint is placed between consecutive CSCPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubCheckpointKind {
    /// SCPs between CSCPs (the `adapchp*_SCP` family): errors are detected
    /// late (at the CSCP) but roll back only to the nearest clean store.
    Store,
    /// CCPs between CSCPs (the `adapchp*_CCP` family): errors are detected
    /// early (at the next comparison) but roll back to the interval start.
    Compare,
}

/// One planned CSCP interval: `m` segments of `sub_interval` time units at
/// `speed`, the first `m − 1` ending in sub-checkpoints, the last in a CSCP.
#[derive(Debug, Clone, Copy)]
struct IntervalPlan {
    speed: usize,
    sub_interval: f64,
    m: u32,
    segments_done: u32,
    /// The planned level's frequency (denormalized from `speed`).
    freq: f64,
    /// Reciprocal fast path for the per-segment `remaining / freq`:
    /// `inv_exact` holds exactly when the frequency is a power of two, in
    /// which case multiplying by `inv_freq` is bit-identical to dividing
    /// (both are the correctly rounded `x·2⁻ᵏ`).
    inv_freq: f64,
    inv_exact: bool,
}

impl IntervalPlan {
    fn new(speed: usize, sub_interval: f64, m: u32, level: &LevelPlan) -> Self {
        Self {
            speed,
            sub_interval,
            m,
            segments_done: 0,
            freq: level.f,
            inv_freq: level.inv_f,
            inv_exact: level.inv_exact,
        }
    }

    /// `remaining / freq`, bit-identical to writing the division.
    #[inline]
    fn remaining_time(&self, remaining: f64) -> f64 {
        if self.inv_exact {
            remaining * self.inv_freq
        } else {
            remaining / self.freq
        }
    }
}

/// The adaptive checkpointing policy of the paper.
///
/// Behaviour (matching Figs. 3/6/7):
///
/// 1. At task start — and again after every detected error — pick the speed
///    (lowest level with `t_est <= Rd` when DVS is enabled), compute the
///    CSCP interval via the Fig. 4 `interval()` procedure, and subdivide it
///    into `m` sub-intervals via `num_SCP`/`num_CCP` when a sub-checkpoint
///    kind is configured.
/// 2. Between errors, keep the same interval and subdivision (the paper
///    recomputes only on faults).
/// 3. At each CSCP-interval boundary, "break with task failure" when the
///    remaining execution time exceeds the time left to the deadline.
///
/// Use the named constructors; see the [module docs](crate::policies) for
/// the mapping to the paper's scheme names.
#[derive(Debug, Clone)]
pub struct Adaptive {
    name: &'static str,
    lambda: f64,
    sub: Option<SubCheckpointKind>,
    dvs_enabled: bool,
    fixed_speed: usize,
    optimizer: OptimizeMethod,
    /// Configured fault-tolerance target `k` (the initial fault budget).
    k: u32,
    /// Remaining fault budget `Rf` (decremented on each detected error).
    rf: f64,
    plan: Option<IntervalPlan>,
    /// Count of detected errors (exposed for tests/diagnostics).
    errors_seen: u32,
    /// Per-level planning constants and the memoized subdivision of
    /// each level's Poisson interval, built on the first replan for an
    /// environment. Survives [`Adaptive::reset`]: it holds pure
    /// functions of the costs, the frequencies and λ, so a later
    /// replication reading it plans exactly as a fresh instance would.
    table: PlanTable,
}

impl Adaptive {
    fn new(
        name: &'static str,
        lambda: f64,
        k: u32,
        sub: Option<SubCheckpointKind>,
        dvs_enabled: bool,
        fixed_speed: usize,
    ) -> Self {
        assert!(
            lambda >= 0.0 && !lambda.is_nan(),
            "lambda must be non-negative"
        );
        Self {
            name,
            lambda,
            sub,
            dvs_enabled,
            fixed_speed,
            optimizer: OptimizeMethod::PaperClosedForm,
            k,
            rf: k as f64,
            plan: None,
            errors_seen: 0,
            table: PlanTable::new(),
        }
    }

    /// Restores the just-constructed state (full fault budget, no plan,
    /// no errors seen) so one instance can serve many replications.
    ///
    /// The plan table deliberately survives: it caches pure functions
    /// of its inputs, so a later replication reading it computes exactly
    /// what a fresh instance would.
    pub fn reset(&mut self) {
        self.rf = self.k as f64;
        self.plan = None;
        self.errors_seen = 0;
    }

    /// `A_D`: the DATE'03 ADT_DVS baseline — adaptive CSCP interval with
    /// DVS, no subdivision.
    pub fn adt_dvs(lambda: f64, k: u32) -> Self {
        Self::new("A_D", lambda, k, None, true, 0)
    }

    /// `A_D_S`: `adapchp_dvs_SCP` (paper Fig. 6) — the paper's proposed
    /// scheme for systems whose overhead is dominated by comparison time.
    pub fn dvs_scp(lambda: f64, k: u32) -> Self {
        Self::new("A_D_S", lambda, k, Some(SubCheckpointKind::Store), true, 0)
    }

    /// `A_D_C`: `adapchp_dvs_CCP` (paper Fig. 7) — the paper's proposed
    /// scheme for systems whose overhead is dominated by store time.
    pub fn dvs_ccp(lambda: f64, k: u32) -> Self {
        Self::new(
            "A_D_C",
            lambda,
            k,
            Some(SubCheckpointKind::Compare),
            true,
            0,
        )
    }

    /// `adapchp-SCP` (paper Fig. 3): adaptive SCP subdivision at a fixed
    /// speed (no DVS).
    pub fn scp(lambda: f64, k: u32, speed: usize) -> Self {
        Self::new(
            "A_S",
            lambda,
            k,
            Some(SubCheckpointKind::Store),
            false,
            speed,
        )
    }

    /// `adapchp-CCP`: adaptive CCP subdivision at a fixed speed (no DVS).
    pub fn ccp(lambda: f64, k: u32, speed: usize) -> Self {
        Self::new(
            "A_C",
            lambda,
            k,
            Some(SubCheckpointKind::Compare),
            false,
            speed,
        )
    }

    /// Adaptive CSCP interval at a fixed speed — the DATE'03 ADT scheme
    /// without DVS (ablation baseline, not in the paper's tables).
    pub fn cscp(lambda: f64, k: u32, speed: usize) -> Self {
        Self::new("A", lambda, k, None, false, speed)
    }

    /// Overrides how `num_SCP`/`num_CCP` optimize the subdivision count
    /// (default: the paper's closed-form procedure).
    pub fn with_optimizer(mut self, optimizer: OptimizeMethod) -> Self {
        self.optimizer = optimizer;
        // Memoized subdivisions were computed under the previous optimizer.
        self.table.clear_memos();
        self
    }

    /// Lifetime subdivision-memo (hits, misses) — diagnostics and tests.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.table.stats()
    }

    /// Remaining fault budget `Rf`.
    pub fn remaining_fault_budget(&self) -> f64 {
        self.rf
    }

    /// Errors detected so far.
    pub fn errors_seen(&self) -> u32 {
        self.errors_seen
    }

    /// The configured sub-checkpoint kind, if any.
    pub fn sub_checkpoint(&self) -> Option<SubCheckpointKind> {
        self.sub
    }

    /// Builds a fresh interval plan (paper Fig. 6 lines 2–4 / 15–17)
    /// from the plan table. Returns `None` when the deadline can no longer
    /// be met.
    fn replan(&mut self, ctx: &PlanContext<'_>, remaining_cycles: f64) -> Option<IntervalPlan> {
        // Checked on every replan, not once per replication: the costs and
        // DVS table arrive only with the planning context, and an instance
        // may plan against another environment without a `reset` in
        // between (`table_replans_match_the_reference_functions` reuses one
        // across all its environments, and fails if the table is checked
        // only once). The check compares the context's one-word
        // environment identity.
        self.table.ensure(ctx, self.lambda);
        let rd = ctx.time_left();
        let (speed, rt) = if self.dvs_enabled {
            self.table.choose_speed(remaining_cycles, rd)
        } else {
            let speed = self.fixed_speed;
            (speed, remaining_cycles / self.table.level(speed).f)
        };
        if rt > rd {
            return None; // "break with task failure"
        }
        let interval = self
            .table
            .level(speed)
            .interval(rd, rt, self.rf, self.lambda);
        let (m, sub_interval) = match self.sub {
            None => (1, interval),
            Some(kind) => self.table.subdivide(speed, interval, kind, self.optimizer),
        };
        Some(IntervalPlan::new(
            speed,
            sub_interval,
            m,
            self.table.level(speed),
        ))
    }
}

impl Policy for Adaptive {
    fn name(&self) -> &str {
        self.name
    }

    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        let remaining = ctx.remaining_cycles();
        if remaining <= 1e-9 {
            // All work done but not yet verified (an interval ended exactly
            // at task end with a sub-checkpoint): commit now.
            return Directive::run(ctx.speed, 0.0, CheckpointKind::CompareStore);
        }
        if self.plan.is_none() {
            match self.replan(ctx, remaining) {
                Some(p) => self.plan = Some(p),
                None => return Directive::Abort,
            }
        }
        let sub = self.sub;
        // audit:allow(panic): the branch above either fills `self.plan` or
        // returns `Abort`, so the option is always `Some` here.
        let plan = self.plan.as_mut().expect("plan was just ensured");
        let remaining_time = plan.remaining_time(remaining);
        if plan.segments_done == 0 && remaining_time > ctx.time_left() + 1e-9 {
            // The paper's while-loop guard, re-checked at every CSCP
            // interval boundary.
            return Directive::Abort;
        }
        let last_of_interval = plan.segments_done + 1 >= plan.m;
        let final_segment = remaining_time <= plan.sub_interval + 1e-9;
        let kind = if last_of_interval || final_segment {
            CheckpointKind::CompareStore
        } else {
            // audit:allow(panic): the constructor only accepts `m > 1` plans
            // together with a sub-checkpoint kind, so `sub` is `Some`.
            match sub.expect("m > 1 only with a sub-checkpoint kind") {
                SubCheckpointKind::Store => CheckpointKind::Store,
                SubCheckpointKind::Compare => CheckpointKind::Compare,
            }
        };
        plan.segments_done = if kind == CheckpointKind::CompareStore {
            0
        } else {
            plan.segments_done + 1
        };
        Directive::run(plan.speed, plan.sub_interval, kind)
    }

    fn on_compare(&mut self, _ctx: &PlanContext<'_>, _kind: CheckpointKind, mismatch: bool) {
        if mismatch {
            // Fig. 6 lines 14–17: decrement the fault budget and recompute
            // speed, interval and subdivision at the next planning point.
            self.errors_seen += 1;
            self.rf = (self.rf - 1.0).max(0.0);
            self.plan = None;
        }
    }

    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        let remaining = ctx.remaining_cycles();
        if remaining <= 1e-9 {
            return None; // `plan()` would issue the zero-length commit
        }
        if self.plan.is_none() {
            // Materialize the plan exactly as `plan()` would: `replan` is
            // deterministic in (ctx, rf), so whether or not the executor
            // takes the window, a later `plan()` call sees this identical
            // plan (and `None` here means `plan()` will return `Abort`).
            self.plan = Some(self.replan(ctx, remaining)?);
        }
        // audit:allow(panic): the branch above either fills `self.plan` or
        // returns early, so the option is always `Some` here.
        let plan = self.plan.as_ref().expect("plan was just ensured");
        let remaining_time = plan.remaining_time(remaining);
        if plan.segments_done == 0 && remaining_time > ctx.time_left() + 1e-9 {
            return None; // the interval-boundary abort guard would fire
        }
        // Between errors the schedule is fixed (the paper replans only on
        // faults): the rest of this CSCP interval is committed in advance.
        // A mismatch inside the window reaches `on_compare`, which drops
        // the plan, just as it would after per-segment `plan()` calls.
        let subs = (plan.m - 1).checked_sub(plan.segments_done)?;
        let sub_kind = match self.sub {
            Some(SubCheckpointKind::Compare) => CheckpointKind::Compare,
            // `subs` is 0 for `m == 1` plans; the kind is then unused.
            Some(SubCheckpointKind::Store) | None => CheckpointKind::Store,
        };
        Some(CommitWindow {
            speed: plan.speed,
            compute_time: plan.sub_interval,
            sub_kind,
            subs,
        })
    }

    fn on_commit_window_executed(&mut self) {
        // The window ends in a clean CSCP commit: `plan()` would have
        // counted up to `m` and reset on issuing the CompareStore.
        if let Some(plan) = &mut self.plan {
            plan.segments_done = 0;
        }
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

    fn scenario(util: f64, deadline: f64) -> Scenario {
        Scenario::new(
            TaskSpec::from_utilization(util, 1.0, deadline),
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        )
    }

    #[test]
    fn all_variants_complete_fault_free() {
        let s = scenario(0.76, 10_000.0);
        let policies: Vec<Adaptive> = vec![
            Adaptive::adt_dvs(1e-4, 5),
            Adaptive::dvs_scp(1e-4, 5),
            Adaptive::dvs_ccp(1e-4, 5),
            Adaptive::scp(1e-4, 5, 0),
            Adaptive::ccp(1e-4, 5, 0),
            Adaptive::cscp(1e-4, 5, 0),
        ];
        for mut p in policies {
            let name = p.name().to_owned();
            let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
            assert!(out.completed && out.timely, "{name} failed fault-free run");
            assert!(out.anomaly.is_none(), "{name} anomaly");
        }
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(Adaptive::adt_dvs(1e-3, 5).name(), "A_D");
        assert_eq!(Adaptive::dvs_scp(1e-3, 5).name(), "A_D_S");
        assert_eq!(Adaptive::dvs_ccp(1e-3, 5).name(), "A_D_C");
        assert_eq!(Adaptive::scp(1e-3, 5, 0).name(), "A_S");
        assert_eq!(Adaptive::ccp(1e-3, 5, 0).name(), "A_C");
        assert_eq!(Adaptive::cscp(1e-3, 5, 0).name(), "A");
    }

    #[test]
    fn scp_variant_places_store_checkpoints() {
        let s = scenario(0.5, 20_000.0);
        let mut p = Adaptive::dvs_scp(2e-3, 5);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert!(
            out.store_checkpoints > 0,
            "A_D_S must subdivide with SCPs at λ = 2e-3"
        );
        assert_eq!(out.compare_checkpoints, 0);
        assert!(out.compare_store_checkpoints > 0);
    }

    #[test]
    fn ccp_variant_places_compare_checkpoints() {
        let s = Scenario::new(
            TaskSpec::from_utilization(0.5, 1.0, 20_000.0),
            CheckpointCosts::paper_ccp_variant(),
            DvsConfig::paper_default(),
        );
        let mut p = Adaptive::dvs_ccp(2e-3, 5);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert!(out.compare_checkpoints > 0);
        assert_eq!(out.store_checkpoints, 0);
    }

    #[test]
    fn adt_dvs_uses_only_cscp() {
        let s = scenario(0.76, 10_000.0);
        let mut p = Adaptive::adt_dvs(0.0014, 5);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert_eq!(out.store_checkpoints, 0);
        assert_eq!(out.compare_checkpoints, 0);
    }

    #[test]
    fn dvs_runs_slow_with_ample_slack() {
        let s = scenario(0.3, 40_000.0);
        let mut p = Adaptive::dvs_scp(1e-4, 5);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert_eq!(out.fast_fraction(), 0.0, "no need for f2 at U = 0.3");
    }

    #[test]
    fn dvs_runs_fast_when_tight() {
        // Paper operating point: U = 0.76, λ = 0.0014 ⇒ t_est(f1) ≈ 10835
        // > 10000, so the run must start at f2.
        let s = scenario(0.76, 10_000.0);
        let mut p = Adaptive::dvs_scp(0.0014, 5);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert!(out.fast_fraction() > 0.0);
    }

    #[test]
    fn dvs_downshifts_after_progress() {
        // Start tight (must run fast); after enough progress the f1
        // estimate fits the remaining slack. A replan only happens on a
        // fault, so inject one late in the run.
        let s = scenario(0.76, 10_000.0);
        let mut p = Adaptive::dvs_scp(0.0014, 5);
        let mut faults = DeterministicFaults::new(vec![2500.0]);
        let out = Executor::new(&s).run(&mut p, &mut faults);
        assert!(out.completed, "one fault must be absorbed");
        let frac = out.fast_fraction();
        assert!(
            frac > 0.05 && frac < 0.95,
            "expected a mixed-speed run, got fast fraction {frac}"
        );
        assert!(out.speed_switches >= 1);
    }

    #[test]
    fn fixed_speed_variant_never_switches() {
        let s = scenario(0.5, 20_000.0);
        let mut p = Adaptive::scp(1e-3, 5, 0);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.completed);
        assert_eq!(out.speed_switches, 0);
        assert_eq!(out.fast_fraction(), 0.0);
    }

    #[test]
    fn aborts_when_deadline_impossible() {
        // Remaining time at every speed exceeds the deadline outright.
        let s = Scenario::new(
            TaskSpec::new(30_000.0, 10_000.0), // even f2 needs 15_000
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        );
        let mut p = Adaptive::dvs_scp(1e-4, 5);
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        assert!(out.aborted);
        assert!(!out.completed);
    }

    #[test]
    fn error_decrements_fault_budget_and_replans() {
        let s = scenario(0.5, 20_000.0);
        let mut p = Adaptive::dvs_scp(1e-3, 5);
        let mut faults = DeterministicFaults::new(vec![1000.0, 4000.0]);
        let out = Executor::new(&s).run(&mut p, &mut faults);
        assert!(out.completed);
        assert_eq!(out.rollbacks, 2);
        assert_eq!(p.errors_seen(), 2);
        assert!((p.remaining_fault_budget() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fault_budget_saturates_at_zero() {
        let s = scenario(0.3, 40_000.0);
        let mut p = Adaptive::dvs_scp(1e-3, 1);
        let faults: Vec<f64> = (1..=5).map(|i| i as f64 * 1500.0).collect();
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::new(faults));
        assert!(out.completed);
        assert_eq!(p.errors_seen(), 5);
        assert_eq!(p.remaining_fault_budget(), 0.0);
    }

    #[test]
    fn scp_scheme_beats_cscp_only_under_matching_faults() {
        // The paper's core claim: with expensive comparisons (ts = 2,
        // tcp = 20) and a heavy fault load, SCP subdivision loses less work
        // per error than CSCP-only checkpointing. Compare mean timely
        // finish times under the fault rate the policies assume.
        // eacp-core sits below eacp-exec in the crate graph, so this test
        // aggregates replications directly on the public Summary API with
        // the workspace's standard per-replication seeding.
        use eacp_sim::{replication_seed, Summary};
        let s = scenario(0.76, 10_000.0);
        let lambda = 4e-3;
        let mc = |make: &dyn Fn() -> Adaptive| {
            let executor = Executor::new(&s);
            let mut sum = Summary::empty();
            for rep in 0..400u64 {
                let seed = replication_seed(11, rep);
                let mut p = make();
                let mut f = PoissonProcess::new(lambda, StdRng::seed_from_u64(seed));
                sum.absorb(&executor.run(&mut p, &mut f));
            }
            sum
        };
        let ads = mc(&|| Adaptive::dvs_scp(lambda, 5));
        let ad = mc(&|| Adaptive::adt_dvs(lambda, 5));
        assert!(ads.timely > 0 && ad.timely > 0);
        assert!(
            ads.finish_timely.mean() < ad.finish_timely.mean(),
            "A_D_S {} vs A_D {}",
            ads.finish_timely.mean(),
            ad.finish_timely.mean()
        );
        assert!(ads.p_timely() >= ad.p_timely() - 0.02);
    }

    #[test]
    fn exact_optimizer_variant_also_completes() {
        let s = scenario(0.76, 10_000.0);
        let mut p = Adaptive::dvs_scp(0.0014, 5).with_optimizer(OptimizeMethod::ExactRecursion);
        let mut faults = PoissonProcess::new(0.0014, StdRng::seed_from_u64(99));
        let out = Executor::new(&s).run(&mut p, &mut faults);
        assert!(out.anomaly.is_none());
        assert!(out.completed || out.aborted);
    }

    #[test]
    fn stochastic_runs_have_no_anomalies() {
        // Stress the planner across many seeds; any anomaly is a policy bug.
        let s = scenario(0.8, 10_000.0);
        for seed in 0..200 {
            let mut p = Adaptive::dvs_scp(0.0016, 5);
            let mut faults = PoissonProcess::new(0.0016, StdRng::seed_from_u64(seed));
            let out = Executor::new(&s).run(&mut p, &mut faults);
            assert!(out.anomaly.is_none(), "seed {seed}: {:?}", out.anomaly);
        }
        for seed in 0..200 {
            let mut p = Adaptive::dvs_ccp(0.0016, 5);
            let mut faults = PoissonProcess::new(0.0016, StdRng::seed_from_u64(seed));
            let out = Executor::new(&s).run(&mut p, &mut faults);
            assert!(out.anomaly.is_none(), "seed {seed}: {:?}", out.anomaly);
        }
    }

    use crate::analysis::{
        checkpoint_interval_with_branch, choose_speed, num_ccp, num_scp, IntervalBranch,
        IntervalInputs, RenewalParams,
    };

    /// The replan the plan table replaced, written on the reference
    /// functions in `analysis`: `(speed, m, sub_interval)`.
    fn reference_replan(
        p: &Adaptive,
        ctx: &PlanContext<'_>,
        remaining: f64,
    ) -> Option<(usize, u32, f64, IntervalBranch)> {
        let c_cycles = ctx.costs.cscp_cycles();
        let rd = ctx.time_left();
        let speed = if p.dvs_enabled {
            choose_speed(remaining, rd, c_cycles, p.lambda, ctx.dvs)
        } else {
            p.fixed_speed
        };
        let f = ctx.dvs.level(speed).frequency;
        let rt = remaining / f;
        if rt > rd {
            return None;
        }
        let (interval, branch) = checkpoint_interval_with_branch(IntervalInputs {
            rd,
            rt,
            c: c_cycles / f,
            rf: p.rf,
            lambda: p.lambda,
        });
        let (m, sub_interval) = match p.sub {
            None => (1, interval),
            Some(kind) => {
                let params = RenewalParams::new(
                    ctx.costs.store_cycles / f,
                    ctx.costs.compare_cycles / f,
                    ctx.costs.rollback_cycles / f,
                    p.lambda,
                );
                let m = match kind {
                    SubCheckpointKind::Store => num_scp(interval, &params, p.optimizer),
                    SubCheckpointKind::Compare => num_ccp(interval, &params, p.optimizer),
                };
                (m, interval / m as f64)
            }
        };
        Some((speed, m, sub_interval, branch))
    }

    /// A planning context at time 0 for `s`'s task, as the executor
    /// builds it.
    fn task_start(s: &Scenario) -> PlanContext<'_> {
        PlanContext {
            now: 0.0,
            position_cycles: 0.0,
            work_cycles: s.task.work_cycles,
            deadline: s.task.deadline,
            speed: 0,
            costs: s.costs(),
            dvs: s.dvs(),
            env: s.env(),
        }
    }

    /// Table-based replans pick the speed, subdivision and interval bits
    /// the reference functions pick, over random remaining work, slack,
    /// fault budgets, rates, costs and DVS tables — with the plan table
    /// and its memo warm across inputs of one environment, and rebuilt
    /// when the environment changes under a reused instance. Each
    /// environment is one scenario whose task is rewritten per sample,
    /// as the executive rewrites its template per job.
    #[test]
    fn table_replans_match_the_reference_functions() {
        use eacp_energy::SpeedLevel;
        use rand::Rng;

        let uni = |rng: &mut StdRng, lo: f64, hi: f64| lo + (hi - lo) * rng.gen::<f64>();
        let pick = |rng: &mut StdRng, n: u32| (rng.gen::<f64>() * f64::from(n)) as u32;

        let mut rng = StdRng::seed_from_u64(2006);
        let mut branches = [0u32; 4];
        let (mut zero_lambda, mut s_at_least_one, mut three_levels, mut aborts) = (0, 0, 0, 0);
        let mut memo_hits = 0;
        // One instance planning across every environment: its table is
        // rebuilt whenever the costs or frequencies change.
        let mut reused = Adaptive::dvs_ccp(2e-3, 5);
        for env in 0..600 {
            let store = if rng.gen_bool(0.2) {
                0.0
            } else {
                uni(&mut rng, 0.5, 40.0)
            };
            let compare = uni(&mut rng, 0.5, 40.0);
            let rollback = if rng.gen_bool(0.5) {
                0.0
            } else {
                uni(&mut rng, 0.0, 10.0)
            };
            let n_levels = pick(&mut rng, 3) as usize + 1;
            let mut f = uni(&mut rng, 0.5, 2.0);
            let mut levels = Vec::new();
            for _ in 0..n_levels {
                levels.push(SpeedLevel::new(f, uni(&mut rng, 0.8, 2.5)));
                f *= uni(&mut rng, 1.1, 2.5);
            }
            let mut scenario = Scenario::new(
                TaskSpec::new(1.0, 1.0),
                CheckpointCosts::new(store, compare, rollback),
                DvsConfig::new(levels),
            );
            let (costs, dvs) = (*scenario.costs(), scenario.dvs().clone());
            let lambda = match env % 10 {
                0 => 0.0,
                1 => uni(&mut rng, 0.05, 0.5),
                _ => 10f64.powf(uni(&mut rng, -5.0, -1.5)),
            };
            let k = pick(&mut rng, 8);
            let fixed = pick(&mut rng, n_levels as u32) as usize;
            let mut p = match env % 6 {
                0 => Adaptive::adt_dvs(lambda, k),
                1 => Adaptive::dvs_scp(lambda, k),
                2 => Adaptive::dvs_ccp(lambda, k),
                3 => Adaptive::scp(lambda, k, fixed),
                4 => Adaptive::ccp(lambda, k, fixed),
                _ => Adaptive::cscp(lambda, k, fixed),
            };
            if lambda == 0.0 {
                zero_lambda += 1;
            }
            let c_cycles = costs.cscp_cycles();
            if dvs
                .levels()
                .iter()
                .any(|l| lambda * c_cycles / l.frequency >= 1.0)
            {
                s_at_least_one += 1;
            }
            if n_levels == 3 {
                three_levels += 1;
            }
            for _ in 0..24 {
                let rc = uni(&mut rng, 1.0, 20_000.0);
                let f_max = dvs.level(dvs.fastest()).frequency;
                let rd = uni(
                    &mut rng,
                    0.5 * rc / f_max,
                    3.0 * rc / dvs.level(0).frequency,
                );
                p.rf = f64::from(pick(&mut rng, k + 1));
                scenario.task = TaskSpec::new(rc, rd);
                let ctx = task_start(&scenario);
                reused.rf = p.rf.min(5.0);
                let want = reference_replan(&reused, &ctx, rc);
                let got = reused.replan(&ctx, rc);
                assert_eq!(
                    format!("{:?}", want.map(|w| (w.0, w.1, w.2))),
                    format!("{:?}", got.map(|g| (g.speed, g.m, g.sub_interval))),
                    "env {env}: reused instance"
                );
                let want = reference_replan(&p, &ctx, rc);
                let got = p.replan(&ctx, rc);
                match (want, got) {
                    (None, None) => aborts += 1,
                    (Some((speed, m, sub_interval, branch)), Some(plan)) => {
                        assert_eq!(plan.speed, speed, "env {env}: speed");
                        assert_eq!(plan.m, m, "env {env}: m");
                        assert_eq!(
                            plan.sub_interval.to_bits(),
                            sub_interval.to_bits(),
                            "env {env}: interval {sub_interval} vs {}",
                            plan.sub_interval
                        );
                        assert_eq!(plan.freq.to_bits(), dvs.level(speed).frequency.to_bits());
                        branches[branch as usize] += 1;
                    }
                    (want, got) => panic!("env {env}: reference {want:?}, table {got:?}"),
                }
            }
            memo_hits += p.plan_cache_stats().0;
        }
        assert!(
            branches.iter().all(|&n| n > 0),
            "every Fig. 4 branch is exercised: {branches:?}"
        );
        assert!(zero_lambda > 0 && s_at_least_one > 0 && three_levels > 0 && aborts > 0);
        assert!(memo_hits > 0, "the memo served no replan");
    }

    #[test]
    fn changing_the_optimizer_forgets_memoized_subdivisions() {
        let s = scenario(0.76, 10_000.0);
        let ctx = task_start(&s);
        let mut warm = Adaptive::dvs_scp(0.02, 5);
        warm.replan(&ctx, 7_600.0);
        warm.replan(&ctx, 7_600.0);
        assert_eq!(warm.plan_cache_stats(), (1, 1));
        let mut exact = warm.with_optimizer(OptimizeMethod::ExactRecursion);
        let got = exact.replan(&ctx, 7_600.0).unwrap();
        let want = reference_replan(&exact, &ctx, 7_600.0).unwrap();
        assert_eq!(
            (got.m, got.sub_interval.to_bits()),
            (want.1, want.2.to_bits())
        );
        assert_eq!(exact.plan_cache_stats(), (1, 2), "the memo was recomputed");
    }

    #[test]
    fn another_scenario_with_equal_contents_rebuilds_the_table() {
        let (a, b) = (scenario(0.76, 10_000.0), scenario(0.76, 10_000.0));
        assert_eq!(a, b);
        let mut p = Adaptive::dvs_scp(0.02, 5);
        for (s, stats) in [(&a, (0, 1)), (&a, (1, 1)), (&b, (1, 2)), (&b, (2, 2))] {
            let ctx = task_start(s);
            let got = p.replan(&ctx, 7_600.0).unwrap();
            let want = reference_replan(&p, &ctx, 7_600.0).unwrap();
            assert_eq!(
                (got.speed, got.m, got.sub_interval.to_bits()),
                (want.0, want.1, want.2.to_bits())
            );
            assert_eq!(want.3, IntervalBranch::Poisson, "the memoized I1 split");
            assert_eq!(p.plan_cache_stats(), stats, "b's identity forgets a's memo");
        }
    }

    /// A context that keeps a scenario's identity but carries other
    /// costs breaks [`PlanContext::env`]'s contract; debug builds catch
    /// it on the replan that would serve the stale table.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "changed its costs or frequencies")]
    fn a_forged_environment_identity_panics_in_debug_builds() {
        let s = scenario(0.76, 10_000.0);
        let mut p = Adaptive::dvs_scp(0.02, 5);
        p.replan(&task_start(&s), 7_600.0);
        let other = CheckpointCosts::paper_ccp_variant();
        let forged = PlanContext {
            costs: &other,
            ..task_start(&s)
        };
        p.replan(&forged, 7_600.0);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_negative_lambda() {
        Adaptive::dvs_scp(-1.0, 5);
    }
}
