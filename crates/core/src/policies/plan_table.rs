//! The adaptive schemes' per-level plan table.
//!
//! The adaptive schemes recompute speed, CSCP interval and `num_SCP` /
//! `num_CCP` subdivision at task start and after every detected error.
//! Most of that computation depends only on the speed level, the
//! checkpoint costs and λ: the square roots of `t_est`, the Poisson
//! threshold's denominator, `I1 = sqrt(2C/λ)` and — because the Fig. 4
//! Poisson branch yields an interval independent of the remaining work
//! and time — the subdivision argmin for `I1`. [`PlanTable`] computes
//! those once per environment, so a replan is a table read plus a few
//! divisions.
//!
//! **Bit identity.** Every table entry is the float expression the
//! reference functions in [`crate::analysis`] evaluate, on the same
//! operands, and the per-replan remainder keeps their operation order;
//! a unit test of the adaptive policy checks table-based replans against
//! the reference functions over random inputs.
//!
//! **Environment identity.** The table records the planning-environment
//! identity it was built for ([`PlanContext::env`], minted per
//! [`Scenario`](eacp_sim::Scenario)) and rebuilds when a replan's
//! context carries another, so an instance reused against a different
//! scenario never serves a stale plan, and a replan checks one word. A
//! scenario's costs and DVS table are read-only, so one identity always
//! names the same costs and frequencies (voltages do not enter
//! planning). Debug builds re-check that by exact equality on every
//! replan that keeps the table.
//!
//! Per the audit rules the table is built in a setup function and only
//! read afterwards (R3): a replication never allocates here.

use crate::analysis::{
    deadline_interval, k_fault_interval, k_fault_threshold, num_ccp, num_scp, OptimizeMethod,
    RenewalParams,
};
use crate::policies::SubCheckpointKind;
use eacp_energy::DvsConfig;
use eacp_sim::{CheckpointCosts, PlanContext};

/// Planning constants of one speed level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelPlan {
    /// The level's frequency `f`.
    pub(crate) f: f64,
    /// `1/f`, and whether multiplying by it is bit-identical to dividing
    /// by `f` (exactly when `f` is a power of two).
    pub(crate) inv_f: f64,
    pub(crate) inv_exact: bool,
    /// `C = c/f`: one CSCP at this level, in time units.
    c: f64,
    /// `1 + s` and `1 − s` of `t_est`, with `s = sqrt(λc/f)`; `t_est` is
    /// infinite when `s >= 1`.
    one_plus_s: f64,
    one_minus_s: f64,
    t_est_finite: bool,
    /// `1 + sqrt(λC/2)`: the denominator of the Poisson threshold `Thλ`.
    poisson_den: f64,
    /// `I1 = sqrt(2C/λ)` (`+inf` at λ = 0).
    i1: f64,
    /// Costs and λ of the renewal analysis at this level (checked by
    /// `RenewalParams::new` where an argmin is computed).
    renewal: RenewalParams,
    /// Memoized `(m, I1/m)` for the subdivision of `I1`.
    i1_split: Option<(u32, f64)>,
}

impl LevelPlan {
    /// The constants of level `f`. Nothing is asserted here: the
    /// reference functions' checks run where a replan uses the level.
    fn new(costs: &CheckpointCosts, f: f64, lambda: f64) -> Self {
        let c_cycles = costs.cscp_cycles();
        let c = c_cycles / f;
        let inv = 1.0 / f;
        // `estimated_completion_time`'s `s`.
        let s = (lambda * c_cycles / f).sqrt();
        Self {
            f,
            inv_f: inv,
            inv_exact: f.to_bits() & ((1u64 << 52) - 1) == 0 && inv.is_finite(),
            c,
            one_plus_s: 1.0 + s,
            one_minus_s: 1.0 - s,
            t_est_finite: s < 1.0,
            // `poisson_threshold`'s denominator and `poisson_interval`.
            poisson_den: 1.0 + (lambda * c / 2.0).sqrt(),
            i1: if lambda <= 0.0 {
                f64::INFINITY
            } else {
                (2.0 * c / lambda).sqrt()
            },
            renewal: RenewalParams {
                store_time: costs.store_cycles / f,
                compare_time: costs.compare_cycles / f,
                rollback_time: costs.rollback_cycles / f,
                lambda,
            },
            i1_split: None,
        }
    }

    /// The Fig. 4 interval at this level: `checkpoint_interval` with
    /// `c = C`.
    pub(crate) fn interval(&self, rd: f64, rt: f64, rf: f64, lambda: f64) -> f64 {
        // The reference's `x > 0.0 && x.is_finite()` checks, written as
        // two float compares: LLVM turns the `is_finite` form into a
        // bit-level class test.
        assert!(
            rt > 0.0 && rt <= f64::MAX,
            "remaining time must be positive and finite"
        );
        let c = self.c;
        assert!(
            c > 0.0 && c <= f64::MAX,
            "checkpoint cost must be positive and finite"
        );
        let poisson_threshold = if lambda <= 0.0 {
            f64::INFINITY
        } else {
            (rd + c) / self.poisson_den
        };
        let exp_error = lambda * rt;
        let raw = if exp_error <= rf {
            if rt > poisson_threshold {
                deadline_interval(rt, rd, c)
            } else if rt > k_fault_threshold(rd, rf, c) {
                k_fault_interval(rt, exp_error, c)
            } else {
                k_fault_interval(rt, rf, c)
            }
        } else if rt > poisson_threshold {
            deadline_interval(rt, rd, c)
        } else {
            self.i1
        };
        raw.clamp(c.min(rt), rt)
    }
}

/// Per-level planning constants for one (costs, frequencies, λ)
/// environment. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct PlanTable {
    /// The [`PlanContext::env`] the table was built for; 0, which no
    /// scenario carries, before the first build.
    env: u64,
    /// Bits of the store, compare and rollback cycles the table was
    /// built for (debug builds check them against each replan's costs).
    costs: [u64; 3],
    /// `c = ts + tcp` of those costs.
    c_cycles: f64,
    levels: Vec<LevelPlan>,
    hits: u64,
    misses: u64,
}

impl PlanTable {
    /// An empty table; the first [`PlanTable::ensure`] builds it.
    // audit:setup: an empty `Vec` does not allocate; the table is filled
    // once per environment in `rebuild`.
    pub(crate) fn new() -> Self {
        Self {
            env: 0,
            costs: [0; 3],
            c_cycles: 0.0,
            levels: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Makes the table match `ctx`'s planning environment, rebuilding it
    /// (and forgetting its memos) when `ctx.env` differs from the
    /// identity it was built for.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `ctx` carries the table's identity but
    /// other costs or frequencies: a context that breaks
    /// [`PlanContext::env`]'s contract.
    #[inline]
    pub(crate) fn ensure(&mut self, ctx: &PlanContext<'_>, lambda: f64) {
        if self.env != ctx.env {
            self.rebuild(ctx, lambda);
        } else {
            debug_assert!(
                self.built_for(ctx.costs, ctx.dvs),
                "planning environment {} changed its costs or frequencies",
                ctx.env
            );
        }
    }

    /// Whether the table was built for exactly `costs` and `dvs`'
    /// frequencies.
    fn built_for(&self, costs: &CheckpointCosts, dvs: &DvsConfig) -> bool {
        self.costs == cost_bits(costs)
            && self.levels.len() == dvs.len()
            && self
                .levels
                .iter()
                .zip(dvs.levels())
                .all(|(l, d)| l.f.to_bits() == d.frequency.to_bits())
    }

    // audit:setup: runs once per planning environment; later replans of
    // the same environment only read the table.
    fn rebuild(&mut self, ctx: &PlanContext<'_>, lambda: f64) {
        let (costs, dvs) = (ctx.costs, ctx.dvs);
        self.env = ctx.env;
        self.costs = cost_bits(costs);
        self.c_cycles = costs.cscp_cycles();
        self.levels.clear();
        self.levels.extend(
            dvs.levels()
                .iter()
                .map(|l| LevelPlan::new(costs, l.frequency, lambda)),
        );
    }

    /// Planning constants of level `speed`.
    #[inline]
    pub(crate) fn level(&self, speed: usize) -> &LevelPlan {
        &self.levels[speed]
    }

    /// `choose_speed`: the slowest level whose `t_est` fits `rd`, else
    /// the fastest, with `Rt = rc/f` at that level.
    #[inline]
    pub(crate) fn choose_speed(&self, rc: f64, rd: f64) -> (usize, f64) {
        // The reference's checks in two float compares each (see
        // `LevelPlan::interval`).
        assert!(
            (0.0..=f64::MAX).contains(&rc),
            "remaining cycles must be non-negative and finite"
        );
        assert!(
            self.c_cycles > 0.0 && self.c_cycles <= f64::MAX,
            "checkpoint cycles must be positive"
        );
        let mut rt = f64::NAN;
        for (idx, level) in self.levels.iter().enumerate() {
            rt = rc / level.f;
            let t_est = if level.t_est_finite {
                rt * level.one_plus_s / level.one_minus_s
            } else {
                f64::INFINITY
            };
            if t_est <= rd {
                return (idx, rt);
            }
        }
        (self.levels.len() - 1, rt)
    }

    /// `num_SCP`/`num_CCP` of `interval` at level `speed`, as `(m,
    /// interval/m)`; the split of `I1` is memoized per level.
    #[inline]
    pub(crate) fn subdivide(
        &mut self,
        speed: usize,
        interval: f64,
        kind: SubCheckpointKind,
        optimizer: OptimizeMethod,
    ) -> (u32, f64) {
        let level = &mut self.levels[speed];
        let is_i1 = interval.to_bits() == level.i1.to_bits();
        if is_i1 {
            if let Some(split) = level.i1_split {
                self.hits += 1;
                return split;
            }
        }
        self.misses += 1;
        let r = level.renewal;
        let params = RenewalParams::new(r.store_time, r.compare_time, r.rollback_time, r.lambda);
        let m = match kind {
            SubCheckpointKind::Store => num_scp(interval, &params, optimizer),
            SubCheckpointKind::Compare => num_ccp(interval, &params, optimizer),
        };
        let split = (m, interval / m as f64);
        if is_i1 {
            level.i1_split = Some(split);
        }
        split
    }

    /// Forgets every memoized split (the optimizer changed).
    pub(crate) fn clear_memos(&mut self) {
        for level in &mut self.levels {
            level.i1_split = None;
        }
    }

    /// Lifetime memo (hits, misses).
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

fn cost_bits(costs: &CheckpointCosts) -> [u64; 3] {
    [
        costs.store_cycles.to_bits(),
        costs.compare_cycles.to_bits(),
        costs.rollback_cycles.to_bits(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{checkpoint_interval, choose_speed, IntervalInputs};
    use eacp_sim::{Scenario, TaskSpec};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panics(run: &dyn Fn()) -> bool {
        catch_unwind(AssertUnwindSafe(run)).is_err()
    }

    /// The table's argument checks panic on exactly the inputs the
    /// reference functions' `is_finite` checks reject.
    #[test]
    fn checks_reject_what_the_reference_functions_reject() {
        let lambda = 1e-3;
        for costs in [
            CheckpointCosts::paper_scp_variant(),
            // `c = ts + tcp` overflows to +inf.
            CheckpointCosts::new(1e308, 1e308, 0.0),
            // `c` is finite in cycles; `c/f` overflows at slow levels.
            CheckpointCosts::new(1.0, f64::MAX, 0.0),
        ] {
            let s = Scenario::new(TaskSpec::new(1.0, 1.0), costs, DvsConfig::paper_default());
            let ctx = PlanContext {
                now: 0.0,
                position_cycles: 0.0,
                work_cycles: 1.0,
                deadline: 1.0,
                speed: 0,
                costs: s.costs(),
                dvs: s.dvs(),
                env: s.env(),
            };
            let mut table = PlanTable::new();
            table.ensure(&ctx, lambda);
            let c_cycles = costs.cscp_cycles();
            for x in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -1.0,
                -5e-324,
                -0.0,
                0.0,
                5e-324,
                1.0,
                f64::MAX,
            ] {
                assert_eq!(
                    panics(&|| {
                        table.choose_speed(x, 1e4);
                    }),
                    panics(&|| {
                        choose_speed(x, 1e4, c_cycles, lambda, s.dvs());
                    }),
                    "choose_speed: rc = {x:?}, c = {c_cycles:?}"
                );
                for (speed, level) in s.dvs().levels().iter().enumerate() {
                    let c = c_cycles / level.frequency;
                    assert_eq!(
                        panics(&|| {
                            table.level(speed).interval(1e4, x, 2.0, lambda);
                        }),
                        panics(&|| {
                            checkpoint_interval(IntervalInputs {
                                rd: 1e4,
                                rt: x,
                                c,
                                rf: 2.0,
                                lambda,
                            });
                        }),
                        "interval: rt = {x:?}, c = {c:?}"
                    );
                }
            }
        }
    }
}
