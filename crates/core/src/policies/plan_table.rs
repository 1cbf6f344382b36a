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
//! the reference functions over random inputs. The table is re-checked
//! on every replan by exact equality of the checkpoint costs and the
//! level frequencies (voltages do not enter planning), so an instance
//! reused against a different scenario rebuilds it rather than serving
//! a stale plan.
//!
//! Per the audit rules the table is built in a setup function and only
//! read afterwards (R3): a replication never allocates here.

use crate::analysis::{
    deadline_interval, k_fault_interval, k_fault_threshold, num_ccp, num_scp, OptimizeMethod,
    RenewalParams,
};
use crate::policies::SubCheckpointKind;
use eacp_energy::DvsConfig;
use eacp_sim::CheckpointCosts;

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
        assert!(
            rt > 0.0 && rt.is_finite(),
            "remaining time must be positive and finite"
        );
        let c = self.c;
        assert!(
            c > 0.0 && c.is_finite(),
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
    /// Bits of the store, compare and rollback cycles the table was
    /// built for.
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
            costs: [0; 3],
            c_cycles: 0.0,
            levels: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Makes the table match `costs` and `dvs`, rebuilding it (and
    /// forgetting its memos) when either differs from the environment it
    /// was built for.
    #[inline]
    pub(crate) fn ensure(&mut self, costs: &CheckpointCosts, dvs: &DvsConfig, lambda: f64) {
        let same = self.costs == cost_bits(costs)
            && self.levels.len() == dvs.len()
            && self
                .levels
                .iter()
                .zip(dvs.levels())
                .all(|(l, d)| l.f.to_bits() == d.frequency.to_bits());
        if !same {
            self.rebuild(costs, dvs, lambda);
        }
    }

    // audit:setup: runs once per planning environment; later replans of
    // the same environment only read the table.
    fn rebuild(&mut self, costs: &CheckpointCosts, dvs: &DvsConfig, lambda: f64) {
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
        assert!(
            rc >= 0.0 && rc.is_finite(),
            "remaining cycles must be non-negative and finite"
        );
        assert!(
            self.c_cycles > 0.0 && self.c_cycles.is_finite(),
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
