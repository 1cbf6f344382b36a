//! The policy interface: how checkpointing schemes drive the executor.

use crate::costs::CheckpointCosts;
use eacp_energy::DvsConfig;

/// The three checkpoint operations of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CheckpointKind {
    /// SCP — store both processors' states without comparing (`ts` cycles).
    Store,
    /// CCP — compare the states without storing (`tcp` cycles).
    Compare,
    /// CSCP — compare and store (`ts + tcp` cycles); commits on agreement.
    CompareStore,
}

impl CheckpointKind {
    /// Whether this operation compares the two processors' states
    /// (i.e. can detect a fault).
    #[inline]
    pub fn compares(self) -> bool {
        matches!(self, CheckpointKind::Compare | CheckpointKind::CompareStore)
    }

    /// Whether this operation stores a snapshot (i.e. creates a rollback
    /// target).
    #[inline]
    pub fn stores(self) -> bool {
        matches!(self, CheckpointKind::Store | CheckpointKind::CompareStore)
    }
}

/// Read-only view of the execution state offered to a [`Policy`] at each
/// planning point.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// Current wall-clock time.
    pub now: f64,
    /// Useful work already executed since the last rollback target, plus all
    /// committed work — i.e. the current position in the task, in cycles.
    pub position_cycles: f64,
    /// Total task work in cycles (`N`).
    pub work_cycles: f64,
    /// Absolute deadline (`D`).
    pub deadline: f64,
    /// Index of the current speed level (into [`PlanContext::dvs`]).
    pub speed: usize,
    /// Checkpoint cost model (cycles).
    pub costs: &'a CheckpointCosts,
    /// Speed levels available to [`Directive::run`].
    pub dvs: &'a DvsConfig,
}

impl PlanContext<'_> {
    /// Remaining useful work in cycles (`Rc` in the paper's DVS notation).
    pub fn remaining_cycles(&self) -> f64 {
        (self.work_cycles - self.position_cycles).max(0.0)
    }

    /// Time left before the deadline (`Rd`); can be negative when already
    /// past it.
    pub fn time_left(&self) -> f64 {
        self.deadline - self.now
    }

    /// Remaining execution time `Rt = Rc / f` at speed level `speed`.
    pub fn remaining_time_at(&self, speed: usize) -> f64 {
        self.remaining_cycles() / self.dvs.level(speed).frequency
    }
}

/// What the policy wants the executor to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Directive {
    /// Execute `compute_time` wall-clock units of useful computation at
    /// speed level `speed`, then perform the `checkpoint` operation.
    ///
    /// The executor clamps `compute_time` so the segment never overshoots
    /// the end of the task.
    Run {
        /// Speed level index for this segment (and its checkpoint).
        speed: usize,
        /// Useful computation time (wall-clock units, at `speed`).
        compute_time: f64,
        /// Checkpoint operation to perform at the end of the segment.
        checkpoint: CheckpointKind,
    },
    /// Give up: the deadline can no longer be met ("break with task
    /// failure" in the paper's procedures).
    Abort,
}

impl Directive {
    /// Convenience constructor for [`Directive::Run`].
    pub fn run(speed: usize, compute_time: f64, checkpoint: CheckpointKind) -> Self {
        Directive::Run {
            speed,
            compute_time,
            checkpoint,
        }
    }
}

/// A fixed stretch of a policy's committed schedule, ending at its next
/// commit: `subs` segments of `compute_time` at `speed`, each followed by
/// a `sub_kind` checkpoint, then one final segment followed by a
/// [`CheckpointKind::CompareStore`].
///
/// Returned by [`Policy::commit_window`]; see that method for the
/// contract a policy signs by publishing one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitWindow {
    /// Speed level of every segment in the window.
    pub speed: usize,
    /// Useful computation time of every segment in the window.
    pub compute_time: f64,
    /// Checkpoint kind after each of the first `subs` segments. Must be
    /// [`CheckpointKind::Store`] or [`CheckpointKind::Compare`] — the
    /// window's whole point is that only its final operation commits.
    pub sub_kind: CheckpointKind,
    /// Number of `sub_kind` segments before the final commit segment
    /// (may be zero: the very next segment commits).
    pub subs: u32,
}

/// A checkpointing scheme: decides segment lengths, checkpoint kinds and
/// processor speed, and reacts to detected faults.
///
/// Policies are stateful and single-run; Monte-Carlo experiments construct a
/// fresh policy per replication through a factory closure.
pub trait Policy {
    /// Short scheme name used in reports (e.g. `"A_D_S"`).
    fn name(&self) -> &str;

    /// Called at every planning point: task start, after every completed
    /// checkpoint, and after every rollback.
    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive;

    /// Called after every *comparing* checkpoint (CCP / CSCP) completes.
    ///
    /// On a mismatch the executor has already rolled back when this runs, so
    /// `ctx` reflects the post-rollback position — matching the paper's
    /// procedures, which recompute the interval *after* the rollback.
    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        let _ = (ctx, kind, mismatch);
    }

    /// The policy's committed schedule from `ctx` up to its next commit,
    /// if it is fixed in advance — the executor's licence to run the whole
    /// window in its fast path, without a `plan` call per segment.
    ///
    /// `plan` cannot observe fault delivery, so the schedule a policy
    /// promises holds through faults: the window runs until its closing
    /// commit or until the first comparing checkpoint that mismatches,
    /// whichever comes first. Returning `Some(w)` is a promise that,
    /// starting from `ctx`, as long as no comparison mismatches and every
    /// segment runs its full `compute_time` (no task-end clamping,
    /// deadline stop or op-budget stop — the executor verifies all of
    /// these with conservative bounds before taking the window):
    ///
    /// 1. the next `w.subs + 1` calls to [`Policy::plan`] would return
    ///    exactly `Run { speed, compute_time, sub_kind }` for the first
    ///    `w.subs` and `Run { speed, compute_time, CompareStore }` for
    ///    the last;
    /// 2. clean-compare [`Policy::on_compare`] notifications during the
    ///    window do not change the policy's observable behaviour;
    /// 3. one [`Policy::on_commit_window_executed`] call after a clean
    ///    closing commit leaves the policy in the state those `plan`
    ///    calls would have; and
    /// 4. when a comparison inside the window mismatches, the executor
    ///    rolls back and calls `on_compare(ctx_after_rollback, kind,
    ///    true)` — with no `plan` call for the window's earlier segments
    ///    — and afterwards the policy must be in the state the
    ///    per-segment path (those `plan` calls, then the same
    ///    `on_compare`) would have left.
    ///
    /// The method takes `&mut self` so a policy may materialize internal
    /// planning state, but any such mutation must be exactly the state a
    /// subsequent `plan` call would have computed: the executor is free
    /// to reject the window and fall back to per-segment planning.
    ///
    /// The default declines, which is always sound (merely slower).
    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        let _ = ctx;
        None
    }

    /// Notification that the executor executed a full window returned by
    /// [`Policy::commit_window`], ending in a clean commit. Not called for
    /// a window that a mismatching comparison ended.
    fn on_commit_window_executed(&mut self) {}
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        (**self).plan(ctx)
    }

    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        (**self).on_compare(ctx, kind, mismatch)
    }

    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        (**self).commit_window(ctx)
    }

    fn on_commit_window_executed(&mut self) {
        (**self).on_commit_window_executed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(CheckpointKind::Compare.compares());
        assert!(!CheckpointKind::Compare.stores());
        assert!(CheckpointKind::Store.stores());
        assert!(!CheckpointKind::Store.compares());
        assert!(CheckpointKind::CompareStore.compares());
        assert!(CheckpointKind::CompareStore.stores());
    }

    #[test]
    fn context_arithmetic() {
        let costs = CheckpointCosts::paper_scp_variant();
        let dvs = DvsConfig::paper_default();
        let ctx = PlanContext {
            now: 100.0,
            position_cycles: 300.0,
            work_cycles: 1000.0,
            deadline: 900.0,
            speed: 0,
            costs: &costs,
            dvs: &dvs,
        };
        assert_eq!(ctx.remaining_cycles(), 700.0);
        assert_eq!(ctx.time_left(), 800.0);
        assert_eq!(ctx.remaining_time_at(0), 700.0);
        assert_eq!(ctx.remaining_time_at(1), 350.0);
    }

    #[test]
    fn directive_run_constructor() {
        let d = Directive::run(1, 5.0, CheckpointKind::Store);
        assert_eq!(
            d,
            Directive::Run {
                speed: 1,
                compute_time: 5.0,
                checkpoint: CheckpointKind::Store
            }
        );
    }
}
