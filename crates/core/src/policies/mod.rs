//! The checkpointing schemes evaluated in the paper.
//!
//! | Paper name | Constructor | Checkpoints | Speed |
//! |---|---|---|---|
//! | Poisson | [`PoissonArrival::new`] | CSCP every `sqrt(2C/λ)` | fixed |
//! | k-f-t | [`KFaultTolerant::new`] | CSCP every `sqrt(NC/k)` | fixed |
//! | A_D (ADT_DVS, DATE'03) | [`Adaptive::adt_dvs`] | adaptive CSCP | DVS |
//! | A_D_S (`adapchp_dvs_SCP`, Fig. 6) | [`Adaptive::dvs_scp`] | adaptive CSCP + SCP subdivision | DVS |
//! | A_D_C (`adapchp_dvs_CCP`, Fig. 7) | [`Adaptive::dvs_ccp`] | adaptive CSCP + CCP subdivision | DVS |
//! | `adapchp-SCP` (Fig. 3) | [`Adaptive::scp`] | adaptive CSCP + SCP subdivision | fixed |
//! | `adapchp-CCP` | [`Adaptive::ccp`] | adaptive CSCP + CCP subdivision | fixed |
//! | ADT without DVS (ablation) | [`Adaptive::cscp`] | adaptive CSCP | fixed |

mod adaptive;
mod baselines;
mod plan_table;

pub use adaptive::{Adaptive, SubCheckpointKind};
pub use baselines::{KFaultTolerant, PoissonArrival};

use eacp_sim::{CheckpointKind, CommitWindow, Directive, PlanContext, Policy};

/// The closed set of in-repo checkpointing schemes, as one concrete type.
///
/// All eight spec schemes map onto these three implementations (the six
/// adaptive variants are [`Adaptive`] configurations). Monte-Carlo loops
/// build one `PolicyKind` per block and [`reset`](PolicyKind::reset) it
/// per replication — no `Box<dyn Policy>` allocation, and the engine loop
/// monomorphizes over the enum so `plan`/`on_compare` inline instead of
/// dispatching virtually. Custom policies outside this set keep using the
/// boxed trait object — the open, slower path.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum PolicyKind {
    Poisson(PoissonArrival),
    KFaultTolerant(KFaultTolerant),
    Adaptive(Adaptive),
}

impl PolicyKind {
    /// Restores the policy to its just-constructed state for a new
    /// replication seeded with `seed`.
    ///
    /// Every in-repo scheme is deterministic given the execution it
    /// observes, so the seed is currently unused — it is part of the
    /// signature so randomized policies can join the pooled path without
    /// changing any replication loop.
    pub fn reset(&mut self, seed: u64) {
        let _ = seed;
        match self {
            PolicyKind::Poisson(p) => p.reset(),
            PolicyKind::KFaultTolerant(p) => p.reset(),
            PolicyKind::Adaptive(p) => p.reset(),
        }
    }
}

impl Policy for PolicyKind {
    #[inline]
    fn name(&self) -> &str {
        match self {
            PolicyKind::Poisson(p) => p.name(),
            PolicyKind::KFaultTolerant(p) => p.name(),
            PolicyKind::Adaptive(p) => p.name(),
        }
    }

    #[inline]
    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        match self {
            PolicyKind::Poisson(p) => p.plan(ctx),
            PolicyKind::KFaultTolerant(p) => p.plan(ctx),
            PolicyKind::Adaptive(p) => p.plan(ctx),
        }
    }

    #[inline]
    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        match self {
            PolicyKind::Poisson(p) => p.on_compare(ctx, kind, mismatch),
            PolicyKind::KFaultTolerant(p) => p.on_compare(ctx, kind, mismatch),
            PolicyKind::Adaptive(p) => p.on_compare(ctx, kind, mismatch),
        }
    }

    #[inline]
    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        match self {
            PolicyKind::Poisson(p) => p.commit_window(ctx),
            PolicyKind::KFaultTolerant(p) => p.commit_window(ctx),
            PolicyKind::Adaptive(p) => p.commit_window(ctx),
        }
    }

    #[inline]
    fn on_commit_window_executed(&mut self) {
        match self {
            PolicyKind::Poisson(p) => p.on_commit_window_executed(),
            PolicyKind::KFaultTolerant(p) => p.on_commit_window_executed(),
            PolicyKind::Adaptive(p) => p.on_commit_window_executed(),
        }
    }
}
