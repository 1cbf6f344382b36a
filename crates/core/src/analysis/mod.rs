//! The paper's analytical machinery.
//!
//! Every display equation in the available paper text is corrupted by PDF
//! extraction; the formulas here were re-derived from first principles and
//! validated against the limiting cases the paper states in prose and
//! against Monte-Carlo simulation (`crates/exec/tests/analytic_conformance.rs`).
//! Energies assume the paper's unstated supply voltages are `V² = 2` at
//! `f1` and `V² = 4` at `f2` (`eacp_energy::DvsConfig::paper_default`);
//! calibrating them against the paper's tables is open (ROADMAP item 1).

mod dvs;
mod intervals;
mod prediction;
mod renewal;

pub use dvs::{choose_speed, estimated_completion_time};
pub use intervals::{
    checkpoint_interval, checkpoint_interval_with_branch, deadline_interval, k_fault_interval,
    k_fault_threshold, poisson_interval, poisson_threshold, IntervalBranch, IntervalInputs,
};
pub use prediction::{static_scheme_completion, CompletionEstimate};
pub use renewal::{
    ccp_interval_mean_exact, ccp_interval_mean_time, num_ccp, num_scp, scp_interval_mean_exact,
    scp_interval_mean_time, OptimizeMethod, RenewalParams,
};
