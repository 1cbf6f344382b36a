//! Discrete-event simulator for double-modular-redundancy (DMR) task
//! execution with checkpointing and dynamic voltage scaling.
//!
//! This crate is the execution substrate of the EACP workspace: it owns the
//! *mechanism* of DMR checkpointed execution, while checkpoint *policies*
//! (when to place which checkpoint, at which speed) live in `eacp-core` and
//! are plugged in through the [`Policy`] trait.
//!
//! # Execution model
//!
//! A task of `N` work cycles runs simultaneously on two processors. Faults
//! arrive from an [`eacp_faults::FaultProcess`]; a fault makes the two
//! processors' states diverge until a rollback re-synchronizes them. Three
//! checkpoint operations exist (paper nomenclature):
//!
//! * **SCP** ([`CheckpointKind::Store`]) — snapshot both states; costs
//!   `ts` cycles; detects nothing.
//! * **CCP** ([`CheckpointKind::Compare`]) — compare the two states; costs
//!   `tcp` cycles; detects divergence but stores nothing.
//! * **CSCP** ([`CheckpointKind::CompareStore`]) — compare and store;
//!   costs `ts + tcp` cycles; on agreement it *commits* (rollback can never
//!   move before it).
//!
//! On a detected mismatch the pair rolls back to the **most recent store
//! whose snapshot was taken with identical states** — for the SCP scheme
//! that is the newest clean SCP (paper Fig. 1), for the CCP scheme it
//! degenerates to the enclosing CSCP (paper Fig. 5), and for plain CSCP
//! checkpointing it is the previous CSCP.
//!
//! Faults may also strike *during* checkpoint operations and rollbacks; a
//! snapshot is taken at the instant an operation begins, so a fault landing
//! mid-operation corrupts the running state but not the snapshot.
//!
//! # Quick example
//!
//! ```
//! use eacp_sim::{
//!     CheckpointCosts, CheckpointKind, Directive, Executor, PlanContext, Policy,
//!     Scenario, TaskSpec,
//! };
//! use eacp_energy::DvsConfig;
//! use eacp_faults::DeterministicFaults;
//!
//! /// Fixed-interval CSCP checkpointing at the slow speed.
//! struct Fixed {
//!     interval: f64,
//! }
//!
//! impl Policy for Fixed {
//!     fn name(&self) -> &'static str {
//!         "fixed"
//!     }
//!     fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
//!         Directive::run(0, self.interval, CheckpointKind::CompareStore)
//!     }
//! }
//!
//! let scenario = Scenario::new(
//!     TaskSpec::new(1000.0, 2000.0),
//!     CheckpointCosts::new(2.0, 20.0, 0.0),
//!     DvsConfig::paper_default(),
//! );
//! let mut policy = Fixed { interval: 100.0 };
//! let mut faults = DeterministicFaults::none();
//! let outcome = Executor::new(&scenario).run(&mut policy, &mut faults);
//! assert!(outcome.timely);
//! // 10 segments of 100 cycles at f1 plus 10 CSCPs of 22 cycles.
//! assert!((outcome.finish_time - (1000.0 + 220.0)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod costs;
mod engine;
mod montecarlo;
pub mod observe;
mod outcome;
mod policy;
mod scenario;
mod task;
pub mod trace;

pub use costs::CheckpointCosts;
pub use engine::{Executor, ExecutorOptions, ExecutorScratch};
pub use montecarlo::{replication_seed, Summary};
pub use observe::{NoopObserver, Observer};
pub use outcome::{Anomaly, RunOutcome};
pub use policy::{CheckpointKind, CommitWindow, Directive, PlanContext, Policy};
pub use scenario::Scenario;
pub use task::TaskSpec;
pub use trace::{events_to_csv, TraceEvent, TraceRecorder};
