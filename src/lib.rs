//! # EACP — Energy-Aware Adaptive Checkpointing
//!
//! A full Rust reproduction of *Li, Chen, Yu — "Performance Optimization
//! for Energy-Aware Adaptive Checkpointing in Embedded Real-Time Systems"
//! (DATE 2006)*: double-modular-redundancy (DMR) task execution with
//! store-checkpoints (SCP), compare-checkpoints (CCP) and
//! compare-and-store checkpoints (CSCP), adaptive checkpoint-interval
//! selection, optimal sub-checkpoint placement, and dynamic voltage
//! scaling (DVS) for energy reduction.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the paper's analysis and checkpointing policies;
//! * [`sim`] — the DMR discrete-event simulator and its `Observer` event
//!   stream;
//! * [`exec`] — the unified execution layer: `Job`s, `Runner`s, the
//!   sharded sweep executor and report renderers;
//! * [`faults`] — transient-fault arrival processes;
//! * [`energy`] — DVS speed levels and energy accounting;
//! * [`numerics`] — minimization, root finding, online statistics;
//! * [`rtsched`] — periodic task sets, feasibility tests, EDF executive;
//! * [`experiments`] — the harness regenerating the paper's Tables 1–4;
//! * [`spec`] — declarative, serializable experiment descriptions: the
//!   JSON layer driving the CLI, the experiments harness, the examples
//!   and the benches. `spec + seed = identical results`.
//!
//! # Quickstart
//!
//! Run the paper's proposed `A_D_S` scheme on its nominal operating point
//! and inspect the outcome:
//!
//! ```
//! use eacp::core::policies::Adaptive;
//! use eacp::energy::DvsConfig;
//! use eacp::faults::PoissonProcess;
//! use eacp::sim::{CheckpointCosts, Executor, Scenario, TaskSpec};
//! use rand::SeedableRng;
//!
//! let scenario = Scenario::new(
//!     TaskSpec::from_utilization(0.76, 1.0, 10_000.0),
//!     CheckpointCosts::paper_scp_variant(),
//!     DvsConfig::paper_default(),
//! );
//! let lambda = 0.0014;
//! let mut policy = Adaptive::dvs_scp(lambda, 5);
//! let mut faults =
//!     PoissonProcess::new(lambda, rand::rngs::StdRng::seed_from_u64(7));
//! let outcome = Executor::new(&scenario).run(&mut policy, &mut faults);
//! println!(
//!     "timely: {}, energy: {:.0}, rollbacks: {}",
//!     outcome.timely, outcome.energy, outcome.rollbacks
//! );
//! ```
//!
//! Regenerate the paper's tables with `eacp table N` (`N` = 1..4; see
//! `eacp --help` for the store, queue and output flags it honours).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eacp_core as core;
pub use eacp_energy as energy;
pub use eacp_exec as exec;
pub use eacp_experiments as experiments;
pub use eacp_faults as faults;
pub use eacp_numerics as numerics;
pub use eacp_rtsched as rtsched;
pub use eacp_sim as sim;
pub use eacp_spec as spec;
