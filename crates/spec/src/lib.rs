//! Declarative, serializable experiment descriptions for the EACP
//! workspace — the single source of truth every entry point builds from.
//!
//! The paper's evaluation is a grid of scenarios: four schemes, four
//! tables, each a `(U, λ, k)` sweep. Before this crate, every consumer
//! (CLI flags, the table harness, the examples, the benches) re-invented
//! that construction by hand. Now one [`ExperimentSpec`] — a plain data
//! structure with an exact JSON form — describes a complete experiment:
//!
//! * [`ScenarioSpec`] — task work/deadline, checkpoint costs, DVS levels;
//! * [`FaultSpec`] — Poisson / deterministic / Weibull / burst / phased
//!   fault arrivals;
//! * [`PolicySpec`] — all eight checkpointing schemes, with a
//!   `build() -> Box<dyn Policy>` factory;
//! * [`McSpec`] / [`ExecSpec`] — replications, seeding, threads, and
//!   executor semantics;
//! * [`Grid`] — grids over utilization, λ, k, costs, hyperperiods and
//!   seeds, for either cell kind ([`SweepSpec`], `Grid<ExecutiveSpec>`);
//!   each parameter is one [`Knob`] that the kind's [`GridCell::set`]
//!   hook writes, for grid axes and CLI flags alike;
//! * [`TaskSetSpec`] / [`ExecutiveSpec`] — periodic task sets and the
//!   EDF-executive workload around them ([`executive`] module), with the
//!   serializable [`ExecutiveRunReport`] result schema;
//! * [`presets`] — the paper's operating points by name, plus new
//!   workloads (`satellite-telemetry`, `battery-budget`,
//!   `high-fault-burst`).
//!
//! The contract that makes this useful: **spec + seed = identical
//! results**. Serializing a spec to JSON, reading it back and running it
//! reproduces the original [`eacp_sim::Summary`] bit for bit, across
//! thread counts. Reports ([`report::RunReport`]) embed the producing spec
//! for provenance.
//!
//! The offline build environment has no serde, so [`json`] is a small
//! exact-round-trip JSON model and spec types implement [`ToJson`] /
//! [`FromJson`] directly; the trait shape deliberately mirrors a serde
//! derive so the real dependency can be swapped in later without touching
//! call sites.
//!
//! Execution lives one layer up in `eacp-exec`: `eacp_exec::run(&spec)`
//! turns a spec into a `(Summary, RunReport)` through the `Job`/`Runner`
//! API, picking the work-queue scheduler when the spec's
//! [`ExecSpec::queue`] asks for it.
//!
//! # Example
//!
//! ```
//! use eacp_spec::{ExperimentSpec, ToJson};
//!
//! let text = r#"{
//!     "name": "quick-look",
//!     "scenario": {
//!         "work": {"kind": "utilization", "utilization": 0.76, "deadline": 10000},
//!         "costs": {"kind": "paper-scp"}
//!     },
//!     "faults": {"kind": "poisson", "lambda": 0.0014},
//!     "policy": {"kind": "a_d_s", "lambda": 0.0014, "k": 5},
//!     "mc": {"replications": 200, "seed": 7}
//! }"#;
//! let spec = ExperimentSpec::from_json_str(text).unwrap();
//! spec.validate().unwrap();
//! assert_eq!(spec.policy.policy_name(), "A_D_S");
//! // The document round-trips exactly.
//! let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
//! assert_eq!(back, spec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod executive;
pub mod json;
pub mod model;
pub mod presets;
pub mod report;
pub mod sweep;

pub use error::SpecError;
pub use executive::{
    CheckpointTotals, ExecutiveMcSpec, ExecutiveRunReport, ExecutiveSpec, ExecutiveSummaryReport,
    PeriodicTaskSpec, PolicyAssignment, TaskReport, TaskSetSpec,
};
pub use json::{FromJson, Json, JsonReader, JsonWriter, Members, ToJson};
pub use model::{
    CostsSpec, DvsSpec, ExecSpec, ExperimentSpec, FaultSpec, McSpec, OptimizerSpec, PolicySpec,
    QueueSpec, ScenarioSpec, WorkSpec, DEFAULT_REMOTE_TIMEOUT_MS,
};
pub use presets::{
    executive_preset, executive_preset_names, preset, preset_names, table_document, PAPER_DEADLINE,
};
pub use report::{RunReport, ServeTier, StatsReport, SummaryReport};
pub use sweep::{Axis, Grid, GridCell, Knob, KnobKind, Point, SweepSpec};
