//! Unified execution layer for the EACP workspace.
//!
//! `eacp-spec` describes experiments; this crate *runs* them, with three
//! composable pieces:
//!
//! * **[`Job`]** — a validated Monte-Carlo experiment, built from an
//!   [`ExperimentSpec`] ([`Job::from_spec`]) or from explicit parts for
//!   custom policies ([`Job::from_parts`]). Replication `i` always runs
//!   with [`eacp_sim::replication_seed`]`(base_seed, i)`.
//! * **[`Observer`]** (re-exported from `eacp-sim`) — a streaming view of
//!   execution: replication brackets, every engine event (segments,
//!   checkpoints, faults, rollbacks, speed changes), deadline misses and
//!   energy samples. Tracing is just the `TraceRecorder` observer; the
//!   [`NoopObserver`] compiles away to the blind fast path.
//! * **[`Runner`]** — where replications execute. [`LocalRunner`] is the
//!   in-process multi-threaded implementation; its canonical fixed-block
//!   reduction makes the merged [`Summary`] bit-identical across thread
//!   counts (see the `runner` module docs). [`QueueRunner`] schedules the
//!   same canonical blocks through a [`WorkQueue`] drained by a worker
//!   pool with lease retry — bit-identical results again, plus the
//!   [`Worker`] seam the remote transport plugs into:
//!   [`RemoteWorker`] ships each leased run of blocks to an `eacp serve`
//!   endpoint in one request over std-only TCP (see the [`remote`]
//!   module).
//!
//! On top sits one **cell pipeline** for both workload kinds. A [`Cell`]
//! is one grid point — a single-task [`ExperimentSpec`] or an EDF
//! executive [`ExecutiveSpec`](eacp_spec::ExecutiveSpec) — with its report
//! codec, placement and computation, on top of `eacp-spec`'s
//! [`GridCell`](eacp_spec::GridCell) hook, which gives both kinds one grid
//! document ([`Grid<C>`](eacp_spec::Grid)). Everything above it is written
//! once over the trait:
//!
//! * [`placement`] builds the runner a spec's queue section asks for
//!   (local, work queue, or remote fleet) — the only place that wiring
//!   exists;
//! * [`run_tiered`] runs one cell on its own placement;
//!   [`run_point_tiered`] runs it on a given runner;
//! * the **sharded sweep executor** ([`run_sweep_tiered`], [`merge_dir`],
//!   [`coverage_dir`]) partitions a grid across machines by index range,
//!   emits one [`GridReport`] JSON document per shard, and reassembles the
//!   full grid — refusing to proceed on missing, duplicated or
//!   spec-mismatched points.
//!
//! The result store (`eacp-store`) adds its cache-or-compute path over the
//! same trait, and [`render_rows`] / [`render_executive_rows`] turn report
//! rows into CSV matrices.
//!
//! # Example
//!
//! ```
//! use eacp_exec::{Job, LocalRunner, Runner};
//! use eacp_spec::ExperimentSpec;
//!
//! let mut spec = ExperimentSpec::paper_nominal();
//! spec.mc.replications = 200;
//! let job = Job::from_spec(&spec).unwrap();
//! let summary = LocalRunner::default().run(&job).unwrap();
//! assert_eq!(summary.replications, 200);
//! // Same job, any thread count: bit-identical summary.
//! assert_eq!(LocalRunner::new(3).run(&job).unwrap(), summary);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod cell;
pub mod csv;
pub mod executive;
pub mod executive_mc;
pub mod job;
pub mod queue;
pub mod remote;
pub mod runner;
pub mod shard;
pub mod workload;

pub use analytic::serve_closed_form;
pub use cell::{placement, run_point_tiered, run_tiered, Cell, CellDone, ExecutiveMcReport};
pub use csv::{render_executive_rows, render_rows, PaperRef, CSV_HEADER, EXECUTIVE_CSV_HEADER};
pub use executive::{run_executive, run_executive_observed};
pub use executive_mc::{ExecutiveJob, ExecutiveReplicator, ExecutiveSummary, TaskAggregate};
pub use job::{FaultFactory, Job, PolicyFactory, Replicator};
pub use queue::{
    resolve_workers, BlockAssignment, BlockBatch, InProcessWorker, Lease, NoopQueueObserver,
    QueueObserver, QueueRunner, QueueStatus, WorkQueue, Worker,
};
pub use remote::{serve_blocking, RemoteServer, RemoteWorker};
pub use runner::{JobDone, LocalRunner, Runner};
pub use shard::{
    coverage_dir, list_report_files, merge_dir, run_sweep, run_sweep_tiered, DocCoverage,
    GridReport, PointReport, ShardId, SweepCoverage,
};
pub use workload::{run_workload_local, Replicate, Workload};

// The execution vocabulary lives in `eacp-sim` (the engine emits the
// events); re-exported here so runner-level code needs one import path.
pub use eacp_sim::{NoopObserver, Observer, Summary};

use eacp_spec::{ExperimentSpec, RunReport, SpecError};

/// Runs one experiment spec end to end on the runner its executor section
/// places it on ([`placement`]), returning both the exact in-memory
/// [`Summary`] (for bit-identical comparisons) and the serializable
/// [`RunReport`]. Every placement honors the canonical-reduction
/// contract, so the choice never changes a single bit of the summary.
///
/// Replication-invariant cells are answered by the closed-form tier
/// ([`serve_closed_form`]) and marked `served: analytic` in the report;
/// use [`run_tiered`] with `analytic = false` (the CLI's `--no-analytic`)
/// to force the full Monte-Carlo loop.
pub fn run(spec: &ExperimentSpec) -> Result<(Summary, RunReport), SpecError> {
    run_tiered(spec, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::{FaultSpec, McSpec};

    fn small_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: 120,
            seed: 9,
            threads: 0,
        };
        spec
    }

    #[test]
    fn run_produces_consistent_summary_and_report() {
        let spec = small_spec();
        let (summary, report) = run(&spec).unwrap();
        assert_eq!(summary.replications, 120);
        assert_eq!(report.summary.replications, 120);
        assert_eq!(report.summary.p_timely, summary.p_timely());
        assert_eq!(report.policy_name, "A_D_S");
        assert_eq!(report.spec, spec);
        assert_eq!(summary.anomalies, 0);
    }

    #[test]
    fn identical_specs_give_bit_identical_summaries() {
        let spec = small_spec();
        let (a, _) = run(&spec).unwrap();
        let (b, _) = run(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn queue_spec_routes_through_the_queue_runner_bit_identically() {
        let plain = small_spec();
        let mut queued = small_spec();
        queued.executor = queued.executor.with_queue(eacp_spec::QueueSpec {
            workers: 3,
            max_attempts: 2,
            ..Default::default()
        });
        let (a, report_a) = run(&plain).unwrap();
        let (b, report_b) = run(&queued).unwrap();
        assert_eq!(a, b, "scheduler choice must not change the summary");
        assert_eq!(report_a.summary, report_b.summary);
        // The embedded spec records how the run was scheduled.
        assert!(report_b.spec.executor.queue.is_some());

        queued.executor.queue = Some(eacp_spec::QueueSpec {
            workers: 1,
            max_attempts: 0,
            ..Default::default()
        });
        assert!(run(&queued).is_err(), "zero attempt budget is invalid");
    }

    #[test]
    fn bad_spec_is_an_error_not_a_panic() {
        let mut spec = small_spec();
        spec.faults = FaultSpec::Poisson { lambda: f64::NAN };
        assert!(run(&spec).is_err());
    }
}
