//! Shared helpers for the EACP Criterion benches.
//!
//! Each paper table has a dedicated bench (`table1` … `table4`) that times
//! the regeneration of one anchor cell per part at a reduced replication
//! count, plus `figures` (trace generation and rendering),
//! `analysis_kernels` (the closed-form procedures), `simulator`
//! (executor throughput) and `ablations` (design-choice comparisons).
//!
//! Timings are the benchmark payload; the *values* the paper reports are
//! regenerated by `cargo run --release -p eacp-experiments --bin
//! gen-tables`.

#![forbid(unsafe_code)]

use eacp_experiments::{run_cell_with, CellResult, TableId};
use eacp_sim::ExecutorOptions;
use eacp_spec::{ExecSpec, ExperimentSpec};

/// Replications per cell used inside benches (full tables use 10,000; the
/// bench payload only needs a stable, representative workload).
pub const BENCH_REPS: u64 = 200;

/// The paper's fault model (faults during useful computation only).
pub fn paper_options() -> ExecutorOptions {
    ExecSpec::paper()
        .build()
        // audit:allow(panic): `ExecSpec::paper()` is a compiled-in constant
        // covered by the spec crate's tests; failure is a bug, not input.
        .expect("the paper executor spec is valid")
}

/// Runs the `idx`-th cell of a table at bench replication count.
pub fn bench_cell(table: TableId, idx: usize) -> CellResult {
    let config = eacp_experiments::table_config(table);
    let spec = config.cells[idx];
    run_cell_with(&config, &spec, BENCH_REPS, 2006, paper_options())
}

/// The spec document for one scheme of [`bench_cell`]'s workload — benches
/// that time a single scheme run it straight from the spec layer.
pub fn bench_experiment(
    table: TableId,
    idx: usize,
    scheme: eacp_experiments::SchemeId,
) -> ExperimentSpec {
    let config = eacp_experiments::table_config(table);
    let spec = config.cells[idx];
    eacp_experiments::cell_experiment(&config, &spec, scheme, BENCH_REPS, 2006, paper_options())
}

/// Sanity-checks a cell result so a silently broken simulation cannot
/// masquerade as a fast one.
pub fn assert_cell_sane(cell: &CellResult) {
    for s in &cell.schemes {
        assert_eq!(s.summary.anomalies, 0, "{} anomaly", s.name);
        assert_eq!(s.summary.replications, BENCH_REPS);
    }
}
