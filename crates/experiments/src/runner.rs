//! The paper's tables, run cell by cell.
//!
//! A table cell is described once, by [`eacp_spec::paper_cell`];
//! [`cell_experiment`] only adds what a table run decides — the
//! part-lettered name, the replication block and the executor. The
//! Monte-Carlo itself is the caller's: [`run_table`] hands every scheme's
//! [`ExperimentSpec`] to a `compute` closure, which is how `eacp table`
//! runs each cell through the same store / analytic-tier / placement path
//! as `eacp mc`. The same spec, serialized to JSON and fed to
//! `eacp mc --spec`, reproduces any cell of any table bit for bit.

use crate::paper::{paper_cell, PaperCell};
use crate::tables::{table_config, CellSpec, TableConfig, TableId};
use eacp_sim::Summary;
use eacp_spec::{ExecSpec, ExperimentSpec, McSpec, PaperScheme, SummaryReport};

/// Result of one scheme at one operating point.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Which scheme.
    pub scheme: PaperScheme,
    /// Monte-Carlo aggregate.
    pub summary: Summary,
    /// The spec that produced `summary` (serialize it to reproduce the
    /// number outside this harness).
    pub spec: ExperimentSpec,
}

impl SchemeResult {
    /// Display name ("Poisson", "k-f-t", "A_D", "A_D_S"/"A_D_C").
    pub fn name(&self) -> &'static str {
        self.spec.policy.policy_name()
    }

    /// The serializable mirror of [`Self::summary`].
    pub fn summary_report(&self) -> SummaryReport {
        SummaryReport::from_summary(&self.summary)
    }
}

/// All four schemes at one operating point, plus the paper's numbers.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The operating point.
    pub spec: CellSpec,
    /// Results in [`PaperScheme::ALL`] column order.
    pub schemes: Vec<SchemeResult>,
    /// The paper's reported values for this cell, when available.
    pub paper: Option<PaperCell>,
}

impl CellResult {
    /// The result for one scheme.
    pub fn scheme(&self, id: PaperScheme) -> &SchemeResult {
        self.schemes
            .iter()
            .find(|s| s.scheme == id)
            // audit:allow(panic): run_table iterates PaperScheme::ALL, so
            // every id is present by construction.
            .expect("all schemes are always run")
    }
}

/// A fully regenerated table.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// Which table.
    pub id: TableId,
    /// The configuration that produced it.
    pub config: TableConfig,
    /// Row results in configuration order.
    pub cells: Vec<CellResult>,
    /// Replications per scheme per cell.
    pub replications: u64,
}

/// The complete experiment description for one scheme at one cell:
/// [`eacp_spec::paper_cell`] with the part-lettered name
/// (`table1a-u0.76-l0.0014-k5-a_d_s`), `replications` seeded from `seed`,
/// and `executor`.
pub fn cell_experiment(
    config: &TableConfig,
    cell: &CellSpec,
    scheme: PaperScheme,
    replications: u64,
    seed: u64,
    executor: &ExecSpec,
) -> ExperimentSpec {
    let table = config.id.number();
    let mut spec = eacp_spec::paper_cell(table, cell.utilization, cell.lambda, cell.k, scheme)
        // audit:allow(panic): the table grids are compiled-in constants
        // exercised by every experiments test; an invalid one is a bug here.
        .expect("table cells are valid paper cells");
    spec.name = format!(
        "table{table}{}-u{}-l{}-k{}-{}",
        cell.part,
        cell.utilization,
        cell.lambda,
        cell.k,
        spec.policy.tag()
    );
    spec.mc = McSpec {
        replications,
        seed,
        threads: 0,
    };
    spec.executor = executor.clone();
    spec
}

/// Regenerates one full table: every scheme of every cell, in table
/// order, at `replications` per scheme (the paper uses 10,000; lower
/// counts are useful for quick looks and CI).
///
/// Cell `i` is seeded `seed + i` for all four schemes, so the schemes of
/// a row face the same fault streams. `compute` turns each scheme's spec
/// into its summary; it is called once per scheme per cell, in order.
///
/// # Errors
///
/// The first error `compute` returns.
pub fn run_table<E>(
    id: TableId,
    replications: u64,
    seed: u64,
    executor: &ExecSpec,
    mut compute: impl FnMut(&ExperimentSpec) -> Result<Summary, E>,
) -> Result<TableResult, E> {
    let config = table_config(id);
    let mut cells = Vec::with_capacity(config.cells.len());
    for (i, cell) in config.cells.iter().enumerate() {
        let seed = seed.wrapping_add(i as u64);
        let mut schemes = Vec::with_capacity(PaperScheme::ALL.len());
        for scheme in PaperScheme::ALL {
            let spec = cell_experiment(&config, cell, scheme, replications, seed, executor);
            let summary = compute(&spec)?;
            debug_assert_eq!(summary.anomalies, 0, "policy anomaly in {scheme:?}");
            schemes.push(SchemeResult {
                scheme,
                summary,
                spec,
            });
        }
        cells.push(CellResult {
            spec: *cell,
            schemes,
            paper: paper_cell(id, cell.part, cell.utilization, cell.lambda),
        });
    }
    Ok(TableResult {
        id,
        config,
        cells,
        replications,
    })
}

/// A `compute` for [`run_table`] that runs each spec directly, without a
/// store.
#[cfg(test)]
pub(crate) fn direct(spec: &ExperimentSpec) -> Result<Summary, eacp_spec::SpecError> {
    eacp_exec::run(spec).map(|(summary, _)| summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::TablePart;
    use eacp_sim::Policy;

    #[test]
    fn cell_scenario_scales_work_with_util_speed() {
        let work = |id, cell: usize| {
            let config = table_config(id);
            let spec = cell_experiment(
                &config,
                &config.cells[cell],
                PaperScheme::Poisson,
                1,
                0,
                &ExecSpec::paper(),
            );
            spec.scenario.build().unwrap().task.work_cycles
        };
        assert_eq!(work(TableId::Table1, 0), 7600.0);
        assert_eq!(work(TableId::Table2, 0), 15_200.0);
    }

    #[test]
    fn policies_have_expected_names() {
        let cfg = table_config(TableId::Table3);
        let name = |scheme| {
            let spec = cell_experiment(&cfg, &cfg.cells[0], scheme, 1, 0, &ExecSpec::paper());
            spec.policy.build().unwrap().name().to_owned()
        };
        assert_eq!(name(PaperScheme::Poisson), "Poisson");
        assert_eq!(name(PaperScheme::KFaultTolerant), "k-f-t");
        assert_eq!(name(PaperScheme::AdtDvs), "A_D");
        assert_eq!(name(PaperScheme::Proposed), "A_D_C");
    }

    #[test]
    fn cell_experiment_is_the_paper_cell_with_name_mc_and_executor() {
        let executor = ExecSpec::default().with_queue(eacp_spec::QueueSpec {
            workers: 2,
            ..Default::default()
        });
        for id in TableId::ALL {
            let config = table_config(id);
            for cell in &config.cells {
                for scheme in PaperScheme::ALL {
                    let built = cell_experiment(&config, cell, scheme, 321, 9, &executor);
                    let mut expected = eacp_spec::paper_cell(
                        id.number(),
                        cell.utilization,
                        cell.lambda,
                        cell.k,
                        scheme,
                    )
                    .unwrap();
                    assert_eq!(
                        built.name,
                        format!(
                            "table{}{}-u{}-l{}-k{}-{}",
                            id.number(),
                            cell.part,
                            cell.utilization,
                            cell.lambda,
                            cell.k,
                            expected.policy.tag()
                        )
                    );
                    assert_eq!(
                        built.mc,
                        McSpec {
                            replications: 321,
                            seed: 9,
                            threads: 0
                        }
                    );
                    assert_eq!(built.executor, executor);
                    expected.name = built.name.clone();
                    expected.mc = built.mc;
                    expected.executor = executor.clone();
                    assert_eq!(built, expected, "{id} {scheme:?}");
                }
            }
        }
    }

    #[test]
    fn smoke_cell_runs_all_schemes() {
        let table = run_table(TableId::Table1, 60, 1, &ExecSpec::default(), direct).unwrap();
        let cell = &table.cells[0]; // U = 0.76, λ = 1.4e-3, k = 5
        assert_eq!(cell.schemes.len(), 4);
        assert!(cell.paper.is_some());
        for s in &cell.schemes {
            assert_eq!(s.summary.replications, 60);
            assert_eq!(s.summary.anomalies, 0, "{}", s.name());
        }
        // Coarse shape even at 60 reps: adaptive schemes nearly always
        // finish, baselines rarely do at this operating point.
        let p_prop = cell.scheme(PaperScheme::Proposed).summary.p_timely();
        let p_poisson = cell.scheme(PaperScheme::Poisson).summary.p_timely();
        assert!(p_prop > 0.9, "P(A_D_S) = {p_prop}");
        assert!(p_poisson < 0.5, "P(Poisson) = {p_poisson}");
    }

    #[test]
    fn impossible_utilization_gives_zero_p_and_nan_e() {
        // U = 1.00, k = 1 (Table 1(b)): the baselines can never finish by D.
        let table = run_table(TableId::Table1, 40, 2, &ExecSpec::default(), direct).unwrap();
        let cell = table
            .cells
            .iter()
            .find(|c| c.spec.part == TablePart::B && (c.spec.utilization - 1.0).abs() < 1e-9)
            .unwrap();
        let poisson = &cell.scheme(PaperScheme::Poisson).summary;
        assert_eq!(poisson.p_timely(), 0.0);
        assert!(poisson.mean_energy_timely().is_nan());
    }

    #[test]
    fn scheme_result_report_matches_summary() {
        let table = run_table(TableId::Table1, 30, 1, &ExecSpec::default(), direct).unwrap();
        let s = table.cells[0].scheme(PaperScheme::Proposed);
        let report = s.summary_report();
        assert_eq!(report.replications, 30);
        assert_eq!(report.p_timely, s.summary.p_timely());
    }
}
