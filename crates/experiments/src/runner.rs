//! The paper's tables, regrouped from grid reports.
//!
//! A table runs as its two part documents
//! ([`table_grids`](crate::tables::table_grids)) through the
//! grid path `eacp sweep` uses — the store, the analytic tier and the
//! runner placement included. [`TableResult::from_reports`] only regroups
//! the resulting [`GridReport`]s into rows of four schemes for the
//! renderers, and pairs each with the paper's values by position. Every
//! scheme result embeds the spec of its grid point, which `eacp mc
//! --spec` reproduces bit for bit.

use crate::tables::{table_config, CellSpec, PaperScheme, TableConfig, TableId};
use eacp_exec::{GridReport, PaperRef};
use eacp_spec::{ExperimentSpec, SummaryReport};

/// Result of one scheme at one operating point.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Which scheme.
    pub scheme: PaperScheme,
    /// Monte-Carlo aggregate.
    pub summary: SummaryReport,
    /// The spec that produced `summary` (serialize it to reproduce the
    /// number outside this harness).
    pub spec: ExperimentSpec,
    /// The paper's reported values for this scheme at this operating
    /// point.
    pub paper: PaperRef,
}

impl SchemeResult {
    /// Display name ("Poisson", "k-f-t", "A_D", "A_D_S"/"A_D_C").
    pub fn name(&self) -> &'static str {
        self.spec.policy.policy_name()
    }
}

/// All four schemes at one operating point.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The operating point.
    pub spec: CellSpec,
    /// Results in [`PaperScheme::ALL`] column order.
    pub schemes: Vec<SchemeResult>,
}

impl CellResult {
    /// The result for one scheme.
    pub fn scheme(&self, id: PaperScheme) -> &SchemeResult {
        self.schemes
            .iter()
            .find(|s| s.scheme == id)
            // audit:allow(panic): every row of a table document lists the
            // four schemes, pinned by the document tests.
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

impl TableResult {
    /// Regroups the full-grid reports of a table's part documents, (a)
    /// then (b) as [`table_grids`](crate::tables::table_grids) lists them,
    /// into rows of the four schemes in [`PaperScheme::ALL`] order, each
    /// with the paper's values of its row and column.
    pub fn from_reports(id: TableId, parts: &[GridReport]) -> Self {
        let config = table_config(id);
        let reports: Vec<_> = parts
            .iter()
            .flat_map(|grid| grid.points.iter().map(|p| &p.report))
            .collect();
        debug_assert!(reports.iter().all(|r| r.summary.anomalies == 0));
        let cells = config
            .cells
            .iter()
            .zip(reports.chunks(PaperScheme::ALL.len()))
            .zip(crate::paper::table_rows(id))
            .map(|((cell, row), paper)| CellResult {
                spec: *cell,
                schemes: PaperScheme::ALL
                    .iter()
                    .zip(row)
                    .zip(paper)
                    .map(|((&scheme, report), paper)| SchemeResult {
                        scheme,
                        summary: report.summary.clone(),
                        spec: report.spec.clone(),
                        paper,
                    })
                    .collect(),
            })
            .collect();
        let replications = parts
            .first()
            .map_or(0, |grid| grid.sweep.base.mc.replications);
        TableResult {
            id,
            config,
            cells,
            replications,
        }
    }
}

/// One table at `replications` per scheme from `seed`, on `executor`, run
/// in-process through the grid path.
#[cfg(test)]
pub(crate) fn run_local(
    id: TableId,
    replications: u64,
    seed: u64,
    executor: &eacp_spec::ExecSpec,
) -> TableResult {
    let reports = crate::tables::table_grids(id).map(|mut grid| {
        grid.base.mc.replications = replications;
        grid.base.mc.seed = seed;
        grid.base.executor = executor.clone();
        eacp_exec::run_sweep(&grid, None, 0).unwrap()
    });
    TableResult::from_reports(id, &reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{table_grids, TablePart};
    use eacp_sim::Policy;
    use eacp_spec::{ExecSpec, ToJson};

    #[test]
    fn cell_scenario_scales_work_with_util_speed() {
        let work = |id| {
            let [a, _] = table_grids(id);
            let spec = &a.expand().unwrap()[0];
            spec.scenario.build().unwrap().task.work_cycles
        };
        assert_eq!(work(TableId::Table1), 7600.0);
        assert_eq!(work(TableId::Table2), 15_200.0);
    }

    #[test]
    fn policies_have_expected_names() {
        let [a, _] = table_grids(TableId::Table3);
        let cells = a.expand().unwrap();
        let names: Vec<String> = cells[..4]
            .iter()
            .map(|spec| spec.policy.build().unwrap().name().to_owned())
            .collect();
        assert_eq!(names, ["Poisson", "k-f-t", "A_D", "A_D_C"]);
    }

    #[test]
    fn smoke_cell_runs_all_schemes() {
        let table = run_local(TableId::Table1, 60, 1, &ExecSpec::default());
        let cell = &table.cells[0]; // U = 0.76, λ = 1.4e-3, k = 5
        assert_eq!(cell.schemes.len(), 4);
        assert_eq!(cell.scheme(PaperScheme::Poisson).paper.p, 0.1185);
        for s in &cell.schemes {
            assert_eq!(s.summary.replications, 60);
            assert_eq!(s.summary.anomalies, 0, "{}", s.name());
        }
        // Coarse shape even at 60 reps: adaptive schemes nearly always
        // finish, baselines rarely do at this operating point.
        let p_prop = cell.scheme(PaperScheme::Proposed).summary.p_timely;
        let p_poisson = cell.scheme(PaperScheme::Poisson).summary.p_timely;
        assert!(p_prop > 0.9, "P(A_D_S) = {p_prop}");
        assert!(p_poisson < 0.5, "P(Poisson) = {p_poisson}");
    }

    #[test]
    fn impossible_utilization_gives_zero_p_and_nan_e() {
        // U = 1.00, k = 1 (Table 1(b)): the baselines can never finish by D.
        let table = run_local(TableId::Table1, 40, 2, &ExecSpec::default());
        let cell = table
            .cells
            .iter()
            .find(|c| c.spec.part == TablePart::B && (c.spec.utilization - 1.0).abs() < 1e-9)
            .unwrap();
        let poisson = &cell.scheme(PaperScheme::Poisson).summary;
        assert_eq!(poisson.p_timely, 0.0);
        assert!(poisson.energy_timely.mean.is_nan());
    }

    #[test]
    fn scheme_result_report_matches_summary() {
        // Each scheme result is its grid point's report: the summary and
        // spec of point `4 * row + scheme`, row `i` seeded `seed + i`.
        let [mut a, _] = table_grids(TableId::Table1);
        a.base.mc.replications = 30;
        a.base.mc.seed = 1;
        let grid = eacp_exec::run_sweep(&a, None, 0).unwrap();
        let table = TableResult::from_reports(TableId::Table1, std::slice::from_ref(&grid));
        assert_eq!(table.cells.len(), 8);
        assert_eq!(table.replications, 30);
        for (i, cell) in table.cells.iter().enumerate() {
            for (j, s) in cell.schemes.iter().enumerate() {
                let report = &grid.points[4 * i + j].report;
                // (NaN energies make the reports compare by their bytes.)
                assert_eq!(
                    s.summary.to_json().pretty(),
                    report.summary.to_json().pretty()
                );
                assert_eq!(s.spec, report.spec);
                assert_eq!(s.spec.mc.seed, 1 + i as u64);
                assert_eq!(s.summary.replications, 30);
            }
        }
    }
}
