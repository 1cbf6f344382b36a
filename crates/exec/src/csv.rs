//! CSV renderers over report rows, one per workload kind.
//!
//! Single-task rows: scheme, `P` with its 95% Wilson interval, `E`, and —
//! for cells of the paper's tables — the paper's `P`/`E` and the
//! measured-minus-paper deltas. The lookup is injected as a closure so
//! this crate stays independent of `eacp-experiments` (which owns the
//! transcribed paper values) and of the store (whose cell address the CLI
//! matches reports by); the CLI wires them together. Executive rows carry per-point counters plus
//! the miss-ratio and energy distribution columns.
//!
//! A row is `(grid index, report)`; standalone reports have no index and
//! render an empty first cell.

use crate::cell::ExecutiveMcReport;
use eacp_spec::RunReport;

/// The paper's reported values for one (operating point, scheme) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRef {
    /// Probability of timely completion.
    pub p: f64,
    /// Mean energy over timely runs (`NaN` where the paper prints `NaN`).
    pub e: f64,
}

/// Formats a float cell; `NaN` renders as an empty cell (the CSV mirror of
/// the paper's `NaN` energy entries).
fn cell(v: f64, precision: usize) -> String {
    if v.is_nan() {
        String::new()
    } else {
        format!("{v:.precision$}")
    }
}

/// The CSV header row (no trailing newline).
pub const CSV_HEADER: &str = "index,experiment,scheme,replications,p,p_ci_lo,p_ci_hi,\
e_timely,e_all,paper_p,delta_p,paper_e,delta_e";

/// Renders one report as a CSV row (no trailing newline).
fn row(index: Option<usize>, report: &RunReport, paper: Option<PaperRef>) -> String {
    let s = &report.summary;
    let (ci_lo, ci_hi) = s.p_timely_ci95;
    let (paper_p, delta_p, paper_e, delta_e) = match paper {
        Some(pr) => (
            cell(pr.p, 4),
            cell(s.p_timely - pr.p, 4),
            cell(pr.e, 1),
            cell(s.energy_timely.mean - pr.e, 1),
        ),
        None => Default::default(),
    };
    format!(
        "{},{},{},{},{},{},{},{},{},{paper_p},{delta_p},{paper_e},{delta_e}",
        index.map_or_else(String::new, |i| i.to_string()),
        report.spec.name,
        report.policy_name,
        s.replications,
        cell(s.p_timely, 4),
        cell(ci_lo, 4),
        cell(ci_hi, 4),
        cell(s.energy_timely.mean, 1),
        cell(s.energy_all.mean, 1),
    )
}

/// Renders single-task report rows as a CSV matrix. `paper` maps a
/// report to the paper's reference values where it is a cell of the
/// paper's tables.
pub fn render_rows(
    rows: &[(Option<usize>, RunReport)],
    paper: &dyn Fn(&RunReport) -> Option<PaperRef>,
) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for (index, report) in rows {
        out.push_str(&row(*index, report, paper(report)));
        out.push('\n');
    }
    out
}

/// The executive CSV header row (no trailing newline): per-point counters
/// plus the distribution columns (mean / standard deviation / min / max of
/// the per-horizon miss ratio and energy).
pub const EXECUTIVE_CSV_HEADER: &str = "index,experiment,policies,horizons,jobs,\
deadline_misses,faults,rollbacks,checkpoints,total_energy,\
miss_ratio_mean,miss_ratio_sd,miss_ratio_min,miss_ratio_max,\
energy_mean,energy_sd,energy_min,energy_max";

fn distribution_cells(s: &eacp_numerics::OnlineStats, precision: usize) -> String {
    let (count, _, _, min, max) = s.raw_parts();
    let (min, max) = if count == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (min, max)
    };
    format!(
        "{},{},{},{}",
        cell(s.mean(), precision),
        cell(s.population_variance().sqrt(), precision),
        cell(min, precision),
        cell(max, precision),
    )
}

/// Renders executive report rows as a CSV matrix.
pub fn render_executive_rows(rows: &[(Option<usize>, ExecutiveMcReport)]) -> String {
    let mut out = String::from(EXECUTIVE_CSV_HEADER);
    out.push('\n');
    for (index, report) in rows {
        let s = &report.summary;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            index.map_or_else(String::new, |i| i.to_string()),
            report.spec.name,
            report.policy_names.join("+"),
            s.horizons,
            s.jobs,
            s.deadline_misses,
            s.faults,
            s.rollbacks,
            s.checkpoints.total(),
            cell(s.total_energy, 1),
            distribution_cells(&s.miss_ratio, 4),
            distribution_cells(&s.energy, 1),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_sweep;
    use eacp_spec::{Axis, ExperimentSpec, Knob, McSpec, SweepSpec};

    fn rows_of<C: crate::Cell>(grid: crate::GridReport<C>) -> Vec<(Option<usize>, C::Report)> {
        grid.points
            .into_iter()
            .map(|p| (Some(p.index), p.report))
            .collect()
    }

    fn points() -> Vec<(Option<usize>, RunReport)> {
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "csv".into();
        base.mc = McSpec {
            replications: 30,
            seed: 3,
            threads: 1,
        };
        let sweep = SweepSpec {
            base,
            axes: vec![Axis::new(Knob::Lambda, vec![1e-4, 1.4e-3])],
        };
        rows_of(run_sweep(&sweep, None, 1).unwrap())
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let pts = points();
        let csv = render_rows(&pts, &|_| None);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + pts.len());
        // Paper columns are empty without a lookup hit.
        assert!(lines[1].ends_with(",,,,"), "{}", lines[1]);
        assert!(
            lines[1].starts_with("0,csv-l0.0001,A_D_S,30,"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn paper_deltas_are_rendered_when_the_lookup_hits() {
        let pts = points();
        let csv = render_rows(&pts, &|r| {
            Some(PaperRef {
                p: r.summary.p_timely,
                e: f64::NAN,
            })
        });
        let line = csv.lines().nth(1).unwrap();
        // delta_p is exactly 0.0000; NaN paper E renders empty.
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols[10], "0.0000", "{line}");
        assert_eq!(cols[11], "", "{line}");
        assert_eq!(cols[12], "", "{line}");
    }

    #[test]
    fn nan_energy_renders_as_empty_cell() {
        // An impossible deadline gives P = 0 and NaN E(timely).
        let mut spec = ExperimentSpec::paper_nominal();
        spec.name = "impossible".into();
        spec.scenario.work = eacp_spec::WorkSpec::Utilization {
            utilization: 5.0,
            speed: 1.0,
            deadline: 1_000.0,
        };
        spec.mc.replications = 10;
        let sweep = SweepSpec {
            base: spec,
            axes: vec![Axis::new(Knob::K, vec![5])],
        };
        let pts = rows_of(run_sweep(&sweep, None, 1).unwrap());
        let csv = render_rows(&pts, &|_| None);
        let cols: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(cols[4], "0.0000"); // P
        assert_eq!(cols[7], ""); // E(timely) is NaN
    }

    #[test]
    fn executive_csv_has_header_and_distribution_columns() {
        use eacp_spec::{
            Axis, ExecutiveMcSpec, ExecutiveSpec, FaultSpec, Grid, Knob, PolicyAssignment,
            PolicySpec, TaskSetSpec,
        };
        let mut base = ExecutiveSpec::new(
            "exec-grid",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        base.faults = FaultSpec::Poisson { lambda: 5e-4 };
        base.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 5e-4, 2, 0).unwrap());
        base.hyperperiods = 2;
        base.seed = 11;
        base.mc = Some(ExecutiveMcSpec {
            replications: 20,
            threads: 1,
            queue: None,
        });
        let sweep = Grid::<ExecutiveSpec> {
            base,
            axes: vec![Axis::new(Knob::Lambda, vec![2e-4, 1e-3])],
        };
        let rows = rows_of(run_sweep(&sweep, None, 1).unwrap());
        let csv = render_executive_rows(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], EXECUTIVE_CSV_HEADER);
        assert_eq!(lines.len(), 1 + rows.len());
        let cols: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cols.len(), EXECUTIVE_CSV_HEADER.split(',').count());
        assert!(lines[1].starts_with("0,exec-grid-l0.0002,A_D_S+A_D_S,20,"));
        // Distribution cells are populated (20 horizons pushed).
        assert!(!cols[10].is_empty() && !cols[14].is_empty(), "{}", lines[1]);
    }
}
