//! Quantitative comparison of regenerated tables against the paper's
//! reported values: per-scheme error statistics and the worst cells.

use crate::runner::TableResult;
use crate::tables::PaperScheme;
use eacp_numerics::OnlineStats;

/// Error statistics of one scheme's column across a table.
#[derive(Debug, Clone)]
pub struct SchemeErrors {
    /// Which scheme.
    pub scheme: PaperScheme,
    /// Scheme display name.
    pub name: &'static str,
    /// Absolute error on `P` (measured − paper) over the table's cells.
    pub p_abs_error: OnlineStats,
    /// Relative error on `E` over cells where both energies are finite.
    pub e_rel_error: OnlineStats,
    /// Cells where the paper reports `NaN` energy and we also measure
    /// `NaN` (agreement on impossibility).
    pub nan_agreements: u32,
    /// Cells where exactly one side is `NaN` (disagreement).
    pub nan_disagreements: u32,
    /// Worst `P` deviation: `(U, λ, measured, paper)`.
    pub worst_p: Option<(f64, f64, f64, f64)>,
}

/// Compares a regenerated table with the paper cell by cell.
pub fn compare_with_paper(result: &TableResult) -> Vec<SchemeErrors> {
    PaperScheme::ALL
        .iter()
        .map(|&scheme| {
            let mut p_abs = OnlineStats::new();
            let mut e_rel = OnlineStats::new();
            let mut nan_agree = 0;
            let mut nan_disagree = 0;
            let mut worst: Option<(f64, f64, f64, f64)> = None;
            let mut name = "";
            for cell in &result.cells {
                let s = cell.scheme(scheme);
                name = s.name();
                let (pm, pp) = (s.summary.p_timely, s.paper.p);
                p_abs.push(pm - pp);
                if worst.is_none_or(|(_, _, wm, wp)| (pm - pp).abs() > (wm - wp).abs()) {
                    worst = Some((cell.spec.utilization, cell.spec.lambda, pm, pp));
                }
                let (em, ep) = (s.summary.energy_timely.mean, s.paper.e);
                match (em.is_nan(), ep.is_nan()) {
                    (true, true) => nan_agree += 1,
                    (false, false) => e_rel.push((em - ep) / ep),
                    _ => nan_disagree += 1,
                }
            }
            SchemeErrors {
                scheme,
                name,
                p_abs_error: p_abs,
                e_rel_error: e_rel,
                nan_agreements: nan_agree,
                nan_disagreements: nan_disagree,
                worst_p: worst,
            }
        })
        .collect()
}

/// Renders the comparison as a compact report.
pub fn render_comparison(result: &TableResult) -> String {
    let mut out = format!("{} vs paper (per-scheme error statistics)\n", result.id);
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>8}\n",
        "scheme", "mean dP", "max |dP|", "mean dE/E", "max |dE/E|", "NaN +/-"
    ));
    for e in compare_with_paper(result) {
        let max_dp = e
            .worst_p
            .map(|(_, _, m, p)| (m - p).abs())
            .unwrap_or(f64::NAN);
        let max_de = e.e_rel_error.max().abs().max(e.e_rel_error.min().abs());
        out.push_str(&format!(
            "{:<10} {:>12.4} {:>12.4} {:>11.2}% {:>11.2}% {:>5}/{}\n",
            e.name,
            e.p_abs_error.mean(),
            max_dp,
            100.0 * e.e_rel_error.mean(),
            100.0 * max_de,
            e.nan_agreements,
            e.nan_disagreements
        ));
        if let Some((u, l, m, p)) = e.worst_p {
            out.push_str(&format!(
                "{:<10} worst P cell: U={u} λ={l:.1e}: {m:.4} vs paper {p:.4}\n",
                ""
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_local;
    use crate::tables::TableId;
    use eacp_spec::ExecSpec;

    #[test]
    fn comparison_reports_tight_errors_on_table1() {
        let result = run_local(TableId::Table1, 800, 2006, &ExecSpec::paper());
        let errors = compare_with_paper(&result);
        assert_eq!(errors.len(), 4);
        for e in &errors {
            // Baseline schemes: P within a few points, E within 4%.
            assert!(
                e.p_abs_error.mean().abs() < 0.1,
                "{}: mean dP = {}",
                e.name,
                e.p_abs_error.mean()
            );
            if e.e_rel_error.count() > 0 {
                assert!(
                    e.e_rel_error.mean().abs() < 0.08,
                    "{}: mean dE/E = {}",
                    e.name,
                    e.e_rel_error.mean()
                );
            }
            // At 800 replications a paper cell with P ≈ 0.0005 can measure
            // zero timely runs (NaN energy); allow that one artifact. At
            // the full 10,000 replications there are no disagreements.
            assert!(e.nan_disagreements <= 1, "{}", e.name);
        }
        // The two NaN cells (U = 1.00) agree for the static baselines.
        let poisson = &errors[0];
        assert_eq!(poisson.nan_agreements, 2);
    }

    #[test]
    fn render_contains_all_schemes() {
        let result = run_local(TableId::Table1, 60, 1, &ExecSpec::paper());
        let report = render_comparison(&result);
        for name in ["Poisson", "k-f-t", "A_D", "A_D_S"] {
            assert!(report.contains(name), "missing {name} in:\n{report}");
        }
        assert!(report.contains("worst P cell"));
    }
}
