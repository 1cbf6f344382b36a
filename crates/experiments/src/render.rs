//! Rendering of regenerated tables: plain text (side-by-side with the
//! paper's numbers), Markdown, and CSV.

use crate::runner::TableResult;
use crate::tables::{PaperScheme, TablePart};

fn fmt_p(p: f64) -> String {
    if p.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{p:.4}")
    }
}

fn fmt_e(e: f64) -> String {
    if e.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{e:.0}")
    }
}

/// Renders a table as aligned plain text, one block per part, with the
/// paper's value in parentheses next to each measured value.
pub fn to_text(result: &TableResult) -> String {
    let mut out = String::new();
    let cfg = &result.config;
    out.push_str(&format!(
        "{} — {} variant (ts={}, tcp={}), baselines at f{}, {} replications/cell\n",
        result.id,
        cfg.proposed_name,
        cfg.costs.store_cycles,
        cfg.costs.compare_cycles,
        cfg.baseline_speed + 1,
        result.replications,
    ));
    for part in [TablePart::A, TablePart::B] {
        let rows: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.spec.part == part)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let k = rows[0].spec.k;
        out.push_str(&format!("\n({part}) k = {k}   [measured (paper)]\n"));
        out.push_str(&format!(
            "{:<6} {:<9} {:<3} {:<24} {:<24} {:<24} {:<24}\n",
            "U", "lambda", "", "Poisson", "k-f-t", "A_D", cfg.proposed_name
        ));
        for cell in rows {
            let mut pline = format!(
                "{:<6} {:<9} {:<3} ",
                cell.spec.utilization,
                format!("{:.1e}", cell.spec.lambda),
                "P"
            );
            let mut eline = format!("{:<6} {:<9} {:<3} ", "", "", "E");
            for scheme in PaperScheme::ALL {
                let s = cell.scheme(scheme);
                pline.push_str(&format!(
                    "{:<24} ",
                    format!("{} ({})", fmt_p(s.summary.p_timely), fmt_p(s.paper.p))
                ));
                eline.push_str(&format!(
                    "{:<24} ",
                    format!(
                        "{} ({})",
                        fmt_e(s.summary.energy_timely.mean),
                        fmt_e(s.paper.e)
                    )
                ));
            }
            out.push_str(pline.trim_end());
            out.push('\n');
            out.push_str(eline.trim_end());
            out.push('\n');
        }
    }
    out
}

/// Renders a table as GitHub-flavoured Markdown.
pub fn to_markdown(result: &TableResult) -> String {
    let cfg = &result.config;
    let mut out = format!(
        "### {} — {} variant (ts={}, tcp={}), baselines at f{}\n\n",
        result.id,
        cfg.proposed_name,
        cfg.costs.store_cycles,
        cfg.costs.compare_cycles,
        cfg.baseline_speed + 1
    );
    for part in [TablePart::A, TablePart::B] {
        let rows: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.spec.part == part)
            .collect();
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!("**({part}) k = {}**\n\n", rows[0].spec.k));
        out.push_str(&format!(
            "| U | λ | | Poisson | k-f-t | A_D | {} |\n|---|---|---|---|---|---|---|\n",
            cfg.proposed_name
        ));
        for cell in rows {
            for metric in ["P", "E"] {
                let mut line = if metric == "P" {
                    format!(
                        "| {} | {:.1e} | {} |",
                        cell.spec.utilization, cell.spec.lambda, metric
                    )
                } else {
                    format!("| | | {metric} |")
                };
                for scheme in PaperScheme::ALL {
                    let s = cell.scheme(scheme);
                    let (meas, pap) = if metric == "P" {
                        (fmt_p(s.summary.p_timely), fmt_p(s.paper.p))
                    } else {
                        (fmt_e(s.summary.energy_timely.mean), fmt_e(s.paper.e))
                    };
                    line.push_str(&format!(" {meas} ({pap}) |"));
                }
                out.push_str(&line);
                out.push('\n');
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a table as CSV with one row per (cell, scheme): all measured
/// aggregates plus the paper's `P`/`E` for direct post-processing.
pub fn to_csv(result: &TableResult) -> String {
    let mut out = String::from(
        "table,part,k,utilization,lambda,scheme,p_timely,p_ci_lo,p_ci_hi,\
         energy_timely,energy_all,finish_timely,faults_mean,rollbacks_mean,\
         checkpoints_mean,fast_fraction,paper_p,paper_e\n",
    );
    for cell in &result.cells {
        for scheme in PaperScheme::ALL {
            let s = cell.scheme(scheme);
            let (lo, hi) = s.summary.p_timely_ci95;
            out.push_str(&format!(
                "{},{},{},{},{:e},{},{:.6},{:.6},{:.6},{:.2},{:.2},{:.2},{:.4},{:.4},{:.2},{:.5},{:.4},{:.1}\n",
                result.id.number(),
                cell.spec.part,
                cell.spec.k,
                cell.spec.utilization,
                cell.spec.lambda,
                s.name(),
                s.summary.p_timely,
                lo,
                hi,
                s.summary.energy_timely.mean,
                s.summary.energy_all.mean,
                s.summary.finish_timely.mean,
                s.summary.faults.mean,
                s.summary.rollbacks.mean,
                s.summary.checkpoints.mean,
                s.summary.fast_fraction.mean,
                s.paper.p,
                s.paper.e,
            ));
        }
    }
    out
}

/// Renders a table as a JSON document: the cell grid with, per scheme, the
/// full serializable [`SummaryReport`](eacp_spec::SummaryReport), the spec
/// that produced it, and the paper's reference values. This is the
/// machine-readable counterpart of [`to_text`] — the report schema sweeps,
/// dashboards and CI gates consume.
pub fn to_json(result: &TableResult) -> String {
    eacp_spec::json::pretty(|w| {
        w.object(|w| {
            w.field("table", &result.id.number());
            w.field("replications", &result.replications);
            w.key("cells");
            w.array(|w| {
                for cell in &result.cells {
                    w.object(|w| {
                        w.field("part", &cell.spec.part.to_string());
                        w.field("utilization", &cell.spec.utilization);
                        w.field("lambda", &cell.spec.lambda);
                        w.field("k", &cell.spec.k);
                        w.key("schemes");
                        w.array(|w| {
                            for s in &cell.schemes {
                                w.object(|w| {
                                    w.field("scheme", s.name());
                                    w.field("spec", &s.spec);
                                    w.field("summary", &s.summary);
                                });
                            }
                        });
                        w.key("paper");
                        w.array(|w| {
                            for s in &cell.schemes {
                                w.object(|w| {
                                    w.field("p", &s.paper.p);
                                    w.field("e", &s.paper.e);
                                });
                            }
                        });
                    });
                }
            });
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_local;
    use crate::tables::TableId;
    use eacp_spec::ExecSpec;

    fn small_table() -> TableResult {
        run_local(TableId::Table1, 30, 7, &ExecSpec::default())
    }

    #[test]
    fn json_report_parses_and_covers_all_cells() {
        use eacp_spec::Json;
        let r = small_table();
        let text = to_json(&r);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.req("table").unwrap().as_u64().unwrap(), 1);
        let cells = doc.req("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 14);
        let first = &cells[0];
        assert_eq!(first.req("schemes").unwrap().as_array().unwrap().len(), 4);
        // Every scheme entry embeds a re-runnable spec.
        let spec_json = first.req("schemes").unwrap().as_array().unwrap()[0]
            .req("spec")
            .unwrap();
        assert!(spec_json.get("policy").is_some());
    }

    #[test]
    fn text_contains_all_sections_and_schemes() {
        let r = small_table();
        let t = to_text(&r);
        assert!(t.contains("Table 1"));
        assert!(t.contains("(a) k = 5"));
        assert!(t.contains("(b) k = 1"));
        assert!(t.contains("Poisson"));
        assert!(t.contains("A_D_S"));
        // One P-line and one E-line per row.
        assert_eq!(t.matches(" P ").count() + t.matches(" P\n").count(), 14);
    }

    #[test]
    fn markdown_is_well_formed() {
        let r = small_table();
        let md = to_markdown(&r);
        assert!(md.starts_with("### Table 1"));
        assert!(md.contains("| U | λ |"));
        // Two data lines per cell: 14 P-rows and 14 E-rows.
        assert_eq!(md.matches("| P |").count(), 14);
        assert_eq!(md.matches("| E |").count(), 14);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = small_table();
        let csv = to_csv(&r);
        let lines: Vec<_> = csv.lines().collect();
        assert!(lines[0].starts_with("table,part,k"));
        // 14 cells × 4 schemes + header.
        assert_eq!(lines.len(), 14 * 4 + 1);
        assert!(lines[1].starts_with("1,a,5,0.76"));
    }
}
