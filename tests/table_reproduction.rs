//! Reduced-replication reproduction of the paper's tables: quantitative
//! proximity on anchor cells and the qualitative shape criteria everywhere.
//!
//! Full 10,000-replication tables are regenerated by
//! `eacp table N --reps 10000` (which prints the same shape tally); these
//! tests keep CI fast while still checking the claims end to end.

use eacp::experiments::shape::{check_table, tally};
use eacp::experiments::{table_grids, PaperScheme, TableId, TablePart, TableResult};

/// One table under the paper's fault model (faults strike useful
/// computation only), its part documents run on the grid path.
fn regenerate(id: TableId, replications: u64, seed: u64) -> TableResult {
    let reports = table_grids(id).map(|mut grid| {
        grid.base.mc.replications = replications;
        grid.base.mc.seed = seed;
        eacp::exec::run_sweep(&grid, None, 0).unwrap()
    });
    TableResult::from_reports(id, &reports)
}

#[test]
fn table1_shape_and_anchors() {
    let result = regenerate(TableId::Table1, 1_500, 2006);
    let findings = check_table(&result);
    let (_, failed) = tally(&findings);
    let msgs: Vec<_> = findings
        .iter()
        .filter(|f| !f.passed)
        .map(|f| format!("{}: {}", f.criterion, f.detail))
        .collect();
    assert_eq!(failed, 0, "shape failures:\n{}", msgs.join("\n"));

    // Anchor cell U = 0.76, λ = 1.4e-3 (paper: 0.1185/39015 Poisson,
    // 0.9991/57564 A_D, 0.9999/52863 A_D_S).
    let cell = &result.cells[0];
    let poisson = &cell.scheme(PaperScheme::Poisson).summary;
    assert!((poisson.p_timely - 0.1185).abs() < 0.06);
    assert!((poisson.energy_timely.mean - 39_015.0).abs() / 39_015.0 < 0.03);
    let ads = &cell.scheme(PaperScheme::Proposed).summary;
    assert!(ads.p_timely > 0.99);
    assert!((ads.energy_timely.mean - 52_863.0).abs() / 52_863.0 < 0.06);
    let ad = &cell.scheme(PaperScheme::AdtDvs).summary;
    assert!(
        ads.energy_timely.mean < ad.energy_timely.mean,
        "A_D_S must save energy vs A_D"
    );
}

#[test]
fn table2_shape_and_crossover() {
    let result = regenerate(TableId::Table2, 1_200, 2006);
    let findings = check_table(&result);
    let (_, failed) = tally(&findings);
    let msgs: Vec<_> = findings
        .iter()
        .filter(|f| !f.passed)
        .map(|f| format!("{}: {}", f.criterion, f.detail))
        .collect();
    assert_eq!(failed, 0, "shape failures:\n{}", msgs.join("\n"));

    // The paper's headline factor at U = 0.76, λ = 1.4e-3: P(A_D_S) ≈ 0.95
    // vs P(A_D) ≈ 0.65 — proposed wins by a wide margin, not noise.
    let cell = &result.cells[0];
    let p_prop = cell.scheme(PaperScheme::Proposed).summary.p_timely;
    let p_ad = cell.scheme(PaperScheme::AdtDvs).summary.p_timely;
    assert!(p_prop > p_ad + 0.15, "prop {p_prop} vs A_D {p_ad}");
    // Energy scale: everyone near the all-f2 level (≈150k), within 5%.
    for scheme in PaperScheme::ALL {
        let e = cell.scheme(scheme).summary.energy_timely.mean;
        assert!((140_000.0..165_000.0).contains(&e), "{scheme:?}: {e}");
    }
    // P declines monotonically in U for the baselines (part a, λ fixed).
    let ps: Vec<f64> = result
        .cells
        .iter()
        .filter(|c| c.spec.part == TablePart::A && (c.spec.lambda - 1.4e-3).abs() < 1e-9)
        .map(|c| c.scheme(PaperScheme::Poisson).summary.p_timely)
        .collect();
    assert_eq!(ps.len(), 4);
    for w in ps.windows(2) {
        assert!(w[1] <= w[0] + 0.03, "P should fall with U: {ps:?}");
    }
}

#[test]
fn table3_shape_holds() {
    let result = regenerate(TableId::Table3, 1_000, 2006);
    let findings = check_table(&result);
    let (_, failed) = tally(&findings);
    let msgs: Vec<_> = findings
        .iter()
        .filter(|f| !f.passed)
        .map(|f| format!("{}: {}", f.criterion, f.detail))
        .collect();
    assert_eq!(failed, 0, "shape failures:\n{}", msgs.join("\n"));
}

#[test]
fn table4_shape_holds() {
    let result = regenerate(TableId::Table4, 1_000, 2006);
    let findings = check_table(&result);
    let (_, failed) = tally(&findings);
    let msgs: Vec<_> = findings
        .iter()
        .filter(|f| !f.passed)
        .map(|f| format!("{}: {}", f.criterion, f.detail))
        .collect();
    assert_eq!(failed, 0, "shape failures:\n{}", msgs.join("\n"));
}

#[test]
fn nan_cells_reproduce() {
    // Table 1(b), U = 1.00: the baselines cannot finish by D — P = 0 and
    // the paper prints NaN energies.
    let result = regenerate(TableId::Table1, 300, 9);
    for cell in result
        .cells
        .iter()
        .filter(|c| (c.spec.utilization - 1.0).abs() < 1e-9)
    {
        for scheme in [PaperScheme::Poisson, PaperScheme::KFaultTolerant] {
            let s = &cell.scheme(scheme).summary;
            assert_eq!(s.p_timely, 0.0);
            assert!(s.energy_timely.mean.is_nan());
        }
        for scheme in [PaperScheme::AdtDvs, PaperScheme::Proposed] {
            let s = &cell.scheme(scheme).summary;
            assert!(s.p_timely > 0.8, "{scheme:?} {}", s.p_timely);
        }
    }
}
