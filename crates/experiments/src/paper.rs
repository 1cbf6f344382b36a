//! The paper's reported numbers, transcribed from Tables 1–4.
//!
//! Each row is `(U, λ, [P, E] × {Poisson, k-f-t, A_D, proposed})`. The
//! `NaN` energies reproduce the paper's own `NaN` cells (no timely run to
//! average over).

use crate::tables::{TableId, TablePart};
use eacp_spec::PaperScheme;

/// Paper-reported `(P, E)` for all four schemes at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCell {
    /// Probability of timely completion per scheme, in
    /// [`PaperScheme::ALL`] column order.
    pub p: [f64; 4],
    /// Mean energy per scheme (same order); `NaN` where the paper prints
    /// `NaN`.
    pub e: [f64; 4],
}

impl PaperCell {
    /// `P` for one scheme.
    pub fn p_of(&self, scheme: PaperScheme) -> f64 {
        self.p[scheme as usize]
    }

    /// `E` for one scheme.
    pub fn e_of(&self, scheme: PaperScheme) -> f64 {
        self.e[scheme as usize]
    }
}

type Row = (f64, f64, [f64; 8]);

const NAN: f64 = f64::NAN;

#[rustfmt::skip]
const TABLE_1A: &[Row] = &[
    (0.76, 1.4e-3, [0.1185, 39015.0, 0.1115, 38940.0, 0.9991, 57564.0, 0.9999, 52863.0]),
    (0.76, 1.6e-3, [0.0489, 39183.0, 0.0466, 39153.0, 0.9992, 59765.0, 0.9999, 54176.0]),
    (0.78, 1.4e-3, [0.0504, 39358.0, 0.0496, 39350.0, 0.9990, 60441.0, 0.9999, 55520.0]),
    (0.78, 1.6e-3, [0.0181, 39443.0, 0.0182, 39396.0, 0.9993, 62687.0, 0.9999, 56814.0]),
    (0.80, 1.4e-3, [0.0091, 38951.0, 0.0204, 39507.0, 0.9993, 63039.0, 0.9999, 58079.0]),
    (0.80, 1.6e-3, [0.0021, 39217.0, 0.0062, 39684.0, 0.9990, 65233.0, 0.9998, 59344.0]),
    (0.82, 1.4e-3, [0.0013, 39161.0, 0.0018, 39122.0, 0.9995, 65778.0, 1.0000, 60731.0]),
    (0.82, 1.6e-3, [0.0005, 39290.0, 0.0003, 39200.0, 0.9990, 67987.0, 0.9999, 62091.0]),
];

#[rustfmt::skip]
const TABLE_1B: &[Row] = &[
    (0.92, 1.0e-4, [0.3914, 38032.0, 0.3965, 38665.0, 0.9229, 74193.0, 0.9549, 72862.0]),
    (0.92, 2.0e-4, [0.1650, 38623.0, 0.1628, 38681.0, 0.9793, 76444.0, 0.9985, 72566.0]),
    (0.95, 1.0e-4, [0.3851, 39316.0, 0.3852, 39844.0, 0.9188, 77097.0, 0.9516, 75743.0]),
    (0.95, 2.0e-4, [0.1520, 39844.0, 0.1510, 39844.0, 0.9462, 80414.0, 0.9944, 76841.0]),
    (1.00, 1.0e-4, [0.0000, NAN,     0.0000, NAN,     0.9146, 81572.0, 0.9557, 81047.0]),
    (1.00, 2.0e-4, [0.0000, NAN,     0.0000, NAN,     0.9204, 84371.0, 0.9892, 82499.0]),
];

#[rustfmt::skip]
const TABLE_2A: &[Row] = &[
    (0.76, 1.4e-3, [0.6159, 149458.0, 0.6121, 149682.0, 0.6486, 149599.0, 0.9462, 146097.0]),
    (0.76, 1.6e-3, [0.5369, 151339.0, 0.4258, 150911.0, 0.5451, 151264.0, 0.9006, 147873.0]),
    (0.78, 1.4e-3, [0.4659, 151964.0, 0.3593, 150851.0, 0.4699, 151935.0, 0.8385, 149415.0]),
    (0.78, 1.6e-3, [0.3007, 152371.0, 0.2055, 151581.0, 0.3227, 152552.0, 0.7389, 150742.0]),
    (0.80, 1.4e-3, [0.2355, 152698.0, 0.2305, 152918.0, 0.2672, 153124.0, 0.6491, 151905.0]),
    (0.80, 1.6e-3, [0.1264, 153007.0, 0.1207, 153495.0, 0.1617, 153695.0, 0.4864, 152742.0]),
    (0.82, 1.4e-3, [0.0921, 153077.0, 0.0838, 153103.0, 0.0992, 153320.0, 0.3843, 153562.0]),
    (0.82, 1.6e-3, [0.0285, 153494.0, 0.0271, 153619.0, 0.0388, 154288.0, 0.2242, 154279.0]),
];

#[rustfmt::skip]
const TABLE_2B: &[Row] = &[
    (0.92, 1.0e-4, [0.7609, 151255.0, 0.7638, 151722.0, 0.7640, 150583.0, 0.7776, 150583.0]),
    (0.92, 2.0e-4, [0.4365, 152453.0, 0.4384, 152554.0, 0.4737, 152444.0, 0.5334, 152452.0]),
    (0.95, 1.0e-4, [0.3847, 152589.0, 0.3924, 154140.0, 0.3799, 149117.0, 0.3941, 150259.0]),
    (0.95, 2.0e-4, [0.1498, 153946.0, 0.1498, 154167.0, 0.2816, 155147.0, 0.2842, 155612.0]),
];

#[rustfmt::skip]
const TABLE_3A: &[Row] = &[
    (0.76, 1.4e-3, [0.1104, 38942.0, 0.1070, 38953.0, 0.9990, 57662.0, 1.0000, 52862.0]),
    (0.76, 1.6e-3, [0.0505, 39141.0, 0.0479, 39128.0, 0.9989, 59736.0, 0.9999, 54036.0]),
    (0.78, 1.4e-3, [0.0530, 39374.0, 0.0534, 39345.0, 0.9989, 60435.0, 1.0000, 55520.0]),
    (0.78, 1.6e-3, [0.0190, 39422.0, 0.0210, 39362.0, 0.9989, 62477.0, 0.9998, 56719.0]),
    (0.80, 1.4e-3, [0.0085, 39030.0, 0.0209, 39500.0, 0.9989, 63040.0, 1.0000, 58042.0]),
    (0.80, 1.6e-3, [0.0022, 39103.0, 0.0057, 39530.0, 0.9992, 65230.0, 1.0000, 59274.0]),
    (0.82, 1.4e-3, [0.0021, 39266.0, 0.0020, 39031.0, 0.9990, 65731.0, 1.0000, 60573.0]),
    (0.82, 1.6e-3, [0.0005, 39658.0, 0.0005, 39350.0, 0.9989, 68038.0, 1.0000, 61935.0]),
];

#[rustfmt::skip]
const TABLE_3B: &[Row] = &[
    (0.92, 1.0e-4, [0.3887, 38032.0, 0.3984, 38667.0, 0.9241, 74350.0, 0.9800, 73547.0]),
    (0.92, 2.0e-4, [0.1634, 38619.0, 0.1635, 38685.0, 0.9783, 77021.0, 0.9994, 72669.0]),
    (0.95, 1.0e-4, [0.3775, 39316.0, 0.3772, 39844.0, 0.9116, 77266.0, 0.9812, 76756.0]),
    (0.95, 2.0e-4, [0.1498, 39844.0, 0.1480, 39844.0, 0.9519, 80540.0, 0.9978, 76614.0]),
    (1.00, 1.0e-4, [0.0000, NAN,     0.0000, NAN,     0.9074, 81397.0, 0.9831, 81675.0]),
    (1.00, 2.0e-4, [0.0000, NAN,     0.0000, NAN,     0.9202, 84379.0, 0.9959, 82254.0]),
];

#[rustfmt::skip]
const TABLE_4A: &[Row] = &[
    (0.76, 1.4e-3, [0.6130, 149575.0, 0.6063, 149738.0, 0.6456, 149694.0, 0.9544, 146237.0]),
    (0.76, 1.6e-3, [0.5252, 151286.0, 0.4147, 150869.0, 0.5336, 151206.0, 0.9104, 148058.0]),
    (0.78, 1.4e-3, [0.4731, 151926.0, 0.3641, 150860.0, 0.4804, 151917.0, 0.8519, 149493.0]),
    (0.78, 1.6e-3, [0.3016, 152389.0, 0.2061, 151610.0, 0.3277, 152618.0, 0.7546, 150926.0]),
    (0.80, 1.4e-3, [0.2356, 152662.0, 0.2283, 152988.0, 0.2664, 153111.0, 0.6540, 152034.0]),
    (0.80, 1.6e-3, [0.1279, 153171.0, 0.1195, 153558.0, 0.1629, 153834.0, 0.4942, 152927.0]),
    (0.82, 1.4e-3, [0.0873, 153081.0, 0.0849, 153118.0, 0.0950, 153365.0, 0.3758, 153731.0]),
    (0.82, 1.6e-3, [0.0321, 153207.0, 0.0319, 153394.0, 0.0418, 153946.0, 0.2115, 154400.0]),
];

#[rustfmt::skip]
const TABLE_4B: &[Row] = &[
    (0.92, 1.0e-4, [0.7559, 151220.0, 0.7570, 151703.0, 0.7583, 150564.0, 0.7657, 150564.0]),
    (0.92, 2.0e-4, [0.4409, 152537.0, 0.4398, 152623.0, 0.4715, 152479.0, 0.5327, 152546.0]),
    (0.95, 1.0e-4, [0.3946, 152591.0, 0.3984, 154155.0, 0.3878, 149117.0, 0.3995, 150239.0]),
    (0.95, 2.0e-4, [0.1479, 153946.0, 0.1488, 154171.0, 0.2775, 155132.0, 0.2850, 155597.0]),
];

fn rows_of(table: TableId, part: TablePart) -> &'static [Row] {
    match (table, part) {
        (TableId::Table1, TablePart::A) => TABLE_1A,
        (TableId::Table1, TablePart::B) => TABLE_1B,
        (TableId::Table2, TablePart::A) => TABLE_2A,
        (TableId::Table2, TablePart::B) => TABLE_2B,
        (TableId::Table3, TablePart::A) => TABLE_3A,
        (TableId::Table3, TablePart::B) => TABLE_3B,
        (TableId::Table4, TablePart::A) => TABLE_4A,
        (TableId::Table4, TablePart::B) => TABLE_4B,
    }
}

/// Looks up the paper's reported values for an operating point.
///
/// Returns `None` for `(U, λ)` combinations the paper does not report.
///
/// # Examples
///
/// ```
/// use eacp_experiments::paper::paper_cell;
/// use eacp_experiments::{TableId, TablePart};
/// use eacp_spec::PaperScheme;
///
/// let c = paper_cell(TableId::Table1, TablePart::A, 0.76, 1.4e-3).unwrap();
/// assert_eq!(c.p_of(PaperScheme::Proposed), 0.9999);
/// assert_eq!(c.e_of(PaperScheme::Poisson), 39015.0);
/// ```
pub fn paper_cell(table: TableId, part: TablePart, u: f64, lambda: f64) -> Option<PaperCell> {
    rows_of(table, part)
        .iter()
        .find(|(ru, rl, _)| (ru - u).abs() < 1e-9 && (rl - lambda).abs() < 1e-12)
        .map(|(_, _, v)| PaperCell {
            p: [v[0], v[2], v[4], v[6]],
            e: [v[1], v[3], v[5], v[7]],
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::table_config;

    #[test]
    fn every_configured_cell_has_paper_data() {
        for id in TableId::ALL {
            let cfg = table_config(id);
            for cell in &cfg.cells {
                assert!(
                    paper_cell(id, cell.part, cell.utilization, cell.lambda).is_some(),
                    "{id}({}) missing U={} λ={}",
                    cell.part,
                    cell.utilization,
                    cell.lambda
                );
            }
        }
    }

    #[test]
    fn unknown_cell_returns_none() {
        assert!(paper_cell(TableId::Table1, TablePart::A, 0.5, 1e-3).is_none());
    }

    #[test]
    fn nan_cells_only_at_full_utilization() {
        for id in [TableId::Table1, TableId::Table3] {
            for lambda in [1.0e-4, 2.0e-4] {
                let c = paper_cell(id, TablePart::B, 1.00, lambda).unwrap();
                assert!(c.e_of(PaperScheme::Poisson).is_nan());
                assert!(c.e_of(PaperScheme::KFaultTolerant).is_nan());
                assert_eq!(c.p_of(PaperScheme::Poisson), 0.0);
                assert!(!c.e_of(PaperScheme::AdtDvs).is_nan());
            }
        }
    }

    #[test]
    fn proposed_dominates_ad_in_paper_part_a() {
        // The paper's headline: the proposed scheme beats A_D on P in every
        // part-(a) row of every table.
        for id in TableId::ALL {
            for (u, l, v) in rows_of(id, TablePart::A) {
                let (p_ad, p_prop) = (v[4], v[6]);
                assert!(
                    p_prop >= p_ad,
                    "{id} U={u} λ={l}: proposed {p_prop} < A_D {p_ad}"
                );
            }
        }
    }

    #[test]
    fn f2_tables_use_more_energy_than_f1_tables() {
        // All-f2 baselines burn ≈3.8× the all-f1 energy — the ratio of the
        // paper's own scales that the assumed V² = 2 at f1 and V² = 4 at
        // f2 (`DvsConfig::paper_default`) reproduce; fitting them to the
        // tables is open (ROADMAP item 1).
        let f1 = paper_cell(TableId::Table1, TablePart::A, 0.76, 1.4e-3).unwrap();
        let f2 = paper_cell(TableId::Table2, TablePart::A, 0.76, 1.4e-3).unwrap();
        let ratio = f2.e_of(PaperScheme::Poisson) / f1.e_of(PaperScheme::Poisson);
        assert!((3.5..4.2).contains(&ratio), "ratio = {ratio}");
    }
}
