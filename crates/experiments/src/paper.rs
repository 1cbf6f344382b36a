//! The paper's reported numbers, transcribed from Tables 1–4.
//!
//! Each row is `(U, λ, [P, E] × {Poisson, k-f-t, A_D, proposed})`, in the
//! order of its table part document's rows: the values pair with the
//! documents' cells by position ([`cells`]), and a test checks every
//! row's `(U, λ)` against its document row. The `NaN` energies reproduce
//! the paper's own `NaN` cells (no timely run to average over).

use crate::tables::{table_grids, TableId, TablePart};
use eacp_exec::PaperRef;
use eacp_spec::ExperimentSpec;

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

/// The paper's values for each row of a table, part (a) then part (b) as
/// [`table_config`](crate::table_config) lists the rows, each in
/// [`PaperScheme::ALL`](crate::PaperScheme::ALL) column order.
pub(crate) fn table_rows(table: TableId) -> impl Iterator<Item = [PaperRef; 4]> {
    [TablePart::A, TablePart::B]
        .into_iter()
        .flat_map(move |part| rows_of(table, part))
        .map(|(_, _, v)| {
            std::array::from_fn(|i| PaperRef {
                p: v[2 * i],
                e: v[2 * i + 1],
            })
        })
}

/// Every cell of the paper's four tables, as its part document expands
/// it (2,000 replications from seed 2006), with the paper's values for it:
/// 208 pairs, Table 1 (a) first.
///
/// # Examples
///
/// ```
/// let (spec, paper) = eacp_experiments::paper::cells().nth(3).unwrap();
/// assert_eq!(spec.name, "table1a-u0.76-l0.0014-k5-a_d_s");
/// assert_eq!((paper.p, paper.e), (0.9999, 52863.0));
/// ```
pub fn cells() -> impl Iterator<Item = (ExperimentSpec, PaperRef)> {
    TableId::ALL.into_iter().flat_map(|id| {
        let specs = table_grids(id).into_iter().flat_map(|grid| {
            grid.expand()
                // audit:allow(panic): the committed documents expand; the
                // tests expand every one.
                .expect("committed table documents expand")
        });
        specs.zip(table_rows(id).flatten())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::table_config;
    use crate::PaperScheme;

    /// The row of `table`'s part with the given `(U, λ)`.
    fn row(table: TableId, part: TablePart, u: f64, lambda: f64) -> [f64; 8] {
        let (_, _, v) = rows_of(table, part)
            .iter()
            .find(|(ru, rl, _)| *ru == u && *rl == lambda)
            .unwrap();
        *v
    }

    #[test]
    fn every_configured_cell_has_paper_data() {
        // Row by row, the data lists the documents' `(U, λ)`, exactly.
        for id in TableId::ALL {
            let cfg = table_config(id);
            for part in [TablePart::A, TablePart::B] {
                let data = rows_of(id, part);
                assert_eq!(data.len(), cfg.part_cells(part).count(), "{id}({part})");
                for ((u, lambda, _), cell) in data.iter().zip(cfg.part_cells(part)) {
                    assert_eq!(
                        (*u, *lambda),
                        (cell.utilization, cell.lambda),
                        "{id}({part})"
                    );
                }
            }
        }
    }

    #[test]
    fn cells_pair_every_document_point_with_its_column() {
        let cells: Vec<_> = cells().collect();
        assert_eq!(cells.len(), 208);
        let names: Vec<_> = PaperScheme::ALL
            .iter()
            .map(|&s| cells[s as usize].0.policy.policy_name())
            .collect();
        assert_eq!(names, ["Poisson", "k-f-t", "A_D", "A_D_S"]);
        // Table 4 (b)'s last row is the last cell.
        let (spec, paper) = cells.last().unwrap();
        assert_eq!(spec.name, "table4b-u0.95-l0.0002-k1-a_d_c");
        assert_eq!((paper.p, paper.e), (0.2850, 155597.0));
    }

    #[test]
    fn nan_cells_only_at_full_utilization() {
        for id in [TableId::Table1, TableId::Table3] {
            for lambda in [1.0e-4, 2.0e-4] {
                let v = row(id, TablePart::B, 1.00, lambda);
                assert!(v[1].is_nan() && v[3].is_nan()); // Poisson, k-f-t E
                assert_eq!(v[0], 0.0); // Poisson P
                assert!(!v[5].is_nan()); // A_D E
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
        let f1 = row(TableId::Table1, TablePart::A, 0.76, 1.4e-3);
        let f2 = row(TableId::Table2, TablePart::A, 0.76, 1.4e-3);
        let ratio = f2[1] / f1[1]; // Poisson E
        assert!((3.5..4.2).contains(&ratio), "ratio = {ratio}");
    }
}
