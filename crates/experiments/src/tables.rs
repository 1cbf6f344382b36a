//! The rows of the paper's four evaluation tables. What distinguishes one
//! table from another (costs, baseline speed, utilization speed, proposed
//! scheme) is [`eacp_spec::PAPER_TABLES`]. The cells themselves are grid
//! documents, one per table part, committed as `specs/table{N}{a,b}.json`
//! and embedded here at build time: a points axis whose every point is one
//! scheme at one `(U, λ, k)` row, seeded `seed + row` for all four schemes
//! of the row, and named `table{N}{part}-u{U}-l{λ}-k{k}-{scheme tag}`.

use eacp_sim::CheckpointCosts;
use eacp_spec::{paper_table, Knob, PaperScheme, PaperTable, PolicySpec, SweepSpec};

/// One of the paper's four evaluation tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableId {
    /// Table 1: SCP variant, baselines at `f1`.
    Table1,
    /// Table 2: SCP variant, baselines at `f2`.
    Table2,
    /// Table 3: CCP variant, baselines at `f1`.
    Table3,
    /// Table 4: CCP variant, baselines at `f2`.
    Table4,
}

impl TableId {
    /// All four tables.
    pub const ALL: [TableId; 4] = [
        TableId::Table1,
        TableId::Table2,
        TableId::Table3,
        TableId::Table4,
    ];

    /// 1-based table number as printed in the paper.
    pub fn number(self) -> u32 {
        match self {
            TableId::Table1 => 1,
            TableId::Table2 => 2,
            TableId::Table3 => 3,
            TableId::Table4 => 4,
        }
    }
}

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Table {}", self.number())
    }
}

/// The (a)/(b) half of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TablePart {
    /// Part (a): `k = 5`, high fault arrival rates.
    A,
    /// Part (b): `k = 1`, low fault arrival rates.
    B,
}

impl std::fmt::Display for TablePart {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TablePart::A => f.write_str("a"),
            TablePart::B => f.write_str("b"),
        }
    }
}

/// One row of a table: a `(U, λ, k)` operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Which table half the cell belongs to.
    pub part: TablePart,
    /// Task utilization `U` (w.r.t. the table's utilization speed).
    pub utilization: f64,
    /// Fault arrival rate `λ`.
    pub lambda: f64,
    /// Fault-tolerance target `k`.
    pub k: u32,
}

/// Full parameterization of one table.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Which table this is.
    pub id: TableId,
    /// The table's entry in [`eacp_spec::PAPER_TABLES`].
    pub paper: PaperTable,
    /// `paper.costs` in cycles (`ts`, `tcp`, `tr`).
    pub costs: CheckpointCosts,
    /// All rows, part (a) followed by part (b).
    pub cells: Vec<CellSpec>,
}

impl TableConfig {
    /// Scheme name of the proposed column ("A_D_S" or "A_D_C").
    pub fn proposed_name(&self) -> &'static str {
        PolicySpec::from_tag(self.paper.proposed_tag, 0.0, 0, 0)
            // audit:allow(panic): `PAPER_TABLES` holds only known tags,
            // pinned by the spec crate's tests.
            .expect("paper tables name known schemes")
            .policy_name()
    }

    /// Rows belonging to one part.
    pub fn part_cells(&self, part: TablePart) -> impl Iterator<Item = &CellSpec> {
        self.cells.iter().filter(move |c| c.part == part)
    }
}

/// The committed grid document of one table part (`specs/table2a.json`
/// for Table 2, part (a)).
fn table_document(id: TableId, part: TablePart) -> &'static str {
    match (id, part) {
        (TableId::Table1, TablePart::A) => include_str!("../../../specs/table1a.json"),
        (TableId::Table1, TablePart::B) => include_str!("../../../specs/table1b.json"),
        (TableId::Table2, TablePart::A) => include_str!("../../../specs/table2a.json"),
        (TableId::Table2, TablePart::B) => include_str!("../../../specs/table2b.json"),
        (TableId::Table3, TablePart::A) => include_str!("../../../specs/table3a.json"),
        (TableId::Table3, TablePart::B) => include_str!("../../../specs/table3b.json"),
        (TableId::Table4, TablePart::A) => include_str!("../../../specs/table4a.json"),
        (TableId::Table4, TablePart::B) => include_str!("../../../specs/table4b.json"),
    }
}

/// The grids of a table's two parts, (a) then (b), as committed: 2,000
/// replications per scheme from seed 2006, on the paper's executor.
pub fn table_grids(id: TableId) -> [SweepSpec; 2] {
    [TablePart::A, TablePart::B].map(|part| {
        SweepSpec::from_json_str(table_document(id, part))
            // audit:allow(panic): the documents are compiled in, and every
            // one is parsed and compared with `paper_cell` by the tests.
            .expect("committed table documents parse")
    })
}

/// The rows of one part's grid: every point sets `U`, `λ` and `k`, and
/// each row is [`PaperScheme::ALL`]`.len()` consecutive points.
fn rows(grid: &SweepSpec, part: TablePart) -> Vec<CellSpec> {
    let points = grid.axes.first().map_or(&[][..], |axis| axis.values());
    points
        .chunks(PaperScheme::ALL.len())
        .map(|row| {
            let mut cell = CellSpec {
                part,
                utilization: f64::NAN,
                lambda: f64::NAN,
                k: 0,
            };
            for knob in row[0].knobs() {
                match *knob {
                    Knob::Utilization(u) => cell.utilization = u,
                    Knob::Lambda(l) => cell.lambda = l,
                    Knob::K(k) => cell.k = k,
                    _ => {}
                }
            }
            cell
        })
        .collect()
}

/// The exact configuration of one of the paper's tables.
///
/// # Examples
///
/// ```
/// use eacp_experiments::{table_config, TableId};
/// let t1 = table_config(TableId::Table1);
/// assert_eq!(t1.costs.store_cycles, 2.0);
/// assert_eq!(t1.paper.baseline_speed, 0);
/// assert_eq!(t1.proposed_name(), "A_D_S");
/// assert_eq!(t1.cells.len(), 14);
/// ```
pub fn table_config(id: TableId) -> TableConfig {
    // audit:allow(panic): `TableId::number` is 1..=4 by construction.
    let paper = paper_table(id.number()).expect("TableId numbers are paper tables");
    // audit:allow(panic): the paper cost variants are valid constants.
    let costs = paper.costs.build().expect("paper cost variants are valid");
    let [a, b] = table_grids(id);
    let mut cells = rows(&a, TablePart::A);
    cells.extend(rows(&b, TablePart::B));
    TableConfig {
        id,
        paper,
        costs,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_row_counts_match_paper() {
        assert_eq!(table_config(TableId::Table1).cells.len(), 8 + 6);
        assert_eq!(table_config(TableId::Table2).cells.len(), 8 + 4);
        assert_eq!(table_config(TableId::Table3).cells.len(), 8 + 6);
        assert_eq!(table_config(TableId::Table4).cells.len(), 8 + 4);
    }

    #[test]
    fn cost_variants_swap_store_and_compare() {
        let t1 = table_config(TableId::Table1);
        let t3 = table_config(TableId::Table3);
        assert_eq!(t1.costs.store_cycles, t3.costs.compare_cycles);
        assert_eq!(t1.costs.compare_cycles, t3.costs.store_cycles);
        assert_eq!(t1.costs.cscp_cycles(), 22.0);
        assert_eq!(t3.costs.cscp_cycles(), 22.0);
    }

    #[test]
    fn baselines_pinned_to_correct_speed() {
        assert_eq!(table_config(TableId::Table1).paper.baseline_speed, 0);
        assert_eq!(table_config(TableId::Table2).paper.baseline_speed, 1);
        assert_eq!(table_config(TableId::Table2).paper.util_speed, 2.0);
        assert_eq!(table_config(TableId::Table3).paper.util_speed, 1.0);
    }

    #[test]
    fn part_filters() {
        let t1 = table_config(TableId::Table1);
        assert_eq!(t1.part_cells(TablePart::A).count(), 8);
        assert_eq!(t1.part_cells(TablePart::B).count(), 6);
        assert!(t1.part_cells(TablePart::A).all(|c| c.k == 5));
        assert!(t1.part_cells(TablePart::B).all(|c| c.k == 1));
    }

    #[test]
    fn display_impls() {
        assert_eq!(TableId::Table2.to_string(), "Table 2");
        assert_eq!(TablePart::A.to_string(), "a");
        assert_eq!(TablePart::B.to_string(), "b");
    }

    #[test]
    fn proposed_names() {
        assert_eq!(table_config(TableId::Table2).proposed_name(), "A_D_S");
        assert_eq!(table_config(TableId::Table4).proposed_name(), "A_D_C");
    }
}
