//! The rows of the paper's four evaluation tables. The cells are grid
//! documents, one per table part, committed as `specs/table{N}{a,b}.json`
//! and embedded at build time ([`eacp_spec::table_document`]): a points
//! axis whose every point is one scheme at one `(U, λ, k)` row, seeded
//! `seed + row` for all four schemes of the row, and named
//! `table{N}{part}-u{U}-l{λ}-k{k}-{scheme tag}`. What sets one table
//! apart from another (costs, baseline speed, utilization speed, proposed
//! scheme) is read off those documents too ([`table_config`]).

use eacp_sim::CheckpointCosts;
use eacp_spec::{Knob, PolicySpec, SweepSpec, WorkSpec};

/// Scheme column of a paper table. Variants are declared in the tables'
/// column order, so `scheme as usize` is the column index, and a row's
/// points in a table document list the schemes in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperScheme {
    /// Poisson-arrival baseline.
    Poisson,
    /// k-fault-tolerant baseline.
    KFaultTolerant,
    /// `A_D` (ADT_DVS, DATE'03).
    AdtDvs,
    /// The table's proposed scheme (`A_D_S` for Tables 1–2, `A_D_C` for 3–4).
    Proposed,
}

impl PaperScheme {
    /// Every column, in table order.
    pub const ALL: [PaperScheme; 4] = [
        PaperScheme::Poisson,
        PaperScheme::KFaultTolerant,
        PaperScheme::AdtDvs,
        PaperScheme::Proposed,
    ];
}

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

/// Full parameterization of one table, as its documents set it.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Which table this is.
    pub id: TableId,
    /// Checkpoint costs in cycles (`ts`, `tcp`, `tr`): SCP (`ts = 2, tcp =
    /// 20`) for Tables 1–2, CCP (`ts = 20, tcp = 2`) for Tables 3–4.
    pub costs: CheckpointCosts,
    /// The speed the utilization is quoted at (`N = U · util_speed · D`).
    pub util_speed: f64,
    /// DVS level the static baselines are pinned to (0 = `f1`, 1 = `f2`).
    pub baseline_speed: usize,
    /// Scheme name of the proposed column ("A_D_S" or "A_D_C").
    pub proposed_name: &'static str,
    /// All rows, part (a) followed by part (b).
    pub cells: Vec<CellSpec>,
}

impl TableConfig {
    /// Rows belonging to one part.
    pub fn part_cells(&self, part: TablePart) -> impl Iterator<Item = &CellSpec> {
        self.cells.iter().filter(move |c| c.part == part)
    }
}

/// The grids of a table's two parts, (a) then (b), as committed: 2,000
/// replications per scheme from seed 2006, on the paper's executor.
pub fn table_grids(id: TableId) -> [SweepSpec; 2] {
    [TablePart::A, TablePart::B].map(|part| {
        eacp_spec::table_document(&format!("table{}{part}", id.number()))
            .and_then(|doc| SweepSpec::from_json_str(doc).ok())
            // audit:allow(panic): every table part has a compiled-in
            // document, and the tests parse and expand each one.
            .expect("committed table documents parse")
    })
}

/// The points of a part's grid: every point sets `U`, `λ`, `k` and a
/// policy, and each row is [`PaperScheme::ALL`]`.len()` consecutive
/// points.
fn points(grid: &SweepSpec) -> &[eacp_spec::Point] {
    grid.axes.first().map_or(&[][..], |axis| axis.values())
}

/// The rows of one part's grid.
fn rows(grid: &SweepSpec, part: TablePart) -> Vec<CellSpec> {
    points(grid)
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

/// The policy of the first row's `scheme` column in a part's grid.
fn column_policy(grid: &SweepSpec, scheme: PaperScheme) -> Option<PolicySpec> {
    points(grid)
        .get(scheme as usize)?
        .knobs()
        .iter()
        .find_map(|knob| match *knob {
            Knob::Policy(policy) => Some(policy),
            _ => None,
        })
}

/// The exact configuration of one of the paper's tables, read off its
/// part documents: the costs and the utilization speed from the base
/// scenario, the baseline speed from the Poisson column's policy and the
/// proposed scheme from the fourth column's.
///
/// # Examples
///
/// ```
/// use eacp_experiments::{table_config, TableId};
/// let t1 = table_config(TableId::Table1);
/// assert_eq!(t1.costs.store_cycles, 2.0);
/// assert_eq!(t1.baseline_speed, 0);
/// assert_eq!(t1.proposed_name, "A_D_S");
/// assert_eq!(t1.cells.len(), 14);
/// ```
pub fn table_config(id: TableId) -> TableConfig {
    let [a, b] = table_grids(id);
    let mut cells = rows(&a, TablePart::A);
    cells.extend(rows(&b, TablePart::B));
    // audit:allow(panic): the documents quote a utilization under a paper
    // cost variant, and each row lists a speed-pinned Poisson column first
    // and the proposed scheme fourth; the tests read every table's.
    config(id, &a, cells).expect("table documents set every table parameter")
}

/// Table `id` with rows `cells` and the parameters its part (a) `grid`
/// sets, or `None` where the grid leaves one out.
fn config(id: TableId, grid: &SweepSpec, cells: Vec<CellSpec>) -> Option<TableConfig> {
    let scenario = &grid.base.scenario;
    let WorkSpec::Utilization { speed, .. } = scenario.work else {
        return None;
    };
    Some(TableConfig {
        id,
        costs: scenario.costs.build().ok()?,
        util_speed: speed,
        baseline_speed: column_policy(grid, PaperScheme::Poisson)?.speed()?,
        proposed_name: column_policy(grid, PaperScheme::Proposed)?.policy_name(),
        cells,
    })
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
        for (id, baseline, util_speed) in [
            (TableId::Table1, 0, 1.0),
            (TableId::Table2, 1, 2.0),
            (TableId::Table3, 0, 1.0),
            (TableId::Table4, 1, 2.0),
        ] {
            assert_eq!(table_config(id).baseline_speed, baseline, "{id}");
            assert_eq!(table_config(id).util_speed, util_speed, "{id}");
        }
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
        assert_eq!(table_config(TableId::Table2).proposed_name, "A_D_S");
        assert_eq!(table_config(TableId::Table4).proposed_name, "A_D_C");
    }
}
