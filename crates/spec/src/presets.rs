//! Named experiment presets: the paper's operating points plus new
//! workloads opened by the spec layer.
//!
//! Preset names are stable identifiers — CLI (`eacp mc --preset ...`),
//! docs and CI all refer to them. Two families exist:
//!
//! * **Paper cells** — `table{1..4}-{a,b}` anchors (the first row of each
//!   table part, proposed-scheme column), plus the programmatic
//!   [`paper_cell`] covering every `(table, U, λ, scheme)` combination.
//! * **Workloads** — `satellite-telemetry`, `battery-budget`,
//!   `high-fault-burst`: scenarios beyond the paper's tables exercising
//!   the burst/phased fault models and non-paper operating points.

use crate::error::SpecError;
use crate::executive::{ExecutiveSpec, PolicyAssignment, TaskSetSpec};
use crate::model::{
    CostsSpec, DvsSpec, ExecSpec, ExperimentSpec, FaultSpec, McSpec, PolicySpec, ScenarioSpec,
    WorkSpec,
};

/// The paper's deadline (`D = 10000` normalized time units).
pub const PAPER_DEADLINE: f64 = 10_000.0;

/// Scheme column of a paper table. Variants are declared in the tables'
/// column order, so `scheme as usize` is the column index.
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

/// What sets one of the paper's four tables apart from the others.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTable {
    /// Checkpoint cost variant: SCP (`ts = 2, tcp = 20`) for Tables 1–2,
    /// CCP (`ts = 20, tcp = 2`) for Tables 3–4.
    pub costs: CostsSpec,
    /// DVS level the static baselines are pinned to (0 = `f1`, 1 = `f2`).
    pub baseline_speed: usize,
    /// The speed the utilization is quoted at (`N = U · util_speed · D`).
    pub util_speed: f64,
    /// Policy tag of the proposed column (`a_d_s` or `a_d_c`).
    pub proposed_tag: &'static str,
}

/// Tables 1–4, in order: the only per-table parameterization in the
/// workspace.
pub const PAPER_TABLES: [PaperTable; 4] = [
    PaperTable {
        costs: CostsSpec::PaperScp,
        baseline_speed: 0,
        util_speed: 1.0,
        proposed_tag: "a_d_s",
    },
    PaperTable {
        costs: CostsSpec::PaperScp,
        baseline_speed: 1,
        util_speed: 2.0,
        proposed_tag: "a_d_s",
    },
    PaperTable {
        costs: CostsSpec::PaperCcp,
        baseline_speed: 0,
        util_speed: 1.0,
        proposed_tag: "a_d_c",
    },
    PaperTable {
        costs: CostsSpec::PaperCcp,
        baseline_speed: 1,
        util_speed: 2.0,
        proposed_tag: "a_d_c",
    },
];

/// The parameterization of table `table` (1-based).
///
/// # Errors
///
/// A table number outside `1..=4`.
pub fn paper_table(table: u32) -> Result<PaperTable, SpecError> {
    table
        .checked_sub(1)
        .and_then(|i| PAPER_TABLES.get(i as usize))
        .copied()
        .ok_or_else(|| SpecError::invalid(format!("paper table must be 1..=4, got {table}")))
}

/// Builds the spec for one cell of one of the paper's four tables.
///
/// `table` is the 1-based table number ([`paper_table`]). Baseline schemes
/// are pinned to the table's baseline speed (`f1` for Tables 1/3, `f2`
/// for 2/4) and the task is scaled by the table's utilization speed.
pub fn paper_cell(
    table: u32,
    utilization: f64,
    lambda: f64,
    k: u32,
    scheme: PaperScheme,
) -> Result<ExperimentSpec, SpecError> {
    let params = paper_table(table)?;
    let policy = match scheme {
        PaperScheme::Poisson => PolicySpec::Poisson {
            lambda,
            speed: params.baseline_speed,
        },
        PaperScheme::KFaultTolerant => PolicySpec::KFaultTolerant {
            k,
            speed: params.baseline_speed,
        },
        PaperScheme::AdtDvs => PolicySpec::from_tag("a_d", lambda, k, 0)?,
        PaperScheme::Proposed => PolicySpec::from_tag(params.proposed_tag, lambda, k, 0)?,
    };
    Ok(ExperimentSpec {
        name: format!(
            "table{table}-u{utilization}-l{lambda}-k{k}-{}",
            policy.tag()
        ),
        scenario: ScenarioSpec {
            work: WorkSpec::Utilization {
                utilization,
                speed: params.util_speed,
                deadline: PAPER_DEADLINE,
            },
            costs: params.costs,
            dvs: DvsSpec::PaperDefault,
            processors: 2,
        },
        faults: FaultSpec::Poisson { lambda },
        policy,
        mc: McSpec::default(),
        // The paper's renewal analysis exposes only useful computation to
        // faults; the tables are regenerated under the same semantics.
        executor: ExecSpec::paper(),
    })
}

fn workload(name: &str) -> Option<ExperimentSpec> {
    match name {
        // A satellite telemetry frame processor crossing the radiation
        // belts: long quiet periods punctuated by fault bursts. The
        // adaptive scheme's fault-budget replanning is exactly what the
        // paper motivates for "autonomous airborne / space systems".
        "satellite-telemetry" => Some(ExperimentSpec {
            name: name.to_owned(),
            scenario: ScenarioSpec {
                work: WorkSpec::Utilization {
                    utilization: 0.70,
                    speed: 1.0,
                    deadline: PAPER_DEADLINE,
                },
                costs: CostsSpec::PaperScp,
                dvs: DvsSpec::PaperDefault,
                processors: 2,
            },
            faults: FaultSpec::Burst {
                quiet_rate: 1e-4,
                burst_rate: 4e-2,
                mean_quiet_dwell: 9_000.0,
                mean_burst_dwell: 500.0,
            },
            policy: PolicySpec::from_tag("a_d_s", 1.4e-3, 5, 0).ok()?,
            mc: McSpec::default(),
            executor: ExecSpec::default(),
        }),
        // A battery-powered node that must finish within the deadline at
        // minimum energy: light utilization, low fault rate, DVS keeps the
        // processor slow almost all the time.
        "battery-budget" => Some(ExperimentSpec {
            name: name.to_owned(),
            scenario: ScenarioSpec {
                work: WorkSpec::Utilization {
                    utilization: 0.45,
                    speed: 1.0,
                    deadline: PAPER_DEADLINE,
                },
                costs: CostsSpec::PaperScp,
                dvs: DvsSpec::PaperDefault,
                processors: 2,
            },
            faults: FaultSpec::Poisson { lambda: 2e-4 },
            policy: PolicySpec::from_tag("a_d_s", 2e-4, 2, 0).ok()?,
            mc: McSpec::default(),
            executor: ExecSpec::default(),
        }),
        // A harsh-environment operating point far beyond the paper's λ
        // grid: sustained high fault arrival with heavier bursts.
        "high-fault-burst" => Some(ExperimentSpec {
            name: name.to_owned(),
            scenario: ScenarioSpec {
                work: WorkSpec::Utilization {
                    utilization: 0.60,
                    speed: 1.0,
                    deadline: PAPER_DEADLINE,
                },
                costs: CostsSpec::PaperCcp,
                dvs: DvsSpec::PaperDefault,
                processors: 2,
            },
            faults: FaultSpec::Burst {
                quiet_rate: 2e-3,
                burst_rate: 1e-1,
                mean_quiet_dwell: 2_000.0,
                mean_burst_dwell: 400.0,
            },
            policy: PolicySpec::from_tag("a_d_c", 5e-3, 8, 0).ok()?,
            mc: McSpec::default(),
            executor: ExecSpec::default(),
        }),
        _ => None,
    }
}

/// Looks up a preset by name.
///
/// Table anchors are named `table{1..4}-a` (part (a) first row: `U = 0.76`,
/// `λ = 1.4e-3`, `k = 5`) and `table{1..4}-b` (part (b) first row:
/// `U = 0.92`, `λ = 1e-4`, `k = 1`), both with the proposed scheme.
pub fn preset(name: &str) -> Option<ExperimentSpec> {
    if let Some(w) = workload(name) {
        return Some(w);
    }
    let (table, part) = match name.strip_prefix("table") {
        Some(rest) => {
            let (num, part) = rest.split_once('-')?;
            (num.parse::<u32>().ok()?, part)
        }
        None => return None,
    };
    if !(1..=4).contains(&table) {
        return None;
    }
    let mut spec = match part {
        "a" => paper_cell(table, 0.76, 1.4e-3, 5, PaperScheme::Proposed).ok()?,
        "b" => paper_cell(table, 0.92, 1.0e-4, 1, PaperScheme::Proposed).ok()?,
        _ => return None,
    };
    spec.name = name.to_owned();
    Some(spec)
}

/// Looks up a periodic-workload preset by name (`eacp executive
/// --preset ...`, `eacp feasibility --preset ...`).
///
/// * `avionics-trio` — the three-task avionics workload of
///   `examples/periodic_taskset.rs`: attitude control, sensor fusion and
///   telemetry downlink under the shared `A_D_S` policy, five
///   hyperperiods at λ = 5e-4.
/// * `k-fault-feasibility-sweep` — a heavier five-task set near the EDF
///   feasibility boundary at `f1`, meant for `eacp feasibility`'s per-k
///   sensitivity table (`k = 5` upper bound); its executive run uses
///   per-task policies (the proposed scheme on the tight tasks, static
///   `k-f-t` on the slack ones).
pub fn executive_preset(name: &str) -> Option<ExecutiveSpec> {
    match name {
        "avionics-trio" => {
            let lambda = 5e-4;
            let k = 2;
            let mut spec = ExecutiveSpec::new(
                name,
                TaskSetSpec::implicit([
                    ("attitude-control", 900.0, 5_000),
                    ("sensor-fusion", 1_400.0, 10_000),
                    ("telemetry-downlink", 2_600.0, 20_000),
                ]),
            );
            spec.faults = FaultSpec::Poisson { lambda };
            spec.policy =
                PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", lambda, k, 0).ok()?);
            spec.k = k;
            spec.hyperperiods = 5;
            spec.seed = 13;
            Some(spec)
        }
        "k-fault-feasibility-sweep" => {
            let lambda = 1e-3;
            let k = 5;
            let mut spec = ExecutiveSpec::new(
                name,
                TaskSetSpec::implicit([
                    ("guidance", 1_100.0, 4_000),
                    ("nav-filter", 800.0, 5_000),
                    ("actuation", 600.0, 8_000),
                    ("health-monitor", 900.0, 10_000),
                    ("logging", 1_500.0, 20_000),
                ]),
            );
            spec.faults = FaultSpec::Poisson { lambda };
            spec.policy = PolicyAssignment::PerTask(vec![
                PolicySpec::from_tag("a_d_s", lambda, k, 0).ok()?,
                PolicySpec::from_tag("a_d_s", lambda, k, 0).ok()?,
                PolicySpec::from_tag("kft", lambda, 2, 0).ok()?,
                PolicySpec::from_tag("a_d_s", lambda, k, 0).ok()?,
                PolicySpec::from_tag("kft", lambda, 2, 0).ok()?,
            ]);
            spec.k = k;
            spec.hyperperiods = 3;
            spec.seed = 2006;
            Some(spec)
        }
        _ => None,
    }
}

/// All stable periodic-workload preset names.
pub fn executive_preset_names() -> Vec<&'static str> {
    vec!["avionics-trio", "k-fault-feasibility-sweep"]
}

/// All stable preset names.
pub fn preset_names() -> Vec<&'static str> {
    vec![
        "table1-a",
        "table1-b",
        "table2-a",
        "table2-b",
        "table3-a",
        "table3-b",
        "table4-a",
        "table4-b",
        "satellite-telemetry",
        "battery-budget",
        "high-fault-burst",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_preset_exists_and_validates() {
        for name in preset_names() {
            let spec = preset(name).unwrap_or_else(|| panic!("missing preset {name}"));
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name);
        }
    }

    #[test]
    fn unknown_presets_are_none() {
        assert!(preset("table9-a").is_none());
        assert!(preset("table1-z").is_none());
        assert!(preset("bogus").is_none());
        assert!(executive_preset("bogus").is_none());
    }

    #[test]
    fn every_executive_preset_exists_and_validates() {
        for name in executive_preset_names() {
            let spec = executive_preset(name).unwrap_or_else(|| panic!("missing preset {name}"));
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name);
        }
    }

    #[test]
    fn paper_cell_matches_table_parameterization() {
        // Table 2 quotes utilization at f2 and pins baselines to f2.
        let spec = paper_cell(2, 0.76, 1.4e-3, 5, PaperScheme::Poisson).unwrap();
        match spec.scenario.work {
            WorkSpec::Utilization { speed, .. } => assert_eq!(speed, 2.0),
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            spec.policy,
            PolicySpec::Poisson {
                lambda: 1.4e-3,
                speed: 1
            }
        );
        // Table 3 is the CCP variant with an A_D_C proposal.
        let spec = paper_cell(3, 0.8, 1.6e-3, 5, PaperScheme::Proposed).unwrap();
        assert_eq!(spec.scenario.costs, CostsSpec::PaperCcp);
        assert_eq!(spec.policy.tag(), "a_d_c");
        assert!(paper_cell(5, 0.76, 1e-3, 5, PaperScheme::Proposed).is_err());
        assert!(paper_cell(0, 0.76, 1e-3, 5, PaperScheme::Proposed).is_err());
    }

    #[test]
    fn proposed_scheme_lambda_tracks_cell() {
        let spec = paper_cell(1, 0.78, 1.6e-3, 5, PaperScheme::Proposed).unwrap();
        match spec.policy {
            PolicySpec::DvsScp { lambda, k, .. } => {
                assert_eq!(lambda, 1.6e-3);
                assert_eq!(k, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(spec.faults, FaultSpec::Poisson { lambda: 1.6e-3 });
    }
}
