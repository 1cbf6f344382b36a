//! Named experiment presets: the paper's operating points plus new
//! workloads opened by the spec layer.
//!
//! Preset names are stable identifiers — CLI (`eacp mc --preset ...`),
//! docs and CI all refer to them. Two families exist:
//!
//! * **Paper cells** — `table{1..4}-{a,b}`: the proposed-scheme cell of
//!   the first row of a table part, read off that part's committed grid
//!   document ([`table_document`]). The documents are the only
//!   definition of the paper's cells; this module parses one only when
//!   such a preset is asked for.
//! * **Workloads** — `satellite-telemetry`, `battery-budget`,
//!   `high-fault-burst`: scenarios beyond the paper's tables exercising
//!   the burst/phased fault models and non-paper operating points.

use crate::executive::{ExecutiveSpec, PolicyAssignment, TaskSetSpec};
use crate::model::{
    CostsSpec, DvsSpec, ExecSpec, ExperimentSpec, FaultSpec, McSpec, PolicySpec, ScenarioSpec,
    WorkSpec,
};
use crate::sweep::SweepSpec;

/// The paper's deadline (`D = 10000` normalized time units).
pub const PAPER_DEADLINE: f64 = 10_000.0;

/// The committed grid document of one part of a paper table, by file
/// stem (`table2a` for `specs/table2a.json`), or `None` for any other
/// name. Each is a points axis whose every point is one scheme at one
/// `(U, λ, k)` row; together they are the only definition of the paper's
/// cells. This is the one place the documents are compiled in.
pub fn table_document(name: &str) -> Option<&'static str> {
    Some(match name {
        "table1a" => include_str!("../../../specs/table1a.json"),
        "table1b" => include_str!("../../../specs/table1b.json"),
        "table2a" => include_str!("../../../specs/table2a.json"),
        "table2b" => include_str!("../../../specs/table2b.json"),
        "table3a" => include_str!("../../../specs/table3a.json"),
        "table3b" => include_str!("../../../specs/table3b.json"),
        "table4a" => include_str!("../../../specs/table4a.json"),
        "table4b" => include_str!("../../../specs/table4b.json"),
        _ => return None,
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
/// `U = 0.92`, `λ = 1e-4`, `k = 1`), both with the proposed scheme: point
/// 3 of the part's document, renamed and with the default `mc`.
pub fn preset(name: &str) -> Option<ExperimentSpec> {
    if let Some(w) = workload(name) {
        return Some(w);
    }
    let (table, part) = name.strip_prefix("table")?.split_once('-')?;
    let table: u32 = table.parse().ok()?;
    let grid = SweepSpec::from_json_str(table_document(&format!("table{table}{part}"))?).ok()?;
    let mut spec = grid.expand().ok()?.into_iter().nth(3)?;
    spec.name = name.to_owned();
    spec.mc = McSpec::default();
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

    /// Point `i` of the committed document `name`, as its grid expands.
    fn document_point(name: &str, i: usize) -> ExperimentSpec {
        let grid = SweepSpec::from_json_str(table_document(name).unwrap()).unwrap();
        grid.expand().unwrap().swap_remove(i)
    }

    #[test]
    fn paper_cell_matches_table_parameterization() {
        // Table 2 quotes utilization at f2 and pins baselines to f2.
        let spec = document_point("table2a", 0);
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
        // Table 3 is the CCP variant with an A_D_C proposal (U = 0.8,
        // λ = 1.6e-3: row 5).
        let spec = document_point("table3a", 4 * 5 + 3);
        assert_eq!(spec.scenario.costs, CostsSpec::PaperCcp);
        assert_eq!(spec.policy.tag(), "a_d_c");
        assert!(table_document("table5a").is_none());
        assert!(table_document("table0a").is_none());
    }

    #[test]
    fn proposed_scheme_lambda_tracks_cell() {
        // Table 1(a), U = 0.78, λ = 1.6e-3: row 3.
        let spec = document_point("table1a", 4 * 3 + 3);
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
