//! Acceptance tests for the declarative spec layer at the facade level:
//! round-tripping, scheme coverage, and the determinism contract
//! `spec + seed = identical results` (including thread-count invariance).

use eacp::experiments::{table_grids, TableId};
use eacp::sim::Policy;
use eacp::spec::{
    preset, preset_names, Axis, ExperimentSpec, FaultSpec, Knob, McSpec, PolicySpec, SweepSpec,
    ToJson,
};

fn small(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.mc.replications = 150;
    spec
}

/// The proposed-scheme cell of Table 1(a)'s row `row`, as the committed
/// document expands it, at 150 replications.
fn table1a_proposed(row: usize) -> ExperimentSpec {
    let [grid, _] = table_grids(TableId::Table1);
    small(grid.expand().unwrap().swap_remove(4 * row + 3))
}

#[test]
fn serialize_deserialize_run_is_bit_identical() {
    let spec = table1a_proposed(0);
    let (direct, _) = eacp::exec::run(&spec).unwrap();

    let json = spec.to_json_string();
    let reread = ExperimentSpec::from_json_str(&json).unwrap();
    assert_eq!(reread, spec, "round-trip must preserve the spec exactly");
    let (replayed, _) = eacp::exec::run(&reread).unwrap();
    assert_eq!(replayed, direct, "replayed Summary must be bit-identical");
}

#[test]
fn every_policy_scheme_builds_and_matches_the_paper_name_table() {
    // The mapping of core::policies' module docs: tag -> Policy::name().
    let expected = [
        ("poisson", "Poisson"),
        ("kft", "k-f-t"),
        ("a_d", "A_D"),
        ("a_d_s", "A_D_S"),
        ("a_d_c", "A_D_C"),
        ("a_s", "A_S"),
        ("a_c", "A_C"),
        ("cscp", "A"),
    ];
    assert_eq!(expected.len(), PolicySpec::TAGS.len());
    for (tag, name) in expected {
        let spec = PolicySpec::from_tag(tag, 1.4e-3, 5, 0).unwrap();
        assert_eq!(spec.build().unwrap().name(), name, "tag {tag}");
    }
}

#[test]
fn monte_carlo_summary_invariant_across_thread_counts() {
    // Guards the seed-derivation contract in montecarlo.rs: replication i
    // derives its seed from (base_seed, i) alone, so the partition of
    // replications over workers must not change any outcome.
    let base = table1a_proposed(3);
    let run_with_threads = |threads: usize| {
        let mut spec = base.clone();
        spec.mc = McSpec { threads, ..spec.mc };
        eacp::exec::run(&spec).unwrap().0
    };
    let one = run_with_threads(1);
    let four = run_with_threads(4);
    assert_eq!(one.timely, four.timely);
    assert_eq!(one.completed, four.completed);
    assert_eq!(one.aborted, four.aborted);
    assert_eq!(one.anomalies, four.anomalies);
    assert_eq!(one.faults.min(), four.faults.min());
    assert_eq!(one.faults.max(), four.faults.max());
    // Welford merges reassociate float additions across partitions; counts
    // are exact, means agree to merge-order rounding.
    let rel = (one.energy_all.mean() - four.energy_all.mean()).abs() / one.energy_all.mean();
    assert!(rel < 1e-12, "relative mean drift {rel}");
}

#[test]
fn presets_run_and_stay_deterministic() {
    for name in preset_names() {
        let spec = small(preset(name).unwrap());
        let (a, report) = eacp::exec::run(&spec).unwrap();
        let (b, _) = eacp::exec::run(&spec).unwrap();
        assert_eq!(a, b, "preset {name} must be reproducible");
        assert_eq!(a.anomalies, 0, "preset {name} must run cleanly");
        assert_eq!(report.spec.name, name);
    }
}

#[test]
fn sweep_points_reproduce_individually() {
    // Sharding contract: running one expanded point elsewhere gives the
    // same numbers as running it inside the sweep.
    let sweep = SweepSpec {
        base: table1a_proposed(0),
        axes: vec![Axis::new(Knob::Lambda, vec![1.0e-4, 1.4e-3])],
    };
    let points = sweep.expand().unwrap();
    assert_eq!(points.len(), 2);
    for point in &points {
        let (inside, _) = eacp::exec::run(point).unwrap();
        let reread = ExperimentSpec::from_json_str(&point.to_json_string()).unwrap();
        let (outside, _) = eacp::exec::run(&reread).unwrap();
        assert_eq!(inside, outside, "point {}", point.name);
    }
}

#[test]
fn fault_models_beyond_poisson_run_through_specs() {
    let mut spec = small(preset("satellite-telemetry").unwrap());
    spec.mc.replications = 60;
    let (summary, _) = eacp::exec::run(&spec).unwrap();
    assert_eq!(summary.replications, 60);
    assert_eq!(summary.anomalies, 0);
    assert!(summary.faults.mean() >= 0.0);

    spec.faults = FaultSpec::Phased {
        phases: vec![(9_000.0, 1e-4), (1_000.0, 2e-2)],
        repeat: true,
    };
    let (summary, _) = eacp::exec::run(&spec).unwrap();
    assert_eq!(summary.anomalies, 0);
}
