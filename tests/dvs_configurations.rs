//! DVS-configuration coverage beyond the paper's two-speed processor:
//! multi-level scaling, non-zero switch overheads, and single-speed
//! degenerate configurations must all compose correctly with the adaptive
//! policies.

use eacp::core::policies::Adaptive;
use eacp::energy::{DvsConfig, SpeedLevel};
use eacp::faults::{DeterministicFaults, PoissonProcess};
use eacp::sim::{CheckpointCosts, Executor, ExecutorOptions, Scenario, TaskSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn three_level() -> DvsConfig {
    DvsConfig::new(vec![
        SpeedLevel::new(1.0, 1.2),
        SpeedLevel::new(1.5, 1.6),
        SpeedLevel::new(2.0, 2.0),
    ])
}

#[test]
fn three_level_processor_picks_middle_speed() {
    // Work sized so f1 misses but f1.5 fits comfortably.
    let scenario = Scenario::new(
        TaskSpec::new(12_000.0, 10_000.0),
        CheckpointCosts::paper_scp_variant(),
        three_level(),
    );
    let mut policy = Adaptive::dvs_scp(1e-4, 3);
    let out = Executor::new(&scenario).run(&mut policy, &mut DeterministicFaults::none());
    assert!(out.completed && out.timely);
    // Ran at 1.5 (not the fastest): nothing at frequency 2.0.
    assert_eq!(out.cycles_at_fastest, 0.0);
    assert!(out.total_cycles >= 12_000.0);
}

#[test]
fn three_level_processor_escalates_to_fastest() {
    let scenario = Scenario::new(
        TaskSpec::new(18_000.0, 10_000.0), // needs f ≈ 1.8+
        CheckpointCosts::paper_scp_variant(),
        three_level(),
    );
    let mut policy = Adaptive::dvs_scp(1e-4, 3);
    let out = Executor::new(&scenario).run(&mut policy, &mut DeterministicFaults::none());
    assert!(out.completed && out.timely);
    assert!(out.fast_fraction() > 0.9);
}

#[test]
fn switch_energy_is_charged_exactly() {
    // With switch_time = 0 the two runs have identical timelines, so the
    // energy difference is exactly processors · switch_energy · switches.
    let run = |switch_energy: f64| {
        let mut dvs = DvsConfig::paper_default();
        dvs.switch_energy = switch_energy;
        let scenario = Scenario::new(
            TaskSpec::new(7_600.0, 10_000.0),
            CheckpointCosts::paper_scp_variant(),
            dvs,
        );
        // Tight start forces f2; the injected fault triggers a replan
        // that downshifts — at least two switches.
        let mut policy = Adaptive::dvs_scp(1.4e-3, 5);
        let mut faults = DeterministicFaults::new(vec![2_500.0]);
        Executor::new(&scenario).run(&mut policy, &mut faults)
    };
    let free = run(0.0);
    let charged = run(40.0);
    assert!(charged.completed && free.completed);
    assert!(charged.speed_switches >= 2);
    assert_eq!(charged.speed_switches, free.speed_switches);
    assert!((charged.finish_time - free.finish_time).abs() < 1e-9);
    let expected_extra = 2.0 * 40.0 * charged.speed_switches as f64;
    assert!(
        (charged.energy - free.energy - expected_extra).abs() < 1e-6,
        "ΔE = {} vs expected {expected_extra}",
        charged.energy - free.energy
    );
}

#[test]
fn switch_time_delays_completion() {
    let run = |switch_time: f64| {
        let mut dvs = DvsConfig::paper_default();
        dvs.switch_time = switch_time;
        let scenario = Scenario::new(
            TaskSpec::new(7_600.0, 10_000.0),
            CheckpointCosts::paper_scp_variant(),
            dvs,
        );
        let mut policy = Adaptive::dvs_scp(1.4e-3, 5);
        Executor::new(&scenario).run(&mut policy, &mut DeterministicFaults::none())
    };
    let instant = run(0.0);
    let slow = run(25.0);
    assert!(instant.completed && slow.completed);
    // Fault-free: one initial upshift; the delayed run finishes exactly
    // one switch_time later.
    assert_eq!(slow.speed_switches, instant.speed_switches);
    let expected_delay = 25.0 * slow.speed_switches as f64;
    assert!(
        (slow.finish_time - instant.finish_time - expected_delay).abs() < 1e-9,
        "delay = {}",
        slow.finish_time - instant.finish_time
    );
}

#[test]
fn single_speed_config_disables_dvs_gracefully() {
    let scenario = Scenario::new(
        TaskSpec::new(5_000.0, 10_000.0),
        CheckpointCosts::paper_scp_variant(),
        DvsConfig::fixed(SpeedLevel::new(1.0, 1.5)),
    );
    let job = eacp::exec::Job::from_parts(
        "single-speed",
        scenario,
        ExecutorOptions::default(),
        300,
        4,
        |_| Box::new(Adaptive::dvs_scp(1e-3, 5)),
        |seed| Box::new(PoissonProcess::new(1e-3, StdRng::seed_from_u64(seed))),
    )
    .unwrap();
    use eacp::exec::Runner;
    let summary = eacp::exec::LocalRunner::default().run(&job).unwrap();
    assert_eq!(summary.anomalies, 0);
    assert!(summary.p_timely() > 0.95);
    // With one level, "fastest" is also "slowest": the fast fraction is
    // trivially 1 whenever anything ran.
    assert!(summary.fast_fraction.mean() > 0.99);
}

#[test]
fn faults_during_a_speed_switch_are_counted() {
    // The tight start forces an upshift at t = 0; with switch_time = 25 the
    // fault at t = 10 strikes while the processor is switching. It is
    // exposed (faults_during_overhead), forces one rollback, and must show
    // in the fault count like a fault in any other operation.
    let mut dvs = DvsConfig::paper_default();
    dvs.switch_time = 25.0;
    let scenario = Scenario::new(
        TaskSpec::new(7_600.0, 10_000.0),
        CheckpointCosts::paper_scp_variant(),
        dvs,
    );
    let options = ExecutorOptions {
        faults_during_overhead: true,
        ..ExecutorOptions::default()
    };
    let mut policy = Adaptive::dvs_scp(1.4e-3, 5);
    let mut faults = DeterministicFaults::new(vec![10.0]);
    let out = Executor::new(&scenario)
        .with_options(options)
        .run(&mut policy, &mut faults);
    assert!(out.completed && out.timely);
    assert!(out.speed_switches >= 1);
    assert_eq!(out.rollbacks, 1);
    assert_eq!(out.faults, 1, "a fault during the switch went uncounted");
}
