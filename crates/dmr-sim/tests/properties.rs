//! Property-based tests of the DMR executor's invariants.

use eacp_energy::DvsConfig;
use eacp_faults::{DeterministicFaults, PoissonProcess};
use eacp_sim::{
    CheckpointCosts, CheckpointKind, Directive, Executor, ExecutorOptions, PlanContext, Policy,
    Scenario, TaskSpec, TraceRecorder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fixed-interval CSCP policy (never aborts).
struct FixedCscp {
    interval: f64,
    speed: usize,
}

impl Policy for FixedCscp {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
        Directive::run(self.speed, self.interval, CheckpointKind::CompareStore)
    }
}

fn scenario(work: f64, deadline: f64, ts: f64, tcp: f64, tr: f64) -> Scenario {
    Scenario::new(
        TaskSpec::new(work, deadline),
        CheckpointCosts::new(ts, tcp, tr),
        DvsConfig::paper_default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault-free accounting identity: finish time equals work time plus
    /// exactly ceil(N / (interval·f)) checkpoint costs; energy equals the
    /// corresponding cycle count at the level's V², doubled for DMR.
    #[test]
    fn fault_free_accounting_identity(
        work in 50.0f64..5_000.0,
        interval in 10.0f64..500.0,
        speed in 0usize..2,
        ts in 0.5f64..30.0,
        tcp in 0.5f64..30.0,
    ) {
        let s = scenario(work, 1e12, ts, tcp, 0.0);
        let mut p = FixedCscp { interval, speed };
        let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
        prop_assert!(out.completed && out.timely);
        let f = s.dvs().level(speed).frequency;
        let n_chk = (work / (interval * f)).ceil().max(1.0);
        let expected_time = work / f + n_chk * (ts + tcp) / f;
        prop_assert!((out.finish_time - expected_time).abs() < 1e-6,
            "finish {} vs expected {expected_time}", out.finish_time);
        let vsq = s.dvs().level(speed).voltage.powi(2);
        let expected_energy = 2.0 * vsq * (work + n_chk * (ts + tcp));
        prop_assert!((out.energy - expected_energy).abs() / expected_energy < 1e-9);
    }

    /// Under any fault schedule: rollbacks never exceed comparisons, every
    /// completion has all work done, energy is at least the fault-free
    /// floor when completed, and no anomalies arise.
    #[test]
    fn faulty_runs_respect_invariants(
        work in 100.0f64..3_000.0,
        interval in 20.0f64..400.0,
        faults in proptest::collection::vec(0.0f64..20_000.0, 0..30),
    ) {
        let s = scenario(work, 1e12, 2.0, 20.0, 0.0);
        let mut p = FixedCscp { interval, speed: 0 };
        let mut fp = DeterministicFaults::new(faults);
        let out = Executor::new(&s).run(&mut p, &mut fp);
        prop_assert!(out.anomaly.is_none());
        prop_assert!(out.completed, "no deadline pressure: must finish");
        prop_assert!(out.rollbacks <= out.compare_checkpoints + out.compare_store_checkpoints);
        let floor = 2.0 * 2.0 * (work + 22.0); // at least one CSCP
        prop_assert!(out.energy >= floor - 1e-6);
        // Total cycles at least the useful work plus one checkpoint.
        prop_assert!(out.total_cycles >= work + 22.0 - 1e-9);
    }

    /// More injected faults can never make a fixed-interval run finish
    /// earlier (on the same schedule prefix).
    #[test]
    fn faults_never_speed_up_completion(
        base in proptest::collection::vec(1.0f64..5_000.0, 0..6),
        extra in 1.0f64..5_000.0,
    ) {
        let s = scenario(1_000.0, 1e12, 2.0, 20.0, 0.0);
        let run = |times: Vec<f64>| {
            let mut p = FixedCscp { interval: 100.0, speed: 0 };
            let mut fp = DeterministicFaults::new(times);
            Executor::new(&s).run(&mut p, &mut fp)
        };
        let without = run(base.clone());
        let mut with = base;
        with.push(extra);
        let with = run(with);
        prop_assert!(with.finish_time >= without.finish_time - 1e-9);
    }

    /// Trace events are emitted in nondecreasing start-time order and the
    /// recorded fault count matches the outcome.
    #[test]
    fn traces_are_ordered_and_complete(
        seed in 0u64..500,
        lambda in 1e-4f64..5e-3,
    ) {
        let s = scenario(2_000.0, 1e12, 2.0, 20.0, 0.0);
        let mut p = FixedCscp { interval: 150.0, speed: 0 };
        let mut fp = PoissonProcess::new(lambda, StdRng::seed_from_u64(seed));
        let mut rec = TraceRecorder::new();
        let out = Executor::new(&s).run_observed(&mut p, &mut fp, &mut rec);
        prop_assert!(out.completed);
        let mut last = 0.0f64;
        let mut fault_events = 0u32;
        for e in rec.events() {
            prop_assert!(e.start_time() >= last - 1e-9);
            last = last.max(e.start_time());
            if matches!(e, eacp_sim::TraceEvent::Fault { .. }) {
                fault_events += 1;
            }
        }
        prop_assert_eq!(fault_events, out.faults);
    }

    /// Deadline dichotomy: every run either completes, aborts, or is cut
    /// off past the deadline — and `timely` implies completion by D.
    #[test]
    fn deadline_semantics(
        work in 100.0f64..3_000.0,
        deadline in 100.0f64..4_000.0,
        seed in 0u64..200,
    ) {
        let s = scenario(work, deadline, 2.0, 20.0, 0.0);
        let mut p = FixedCscp { interval: 120.0, speed: 0 };
        let mut fp = PoissonProcess::new(1e-3, StdRng::seed_from_u64(seed));
        let out = Executor::new(&s).run(&mut p, &mut fp);
        prop_assert!(out.anomaly.is_none());
        if out.timely {
            prop_assert!(out.completed);
            prop_assert!(out.finish_time <= deadline + 1e-9);
        }
        if !out.completed {
            prop_assert!(out.finish_time > deadline - 1e-9,
                "incomplete runs only end past the deadline");
        }
    }

    /// The analysis fault model (no faults during overhead) never performs
    /// worse than the physical model on the same stream.
    #[test]
    fn overhead_exposure_only_hurts(
        seed in 0u64..300,
    ) {
        let s = scenario(2_000.0, 1e12, 2.0, 20.0, 0.0);
        let run = |overhead: bool| {
            let mut p = FixedCscp { interval: 150.0, speed: 0 };
            let mut fp = PoissonProcess::new(2e-3, StdRng::seed_from_u64(seed));
            Executor::new(&s)
                .with_options(ExecutorOptions {
                    faults_during_overhead: overhead,
                    ..ExecutorOptions::default()
                })
                .run(&mut p, &mut fp)
        };
        let physical = run(true);
        let analysis = run(false);
        prop_assert!(analysis.faults <= physical.faults);
    }
}
