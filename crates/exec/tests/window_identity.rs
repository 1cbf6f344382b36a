//! The engine's commit-window fast path is invisible: a policy that never
//! publishes a commit window (every segment goes through `plan`) yields a
//! bit-identical `RunOutcome` and the same observer stream — trace events,
//! energy samples, deadline misses — as the same policy with windows on.
//!
//! Covers every spec scheme × fault process on the paper's processor, and
//! a three-level DVS table with switch time and switch energy, which puts
//! speed switches (energy-meter run boundaries) and three per-level cycle
//! buckets into the runs.

use eacp_energy::{DvsConfig, SpeedLevel};
use eacp_sim::{
    replication_seed, CheckpointKind, CommitWindow, Directive, Executor, ExecutorOptions,
    ExecutorScratch, Observer, PlanContext, Policy, RunOutcome, Scenario, TraceEvent,
    TraceRecorder,
};
use eacp_spec::{ExperimentSpec, FaultSpec, PolicySpec};

/// Forwards planning to the inner policy but keeps `commit_window` at the
/// trait default (`None`), so the engine takes the general path for every
/// segment.
struct NoWindows<P>(P);

impl<P: Policy> Policy for NoWindows<P> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        self.0.plan(ctx)
    }
    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        self.0.on_compare(ctx, kind, mismatch);
    }
}

/// Forwards everything, counting the windows the engine executed.
struct CountWindows<P> {
    inner: P,
    executed: u64,
}

impl<P: Policy> Policy for CountWindows<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        self.inner.plan(ctx)
    }
    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        self.inner.on_compare(ctx, kind, mismatch);
    }
    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        self.inner.commit_window(ctx)
    }
    fn on_commit_window_executed(&mut self) {
        self.executed += 1;
        self.inner.on_commit_window_executed();
    }
}

/// Everything an observer sees, with floats kept as bits.
#[derive(Default)]
struct Stream {
    events: TraceRecorder,
    energy_samples: Vec<(u64, u64)>,
    deadline_misses: Vec<u64>,
}

impl Observer for Stream {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.on_event(event);
    }
    fn on_deadline_miss(&mut self, at: f64) {
        self.deadline_misses.push(at.to_bits());
    }
    fn on_energy_sample(&mut self, at: f64, cumulative_energy: f64) {
        self.energy_samples
            .push((at.to_bits(), cumulative_energy.to_bits()));
    }
}

/// `Debug` prints the shortest text that round-trips each `f64`, so equal
/// text means equal bits (signed zeros included).
fn bits<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

fn fault_specs() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("poisson", FaultSpec::Poisson { lambda: 2e-3 }),
        (
            "weibull",
            FaultSpec::Weibull {
                shape: 0.7,
                scale: 700.0,
            },
        ),
        (
            "burst",
            FaultSpec::Burst {
                quiet_rate: 1e-4,
                burst_rate: 2e-2,
                mean_quiet_dwell: 5_000.0,
                mean_burst_dwell: 500.0,
            },
        ),
        (
            "phased",
            FaultSpec::Phased {
                phases: vec![(4_000.0, 5e-4), (1_000.0, 5e-3)],
                repeat: true,
            },
        ),
        (
            "deterministic",
            FaultSpec::Deterministic {
                times: vec![350.0, 1_200.0, 2_700.0, 6_100.0],
            },
        ),
    ]
}

fn three_level_dvs() -> DvsConfig {
    let mut dvs = DvsConfig::new(vec![
        SpeedLevel::new(1.0, 1.2),
        SpeedLevel::new(1.5, 1.6),
        SpeedLevel::new(2.0, 2.0),
    ]);
    dvs.switch_time = 1.5;
    dvs.switch_energy = 7.25;
    dvs
}

/// Runs `reps` replications both ways and asserts identity; returns the
/// windows executed and the speed switches seen.
fn check(
    what: &str,
    scenario: &Scenario,
    options: ExecutorOptions,
    policy: &PolicySpec,
    faults: &FaultSpec,
    reps: u64,
) -> (u64, u64) {
    let executor = Executor::new(scenario).with_options(options);
    let mut scratch = ExecutorScratch::new();
    let mut windows = 0;
    let mut switches = 0;
    for rep in 0..reps {
        let seed = replication_seed(91, rep);
        let mut run = |with_windows: bool| -> (RunOutcome, Stream) {
            let mut stream = Stream::default();
            let mut faults = faults.build(seed).expect("valid fault spec");
            let inner = policy.build().expect("valid policy spec");
            let out = if with_windows {
                let mut p = CountWindows { inner, executed: 0 };
                let out = executor.run_with_scratch(&mut scratch, &mut p, &mut faults, &mut stream);
                windows += p.executed;
                out
            } else {
                let mut p = NoWindows(inner);
                executor.run_with_scratch(&mut scratch, &mut p, &mut faults, &mut stream)
            };
            (out, stream)
        };
        let (fast, fast_stream) = run(true);
        let (general, general_stream) = run(false);
        switches += fast.speed_switches;
        assert_eq!(bits(&fast), bits(&general), "{what}, rep {rep}: outcome");
        assert_eq!(
            bits(&fast_stream.events.events()),
            bits(&general_stream.events.events()),
            "{what}, rep {rep}: trace events"
        );
        assert_eq!(
            fast_stream.energy_samples, general_stream.energy_samples,
            "{what}, rep {rep}: energy samples"
        );
        assert_eq!(
            fast_stream.deadline_misses, general_stream.deadline_misses,
            "{what}, rep {rep}: deadline misses"
        );
    }
    (windows, switches)
}

#[test]
fn window_path_matches_general_path_for_every_scheme_and_fault_process() {
    let base = ExperimentSpec::paper_nominal();
    let scenario = base.scenario.build().unwrap();
    let options = base.executor.build().unwrap();
    let mut windows = 0;
    for tag in PolicySpec::TAGS {
        let policy = PolicySpec::from_tag(tag, 1.4e-3, 5, 0).unwrap();
        for (fault_name, faults) in fault_specs() {
            let what = format!("{tag} × {fault_name}");
            windows += check(&what, &scenario, options, &policy, &faults, 12).0;
        }
    }
    assert!(windows > 0, "no run took the commit-window path");
}

#[test]
fn window_path_matches_general_path_across_three_speed_levels() {
    let base = ExperimentSpec::paper_nominal();
    let built = base.scenario.build().unwrap();
    let scenario = Scenario::new(built.task, built.costs, three_level_dvs());
    let options = ExecutorOptions {
        faults_during_overhead: true,
        ..base.executor.build().unwrap()
    };
    let (mut windows, mut switches) = (0, 0);
    for tag in PolicySpec::TAGS {
        let policy = PolicySpec::from_tag(tag, 1.4e-3, 5, 0).unwrap();
        for (fault_name, faults) in fault_specs() {
            let what = format!("three-level {tag} × {fault_name}");
            let (w, s) = check(&what, &scenario, options, &policy, &faults, 8);
            windows += w;
            switches += s;
        }
    }
    assert!(windows > 0, "no run took the commit-window path");
    assert!(switches > 0, "no run switched speed");
}
