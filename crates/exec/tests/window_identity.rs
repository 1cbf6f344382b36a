//! The engine's commit-window fast path is invisible: a policy that never
//! publishes a commit window (every segment goes through `plan`) yields a
//! bit-identical `RunOutcome` and the same observer stream — trace events,
//! energy samples, deadline misses — as the same policy with windows on.
//!
//! Covers every spec scheme × fault process on the paper's processor, and
//! a three-level DVS table with switch time and switch energy, which puts
//! speed switches (energy-meter run boundaries) and three per-level cycle
//! buckets into the runs. Fault-dense runs (5–15× the paper's rate) under
//! both cost variants and a cost model with a rollback cost check the
//! windows that a mismatching comparison ends part-way.

use eacp_energy::{DvsConfig, SpeedLevel};
use eacp_sim::{
    replication_seed, Anomaly, CheckpointCosts, CheckpointKind, CommitWindow, Directive, Executor,
    ExecutorOptions, ExecutorScratch, Observer, PlanContext, Policy, RunOutcome, Scenario,
    TraceEvent, TraceRecorder,
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

/// Forwards everything, counting the windows the engine executed to their
/// closing commit and the windows a mismatching comparison ended: an
/// `on_compare(…, true)` with no `plan` call since the last published
/// window.
struct CountWindows<P> {
    inner: P,
    executed: u64,
    mismatch_ended: u64,
    in_window: bool,
}

impl<P> CountWindows<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            executed: 0,
            mismatch_ended: 0,
            in_window: false,
        }
    }
}

impl<P: Policy> Policy for CountWindows<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        self.in_window = false;
        self.inner.plan(ctx)
    }
    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        if mismatch && self.in_window {
            self.mismatch_ended += 1;
            self.in_window = false;
        }
        self.inner.on_compare(ctx, kind, mismatch);
    }
    fn commit_window(&mut self, ctx: &PlanContext<'_>) -> Option<CommitWindow> {
        let w = self.inner.commit_window(ctx);
        self.in_window = w.is_some();
        w
    }
    fn on_commit_window_executed(&mut self) {
        self.executed += 1;
        self.in_window = false;
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
        ("poisson-dense", FaultSpec::Poisson { lambda: 7e-3 }),
        ("poisson-densest", FaultSpec::Poisson { lambda: 2.1e-2 }),
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

/// What the window-path runs of one [`check`] saw.
#[derive(Default)]
struct Seen {
    /// Windows executed to their closing commit.
    windows: u64,
    /// Windows a mismatching comparison ended.
    mismatch_ended: u64,
    speed_switches: u64,
    /// Runs stopped by the operation budget.
    budget_exhausted: u64,
}

/// Runs `reps` replications both ways and asserts identity.
fn check(
    what: &str,
    scenario: &Scenario,
    options: ExecutorOptions,
    policy: &PolicySpec,
    faults: &FaultSpec,
    reps: u64,
) -> Seen {
    let executor = Executor::new(scenario).with_options(options);
    let mut scratch = ExecutorScratch::new();
    let mut seen = Seen::default();
    for rep in 0..reps {
        let seed = replication_seed(91, rep);
        let mut run = |with_windows: bool| -> (RunOutcome, Stream) {
            let mut stream = Stream::default();
            let mut faults = faults.build(seed).expect("valid fault spec");
            let inner = policy.build().expect("valid policy spec");
            let out = if with_windows {
                let mut p = CountWindows::new(inner);
                let out = executor.run_with_scratch(&mut scratch, &mut p, &mut faults, &mut stream);
                seen.windows += p.executed;
                seen.mismatch_ended += p.mismatch_ended;
                out
            } else {
                let mut p = NoWindows(inner);
                executor.run_with_scratch(&mut scratch, &mut p, &mut faults, &mut stream)
            };
            (out, stream)
        };
        let (fast, fast_stream) = run(true);
        let (general, general_stream) = run(false);
        seen.speed_switches += fast.speed_switches;
        seen.budget_exhausted += u64::from(fast.anomaly == Some(Anomaly::OpBudgetExhausted));
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
    seen
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
            windows += check(&what, &scenario, options, &policy, &faults, 12).windows;
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
            let seen = check(&what, &scenario, options, &policy, &faults, 8);
            windows += seen.windows;
            switches += seen.speed_switches;
        }
    }
    assert!(windows > 0, "no run took the commit-window path");
    assert!(switches > 0, "no run switched speed");
}

#[test]
fn fault_dense_windows_end_at_mismatches_like_the_general_path() {
    let base = ExperimentSpec::paper_nominal();
    let built = base.scenario.build().unwrap();
    let costs = [
        ("paper-scp", CheckpointCosts::paper_scp_variant()),
        ("paper-ccp", CheckpointCosts::paper_ccp_variant()),
        ("explicit", CheckpointCosts::new(6.0, 9.0, 4.0)),
    ];
    let dvs_tables = [
        ("two-level", built.dvs.clone()),
        ("three-level", three_level_dvs()),
    ];
    // Windows a mismatch ended, for the SCP and the CCP schemes.
    let (mut scp_ended, mut ccp_ended) = (0, 0);
    let mut windows = 0;
    for (cost_name, cost) in costs {
        for (dvs_name, dvs) in &dvs_tables {
            let scenario = Scenario::new(built.task, cost, dvs.clone());
            for faults_during_overhead in [true, false] {
                let options = ExecutorOptions {
                    faults_during_overhead,
                    ..base.executor.build().unwrap()
                };
                for lambda in [7e-3, 2.1e-2] {
                    let faults = FaultSpec::Poisson { lambda };
                    for tag in PolicySpec::TAGS {
                        let policy = PolicySpec::from_tag(tag, lambda, 5, 0).unwrap();
                        let what = format!(
                            "{tag} × {cost_name} × {dvs_name} × overhead faults \
                             {faults_during_overhead} × λ {lambda}"
                        );
                        let seen = check(&what, &scenario, options, &policy, &faults, 6);
                        windows += seen.windows;
                        match tag {
                            "a_d_s" | "a_s" => scp_ended += seen.mismatch_ended,
                            "a_d_c" | "a_c" => ccp_ended += seen.mismatch_ended,
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    assert!(windows > 0, "no run took the commit-window path");
    assert!(scp_ended > 0, "no SCP window ended at a mismatch");
    assert!(ccp_ended > 0, "no CCP window ended at a mismatch");
}

/// Fault draws count against the operation budget, so a window can spend
/// it part-way; the run must then stop where the general path stops.
#[test]
fn op_budget_spent_inside_windows_stops_where_the_general_path_stops() {
    let base = ExperimentSpec::paper_nominal();
    let scenario = base.scenario.build().unwrap();
    let lambda = 2.1e-2;
    let faults = FaultSpec::Poisson { lambda };
    let mut exhausted = 0;
    for max_operations in (40..160).step_by(7) {
        let options = ExecutorOptions {
            max_operations,
            ..base.executor.build().unwrap()
        };
        for tag in ["poisson", "a_d_s", "a_d_c", "a_s"] {
            let policy = PolicySpec::from_tag(tag, lambda, 5, 0).unwrap();
            let what = format!("{tag} × budget {max_operations}");
            exhausted += check(&what, &scenario, options, &policy, &faults, 4).budget_exhausted;
        }
    }
    assert!(exhausted > 0, "no run spent its operation budget");
}
