//! The [`Job`] abstraction: a fully-validated, self-contained Monte-Carlo
//! experiment ready for any [`crate::Runner`].
//!
//! Spec-driven jobs build their per-replication policy and fault stream
//! from the validated [`ExperimentSpec`] ([`Job::from_spec`]), while
//! custom policies (tests, ablations) enter through [`Job::from_parts`].
//! Both keep the workspace's bit-identical seeding contract: replication
//! `i` always runs with [`replication_seed`]`(base_seed, i)`.

use eacp_core::policies::PolicyKind;
use eacp_faults::{BatchedFaults, FaultProcess};
use eacp_sim::{
    replication_seed, Executor, ExecutorOptions, ExecutorScratch, Observer, Policy, RunOutcome,
    Scenario,
};
use eacp_spec::{ExperimentSpec, FaultSpec, PolicySpec, SpecError};

/// Builds a fresh policy for one replication seed.
pub type PolicyFactory = Box<dyn Fn(u64) -> Box<dyn Policy> + Send + Sync>;
/// Builds a fresh fault stream for one replication seed.
pub type FaultFactory = Box<dyn Fn(u64) -> Box<dyn FaultProcess> + Send + Sync>;

/// How a job constructs its per-replication policy and fault stream.
enum Dispatch {
    /// Spec-built jobs: the concrete [`PolicyKind`]/[`FaultKind`] enums,
    /// built once per block and `reset(seed)` per replication — the
    /// zero-allocation, monomorphized hot path.
    Spec {
        policy: PolicySpec,
        faults: FaultSpec,
    },
    /// `from_parts` jobs: boxed factories called once per replication —
    /// the open escape hatch for custom policies, at trait-object speed.
    Factories {
        policy: PolicyFactory,
        faults: FaultFactory,
    },
}

/// A validated Monte-Carlo experiment: scenario, executor semantics,
/// replication plan and per-replication policy/fault construction.
pub struct Job {
    name: String,
    policy_name: String,
    scenario: Scenario,
    options: ExecutorOptions,
    replications: u64,
    base_seed: u64,
    dispatch: Dispatch,
    /// The canonical spec the job was built from, for schedulers that
    /// must ship the experiment elsewhere (the remote worker transport).
    /// `from_parts` jobs carry `None`: boxed factories have no spec form
    /// and therefore cannot leave the process.
    spec: Option<ExperimentSpec>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("policy_name", &self.policy_name)
            .field("replications", &self.replications)
            .field("base_seed", &self.base_seed)
            .field(
                "dispatch",
                &match self.dispatch {
                    Dispatch::Spec { .. } => "spec",
                    Dispatch::Factories { .. } => "factories",
                },
            )
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Builds a job from a declarative experiment description.
    ///
    /// Every component is validated up front, so later replication builds
    /// cannot fail inside worker threads.
    // audit:setup: job construction — validation and name clones happen
    // once per job, before any replication runs.
    pub fn from_spec(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        let scenario = spec.scenario.build()?;
        let options = spec.executor.build()?;
        if spec.mc.replications == 0 {
            return Err(SpecError::invalid("replications must be positive"));
        }
        // Validate once; replication loops can then expect success.
        let policy_name = spec.policy.build()?.name().to_owned();
        spec.policy.check_speed(scenario.dvs().len())?;
        spec.faults.build(0)?;
        Ok(Self {
            name: spec.name.clone(),
            policy_name,
            scenario,
            options,
            replications: spec.mc.replications,
            base_seed: spec.mc.seed,
            dispatch: Dispatch::Spec {
                policy: spec.policy,
                faults: spec.faults.clone(),
            },
            spec: Some(spec.clone()),
        })
    }

    /// Builds the same experiment as [`Job::from_spec`], but routed
    /// through the boxed-factory escape hatch: a fresh
    /// `Box<dyn Policy>` / `Box<dyn FaultProcess>` per replication,
    /// dispatched virtually, with no instance pooling.
    ///
    /// This is the trait-object path the pooled enums replaced. It exists
    /// as a reference: the golden bit-identity tests pin it and the pooled
    /// path to the same `Summary` for every scheme × fault process.
    ///
    /// # Errors
    ///
    /// Fails on the same invalid specs as [`Job::from_spec`].
    // audit:setup: the boxed escape hatch allocates by design — that is
    // the reference path the pooled enums are checked against.
    pub fn from_spec_boxed(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        let policy_spec = spec.policy;
        let fault_spec = spec.faults.clone();
        // Validate up front so the factories can expect success.
        policy_spec.build()?;
        fault_spec.build(0)?;
        let scenario = spec.scenario.build()?;
        policy_spec.check_speed(scenario.dvs().len())?;
        Self::from_parts(
            spec.name.clone(),
            scenario,
            spec.executor.build()?,
            spec.mc.replications,
            spec.mc.seed,
            // audit:allow(panic): both specs were just validated above.
            move |_seed| Box::new(policy_spec.build().expect("validated policy spec")),
            // audit:allow(panic): both specs were just validated above.
            move |seed| Box::new(fault_spec.build(seed).expect("validated fault spec")),
        )
    }

    /// Builds a job from explicit parts — the escape hatch for policies and
    /// fault processes that have no spec form (custom test policies,
    /// ablation prototypes).
    ///
    /// # Errors
    ///
    /// Fails when `replications == 0`.
    // audit:setup: job construction — the factories are boxed once here.
    pub fn from_parts(
        name: impl Into<String>,
        scenario: Scenario,
        options: ExecutorOptions,
        replications: u64,
        base_seed: u64,
        policy: impl Fn(u64) -> Box<dyn Policy> + Send + Sync + 'static,
        faults: impl Fn(u64) -> Box<dyn FaultProcess> + Send + Sync + 'static,
    ) -> Result<Self, SpecError> {
        if replications == 0 {
            return Err(SpecError::invalid("replications must be positive"));
        }
        let name = name.into();
        let policy = Box::new(policy);
        let policy_name = policy(base_seed).name().to_owned();
        Ok(Self {
            name,
            policy_name,
            scenario,
            options,
            replications,
            base_seed,
            dispatch: Dispatch::Factories {
                policy,
                faults: Box::new(faults),
            },
            spec: None,
        })
    }

    /// The experiment's name (from the spec, or the `from_parts` caller).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonical [`ExperimentSpec`] this job was built from, when it
    /// has one: `Some` for [`Job::from_spec`] jobs, `None` for the
    /// [`Job::from_parts`] / [`Job::from_spec_boxed`] escape hatches. A
    /// remote worker serializes this to ship the job across the wire.
    pub fn spec(&self) -> Option<&ExperimentSpec> {
        self.spec.as_ref()
    }

    /// The `Policy::name()` of the scheme under test.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Number of replications the job plans.
    pub fn replications(&self) -> u64 {
        self.replications
    }

    /// The base seed replication seeds derive from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The simulated world.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The executor semantics the job runs under.
    pub fn options(&self) -> ExecutorOptions {
        self.options
    }

    /// Whether every replication of this job is guaranteed to produce the
    /// same [`RunOutcome`] — the precondition of the closed-form serve
    /// tier ([`crate::serve_closed_form`]).
    ///
    /// True only for spec-built jobs whose fault stream does not depend on
    /// the replication seed: a deterministic fault schedule, or Poisson
    /// arrivals with `λ = 0` (no arrivals ever). Every spec-built policy
    /// is deterministic given the execution it observes (the documented
    /// [`PolicyKind::reset`] contract), so a seed-invariant fault stream
    /// makes the whole replication seed-invariant. Factory-built jobs may
    /// hide randomized custom policies, so they are never invariant.
    pub fn replication_invariant(&self) -> bool {
        match &self.dispatch {
            Dispatch::Spec { faults, .. } => match faults {
                FaultSpec::Poisson { lambda } => *lambda == 0.0,
                FaultSpec::Deterministic { .. } => true,
                _ => false,
            },
            Dispatch::Factories { .. } => false,
        }
    }

    /// Runs one replication, streaming its events (and the replication
    /// bracket) into `obs`.
    ///
    /// Routed through the same [`Replicator`] machinery the runners loop
    /// over, so a traced replay of one specific replication executes the
    /// exact code path — pooled scratch, monomorphized enum dispatch for
    /// spec jobs — that produced it inside a Monte-Carlo run.
    pub fn run_replication<O: Observer + ?Sized>(
        &self,
        replication: u64,
        obs: &mut O,
    ) -> RunOutcome {
        self.replicator().run_replication(replication, obs)
    }

    /// Creates the per-block replication driver: the executor, the pooled
    /// [`ExecutorScratch`], and — for spec-built jobs — one concrete
    /// policy/fault-process pair that is `reset(seed)` per replication.
    ///
    /// This is the zero-allocation entry point for running *many*
    /// replications: build the replicator once, then call
    /// [`Replicator::run_replication`] in a loop. (The convenience
    /// [`Job::run_replication`] builds a fresh one per call.) The
    /// `alloc-count` witness test pins the pooled loop allocation-free.
    // audit:setup: builds the pooled executor/scratch/policy/faults once
    // per block; replications then only reset them.
    pub fn replicator(&self) -> Replicator<'_> {
        let pooled = match &self.dispatch {
            Dispatch::Spec { policy, faults } => Some((
                // audit:allow(panic): `from_spec` validated both specs.
                policy.build().expect("validated policy spec"),
                // Arrivals are drawn in blocks through the pooled batch —
                // bit-identical to the scalar stream (see eacp-faults).
                // audit:allow(panic): `from_spec` validated both specs.
                BatchedFaults::new(faults.build(self.base_seed).expect("validated fault spec")),
            )),
            Dispatch::Factories { .. } => None,
        };
        Replicator {
            job: self,
            executor: Executor::new(&self.scenario).with_options(self.options),
            scratch: ExecutorScratch::new(),
            pooled,
        }
    }
}

/// Runs a job's replications one at a time, reusing everything reusable:
/// the executor, the engine's [`ExecutorScratch`], and (for spec-built
/// jobs) the policy and fault-process instances themselves.
///
/// On the pooled path a replication performs **no heap allocation**: the
/// policy and fault process are `reset(seed)` in place — the reproducible
/// equivalent of rebuilding them — and the engine reuses the scratch's
/// store stack and energy meter. A golden integration test pins this path
/// bit-identical to the boxed-factory path for every scheme × fault
/// process.
pub struct Replicator<'j> {
    job: &'j Job,
    executor: Executor<'j>,
    scratch: ExecutorScratch,
    pooled: Option<(PolicyKind, BatchedFaults)>,
}

impl Replicator<'_> {
    /// Runs one replication under the workspace seeding contract,
    /// streaming the replication bracket and engine events into `obs`.
    pub fn run_replication<O: Observer + ?Sized>(
        &mut self,
        replication: u64,
        obs: &mut O,
    ) -> RunOutcome {
        let seed = replication_seed(self.job.base_seed, replication);
        obs.on_replication_start(replication, seed);
        let out = match (&mut self.pooled, &self.job.dispatch) {
            (Some((policy, faults)), _) => {
                policy.reset(seed);
                faults.reset(seed);
                self.executor
                    .run_with_scratch(&mut self.scratch, policy, faults, obs)
            }
            (None, Dispatch::Factories { policy, faults }) => {
                let mut policy = policy(seed);
                let mut faults = faults(seed);
                self.executor
                    .run_with_scratch(&mut self.scratch, &mut *policy, &mut *faults, obs)
            }
            (None, Dispatch::Spec { .. }) => unreachable!("spec jobs always pool"),
        };
        obs.on_replication_end(replication, &out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_faults::DeterministicFaults;
    use eacp_sim::{NoopObserver, TraceRecorder};
    use eacp_spec::McSpec;

    fn small_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: 50,
            seed: 9,
            threads: 0,
        };
        spec
    }

    #[test]
    fn from_spec_validates_up_front() {
        let mut bad = small_spec();
        bad.mc.replications = 0;
        assert!(Job::from_spec(&bad).is_err());

        let job = Job::from_spec(&small_spec()).unwrap();
        assert_eq!(job.replications(), 50);
        assert_eq!(job.policy_name(), "A_D_S");
        assert_eq!(job.name(), "paper-nominal");
    }

    #[test]
    fn replication_is_seeded_from_the_contract() {
        struct SeedProbe {
            seen: Vec<(u64, u64)>,
        }
        impl Observer for SeedProbe {
            fn on_replication_start(&mut self, rep: u64, seed: u64) {
                self.seen.push((rep, seed));
            }
        }
        let job = Job::from_spec(&small_spec()).unwrap();
        let mut probe = SeedProbe { seen: vec![] };
        job.run_replication(7, &mut probe);
        assert_eq!(probe.seen, vec![(7, replication_seed(9, 7))]);
    }

    #[test]
    fn run_replication_is_reproducible_and_traceable() {
        let job = Job::from_spec(&small_spec()).unwrap();
        let a = job.run_replication(3, &mut NoopObserver);
        let mut rec = TraceRecorder::new();
        let b = job.run_replication(3, &mut rec);
        assert_eq!(a, b, "observation must not change the outcome");
        assert!(!rec.is_empty());
    }

    #[test]
    fn from_parts_runs_custom_policies() {
        use eacp_sim::{CheckpointKind, Directive, PlanContext};
        struct Fixed;
        impl Policy for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
                Directive::run(0, 100.0, CheckpointKind::CompareStore)
            }
        }
        let scenario = Scenario::new(
            eacp_sim::TaskSpec::new(1000.0, 2000.0),
            eacp_sim::CheckpointCosts::paper_scp_variant(),
            eacp_spec::DvsSpec::PaperDefault.build().unwrap(),
        );
        let job = Job::from_parts(
            "custom",
            scenario,
            ExecutorOptions::default(),
            10,
            1,
            |_seed| Box::new(Fixed),
            |_seed| Box::new(DeterministicFaults::none()),
        )
        .unwrap();
        assert_eq!(job.policy_name(), "fixed");
        let out = job.run_replication(0, &mut NoopObserver);
        assert!(out.timely);
    }
}
