//! Monte-Carlo over the EDF executive: the [`ExecutiveJob`] workload and
//! its mergeable [`ExecutiveSummary`] accumulator.
//!
//! The paper's adaptive schemes are evaluated on periodic task sets, but a
//! single executive horizon is one sample — feedback-style schemes and
//! soft-deadline miss-cost comparisons need miss-ratio/energy
//! *distributions*. This module makes the executive a replication unit:
//! one replication is one seeded hyperperiod horizon
//! (`replication_seed(spec.seed, i)` seeds the fault stream of horizon
//! `i`), run through the pooled zero-allocation core
//! ([`eacp_rtsched::executive::run_executive_pooled`]) and absorbed into
//! an [`ExecutiveSummary`].
//!
//! [`ExecutiveSummary`] obeys the same partition/associativity/identity
//! merge laws as [`eacp_sim::Summary`] (counters exact, float moments to
//! rounding; see `tests/executive_merge_properties.rs`), so the canonical
//! fixed-block reduction of [`crate::workload`] applies unchanged: N
//! seeded horizons reduce bit-identically across [`crate::LocalRunner`]
//! thread counts and [`crate::QueueRunner`] worker counts.
//!
//! Persistence is lossless: [`ExecutiveSummary`] serializes its raw
//! accumulator state ([`OnlineStats::raw_parts`]), so a result-store cache
//! hit is byte-identical to recomputation.

use crate::workload::{Replicate, Workload};
use eacp_core::policies::PolicyKind;
use eacp_energy::DvsConfig;
use eacp_faults::BatchedFaults;
use eacp_numerics::OnlineStats;
use eacp_rtsched::executive::{
    run_executive_pooled, scenario_template, ExecutiveParams, ExecutiveScratch, JobRecord,
    PolicyProvider,
};
use eacp_rtsched::TaskSet;
use eacp_sim::{
    replication_seed, CheckpointCosts, ExecutorOptions, NoopObserver, Policy, Scenario,
};
use eacp_spec::{
    CheckpointTotals, ExecutiveSpec, FromJson, Json, JsonReader, JsonWriter, SpecError, ToJson,
};

/// Per-task aggregates over every job of every horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAggregate {
    /// Jobs dispatched (including deadline-infeasible zero-runs).
    pub jobs: u64,
    /// Jobs that missed their absolute deadline.
    pub deadline_misses: u64,
    /// Faults observed inside this task's jobs.
    pub faults: u64,
    /// Rollbacks performed by this task's jobs.
    pub rollbacks: u64,
    /// Total energy consumed by this task's jobs.
    pub energy: f64,
    /// Worst observed response time (finish − release).
    pub worst_response: f64,
}

impl TaskAggregate {
    fn empty() -> Self {
        Self {
            jobs: 0,
            deadline_misses: 0,
            faults: 0,
            rollbacks: 0,
            energy: 0.0,
            worst_response: 0.0,
        }
    }

    fn merge(&mut self, other: &Self) {
        self.jobs += other.jobs;
        self.deadline_misses += other.deadline_misses;
        self.faults += other.faults;
        self.rollbacks += other.rollbacks;
        self.energy += other.energy;
        self.worst_response = self.worst_response.max(other.worst_response);
    }
}

/// Aggregated executive Monte-Carlo results: the task-set analogue of
/// [`eacp_sim::Summary`].
///
/// One *horizon* (a full `hyperperiods × hyperperiod` simulation) is the
/// replication unit. Counters and per-task aggregates accumulate over
/// every job of every horizon; the [`OnlineStats`] fields hold the
/// *per-horizon* distributions the single-run executive cannot report —
/// miss ratio, total energy, fault and rollback counts per horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveSummary {
    /// Number of horizons absorbed.
    pub horizons: u64,
    /// Jobs dispatched across all horizons.
    pub jobs: u64,
    /// Deadline misses across all horizons.
    pub deadline_misses: u64,
    /// Faults across all horizons.
    pub faults: u64,
    /// Rollbacks across all horizons.
    pub rollbacks: u64,
    /// Checkpoint operations across all horizons.
    pub checkpoints: CheckpointTotals,
    /// Total energy across all horizons.
    pub total_energy: f64,
    /// Per-horizon deadline-miss ratio distribution.
    pub miss_ratio: OnlineStats,
    /// Per-horizon total-energy distribution.
    pub energy: OnlineStats,
    /// Per-horizon fault-count distribution.
    pub horizon_faults: OnlineStats,
    /// Per-horizon rollback-count distribution.
    pub horizon_rollbacks: OnlineStats,
    /// Per-task aggregates (task order is the spec's task order).
    pub per_task: Vec<TaskAggregate>,
}

impl ExecutiveSummary {
    /// An all-zero summary over `task_count` tasks: the identity element
    /// of [`ExecutiveSummary::merge`].
    // audit:setup: allocates the per-task table once per accumulator;
    // horizons only update it in place.
    pub fn empty(task_count: usize) -> Self {
        let mut per_task = Vec::with_capacity(task_count);
        per_task.resize_with(task_count, TaskAggregate::empty);
        Self {
            horizons: 0,
            jobs: 0,
            deadline_misses: 0,
            faults: 0,
            rollbacks: 0,
            checkpoints: CheckpointTotals::default(),
            total_energy: 0.0,
            miss_ratio: OnlineStats::new(),
            energy: OnlineStats::new(),
            horizon_faults: OnlineStats::new(),
            horizon_rollbacks: OnlineStats::new(),
            per_task: Vec::new(),
        }
        .with_tasks(per_task)
    }

    fn with_tasks(mut self, per_task: Vec<TaskAggregate>) -> Self {
        self.per_task = per_task;
        self
    }

    /// Folds one horizon's job log into the aggregate.
    ///
    /// The hot path of executive Monte-Carlo: touches only preallocated
    /// state, no heap allocation (the `alloc-count` witness pins this).
    ///
    /// # Panics
    ///
    /// Panics when a job record's task index is outside the accumulator's
    /// task table (a workload arity bug, never an input condition).
    pub fn absorb_horizon(&mut self, jobs: &[JobRecord]) {
        self.horizons += 1;
        let mut h_misses = 0u64;
        let mut h_energy = 0.0f64;
        let mut h_faults = 0u64;
        let mut h_rollbacks = 0u64;
        for job in jobs {
            let t = &mut self.per_task[job.task];
            t.jobs += 1;
            if !job.timely {
                t.deadline_misses += 1;
                h_misses += 1;
            }
            t.faults += u64::from(job.faults);
            t.rollbacks += u64::from(job.rollbacks);
            t.energy += job.energy;
            t.worst_response = t.worst_response.max(job.finished - job.release);
            self.checkpoints.add(&CheckpointTotals {
                store: u64::from(job.store_checkpoints),
                compare: u64::from(job.compare_checkpoints),
                compare_store: u64::from(job.compare_store_checkpoints),
            });
            h_energy += job.energy;
            h_faults += u64::from(job.faults);
            h_rollbacks += u64::from(job.rollbacks);
        }
        self.jobs += jobs.len() as u64;
        self.deadline_misses += h_misses;
        self.faults += h_faults;
        self.rollbacks += h_rollbacks;
        self.total_energy += h_energy;
        self.miss_ratio.push(if jobs.is_empty() {
            0.0
        } else {
            h_misses as f64 / jobs.len() as f64
        });
        self.energy.push(h_energy);
        self.horizon_faults.push(h_faults as f64);
        self.horizon_rollbacks.push(h_rollbacks as f64);
    }

    /// Merges another partial aggregate into this one (parallel / sharded
    /// reduction). Same contract as [`eacp_sim::Summary::merge`]: counts,
    /// minima and maxima are exactly order-invariant; float moments are
    /// order-invariant up to last-ulp rounding, so drivers merge partials
    /// in the canonical ascending block order.
    ///
    /// # Panics
    ///
    /// Panics when the two summaries aggregate different task counts.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.per_task.len() == other.per_task.len(),
            "cannot merge executive summaries over different task sets \
             ({} vs {} tasks)",
            self.per_task.len(),
            other.per_task.len()
        );
        self.horizons += other.horizons;
        self.jobs += other.jobs;
        self.deadline_misses += other.deadline_misses;
        self.faults += other.faults;
        self.rollbacks += other.rollbacks;
        self.checkpoints.add(&other.checkpoints);
        self.total_energy += other.total_energy;
        self.miss_ratio.merge(&other.miss_ratio);
        self.energy.merge(&other.energy);
        self.horizon_faults.merge(&other.horizon_faults);
        self.horizon_rollbacks.merge(&other.horizon_rollbacks);
        for (t, o) in self.per_task.iter_mut().zip(&other.per_task) {
            t.merge(o);
        }
    }

    /// Mean per-horizon deadline-miss ratio; `NaN` when empty.
    pub fn mean_miss_ratio(&self) -> f64 {
        self.miss_ratio.mean()
    }

    /// Mean per-horizon energy; `NaN` when empty.
    pub fn mean_energy(&self) -> f64 {
        self.energy.mean()
    }
}

impl ToJson for TaskAggregate {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("jobs", &self.jobs);
            w.field("deadline_misses", &self.deadline_misses);
            w.field("faults", &self.faults);
            w.field("rollbacks", &self.rollbacks);
            w.field("energy", &self.energy);
            w.field("worst_response", &self.worst_response);
        });
    }
}

impl FromJson for TaskAggregate {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        JsonReader::tree(json).read()
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SpecError> {
        const FIELDS: [&str; 6] = [
            "jobs",
            "deadline_misses",
            "faults",
            "rollbacks",
            "energy",
            "worst_response",
        ];
        let mut t = Self::empty();
        r.object(&FIELDS, &mut |r, i| {
            match i {
                0 => t.jobs = r.u64()?,
                1 => t.deadline_misses = r.u64()?,
                2 => t.faults = r.u64()?,
                3 => t.rollbacks = r.u64()?,
                4 => t.energy = r.f64()?,
                _ => t.worst_response = r.f64()?,
            }
            Ok(())
        })
        .check()?;
        Ok(t)
    }
}

impl ToJson for ExecutiveSummary {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("horizons", &self.horizons);
            w.field("jobs", &self.jobs);
            w.field("deadline_misses", &self.deadline_misses);
            w.field("faults", &self.faults);
            w.field("rollbacks", &self.rollbacks);
            w.field("checkpoints", &self.checkpoints);
            w.field("total_energy", &self.total_energy);
            // Lossless raw accumulator state, as `OnlineStats` writes it.
            w.field("miss_ratio", &self.miss_ratio);
            w.field("energy", &self.energy);
            w.field("horizon_faults", &self.horizon_faults);
            w.field("horizon_rollbacks", &self.horizon_rollbacks);
            w.field("tasks", &self.per_task);
        });
    }
}

impl FromJson for ExecutiveSummary {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        JsonReader::tree(json).read()
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SpecError> {
        const FIELDS: [&str; 12] = [
            "horizons",
            "jobs",
            "deadline_misses",
            "faults",
            "rollbacks",
            "checkpoints",
            "total_energy",
            "miss_ratio",
            "energy",
            "horizon_faults",
            "horizon_rollbacks",
            "tasks",
        ];
        let mut s = Self::empty(0);
        r.object(&FIELDS, &mut |r, i| {
            match i {
                0 => s.horizons = r.u64()?,
                1 => s.jobs = r.u64()?,
                2 => s.deadline_misses = r.u64()?,
                3 => s.faults = r.u64()?,
                4 => s.rollbacks = r.u64()?,
                5 => s.checkpoints = CheckpointTotals::read_json(r)?,
                6 => s.total_energy = r.f64()?,
                7 => s.miss_ratio = OnlineStats::read_json(r)?,
                8 => s.energy = OnlineStats::read_json(r)?,
                9 => s.horizon_faults = OnlineStats::read_json(r)?,
                10 => s.horizon_rollbacks = OnlineStats::read_json(r)?,
                _ => s.per_task = r.list(TaskAggregate::read_json)?,
            }
            Ok(())
        })
        .check()?;
        Ok(s)
    }
}

/// A validated executive Monte-Carlo experiment: the task-set analogue of
/// [`crate::Job`]. One replication is one seeded hyperperiod horizon.
pub struct ExecutiveJob {
    spec: ExecutiveSpec,
    set: TaskSet,
    costs: CheckpointCosts,
    dvs: DvsConfig,
    options: ExecutorOptions,
    replications: u64,
    base_seed: u64,
}

impl std::fmt::Debug for ExecutiveJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutiveJob")
            .field("name", &self.spec.name)
            .field("tasks", &self.set.len())
            .field("replications", &self.replications)
            .field("base_seed", &self.base_seed)
            .finish_non_exhaustive()
    }
}

impl ExecutiveJob {
    /// Builds a job from a declarative executive description. The horizon
    /// count comes from the spec's `mc` section
    /// ([`ExecutiveSpec::mc_or_default`]); every component is validated up
    /// front, so later horizon builds cannot fail inside worker threads.
    ///
    /// # Errors
    ///
    /// Fails on any spec validation error.
    // audit:setup: job construction — validation and the runtime builds
    // happen once per job, before any horizon runs.
    pub fn from_spec(spec: &ExecutiveSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let set = spec.tasks.build()?;
        let mc = spec.mc_or_default();
        mc.validate()?;
        Ok(Self {
            spec: spec.clone(),
            set,
            costs: spec.costs.build()?,
            dvs: spec.dvs.build()?,
            options: ExecutorOptions::default(),
            replications: mc.replications,
            base_seed: spec.seed,
        })
    }

    /// The validated spec the job was built from.
    pub fn spec(&self) -> &ExecutiveSpec {
        &self.spec
    }

    /// The experiment's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Number of tasks in the set.
    pub fn task_count(&self) -> usize {
        self.set.len()
    }

    /// Number of horizons the job plans.
    pub fn replications(&self) -> u64 {
        self.replications
    }

    /// The base seed horizon seeds derive from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }
}

/// Pooled per-task policies: one [`PolicyKind`] per task, reset in place
/// before each job — the executive counterpart of the single-task pooled
/// replicator path (no `Box<dyn Policy>` per job).
struct PooledPolicies {
    policies: Vec<PolicyKind>,
}

impl PolicyProvider for PooledPolicies {
    fn policy_for_job(&mut self, task: usize) -> &mut dyn Policy {
        let policy = &mut self.policies[task];
        // `PolicyKind::reset` restores the just-constructed state, so the
        // pooled instance is indistinguishable from the boxed-fresh path.
        policy.reset(0);
        policy
    }
}

/// The pooled executive horizon driver: everything reusable is built once
/// per block — the [`ExecutiveScratch`], the scenario template, one
/// batched fault stream and one [`PolicyKind`] per task — then each
/// replication resets the fault stream to its derived seed and runs one
/// horizon through [`run_executive_pooled`].
pub struct ExecutiveReplicator<'w> {
    job: &'w ExecutiveJob,
    params: ExecutiveParams<'w>,
    scenario: Scenario,
    scratch: ExecutiveScratch,
    faults: BatchedFaults,
    policies: PooledPolicies,
}

impl Replicate for ExecutiveReplicator<'_> {
    type Acc = ExecutiveSummary;

    fn run_one(&mut self, replication: u64, acc: &mut ExecutiveSummary) {
        let seed = replication_seed(self.job.base_seed, replication);
        self.faults.reset(seed);
        run_executive_pooled(
            &self.params,
            &mut self.scenario,
            &mut self.faults,
            &mut self.policies,
            &mut NoopObserver,
            &mut self.scratch,
        );
        acc.absorb_horizon(self.scratch.jobs());
    }
}

impl Workload for ExecutiveJob {
    type Acc = ExecutiveSummary;
    type Rep<'w> = ExecutiveReplicator<'w>;

    fn replications(&self) -> u64 {
        self.replications
    }

    fn empty_acc(&self) -> ExecutiveSummary {
        ExecutiveSummary::empty(self.set.len())
    }

    fn merge_acc(into: &mut ExecutiveSummary, part: &ExecutiveSummary) {
        into.merge(part);
    }

    // audit:setup: builds the pooled scratch, scenario template, fault
    // stream and per-task policies once per block; horizons then only
    // reset them.
    fn replicator(&self) -> ExecutiveReplicator<'_> {
        let params = ExecutiveParams {
            set: &self.set,
            costs: self.costs,
            dvs: self.dvs.clone(),
            hyperperiods: self.spec.hyperperiods,
            options: self.options,
        };
        let scenario = scenario_template(&params);
        let policies = PooledPolicies {
            policies: (0..self.set.len())
                .map(|task| {
                    // `from_spec` validated the assignment (arity and
                    // every policy build).
                    let policy = self.spec.policy.for_task(task).build();
                    // audit:allow(panic): checked by `from_spec` above.
                    policy.expect("validated policy spec")
                })
                .collect(),
        };
        let faults = self.spec.faults.build(self.base_seed);
        ExecutiveReplicator {
            job: self,
            params,
            scenario,
            scratch: ExecutiveScratch::new(),
            // audit:allow(panic): `from_spec` validated the fault spec.
            faults: BatchedFaults::new(faults.expect("validated fault spec")),
            policies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_workload_local, run_workload_queued};
    use eacp_spec::{ExecutiveMcSpec, FaultSpec, PolicyAssignment, PolicySpec, TaskSetSpec};

    fn mc_spec(replications: u64) -> ExecutiveSpec {
        let mut spec = ExecutiveSpec::new(
            "exec-mc-test",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        spec.faults = FaultSpec::Poisson { lambda: 8e-4 };
        spec.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 8e-4, 2, 0).unwrap());
        spec.hyperperiods = 2;
        spec.seed = 77;
        spec.mc = Some(ExecutiveMcSpec {
            replications,
            threads: 0,
            queue: None,
        });
        spec
    }

    #[test]
    fn executive_job_validates_and_reports_shape() {
        let job = ExecutiveJob::from_spec(&mc_spec(16)).unwrap();
        assert_eq!(job.replications(), 16);
        assert_eq!(job.task_count(), 2);

        let mut bad = mc_spec(16);
        bad.tasks.tasks.clear();
        assert!(ExecutiveJob::from_spec(&bad).is_err());
    }

    #[test]
    fn horizons_are_independent_of_thread_and_worker_count() {
        let job = ExecutiveJob::from_spec(&mc_spec(24)).unwrap();
        let reference = run_workload_local(&job, 1, 0);
        assert_eq!(reference.horizons, 24);
        assert!(reference.jobs >= 24 * 6, "2 hyperperiods release 6 jobs");
        for threads in [2usize, 5] {
            assert_eq!(
                run_workload_local(&job, threads, 0),
                reference,
                "threads = {threads}"
            );
        }
        for workers in [1usize, 3] {
            let queued =
                run_workload_queued(&job, workers, 3, 0, &crate::queue::NoopQueueObserver).unwrap();
            assert_eq!(queued, reference, "workers = {workers}");
        }
    }

    #[test]
    fn summary_serialization_is_lossless() {
        let job = ExecutiveJob::from_spec(&mc_spec(8)).unwrap();
        let summary = run_workload_local(&job, 1, 0);
        let text = summary.to_json().pretty();
        let back = ExecutiveSummary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, summary);
        // Byte-identical re-serialization (what the store's verify needs).
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn empty_summary_is_the_merge_identity() {
        let job = ExecutiveJob::from_spec(&mc_spec(4)).unwrap();
        let summary = run_workload_local(&job, 1, 0);
        let mut left = ExecutiveSummary::empty(2);
        left.merge(&summary);
        assert_eq!(left, summary);
        let mut right = summary.clone();
        right.merge(&ExecutiveSummary::empty(2));
        assert_eq!(right, summary);
    }

    #[test]
    #[should_panic(expected = "different task sets")]
    fn merging_mismatched_task_arities_panics() {
        let mut a = ExecutiveSummary::empty(2);
        let b = ExecutiveSummary::empty(3);
        a.merge(&b);
    }
}
