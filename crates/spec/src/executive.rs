//! Spec layer for periodic task sets and the EDF executive.
//!
//! The paper analyzes one task instance; `eacp-rtsched` models the
//! periodic substrate around it (after the paper's Ref.\[2\]). This module
//! gives that substrate the same declarative treatment the single-task
//! experiments already have:
//!
//! * [`PeriodicTaskSpec`] / [`TaskSetSpec`] — a serializable periodic
//!   workload (name, WCET cycles, period, deadline), with all the
//!   panicking invariants of [`eacp_rtsched::PeriodicTask`] reported as
//!   [`SpecError`]s instead;
//! * [`PolicyAssignment`] — one shared [`PolicySpec`] for every task, or
//!   an explicit per-task list;
//! * [`ExecutiveSpec`] — everything `eacp feasibility` and
//!   `eacp executive` need: the task set, checkpoint costs, DVS table,
//!   the fault stream, policy assignment, the k-fault-tolerance target
//!   and analysis speed for feasibility, and the hyperperiod count + seed
//!   for the executive run;
//! * [`ExecutiveRunReport`] — the serializable result of an executive
//!   run, shaped like [`crate::RunReport`] (`spec` + `policy` + `summary`)
//!   with per-task aggregates.
//!
//! The reproducibility contract matches the Monte-Carlo layer: the same
//! `ExecutiveSpec` (seed included) always produces a byte-identical
//! report. Execution lives in `eacp-exec` (`eacp_exec::run_executive`).

use crate::error::SpecError;
use crate::json::{FromJson, Json, JsonReader, JsonWriter, ToJson};
use crate::model::{CostsSpec, DvsSpec, FaultSpec, PolicySpec, QueueSpec};
use eacp_rtsched::{PeriodicTask, TaskSet};

/// One periodic task in serializable form.
///
/// JSON shape: `{"name": ..., "wcet": ..., "period": ..., "deadline": ...}`
/// with `deadline` defaulting to `period` (implicit deadlines).
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicTaskSpec {
    /// Human-readable name used in reports.
    pub name: String,
    /// Worst-case work per job, in cycles at the minimum speed.
    pub wcet: f64,
    /// Release period (normalized time units).
    pub period: u64,
    /// Relative deadline (must satisfy `0 < deadline <= period`).
    pub deadline: u64,
}

impl PeriodicTaskSpec {
    /// An implicit-deadline task (`deadline = period`).
    pub fn new(name: impl Into<String>, wcet: f64, period: u64) -> Self {
        Self {
            name: name.into(),
            wcet,
            period,
            deadline: period,
        }
    }

    /// Builds the runtime [`PeriodicTask`], validating every invariant the
    /// runtime constructor would panic on.
    pub fn build(&self) -> Result<PeriodicTask, SpecError> {
        if !(self.wcet > 0.0 && self.wcet.is_finite()) {
            return Err(SpecError::invalid(format!(
                "task {:?}: wcet must be positive and finite, got {}",
                self.name, self.wcet
            )));
        }
        if self.period == 0 {
            return Err(SpecError::invalid(format!(
                "task {:?}: period must be positive",
                self.name
            )));
        }
        if self.deadline == 0 || self.deadline > self.period {
            return Err(SpecError::invalid(format!(
                "task {:?}: deadline must be in (0, period], got {} (period {})",
                self.name, self.deadline, self.period
            )));
        }
        Ok(PeriodicTask::new(
            self.name.clone(),
            self.wcet,
            self.period,
            self.deadline,
        ))
    }
}

impl ToJson for PeriodicTaskSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("name", &self.name);
            w.field("wcet", &self.wcet);
            w.field("period", &self.period);
            w.field("deadline", &self.deadline);
        });
    }
}

impl FromJson for PeriodicTaskSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let period = json.req("period")?.as_u64()?;
        Ok(Self {
            name: json.req("name")?.as_str()?.to_owned(),
            wcet: json.req("wcet")?.as_f64()?,
            period,
            deadline: json.get("deadline").map_or(Ok(period), Json::as_u64)?,
        })
    }
}

/// A serializable periodic task set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSetSpec {
    /// The tasks, in declaration order (order is part of the contract:
    /// task indices in reports refer to it).
    pub tasks: Vec<PeriodicTaskSpec>,
}

impl TaskSetSpec {
    /// A task set from implicit-deadline `(name, wcet, period)` triples.
    pub fn implicit<N: Into<String>>(tasks: impl IntoIterator<Item = (N, f64, u64)>) -> Self {
        Self {
            tasks: tasks
                .into_iter()
                .map(|(n, w, p)| PeriodicTaskSpec::new(n, w, p))
                .collect(),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the spec holds no tasks (never valid to build).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Builds the runtime [`TaskSet`].
    ///
    /// Rejects empty sets and any task with a non-positive WCET, a zero
    /// period, or a deadline outside `(0, period]`.
    pub fn build(&self) -> Result<TaskSet, SpecError> {
        if self.tasks.is_empty() {
            return Err(SpecError::invalid(
                "a task set needs at least one task (tasks is empty)",
            ));
        }
        let tasks = self
            .tasks
            .iter()
            .map(PeriodicTaskSpec::build)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TaskSet::new(tasks))
    }
}

impl ToJson for TaskSetSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.tasks.write_json(w);
    }
}

impl FromJson for TaskSetSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let tasks = json
            .as_array()?
            .iter()
            .map(PeriodicTaskSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { tasks })
    }
}

/// How checkpointing policies map onto the task set.
///
/// JSON shape: a single policy object (`{"kind": "a_d_s", ...}`) is the
/// shared assignment; an array of policy objects assigns one per task (in
/// task order, arity-checked at validation).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyAssignment {
    /// Every job of every task runs the same scheme.
    Shared(PolicySpec),
    /// Task `i` runs `policies[i]`.
    PerTask(Vec<PolicySpec>),
}

impl PolicyAssignment {
    /// The policy for one task index.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index for a per-task assignment (the
    /// arity is checked by [`PolicyAssignment::validate`]).
    pub fn for_task(&self, index: usize) -> &PolicySpec {
        match self {
            PolicyAssignment::Shared(p) => p,
            PolicyAssignment::PerTask(ps) => &ps[index],
        }
    }

    /// Replaces every policy in the assignment, shared or per-task, with
    /// `f` of itself.
    pub fn update_all(&mut self, f: impl Fn(&PolicySpec) -> PolicySpec) {
        match self {
            PolicyAssignment::Shared(p) => *p = f(p),
            PolicyAssignment::PerTask(ps) => {
                for p in ps.iter_mut() {
                    *p = f(p);
                }
            }
        }
    }

    /// The per-task `Policy::name()` list (one entry per task).
    pub fn policy_names(&self, task_count: usize) -> Vec<String> {
        (0..task_count)
            .map(|i| self.for_task(i).policy_name().to_owned())
            .collect()
    }

    /// Validates arity and every contained policy, including pinned
    /// speeds against a DVS table of `levels` levels.
    pub fn validate(&self, task_count: usize, levels: usize) -> Result<(), SpecError> {
        match self {
            PolicyAssignment::Shared(p) => {
                p.build()?;
                p.check_speed(levels)?;
            }
            PolicyAssignment::PerTask(ps) => {
                if ps.len() != task_count {
                    return Err(SpecError::invalid(format!(
                        "per-task policy list has {} entries for {} tasks",
                        ps.len(),
                        task_count
                    )));
                }
                for p in ps {
                    p.build()?;
                    p.check_speed(levels)?;
                }
            }
        }
        Ok(())
    }
}

impl ToJson for PolicyAssignment {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            PolicyAssignment::Shared(p) => p.write_json(w),
            PolicyAssignment::PerTask(ps) => ps.write_json(w),
        }
    }
}

impl FromJson for PolicyAssignment {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        match json {
            Json::Array(items) => Ok(PolicyAssignment::PerTask(
                items
                    .iter()
                    .map(PolicySpec::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            other => Ok(PolicyAssignment::Shared(PolicySpec::from_json(other)?)),
        }
    }
}

/// Monte-Carlo parameters of an executive run: how many seeded horizons
/// to simulate and how to execute them. The executive analogue of
/// [`crate::McSpec`] — the seed lives on the enclosing [`ExecutiveSpec`],
/// and horizon `i` derives its stream from `replication_seed(seed, i)`.
///
/// JSON shape: `{"replications": ..., "threads": ..., "queue": {...}}`
/// with every field optional (`queue` is emitted only when present, so
/// locally-run documents stay byte-stable).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveMcSpec {
    /// Number of independently seeded horizons.
    pub replications: u64,
    /// Worker threads for the local runner (0 = all available cores).
    pub threads: usize,
    /// Run through the work queue instead of the local runner.
    pub queue: Option<QueueSpec>,
}

impl Default for ExecutiveMcSpec {
    fn default() -> Self {
        Self {
            replications: 200,
            threads: 0,
            queue: None,
        }
    }
}

impl ExecutiveMcSpec {
    /// Validates the Monte-Carlo parameters.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.replications == 0 {
            return Err(SpecError::invalid(
                "mc.replications must be at least 1 (a Monte-Carlo run needs horizons)",
            ));
        }
        if let Some(q) = &self.queue {
            q.validate()?;
            // The remote protocol ships single-task jobs only; a fleet
            // section here would otherwise be silently run in-process.
            if !q.endpoints.is_empty() {
                return Err(SpecError::invalid(
                    "mc.queue.endpoints: remote endpoints are not supported for \
                     executive workloads (executive horizons run in-process)",
                ));
            }
        }
        Ok(())
    }
}

impl ToJson for ExecutiveMcSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("replications", &self.replications);
            w.field("threads", &self.threads);
            if let Some(q) = &self.queue {
                w.field("queue", q);
            }
        });
    }
}

impl FromJson for ExecutiveMcSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let defaults = Self::default();
        Ok(Self {
            replications: json
                .get("replications")
                .map_or(Ok(defaults.replications), Json::as_u64)?,
            threads: json
                .get("threads")
                .map_or(Ok(defaults.threads), Json::as_usize)?,
            queue: match json.get("queue") {
                None | Some(Json::Null) => None,
                Some(q) => Some(QueueSpec::from_json(q)?),
            },
        })
    }
}

/// Everything needed to analyze and run a periodic workload: the
/// feasibility inputs (`k`, `speed`) and the executive inputs
/// (`faults`, `policy`, `hyperperiods`, `seed`) around one [`TaskSetSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveSpec {
    /// Human-readable workload name.
    pub name: String,
    /// The periodic task set.
    pub tasks: TaskSetSpec,
    /// Checkpoint costs shared by all tasks.
    pub costs: CostsSpec,
    /// DVS level table shared by all tasks.
    pub dvs: DvsSpec,
    /// The global wall-clock fault stream the executive injects (shared
    /// across tasks: each job sees the arrivals inside its own window).
    pub faults: FaultSpec,
    /// Checkpointing policy per task (shared or per-task).
    pub policy: PolicyAssignment,
    /// Fault-tolerance target for the k-fault WCET inflation used by the
    /// feasibility tests.
    pub k: u32,
    /// Processor speed (frequency) the feasibility analysis is quoted at.
    pub speed: f64,
    /// Number of hyperperiods the executive simulates.
    pub hyperperiods: u32,
    /// RNG seed for the fault stream (base seed of the per-horizon
    /// derivation when `mc` is present).
    pub seed: u64,
    /// Monte-Carlo parameters for `eacp executive --mc`; `None` means a
    /// single horizon (the original executive run).
    pub mc: Option<ExecutiveMcSpec>,
}

impl ExecutiveSpec {
    /// Default feasibility/executive parameters around a task set: paper
    /// SCP costs, paper DVS table, a fault-free stream, the shared `A_D_S`
    /// policy at `k = 2`, one hyperperiod, seed 2006.
    pub fn new(name: impl Into<String>, tasks: TaskSetSpec) -> Self {
        let k = 2;
        Self {
            name: name.into(),
            tasks,
            costs: CostsSpec::PaperScp,
            dvs: DvsSpec::PaperDefault,
            faults: FaultSpec::Poisson { lambda: 0.0 },
            policy: PolicyAssignment::Shared(default_policy(0.0, k)),
            k,
            speed: 1.0,
            hyperperiods: 1,
            seed: 2006,
            mc: None,
        }
    }

    /// Parses a spec from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Reads a spec file.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json_str(&text)
    }

    /// Writes the spec as a JSON file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SpecError> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))
    }

    /// Validates every component by building it once.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.tasks.build()?;
        self.costs.build()?;
        let dvs = self.dvs.build()?;
        self.faults.build(0)?;
        self.policy.validate(self.tasks.len(), dvs.len())?;
        if !(self.speed > 0.0 && self.speed.is_finite()) {
            return Err(SpecError::invalid(format!(
                "speed must be positive and finite, got {}",
                self.speed
            )));
        }
        if self.hyperperiods == 0 {
            return Err(SpecError::invalid("hyperperiods must be at least 1"));
        }
        if let Some(mc) = &self.mc {
            mc.validate()?;
        }
        Ok(())
    }

    /// The Monte-Carlo parameters, defaulted when the spec carries none —
    /// what `eacp executive --mc` runs with before CLI overrides.
    pub fn mc_or_default(&self) -> ExecutiveMcSpec {
        self.mc.clone().unwrap_or_default()
    }
}

/// The default shared scheme: the paper's proposed `A_D_S`.
fn default_policy(lambda: f64, k: u32) -> PolicySpec {
    // audit:allow(panic): "a_d_s" is a literal member of `PolicySpec::TAGS`.
    PolicySpec::from_tag("a_d_s", lambda, k, 0).expect("a_d_s is a known tag")
}

impl ToJson for ExecutiveSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("name", &self.name);
            w.field("tasks", &self.tasks);
            w.field("costs", &self.costs);
            w.field("dvs", &self.dvs);
            w.field("faults", &self.faults);
            w.field("policy", &self.policy);
            w.field("k", &self.k);
            w.field("speed", &self.speed);
            w.field("hyperperiods", &self.hyperperiods);
            w.field("seed", &self.seed);
            // Emitted only when present, so pre-Monte-Carlo documents (and
            // the checked-in presets) round-trip byte-identically.
            if let Some(mc) = &self.mc {
                w.field("mc", mc);
            }
        });
    }
}

impl FromJson for ExecutiveSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let tasks = TaskSetSpec::from_json(json.req("tasks")?)?;
        let faults = json
            .get("faults")
            .map_or(Ok(FaultSpec::Poisson { lambda: 0.0 }), FaultSpec::from_json)?;
        let k = json.get("k").map_or(Ok(2), Json::as_u32)?;
        let policy = match json.get("policy") {
            Some(p) => PolicyAssignment::from_json(p)?,
            None => {
                PolicyAssignment::Shared(default_policy(faults.nominal_lambda().unwrap_or(0.0), k))
            }
        };
        Ok(Self {
            name: json
                .get("name")
                .map_or(Ok("unnamed"), Json::as_str)?
                .to_owned(),
            tasks,
            costs: json
                .get("costs")
                .map_or(Ok(CostsSpec::PaperScp), CostsSpec::from_json)?,
            dvs: json
                .get("dvs")
                .map_or(Ok(DvsSpec::PaperDefault), DvsSpec::from_json)?,
            faults,
            policy,
            k,
            speed: json.get("speed").map_or(Ok(1.0), Json::as_f64)?,
            hyperperiods: json.get("hyperperiods").map_or(Ok(1), Json::as_u32)?,
            seed: json.get("seed").map_or(Ok(2006), Json::as_u64)?,
            mc: match json.get("mc") {
                None | Some(Json::Null) => None,
                Some(mc) => Some(ExecutiveMcSpec::from_json(mc)?),
            },
        })
    }
}

/// Checkpoint operation totals (store / compare / compare-and-store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointTotals {
    /// Store checkpoints (SCP).
    pub store: u64,
    /// Compare checkpoints (CCP).
    pub compare: u64,
    /// Compare-and-store checkpoints (CSCP).
    pub compare_store: u64,
}

impl CheckpointTotals {
    /// Sum over all checkpoint kinds.
    pub fn total(&self) -> u64 {
        self.store + self.compare + self.compare_store
    }

    /// Accumulates another total.
    pub fn add(&mut self, other: &CheckpointTotals) {
        self.store += other.store;
        self.compare += other.compare;
        self.compare_store += other.compare_store;
    }
}

impl ToJson for CheckpointTotals {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("store", &self.store);
            w.field("compare", &self.compare);
            w.field("compare_store", &self.compare_store);
            w.field("total", &self.total());
        });
    }
}

impl FromJson for CheckpointTotals {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        JsonReader::text(&json.pretty()).read()
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SpecError> {
        let mut counts = [0; 3];
        r.object(&["store", "compare", "compare_store"], &mut |r, i| {
            counts[i] = r.u64()?;
            Ok(())
        })
        .check()?;
        let [store, compare, compare_store] = counts;
        Ok(Self {
            store,
            compare,
            compare_store,
        })
    }
}

/// Per-task aggregate of an executive run.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// The task's name (from the spec).
    pub name: String,
    /// Jobs released over the horizon.
    pub jobs: u64,
    /// Jobs that missed their deadline.
    pub deadline_misses: u64,
    /// Energy consumed by this task's jobs.
    pub energy: f64,
    /// Faults observed inside this task's execution windows.
    pub faults: u64,
    /// Rollbacks taken by this task's jobs.
    pub rollbacks: u64,
    /// Checkpoint operations executed by this task's jobs.
    pub checkpoints: CheckpointTotals,
    /// Worst observed response time (finish − release; 0 with no jobs).
    pub worst_response: f64,
}

impl ToJson for TaskReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("name", &self.name);
            w.field("jobs", &self.jobs);
            w.field("deadline_misses", &self.deadline_misses);
            w.field("energy", &self.energy);
            w.field("faults", &self.faults);
            w.field("rollbacks", &self.rollbacks);
            w.field("checkpoints", &self.checkpoints);
            w.field("worst_response", &self.worst_response);
        });
    }
}

impl FromJson for TaskReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            name: json.req("name")?.as_str()?.to_owned(),
            jobs: json.req("jobs")?.as_u64()?,
            deadline_misses: json.req("deadline_misses")?.as_u64()?,
            energy: json.req("energy")?.as_f64()?,
            faults: json.req("faults")?.as_u64()?,
            rollbacks: json.req("rollbacks")?.as_u64()?,
            checkpoints: CheckpointTotals::from_json(json.req("checkpoints")?)?,
            worst_response: json.req("worst_response")?.as_f64()?,
        })
    }
}

/// Whole-horizon aggregate of an executive run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveSummaryReport {
    /// Hyperperiod of the task set.
    pub hyperperiod: u64,
    /// Simulated horizon (`hyperperiod × hyperperiods`).
    pub horizon: f64,
    /// Total jobs released.
    pub jobs: u64,
    /// Jobs that missed their deadline.
    pub deadline_misses: u64,
    /// `deadline_misses / jobs` (0 with no jobs).
    pub miss_ratio: f64,
    /// Total energy over the horizon.
    pub total_energy: f64,
    /// Total faults observed inside execution windows.
    pub faults: u64,
    /// Total rollbacks.
    pub rollbacks: u64,
    /// Total checkpoint operations.
    pub checkpoints: CheckpointTotals,
}

impl ToJson for ExecutiveSummaryReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("hyperperiod", &self.hyperperiod);
            w.field("horizon", &self.horizon);
            w.field("jobs", &self.jobs);
            w.field("deadline_misses", &self.deadline_misses);
            w.field("miss_ratio", &self.miss_ratio);
            w.field("total_energy", &self.total_energy);
            w.field("faults", &self.faults);
            w.field("rollbacks", &self.rollbacks);
            w.field("checkpoints", &self.checkpoints);
        });
    }
}

impl FromJson for ExecutiveSummaryReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            hyperperiod: json.req("hyperperiod")?.as_u64()?,
            horizon: json.req("horizon")?.as_f64()?,
            jobs: json.req("jobs")?.as_u64()?,
            deadline_misses: json.req("deadline_misses")?.as_u64()?,
            miss_ratio: json.req("miss_ratio")?.as_f64()?,
            total_energy: json.req("total_energy")?.as_f64()?,
            faults: json.req("faults")?.as_u64()?,
            rollbacks: json.req("rollbacks")?.as_u64()?,
            checkpoints: CheckpointTotals::from_json(json.req("checkpoints")?)?,
        })
    }
}

/// The serializable result of one executive run, shaped like
/// [`crate::RunReport`]: the producing spec is embedded for provenance,
/// `policy` names what ran (one entry per task), and `summary`/`tasks`
/// carry the aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveRunReport {
    /// The spec that produced this result.
    pub spec: ExecutiveSpec,
    /// The `Policy::name()` of each task's scheme, in task order.
    pub policy_names: Vec<String>,
    /// Whole-horizon aggregates.
    pub summary: ExecutiveSummaryReport,
    /// Per-task aggregates, in task order.
    pub tasks: Vec<TaskReport>,
}

impl ExecutiveRunReport {
    /// Parses a report from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }
}

impl ToJson for ExecutiveRunReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("spec", &self.spec);
            w.field("policy", &self.policy_names);
            w.field("summary", &self.summary);
            w.field("tasks", &self.tasks);
        });
    }
}

impl FromJson for ExecutiveRunReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            spec: ExecutiveSpec::from_json(json.req("spec")?)?,
            policy_names: json
                .req("policy")?
                .as_array()?
                .iter()
                .map(|n| n.as_str().map(str::to_owned))
                .collect::<Result<Vec<_>, _>>()?,
            summary: ExecutiveSummaryReport::from_json(json.req("summary")?)?,
            tasks: json
                .req("tasks")?
                .as_array()?
                .iter()
                .map(TaskReport::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trio() -> TaskSetSpec {
        TaskSetSpec::implicit([
            ("attitude-control", 900.0, 5_000),
            ("sensor-fusion", 1_400.0, 10_000),
            ("telemetry-downlink", 2_600.0, 20_000),
        ])
    }

    #[test]
    fn taskset_builds_and_matches_runtime_model() {
        let set = trio().build().unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.hyperperiod(), 20_000);
        assert_eq!(set.tasks()[0].name, "attitude-control");
    }

    #[test]
    fn invalid_task_sets_error_instead_of_panicking() {
        let empty = TaskSetSpec { tasks: vec![] };
        assert!(matches!(empty.build(), Err(SpecError::Invalid(_))));

        let mut zero_period = trio();
        zero_period.tasks[1].period = 0;
        assert!(matches!(zero_period.build(), Err(SpecError::Invalid(_))));

        let mut late = trio();
        late.tasks[0].deadline = late.tasks[0].period + 1;
        assert!(matches!(late.build(), Err(SpecError::Invalid(_))));

        let mut negative = trio();
        negative.tasks[2].wcet = -5.0;
        assert!(matches!(negative.build(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn executive_spec_round_trips_through_json() {
        let mut spec = ExecutiveSpec::new("avionics", trio());
        spec.faults = FaultSpec::Poisson { lambda: 5e-4 };
        spec.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 5e-4, 2, 0).unwrap());
        spec.hyperperiods = 5;
        spec.seed = 13;
        let back = ExecutiveSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back, spec);
        back.validate().unwrap();
    }

    #[test]
    fn per_task_policies_round_trip_and_check_arity() {
        let mut spec = ExecutiveSpec::new("mixed", trio());
        spec.policy = PolicyAssignment::PerTask(vec![
            PolicySpec::from_tag("a_d_s", 1e-3, 2, 0).unwrap(),
            PolicySpec::from_tag("kft", 1e-3, 3, 0).unwrap(),
            PolicySpec::from_tag("cscp", 1e-3, 2, 1).unwrap(),
        ]);
        let back = ExecutiveSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back, spec);
        back.validate().unwrap();
        assert_eq!(back.policy.for_task(1).tag(), "kft");
        assert_eq!(
            back.policy.policy_names(3),
            vec!["A_D_S".to_owned(), "k-f-t".into(), "A".into()]
        );

        // Wrong arity is a SpecError, not a panic.
        spec.policy =
            PolicyAssignment::PerTask(vec![PolicySpec::from_tag("a_d_s", 1e-3, 2, 0).unwrap()]);
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn missing_fields_default_sanely() {
        let text = r#"{
            "tasks": [{"name": "solo", "wcet": 500, "period": 4000}]
        }"#;
        let spec = ExecutiveSpec::from_json_str(text).unwrap();
        assert_eq!(spec.name, "unnamed");
        assert_eq!(spec.tasks.tasks[0].deadline, 4_000);
        assert_eq!(spec.costs, CostsSpec::PaperScp);
        assert_eq!(spec.k, 2);
        assert_eq!(spec.hyperperiods, 1);
        assert_eq!(spec.seed, 2006);
        assert!(matches!(spec.policy, PolicyAssignment::Shared(_)));
        spec.validate().unwrap();
    }

    #[test]
    fn mc_section_round_trips_and_is_emitted_only_when_present() {
        let mut spec = ExecutiveSpec::new("monte", trio());
        assert!(
            !spec.to_json_string().contains("\"mc\""),
            "a spec without mc must serialize without an mc key"
        );
        assert_eq!(spec.mc_or_default(), ExecutiveMcSpec::default());

        spec.mc = Some(ExecutiveMcSpec {
            replications: 64,
            threads: 2,
            queue: Some(QueueSpec {
                workers: 3,
                max_attempts: 5,
                ..Default::default()
            }),
        });
        let back = ExecutiveSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back, spec);
        back.validate().unwrap();

        // Partial mc objects default field-wise.
        let text = r#"{
            "tasks": [{"name": "solo", "wcet": 500, "period": 4000}],
            "mc": {"replications": 7}
        }"#;
        let partial = ExecutiveSpec::from_json_str(text).unwrap();
        let mc = partial.mc.unwrap();
        assert_eq!(mc.replications, 7);
        assert_eq!(mc.threads, 0);
        assert!(mc.queue.is_none());
    }

    #[test]
    fn mc_validation_rejects_bad_parameters() {
        let mut spec = ExecutiveSpec::new("bad-mc", trio());
        spec.mc = Some(ExecutiveMcSpec {
            replications: 0,
            ..ExecutiveMcSpec::default()
        });
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        spec.mc = Some(ExecutiveMcSpec {
            queue: Some(QueueSpec {
                workers: 0,
                max_attempts: 0,
                ..Default::default()
            }),
            ..ExecutiveMcSpec::default()
        });
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn mc_validation_rejects_fleet_endpoints() {
        // Executive horizons cannot ship to a fleet; a spec naming
        // endpoints is a typed error, not a silent in-process run.
        let mut spec = ExecutiveSpec::new("fleet-mc", trio());
        spec.mc = Some(ExecutiveMcSpec {
            queue: Some(QueueSpec {
                endpoints: vec!["127.0.0.1:9".into()],
                timeout_ms: 200,
                ..Default::default()
            }),
            ..ExecutiveMcSpec::default()
        });
        let err = spec.validate().unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("endpoints"), "{err}");
        // The same spec read back from JSON fails the same way.
        let reread = ExecutiveSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert!(reread.validate().is_err());
    }

    #[test]
    fn executive_validation_rejects_bad_parameters() {
        let mut spec = ExecutiveSpec::new("bad", trio());
        spec.hyperperiods = 0;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        let mut spec = ExecutiveSpec::new("bad", trio());
        spec.speed = 0.0;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        let mut spec = ExecutiveSpec::new("bad", trio());
        spec.tasks.tasks.clear();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let report = ExecutiveRunReport {
            spec: ExecutiveSpec::new("rt", trio()),
            policy_names: vec!["A_D_S".into(); 3],
            summary: ExecutiveSummaryReport {
                hyperperiod: 20_000,
                horizon: 40_000.0,
                jobs: 14,
                deadline_misses: 1,
                miss_ratio: 1.0 / 14.0,
                total_energy: 123_456.5,
                faults: 3,
                rollbacks: 2,
                checkpoints: CheckpointTotals {
                    store: 40,
                    compare: 10,
                    compare_store: 25,
                },
            },
            tasks: vec![TaskReport {
                name: "attitude-control".into(),
                jobs: 8,
                deadline_misses: 0,
                energy: 55_000.25,
                faults: 1,
                rollbacks: 1,
                checkpoints: CheckpointTotals {
                    store: 20,
                    compare: 5,
                    compare_store: 12,
                },
                worst_response: 1_234.5,
            }],
        };
        let back = ExecutiveRunReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.summary.checkpoints.total(), 75);
    }
}
