//! A complete simulation scenario.

use crate::costs::CheckpointCosts;
use crate::task::TaskSpec;
use eacp_energy::DvsConfig;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next planning-environment identity [`Scenario::new`] hands out.
/// Zero is never handed out, so it can stand for "no environment yet".
static NEXT_ENV: AtomicU64 = AtomicU64::new(1);

/// Everything the executor needs apart from the policy and the fault
/// stream: the task, the checkpoint cost model, the DVS configuration and
/// the degree of modular redundancy.
///
/// # Planning-environment identity
///
/// Every scenario built by [`Scenario::new`] carries an identity
/// ([`Scenario::env`]) no other scenario built in the process shares.
/// The executor passes it to the policy as [`PlanContext::env`], and a
/// policy that caches per-environment planning constants (the adaptive
/// schemes' plan table) rebuilds them only when the identity changes, so
/// a replan checks one word instead of the costs and every level's
/// frequency.
///
/// The identity stays sound because the costs and the DVS table are
/// read-only once the scenario is built ([`Scenario::costs`],
/// [`Scenario::dvs`]): nothing can change them under a live identity.
/// [`Clone`] keeps the identity (the copy's contents are equal), and
/// [`PartialEq`] compares contents only, so two scenarios built alike
/// compare equal with distinct identities. `task` and `processors` stay
/// public: planning constants depend on neither, and the real-time
/// executive rewrites `task` per job on one template scenario, whose
/// identity — and so every policy's plan table — then lasts across jobs.
///
/// [`PlanContext::env`]: crate::PlanContext::env
///
/// # Examples
///
/// ```
/// use eacp_sim::{CheckpointCosts, Scenario, TaskSpec};
/// use eacp_energy::DvsConfig;
///
/// let s = Scenario::new(
///     TaskSpec::new(7600.0, 10_000.0),
///     CheckpointCosts::paper_scp_variant(),
///     DvsConfig::paper_default(),
/// );
/// assert_eq!(s.processors, 2);
/// assert_eq!(s.costs().cscp_cycles(), 22.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The task to execute.
    pub task: TaskSpec,
    /// Checkpoint operation costs (cycles).
    costs: CheckpointCosts,
    /// Available speed levels.
    dvs: DvsConfig,
    /// Number of redundant processors charged for energy (2 = DMR).
    pub processors: u32,
    /// Planning-environment identity, minted by [`Scenario::new`].
    env: u64,
}

impl Scenario {
    /// Creates a DMR (two-processor) scenario with a fresh
    /// planning-environment identity.
    pub fn new(task: TaskSpec, costs: CheckpointCosts, dvs: DvsConfig) -> Self {
        Self {
            task,
            costs,
            dvs,
            processors: 2,
            env: NEXT_ENV.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Overrides the number of redundant processors.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    pub fn with_processors(mut self, processors: u32) -> Self {
        assert!(processors > 0, "at least one processor is required");
        self.processors = processors;
        self
    }

    /// Checkpoint operation costs (cycles).
    ///
    /// Read-only, as is [`Scenario::dvs`], so that the scenario's
    /// identity keeps naming them:
    ///
    /// ```compile_fail
    /// use eacp_energy::DvsConfig;
    /// use eacp_sim::{CheckpointCosts, Scenario, TaskSpec};
    ///
    /// let mut s = Scenario::new(
    ///     TaskSpec::new(7600.0, 10_000.0),
    ///     CheckpointCosts::paper_scp_variant(),
    ///     DvsConfig::paper_default(),
    /// );
    /// s.costs = CheckpointCosts::paper_ccp_variant(); // private field
    /// ```
    #[inline]
    pub fn costs(&self) -> &CheckpointCosts {
        &self.costs
    }

    /// Available speed levels.
    #[inline]
    pub fn dvs(&self) -> &DvsConfig {
        &self.dvs
    }

    /// The planning-environment identity: equal for this scenario and its
    /// clones, distinct from every other scenario built in the process
    /// (see the [type docs](Scenario#planning-environment-identity)).
    #[inline]
    pub fn env(&self) -> u64 {
        self.env
    }
}

/// Contents only: the identity is not compared.
impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            task,
            costs,
            dvs,
            processors,
            env: _,
        } = self;
        *task == other.task
            && *costs == other.costs
            && *dvs == other.dvs
            && *processors == other.processors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(task: TaskSpec) -> Scenario {
        Scenario::new(
            task,
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        )
    }

    #[test]
    fn dmr_by_default_and_override() {
        let s = paper(TaskSpec::new(100.0, 200.0));
        assert_eq!(s.processors, 2);
        let s3 = s.clone().with_processors(3);
        assert_eq!(s3.processors, 3);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn rejects_zero_processors() {
        let _ = paper(TaskSpec::new(100.0, 200.0)).with_processors(0);
    }

    #[test]
    fn equal_contents_compare_equal_with_distinct_identities() {
        let a = paper(TaskSpec::new(100.0, 200.0));
        let b = paper(TaskSpec::new(100.0, 200.0));
        assert_eq!(a, b);
        assert_ne!(a.env(), b.env());
        assert_ne!(a.env(), 0, "zero stands for no environment");
        assert_ne!(a, paper(TaskSpec::new(100.0, 300.0)));
    }

    #[test]
    fn clones_and_task_rewrites_keep_the_identity() {
        let mut a = paper(TaskSpec::new(100.0, 200.0));
        let env = a.env();
        let copy = a.clone();
        assert_eq!(copy.env(), env);
        assert_eq!(copy, a);
        a.task = TaskSpec::new(50.0, 80.0);
        assert_eq!(a.env(), env);
        assert_eq!(a.clone().with_processors(3).env(), env);
    }
}
