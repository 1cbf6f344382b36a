//! A non-preemptive EDF executive running periodic jobs through the DMR
//! simulator.
//!
//! Jobs are released at multiples of their task's period over one (or more)
//! hyperperiods. The executive picks the released job with the earliest
//! absolute deadline, builds a fresh checkpointing policy for it, and runs
//! it to completion (or abort) in the [`eacp_sim`] executor. Energy and
//! deadline misses are accumulated per task.

use crate::TaskSet;
use eacp_energy::DvsConfig;
use eacp_faults::{DeterministicFaults, FaultProcess};
use eacp_sim::{
    CheckpointCosts, Executor, ExecutorOptions, ExecutorScratch, Observer, Policy, Scenario,
    TaskSpec,
};

/// Outcome of one released job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Index of the task in the [`TaskSet`].
    pub task: usize,
    /// Release time.
    pub release: f64,
    /// Absolute deadline.
    pub absolute_deadline: f64,
    /// Time the executive started the job (>= release).
    pub started: f64,
    /// Time the job finished, aborted or was cut off.
    pub finished: f64,
    /// Whether the job completed by its absolute deadline.
    pub timely: bool,
    /// Energy consumed by this job.
    pub energy: f64,
    /// Faults observed during this job.
    pub faults: u32,
    /// Rollbacks taken by this job.
    pub rollbacks: u32,
    /// Store checkpoints (SCP) executed by this job.
    pub store_checkpoints: u32,
    /// Compare checkpoints (CCP) executed by this job.
    pub compare_checkpoints: u32,
    /// Compare-and-store checkpoints (CSCP) executed by this job.
    pub compare_store_checkpoints: u32,
}

/// Aggregated result of a hyperperiod simulation.
#[derive(Debug, Clone, Default)]
pub struct ExecutiveReport {
    /// Every job in release order (ties broken by task index).
    pub jobs: Vec<JobRecord>,
    /// Total energy over the horizon.
    pub total_energy: f64,
    /// Jobs that missed their deadline (aborted, late or never started in
    /// time).
    pub deadline_misses: usize,
}

impl ExecutiveReport {
    /// Deadline-miss ratio over all jobs (0 when no jobs were released).
    pub fn miss_ratio(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.deadline_misses as f64 / self.jobs.len() as f64
        }
    }

    /// Jobs belonging to one task.
    pub fn jobs_of(&self, task: usize) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(move |j| j.task == task)
    }
}

/// Workload-level inputs of an executive run, independent of where the
/// fault stream comes from. This is the seedable, spec-drivable shape:
/// `eacp_exec::run_executive` builds one from an
/// `eacp_spec::ExecutiveSpec` and supplies the stream it built from the
/// spec's `FaultSpec` + seed.
pub struct ExecutiveParams<'a> {
    /// The periodic workload.
    pub set: &'a TaskSet,
    /// Checkpoint costs shared by all tasks.
    pub costs: CheckpointCosts,
    /// DVS levels shared by all tasks.
    pub dvs: DvsConfig,
    /// Number of hyperperiods to simulate.
    pub hyperperiods: u32,
    /// Executor semantics every job runs under.
    pub options: ExecutorOptions,
}

/// Supplies the checkpointing policy each dispatched job runs under.
///
/// The executive calls [`policy_for_job`](PolicyProvider::policy_for_job)
/// once per dispatched job and uses the returned policy for that job only.
/// Pooled implementations keep one policy instance per task and reset it
/// in place — no allocation per job — while the legacy closure path boxes
/// a fresh policy each time. Either way the returned policy must be in its
/// initial state, so both paths drive the executor identically.
pub trait PolicyProvider {
    /// Returns the (freshly reset) policy for the next job of `task`.
    fn policy_for_job(&mut self, task: usize) -> &mut dyn Policy;
}

/// Adapts the legacy `FnMut(usize) -> Box<dyn Policy>` factory to
/// [`PolicyProvider`]: boxes a fresh policy per job, parked in a slot so a
/// borrow can be handed out.
struct FreshPolicies<MK> {
    make: MK,
    slot: Option<Box<dyn Policy>>,
}

impl<MK: FnMut(usize) -> Box<dyn Policy>> PolicyProvider for FreshPolicies<MK> {
    fn policy_for_job(&mut self, task: usize) -> &mut dyn Policy {
        self.slot = Some((self.make)(task));
        // audit:allow(panic): the slot was filled on the line above.
        self.slot.as_deref_mut().expect("slot just filled")
    }
}

/// One pending release: a job waiting to be admitted or dispatched.
#[derive(Debug, Clone, Copy)]
struct Pending {
    task: usize,
    release: f64,
    abs_deadline: f64,
}

/// Reusable working memory for [`run_executive_pooled`].
///
/// An executive horizon needs a release list, a ready queue, fault-window
/// buffers, a job log, one [`DeterministicFaults`] window, and the
/// engine's [`ExecutorScratch`] — all of it reusable between horizons.
/// Monte-Carlo loops allocate one scratch per block and thread it through
/// every seeded horizon: buffers are *cleared*, never reallocated, and
/// their capacities converge to the workload's steady state after the
/// first horizon. The executive case of the `eacp-exec` zero-alloc
/// witness checks this holds.
#[derive(Debug)]
pub struct ExecutiveScratch {
    releases: Vec<Pending>,
    ready: Vec<Pending>,
    carry: Vec<f64>,
    local: Vec<f64>,
    jobs: Vec<JobRecord>,
    window: DeterministicFaults,
    exec: ExecutorScratch,
}

impl Default for ExecutiveScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutiveScratch {
    /// Creates an empty scratch (the first horizon sizes every buffer).
    // audit:setup: the scratch exists so horizons can reuse these buffers
    // — they are allocated here once and only cleared afterwards.
    pub fn new() -> Self {
        Self {
            releases: Vec::new(),
            ready: Vec::new(),
            // The release list, ready queue and job log converge to the
            // workload's (fixed) job count after the first horizon, but
            // the fault-window buffers track per-window arrival counts —
            // heavy-tailed processes (Weibull shape < 1, bursts) can
            // produce a window denser than anything seen during warmup.
            // Pre-size them past any window the paper's scenarios reach
            // so later horizons never regrow them; the executive case of
            // the `eacp-exec` zero-alloc witness checks this holds.
            carry: Vec::with_capacity(256),
            local: Vec::with_capacity(256),
            jobs: Vec::new(),
            window: DeterministicFaults::with_capacity(256),
            exec: ExecutorScratch::new(),
        }
    }

    /// The last horizon's job records, in release order (ties broken by
    /// task index) — what [`run_executive_pooled`] leaves behind.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Folds the last horizon's job log into an [`ExecutiveReport`],
    /// consuming the scratch.
    fn into_report(self) -> ExecutiveReport {
        let total_energy = self.jobs.iter().map(|j| j.energy).sum();
        let deadline_misses = self.jobs.iter().filter(|j| !j.timely).count();
        ExecutiveReport {
            jobs: self.jobs,
            total_energy,
            deadline_misses,
        }
    }
}

/// Runs the executive over an explicit fault stream, streaming every
/// engine event of every job into `observer`.
///
/// This is the general entry point: the caller owns the fault process
/// (any [`FaultProcess`], seeded however it likes — the reproducibility
/// contract is *same stream + same params ⇒ identical report*) and the
/// policy factory `make_policy(task_index)`. Jobs are released at period
/// multiples over `params.hyperperiods` hyperperiods and dispatched
/// non-preemptively by earliest absolute deadline.
///
/// Convenience wrapper over [`run_executive_pooled`] with per-call working
/// memory and fresh-boxed policies; replication loops use the pooled core
/// directly.
///
/// # Panics
///
/// Panics if `params.hyperperiods == 0`.
pub fn run_executive_stream<FP, MK, O>(
    params: &ExecutiveParams<'_>,
    faults: &mut FP,
    make_policy: MK,
    observer: &mut O,
) -> ExecutiveReport
where
    FP: FaultProcess + ?Sized,
    MK: FnMut(usize) -> Box<dyn Policy>,
    O: Observer + ?Sized,
{
    let mut scratch = ExecutiveScratch::new();
    let mut scenario = scenario_template(params);
    let mut policies = FreshPolicies {
        make: make_policy,
        slot: None,
    };
    run_executive_pooled(
        params,
        &mut scenario,
        faults,
        &mut policies,
        observer,
        &mut scratch,
    );
    scratch.into_report()
}

/// Builds the per-job scenario template [`run_executive_pooled`] expects:
/// `params`' costs and DVS table around a placeholder task (the core
/// overwrites `scenario.task` before every job).
// audit:setup: one template per block — the DVS level table is cloned
// here once; horizons only mutate the `task` field in place.
pub fn scenario_template(params: &ExecutiveParams<'_>) -> Scenario {
    Scenario::new(TaskSpec::new(1.0, 1.0), params.costs, params.dvs.clone())
}

/// The pooled executive core: one EDF horizon, allocation-free after
/// warmup.
///
/// Behaviorally identical to [`run_executive_stream`] — same release
/// order, same EDF tie-breaks, same fault-window carry semantics, same
/// job records to the last bit — but every piece of working memory is
/// caller-owned: `scenario` is a template whose `task` field is rewritten
/// per job (costs and DVS must match the workload — see
/// [`scenario_template`]), `policies` hands out per-task policies, and
/// `scratch` pools every buffer including the engine scratch. The job log
/// is left in [`ExecutiveScratch::jobs`], release-ordered.
///
/// # Panics
///
/// Panics if `params.hyperperiods == 0`.
pub fn run_executive_pooled<FP, O>(
    params: &ExecutiveParams<'_>,
    scenario: &mut Scenario,
    faults: &mut FP,
    policies: &mut dyn PolicyProvider,
    observer: &mut O,
    scratch: &mut ExecutiveScratch,
) where
    FP: FaultProcess + ?Sized,
    O: Observer + ?Sized,
{
    assert!(params.hyperperiods > 0, "at least one hyperperiod");
    debug_assert!(
        *scenario.costs() == params.costs && *scenario.dvs() == params.dvs,
        "scenario template disagrees with the executive params"
    );
    let horizon = (params.set.hyperperiod() * params.hyperperiods as u64) as f64;

    let ExecutiveScratch {
        releases,
        ready,
        carry,
        local,
        jobs: done,
        window,
        exec,
    } = scratch;

    // Build the release list. Keys (release, task) are unique per job, so
    // the unstable sort is order-identical to a stable one.
    releases.clear();
    for (idx, t) in params.set.tasks().iter().enumerate() {
        let mut r = 0u64;
        while (r as f64) < horizon {
            releases.push(Pending {
                task: idx,
                release: r as f64,
                abs_deadline: (r + t.deadline) as f64,
            });
            r += t.period;
        }
    }
    releases.sort_unstable_by(|a, b| a.release.total_cmp(&b.release).then(a.task.cmp(&b.task)));

    // Global fault stream shifted per job window. A job's collection
    // window extends to its deadline, but the job may finish sooner —
    // arrivals it never experienced are carried over (as absolute times)
    // for whichever job runs next, so back-to-back jobs see the complete
    // stream.
    let mut next_fault = faults.next_fault();
    carry.clear();

    let mut now = 0.0_f64;
    done.clear();
    ready.clear();
    let mut cursor = 0usize;

    loop {
        // Admit releases up to `now`.
        while cursor < releases.len() && releases[cursor].release <= now + 1e-9 {
            ready.push(releases[cursor]);
            cursor += 1;
        }
        if ready.is_empty() {
            match releases.get(cursor) {
                Some(&p) => {
                    cursor += 1;
                    now = now.max(p.release);
                    ready.push(p);
                    continue;
                }
                None => break,
            }
        }
        // EDF: earliest absolute deadline first. The refill above either
        // pushed a job or broke out of the loop, but spelling the empty
        // case as a loop exit keeps this panic-free by construction.
        let Some(best) = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.abs_deadline.total_cmp(&b.abs_deadline))
            .map(|(i, _)| i)
        else {
            break;
        };
        let job = ready.swap_remove(best);
        let task = &params.set.tasks()[job.task];

        let started = now;
        let rel_deadline = job.abs_deadline - started;
        if rel_deadline <= 0.0 {
            // Hopeless: charge a miss without running.
            done.push(JobRecord {
                task: job.task,
                release: job.release,
                absolute_deadline: job.abs_deadline,
                started,
                finished: started,
                timely: false,
                energy: 0.0,
                faults: 0,
                rollbacks: 0,
                store_checkpoints: 0,
                compare_checkpoints: 0,
                compare_store_checkpoints: 0,
            });
            continue;
        }
        scenario.task = TaskSpec::new(task.wcet_cycles, rel_deadline);
        // Faults inside this job's window, re-based to job-local time:
        // first the carried-over arrivals earlier jobs never reached
        // (those before `started` landed in idle time and strike nothing),
        // then the global stream. The window is generous — the job cannot
        // run longer than its relative deadline (the executor cuts off
        // there) — and whatever the job does not experience is returned
        // to `carry` below.
        local.clear();
        let window_end = started + rel_deadline + 1.0;
        carry.retain(|&t| {
            if t >= window_end {
                return true;
            }
            if t >= started {
                local.push(t - started);
            }
            false
        });
        while next_fault < window_end {
            if next_fault >= started {
                local.push(next_fault - started);
            }
            next_fault = faults.next_fault();
        }
        // Carried times predate everything still in the stream, and both
        // sources are ascending — but interleavings across jobs can leave
        // `carry` unsorted, so restore the order the executor expects.
        // (f64 keys: unstable sort is bit-identical to stable.)
        local.sort_unstable_by(f64::total_cmp);
        window.reload(local);
        let policy = policies.policy_for_job(job.task);
        let out = Executor::new(scenario)
            .with_options(params.options)
            .run_with_scratch(exec, policy, window, observer);

        // Arrivals strictly after the finish were never experienced:
        // hand them to subsequent jobs.
        carry.extend(
            local
                .iter()
                .filter(|&&t| t > out.finish_time)
                .map(|&t| started + t),
        );
        carry.sort_unstable_by(f64::total_cmp);

        let finished = started + out.finish_time;
        done.push(JobRecord {
            task: job.task,
            release: job.release,
            absolute_deadline: job.abs_deadline,
            started,
            finished,
            timely: out.timely,
            energy: out.energy,
            faults: out.faults,
            rollbacks: out.rollbacks,
            store_checkpoints: out.store_checkpoints,
            compare_checkpoints: out.compare_checkpoints,
            compare_store_checkpoints: out.compare_store_checkpoints,
        });
        now = finished.max(started);
    }

    done.sort_unstable_by(|a, b| a.release.total_cmp(&b.release).then(a.task.cmp(&b.task)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeriodicTask;
    use eacp_core::policies::Adaptive;
    use eacp_faults::PoissonProcess;
    use eacp_sim::NoopObserver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn light_set() -> TaskSet {
        TaskSet::new(vec![
            PeriodicTask::new("sensor", 500.0, 4000, 4000),
            PeriodicTask::new("control", 1200.0, 8000, 8000),
        ])
    }

    fn params(set: &TaskSet, hyperperiods: u32) -> ExecutiveParams<'_> {
        ExecutiveParams {
            set,
            costs: CheckpointCosts::paper_scp_variant(),
            dvs: DvsConfig::paper_default(),
            hyperperiods,
            options: ExecutorOptions::default(),
        }
    }

    /// The executive under a global Poisson stream seeded with 42, every
    /// job on a fresh `A_D_S` policy with fault budget `k`.
    fn run_poisson(set: &TaskSet, lambda: f64, hyperperiods: u32, k: u32) -> ExecutiveReport {
        let mut faults = PoissonProcess::new(lambda, StdRng::seed_from_u64(42));
        run_executive_stream(
            &params(set, hyperperiods),
            &mut faults,
            |_| Box::new(Adaptive::dvs_scp(lambda, k)),
            &mut NoopObserver,
        )
    }

    #[test]
    fn fault_free_hyperperiod_has_no_misses() {
        let set = light_set();
        let report = run_poisson(&set, 0.0, 1, 2);
        // 2 jobs of "sensor" (period 4000 in hyperperiod 8000) + 1 "control".
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.miss_ratio(), 0.0);
        assert!(report.total_energy > 0.0);
        assert_eq!(report.jobs_of(0).count(), 2);
        assert_eq!(report.jobs_of(1).count(), 1);
    }

    #[test]
    fn multiple_hyperperiods_scale_job_count() {
        let set = light_set();
        let report = run_poisson(&set, 0.0, 3, 2);
        assert_eq!(report.jobs.len(), 9);
    }

    #[test]
    fn edf_prefers_earlier_deadline() {
        // Both released at t = 0; the shorter-deadline task must start
        // first and therefore finish first.
        let set = TaskSet::new(vec![
            PeriodicTask::new("late", 500.0, 10_000, 10_000),
            PeriodicTask::new("urgent", 500.0, 10_000, 2_000),
        ]);
        let report = run_poisson(&set, 0.0, 1, 1);
        let urgent = report.jobs_of(1).next().unwrap();
        let late = report.jobs_of(0).next().unwrap();
        assert!(urgent.finished < late.finished);
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn faults_cause_rollbacks_but_jobs_recover() {
        // High enough λ that the expected fault count inside the (short)
        // busy windows is ≫ 1 for any healthy RNG stream, not just one
        // lucky seed.
        let set = light_set();
        let report = run_poisson(&set, 2e-3, 4, 2);
        let total_faults: u32 = report.jobs.iter().map(|j| j.faults).sum();
        assert!(total_faults > 0, "the seed should inject faults");
        // Light load: adaptive checkpointing keeps all deadlines.
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn overload_produces_misses() {
        let set = TaskSet::new(vec![
            PeriodicTask::new("a", 3500.0, 4000, 4000),
            PeriodicTask::new("b", 3500.0, 4000, 4000),
        ]);
        let report = run_poisson(&set, 0.0, 1, 1);
        assert!(report.deadline_misses > 0);
        assert!(report.miss_ratio() > 0.0);
    }

    #[test]
    fn faults_after_a_jobs_finish_carry_over_to_the_next_job() {
        // Job A (task 0) finishes around t ≈ 560, long before its t = 4000
        // deadline; job B (task 1) then occupies t ≈ 560..2000. A fault at
        // t = 1000 lands inside A's collection window but after A's
        // finish — it must strike B, not vanish with A's window.
        let set = light_set();
        let params = ExecutiveParams {
            set: &set,
            costs: CheckpointCosts::paper_scp_variant(),
            dvs: DvsConfig::paper_default(),
            hyperperiods: 1,
            options: ExecutorOptions::default(),
        };
        let mut faults = eacp_faults::DeterministicFaults::new(vec![1_000.0]);
        let report = run_executive_stream(
            &params,
            &mut faults,
            |_| Box::new(Adaptive::dvs_scp(1e-3, 2)),
            &mut NoopObserver,
        );
        let total: u32 = report.jobs.iter().map(|j| j.faults).sum();
        assert_eq!(total, 1, "the carried fault must be experienced once");
        assert_eq!(report.jobs_of(0).map(|j| j.faults).sum::<u32>(), 0);
        assert_eq!(report.jobs_of(1).map(|j| j.faults).sum::<u32>(), 1);
    }

    #[test]
    fn idle_faults_strike_nothing() {
        // One tiny job finishing almost immediately; a fault long after
        // the finish but before the deadline lands in idle time and must
        // not be charged to anyone.
        let set = TaskSet::new(vec![PeriodicTask::new("tiny", 10.0, 100_000, 10_000)]);
        let params = ExecutiveParams {
            set: &set,
            costs: CheckpointCosts::paper_scp_variant(),
            dvs: DvsConfig::paper_default(),
            hyperperiods: 1,
            options: ExecutorOptions::default(),
        };
        let mut faults = eacp_faults::DeterministicFaults::new(vec![5_000.0]);
        let report = run_executive_stream(
            &params,
            &mut faults,
            |_| Box::new(Adaptive::dvs_scp(1e-3, 1)),
            &mut NoopObserver,
        );
        assert_eq!(report.jobs.iter().map(|j| j.faults).sum::<u32>(), 0);
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn pooled_core_matches_stream_wrapper_bit_for_bit() {
        // The pooled core (caller-owned scratch, in-place scenario and
        // fault-window reuse) must reproduce the wrapper's report exactly,
        // including across reuse of one scratch for several horizons.
        let set = light_set();
        let params = ExecutiveParams {
            set: &set,
            costs: CheckpointCosts::paper_scp_variant(),
            dvs: DvsConfig::paper_default(),
            hyperperiods: 4,
            options: ExecutorOptions::default(),
        };
        struct PooledAdaptive(Vec<Adaptive>);
        impl PolicyProvider for PooledAdaptive {
            fn policy_for_job(&mut self, task: usize) -> &mut dyn Policy {
                self.0[task] = Adaptive::dvs_scp(2e-3, 2);
                &mut self.0[task]
            }
        }
        let mut scratch = ExecutiveScratch::new();
        let mut scenario = scenario_template(&params);
        let mut provider =
            PooledAdaptive(vec![Adaptive::dvs_scp(2e-3, 2), Adaptive::dvs_scp(2e-3, 2)]);
        for seed in [42u64, 43, 44] {
            let mut faults = PoissonProcess::new(2e-3, rand::rngs::StdRng::seed_from_u64(seed));
            run_executive_pooled(
                &params,
                &mut scenario,
                &mut faults,
                &mut provider,
                &mut NoopObserver,
                &mut scratch,
            );
            let mut faults = PoissonProcess::new(2e-3, rand::rngs::StdRng::seed_from_u64(seed));
            let reference = run_executive_stream(
                &params,
                &mut faults,
                |_| Box::new(Adaptive::dvs_scp(2e-3, 2)),
                &mut NoopObserver,
            );
            assert_eq!(scratch.jobs(), reference.jobs.as_slice(), "seed {seed}");
            assert!(scratch
                .jobs()
                .iter()
                .zip(reference.jobs.iter())
                .all(|(a, b)| a.energy.to_bits() == b.energy.to_bits()
                    && a.finished.to_bits() == b.finished.to_bits()));
        }
    }

    #[test]
    fn pooled_policies_keep_their_plan_tables_across_jobs() {
        // The template keeps one planning-environment identity across the
        // jobs it is rewritten for, so a policy reset per job keeps its
        // plan table and memoized I1 split: only each task's first job
        // computes the split (rf = 0 and ample slack put every
        // task-start replan on the Poisson branch).
        struct ResetPerJob(Vec<Adaptive>);
        impl PolicyProvider for ResetPerJob {
            fn policy_for_job(&mut self, task: usize) -> &mut dyn Policy {
                self.0[task].reset();
                &mut self.0[task]
            }
        }
        let set = light_set();
        let params = params(&set, 4);
        let mut scenario = scenario_template(&params);
        let mut provider = ResetPerJob(vec![Adaptive::dvs_scp(2e-3, 0); 2]);
        let mut scratch = ExecutiveScratch::new();
        run_executive_pooled(
            &params,
            &mut scenario,
            &mut DeterministicFaults::none(),
            &mut provider,
            &mut NoopObserver,
            &mut scratch,
        );
        for (task, policy) in provider.0.iter().enumerate() {
            let jobs = scratch.jobs().iter().filter(|j| j.task == task).count() as u64;
            assert!(jobs > 1, "task {task}: {jobs} jobs");
            assert_eq!(policy.plan_cache_stats(), (jobs - 1, 1), "task {task}");
        }
    }

    #[test]
    fn idle_gaps_are_skipped() {
        // One tiny task with a long period: the executive must jump across
        // idle time instead of spinning.
        let set = TaskSet::new(vec![PeriodicTask::new("rare", 10.0, 100_000, 1_000)]);
        let report = run_poisson(&set, 0.0, 2, 1);
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.deadline_misses, 0);
        assert!((report.jobs[1].release - 100_000.0).abs() < 1e-9);
    }
}
