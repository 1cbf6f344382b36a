//! Property tests of the work-queue scheduler's determinism contract:
//! for any worker count and any injected lease-failure pattern (workers
//! abandoning assignments mid-block), `QueueRunner` produces a `Summary`
//! bit-identical to the sequential `LocalRunner::new(1)`, and a grid's
//! completion hook sees each job once, with that summary.

// Test doubles key attempt counts by block id and never iterate the map,
// so hash order is irrelevant (see clippy.toml on R1 scope).
#![allow(clippy::disallowed_types)]

use eacp_exec::{
    BlockAssignment, InProcessWorker, Job, LocalRunner, QueueObserver, QueueRunner, QueueStatus,
    Runner, Summary, Worker,
};
use eacp_spec::{ExperimentSpec, McSpec, SpecError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn job(reps: u64, seed: u64) -> Job {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.mc = McSpec {
        replications: reps,
        seed,
        threads: 0,
    };
    Job::from_spec(&spec).expect("valid property-test spec")
}

/// Abandons the first `fail_attempts` leases of every block whose bit is
/// set in `fail_mask` — a deterministic model of workers dying mid-block.
struct FlakyWorker {
    fail_mask: u64,
    fail_attempts: u32,
    attempts: Mutex<HashMap<u64, u32>>,
}

impl FlakyWorker {
    fn new(fail_mask: u64, fail_attempts: u32) -> Self {
        Self {
            fail_mask,
            fail_attempts,
            attempts: Mutex::new(HashMap::new()),
        }
    }
}

impl Worker for FlakyWorker {
    fn name(&self) -> &'static str {
        "flaky"
    }
    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        lease_attempt: u32,
    ) -> Result<Summary, SpecError> {
        let attempt = {
            let mut seen = self.attempts.lock().unwrap();
            let n = seen.entry(assignment.block).or_insert(0);
            *n += 1;
            *n
        };
        let targeted = assignment.block < 64 && (self.fail_mask >> assignment.block) & 1 == 1;
        if targeted && attempt <= self.fail_attempts {
            return Err(SpecError::invalid(format!(
                "injected abandonment (block {}, attempt {attempt})",
                assignment.block
            )));
        }
        InProcessWorker.run_assignment(job, assignment, lease_attempt)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Any worker count, any failed-lease pattern, any retry depth the
    /// budget survives: the queue's merged summary equals the sequential
    /// runner's bit for bit.
    #[test]
    fn queue_runner_with_failures_matches_sequential_local_runner(
        workers in 1usize..=64,
        fail_mask in 0u64..256,
        fail_attempts in 1u32..=2,
        seed in 0u64..1000,
    ) {
        // Block size 8 over 56 replications: 7 blocks, so worker counts
        // both below and far above the block count are exercised.
        let job = job(56, seed);
        let reference = LocalRunner::new(1).with_block_size(8).run(&job).unwrap();
        let queued = QueueRunner::new(workers)
            .with_block_size(8)
            .with_max_attempts(fail_attempts + 1)
            .with_worker(FlakyWorker::new(fail_mask, fail_attempts))
            .run(&job)
            .unwrap();
        prop_assert_eq!(&queued, &reference,
            "workers={} fail_mask={:#b} fail_attempts={}", workers, fail_mask, fail_attempts);
    }

    /// The default (derived) block rule is shared too: queue and local
    /// runners agree for arbitrary job sizes without explicit block sizes.
    #[test]
    fn queue_runner_matches_local_runner_for_arbitrary_job_sizes(
        reps in 1u64..200,
        workers in 1usize..=16,
        threads in 1usize..=8,
    ) {
        let job = job(reps, 11);
        let local = LocalRunner::new(threads).run(&job).unwrap();
        let queued = QueueRunner::new(workers).run(&job).unwrap();
        prop_assert_eq!(&queued, &local, "reps={} workers={} threads={}", reps, workers, threads);
    }

    /// A grid's jobs on one queue, any failed-lease pattern: the completion
    /// hook sees every job exactly once, with its final summary.
    #[test]
    fn every_job_of_a_grid_reaches_the_hook_once_with_its_final_summary(
        workers in 1usize..=8,
        fail_mask in 0u64..256,
        reps in proptest::collection::vec(1u64..60, 1..5),
    ) {
        let jobs: Vec<Job> = reps.iter().enumerate().map(|(i, &r)| job(r, i as u64)).collect();
        let finished = Mutex::new(Vec::new());
        let summaries = QueueRunner::new(workers)
            .with_block_size(8)
            .with_max_attempts(2)
            .with_worker(FlakyWorker::new(fail_mask, 1))
            .run_jobs(&jobs, &|job, summary| {
                finished.lock().unwrap().push((job, summary.clone()));
                Ok(())
            })
            .unwrap();
        let mut finished = finished.into_inner().unwrap();
        finished.sort_by_key(|(job, _)| *job);
        prop_assert_eq!(finished.iter().map(|f| f.0).collect::<Vec<_>>(), (0..jobs.len()).collect::<Vec<_>>());
        for (job, summary) in finished {
            let local = LocalRunner::new(1).with_block_size(8).run(&jobs[job]).unwrap();
            prop_assert_eq!(&summary, &local, "job {}", job);
            prop_assert_eq!(&summaries[job], &local, "job {}", job);
        }
    }
}

/// Counts retries across the pool.
#[derive(Default)]
struct Retries(AtomicU64);

impl QueueObserver for Retries {
    fn on_retry(&self, _w: usize, _i: usize, _a: u32, _e: &SpecError, _s: QueueStatus) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// A failing completion hook fails the run once the queue drains; it is
/// never retried as a failed lease.
#[test]
fn a_hook_error_fails_the_run_without_retrying_a_lease() {
    let jobs: Vec<Job> = (0..3).map(|seed| job(40, seed)).collect();
    let retries = Arc::new(Retries::default());
    let err = QueueRunner::new(2)
        .with_observer(retries.clone())
        .run_jobs(&jobs, &|job, _| match job {
            1 => Err(SpecError::invalid("store full")),
            _ => Ok(()),
        })
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        SpecError::invalid("store full").to_string()
    );
    assert_eq!(retries.0.load(Ordering::Relaxed), 0);
}
