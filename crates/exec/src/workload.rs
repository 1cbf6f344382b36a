//! The [`Workload`] trait: what a runner actually replicates.
//!
//! The execution core used to be welded to one replication unit — a
//! single-task [`Job`] reduced into a [`Summary`]. This module abstracts
//! the unit out: a [`Workload`] is anything that can run replication `i`
//! (seeded by the workspace contract) into a mergeable accumulator, and
//! the canonical fixed-block reduction — the partition rule that makes
//! results bit-identical across thread and worker counts — is written
//! once, generically, in [`run_workload_local`] and
//! [`run_workload_queued`].
//!
//! Two implementations ship:
//!
//! * [`Job`] (accumulator [`Summary`]) — the existing single-task
//!   replication path. [`crate::LocalRunner::run`] routes through the
//!   generic reduction, and the golden-identity tests pin it bit-identical
//!   to the pre-refactor behavior.
//! * [`crate::ExecutiveJob`] (accumulator [`crate::ExecutiveSummary`]) —
//!   one replication is one seeded EDF-executive hyperperiod horizon.
//!
//! # Determinism contract
//!
//! The reduction never depends on thread or worker count: blocks are
//! sized by [`canonical_block_size`] (a function of the replication count
//! alone), each block is reduced sequentially by a pooled
//! [`Workload::Rep`] driver, and the per-block partials merge in
//! ascending block order.

use crate::queue::{QueueObserver, WorkQueue};
use crate::runner::{canonical_block_size, lease_batches};
use eacp_sim::{NoopObserver, Summary};
use eacp_spec::SpecError;
use std::sync::atomic::{AtomicU64, Ordering};

/// A replication unit a runner can reduce: build a pooled per-block
/// driver, run seeded replications through it, merge the partials.
pub trait Workload: Sync {
    /// The mergeable accumulator replications absorb into.
    type Acc: Send;
    /// The pooled per-block replication driver — built once per block
    /// ([`Workload::replicator`]), then reset per replication, so the
    /// replication loop itself allocates nothing.
    type Rep<'w>: Replicate<Acc = Self::Acc>
    where
        Self: 'w;

    /// Number of replications the workload plans.
    fn replications(&self) -> u64;

    /// A fresh accumulator: the identity element of [`Workload::merge_acc`].
    fn empty_acc(&self) -> Self::Acc;

    /// Merges a partial into the running total. Callers merge partials in
    /// ascending block order, which is what makes float moments
    /// bit-identical across schedules.
    fn merge_acc(into: &mut Self::Acc, part: &Self::Acc);

    /// Builds the pooled driver for one block (setup, may allocate).
    fn replicator(&self) -> Self::Rep<'_>;
}

/// Runs one seeded replication of a [`Workload`] into its accumulator.
pub trait Replicate {
    /// The accumulator type (matches the owning workload's).
    type Acc;

    /// Runs replication `replication` under the workspace seeding
    /// contract and absorbs its outcome into `acc`.
    fn run_one(&mut self, replication: u64, acc: &mut Self::Acc);
}

/// [`Workload`] for the single-task Monte-Carlo [`Job`]: one replication
/// is one engine run, accumulated into a [`Summary`]. The pooled driver is
/// the existing [`crate::Replicator`] — the zero-allocation hot path the
/// `alloc-count` witness pins.
impl Workload for crate::job::Job {
    type Acc = Summary;
    type Rep<'w> = JobReplicate<'w>;

    fn replications(&self) -> u64 {
        crate::job::Job::replications(self)
    }

    fn empty_acc(&self) -> Summary {
        Summary::empty()
    }

    fn merge_acc(into: &mut Summary, part: &Summary) {
        into.merge(part);
    }

    fn replicator(&self) -> JobReplicate<'_> {
        JobReplicate(crate::job::Job::replicator(self))
    }
}

/// The [`Job`] driver: wraps the pooled [`crate::Replicator`] on the blind
/// fast path (the observed paths stay on [`crate::Runner::run_observed`]).
///
/// [`Job`]: crate::job::Job
pub struct JobReplicate<'w>(crate::job::Replicator<'w>);

impl Replicate for JobReplicate<'_> {
    type Acc = Summary;

    fn run_one(&mut self, replication: u64, acc: &mut Summary) {
        let out = self.0.run_replication(replication, &mut NoopObserver);
        acc.absorb(&out);
    }
}

/// Reduces one contiguous block `[lo, hi)` of a workload sequentially:
/// one pooled driver serves the whole block.
// audit:setup: per-block orchestration — builds the pooled driver and the
// empty accumulator once; the replication loop itself is `run_one`, which
// stays under the hot-path allocation rule.
pub(crate) fn run_workload_block<W: Workload + ?Sized>(workload: &W, lo: u64, hi: u64) -> W::Acc {
    let mut driver = workload.replicator();
    let mut partial = workload.empty_acc();
    for rep in lo..hi {
        driver.run_one(rep, &mut partial);
    }
    partial
}

/// Resolves a requested thread count (0 = available parallelism), clamped
/// to the number of blocks.
fn resolve_threads(threads: usize, blocks: u64) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    t.clamp(1, blocks.max(1) as usize)
}

/// The canonical in-process reduction of any [`Workload`]: fixed-size
/// blocks handed to a work-stealing thread pool, partials merged in
/// ascending block order. Bit-identical for any `threads` value —
/// including the sequential `threads <= 1` path.
// audit:setup: per-run orchestration — worker vectors and the block index
// are allocated once per run; the replication loop is `run_workload_block`.
pub fn run_workload_local<W: Workload>(
    workload: &W,
    threads: usize,
    block_size_override: u64,
) -> W::Acc {
    let reps = workload.replications();
    let block = canonical_block_size(block_size_override, reps);
    let n_blocks = reps.div_ceil(block);
    let threads = resolve_threads(threads, n_blocks);
    if threads <= 1 {
        let mut total = workload.empty_acc();
        for b in 0..n_blocks {
            let lo = b * block;
            let hi = (lo + block).min(reps);
            let partial = run_workload_block(workload, lo, hi);
            W::merge_acc(&mut total, &partial);
        }
        return total;
    }

    let next = AtomicU64::new(0);
    let mut worker_results: Vec<Vec<(u64, W::Acc)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= n_blocks {
                        break;
                    }
                    let lo = b * block;
                    let hi = (lo + block).min(reps);
                    local.push((b, run_workload_block(workload, lo, hi)));
                }
                local
            }));
        }
        for h in handles {
            // audit:allow(panic): re-raises a worker thread's panic on
            // the caller thread instead of silently dropping blocks.
            worker_results.push(h.join().expect("simulation worker panicked"));
        }
    });

    // Canonical order: place each block partial at its index, then merge
    // ascending — the thread schedule is forgotten here.
    let mut by_index: Vec<Option<W::Acc>> = Vec::with_capacity(n_blocks as usize);
    by_index.resize_with(n_blocks as usize, || None);
    for (b, partial) in worker_results.into_iter().flatten() {
        by_index[b as usize] = Some(partial);
    }
    let mut total = workload.empty_acc();
    for partial in by_index.iter() {
        // audit:allow(panic): the work-stealing loop hands out each block
        // index exactly once and every worker joined above.
        W::merge_acc(&mut total, partial.as_ref().expect("every block reduced"));
    }
    total
}

/// The canonical work-queue reduction of any [`Workload`]: the same fixed
/// blocks leased one per lease to a worker pool through a [`WorkQueue`]
/// (with lease retry), partials merged in ascending block order.
/// Bit-identical to
/// [`run_workload_local`] for any worker count and any failure/retry
/// schedule, because a failed lease discards its partial wholesale and the
/// re-run is deterministic.
///
/// # Errors
///
/// Fails when an assignment exhausts its attempt budget (queue poisoned).
// audit:setup: per-run orchestration — the queue and result slots are
// allocated once per run; the replication loop is `run_workload_block`.
pub fn run_workload_queued<W: Workload>(
    workload: &W,
    workers: usize,
    max_attempts: u32,
    block_size_override: u64,
    obs: &dyn QueueObserver,
) -> Result<W::Acc, SpecError> {
    // In-process leases gain nothing from batching: one block each.
    let (pool, batches) = lease_batches(
        &[workload.replications()],
        block_size_override,
        workers,
        false,
    );
    let queue = WorkQueue::new(batches).with_max_attempts(max_attempts);
    let partials = queue.drain(pool, obs, |_worker, lease| {
        Ok(lease
            .item()
            .1
            .blocks()
            .map(|block| run_workload_block(workload, block.lo, block.hi))
            .collect::<Vec<_>>())
    })?;
    let mut total = workload.empty_acc();
    for partial in partials.iter().flatten() {
        W::merge_acc(&mut total, partial);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::queue::NoopQueueObserver;
    use crate::runner::{LocalRunner, Runner};
    use eacp_spec::{ExperimentSpec, McSpec};

    fn job(reps: u64) -> Job {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed: 42,
            threads: 0,
        };
        Job::from_spec(&spec).unwrap()
    }

    #[test]
    fn generic_local_reduction_matches_the_runner_bit_for_bit() {
        let job = job(300);
        let reference = LocalRunner::new(1).run(&job).unwrap();
        for threads in [1usize, 2, 5] {
            assert_eq!(
                run_workload_local(&job, threads, 0),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn generic_queued_reduction_matches_local_for_any_worker_count() {
        let job = job(250);
        let reference = run_workload_local(&job, 1, 0);
        for workers in [1usize, 3, 16] {
            let queued = run_workload_queued(&job, workers, 3, 0, &NoopQueueObserver).unwrap();
            assert_eq!(queued, reference, "workers = {workers}");
        }
    }
}
