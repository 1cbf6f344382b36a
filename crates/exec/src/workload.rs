//! The [`Workload`] trait: what a runner actually replicates.
//!
//! A [`Workload`] is anything that can run replication `i` (seeded by the
//! workspace contract) into a mergeable accumulator. The canonical
//! fixed-block reduction — the partition rule that makes results
//! bit-identical across thread and worker counts — is written once,
//! generically: `run_workload_block` is the one per-block replication
//! loop, `run_workload_sequential` folds the blocks in order on one
//! thread (the observed path of every runner), [`run_workload_local`]
//! spreads them over a thread pool, and [`crate::QueueRunner`] leases them
//! from one work queue for a whole grid of either kind.
//!
//! Two implementations ship:
//!
//! * [`Job`] (accumulator [`Summary`]) — one replication is one
//!   single-task engine run; [`crate::LocalRunner`]'s
//!   [`run`](crate::Runner::run) routes through the generic reduction.
//! * [`crate::ExecutiveJob`] (accumulator [`crate::ExecutiveSummary`]) —
//!   one replication is one seeded EDF-executive hyperperiod horizon.
//!
//! # Determinism contract
//!
//! The reduction never depends on thread or worker count: blocks are
//! sized by a function of the replication count alone
//! (`canonical_block_size`), each block is reduced sequentially by a
//! pooled [`Workload::Rep`] driver, and the per-block partials merge in
//! ascending block order.
//!
//! [`Job`]: crate::Job

use crate::job::Replicator;
use crate::queue::resolve_workers;
use crate::runner::canonical_block_size;
use eacp_sim::{NoopObserver, Observer, Summary};
use std::sync::atomic::{AtomicU64, Ordering};

/// A replication unit a runner can reduce: build a pooled per-block
/// driver, run seeded replications through it, merge the partials.
pub trait Workload: Sync {
    /// The mergeable accumulator replications absorb into.
    type Acc: Send + Clone;
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
    /// contract, streaming its engine events into `obs`, and absorbs its
    /// outcome into `acc`.
    fn run_one<O: Observer + ?Sized>(&mut self, replication: u64, acc: &mut Self::Acc, obs: &mut O);
}

/// [`Workload`] for the single-task Monte-Carlo [`Job`](crate::Job): one
/// replication is one engine run, accumulated into a [`Summary`]. The
/// pooled driver is the [`Replicator`] — the zero-allocation hot path the
/// `alloc-count` witness pins.
impl Workload for crate::job::Job {
    type Acc = Summary;
    type Rep<'w> = Replicator<'w>;

    fn replications(&self) -> u64 {
        crate::job::Job::replications(self)
    }

    fn empty_acc(&self) -> Summary {
        Summary::empty()
    }

    fn merge_acc(into: &mut Summary, part: &Summary) {
        into.merge(part);
    }

    fn replicator(&self) -> Replicator<'_> {
        crate::job::Job::replicator(self)
    }
}

/// The [`Replicator`] streams the replication bracket into the observer.
impl Replicate for Replicator<'_> {
    type Acc = Summary;

    fn run_one<O: Observer + ?Sized>(&mut self, replication: u64, acc: &mut Summary, obs: &mut O) {
        let out = self.run_replication(replication, obs);
        acc.absorb(&out);
    }
}

/// Reduces one contiguous block `[lo, hi)` of a workload sequentially,
/// streaming every replication into `obs`: one pooled driver serves the
/// whole block. The one per-block replication loop of the crate — local
/// threads, queue leases and `eacp serve` answers all run their blocks
/// through it.
// audit:setup: per-block orchestration — builds the pooled driver and the
// empty accumulator once; the replication loop itself is `run_one`, which
// stays under the hot-path allocation rule.
pub(crate) fn run_workload_block<W: Workload + ?Sized, O: Observer + ?Sized>(
    workload: &W,
    lo: u64,
    hi: u64,
    obs: &mut O,
) -> W::Acc {
    let mut driver = workload.replicator();
    let mut partial = workload.empty_acc();
    for rep in lo..hi {
        driver.run_one(rep, &mut partial, obs);
    }
    partial
}

/// Reduces the whole workload on the calling thread: its canonical blocks
/// in ascending order, each merged as it finishes, every replication
/// streamed into `obs`. The one-thread path of [`run_workload_local`] and
/// every runner's [`run_observed`](crate::Runner::run_observed): a shared
/// observer imposes a replication order, and the same canonical blocks
/// keep the aggregate bit-identical to the parallel fast paths.
pub(crate) fn run_workload_sequential<W: Workload + ?Sized, O: Observer + ?Sized>(
    workload: &W,
    block_size_override: u64,
    obs: &mut O,
) -> W::Acc {
    let reps = workload.replications();
    let block = canonical_block_size(block_size_override, reps);
    let mut total = workload.empty_acc();
    for b in 0..reps.div_ceil(block) {
        let lo = b * block;
        let partial = run_workload_block(workload, lo, (lo + block).min(reps), obs);
        W::merge_acc(&mut total, &partial);
    }
    total
}

/// The canonical in-process reduction of any [`Workload`]: fixed-size
/// blocks handed to a work-stealing pool of `threads` threads (0 =
/// available parallelism, never more than the blocks), partials merged in
/// ascending block order. Bit-identical for any `threads` value —
/// including the sequential one-thread path.
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
    let threads = resolve_workers(threads).min(n_blocks.max(1) as usize);
    if threads <= 1 {
        return run_workload_sequential(workload, block_size_override, &mut NoopObserver);
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
                    local.push((b, run_workload_block(workload, lo, hi, &mut NoopObserver)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::queue::QueueRunner;
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
            let queued = QueueRunner::new(workers)
                .with_max_attempts(3)
                .run(&job)
                .unwrap();
            assert_eq!(queued, reference, "workers = {workers}");
        }
    }
}
