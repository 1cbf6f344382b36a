//! The [`Runner`] trait and the local multi-threaded implementation.
//!
//! # Determinism contract
//!
//! A runner's result must be a pure function of the job — never of the
//! machine it ran on. [`LocalRunner`] achieves this with *canonical block
//! reduction*: replications are split into fixed-size blocks whose size
//! depends only on the replication count, each block is reduced
//! sequentially into a partial [`Summary`], and the partials are merged in
//! ascending block order. Thread count only changes which worker picks up
//! which block, so the merged result is bit-identical for 1 thread, 64
//! threads, or the sequential observed path.

use crate::job::Job;
use crate::queue::BlockBatch;
use eacp_sim::{Observer, Summary};
use eacp_spec::SpecError;

/// Executes a [`Job`] into a [`Summary`].
///
/// Implementations decide *where* replications run (local threads today;
/// the ROADMAP's batch/remote executors later) but must all preserve the
/// per-replication seeding contract, so every runner produces the same
/// per-replication outcomes.
pub trait Runner {
    /// Short implementation name for logs and reports.
    fn name(&self) -> &'static str;

    /// Runs the whole job on the fast (unobserved) path.
    fn run(&self, job: &Job) -> Result<Summary, SpecError>;

    /// Runs every job of a grid on the fast path and returns their
    /// summaries in job order, each bit-identical to [`Runner::run`] of
    /// that job.
    ///
    /// The default runs the jobs one after another. A runner that can
    /// overlap them overrides it: [`crate::QueueRunner`] leases the whole
    /// grid's canonical blocks from one queue.
    fn run_jobs(&self, jobs: &[Job]) -> Result<Vec<Summary>, SpecError> {
        jobs.iter().map(|job| self.run(job)).collect()
    }

    /// Runs the whole job, streaming every replication bracket and engine
    /// event into `obs`.
    ///
    /// Observation imposes an ordering on the event stream, so runners may
    /// fall back to a sequential schedule here; the aggregate is still
    /// bit-identical to [`Runner::run`].
    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError>;

    /// Runs an executive Monte-Carlo workload: N seeded hyperperiod
    /// horizons reduced into an [`ExecutiveSummary`]
    /// ([`crate::ExecutiveSummary`]).
    ///
    /// The default is the sequential canonical reduction; implementations
    /// override it to parallelize, and the determinism contract carries
    /// over unchanged — same canonical blocks, same ascending merge, so
    /// the summary is bit-identical on every runner and pool size.
    ///
    /// [`ExecutiveSummary`]: crate::ExecutiveSummary
    ///
    /// # Errors
    ///
    /// Scheduling failures only (e.g. a work queue exhausting its retry
    /// budget); the workload itself cannot fail after validation.
    fn run_executive(
        &self,
        job: &crate::ExecutiveJob,
    ) -> Result<crate::ExecutiveSummary, SpecError> {
        Ok(crate::workload::run_workload_local(job, 1, 0))
    }
}

/// Multi-threaded in-process runner (std scoped threads, no work queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRunner {
    threads: usize,
    block_size: u64,
}

impl Default for LocalRunner {
    fn default() -> Self {
        Self::new(0)
    }
}

impl LocalRunner {
    /// Creates a runner with the given worker count (0 = available
    /// parallelism).
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            block_size: 0,
        }
    }

    /// Overrides the reduction block size (0 = derive from the replication
    /// count). Changing the block size may change float rounding in the
    /// last ulp; keeping it fixed guarantees bit-identical results across
    /// thread counts.
    pub fn with_block_size(mut self, block_size: u64) -> Self {
        self.block_size = block_size;
        self
    }

    /// The reduction block size for a job of `replications`.
    ///
    /// Depends only on the replication count (never on the thread count):
    /// that is what makes the reduction canonical.
    #[cfg(test)]
    fn effective_block(&self, replications: u64) -> u64 {
        canonical_block_size(self.block_size, replications)
    }
}

/// The largest block [`canonical_block_size`] derives, and the most
/// replications a lease of several blocks may carry: a batched request
/// then never holds a worker longer than the largest single block would,
/// so per-request timeouts keep their meaning.
pub(crate) const MAX_CANONICAL_BLOCK: u64 = 8192;

/// The canonical reduction block size for a job of `replications`
/// (`override_size` wins when positive).
///
/// This is the one partition rule shared by every runner in the crate —
/// [`LocalRunner`] and [`crate::QueueRunner`] — and it depends only on the
/// replication count, never on the thread or worker count. Merging the
/// per-block partials in ascending block order is therefore bit-identical
/// no matter which runner, schedule or pool size produced them.
pub(crate) fn canonical_block_size(override_size: u64, replications: u64) -> u64 {
    if override_size > 0 {
        override_size
    } else {
        // ~64 blocks for large jobs (ample parallelism), bounded below
        // so tiny jobs don't degenerate into per-replication merges.
        replications.div_ceil(64).clamp(16, MAX_CANONICAL_BLOCK)
    }
}

/// How many consecutive canonical blocks one lease covers when a grid of
/// `n_blocks` canonical blocks in all goes to a pool of `pool` workers,
/// for a cell whose blocks hold `block` replications.
///
/// About four leases per worker, counted over the whole grid's blocks
/// rather than one cell's: enough to balance a pool whose workers run at
/// different speeds, few enough that a lease's round trip is paid once per
/// run of blocks rather than once per block. A batch carries at most
/// [`MAX_CANONICAL_BLOCK`] replications and [`MAX_REQUEST_BLOCKS`] blocks,
/// and always at least one block; [`lease_batches`] cuts each cell's run
/// separately, so a batch never crosses a cell. Results never depend on
/// it: every batch is answered block by block, and the merge folds the
/// same blocks in the same order whatever the batch length.
///
/// [`MAX_REQUEST_BLOCKS`]: crate::remote::MAX_REQUEST_BLOCKS
pub(crate) fn batch_len(n_blocks: u64, block: u64, pool: usize) -> u64 {
    let leases = 4u64.saturating_mul(pool.max(1) as u64);
    n_blocks
        .div_ceil(leases)
        .min(crate::remote::MAX_REQUEST_BLOCKS)
        .min(MAX_CANONICAL_BLOCK / block.max(1))
        .max(1)
}

/// The lease plan of a grid of jobs, one entry of `replications` per job,
/// on a pool of `workers` (0 = available parallelism): the pool size —
/// never more workers than canonical blocks in the grid — and every job's
/// canonical blocks grouped into consecutive [`BlockBatch`]es, each tagged
/// with its job's position, job by job and in block order. Batches hold
/// [`batch_len`] blocks of the grid's total when `batched`, one block each
/// otherwise, and never cross a job, so a one-job grid is laid out as that
/// job alone. The one place the queued runners lay out their leases.
// audit:setup: per-run lease planning — one batch list per grid, built
// before any replication runs.
pub(crate) fn lease_batches(
    replications: &[u64],
    block_size_override: u64,
    workers: usize,
    batched: bool,
) -> (usize, Vec<(usize, BlockBatch)>) {
    let blocks: Vec<(u64, u64)> = replications
        .iter()
        .map(|&reps| {
            let block = canonical_block_size(block_size_override, reps);
            (block, reps.div_ceil(block))
        })
        .collect();
    let total = blocks
        .iter()
        .fold(0u64, |sum, &(_, n)| sum.saturating_add(n));
    let pool = crate::queue::resolve_workers(workers)
        .clamp(1, usize::try_from(total.max(1)).unwrap_or(usize::MAX));
    let mut batches = Vec::new();
    for (job, (&reps, &(block, n_blocks))) in replications.iter().zip(&blocks).enumerate() {
        let len = if batched {
            batch_len(total, block, pool)
        } else {
            1
        };
        let mut first = 0;
        while first < n_blocks {
            let batch = BlockBatch {
                index: batches.len() as u64,
                first,
                lo: first * block,
                hi: (first + len).saturating_mul(block).min(reps),
                size: block,
            };
            batches.push((job, batch));
            first += len;
        }
    }
    (pool, batches)
}

/// Reduces one block of replications sequentially.
///
/// One [`Job::replicator`] serves the whole block: executor, engine
/// scratch and (for spec jobs) the policy/fault instances are built once
/// here and reused — reset, not reallocated — for every replication.
pub(crate) fn run_block<O: Observer + ?Sized>(job: &Job, lo: u64, hi: u64, obs: &mut O) -> Summary {
    let mut replicator = job.replicator();
    let mut partial = Summary::empty();
    for rep in lo..hi {
        let out = replicator.run_replication(rep, obs);
        partial.absorb(&out);
    }
    partial
}

/// Merges per-block partials in ascending block order.
pub(crate) fn merge_blocks(blocks: impl IntoIterator<Item = Summary>) -> Summary {
    let mut total = Summary::empty();
    for partial in blocks {
        total.merge(&partial);
    }
    total
}

/// Runs the whole job sequentially over its canonical blocks, streaming
/// replication brackets and engine events into `obs`.
///
/// This is the shared observed path of every runner: a shared observer
/// imposes a replication order, so runners fall back to this sequential
/// schedule — over the same canonical blocks — and the aggregate stays
/// bit-identical to their parallel fast paths.
// audit:setup: per-job orchestration — allocates one partial per block,
// never inside the replication loop (that is `run_block`, which stays
// under the hot-path allocation rule).
pub(crate) fn run_sequential_observed<O: Observer + ?Sized>(
    job: &Job,
    block_size_override: u64,
    obs: &mut O,
) -> Summary {
    let reps = job.replications();
    let block = canonical_block_size(block_size_override, reps);
    let n_blocks = reps.div_ceil(block);
    let mut partials = Vec::with_capacity(n_blocks as usize);
    for b in 0..n_blocks {
        let lo = b * block;
        let hi = (lo + block).min(reps);
        partials.push(run_block(job, lo, hi, obs));
    }
    merge_blocks(partials)
}

impl Runner for LocalRunner {
    fn name(&self) -> &'static str {
        "local"
    }

    /// The fast path routes through the generic [`Workload`] reduction
    /// ([`crate::workload::run_workload_local`]): the [`Job`] impl of the
    /// trait drives the same pooled [`crate::Replicator`] over the same
    /// canonical blocks, so this is the pre-refactor reduction verbatim —
    /// the golden-identity tests pin it bit for bit.
    ///
    /// [`Workload`]: crate::workload::Workload
    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        Ok(crate::workload::run_workload_local(
            job,
            self.threads,
            self.block_size,
        ))
    }

    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        // A shared observer imposes a replication order; run sequentially
        // over the same canonical blocks so the aggregate stays
        // bit-identical to the parallel fast path.
        Ok(run_sequential_observed(job, self.block_size, obs))
    }

    fn run_executive(
        &self,
        job: &crate::ExecutiveJob,
    ) -> Result<crate::ExecutiveSummary, SpecError> {
        Ok(crate::workload::run_workload_local(
            job,
            self.threads,
            self.block_size,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::{ExperimentSpec, McSpec};

    fn spec(reps: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed: 42,
            threads: 0,
        };
        spec
    }

    #[test]
    fn thread_count_never_changes_the_summary() {
        let job = Job::from_spec(&spec(400)).unwrap();
        let one = LocalRunner::new(1).run(&job).unwrap();
        for threads in [2, 3, 7, 16] {
            let many = LocalRunner::new(threads).run(&job).unwrap();
            assert_eq!(one, many, "threads = {threads}");
        }
    }

    #[test]
    fn observed_run_matches_the_fast_path_bit_for_bit() {
        let job = Job::from_spec(&spec(300)).unwrap();
        let fast = LocalRunner::new(4).run(&job).unwrap();
        let mut counter = CountingObserver::default();
        let observed = LocalRunner::new(4)
            .run_observed(&job, &mut counter)
            .unwrap();
        assert_eq!(fast, observed);
        assert_eq!(counter.started, 300);
        assert_eq!(counter.finished, 300);
        assert!(counter.events > 0);
    }

    #[derive(Default)]
    struct CountingObserver {
        started: u64,
        finished: u64,
        events: u64,
    }
    impl Observer for CountingObserver {
        fn on_replication_start(&mut self, _rep: u64, _seed: u64) {
            self.started += 1;
        }
        fn on_replication_end(&mut self, _rep: u64, _out: &eacp_sim::RunOutcome) {
            self.finished += 1;
        }
        fn on_event(&mut self, _event: &eacp_sim::TraceEvent) {
            self.events += 1;
        }
    }

    #[test]
    fn block_size_depends_only_on_replications() {
        let r = LocalRunner::new(0);
        assert_eq!(r.effective_block(10), 16);
        assert_eq!(r.effective_block(10_000), 157);
        assert_eq!(r.effective_block(1_000_000), 8192);
        assert_eq!(
            LocalRunner::new(0).with_block_size(64).effective_block(10),
            64
        );
    }

    #[test]
    fn lease_batches_tile_the_canonical_blocks_in_order() {
        use crate::remote::MAX_REQUEST_BLOCKS;
        // About four leases per worker, never past a request's caps.
        assert_eq!(batch_len(63, 32, 2), 8);
        assert_eq!(batch_len(7, 8, 1), 2);
        assert_eq!(batch_len(7, 8, 2), 1);
        assert_eq!(batch_len(0, 16, 1), 1);
        assert_eq!(batch_len(1 << 40, 1, 1), MAX_REQUEST_BLOCKS);
        assert_eq!(batch_len(1 << 20, 64, 1), MAX_CANONICAL_BLOCK / 64);
        assert_eq!(batch_len(1 << 20, MAX_CANONICAL_BLOCK, 1), 1);
        assert_eq!(batch_len(4, u64::MAX, 1), 1, "one block always fits");
        for batched in [false, true] {
            for (reps, workers) in [(0, 1), (10, 4), (2_000, 2), (2_017, 3), (100_000, 1)] {
                let (pool, batches) = lease_batches(&[reps], 0, workers, batched);
                let block = canonical_block_size(0, reps);
                let n_blocks = reps.div_ceil(block);
                assert_eq!(pool, workers.min(n_blocks.max(1) as usize));
                // The one-job layout: runs of `batch_len` blocks over the
                // job's own block count.
                let len = if batched {
                    batch_len(n_blocks, block, pool)
                } else {
                    1
                };
                let expected: Vec<_> = (0..n_blocks.div_ceil(len))
                    .map(|index| {
                        let first = index * len;
                        let batch = BlockBatch {
                            index,
                            first,
                            lo: first * block,
                            hi: ((first + len) * block).min(reps),
                            size: block,
                        };
                        (0, batch)
                    })
                    .collect();
                assert_eq!(batches, expected, "reps {reps}, batched {batched}");
            }
        }
    }

    #[test]
    fn grid_leases_tile_each_cell_in_order_and_never_cross_one() {
        use crate::remote::MAX_REQUEST_BLOCKS;
        let grids: [&[u64]; 5] = [
            &[2_000; 12],
            &[1_024; 4],
            &[0, 10, 2_017, 100_000, 2_000],
            &[600_000, 16],
            &[40; 3],
        ];
        for replications in grids {
            for workers in [1usize, 2, 3, 16] {
                for batched in [false, true] {
                    let (pool, batches) = lease_batches(replications, 0, workers, batched);
                    let total: u64 = replications
                        .iter()
                        .map(|&reps| reps.div_ceil(canonical_block_size(0, reps)))
                        .sum();
                    assert_eq!(pool, workers.min(total.max(1) as usize));
                    for (i, &(job, batch)) in batches.iter().enumerate() {
                        assert_eq!(batch.index, i as u64, "grid lease order");
                        assert!(batch.hi <= replications[job], "inside its own cell");
                        assert!(batch.hi - batch.lo <= MAX_CANONICAL_BLOCK);
                        assert!(batch.block_count() <= MAX_REQUEST_BLOCKS);
                        let len = if batched {
                            batch_len(total, batch.size, pool)
                        } else {
                            1
                        };
                        assert!(batch.block_count() <= len);
                    }
                    // Job by job, each job's batches tile its canonical
                    // blocks in ascending order.
                    assert!(batches.windows(2).all(|w| w[0].0 <= w[1].0));
                    for (job, &reps) in replications.iter().enumerate() {
                        let block = canonical_block_size(0, reps);
                        let blocks: Vec<_> = batches
                            .iter()
                            .filter(|(j, _)| *j == job)
                            .flat_map(|(_, batch)| batch.blocks())
                            .collect();
                        assert_eq!(blocks.len() as u64, reps.div_ceil(block));
                        for (b, a) in blocks.iter().enumerate() {
                            let b = b as u64;
                            assert_eq!((a.block, a.lo), (b, b * block));
                            assert_eq!(a.hi, (a.lo + block).min(reps));
                        }
                    }
                }
            }
        }
        // Twelve cells of 2,000 replications (63 blocks of 32 each) on two
        // workers: one lease per cell, where each cell alone would take
        // eight. Four cells of 1,024 (64 blocks of 16): two per cell.
        assert_eq!(lease_batches(&[2_000; 12], 0, 2, true).1.len(), 12);
        assert_eq!(lease_batches(&[2_000], 0, 2, true).1.len(), 8);
        assert_eq!(lease_batches(&[1_024; 4], 0, 2, true).1.len(), 8);
    }

    #[test]
    fn more_threads_than_blocks_is_fine() {
        let job = Job::from_spec(&spec(20)).unwrap();
        let wide = LocalRunner::new(64).run(&job).unwrap();
        let narrow = LocalRunner::new(1).run(&job).unwrap();
        assert_eq!(wide, narrow);
        assert_eq!(wide.replications, 20);
    }
}
