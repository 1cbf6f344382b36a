//! The work-queue execution scheduler: a [`WorkQueue`] of leasable
//! assignments drained by a pool of workers, and the [`QueueRunner`] that
//! puts the canonical reduction blocks of a grid of jobs — single-task
//! [`Job`]s or [`ExecutiveJob`]s — on that queue.
//!
//! This is the ROADMAP's batch-execution scheduler. The moving parts:
//!
//! * **[`WorkQueue`]** — a generic queue of indexed assignments. Workers
//!   [`lease`](WorkQueue::lease) an assignment, then either
//!   [`complete`](WorkQueue::complete) it or [`fail`](WorkQueue::fail) it;
//!   a failed (or abandoned) lease is put back on the queue and retried by
//!   whichever worker gets to it next, up to a per-assignment attempt
//!   budget. Exhausting the budget poisons the queue: every worker drains
//!   out and the scheduler surfaces the fatal error. Two liveness guards
//!   back the budget:
//!   - **Drop-guard**: a [`Lease`] dropped without settling (a caller bug,
//!     a panic mid-assignment) re-queues its assignment as a failed
//!     attempt instead of stranding it and deadlocking the drain.
//!   - **Lease deadline**: with
//!     [`with_lease_timeout`](WorkQueue::with_lease_timeout), an expired
//!     lease is reclaimed by whichever peer notices (a worker wedged in
//!     an unbounded wait cannot settle, but its assignment still moves);
//!     a late settle from the original holder is ignored — deterministic
//!     re-execution makes the duplicate result bit-identical anyway.
//! * **[`Worker`]** — *where* one lease executes. A lease is a
//!   [`BlockBatch`]: a run of consecutive canonical blocks, answered with
//!   one partial [`Summary`] per block. The in-process implementation
//!   ([`InProcessWorker`]) runs the blocks on the calling thread; the
//!   networked [`RemoteWorker`](crate::remote::RemoteWorker) ships the
//!   job's spec and the whole run to an `eacp serve` process in one
//!   request and plugs in without touching any call site.
//! * **[`QueueRunner`]** — the [`Runner`] built from the two: it splits a
//!   job — or every job of a grid ([`Runner::run_jobs`],
//!   [`Runner::run_executive_jobs`]) — into the same
//!   fixed-size canonical blocks as [`LocalRunner`], groups each job's
//!   consecutive blocks into batches by one fixed rule (about four leases
//!   per pool worker over the grid's blocks, for a worker that
//!   [serves batches](Worker::serves_batches); one block per lease
//!   otherwise), queues every batch on one queue, drains it with a worker
//!   pool, and merges each job's per-block partials in ascending block
//!   order. The batch length only decides how many blocks travel
//!   together; the merge sees the same blocks in the same order whatever
//!   it is. Because a failed lease discards its partials
//!   wholesale — a batch is retried as a unit — and the re-run is
//!   deterministic (per-replication seeding), the merged result is
//!   **bit-identical to [`LocalRunner`] for any worker count and any
//!   failure/retry schedule**.
//!   Each job's summary is final when its last batch merges; the runner
//!   hands it to the grid's completion hook right then, so a grid's cells
//!   are recorded as they finish, in any order. Both workload kinds share
//!   this one drain and merge; executive jobs have no [`Worker`] seam and
//!   run in-process, one block per lease.
//! * **[`QueueObserver`]** — live scheduler telemetry: every lease, retry
//!   and completion, each with a [`QueueStatus`] snapshot (queue depth,
//!   outstanding leases, completions, retries).
//!
//! A grid runs on the same queue: [`crate::run_sweep_tiered`] hands every
//! cell's job to one [`Runner::run_jobs`] (or [`Runner::run_executive_jobs`])
//! call, so `--queue` leases blocks of the whole grid, with or without a
//! result store.
//!
//! [`LocalRunner`]: crate::LocalRunner

use crate::executive_mc::{ExecutiveJob, ExecutiveSummary};
use crate::job::Job;
use crate::runner::{lease_batches, JobDone, Runner};
use crate::workload::{run_workload_block, run_workload_sequential, Workload};
use eacp_sim::{NoopObserver, Observer, Summary};
use eacp_spec::SpecError;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

// Lease deadlines are the one place the scheduler reads a clock. They
// affect only *scheduling* — when an expired lease becomes reclaimable by
// a peer — never results: the canonical merge forgets the schedule, and a
// reclaimed assignment re-runs deterministically from its seeds.
#[allow(clippy::disallowed_types)]
type DeadlineClock = std::time::Instant; // audit:allow(determinism): scheduling-only deadline clock; results are schedule-invariant under the canonical reduction

/// Default per-assignment attempt budget: the first attempt plus two
/// retries.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// A leased assignment handle: the queue slot index, the work item, and
/// which attempt this is (1-based — attempt 2 means the first lease
/// failed).
///
/// A lease must be settled back into its queue via
/// [`WorkQueue::complete`] or [`WorkQueue::fail`]. Dropping it unsettled
/// — a panic mid-assignment, or a caller that simply forgets — triggers
/// the drop-guard: the assignment is re-queued as a failed attempt, so
/// peers keep draining instead of waiting forever on a completion that
/// cannot come.
pub struct Lease<'q, T: Clone> {
    queue: &'q WorkQueue<T>,
    /// Unique id of this specific lease; a reclaimed-then-settled lease
    /// is recognized (and ignored) by its stale ticket.
    ticket: u64,
    index: usize,
    attempt: u32,
    /// `Some` until settled; `None` disarms the drop-guard.
    item: Option<T>,
}

impl<T: Clone> Lease<'_, T> {
    /// Index of the assignment in the queue's original item order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// 1-based attempt number.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The work item itself.
    pub fn item(&self) -> &T {
        // audit:allow(panic): the item is present until `complete`/`fail`
        // consume the lease by value, so a live `&self` always holds it.
        self.item.as_ref().expect("lease already settled")
    }
}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for Lease<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease")
            .field("index", &self.index)
            .field("attempt", &self.attempt)
            .field("item", &self.item)
            .finish_non_exhaustive()
    }
}

impl<T: Clone> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.queue.resolve(
                self.ticket,
                self.index,
                self.attempt,
                item,
                Some(&SpecError::invalid(
                    "lease dropped without complete/fail (worker panicked or abandoned it)",
                )),
            );
        }
    }
}

/// A point-in-time snapshot of queue accounting, reported to
/// [`QueueObserver`]s and rendered by `eacp queue status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStatus {
    /// Total assignments the queue was created with.
    pub total: usize,
    /// Assignments waiting to be leased (the queue depth).
    pub pending: usize,
    /// Assignments currently leased to a worker.
    pub leased: usize,
    /// Assignments completed successfully.
    pub completed: usize,
    /// Failed/abandoned/expired leases that were put back on the queue.
    pub retries: u64,
}

/// Receives scheduler events from a draining [`WorkQueue`].
///
/// Callbacks take `&self` because they are invoked concurrently from every
/// worker thread; implementations use interior mutability (atomics, a
/// mutex) for anything they accumulate.
pub trait QueueObserver: Send + Sync {
    /// Worker `worker` leased assignment `index` (attempt `attempt`).
    fn on_lease(&self, worker: usize, index: usize, attempt: u32, status: QueueStatus) {
        let _ = (worker, index, attempt, status);
    }

    /// Worker `worker` completed assignment `index`.
    fn on_complete(&self, worker: usize, index: usize, status: QueueStatus) {
        let _ = (worker, index, status);
    }

    /// Worker `worker` failed (or abandoned) assignment `index`, or
    /// noticed its lease deadline expire; the assignment went back on the
    /// queue for another attempt.
    fn on_retry(
        &self,
        worker: usize,
        index: usize,
        attempt: u32,
        error: &SpecError,
        status: QueueStatus,
    ) {
        let _ = (worker, index, attempt, error, status);
    }
}

/// The do-nothing queue observer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopQueueObserver;

impl QueueObserver for NoopQueueObserver {}

/// An assignment waiting to be leased.
struct PendingItem<T> {
    index: usize,
    item: T,
    attempt: u32,
}

/// An assignment currently out on lease. Carries its own copy of the item
/// so an expired lease can be re-queued without the holder's cooperation.
struct InFlight<T> {
    ticket: u64,
    index: usize,
    attempt: u32,
    item: T,
    deadline: Option<DeadlineClock>,
}

struct QueueState<T> {
    pending: VecDeque<PendingItem<T>>,
    in_flight: Vec<InFlight<T>>,
    completed: usize,
    retries: u64,
    /// Deadline expiries reclaimed but not yet reported to an observer:
    /// `(index, expired attempt)` — drained by [`WorkQueue::take_expiries`].
    expiries: Vec<(usize, u32)>,
    next_ticket: u64,
    fatal: Option<SpecError>,
}

/// A queue of indexed work assignments with lease/complete/fail semantics.
///
/// The queue itself is execution-agnostic: items are whatever a scheduler
/// leases out — runs of replication blocks for [`QueueRunner`]. Blocking
/// [`lease`](WorkQueue::lease) calls
/// wake when work reappears (a failed lease re-queued) or when the queue
/// drains or is poisoned.
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    total: usize,
    max_attempts: u32,
    lease_timeout: Option<Duration>,
}

impl<T: Clone> WorkQueue<T> {
    /// Creates a queue over `items` with the default attempt budget.
    pub fn new(items: impl IntoIterator<Item = T>) -> Self {
        let pending: VecDeque<PendingItem<T>> = items
            .into_iter()
            .enumerate()
            .map(|(index, item)| PendingItem {
                index,
                item,
                attempt: 1,
            })
            .collect();
        let total = pending.len();
        Self {
            state: Mutex::new(QueueState {
                pending,
                in_flight: Vec::new(),
                completed: 0,
                retries: 0,
                expiries: Vec::new(),
                next_ticket: 0,
                fatal: None,
            }),
            ready: Condvar::new(),
            total,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            lease_timeout: None,
        }
    }

    /// Overrides the per-assignment attempt budget (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Sets a per-lease deadline: a lease not settled within `timeout`
    /// becomes reclaimable by peers (counted as a failed attempt, reported
    /// through [`QueueObserver::on_retry`]). This is the wedge-stall
    /// guard — a worker stuck in an unbounded wait cannot settle, but its
    /// assignment still moves. The deadline cannot unstick the wedged
    /// thread itself; pair it with workers whose blocking operations carry
    /// their own timeouts (the remote transport derives this deadline from
    /// its per-request timeout budget).
    pub fn with_lease_timeout(mut self, timeout: Duration) -> Self {
        self.lease_timeout = Some(timeout.max(Duration::from_millis(1)));
        self
    }

    /// Total assignments the queue was created with.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Locks the queue state.
    fn locked(&self) -> MutexGuard<'_, QueueState<T>> {
        locked(&self.state)
    }

    /// A snapshot of the queue accounting.
    pub fn status(&self) -> QueueStatus {
        let s = self.locked();
        QueueStatus {
            total: self.total,
            pending: s.pending.len(),
            leased: s.in_flight.len(),
            completed: s.completed,
            retries: s.retries,
        }
    }

    /// Re-queues every in-flight lease whose deadline has passed. Counts
    /// each as a failed attempt; exhausting the budget poisons the queue.
    fn reclaim_expired(&self, s: &mut QueueState<T>) {
        if self.lease_timeout.is_none() {
            return;
        }
        // audit:allow(determinism): scheduling-only deadline check.
        let now = DeadlineClock::now();
        let mut reclaimed = false;
        let mut i = 0;
        while i < s.in_flight.len() {
            if s.in_flight[i].deadline.is_some_and(|d| d <= now) {
                let e = s.in_flight.swap_remove(i);
                s.retries += 1;
                s.expiries.push((e.index, e.attempt));
                reclaimed = true;
                if e.attempt >= self.max_attempts {
                    s.fatal = Some(SpecError::invalid(format!(
                        "assignment {} lease expired after {} attempts \
                         (deadline {:?}; holder never settled)",
                        e.index,
                        e.attempt,
                        self.lease_timeout.unwrap_or_default(),
                    )));
                } else {
                    s.pending.push_back(PendingItem {
                        index: e.index,
                        item: e.item,
                        attempt: e.attempt + 1,
                    });
                }
            } else {
                i += 1;
            }
        }
        if reclaimed {
            self.ready.notify_all();
        }
    }

    /// Leases the next pending assignment, blocking while the queue is
    /// momentarily empty but other leases are still in flight (one of them
    /// may fail, expire, or re-queue its assignment).
    ///
    /// Returns `None` once the queue has drained (every assignment
    /// completed) or been poisoned by an exhausted attempt budget — in
    /// both cases the worker should exit its loop.
    pub fn lease(&self) -> Option<Lease<'_, T>> {
        let mut s = self.locked();
        loop {
            self.reclaim_expired(&mut s);
            if s.fatal.is_some() {
                return None;
            }
            if let Some(p) = s.pending.pop_front() {
                let ticket = s.next_ticket;
                s.next_ticket += 1;
                let deadline = self
                    .lease_timeout
                    // audit:allow(determinism): scheduling-only deadline.
                    .map(|t| DeadlineClock::now() + t);
                s.in_flight.push(InFlight {
                    ticket,
                    index: p.index,
                    attempt: p.attempt,
                    item: p.item.clone(),
                    deadline,
                });
                return Some(Lease {
                    queue: self,
                    ticket,
                    index: p.index,
                    attempt: p.attempt,
                    item: Some(p.item),
                });
            }
            if s.in_flight.is_empty() {
                // Nothing pending and nothing in flight: drained.
                return None;
            }
            let next_deadline = s.in_flight.iter().filter_map(|e| e.deadline).min();
            s = match next_deadline {
                // Sleep until the earliest deadline so an expired lease is
                // reclaimed promptly even if nobody settles anything.
                Some(deadline) => {
                    // audit:allow(determinism): scheduling-only wakeup.
                    let wait = deadline.saturating_duration_since(DeadlineClock::now());
                    self.ready
                        .wait_timeout(s, wait)
                        // audit:allow(panic): same poisoned-lock invariant
                        // as `locked`.
                        .expect("queue lock poisoned")
                        .0
                }
                // audit:allow(panic): same poisoned-lock invariant.
                None => self.ready.wait(s).expect("queue lock poisoned"),
            };
        }
    }

    /// Settles a lease: removes it from the in-flight set and either
    /// counts the completion or re-queues/poisons on failure. A stale
    /// ticket (the lease expired and a peer already reclaimed it) is
    /// ignored — the reclaim already did the accounting, and the re-run
    /// produces a bit-identical result.
    fn resolve(&self, ticket: u64, index: usize, attempt: u32, item: T, error: Option<&SpecError>) {
        let mut s = self.locked();
        let Some(pos) = s.in_flight.iter().position(|e| e.ticket == ticket) else {
            return;
        };
        s.in_flight.swap_remove(pos);
        match error {
            None => s.completed += 1,
            Some(error) => {
                s.retries += 1;
                if attempt >= self.max_attempts {
                    s.fatal = Some(SpecError::invalid(format!(
                        "assignment {index} failed after {attempt} attempts: {error}"
                    )));
                } else {
                    s.pending.push_back(PendingItem {
                        index,
                        item,
                        attempt: attempt + 1,
                    });
                }
            }
        }
        drop(s);
        // Workers blocked in `lease` must re-check the drained condition.
        self.ready.notify_all();
    }

    /// Marks a leased assignment as successfully completed.
    pub fn complete(&self, mut lease: Lease<'_, T>) {
        debug_assert!(std::ptr::eq(lease.queue, self), "lease from another queue");
        if let Some(item) = lease.item.take() {
            self.resolve(lease.ticket, lease.index, lease.attempt, item, None);
        }
    }

    /// Reports a failed (or abandoned) lease.
    ///
    /// The assignment returns to the back of the queue for another
    /// attempt; once its attempt budget is exhausted the queue is poisoned
    /// with a fatal error naming the assignment, and every worker drains
    /// out.
    pub fn fail(&self, mut lease: Lease<'_, T>, error: &SpecError) {
        debug_assert!(std::ptr::eq(lease.queue, self), "lease from another queue");
        if let Some(item) = lease.item.take() {
            self.resolve(lease.ticket, lease.index, lease.attempt, item, Some(error));
        }
    }

    /// Drains and returns the deadline expiries reclaimed since the last
    /// call: `(assignment index, the attempt that expired)` pairs.
    /// [`WorkQueue::drain`] polls this to route expiries into
    /// [`QueueObserver::on_retry`]; external lease loops can do the same.
    pub fn take_expiries(&self) -> Vec<(usize, u32)> {
        std::mem::take(&mut self.locked().expiries)
    }

    /// The fatal error that poisoned the queue, if any.
    pub fn fatal(&self) -> Option<SpecError> {
        self.locked().fatal.clone()
    }

    /// Drains the queue with a pool of `workers` threads, running each
    /// leased assignment through `run` and collecting the results in
    /// assignment order.
    ///
    /// `run` is called as `run(worker, &lease)`; an `Err` re-queues the
    /// assignment (see [`WorkQueue::fail`]). The call returns once every
    /// assignment has completed, or with the fatal error once any
    /// assignment exhausts its attempt budget. A *panic* inside `run`
    /// drops the lease mid-unwind, and the lease's drop-guard re-queues
    /// the assignment (so peer workers drain out instead of waiting
    /// forever on a completion that never comes); the panic then
    /// propagates as a panic of the `drain` call itself.
    pub fn drain<R: Send>(
        &self,
        workers: usize,
        obs: &dyn QueueObserver,
        run: impl Fn(usize, &Lease<'_, T>) -> Result<R, SpecError> + Sync,
    ) -> Result<Vec<R>, SpecError>
    where
        T: Send,
    {
        let workers = workers.clamp(1, self.total.max(1));
        let expired = SpecError::invalid(format!(
            "lease deadline exceeded ({:?})",
            self.lease_timeout.unwrap_or_default()
        ));
        let report_expiries = |worker: usize| {
            for (index, attempt) in self.take_expiries() {
                obs.on_retry(worker, index, attempt, &expired, self.status());
            }
        };
        let mut collected: Vec<(usize, R)> = Vec::with_capacity(self.total);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let run = &run;
                let report_expiries = &report_expiries;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    while let Some(lease) = self.lease() {
                        report_expiries(worker);
                        obs.on_lease(worker, lease.index(), lease.attempt(), self.status());
                        match run(worker, &lease) {
                            Ok(result) => {
                                let index = lease.index();
                                local.push((index, result));
                                self.complete(lease);
                                obs.on_complete(worker, index, self.status());
                            }
                            Err(error) => {
                                let (index, attempt) = (lease.index(), lease.attempt());
                                self.fail(lease, &error);
                                obs.on_retry(worker, index, attempt, &error, self.status());
                            }
                        }
                    }
                    // An expiry may have poisoned the queue after our last
                    // lease; report it before draining out.
                    report_expiries(worker);
                    local
                }));
            }
            for h in handles {
                // audit:allow(panic): re-raises a worker's panic on the
                // caller thread — the documented `drain` contract; the
                // lease drop-guard already released the dead worker's
                // assignment.
                collected.extend(h.join().expect("queue worker panicked"));
            }
        });
        if let Some(fatal) = self.fatal() {
            return Err(fatal);
        }
        // Forget the lease schedule: place every result at its assignment
        // index and hand them back in canonical order. An expired lease
        // can complete twice (the stale holder and the reclaimer); the
        // results are bit-identical, so last-write-wins is safe.
        let mut slots: Vec<Option<R>> = Vec::with_capacity(self.total);
        slots.resize_with(self.total, || None);
        for (index, result) in collected {
            slots[index] = Some(result);
        }
        Ok(slots
            .into_iter()
            // audit:allow(panic): the queue only drains once `completed ==
            // total` and every completion filled its slot above.
            .map(|r| r.expect("every assignment completed exactly once"))
            .collect())
    }
}

/// Locks scheduler state shared by a drain's workers.
fn locked<S>(state: &Mutex<S>) -> MutexGuard<'_, S> {
    // audit:allow(panic): a poisoned lock means a peer worker already
    // panicked mid-update; the state is unrecoverable then, and `drain`
    // re-raises the original panic from its join.
    state.lock().expect("queue lock poisoned")
}

/// One contiguous replication block of a job — one canonical reduction
/// unit, whose partial [`Summary`] the merge folds in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAssignment {
    /// Canonical block index (ascending merge order).
    pub block: u64,
    /// First replication of the block (inclusive).
    pub lo: u64,
    /// End of the block (exclusive).
    pub hi: u64,
}

/// A run of consecutive canonical blocks of one job — the unit of work a
/// [`QueueRunner`] leases to its pool, retried as a unit.
///
/// The run covers replications `[lo, hi)` in blocks of `size`: block
/// `first` starts at `lo`, and every block but the job's last holds
/// exactly `size` replications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockBatch {
    /// Position of the batch in the lease order of the run (of the whole
    /// grid, when a runner leases several jobs from one queue).
    pub index: u64,
    /// Canonical index of the first block.
    pub first: u64,
    /// First replication of the run (inclusive).
    pub lo: u64,
    /// End of the run (exclusive).
    pub hi: u64,
    /// The canonical block size.
    pub size: u64,
}

impl BlockBatch {
    /// The one-block batch of `assignment`.
    pub fn single(assignment: BlockAssignment) -> Self {
        Self {
            index: assignment.block,
            first: assignment.block,
            lo: assignment.lo,
            hi: assignment.hi,
            size: (assignment.hi - assignment.lo).max(1),
        }
    }

    /// Number of blocks in the run.
    pub fn block_count(&self) -> u64 {
        (self.hi - self.lo).div_ceil(self.size)
    }

    /// The run's canonical blocks, in ascending order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAssignment> {
        let batch = *self;
        (0..batch.block_count()).map(move |i| {
            let lo = batch.lo + i * batch.size;
            BlockAssignment {
                block: batch.first + i,
                lo,
                hi: lo.saturating_add(batch.size).min(batch.hi),
            }
        })
    }
}

/// Executes leased blocks of a job — the remote-execution seam.
///
/// [`InProcessWorker`] runs the blocks on the calling thread. The networked
/// [`RemoteWorker`](crate::remote::RemoteWorker) implements the same trait
/// by shipping the job's spec and a batch's replication range to an `eacp
/// serve` process and deserializing the per-block partial [`Summary`]s
/// that come back; per-replication seeding guarantees each partial is
/// identical wherever it ran, so swapping implementations never changes
/// results. The seam covers the fast path ([`Runner::run`] /
/// [`QueueRunner::run_with`]) only: [`Runner::run_observed`] streams
/// per-replication events and therefore always executes sequentially
/// in-process, bypassing the worker.
pub trait Worker: Send + Sync {
    /// Short implementation name for logs and errors.
    fn name(&self) -> &'static str;

    /// Runs every replication in `assignment` and returns the block's
    /// partial summary. `attempt` is the lease's 1-based attempt number —
    /// implementations may route retries differently (the remote worker
    /// rotates endpoints and falls back in-process on the final attempt).
    /// An `Err` fails the lease holding the block: its batch is re-queued
    /// and retried from scratch.
    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        attempt: u32,
    ) -> Result<Summary, SpecError>;

    /// Runs every block of `batch` and returns their partial summaries in
    /// block order — what [`QueueRunner`] calls once per lease. An `Err`
    /// fails the whole lease: the batch is re-queued and retried as a
    /// unit.
    ///
    /// The default runs [`Worker::run_assignment`] once per block and
    /// stops at the first error. [`RemoteWorker`](crate::remote::RemoteWorker)
    /// overrides it with one request per batch.
    fn run_blocks(
        &self,
        job: &Job,
        batch: BlockBatch,
        attempt: u32,
    ) -> Result<Vec<Summary>, SpecError> {
        batch
            .blocks()
            .map(|assignment| self.run_assignment(job, assignment, attempt))
            .collect()
    }

    /// Whether [`Worker::run_blocks`] serves a whole batch in one call,
    /// cheaper than block by block. [`QueueRunner`] leases runs of blocks
    /// only to such a worker; any other gets one block per lease, because
    /// a batch would save it nothing and only coarsen its retries and its
    /// load balance. The default is `false`.
    fn serves_batches(&self) -> bool {
        false
    }
}

/// The local [`Worker`]: runs the block on the leasing thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InProcessWorker;

impl Worker for InProcessWorker {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        _attempt: u32,
    ) -> Result<Summary, SpecError> {
        Ok(run_workload_block(
            job,
            assignment.lo,
            assignment.hi,
            &mut NoopObserver,
        ))
    }
}

/// Work-queue [`Runner`]: runs of canonical blocks leased to a worker
/// pool.
///
/// Results are bit-identical to [`crate::LocalRunner`] for any worker
/// count because both runners split the job with the same
/// replication-count-only block rule and merge per-block partials in
/// ascending block order; the queue schedule (how blocks were batched,
/// which worker ran which batch, in what order, with how many retries) is
/// forgotten at the merge.
pub struct QueueRunner<W: Worker = InProcessWorker> {
    workers: usize,
    block_size: u64,
    max_attempts: u32,
    lease_timeout: Option<Duration>,
    observer: Arc<dyn QueueObserver>,
    worker: W,
}

impl QueueRunner<InProcessWorker> {
    /// Creates a queue runner with `workers` pool threads (0 = available
    /// parallelism) leasing to in-process workers.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            block_size: 0,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            lease_timeout: None,
            observer: Arc::new(NoopQueueObserver),
            worker: InProcessWorker,
        }
    }
}

impl<W: Worker> QueueRunner<W> {
    /// Swaps the [`Worker`] implementation (failure-injecting test
    /// workers; the networked [`crate::remote::RemoteWorker`]).
    pub fn with_worker<V: Worker>(self, worker: V) -> QueueRunner<V> {
        QueueRunner {
            workers: self.workers,
            block_size: self.block_size,
            max_attempts: self.max_attempts,
            lease_timeout: self.lease_timeout,
            observer: self.observer,
            worker,
        }
    }

    /// Overrides the reduction block size (0 = derive from the replication
    /// count). Must match the comparison runner's block size for
    /// bit-identical cross-runner results; the default always does.
    pub fn with_block_size(mut self, block_size: u64) -> Self {
        self.block_size = block_size;
        self
    }

    /// Overrides the per-assignment attempt budget (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Sets the per-lease deadline (see [`WorkQueue::with_lease_timeout`]).
    pub fn with_lease_timeout(mut self, timeout: Duration) -> Self {
        self.lease_timeout = Some(timeout);
        self
    }

    /// Streams the scheduler telemetry of every [`Runner`] call into
    /// `observer` (by default, nowhere).
    pub fn with_observer(mut self, observer: Arc<dyn QueueObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// [`Runner::run`] with scheduler telemetry streamed into `obs`: one
    /// lease (and one [`QueueObserver::on_lease`]) per [`BlockBatch`]. The
    /// one-job case of the grid queue [`Runner::run_jobs`] drains.
    pub fn run_with(&self, job: &Job, obs: &dyn QueueObserver) -> Result<Summary, SpecError> {
        let mut summaries = self.run_jobs_with(std::slice::from_ref(job), obs, &|_, _| Ok(()))?;
        Ok(summaries.pop().unwrap_or_else(Summary::empty))
    }

    /// [`Runner::run_jobs`] with scheduler telemetry streamed into `obs`:
    /// the grid drain with leases served by the [`Worker`].
    fn run_jobs_with(
        &self,
        jobs: &[Job],
        obs: &dyn QueueObserver,
        done: &JobDone<'_>,
    ) -> Result<Vec<Summary>, SpecError> {
        self.drain_grid(
            jobs,
            self.worker.serves_batches(),
            obs,
            done,
            |job, batch, attempt| self.worker.run_blocks(job, batch, attempt),
        )
    }

    /// The grid drain of both workload kinds: every job's canonical blocks
    /// go on one [`WorkQueue`], batched over the grid's total block count
    /// when `batched` ([`lease_batches`]) and never across a job, and one
    /// pool drains it with no barrier between jobs, answering each lease
    /// with `run(job, batch, attempt)` — one partial per block, in block
    /// order. A job's partials merge in ascending block order as soon as
    /// its last batch lands, so every result is bit-identical to the
    /// one-job run, and `done` sees it then, on the thread that landed the
    /// batch. Fails when a batch exhausts its attempt budget (the queue is
    /// poisoned) or, once the queue has drained, when `done` failed.
    fn drain_grid<J: Workload>(
        &self,
        jobs: &[J],
        batched: bool,
        obs: &dyn QueueObserver,
        done: &JobDone<'_, J::Acc>,
        run: impl Fn(&J, BlockBatch, u32) -> Result<Vec<J::Acc>, SpecError> + Sync,
    ) -> Result<Vec<J::Acc>, SpecError> {
        let replications: Vec<u64> = jobs.iter().map(J::replications).collect();
        let (pool, batches) = lease_batches(&replications, self.block_size, self.workers, batched);
        let mut queue =
            WorkQueue::new(batches.iter().copied()).with_max_attempts(self.max_attempts);
        if let Some(timeout) = self.lease_timeout {
            queue = queue.with_lease_timeout(timeout);
        }
        let hook_error = Mutex::new(None);
        let finish = |job: usize, acc: &J::Acc| {
            if let Err(e) = done(job, acc) {
                locked(&hook_error).get_or_insert(e);
            }
        };
        let merge = GridMerge::new(jobs, &batches);
        // A job with no replications has no batch: it is final already.
        for job in (0..jobs.len()).filter(|&job| merge.pending[job] == 0) {
            finish(job, &merge.totals[job]);
        }
        let merge = Mutex::new(merge);
        queue.drain(pool, obs, |_worker, lease| {
            let (job, batch) = *lease.item();
            let partials = run(&jobs[job], batch, lease.attempt())?;
            let merged = locked(&merge).land(lease.index(), partials);
            if let Some((job, acc)) = merged {
                finish(job, &acc);
            }
            Ok(())
        })?;
        if let Some(e) = locked(&hook_error).take() {
            return Err(e);
        }
        let totals = std::mem::take(&mut locked(&merge).totals);
        Ok(totals)
    }
}

/// The merge state of a grid drain: a landed batch's partials wait in its
/// lease-order slot until its job's last batch lands; then the job's slots
/// fold in ascending block order and are freed.
struct GridMerge<J: Workload> {
    /// Per batch, in lease order: its job and, until that job merges, its
    /// partials.
    slots: Vec<(usize, Option<Vec<J::Acc>>)>,
    /// Per job: batches still to land.
    pending: Vec<usize>,
    /// Per job: the merged accumulator (the job's empty one until it is
    /// final).
    totals: Vec<J::Acc>,
}

impl<J: Workload> GridMerge<J> {
    fn new(jobs: &[J], batches: &[(usize, BlockBatch)]) -> Self {
        let mut pending = vec![0; jobs.len()];
        for &(job, _) in batches {
            pending[job] += 1;
        }
        Self {
            slots: batches.iter().map(|&(job, _)| (job, None)).collect(),
            pending,
            totals: jobs.iter().map(J::empty_acc).collect(),
        }
    }

    /// Lands the partials of the batch at lease position `position`,
    /// returning its job and the job's total when this was the job's last
    /// batch. A batch that lands twice (an expired lease settled late; its
    /// result is bit-identical) counts once.
    fn land(&mut self, position: usize, partials: Vec<J::Acc>) -> Option<(usize, J::Acc)> {
        let (job, slot) = &mut self.slots[position];
        let job = *job;
        if self.pending[job] == 0 || slot.is_some() {
            return None;
        }
        *slot = Some(partials);
        self.pending[job] -= 1;
        if self.pending[job] > 0 {
            return None;
        }
        // Batches never cross a job, so the job's slots are the run around
        // `position`.
        let first = self.slots[..position]
            .iter()
            .rposition(|&(j, _)| j != job)
            .map_or(0, |other| other + 1);
        let total = &mut self.totals[job];
        for (_, slot) in self.slots[first..]
            .iter_mut()
            .take_while(|(j, _)| *j == job)
        {
            for partial in slot.take().into_iter().flatten() {
                J::merge_acc(total, &partial);
            }
        }
        Some((job, total.clone()))
    }
}

impl<W: Worker> Runner for QueueRunner<W> {
    fn name(&self) -> &'static str {
        "queue"
    }

    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        self.run_with(job, self.observer.as_ref())
    }

    /// One queue for the whole grid: every job's blocks are leased from
    /// it, batched over the grid's total block count, and `done` sees
    /// each job when its last batch merges.
    fn run_jobs(&self, jobs: &[Job], done: &JobDone<'_>) -> Result<Vec<Summary>, SpecError> {
        self.run_jobs_with(jobs, self.observer.as_ref(), done)
    }

    /// Note: a shared replication observer imposes an ordering, so this
    /// path runs sequentially **in-process** over the canonical blocks —
    /// it does not lease through the [`Worker`] seam and performs no
    /// retries. The aggregate is still bit-identical to [`Runner::run`];
    /// only execution locality differs. Use [`QueueRunner::run_with`] and
    /// a [`QueueObserver`] for scheduler-level telemetry that keeps the
    /// worker pool.
    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        Ok(run_workload_sequential(job, self.block_size, obs))
    }

    /// The one-job case of [`Runner::run_executive_jobs`].
    fn run_executive(&self, job: &ExecutiveJob) -> Result<ExecutiveSummary, SpecError> {
        let mut summaries = self.run_executive_jobs(std::slice::from_ref(job), &|_, _| Ok(()))?;
        Ok(summaries.pop().unwrap_or_else(|| job.empty_acc()))
    }

    /// One queue for the whole executive grid, as [`Runner::run_jobs`]
    /// drains it. Executive jobs have no [`Worker`] seam: each lease is one
    /// canonical block, run in-process. Any worker count and any
    /// failure/retry schedule produces the summaries of
    /// [`LocalRunner`](crate::LocalRunner), bit for bit.
    fn run_executive_jobs(
        &self,
        jobs: &[ExecutiveJob],
        done: &JobDone<'_, ExecutiveSummary>,
    ) -> Result<Vec<ExecutiveSummary>, SpecError> {
        self.drain_grid(
            jobs,
            false,
            self.observer.as_ref(),
            done,
            |job, batch, _| {
                Ok(batch
                    .blocks()
                    .map(|block| run_workload_block(job, block.lo, block.hi, &mut NoopObserver))
                    .collect())
            },
        )
    }
}

/// Resolves a requested pool size: 0 means available parallelism.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LocalRunner;
    use eacp_spec::{Axis, ExperimentSpec, Knob, McSpec, SweepSpec, ToJson};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    fn spec(reps: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed: 42,
            threads: 0,
        };
        spec
    }

    /// Counts scheduler events; used to prove the observer wiring fires.
    #[derive(Default)]
    struct CountingQueueObserver {
        leases: AtomicU64,
        completions: AtomicU64,
        retries: AtomicU64,
    }

    impl QueueObserver for CountingQueueObserver {
        fn on_lease(&self, _w: usize, _i: usize, _a: u32, _s: QueueStatus) {
            self.leases.fetch_add(1, Ordering::Relaxed);
        }
        fn on_complete(&self, _w: usize, _i: usize, status: QueueStatus) {
            self.completions.fetch_add(1, Ordering::Relaxed);
            assert!(status.completed <= status.total);
        }
        fn on_retry(&self, _w: usize, _i: usize, _a: u32, _e: &SpecError, _s: QueueStatus) {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fails the first `fail_first_attempts` leases of every batch whose
    /// first block's index is in `blocks` — lease abandonment mid-batch,
    /// deterministic. Leases one block at a time unless [`Self::batched`].
    // A test double counting attempts by block id; never iterated, so
    // hash order is irrelevant (see clippy.toml on R1 scope).
    #[allow(clippy::disallowed_types)]
    struct FlakyWorker {
        blocks: Vec<u64>,
        fail_first_attempts: u32,
        batched: bool,
        attempts: StdMutex<std::collections::HashMap<u64, u32>>,
    }

    impl FlakyWorker {
        fn failing(blocks: Vec<u64>, fail_first_attempts: u32) -> Self {
            Self {
                blocks,
                fail_first_attempts,
                batched: false,
                attempts: StdMutex::new(Default::default()),
            }
        }

        /// The same worker, leased runs of blocks.
        fn batched(mut self) -> Self {
            self.batched = true;
            self
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
            attempt: u32,
        ) -> Result<Summary, SpecError> {
            InProcessWorker.run_assignment(job, assignment, attempt)
        }
        fn run_blocks(
            &self,
            job: &Job,
            batch: BlockBatch,
            attempt: u32,
        ) -> Result<Vec<Summary>, SpecError> {
            let seen = {
                let mut seen = self.attempts.lock().unwrap();
                let n = seen.entry(batch.first).or_insert(0);
                *n += 1;
                *n
            };
            if self.blocks.contains(&batch.first) && seen <= self.fail_first_attempts {
                return Err(SpecError::invalid(format!(
                    "injected lease failure (batch at block {}, attempt {seen})",
                    batch.first
                )));
            }
            InProcessWorker.run_blocks(job, batch, attempt)
        }
        fn serves_batches(&self) -> bool {
            self.batched
        }
    }

    #[test]
    fn queue_runner_matches_local_runner_for_1_3_and_64_workers() {
        let job = Job::from_spec(&spec(400)).unwrap();
        let reference = LocalRunner::new(1).run(&job).unwrap();
        for workers in [1usize, 3, 64] {
            let queued = QueueRunner::new(workers).run(&job).unwrap();
            assert_eq!(reference, queued, "workers = {workers}");
        }
    }

    #[test]
    fn injected_lease_failures_do_not_change_the_summary() {
        let job = Job::from_spec(&spec(300)).unwrap();
        let reference = LocalRunner::new(1).run(&job).unwrap();
        let obs = CountingQueueObserver::default();
        // 300 reps → block 16 → 19 blocks; fail the first attempt of a
        // third of them.
        let flaky = FlakyWorker::failing(vec![0, 3, 6, 9, 12, 15, 18], 1);
        let queued = QueueRunner::new(4)
            .with_worker(flaky)
            .run_with(&job, &obs)
            .unwrap();
        assert_eq!(reference, queued);
        assert_eq!(obs.retries.load(Ordering::Relaxed), 7);
        assert_eq!(obs.completions.load(Ordering::Relaxed), 19);
        assert_eq!(
            obs.leases.load(Ordering::Relaxed),
            19 + 7,
            "every retry re-leases"
        );
    }

    #[test]
    fn failed_batches_are_retried_as_a_unit() {
        let job = Job::from_spec(&spec(300)).unwrap();
        let reference = LocalRunner::new(1).run(&job).unwrap();
        let obs = CountingQueueObserver::default();
        // 19 blocks of 16, leased to 4 workers in 10 batches of 2 (the
        // last holds block 18 alone); fail the first two attempts of
        // three batches.
        let flaky = FlakyWorker::failing(vec![0, 8, 18], 2).batched();
        let queued = QueueRunner::new(4)
            .with_worker(flaky)
            .run_with(&job, &obs)
            .unwrap();
        assert_eq!(reference, queued);
        assert_eq!(obs.retries.load(Ordering::Relaxed), 6);
        assert_eq!(obs.completions.load(Ordering::Relaxed), 10);
        assert_eq!(obs.leases.load(Ordering::Relaxed), 10 + 6);
    }

    #[test]
    fn exhausted_attempt_budget_is_a_fatal_error_not_a_hang() {
        let job = Job::from_spec(&spec(40)).unwrap();
        let always_failing = FlakyWorker::failing(vec![1], u32::MAX);
        let err = QueueRunner::new(3)
            .with_worker(always_failing)
            .with_max_attempts(2)
            .run(&job)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("after 2 attempts"), "{msg}");
        assert!(msg.contains("injected lease failure"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "queue worker panicked")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // One worker panics mid-lease; the lease's drop-guard releases the
        // assignment on unwind so the peers drain out, and the panic then
        // propagates through the pool join — the failure mode is a crash
        // with a message, never a hang on a completion that can't come.
        struct PanickingWorker {
            fired: StdMutex<bool>,
        }
        impl Worker for PanickingWorker {
            fn name(&self) -> &'static str {
                "panicking"
            }
            fn run_assignment(
                &self,
                job: &Job,
                assignment: BlockAssignment,
                attempt: u32,
            ) -> Result<Summary, SpecError> {
                if assignment.block == 1 {
                    let mut fired = self.fired.lock().unwrap();
                    if !*fired {
                        *fired = true;
                        panic!("injected worker panic");
                    }
                }
                InProcessWorker.run_assignment(job, assignment, attempt)
            }
        }
        let job = Job::from_spec(&spec(100)).unwrap();
        let _ = QueueRunner::new(3)
            .with_worker(PanickingWorker {
                fired: StdMutex::new(false),
            })
            .run(&job);
    }

    #[test]
    fn observed_queue_run_matches_the_fast_path() {
        let job = Job::from_spec(&spec(200)).unwrap();
        let fast = QueueRunner::new(4).run(&job).unwrap();
        let mut rec = eacp_sim::TraceRecorder::new();
        let observed = QueueRunner::new(4).run_observed(&job, &mut rec).unwrap();
        assert_eq!(fast, observed);
        assert!(!rec.is_empty());
    }

    #[test]
    fn queue_status_accounting_is_consistent() {
        let queue: WorkQueue<u32> = WorkQueue::new([10, 20, 30]);
        assert_eq!(
            queue.status(),
            QueueStatus {
                total: 3,
                pending: 3,
                leased: 0,
                completed: 0,
                retries: 0
            }
        );
        let lease = queue.lease().unwrap();
        assert_eq!(lease.index(), 0);
        assert_eq!(*lease.item(), 10);
        assert_eq!(lease.attempt(), 1);
        assert_eq!(queue.status().leased, 1);
        queue.fail(lease, &SpecError::invalid("flake"));
        let status = queue.status();
        assert_eq!((status.pending, status.leased, status.retries), (3, 0, 1));
        // The re-queued assignment went to the back with attempt 2.
        let (a, b, c) = (
            queue.lease().unwrap(),
            queue.lease().unwrap(),
            queue.lease().unwrap(),
        );
        assert_eq!((a.index(), b.index(), c.index()), (1, 2, 0));
        assert_eq!(c.attempt(), 2);
        for lease in [a, b, c] {
            queue.complete(lease);
        }
        assert_eq!(queue.status().completed, 3);
        assert!(queue.lease().is_none(), "drained queue leases nothing");
    }

    #[test]
    fn dropped_lease_requeues_as_a_failed_attempt() {
        let queue: WorkQueue<u32> = WorkQueue::new([7]);
        let lease = queue.lease().unwrap();
        assert_eq!(queue.status().leased, 1);
        // Dropping without complete/fail — the bug this guard exists for.
        drop(lease);
        let status = queue.status();
        assert_eq!((status.pending, status.leased, status.retries), (1, 0, 1));
        let retried = queue.lease().unwrap();
        assert_eq!(retried.attempt(), 2, "a drop counts as a failed attempt");
        queue.complete(retried);
        assert_eq!(queue.status().completed, 1);
        assert!(queue.lease().is_none());
        assert!(queue.fatal().is_none());
    }

    #[test]
    fn dropped_lease_on_final_attempt_poisons_the_queue() {
        let queue: WorkQueue<u32> = WorkQueue::new([7]).with_max_attempts(1);
        drop(queue.lease().unwrap());
        assert!(queue.lease().is_none(), "poisoned queue leases nothing");
        let fatal = queue.fatal().expect("budget exhausted by the drop");
        assert!(fatal.to_string().contains("dropped"), "{fatal}");
    }

    #[test]
    fn expired_lease_is_reclaimed_and_late_settle_is_ignored() {
        let queue: WorkQueue<u32> =
            WorkQueue::new([10, 20]).with_lease_timeout(Duration::from_millis(25));
        let wedged = queue.lease().unwrap();
        assert_eq!(wedged.index(), 0);
        std::thread::sleep(Duration::from_millis(40));
        // A peer leasing after the deadline reclaims the wedged
        // assignment; it gets the other item first (FIFO), and the
        // reclaimed one re-queues behind it with attempt 2.
        let fresh = queue.lease().unwrap();
        assert_eq!(fresh.index(), 1);
        assert_eq!(queue.take_expiries(), vec![(0, 1)]);
        assert_eq!(queue.status().retries, 1);
        let reclaimed = queue.lease().unwrap();
        assert_eq!((reclaimed.index(), reclaimed.attempt()), (0, 2));
        // The wedged holder finally settles: stale, ignored.
        queue.complete(wedged);
        assert_eq!(queue.status().completed, 0, "stale settle must not count");
        queue.complete(fresh);
        queue.complete(reclaimed);
        assert_eq!(queue.status().completed, 2);
        assert!(queue.lease().is_none());
        assert!(queue.fatal().is_none());
    }

    #[test]
    fn expiry_on_final_attempt_poisons_instead_of_spinning() {
        let queue: WorkQueue<u32> = WorkQueue::new([5])
            .with_max_attempts(1)
            .with_lease_timeout(Duration::from_millis(10));
        let wedged = queue.lease().unwrap();
        std::thread::sleep(Duration::from_millis(25));
        // The blocking lease call notices the expiry, poisons, returns.
        assert!(queue.lease().is_none());
        let fatal = queue.fatal().expect("expired final attempt poisons");
        assert!(fatal.to_string().contains("expired"), "{fatal}");
        assert_eq!(queue.take_expiries(), vec![(0, 1)]);
        drop(wedged);
    }

    #[test]
    fn drain_reports_expiries_through_on_retry() {
        // One assignment wedges on its first attempt (holds the lease past
        // the deadline without settling); a peer reclaims and re-runs it.
        let queue: WorkQueue<u32> = WorkQueue::new((0..4).collect::<Vec<u32>>())
            .with_lease_timeout(Duration::from_millis(30));
        let obs = CountingQueueObserver::default();
        let wedged_once = std::sync::atomic::AtomicBool::new(false);
        let out = queue
            .drain(3, &obs, |_worker, lease| {
                if lease.index() == 2
                    && lease.attempt() == 1
                    && !wedged_once.swap(true, Ordering::SeqCst)
                {
                    // Wedge past the deadline, then settle late (stale).
                    std::thread::sleep(Duration::from_millis(80));
                }
                Ok(*lease.item() * 10)
            })
            .unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert!(
            obs.retries.load(Ordering::Relaxed) >= 1,
            "the expiry must surface through on_retry"
        );
    }

    #[test]
    fn queued_sweep_is_identical_to_sequential_sweep() {
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "queued".into();
        base.mc = McSpec {
            replications: 40,
            seed: 5,
            threads: 1,
        };
        let sweep = SweepSpec {
            base,
            axes: vec![
                Axis::new(Knob::Lambda, vec![1.0e-4, 1.4e-3]),
                Axis::new(Knob::K, vec![1, 5]),
            ],
        };
        let queued = |shard, workers| {
            let runner = QueueRunner::new(workers).with_max_attempts(3);
            crate::run_sweep_tiered(&sweep, shard, &runner, true).unwrap()
        };
        let sequential = crate::run_sweep(&sweep, None, 1).unwrap();
        for workers in [1usize, 3] {
            let queued = queued(None, workers);
            assert_eq!(queued, sequential, "workers = {workers}");
            assert_eq!(queued.to_json().pretty(), sequential.to_json().pretty());
        }
        // Sharded queued runs cover exactly the shard's range.
        let shard = Some(crate::ShardId::new(1, 3).unwrap());
        assert_eq!(
            queued(shard, 2),
            crate::run_sweep(&sweep, shard, 1).unwrap()
        );
    }

    #[test]
    fn a_poisoned_grid_never_finishes_the_failing_job() {
        // Jobs of 40, 200 and 40 replications: 3, 13 and 3 blocks of 16,
        // so block 12 is in the middle job only, and it always fails.
        let jobs = [40, 200, 40].map(|reps| Job::from_spec(&spec(reps)).unwrap());
        for workers in [1usize, 2, 3] {
            let finished = StdMutex::new(Vec::new());
            let err = QueueRunner::new(workers)
                .with_worker(FlakyWorker::failing(vec![12], u32::MAX))
                .with_max_attempts(2)
                .run_jobs(&jobs, &|job, summary| {
                    let local = LocalRunner::new(1).run(&jobs[job]).unwrap();
                    finished.lock().unwrap().push((job, *summary == local));
                    Ok(())
                })
                .unwrap_err();
            assert!(err.to_string().contains("after 2 attempts"), "{err}");
            let mut seen = finished.into_inner().unwrap();
            seen.sort_unstable();
            // At most once per job, never the failing one, always final.
            assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "{seen:?}");
            assert!(
                seen.iter().all(|&(job, exact)| job != 1 && exact),
                "{seen:?}"
            );
            if workers == 1 {
                // One worker leases in order: block 12's retry goes to the
                // back, behind the last job, which therefore finishes.
                assert_eq!(seen, vec![(0, true), (2, true)]);
            }
        }
    }
}
