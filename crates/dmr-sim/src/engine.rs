//! The DMR execution engine.

use crate::costs::CheckpointCosts;
use crate::observe::{NoopObserver, Observer};
use crate::outcome::{Anomaly, RunOutcome};
use crate::policy::{CheckpointKind, Directive, PlanContext, Policy};
use crate::scenario::Scenario;
use crate::trace::TraceEvent;
#[cfg(test)]
use crate::trace::TraceRecorder;
use eacp_energy::{Cycles, EnergyMeter, SpeedLevel};
use eacp_faults::FaultProcess;

/// Tunable executor limits and switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorOptions {
    /// Hard cap on the work one run may do: executed operations
    /// (segments and checkpoints) plus fault arrivals drawn from the
    /// fault process. Counting draws bounds an operation far longer than
    /// the mean gap between faults, which would otherwise draw arrivals
    /// without limit. Exceeded only by buggy policies or absurd
    /// parameters; the run stops and is marked with
    /// [`Anomaly::OpBudgetExhausted`] when hit.
    pub max_operations: u64,
    /// Consecutive zero-progress planning rounds tolerated before the run is
    /// marked with [`Anomaly::NoProgress`].
    pub max_stalled_rounds: u32,
    /// Whether faults can strike during checkpoint/rollback operations
    /// (they corrupt the running state but never a snapshot already taken).
    /// The paper's renewal analysis only exposes useful computation to
    /// faults; the default `true` is the more physical choice and the
    /// difference is insignificant (checkpoints are a few percent of time).
    pub faults_during_overhead: bool,
    /// Stop simulating once `now` passes the deadline (the run can no longer
    /// be timely). Baseline schemes without an abort rule rely on this to
    /// terminate; disable only for "run to completion regardless" studies.
    pub stop_at_deadline: bool,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        Self {
            max_operations: 50_000_000,
            max_stalled_rounds: 64,
            faults_during_overhead: true,
            stop_at_deadline: true,
        }
    }
}

/// Wall-clock durations of the fixed-cycle operations at one speed level,
/// plus an exact-reciprocal fast path for cycle→time conversion.
///
/// The engine divides by the current frequency on every segment and
/// checkpoint operation; these values hoist the identical divisions out of
/// the per-segment loop (trivially bit-identical — the same two operands
/// are divided, just once), and `inv_freq` replaces the one remaining
/// per-segment division with a multiplication when the frequency is a
/// power of two: division and multiplication by an exactly representable
/// `2ᵏ` both produce the correctly rounded value of `x·2⁻ᵏ`, so the
/// results are bit-identical there as well.
#[derive(Debug, Clone, Copy)]
struct LevelTimes {
    store: f64,
    compare: f64,
    compare_store: f64,
    rollback: f64,
    inv_freq: f64,
    /// Whether `x * inv_freq` is bit-identical to `x / frequency`.
    inv_exact: bool,
}

impl LevelTimes {
    fn new(costs: &CheckpointCosts, level: SpeedLevel) -> Self {
        let f = level.frequency;
        let inv = 1.0 / f;
        Self {
            store: costs.store_cycles / f,
            compare: costs.compare_cycles / f,
            compare_store: costs.cscp_cycles() / f,
            rollback: costs.rollback_cycles / f,
            inv_freq: inv,
            // Power of two ⇔ zero mantissa (the level is positive, finite
            // and normal by construction), with a representable reciprocal.
            inv_exact: f.to_bits() & ((1u64 << 52) - 1) == 0 && inv.is_finite(),
        }
    }

    /// Duration of one checkpoint operation of `kind` at this level.
    #[inline]
    fn op_time(&self, kind: CheckpointKind) -> f64 {
        match kind {
            CheckpointKind::Store => self.store,
            CheckpointKind::Compare => self.compare,
            CheckpointKind::CompareStore => self.compare_store,
        }
    }

    /// `cycles / frequency`, bit-identical to writing the division.
    #[inline]
    fn time_for(&self, cycles: f64, frequency: f64) -> f64 {
        if self.inv_exact {
            cycles * self.inv_freq
        } else {
            cycles / frequency
        }
    }
}

/// The task position after a step, `p`, clamped to the task's `work`: the
/// one clamp of every position update.
///
/// Bit-identical to `p.min(work)` here, without `f64::min`'s NaN fix-up on
/// the position's dependency chain: `work` is the task's positive finite
/// work and `p` a position plus a non-negative count, so neither is NaN
/// and they cannot be zeros of opposite sign. Both then return `p` when
/// `p < work` and otherwise the smaller or equal value `work`, which on
/// equal values has the same bits as `p`.
#[inline(always)]
fn clamp_position(p: f64, work: f64) -> f64 {
    if p < work {
        p
    } else {
        work
    }
}

/// Whether a directive's `compute_time` is finite and non-negative
/// (`-0.0` included). `!t.is_finite() || t < 0.0` is the same predicate,
/// but compiles to an integer class test; the range is two compares.
#[inline]
fn valid_compute_time(t: f64) -> bool {
    (0.0..=f64::MAX).contains(&t)
}

/// A stored snapshot: a rollback target.
#[derive(Debug, Clone, Copy)]
struct StorePoint {
    /// Task position (cycles) the snapshot captures.
    pos: f64,
    /// Whether the two processors' states agreed when the snapshot was
    /// taken (no un-rolled-back fault had occurred).
    clean: bool,
}

/// Reusable working memory for [`Executor::run_with_scratch`].
///
/// The executor's only heap state is the stack of rollback targets. A
/// fresh scratch per run means one `Vec` allocation per run — millions per
/// Monte-Carlo grid — so replication loops allocate one scratch and thread
/// it through every run: the stack is *cleared*, never reallocated, and
/// its capacity converges to the deepest store stack the workload ever
/// produces.
#[derive(Debug)]
pub struct ExecutorScratch {
    stores: Vec<StorePoint>,
    meter: EnergyMeter,
}

impl Default for ExecutorScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutorScratch {
    /// Creates an empty scratch (first run sizes the store stack and the
    /// energy meter's per-level table).
    // audit:setup: the scratch exists so replications can reuse these
    // buffers — they are allocated here once and only cleared afterwards.
    pub fn new() -> Self {
        Self {
            // Pre-sized past any store depth the paper's scenarios reach
            // (deepest observed stack is ~256 under sub-checkpoint-heavy
            // adaptive schemes), so replications never regrow the stack.
            // The zero-alloc witness in `eacp-exec` checks this holds.
            stores: Vec::with_capacity(1024),
            meter: EnergyMeter::new(1),
        }
    }
}

/// Executes one task run under a [`Policy`] and a fault stream.
///
/// See the crate-level documentation for the execution model, and
/// [`Executor::run`] for the entry point.
#[derive(Debug)]
pub struct Executor<'s> {
    scenario: &'s Scenario,
    options: ExecutorOptions,
}

impl<'s> Executor<'s> {
    /// Creates an executor with default [`ExecutorOptions`].
    pub fn new(scenario: &'s Scenario) -> Self {
        Self {
            scenario,
            options: ExecutorOptions::default(),
        }
    }

    /// Overrides the executor options.
    pub fn with_options(mut self, options: ExecutorOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the task to completion, abort, deadline cut-off or anomaly.
    ///
    /// Equivalent to [`Executor::run_observed`] with a [`NoopObserver`] —
    /// the monomorphized no-op observer compiles away, so this *is* the
    /// fast path.
    ///
    /// Generic over the policy and fault process (`&mut dyn Policy` /
    /// `&mut dyn FaultProcess` still work, as the `?Sized` instantiation):
    /// concrete types monomorphize the whole engine loop, inlining
    /// `plan`/`next_fault` into it with no virtual dispatch.
    pub fn run<P: Policy + ?Sized, F: FaultProcess + ?Sized>(
        &self,
        policy: &mut P,
        faults: &mut F,
    ) -> RunOutcome {
        self.run_observed(policy, faults, &mut NoopObserver)
    }

    /// Like [`Executor::run`], streaming every execution event — segments,
    /// checkpoints, faults, rollbacks, speed changes, deadline misses,
    /// energy samples — into `obs` as it happens.
    pub fn run_observed<P: Policy + ?Sized, F: FaultProcess + ?Sized, O: Observer + ?Sized>(
        &self,
        policy: &mut P,
        faults: &mut F,
        obs: &mut O,
    ) -> RunOutcome {
        self.run_with_scratch(&mut ExecutorScratch::new(), policy, faults, obs)
    }

    /// [`Executor::run_observed`] with caller-pooled working memory — the
    /// zero-allocation hot path every Monte-Carlo runner loops over.
    ///
    /// The scratch is cleared (not reallocated) at entry, so a loop that
    /// reuses one scratch performs no heap allocation per run once the
    /// store stack has reached its steady-state capacity.
    pub fn run_with_scratch<P, F, O>(
        &self,
        scratch: &mut ExecutorScratch,
        policy: &mut P,
        faults: &mut F,
        obs: &mut O,
    ) -> RunOutcome
    where
        P: Policy + ?Sized,
        F: FaultProcess + ?Sized,
        O: Observer + ?Sized,
    {
        let scenario = self.scenario;
        let task = scenario.task;
        let costs: &CheckpointCosts = scenario.costs();
        let dvs = scenario.dvs();
        let env = scenario.env();
        let deadline = task.deadline;

        let meter = &mut scratch.meter;
        meter.reset(scenario.processors);
        let mut now = 0.0_f64;
        let mut pos = 0.0_f64;
        let mut speed = dvs.slowest();
        let mut level = dvs.level(speed);
        let mut times = LevelTimes::new(costs, level);
        // One meter run per speed epoch: every cycle record until the next
        // speed switch accumulates into this register-resident copy of the
        // meter's state (see `EnergyMeter`).
        let mut run = meter.begin_run(level);
        // The two processors start in a known-equal, stored state: the task
        // image itself is the first rollback target.
        let stores = &mut scratch.stores;
        stores.clear();
        stores.push(StorePoint {
            pos: 0.0,
            clean: true,
        });
        // Time of the first fault since the states last provably agreed;
        // `Some` means the running states currently diverge.
        let mut pending_fault: Option<f64> = None;
        let mut next_fault = faults.next_fault();

        let mut out = RunOutcome {
            completed: false,
            timely: false,
            finish_time: 0.0,
            energy: 0.0,
            faults: 0,
            rollbacks: 0,
            store_checkpoints: 0,
            compare_checkpoints: 0,
            compare_store_checkpoints: 0,
            segments: 0,
            speed_switches: 0,
            cycles_at_fastest: 0.0,
            total_cycles: 0.0,
            aborted: false,
            anomaly: None,
        };

        let max_ops = self.options.max_operations;
        let fdo = self.options.faults_during_overhead;
        // Operations executed plus fault arrivals drawn: both count
        // against `max_ops` (see `ExecutorOptions::max_operations`).
        let mut ops: u64 = 0;
        let mut stalled_rounds: u32 = 0;
        let mut deadline_missed = false;

        // One planning-view constructor for both planning points in the
        // loop (pre-segment plan and post-compare notification).
        let plan_ctx = |now: f64, pos: f64, speed: usize| PlanContext {
            now,
            position_cycles: pos,
            work_cycles: task.work_cycles,
            deadline,
            speed,
            costs,
            dvs,
            env,
        };

        // Advances wall-clock time by `dt`, consuming fault arrivals that
        // land in the window. Returns the number of faults consumed.
        // (A fn, not a closure, so `next_fault` and `ops` stay plain
        // locals the commit-window loop below keeps in registers.) The
        // common case — no arrival before `now + dt` — is one inlined
        // compare; consuming arrivals is the cold, out-of-line path.
        #[allow(clippy::too_many_arguments)]
        #[inline(always)]
        fn advance<F: FaultProcess + ?Sized, O: Observer + ?Sized>(
            faults: &mut F,
            next_fault: &mut f64,
            now: &mut f64,
            dt: f64,
            pending: &mut Option<f64>,
            vulnerable: bool,
            ops: &mut u64,
            max_ops: u64,
            obs: &mut O,
        ) -> u32 {
            let end = *now + dt;
            *now = end;
            if *next_fault < end {
                let (hit, next, first, drawn) = consume_arrivals(
                    faults,
                    *next_fault,
                    end,
                    *pending,
                    vulnerable,
                    max_ops.saturating_sub(*ops),
                    obs,
                );
                *next_fault = next;
                *pending = first;
                *ops += drawn;
                hit
            } else {
                0
            }
        }

        // Takes and returns the run state by value: nothing the loop keeps
        // in registers has its address passed out of line. Draws at most
        // `budget` arrivals: an operation far longer than the mean gap
        // between faults would otherwise draw without bound, and the
        // caller ends the run once the budget is spent.
        #[cold]
        #[inline(never)]
        fn consume_arrivals<F: FaultProcess + ?Sized, O: Observer + ?Sized>(
            faults: &mut F,
            mut next_fault: f64,
            end: f64,
            mut pending: Option<f64>,
            vulnerable: bool,
            budget: u64,
            obs: &mut O,
        ) -> (u32, f64, Option<f64>, u64) {
            let mut hit = 0;
            let mut drawn = 0;
            while next_fault < end && drawn < budget {
                if vulnerable {
                    if pending.is_none() {
                        pending = Some(next_fault);
                    }
                    hit += 1;
                    // Which processor a fault corrupts is irrelevant to
                    // detection (any divergence fails the comparison); tag
                    // pseudo-randomly from the arrival bits for trace
                    // realism.
                    let proc = (next_fault.to_bits() >> 3) as u32 & 1;
                    obs.on_event(&TraceEvent::Fault {
                        at: next_fault,
                        processor: proc,
                    });
                }
                next_fault = faults.next_fault();
                drawn += 1;
            }
            (hit, next_fault, pending, drawn)
        }

        'rounds: loop {
            // The budget check comes first: an operation long enough to
            // spend the budget on fault draws usually also passes the
            // deadline, and the run must still report the exhaustion.
            if ops >= max_ops {
                out.anomaly = Some(Anomaly::OpBudgetExhausted);
                break;
            }
            if self.options.stop_at_deadline && now > deadline {
                break;
            }

            // A round ends with one checkpoint operation: its kind,
            // whether the running states had diverged when it started,
            // and whether the round did any work (a segment or a
            // non-free operation).
            let (checkpoint, snapshot_diverged, worked) = 'round: {
                // --- Commit-window fast path --------------------------
                // When the policy publishes its committed schedule up to
                // the next commit ([`Policy::commit_window`]), the window
                // executes here in a tight loop with no per-segment
                // `plan()` call or directive validation. Every float
                // operation below is the exact operation the general path
                // performs, on the same operands in the same order, so
                // the run state stays bit-identical. Fault arrivals are
                // consumed exactly as the general path consumes them: the
                // window runs until its closing commit or until the first
                // comparison that mismatches, where it hands the rollback
                // to the shared round tail below. It skips only work that
                // provably has no effect — clean-compare notifications
                // (no-ops by the `commit_window` contract) and pushing
                // sub-checkpoint snapshots that no rollback can target:
                // the closing commit discards the clean ones, and a
                // mismatch discards the dirty ones, so only the newest
                // clean snapshot is kept, in a register. That keeps the
                // loop free of calls that can reallocate, and the run
                // state (`now`, `pos`, the meter run) in registers. The
                // window's three recorded counts (segment, sub-checkpoint,
                // closing CSCP) are checked once, when it is accepted, so
                // no record in the loop carries a check or its panic edge,
                // and `clamp_position` keeps `f64::min`'s NaN fix-up off
                // the `pos` chain.
                // The guards depend on no fault. They are conservative
                // (margins of 1e-6 against accumulated rounding of
                // ~1e-10), so near-boundary windows fall back to the
                // general path below instead of ever risking a decision
                // the scalar path would not have made. Skipping the query
                // is always sound: declining a window only sends the run
                // down the general path.
                if let Some(w) = policy.commit_window(&plan_ctx(now, pos, speed)) {
                    let subs = w.subs as f64;
                    let seg_cycles = w.compute_time * level.frequency;
                    let sub_time = times.op_time(w.sub_kind);
                    let span =
                        (subs + 1.0) * w.compute_time + subs * sub_time + times.compare_store;
                    // Conservative upper bound on the window's end time,
                    // and lower bounds on the work remaining before the
                    // final segment / after the whole window.
                    let upper = (now + span) * (1.0 + 1e-9) + 1e-9;
                    let before_final = (task.work_cycles - pos) - subs * seg_cycles * (1.0 + 1e-9);
                    let after_window = before_final - seg_cycles * (1.0 + 1e-9);
                    let fits = w.speed == speed
                        && w.compute_time > 0.0
                        && w.compute_time.is_finite()
                        && w.sub_kind != CheckpointKind::CompareStore
                        && upper <= deadline
                        && ops + 2 * (w.subs as u64 + 1) <= max_ops
                        && before_final / level.frequency > w.compute_time + 1e-6
                        && after_window > 1e-6;
                    if fits {
                        let sub_cycles = costs.cycles_of(w.sub_kind);
                        let cscp_cycles = costs.cycles_of(CheckpointKind::CompareStore);
                        let seg_record = Cycles::new(seg_cycles);
                        let sub_record = Cycles::new(sub_cycles);
                        let cscp_record = Cycles::new(cscp_cycles);
                        let sub_stores = w.sub_kind == CheckpointKind::Store;
                        let sub_compares = w.sub_kind.compares();
                        // Position of the newest clean sub-store.
                        let mut clean_store: Option<f64> = None;
                        // `subs` sub-checkpoint steps, then the closing
                        // CSCP step.
                        let mut subs_done: u32 = 0;
                        let mut mismatch = false;
                        // Before each step, the budget check of the
                        // round loop (fault draws count against it too).
                        while subs_done < w.subs && ops < max_ops {
                            obs.on_event(&TraceEvent::Segment {
                                from: now,
                                to: now + w.compute_time,
                                speed,
                            });
                            out.faults += advance(
                                faults,
                                &mut next_fault,
                                &mut now,
                                w.compute_time,
                                &mut pending_fault,
                                true,
                                &mut ops,
                                max_ops,
                                obs,
                            );
                            pos = clamp_position(pos + seg_cycles, task.work_cycles);
                            run.record(seg_record);
                            ops += 1;
                            let diverged = pending_fault.is_some();
                            obs.on_event(&TraceEvent::Checkpoint {
                                kind: w.sub_kind,
                                from: now,
                                to: now + sub_time,
                                position: pos,
                                mismatch: sub_compares && diverged,
                            });
                            out.faults += advance(
                                faults,
                                &mut next_fault,
                                &mut now,
                                sub_time,
                                &mut pending_fault,
                                fdo,
                                &mut ops,
                                max_ops,
                                obs,
                            );
                            if sub_cycles > 0.0 {
                                run.record(sub_record);
                            }
                            ops += 1;
                            subs_done += 1;
                            if sub_compares && diverged {
                                mismatch = true;
                                break;
                            }
                            if sub_stores && !diverged {
                                clean_store = Some(pos);
                            }
                            obs.on_energy_sample(now, run.total());
                        }
                        out.segments += subs_done;
                        if sub_stores {
                            out.store_checkpoints += subs_done;
                        } else {
                            out.compare_checkpoints += subs_done;
                        }
                        if mismatch {
                            break 'round (w.sub_kind, true, true);
                        }
                        if ops >= max_ops {
                            // Fault draws spent the budget; the round loop
                            // ends the run.
                            continue 'rounds;
                        }
                        // The closing step: segment, then the commit.
                        obs.on_event(&TraceEvent::Segment {
                            from: now,
                            to: now + w.compute_time,
                            speed,
                        });
                        out.faults += advance(
                            faults,
                            &mut next_fault,
                            &mut now,
                            w.compute_time,
                            &mut pending_fault,
                            true,
                            &mut ops,
                            max_ops,
                            obs,
                        );
                        pos = clamp_position(pos + seg_cycles, task.work_cycles);
                        run.record(seg_record);
                        out.segments += 1;
                        ops += 1;
                        let diverged = pending_fault.is_some();
                        obs.on_event(&TraceEvent::Checkpoint {
                            kind: CheckpointKind::CompareStore,
                            from: now,
                            to: now + times.compare_store,
                            position: pos,
                            mismatch: diverged,
                        });
                        out.faults += advance(
                            faults,
                            &mut next_fault,
                            &mut now,
                            times.compare_store,
                            &mut pending_fault,
                            fdo,
                            &mut ops,
                            max_ops,
                            obs,
                        );
                        if cscp_cycles > 0.0 {
                            run.record(cscp_record);
                        }
                        ops += 1;
                        out.compare_store_checkpoints += 1;
                        if diverged {
                            // The newest clean snapshot the general path
                            // would have stacked is the rollback target;
                            // the round tail rolls back to the stack top.
                            if let Some(at) = clean_store {
                                stores.push(StorePoint {
                                    pos: at,
                                    clean: true,
                                });
                            }
                            break 'round (CheckpointKind::CompareStore, true, true);
                        }
                        // Clean commit: earlier targets can never be
                        // needed again.
                        stores.clear();
                        stores.push(StorePoint { pos, clean: true });
                        obs.on_energy_sample(now, run.total());
                        policy.on_commit_window_executed();
                        stalled_rounds = 0;
                        continue 'rounds;
                    }
                }

                let directive = policy.plan(&plan_ctx(now, pos, speed));

                let (want_speed, compute_time, checkpoint) = match directive {
                    Directive::Abort => {
                        out.aborted = true;
                        break 'rounds;
                    }
                    Directive::Run {
                        speed,
                        compute_time,
                        checkpoint,
                    } => (speed, compute_time, checkpoint),
                };

                if want_speed >= dvs.len() {
                    out.anomaly = Some(Anomaly::InvalidSpeed);
                    break 'rounds;
                }
                if !valid_compute_time(compute_time) {
                    out.anomaly = Some(Anomaly::InvalidComputeTime);
                    break 'rounds;
                }

                if want_speed != speed {
                    obs.on_event(&TraceEvent::SpeedChange {
                        at: now,
                        from: speed,
                        to: want_speed,
                    });
                    speed = want_speed;
                    level = dvs.level(speed);
                    times = LevelTimes::new(costs, level);
                    out.speed_switches += 1;
                    meter.end_run(run);
                    if dvs.switch_time > 0.0 {
                        out.faults += advance(
                            faults,
                            &mut next_fault,
                            &mut now,
                            dvs.switch_time,
                            &mut pending_fault,
                            fdo,
                            &mut ops,
                            max_ops,
                            obs,
                        );
                    }
                    if dvs.switch_energy > 0.0 {
                        meter.record_switch(dvs.switch_energy);
                    }
                    run = meter.begin_run(level);
                }
                // --- Computation segment ---------------------------------
                let remaining_time = times.time_for(task.work_cycles - pos, level.frequency);
                let dur = compute_time.min(remaining_time).max(0.0);
                let progressed = dur > 0.0;
                if progressed {
                    // Emit the segment before consuming its fault window so
                    // the trace stays sorted by event start time.
                    obs.on_event(&TraceEvent::Segment {
                        from: now,
                        to: now + dur,
                        speed,
                    });
                    out.faults += advance(
                        faults,
                        &mut next_fault,
                        &mut now,
                        dur,
                        &mut pending_fault,
                        true,
                        &mut ops,
                        max_ops,
                        obs,
                    );
                    let cycles = dur * level.frequency;
                    pos = clamp_position(pos + cycles, task.work_cycles);
                    run.record(Cycles::new(cycles));
                    out.segments += 1;
                    ops += 1;
                }

                // --- Checkpoint operation --------------------------------
                // Snapshot/comparison semantics are evaluated at operation
                // start; the operation's own duration is still fault-exposed.
                let snapshot_diverged = pending_fault.is_some();
                let op_cycles = costs.cycles_of(checkpoint);
                let op_time = times.op_time(checkpoint);
                obs.on_event(&TraceEvent::Checkpoint {
                    kind: checkpoint,
                    from: now,
                    to: now + op_time,
                    position: pos,
                    mismatch: checkpoint.compares() && snapshot_diverged,
                });
                out.faults += advance(
                    faults,
                    &mut next_fault,
                    &mut now,
                    op_time,
                    &mut pending_fault,
                    fdo,
                    &mut ops,
                    max_ops,
                    obs,
                );
                if op_cycles > 0.0 {
                    run.record(Cycles::new(op_cycles));
                }
                ops += 1;
                match checkpoint {
                    CheckpointKind::Store => {
                        out.store_checkpoints += 1;
                        stores.push(StorePoint {
                            pos,
                            clean: !snapshot_diverged,
                        });
                    }
                    CheckpointKind::Compare => out.compare_checkpoints += 1,
                    CheckpointKind::CompareStore => {
                        out.compare_store_checkpoints += 1;
                        if !snapshot_diverged {
                            // Commit: this snapshot is verified-equal and
                            // stored; earlier targets can never be needed
                            // again.
                            stores.clear();
                            stores.push(StorePoint { pos, clean: true });
                        }
                    }
                }
                // A passing CCP verifies agreement but stores nothing:
                // rollback targets are unchanged (paper Fig. 5 semantics).
                (checkpoint, snapshot_diverged, progressed || op_cycles > 0.0)
            };

            // --- Round tail: rollback or completion, then notifications --
            let rolled_back = checkpoint.compares() && snapshot_diverged;
            if rolled_back {
                // Discard snapshots taken after the divergence began: the
                // newest clean snapshot is the rollback target. The bottom
                // of the stack is always a clean committed state.
                while stores.last().is_some_and(|s| !s.clean) {
                    stores.pop();
                }
                // audit:allow(panic): the bottom of the store stack is the
                // initial committed state and is never popped (`!s.clean`
                // is false for it), so `last()` cannot be empty here.
                let target = *stores.last().expect("a committed state always remains");
                debug_assert!(target.clean);
                pos = target.pos;
                pending_fault = None;
                out.rollbacks += 1;
                let rb_time = times.rollback;
                obs.on_event(&TraceEvent::Rollback {
                    from: now,
                    to: now + rb_time,
                    to_position: target.pos,
                });
                if costs.rollback_cycles > 0.0 {
                    out.faults += advance(
                        faults,
                        &mut next_fault,
                        &mut now,
                        rb_time,
                        &mut pending_fault,
                        fdo,
                        &mut ops,
                        max_ops,
                        obs,
                    );
                    run.record(Cycles::new(costs.rollback_cycles));
                }
            } else if checkpoint.compares() && !snapshot_diverged && pos >= task.work_cycles - 1e-9
            {
                // All work done and verified by a passing comparison.
                out.completed = true;
                out.timely = now <= deadline;
                obs.on_event(&TraceEvent::Complete { at: now });
            }
            obs.on_energy_sample(now, run.total());
            if !deadline_missed && now > deadline {
                deadline_missed = true;
                obs.on_deadline_miss(now);
            }

            if checkpoint.compares() {
                policy.on_compare(&plan_ctx(now, pos, speed), checkpoint, snapshot_diverged);
            }

            if out.completed {
                break;
            }

            if worked || rolled_back {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds > self.options.max_stalled_rounds {
                    out.anomaly = Some(Anomaly::NoProgress);
                    break;
                }
            }
        }

        if out.aborted {
            obs.on_event(&TraceEvent::Abort { at: now });
        }
        out.finish_time = now;
        if !out.completed {
            out.timely = false;
        }
        meter.end_run(run);
        out.energy = meter.total();
        out.cycles_at_fastest = meter.cycles_at_frequency(dvs.level(dvs.fastest()).frequency);
        out.total_cycles = meter.total_cycles();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;
    use eacp_energy::DvsConfig;
    use eacp_faults::DeterministicFaults;

    /// Fixed-interval policy used throughout the engine tests.
    struct FixedCscp {
        interval: f64,
        speed: usize,
    }

    impl Policy for FixedCscp {
        fn name(&self) -> &'static str {
            "fixed-cscp"
        }
        fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
            Directive::run(self.speed, self.interval, CheckpointKind::CompareStore)
        }
    }

    /// SCP-scheme policy with a static schedule: `m − 1` stores then a CSCP.
    struct FixedScpScheme {
        sub_interval: f64,
        m: u32,
        seg: u32,
    }

    impl Policy for FixedScpScheme {
        fn name(&self) -> &'static str {
            "fixed-scp"
        }
        fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
            let kind = if (self.seg + 1).is_multiple_of(self.m) {
                CheckpointKind::CompareStore
            } else {
                CheckpointKind::Store
            };
            self.seg += 1;
            Directive::run(0, self.sub_interval, kind)
        }
        fn on_compare(&mut self, ctx: &PlanContext<'_>, _k: CheckpointKind, mismatch: bool) {
            if mismatch {
                // Realign the schedule with the rollback position.
                self.seg = (ctx.position_cycles / self.sub_interval).round() as u32 % self.m;
            }
        }
    }

    fn scenario(n: f64, d: f64) -> Scenario {
        Scenario::new(
            TaskSpec::new(n, d),
            CheckpointCosts::paper_scp_variant(),
            DvsConfig::paper_default(),
        )
    }

    #[test]
    fn compute_time_check_is_finite_and_non_negative() {
        for t in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MAX,
        ] {
            let invalid = !t.is_finite() || t < 0.0;
            assert_eq!(valid_compute_time(t), !invalid, "{t:?}");
        }
    }

    #[test]
    fn fault_free_run_exact_accounting() {
        let s = scenario(1000.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::none();
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed && out.timely);
        assert_eq!(out.segments, 10);
        assert_eq!(out.compare_store_checkpoints, 10);
        assert_eq!(out.faults, 0);
        assert_eq!(out.rollbacks, 0);
        // 1000 work + 10 × 22 checkpoint cycles at f = 1.
        assert!((out.finish_time - 1220.0).abs() < 1e-9);
        // Energy: 2 processors × V² = 2 × 1220 cycles.
        assert!((out.energy - 2.0 * 2.0 * 1220.0).abs() < 1e-6);
        assert_eq!(out.fast_fraction(), 0.0);
    }

    #[test]
    fn fault_free_run_at_high_speed_halves_time() {
        let s = scenario(1000.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 50.0,
            speed: 1,
        };
        let mut f = DeterministicFaults::none();
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        // 10 segments of 50 time units (100 cycles each) + 10 CSCPs of 11
        // time units (22 cycles at f = 2).
        assert!((out.finish_time - (500.0 + 110.0)).abs() < 1e-9);
        // One implicit switch from the slowest initial speed.
        assert_eq!(out.speed_switches, 1);
        assert_eq!(out.fast_fraction(), 1.0);
        // Energy at V² = 4.
        assert!((out.energy - 2.0 * 4.0 * 1220.0).abs() < 1e-6);
    }

    #[test]
    fn single_fault_rolls_back_one_interval() {
        let s = scenario(1000.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        // Fault in the middle of the third segment. Segments end at
        // 122k boundaries: segment 3 spans [244, 344).
        let mut f = DeterministicFaults::new(vec![300.0]);
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed && out.timely);
        assert_eq!(out.faults, 1);
        assert_eq!(out.rollbacks, 1);
        assert_eq!(out.segments, 11);
        assert_eq!(out.compare_store_checkpoints, 11);
        // One extra interval (100 + 22) on top of the fault-free 1220.
        assert!((out.finish_time - 1342.0).abs() < 1e-9);
    }

    #[test]
    fn fault_during_checkpoint_detected_next_interval() {
        let s = scenario(1000.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        // First CSCP op spans [100, 122): snapshot at t = 100 is clean, the
        // fault at t = 110 corrupts the running state; the mismatch is
        // detected at the *second* CSCP (t = 222) and rolls back to pos 100.
        let mut f = DeterministicFaults::new(vec![110.0]);
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        assert_eq!(out.rollbacks, 1);
        assert!((out.finish_time - 1342.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_faults_can_be_disabled() {
        let s = scenario(1000.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::new(vec![110.0]);
        let opts = ExecutorOptions {
            faults_during_overhead: false,
            ..ExecutorOptions::default()
        };
        let out = Executor::new(&s).with_options(opts).run(&mut p, &mut f);
        // The fault lands inside a checkpoint window and is ignored.
        assert_eq!(out.faults, 0);
        assert_eq!(out.rollbacks, 0);
        assert!((out.finish_time - 1220.0).abs() < 1e-9);
    }

    #[test]
    fn scp_scheme_rolls_back_to_last_clean_store() {
        // One CSCP interval of 400 cycles split into m = 4 sub-intervals of
        // 100; SCPs at 100, 200, 300 (positions), CSCP at 400.
        let s = Scenario::new(
            TaskSpec::new(400.0, 10_000.0),
            CheckpointCosts::new(2.0, 20.0, 0.0),
            DvsConfig::paper_default(),
        );
        let mut p = FixedScpScheme {
            sub_interval: 100.0,
            m: 4,
            seg: 0,
        };
        // Timeline: seg1 [0,100) +SCP 2 → t=102; seg2 [102,202) +SCP → 204;
        // seg3 [204,304) +SCP → 306; seg4 [306,406) +CSCP 22 → 428.
        // Fault at t = 250 lands in segment 3 (positions 200..300): the
        // mismatch is detected at the CSCP (t = 406 snapshot) and rolls
        // back to the SCP at position 200 (stored at t = 202–204, clean).
        let mut f = DeterministicFaults::new(vec![250.0]);
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        assert_eq!(out.rollbacks, 1);
        // Work re-executed: positions 200..400 (two sub-intervals), with
        // 1 SCP + 1 CSCP of overhead on the retry.
        // Total time: fault-free pass to first CSCP end = 400 + 3·2 + 22 =
        // 428; retry = 200 + 2 + 22 = 224; total = 652.
        assert!(
            (out.finish_time - 652.0).abs() < 1e-9,
            "finish = {}",
            out.finish_time
        );
        assert_eq!(out.store_checkpoints, 4); // 3 + 1 re-executed
        assert_eq!(out.compare_store_checkpoints, 2); // failed + passing
    }

    #[test]
    fn ccp_mismatch_rolls_back_to_interval_start() {
        // CCP scheme: compares at sub-interval boundaries, stores only at
        // the enclosing CSCP; a fault detected at the first CCP must roll
        // back to position 0.
        struct CcpScheme {
            sub: f64,
            m: u32,
            seg: u32,
        }
        impl Policy for CcpScheme {
            fn name(&self) -> &'static str {
                "fixed-ccp"
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
                let kind = if (self.seg + 1).is_multiple_of(self.m) {
                    CheckpointKind::CompareStore
                } else {
                    CheckpointKind::Compare
                };
                self.seg += 1;
                Directive::run(0, self.sub, kind)
            }
            fn on_compare(&mut self, _c: &PlanContext<'_>, _k: CheckpointKind, mismatch: bool) {
                if mismatch {
                    self.seg = 0;
                }
            }
        }
        let s = Scenario::new(
            TaskSpec::new(400.0, 10_000.0),
            CheckpointCosts::new(20.0, 2.0, 0.0),
            DvsConfig::paper_default(),
        );
        let mut p = CcpScheme {
            sub: 100.0,
            m: 4,
            seg: 0,
        };
        // Fault at t = 50, in the first sub-interval: detected at the CCP at
        // t = 100 (cost 2), rolled back to position 0 at t = 102.
        let mut f = DeterministicFaults::new(vec![50.0]);
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        assert_eq!(out.rollbacks, 1);
        // Retry from scratch: 3 CCPs (2 cycles) + CSCP (22 cycles) + 400
        // work = 428; plus the aborted first attempt 100 + 2 = 102.
        assert!(
            (out.finish_time - 530.0).abs() < 1e-9,
            "finish = {}",
            out.finish_time
        );
        assert_eq!(out.compare_checkpoints, 4); // 1 failed + 3 clean
    }

    #[test]
    fn late_completion_is_untimely() {
        let s = scenario(1000.0, 1100.0); // needs 1220 fault-free
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::none();
        let out = Executor::new(&s).run(&mut p, &mut f);
        // The final interval starts before the deadline and finishes after
        // it: the run completes, but late.
        assert!(out.completed);
        assert!(!out.timely);
        assert!((out.finish_time - 1220.0).abs() < 1e-9);
    }

    #[test]
    fn deadline_cutoff_stops_doomed_runs() {
        let s = scenario(10_000.0, 1000.0); // hopeless: needs 12_200
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::none();
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(!out.completed && !out.timely);
        // Stopped at the first operation boundary past the deadline.
        assert!(out.finish_time > 1000.0);
        assert!(out.finish_time < 1000.0 + 123.0);
        // Energy charged only up to the cut-off.
        assert!(out.energy <= 2.0 * 2.0 * (1000.0 + 122.0) + 1e-6);
    }

    #[test]
    fn completion_exactly_at_deadline_is_timely() {
        // 1000 work + 10 CSCPs × 22 = 1220 exactly.
        let s = scenario(1000.0, 1220.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::none();
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed && out.timely);
        assert!((out.finish_time - 1220.0).abs() < 1e-9);
    }

    #[test]
    fn abort_directive_fails_run() {
        struct Quitter;
        impl Policy for Quitter {
            fn name(&self) -> &'static str {
                "quitter"
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
                Directive::Abort
            }
        }
        let s = scenario(1000.0, 10_000.0);
        let out = Executor::new(&s).run(&mut Quitter, &mut DeterministicFaults::none());
        assert!(out.aborted && !out.completed && !out.timely);
        assert_eq!(out.energy, 0.0);
    }

    #[test]
    fn invalid_speed_is_flagged() {
        struct Bad;
        impl Policy for Bad {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
                Directive::run(9, 1.0, CheckpointKind::CompareStore)
            }
        }
        let s = scenario(1000.0, 10_000.0);
        let out = Executor::new(&s).run(&mut Bad, &mut DeterministicFaults::none());
        assert_eq!(out.anomaly, Some(Anomaly::InvalidSpeed));
    }

    #[test]
    fn invalid_compute_time_is_flagged() {
        struct Bad;
        impl Policy for Bad {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
                Directive::run(0, f64::NAN, CheckpointKind::CompareStore)
            }
        }
        let s = scenario(1000.0, 10_000.0);
        let out = Executor::new(&s).run(&mut Bad, &mut DeterministicFaults::none());
        assert_eq!(out.anomaly, Some(Anomaly::InvalidComputeTime));
    }

    #[test]
    fn segment_overshoot_is_clamped_to_task_end() {
        let s = scenario(130.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::none();
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        // Segments: 100 + 30 (clamped); 2 CSCPs.
        assert_eq!(out.segments, 2);
        assert!((out.finish_time - (130.0 + 44.0)).abs() < 1e-9);
    }

    #[test]
    fn position_clamp_matches_f64_min_bit_for_bit() {
        let work = 7600.0_f64;
        let below = f64::from_bits(work.to_bits() - 1);
        let above = f64::from_bits(work.to_bits() + 1);
        let subnormal = f64::from_bits(1);
        let cases = [
            (work, work),
            (below, work),
            (above, work),
            (0.0, work),
            (0.0, 0.0),
            (subnormal, work),
            (subnormal, subnormal),
            (work, subnormal),
            (1e300, work),
            (work, 1e300),
            (1e300, 1e300),
        ];
        for (p, w) in cases {
            assert_eq!(
                clamp_position(p, w).to_bits(),
                p.min(w).to_bits(),
                "clamp_position({p:e}, {w:e})"
            );
        }
    }

    #[test]
    fn multiple_faults_in_one_interval_count_once_for_rollback() {
        let s = scenario(1000.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::new(vec![10.0, 20.0, 30.0]);
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        assert_eq!(out.faults, 3);
        assert_eq!(out.rollbacks, 1);
        assert!((out.finish_time - 1342.0).abs() < 1e-9);
    }

    #[test]
    fn trace_records_are_consistent() {
        let s = scenario(300.0, 10_000.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::new(vec![150.0]);
        let mut rec = TraceRecorder::new();
        let out = Executor::new(&s).run_observed(&mut p, &mut f, &mut rec);
        assert!(out.completed);
        let events = rec.events();
        assert!(!events.is_empty());
        // Events are time-ordered.
        let mut last = 0.0;
        for e in events {
            let t = e.start_time();
            assert!(t >= last - 1e-9, "out of order: {e:?}");
            last = t;
        }
        assert!(matches!(
            events.last().unwrap(),
            TraceEvent::Complete { .. }
        ));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Fault { .. }))
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Rollback { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn observer_sees_deadline_miss_and_energy_samples() {
        use crate::observe::Observer;

        #[derive(Default)]
        struct Probe {
            deadline_misses: u32,
            deadline_at: f64,
            samples: Vec<f64>,
        }
        impl Observer for Probe {
            fn on_deadline_miss(&mut self, at: f64) {
                self.deadline_misses += 1;
                self.deadline_at = at;
            }
            fn on_energy_sample(&mut self, _at: f64, cumulative: f64) {
                self.samples.push(cumulative);
            }
        }

        // Late completion: 1000 work needs 1220 > D = 1100.
        let s = scenario(1000.0, 1100.0);
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut probe = Probe::default();
        let out =
            Executor::new(&s).run_observed(&mut p, &mut DeterministicFaults::none(), &mut probe);
        assert!(out.completed && !out.timely);
        // Exactly one miss, at the moment the clock first passed D.
        assert_eq!(probe.deadline_misses, 1);
        assert!(probe.deadline_at > 1100.0);
        // One cumulative sample per checkpoint operation, non-decreasing,
        // ending at the run's total energy.
        assert_eq!(probe.samples.len(), 10);
        assert!(probe.samples.windows(2).all(|w| w[0] <= w[1]));
        assert!((probe.samples.last().unwrap() - out.energy).abs() < 1e-9);
    }

    #[test]
    fn observed_run_matches_blind_run_exactly() {
        let s = scenario(1000.0, 10_000.0);
        let run = |observed: bool| {
            let mut p = FixedCscp {
                interval: 100.0,
                speed: 0,
            };
            let mut f = DeterministicFaults::new(vec![110.0, 300.0, 820.0]);
            let exec = Executor::new(&s);
            if observed {
                let mut rec = TraceRecorder::new();
                exec.run_observed(&mut p, &mut f, &mut rec)
            } else {
                exec.run(&mut p, &mut f)
            }
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn no_progress_policy_is_flagged() {
        struct Lazy;
        impl Policy for Lazy {
            fn name(&self) -> &'static str {
                "lazy"
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
                // Zero compute, zero-cost checkpoint would stall forever —
                // but CheckpointCosts forbids a free CSCP, so use Store with
                // zero store cost.
                Directive::run(0, 0.0, CheckpointKind::Store)
            }
        }
        let s = Scenario::new(
            TaskSpec::new(100.0, 1000.0),
            CheckpointCosts::new(0.0, 5.0, 0.0),
            DvsConfig::paper_default(),
        );
        let out = Executor::new(&s).run(&mut Lazy, &mut DeterministicFaults::none());
        assert_eq!(out.anomaly, Some(Anomaly::NoProgress));
    }

    #[test]
    fn fault_draws_count_against_the_op_budget() {
        /// One arrival per time unit, counting every draw.
        struct Counting {
            at: f64,
            drawn: u64,
        }
        impl FaultProcess for Counting {
            fn next_fault(&mut self) -> f64 {
                self.drawn += 1;
                self.at += 1.0;
                self.at
            }
        }
        // A CSCP of 2e300 time units would hold ~2e300 arrivals.
        let s = Scenario::new(
            TaskSpec::new(1000.0, 10_000.0),
            CheckpointCosts::new(1e300, 1e300, 0.0),
            DvsConfig::paper_default(),
        );
        for faults_during_overhead in [true, false] {
            let mut p = FixedCscp {
                interval: 100.0,
                speed: 0,
            };
            let mut f = Counting { at: 0.0, drawn: 0 };
            let opts = ExecutorOptions {
                max_operations: 1000,
                faults_during_overhead,
                ..ExecutorOptions::default()
            };
            let out = Executor::new(&s).with_options(opts).run(&mut p, &mut f);
            assert_eq!(out.anomaly, Some(Anomaly::OpBudgetExhausted));
            // One arrival drawn up front, then at most the budget.
            assert!(f.drawn <= 1001, "drew {} arrivals", f.drawn);
            assert!(f.drawn >= 990, "drew {} arrivals", f.drawn);
        }
    }

    #[test]
    fn rollback_cost_is_charged() {
        let s = Scenario::new(
            TaskSpec::new(200.0, 10_000.0),
            CheckpointCosts::new(2.0, 20.0, 10.0),
            DvsConfig::paper_default(),
        );
        let mut p = FixedCscp {
            interval: 100.0,
            speed: 0,
        };
        let mut f = DeterministicFaults::new(vec![50.0]);
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        assert_eq!(out.rollbacks, 1);
        // Fault-free: 200 + 2·22 = 244; retry adds 100 + 22 + 10 = 132.
        assert!(
            (out.finish_time - 376.0).abs() < 1e-9,
            "finish = {}",
            out.finish_time
        );
    }
}
