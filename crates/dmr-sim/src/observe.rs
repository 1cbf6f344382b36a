//! Streaming observation of executions: the [`Observer`] trait.
//!
//! Before the `eacp-exec` redesign the engine had two entry points —
//! `run` (fast, blind) and `run_traced` (slow, recording) — and
//! Monte-Carlo drivers could not see inside a replication at all. An
//! [`Observer`] unifies them: the engine reports every event through the
//! trait, tracing is just the [`TraceRecorder`] observer, and the
//! [`NoopObserver`]'s empty inlined methods let the optimizer compile the
//! observed path down to the old blind fast path.
//!
//! # Event vocabulary
//!
//! | Callback | When |
//! |---|---|
//! | [`Observer::on_replication_start`] | a Monte-Carlo replication begins (runner-level) |
//! | [`Observer::on_replication_end`] | a replication's [`RunOutcome`] is final (runner-level) |
//! | [`Observer::on_event`] | every engine [`TraceEvent`]: computation segment, checkpoint (store / compare / compare-and-store, with mismatch verdict), fault arrival, rollback, speed change, completion, abort |
//! | [`Observer::on_deadline_miss`] | the run first passes its deadline (at most once per run) |
//! | [`Observer::on_energy_sample`] | cumulative energy after each checkpoint operation |
//!
//! The engine emits `on_event` / `on_deadline_miss` / `on_energy_sample`;
//! replication brackets are emitted by Monte-Carlo runners (`eacp-exec`).

use crate::outcome::RunOutcome;
use crate::trace::{TraceEvent, TraceRecorder};

/// Receives a stream of execution events.
///
/// All methods have empty default bodies, so an observer implements only
/// what it cares about. Observers are driven from one thread at a time:
/// parallel runners either give each worker its own observer or fall back
/// to a sequential schedule when a shared observer is attached.
pub trait Observer {
    /// A Monte-Carlo replication is about to run with the given derived
    /// seed (see [`crate::replication_seed`]).
    fn on_replication_start(&mut self, replication: u64, seed: u64) {
        let _ = (replication, seed);
    }

    /// A replication finished with this outcome.
    fn on_replication_end(&mut self, replication: u64, outcome: &RunOutcome) {
        let _ = (replication, outcome);
    }

    /// An engine event occurred (segment, checkpoint, fault, rollback,
    /// speed change, completion, abort).
    fn on_event(&mut self, event: &TraceEvent) {
        let _ = event;
    }

    /// The run's wall-clock time first passed the task deadline.
    fn on_deadline_miss(&mut self, at: f64) {
        let _ = at;
    }

    /// Cumulative consumed energy after a checkpoint operation completed.
    fn on_energy_sample(&mut self, at: f64, cumulative_energy: f64) {
        let _ = (at, cumulative_energy);
    }
}

/// The do-nothing observer: the fast path.
///
/// Every callback is an empty default method, so monomorphized engine code
/// using `NoopObserver` optimizes to exactly the unobserved execution loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Tracing is just one observer: the recorder keeps the Fig. 1/Fig. 5
/// timeline vocabulary (deadline misses and energy samples are runner-level
/// telemetry, not timeline rows, and are not recorded).
impl Observer for TraceRecorder {
    fn on_event(&mut self, event: &TraceEvent) {
        self.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_methods_are_callable_noops() {
        struct OnlyFaults(u32);
        impl Observer for OnlyFaults {
            fn on_event(&mut self, event: &TraceEvent) {
                if matches!(event, TraceEvent::Fault { .. }) {
                    self.0 += 1;
                }
            }
        }
        let mut o = OnlyFaults(0);
        o.on_replication_start(0, 1);
        o.on_deadline_miss(5.0);
        o.on_energy_sample(5.0, 10.0);
        o.on_event(&TraceEvent::Fault {
            at: 1.0,
            processor: 0,
        });
        o.on_event(&TraceEvent::Complete { at: 2.0 });
        assert_eq!(o.0, 1);
    }

    #[test]
    fn trace_recorder_records_events_only() {
        let mut rec = TraceRecorder::new();
        rec.on_event(&TraceEvent::Complete { at: 3.0 });
        rec.on_deadline_miss(1.0);
        rec.on_energy_sample(1.0, 2.0);
        assert_eq!(rec.len(), 1);
    }
}
