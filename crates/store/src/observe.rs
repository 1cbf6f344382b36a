//! Store telemetry: hit/miss/record/quarantine hooks.
//!
//! Mirrors the execution layer's `QueueObserver` pattern: a `&self` trait
//! the cache-or-compute path calls at each decision point, a no-op
//! implementation that compiles away, and an atomic-counter implementation
//! the CLI uses to print cache statistics after a run.

use crate::cell::CellId;
use std::sync::atomic::{AtomicU64, Ordering};

/// A streaming view of store traffic.
///
/// All methods take `&self` (sweeps may consult the store from worker
/// threads) and default to no-ops, so an implementation only overrides
/// what it measures.
pub trait StoreObserver: Sync {
    /// A cell was served from the store.
    fn on_hit(&self, id: &CellId) {
        let _ = id;
    }
    /// A cell was absent and will be computed.
    fn on_miss(&self, id: &CellId) {
        let _ = id;
    }
    /// A freshly computed cell was recorded.
    fn on_record(&self, id: &CellId) {
        let _ = id;
    }
    /// A stored entry failed integrity checks and was quarantined.
    fn on_quarantine(&self, id: &CellId, detail: &str) {
        let _ = (id, detail);
    }
}

/// The blind observer: every hook is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopStoreObserver;

impl StoreObserver for NoopStoreObserver {}

/// Atomic hit/miss/record/quarantine tallies.
#[derive(Debug, Default)]
pub struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    records: AtomicU64,
    quarantined: AtomicU64,
}

impl StoreCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cells served from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells computed because the store had no intact entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cells recorded after computation.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Entries quarantined during lookups.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

impl StoreObserver for StoreCounters {
    fn on_hit(&self, _id: &CellId) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn on_miss(&self, _id: &CellId) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    fn on_record(&self, _id: &CellId) {
        self.records.fetch_add(1, Ordering::Relaxed);
    }
    fn on_quarantine(&self, _id: &CellId, _detail: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SpecHash;

    #[test]
    fn counters_tally_each_hook() {
        let id = CellId {
            spec_hash: SpecHash([0u8; 32]),
            seed: 1,
            replications: 2,
        };
        let counters = StoreCounters::new();
        counters.on_hit(&id);
        counters.on_hit(&id);
        counters.on_miss(&id);
        counters.on_record(&id);
        counters.on_quarantine(&id, "bad");
        assert_eq!(
            (
                counters.hits(),
                counters.misses(),
                counters.records(),
                counters.quarantined()
            ),
            (2, 1, 1, 1)
        );
        // The no-op observer accepts the same traffic silently.
        NoopStoreObserver.on_hit(&id);
        NoopStoreObserver.on_quarantine(&id, "bad");
    }
}
