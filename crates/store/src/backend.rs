//! Pluggable storage: the [`StoreBackend`] trait and the in-memory
//! reference backend.
//!
//! Backends store *canonical bytes* ([`CellEntry::canonical_text`]), not
//! in-memory objects: a hit hands back both the parsed entry and the exact
//! bytes that were persisted, which is what lets `eacp store verify`
//! promise "any byte mismatch fails" rather than "parses to something
//! equal".
//!
//! Corruption discipline (ROADMAP R4): a damaged or tampered entry is
//! **quarantined** — reported as [`Lookup::Quarantined`] and removed from
//! the live set — never a panic and never a silent wrong answer. Only
//! environmental failures (an unreadable directory, a full disk) are
//! errors.

use crate::cell::{CellEntry, CellId};
use eacp_spec::{Json, SpecError};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The result of looking a cell up.
///
/// `Hit` is much larger than the other variants; lookups are cold-path
/// one-per-cell values, so boxing would cost more in ergonomics than it
/// saves in moves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The cell is present and intact.
    Hit {
        /// The parsed, validated entry (with its provenance `source` set
        /// when the backend knows one).
        entry: CellEntry,
        /// The exact persisted bytes of the entry.
        text: String,
    },
    /// The cell has never been recorded.
    Miss,
    /// An entry existed but failed integrity checks and was moved out of
    /// the live set; callers treat this as a miss and recompute.
    Quarantined {
        /// Why the entry was rejected.
        detail: String,
    },
}

/// A backend's self-report, for `eacp store status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHealth {
    /// Live entries.
    pub entries: u64,
    /// Total size of the live entries' canonical bytes.
    pub total_bytes: u64,
    /// Entries quarantined over the store's lifetime (filesystem backends
    /// count the quarantine directory; memory backends count since open).
    pub quarantined: u64,
    /// Human-readable location ("memory", or a directory path).
    pub location: String,
}

/// Retention limits for [`StoreBackend::evict`]. `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionPolicy {
    /// Keep at most this many entries.
    pub max_entries: Option<u64>,
    /// Keep at most this many bytes of entries.
    pub max_bytes: Option<u64>,
}

/// What an eviction pass did, for `eacp store gc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionReport {
    /// Entries examined.
    pub examined: u64,
    /// Entries removed.
    pub evicted: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Entries remaining.
    pub remaining: u64,
}

/// Pluggable cell storage with health reporting and retention.
///
/// All methods take `&self`: backends are internally synchronized so one
/// store can serve concurrent sweep workers.
pub trait StoreBackend: Sync {
    /// Looks a cell up, validating integrity on the way out.
    fn get(&self, id: &CellId) -> Result<Lookup, SpecError>;

    /// Records an entry (idempotent: re-recording a cell overwrites it
    /// with identical bytes).
    fn put(&self, entry: &CellEntry) -> Result<(), SpecError>;

    /// Every live cell id, ascending.
    fn list(&self) -> Result<Vec<CellId>, SpecError>;

    /// The backend's health snapshot.
    fn health(&self) -> Result<StoreHealth, SpecError>;

    /// Evicts oldest-first until the retention policy is satisfied.
    fn evict(&self, policy: &RetentionPolicy) -> Result<EvictionReport, SpecError>;
}

/// In-memory reference backend: a seq-stamped [`BTreeMap`] behind a mutex.
///
/// "Oldest" for eviction is insertion order (the seq stamp), which is the
/// deterministic analogue of the filesystem backend's mtime order.
#[derive(Debug, Default)]
pub struct MemBackend {
    state: Mutex<MemState>,
}

#[derive(Debug, Default)]
struct MemState {
    entries: BTreeMap<CellId, (u64, String)>,
    seq: u64,
    quarantined: u64,
}

impl MemBackend {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        // A poisoned mutex only means another thread panicked mid-update;
        // the map itself is still structurally sound.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StoreBackend for MemBackend {
    fn get(&self, id: &CellId) -> Result<Lookup, SpecError> {
        let mut state = self.lock();
        let Some((_, text)) = state.entries.get(id) else {
            return Ok(Lookup::Miss);
        };
        match decode(id, text) {
            Ok(entry) => Ok(Lookup::Hit {
                text: text.clone(),
                entry,
            }),
            Err(detail) => {
                state.entries.remove(id);
                state.quarantined += 1;
                Ok(Lookup::Quarantined { detail })
            }
        }
    }

    fn put(&self, entry: &CellEntry) -> Result<(), SpecError> {
        entry.validate()?;
        let mut state = self.lock();
        state.seq += 1;
        let stamp = state.seq;
        state
            .entries
            .insert(entry.cell, (stamp, entry.canonical_text()));
        Ok(())
    }

    fn list(&self) -> Result<Vec<CellId>, SpecError> {
        Ok(self.lock().entries.keys().copied().collect())
    }

    fn health(&self) -> Result<StoreHealth, SpecError> {
        let state = self.lock();
        Ok(StoreHealth {
            entries: state.entries.len() as u64,
            total_bytes: state.entries.values().map(|(_, t)| t.len() as u64).sum(),
            quarantined: state.quarantined,
            location: "memory".to_owned(),
        })
    }

    fn evict(&self, policy: &RetentionPolicy) -> Result<EvictionReport, SpecError> {
        let mut state = self.lock();
        let examined = state.entries.len() as u64;
        // Oldest (smallest seq) first.
        let mut order: Vec<(u64, CellId, u64)> = state
            .entries
            .iter()
            .map(|(id, (seq, text))| (*seq, *id, text.len() as u64))
            .collect();
        order.sort_unstable_by_key(|(seq, _, _)| *seq);
        let mut remaining = examined;
        let mut remaining_bytes: u64 = order.iter().map(|(_, _, len)| len).sum();
        let mut evicted = 0u64;
        let mut reclaimed = 0u64;
        for (_, id, len) in order {
            let over_entries = policy.max_entries.is_some_and(|m| remaining > m);
            let over_bytes = policy.max_bytes.is_some_and(|m| remaining_bytes > m);
            if !over_entries && !over_bytes {
                break;
            }
            state.entries.remove(&id);
            remaining -= 1;
            remaining_bytes -= len;
            evicted += 1;
            reclaimed += len;
        }
        Ok(EvictionReport {
            examined,
            evicted,
            reclaimed_bytes: reclaimed,
            remaining,
        })
    }
}

/// Parses and integrity-checks one persisted entry; the error string is the
/// quarantine detail.
pub(crate) fn decode(id: &CellId, text: &str) -> Result<CellEntry, String> {
    let json = Json::parse(text).map_err(|e| format!("malformed entry: {e}"))?;
    let entry = CellEntry::from_document(json).map_err(|e| format!("invalid entry: {e}"))?;
    if entry.cell != *id {
        return Err(format!(
            "entry is filed under cell {id} but claims cell {}",
            entry.cell
        ));
    }
    entry.validate().map_err(|e| e.to_string())?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_exec::run;
    use eacp_spec::{ExperimentSpec, McSpec};

    fn entry_with(seed: u64, reps: u64) -> CellEntry {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed,
            threads: 1,
        };
        let (summary, _) = run(&spec).unwrap();
        CellEntry::summary(&spec, &summary)
    }

    #[test]
    fn put_get_round_trips_canonical_bytes() {
        let store = MemBackend::new();
        let entry = entry_with(1, 40);
        assert!(matches!(store.get(&entry.cell).unwrap(), Lookup::Miss));
        store.put(&entry).unwrap();
        match store.get(&entry.cell).unwrap() {
            Lookup::Hit { entry: got, text } => {
                assert_eq!(got, entry);
                assert_eq!(text, entry.canonical_text());
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let store = MemBackend::new();
        let entry = entry_with(2, 40);
        store.put(&entry).unwrap();
        // Corrupt the stored bytes behind the backend's back.
        {
            let mut state = store.lock();
            let (_, text) = state.entries.get_mut(&entry.cell).unwrap();
            *text = text.replace("\"timely\"", "\"timeIy\"");
        }
        assert!(matches!(
            store.get(&entry.cell).unwrap(),
            Lookup::Quarantined { .. }
        ));
        // Quarantine removes the entry: the next lookup is a clean miss.
        assert!(matches!(store.get(&entry.cell).unwrap(), Lookup::Miss));
        assert_eq!(store.health().unwrap().quarantined, 1);
    }

    #[test]
    fn eviction_is_oldest_first_and_policy_bounded() {
        let store = MemBackend::new();
        let entries: Vec<CellEntry> = (0..4).map(|s| entry_with(s, 40)).collect();
        for e in &entries {
            store.put(e).unwrap();
        }
        let report = store
            .evict(&RetentionPolicy {
                max_entries: Some(2),
                max_bytes: None,
            })
            .unwrap();
        assert_eq!(report.examined, 4);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.remaining, 2);
        assert!(report.reclaimed_bytes > 0);
        // The two oldest are gone, the two newest survive.
        assert!(matches!(store.get(&entries[0].cell).unwrap(), Lookup::Miss));
        assert!(matches!(store.get(&entries[1].cell).unwrap(), Lookup::Miss));
        assert!(matches!(
            store.get(&entries[3].cell).unwrap(),
            Lookup::Hit { .. }
        ));

        // An unlimited policy evicts nothing.
        let report = store.evict(&RetentionPolicy::default()).unwrap();
        assert_eq!(report.evicted, 0);
        assert_eq!(report.remaining, 2);
    }

    #[test]
    fn health_counts_entries_and_bytes() {
        let store = MemBackend::new();
        assert_eq!(store.health().unwrap().entries, 0);
        let entry = entry_with(9, 40);
        store.put(&entry).unwrap();
        let health = store.health().unwrap();
        assert_eq!(health.entries, 1);
        assert_eq!(health.total_bytes, entry.canonical_text().len() as u64);
        assert_eq!(health.location, "memory");
        assert_eq!(store.list().unwrap(), vec![entry.cell]);
    }
}
