//! Filesystem backend: one JSON file per cell under a store directory.
//!
//! Layout:
//!
//! ```text
//! <root>/cells/<spec-hash>/s<seed>-r<replications>.json   live entries
//! <root>/quarantine/<spec-hash>-s<seed>-r<reps>.json      rejected entries
//! <root>/tmp/                                             write staging
//! ```
//!
//! Writes are **atomic**: the entry is staged under `tmp/` and renamed
//! into place, so a killed process can never leave a half-written live
//! entry — at worst it leaves stale temp files, which `evict` sweeps.
//! Reads run the full [`CellEntry::validate`] integrity suite; anything
//! that fails is *moved* to `quarantine/` (preserved for forensics, out of
//! the live set) and reported as [`Lookup::Quarantined`], never a panic.
//!
//! This is the one module in the crate that touches wall-clock filesystem
//! state (directory walks, mtimes for eviction order); nothing here feeds
//! back into simulation results.

use crate::backend::{decode, EvictionReport, Lookup, RetentionPolicy, StoreBackend, StoreHealth};
use crate::cell::{CellEntry, CellId};
use crate::hash::SpecHash;
use eacp_spec::SpecError;
use std::path::{Path, PathBuf};

/// The name of the environment variable the CLI resolves a default store
/// directory from (the flag `--store DIR` wins over it).
pub const STORE_ENV_VAR: &str = "EACP_STORE";

/// A store rooted at a directory.
#[derive(Debug, Clone)]
pub struct FsBackend {
    root: PathBuf,
}

fn io_err(path: &Path, e: std::io::Error) -> SpecError {
    SpecError::Io(format!("{}: {e}", path.display()))
}

impl FsBackend {
    /// Opens (creating if absent) a store directory.
    pub fn open(root: &Path) -> Result<Self, SpecError> {
        std::fs::create_dir_all(root.join("cells")).map_err(|e| io_err(root, e))?;
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn cell_path(&self, id: &CellId) -> PathBuf {
        self.root
            .join("cells")
            .join(id.spec_hash.to_string())
            .join(format!("s{}-r{}.json", id.seed, id.replications))
    }

    fn quarantine_path(&self, id: &CellId) -> PathBuf {
        self.root.join("quarantine").join(format!(
            "{}-s{}-r{}.json",
            id.spec_hash, id.seed, id.replications
        ))
    }

    /// Moves a rejected entry out of the live set, keeping its bytes for
    /// forensics. A failed move falls back to deletion — the one thing a
    /// quarantine must guarantee is that the entry cannot be served again.
    fn quarantine(&self, id: &CellId, live: &Path) -> Result<(), SpecError> {
        let dest = self.quarantine_path(id);
        if let Some(parent) = dest.parent() {
            std::fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
        }
        if std::fs::rename(live, &dest).is_err() {
            std::fs::remove_file(live).map_err(|e| io_err(live, e))?;
        }
        Ok(())
    }

    /// Every live entry as `(id, path, bytes)`, oldest first.
    ///
    /// "Oldest" is filesystem mtime with the path as deterministic
    /// tiebreaker — wall-clock state is storage housekeeping, never an
    /// input to simulation results, and it stays confined to this walk.
    fn walk(&self) -> Result<Vec<(CellId, PathBuf, u64)>, SpecError> {
        let cells = self.root.join("cells");
        let mut out = Vec::new();
        let hash_dirs = std::fs::read_dir(&cells).map_err(|e| io_err(&cells, e))?;
        for hash_dir in hash_dirs {
            let hash_dir = hash_dir.map_err(|e| io_err(&cells, e))?.path();
            let Some(hash) = hash_dir
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| SpecHash::from_hex(n).ok())
            else {
                continue; // foreign file in cells/; not ours to touch
            };
            let Ok(files) = std::fs::read_dir(&hash_dir) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                let Some(id) = parse_cell_file_name(hash, &path) else {
                    continue; // temp leftovers and foreign files
                };
                let Ok(md) = file.metadata() else { continue };
                // audit:allow(determinism): eviction age-orders by mtime.
                out.push((md.modified().ok(), id, path, md.len()));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        Ok(out
            .into_iter()
            .map(|(_, id, path, len)| (id, path, len))
            .collect())
    }
}

/// Parses `s<seed>-r<reps>.json` back into a [`CellId`].
fn parse_cell_file_name(hash: SpecHash, path: &Path) -> Option<CellId> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix('s')?.strip_suffix(".json")?;
    let (seed, reps) = rest.split_once("-r")?;
    Some(CellId {
        spec_hash: hash,
        seed: seed.parse().ok()?,
        replications: reps.parse().ok()?,
    })
}

impl StoreBackend for FsBackend {
    fn get(&self, id: &CellId) -> Result<Lookup, SpecError> {
        let path = self.cell_path(id);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Lookup::Miss),
            Err(e) => return Err(io_err(&path, e)),
        };
        // A corrupt entry is quarantined like any other, not an I/O error.
        let decoded = match String::from_utf8(bytes) {
            Ok(text) => decode(id, &text).map(|entry| (entry, text)),
            Err(_) => Err("entry is not valid UTF-8".to_owned()),
        };
        match decoded {
            Ok((mut entry, text)) => {
                entry.source = Some(path);
                Ok(Lookup::Hit { entry, text })
            }
            Err(detail) => {
                self.quarantine(id, &path)?;
                Ok(Lookup::Quarantined {
                    detail: format!("{}: {detail}", path.display()),
                })
            }
        }
    }

    fn put(&self, entry: &CellEntry) -> Result<(), SpecError> {
        entry.validate()?;
        let path = self.cell_path(&entry.cell);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
        }
        // Stage-and-rename: readers never observe a partial entry.
        let tmp_dir = self.root.join("tmp");
        std::fs::create_dir_all(&tmp_dir).map_err(|e| io_err(&tmp_dir, e))?;
        let tmp = tmp_dir.join(format!(
            "{}-s{}-r{}.{}.json",
            entry.cell.spec_hash,
            entry.cell.seed,
            entry.cell.replications,
            std::process::id()
        ));
        std::fs::write(&tmp, entry.canonical_text()).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))
    }

    fn list(&self) -> Result<Vec<CellId>, SpecError> {
        let mut ids: Vec<CellId> = self.walk()?.into_iter().map(|(id, ..)| id).collect();
        ids.sort_unstable();
        Ok(ids)
    }

    fn health(&self) -> Result<StoreHealth, SpecError> {
        let live = self.walk()?;
        let quarantined = match std::fs::read_dir(self.root.join("quarantine")) {
            Ok(entries) => entries.flatten().count() as u64,
            Err(_) => 0, // no quarantine directory yet: nothing rejected
        };
        Ok(StoreHealth {
            entries: live.len() as u64,
            total_bytes: live.iter().map(|(_, _, len)| len).sum(),
            quarantined,
            location: self.root.display().to_string(),
        })
    }

    fn evict(&self, policy: &RetentionPolicy) -> Result<EvictionReport, SpecError> {
        // Sweep staging leftovers from killed writers first; they are
        // invisible to lookups but should not pin disk space.
        if let Ok(tmp) = std::fs::read_dir(self.root.join("tmp")) {
            for stale in tmp.flatten() {
                let _ = std::fs::remove_file(stale.path());
            }
        }
        let live = self.walk()?;
        let examined = live.len() as u64;
        let mut remaining = examined;
        let mut remaining_bytes: u64 = live.iter().map(|(_, _, len)| len).sum();
        let mut evicted = 0u64;
        let mut reclaimed = 0u64;
        for (_, path, len) in live {
            let over_entries = policy.max_entries.is_some_and(|m| remaining > m);
            let over_bytes = policy.max_bytes.is_some_and(|m| remaining_bytes > m);
            if !over_entries && !over_bytes {
                break;
            }
            std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
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

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eacp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips_and_sets_provenance() {
        let dir = temp_store("roundtrip");
        let store = FsBackend::open(&dir).unwrap();
        let entry = entry_with(1, 40);
        assert!(matches!(store.get(&entry.cell).unwrap(), Lookup::Miss));
        store.put(&entry).unwrap();
        match store.get(&entry.cell).unwrap() {
            Lookup::Hit { entry: got, text } => {
                assert_eq!(got, entry);
                assert_eq!(text, entry.canonical_text());
                let source = got.source.expect("fs hits carry provenance");
                assert!(source.starts_with(&dir), "{}", source.display());
                assert_eq!(text, std::fs::read_to_string(&source).unwrap());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_quarantined_with_bytes_preserved() {
        let dir = temp_store("quarantine");
        let store = FsBackend::open(&dir).unwrap();
        let entry = entry_with(2, 40);
        store.put(&entry).unwrap();

        // Tamper with the embedded spec document — covered by the content
        // address, so the entry no longer re-hashes to its own cell.
        let path = dir
            .join("cells")
            .join(entry.cell.spec_hash.to_string())
            .join("s2-r40.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("\"processors\": 2", "\"processors\": 3"),
        )
        .unwrap();

        match store.get(&entry.cell).unwrap() {
            Lookup::Quarantined { detail } => {
                assert!(detail.contains("s2-r40.json"), "{detail}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Out of the live set, bytes preserved for forensics.
        assert!(matches!(store.get(&entry.cell).unwrap(), Lookup::Miss));
        assert_eq!(store.health().unwrap().quarantined, 1);
        assert!(dir.join("quarantine").read_dir().unwrap().count() == 1);

        // Truncated JSON quarantines too.
        store.put(&entry).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            store.get(&entry.cell).unwrap(),
            Lookup::Quarantined { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_filed_under_the_wrong_cell_is_quarantined() {
        let dir = temp_store("misfiled");
        let store = FsBackend::open(&dir).unwrap();
        let entry = entry_with(3, 40);
        store.put(&entry).unwrap();
        // Copy the entry to a different seed's slot.
        let good = store.cell_path(&entry.cell);
        let mut misfiled_id = entry.cell;
        misfiled_id.seed = 999;
        let bad = store.cell_path(&misfiled_id);
        std::fs::copy(&good, &bad).unwrap();
        match store.get(&misfiled_id).unwrap() {
            Lookup::Quarantined { detail } => assert!(detail.contains("claims cell"), "{detail}"),
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The correctly-filed entry is untouched.
        assert!(matches!(
            store.get(&entry.cell).unwrap(),
            Lookup::Hit { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_health_and_eviction_cover_the_live_set() {
        let dir = temp_store("evict");
        let store = FsBackend::open(&dir).unwrap();
        let entries: Vec<CellEntry> = (0..3).map(|s| entry_with(s, 40)).collect();
        for e in &entries {
            store.put(e).unwrap();
        }
        let mut expected: Vec<CellId> = entries.iter().map(|e| e.cell).collect();
        expected.sort_unstable();
        assert_eq!(store.list().unwrap(), expected);
        let health = store.health().unwrap();
        assert_eq!(health.entries, 3);
        assert!(health.total_bytes > 0);
        assert_eq!(health.location, dir.display().to_string());

        // A stale temp file from a killed writer is swept, not served.
        std::fs::create_dir_all(dir.join("tmp")).unwrap();
        std::fs::write(dir.join("tmp").join("stale.json"), "{").unwrap();

        let report = store
            .evict(&RetentionPolicy {
                max_entries: Some(1),
                max_bytes: None,
            })
            .unwrap();
        assert_eq!(report.examined, 3);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.remaining, 1);
        assert_eq!(store.health().unwrap().entries, 1);
        assert_eq!(dir.join("tmp").read_dir().unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
