//! Decoding stored entries off disk: mutated entry files, the spec-hash
//! memo's soundness on the read path, and served sweeps.
//!
//! * A mutated `FsBackend` entry file never panics the reader: it comes
//!   back as a quarantine, or as a hit that decodes exactly what the file
//!   now says. Entries carry no payload checksum, so the one mutation a
//!   hit can still report is a rewritten number inside the payload.
//! * `SpecHash::of` remembers the last canonical text it hashed, and a hit
//!   compares its entry's embedded spec with that text. An entry whose
//!   embedded spec differs from it by a single float, or an entry filed
//!   under another cell, must still be quarantined; one whose embedded
//!   spec was only reformatted must still be served.
//! * A multi-cell sweep with a seed axis, served from an `FsBackend`, is
//!   byte-identical to the same sweep computed without a store.

use eacp_exec::{run_sweep_tiered, LocalRunner};
use eacp_spec::{Axis, ExperimentSpec, FromJson, Json, Knob, McSpec, SweepSpec, ToJson};
use eacp_store::{
    run_cached_tiered, run_sweep_cached_tiered, CacheMode, CellEntry, CellId, FsBackend, Lookup,
    NoopStoreObserver, SpecHash, StoreBackend, StoreCell, StoreCounters,
};
use proptest::Strategy;
use std::path::PathBuf;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eacp-entry-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(util: f64, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_nominal();
    if let eacp_spec::WorkSpec::Utilization { utilization, .. } = &mut spec.scenario.work {
        *utilization = util;
    }
    spec.mc = McSpec {
        replications: 40,
        seed,
        threads: 1,
    };
    spec
}

/// Records `spec`'s cell in `store`; returns its id, entry and file.
fn record(store: &FsBackend, spec: &ExperimentSpec) -> (CellId, CellEntry, PathBuf) {
    let run =
        run_cached_tiered(spec, store, CacheMode::ReadWrite, &NoopStoreObserver, false).unwrap();
    match store.get(&run.id).unwrap() {
        Lookup::Hit { entry, .. } => {
            let path = entry.source.clone().unwrap();
            (run.id, entry, path)
        }
        other => panic!("fresh entry did not read back: {other:?}"),
    }
}

fn is_number_byte(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
}

/// How one case damages an entry file.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Replace(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    Truncate(usize),
}

impl Mutation {
    fn apply(self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self {
            Mutation::Replace(i, b) => out[i % bytes.len()] = b,
            Mutation::Insert(i, b) => out.insert(i % (bytes.len() + 1), b),
            Mutation::Delete(i) => {
                out.remove(i % bytes.len());
            }
            Mutation::Truncate(i) => out.truncate(i % bytes.len()),
        }
        out
    }

    /// Whether the damage lands on (or next to, for an insertion) a
    /// number literal inside the payload section of `original`.
    fn touches_a_payload_number(self, original: &[u8]) -> bool {
        let payload = original
            .windows(9)
            .position(|w| w == b"\"payload\"")
            .unwrap();
        let n = original.len();
        let (at, new) = match self {
            Mutation::Replace(i, b) => (i % n, Some(b)),
            Mutation::Insert(i, b) => (i % (n + 1), Some(b)),
            Mutation::Delete(i) => (i % n, None),
            Mutation::Truncate(_) => return false,
        };
        let near = |j: usize| j < n && is_number_byte(original[j]);
        at > payload && (near(at) || near(at.wrapping_sub(1)) || new.is_some_and(is_number_byte))
    }
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (0u8..4, 0usize..1 << 20, 0u8..=255).prop_map(|(kind, i, b)| match kind {
        0 => Mutation::Replace(i, b),
        1 => Mutation::Insert(i, b),
        2 => Mutation::Delete(i),
        _ => Mutation::Truncate(i),
    })
}

/// Every mutated entry is a quarantine or a faithful hit; a hit with a
/// different summary only ever comes from a payload number that was
/// rewritten into another valid number.
#[test]
fn mutated_entry_files_quarantine_or_decode_faithfully() {
    let dir = scratch("mutated");
    let store = FsBackend::open(&dir).unwrap();
    let spec = small_spec(0.76, 9);
    let (id, entry, path) = record(&store, &spec);
    let original = std::fs::read(&path).unwrap();
    let summary = |e: &CellEntry| e.as_summary().unwrap().to_json().pretty();
    proptest::test_runner::run_cases(384, "mutated_entry_files", |rng| {
        let m = mutation_strategy().sample(rng);
        let damaged = m.apply(&original);
        std::fs::write(&path, &damaged).unwrap();
        // Hash the requested cell first, as a cache lookup does, so the
        // memo holds the intact canonical text.
        assert_eq!(spec.cell_id(), id);
        match store.get(&id).unwrap() {
            Lookup::Miss => panic!("{m:?}: present file read as a miss"),
            Lookup::Quarantined { .. } => {
                assert!(!path.exists(), "{m:?}: quarantined entry still live");
            }
            Lookup::Hit { entry: got, text } => {
                assert_eq!(text.as_bytes(), damaged.as_slice());
                // Compared as text: payload statistics may hold NaN.
                let reparsed = CellEntry::from_json(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(
                    got.canonical_text(),
                    reparsed.canonical_text(),
                    "{m:?}: hit differs from its own file"
                );
                assert_eq!(got.cell, id);
                assert_eq!(got.spec, entry.spec);
                if summary(&got) != summary(&entry) {
                    assert!(
                        m.touches_a_payload_number(&original),
                        "{m:?}: different summary served from a non-numeric mutation"
                    );
                }
            }
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn embedded_spec_one_float_off_the_memoised_text_is_quarantined() {
    let dir = scratch("one-float");
    let store = FsBackend::open(&dir).unwrap();
    let spec = small_spec(0.76, 4);
    let (id, entry, path) = record(&store, &spec);

    // The same entry, but its embedded spec's utilization is 0.77: one
    // token of the canonical text changes and its length does not.
    let mut nudged = small_spec(0.77, 4).cell_spec_text();
    let original = spec.cell_spec_text();
    assert_eq!(original.len(), nudged.len());
    let changed: Vec<_> = original
        .lines()
        .zip(nudged.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.to_owned(), b.to_owned()))
        .collect();
    assert_eq!(changed.len(), 1, "{changed:?}");
    let mut forged = entry.clone();
    std::mem::swap(&mut forged.spec, &mut nudged);
    let forged_text = forged.canonical_text();

    // Memo holding the requested (intact) text, then the forged text.
    for memoised in [&original, &forged.spec] {
        std::fs::write(&path, &forged_text).unwrap();
        let _ = SpecHash::of(memoised);
        match store.get(&id).unwrap() {
            Lookup::Quarantined { detail } => assert!(detail.contains("re-hashes"), "{detail}"),
            other => panic!("forged spec served: {other:?}"),
        }
    }
    // The intact entry still serves after the memo saw the forgery.
    std::fs::write(&path, entry.canonical_text()).unwrap();
    assert!(matches!(store.get(&id).unwrap(), Lookup::Hit { .. }));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An entry whose embedded spec was re-indented by hand (or compacted)
/// no longer matches the hashed text byte for byte; it is parsed, printed
/// and re-hashed, and served with its canonical spec, whichever text the
/// memo holds.
#[test]
fn an_entry_with_a_reformatted_embedded_spec_is_served() {
    let dir = scratch("reindented");
    let store = FsBackend::open(&dir).unwrap();
    let spec = small_spec(0.76, 5);
    let (id, entry, path) = record(&store, &spec);
    let text = entry.canonical_text();
    let reindented = text.replace("\n    ", "\n      ");
    assert_ne!(reindented, text);
    let compact = Json::parse(&entry.spec).unwrap();
    let compacted = {
        let at = text.find("\"spec\": ").unwrap() + "\"spec\": ".len();
        let end = text.find(",\n  \"kind\"").unwrap();
        format!("{}{}{}", &text[..at], compact_text(&compact), &text[end..])
    };
    for edited in [&reindented, &compacted] {
        for primed in [&spec.cell_spec_text(), ""] {
            std::fs::write(&path, edited).unwrap();
            let _ = SpecHash::of(primed);
            match store.get(&id).unwrap() {
                Lookup::Hit { entry: got, text } => {
                    assert_eq!(&text, edited);
                    assert_eq!(got, entry);
                    assert_eq!(got.spec, spec.cell_spec_text());
                }
                other => panic!("reformatted entry not served: {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `doc` on one line, without whitespace.
fn compact_text(doc: &Json) -> String {
    match doc {
        Json::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k:?}:{}", compact_text(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Json::Array(items) => {
            let inner: Vec<String> = items.iter().map(compact_text).collect();
            format!("[{}]", inner.join(","))
        }
        other => other.pretty().trim().to_owned(),
    }
}

#[test]
fn misfiled_entry_is_quarantined_after_its_own_cell_was_hashed() {
    let dir = scratch("misfiled");
    let store = FsBackend::open(&dir).unwrap();
    let (a, b) = (small_spec(0.7, 3), small_spec(0.8, 3));
    let (_, _, a_path) = record(&store, &a);
    let (b_id, _, b_path) = record(&store, &b);
    std::fs::copy(&a_path, &b_path).unwrap();
    // Either text may be the memo when the lookup runs.
    for primed in [&a, &b] {
        let _ = primed.cell_id();
        if !b_path.exists() {
            std::fs::copy(&a_path, &b_path).unwrap();
        }
        match store.get(&b_id).unwrap() {
            Lookup::Quarantined { detail } => assert!(detail.contains("filed under"), "{detail}"),
            other => panic!("misfiled entry served: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn served_seed_axis_sweep_is_byte_identical_to_the_computed_sweep() {
    let mut base = small_spec(0.76, 1);
    base.name = "served-grid".into();
    let sweep = SweepSpec {
        base,
        axes: vec![
            Axis::new(Knob::Utilization, vec![0.7, 0.76]),
            Axis::new(Knob::Lambda, vec![1.4e-3, 3e-3]),
            Axis::new(Knob::Seed, vec![11, 12, 13]),
        ],
    };
    let runner = LocalRunner::new(1);
    let computed = run_sweep_tiered(&sweep, None, &runner, true)
        .unwrap()
        .to_json()
        .pretty();
    let dir = scratch("served-sweep");
    let store = FsBackend::open(&dir).unwrap();
    let run = |counters: &StoreCounters| {
        run_sweep_cached_tiered(
            &sweep,
            None,
            &runner,
            &store,
            CacheMode::ReadWrite,
            counters,
            true,
        )
        .unwrap()
        .to_json()
        .pretty()
    };
    let cold_counters = StoreCounters::new();
    let cold = run(&cold_counters);
    assert_eq!(cold_counters.records(), 12);
    let warm_counters = StoreCounters::new();
    let warm = run(&warm_counters);
    assert_eq!(warm_counters.hits(), 12);
    assert_eq!(warm_counters.records(), 0);
    assert_eq!(cold, computed);
    assert_eq!(warm, computed);
    std::fs::remove_dir_all(&dir).unwrap();
}
