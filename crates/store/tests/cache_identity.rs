//! The store's headline guarantee, goldened over the whole scheme/fault
//! landscape: for every one of the paper's 8 checkpointing schemes crossed
//! with 4 fault processes, a cache hit is **byte-identical** to a fresh
//! recomputation — same in-memory `Summary` to the bit, same serialized
//! `RunReport` text — through both the in-memory and the filesystem
//! backend, and `eacp store verify` re-proves every recorded cell.

use eacp_spec::{ExperimentSpec, FaultSpec, McSpec, PolicySpec, ToJson};
use eacp_store::{
    run_cached_tiered, verify_store, CacheMode, CacheOutcome, FsBackend, MemBackend,
    NoopStoreObserver, StoreBackend, StoreCounters,
};

fn fault_processes(lambda: f64) -> Vec<FaultSpec> {
    vec![
        FaultSpec::Poisson { lambda },
        FaultSpec::Weibull {
            shape: 0.7,
            scale: 1.0 / lambda,
        },
        FaultSpec::Burst {
            quiet_rate: lambda / 4.0,
            burst_rate: lambda * 8.0,
            mean_quiet_dwell: 4_000.0,
            mean_burst_dwell: 400.0,
        },
        FaultSpec::Phased {
            phases: vec![(3_000.0, lambda / 2.0), (1_500.0, lambda * 3.0)],
            repeat: true,
        },
    ]
}

fn landscape() -> Vec<ExperimentSpec> {
    let lambda = 1.4e-3;
    let mut specs = Vec::new();
    for tag in PolicySpec::TAGS {
        for faults in fault_processes(lambda) {
            let mut spec = ExperimentSpec::paper_nominal();
            spec.name = format!("{tag}-{}", specs.len());
            spec.policy = PolicySpec::from_tag(tag, lambda, 3, 0).expect("known tag");
            spec.faults = faults;
            spec.mc = McSpec {
                replications: 50,
                seed: 2006,
                threads: 1,
            };
            specs.push(spec);
        }
    }
    specs
}

fn assert_hits_identical(store: &dyn StoreBackend) {
    let specs = landscape();
    assert_eq!(specs.len(), 32, "8 schemes x 4 fault processes");
    let counters = StoreCounters::new();

    // Cold pass: everything computes and records.
    let mut cold = Vec::with_capacity(specs.len());
    for spec in &specs {
        let run = run_cached_tiered(spec, store, CacheMode::ReadWrite, &counters, true)
            .expect("cold run");
        assert_eq!(run.cache, CacheOutcome::Miss, "{}", spec.name);
        cold.push(run);
    }
    assert_eq!(counters.misses(), 32);
    assert_eq!(counters.records(), 32);

    // Warm pass: every cell hits, bit- and byte-identical to the cold
    // computation and to an independent direct recomputation.
    for (spec, cold_run) in specs.iter().zip(&cold) {
        let hit = run_cached_tiered(spec, store, CacheMode::ReadWrite, &counters, true)
            .expect("warm run");
        assert_eq!(hit.cache, CacheOutcome::Hit, "{}", spec.name);
        assert_eq!(
            hit.summary, cold_run.summary,
            "{}: summary bits differ",
            spec.name
        );
        let (direct, direct_report) = eacp_exec::run(spec).expect("direct run");
        assert_eq!(
            hit.summary, direct,
            "{}: hit differs from recomputation",
            spec.name
        );
        assert_eq!(
            hit.report.to_json().pretty(),
            direct_report.to_json().pretty(),
            "{}: report bytes differ",
            spec.name
        );
    }
    assert_eq!(counters.hits(), 32);
    assert_eq!(counters.quarantined(), 0);

    // And the store proves itself: every cell recomputes to its stored
    // bytes (sampled at full depth).
    let verified = verify_store(store, 0).expect("verification");
    assert_eq!(verified.entries, 32);
    assert_eq!(verified.checked, 32);
}

#[test]
fn cache_hits_are_byte_identical_across_the_scheme_fault_landscape_mem() {
    assert_hits_identical(&MemBackend::new());
}

#[test]
fn cache_hits_are_byte_identical_across_the_scheme_fault_landscape_fs() {
    let dir = std::env::temp_dir().join(format!("eacp-store-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FsBackend::open(&dir).expect("store opens");
    assert_hits_identical(&store);

    // Filesystem hits carry provenance: the report names its entry file.
    let spec = &landscape()[0];
    let hit = run_cached_tiered(spec, &store, CacheMode::ReadWrite, &NoopStoreObserver, true)
        .expect("hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    let source = hit.source.expect("fs hit names its artifact");
    assert!(source.starts_with(&dir), "{}", source.display());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
