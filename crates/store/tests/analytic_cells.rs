//! The analytic serve tier through the store: cells record the tier that
//! computed them, hits replay it, and `store verify` re-derives each cell
//! through its own tier — so a store can mix analytic and forced-MC cells
//! and the byte-identity guarantee holds for both.

use eacp_exec::LocalRunner;
use eacp_spec::{ExperimentSpec, FaultSpec, McSpec, ServeTier, ToJson};
use eacp_store::{
    run_cached_tiered, run_cached_with_tiered, verify_store, CacheMode, CacheOutcome, MemBackend,
    NoopStoreObserver, StoreBackend, StoreCell,
};

fn invariant_spec(name: &str) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.name = name.into();
    spec.faults = FaultSpec::Poisson { lambda: 0.0 };
    spec.mc = McSpec {
        replications: 300,
        seed: 7,
        threads: 1,
    };
    spec
}

#[test]
fn analytic_cell_records_serves_and_verifies_through_its_tier() {
    let spec = invariant_spec("analytic-cell");
    let store = MemBackend::new();

    let cold = run_cached_tiered(
        &spec,
        &store,
        CacheMode::ReadWrite,
        &NoopStoreObserver,
        true,
    )
    .unwrap();
    assert_eq!(cold.cache, CacheOutcome::Miss);
    assert_eq!(cold.report.served, ServeTier::Analytic);

    // The hit replays the recorded tier and the exact summary.
    let warm = run_cached_tiered(
        &spec,
        &store,
        CacheMode::ReadWrite,
        &NoopStoreObserver,
        true,
    )
    .unwrap();
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.report.served, ServeTier::Analytic);
    assert_eq!(warm.summary, cold.summary);

    // The persisted entry carries the marker …
    let id = spec.cell_id();
    match store.get(&id).unwrap() {
        eacp_store::Lookup::Hit { entry, .. } => {
            assert_eq!(entry.served, ServeTier::Analytic);
            assert!(entry
                .to_json()
                .pretty()
                .contains("\"served\": \"analytic\""));
        }
        other => panic!("expected a hit, got {other:?}"),
    }

    // … and verification re-derives the cell through the analytic tier.
    let verified = verify_store(&store, 0).unwrap();
    assert_eq!(verified.checked, 1);
}

#[test]
fn forced_mc_cell_of_the_same_spec_is_a_distinct_but_equal_recording() {
    let spec = invariant_spec("forced-mc-cell");
    let store = MemBackend::new();
    let runner = LocalRunner::new(1);

    // Record with the tier disabled: the cell is a plain MC cell whose
    // serialization carries no marker (historical byte stability).
    let cold = run_cached_with_tiered(
        &spec,
        &runner,
        &store,
        CacheMode::ReadWrite,
        &NoopStoreObserver,
        false,
    )
    .unwrap();
    assert_eq!(cold.report.served, ServeTier::Mc);
    let id = spec.cell_id();
    match store.get(&id).unwrap() {
        eacp_store::Lookup::Hit { entry, .. } => {
            assert_eq!(entry.served, ServeTier::Mc);
            assert!(!entry.to_json().pretty().contains("served"));
        }
        other => panic!("expected a hit, got {other:?}"),
    }

    // A later analytic-enabled invocation serves the MC recording as-is
    // (the hit short-circuits before the tier is consulted) …
    let warm = run_cached_with_tiered(
        &spec,
        &runner,
        &store,
        CacheMode::ReadWrite,
        &NoopStoreObserver,
        true,
    )
    .unwrap();
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.report.served, ServeTier::Mc);
    // … and the invariant cell is a point mass, so the MC summary equals
    // what the analytic tier would have produced.
    assert_eq!(warm.summary, cold.summary);

    // Verify re-runs the MC loop for this cell, not the analytic tier.
    assert_eq!(verify_store(&store, 0).unwrap().checked, 1);
}

#[test]
fn refresh_with_tier_toggled_overwrites_the_recorded_tier() {
    let spec = invariant_spec("tier-flip");
    let store = MemBackend::new();
    let runner = LocalRunner::new(1);
    let id = spec.cell_id();

    run_cached_with_tiered(
        &spec,
        &runner,
        &store,
        CacheMode::ReadWrite,
        &NoopStoreObserver,
        true,
    )
    .unwrap();
    let refreshed = run_cached_with_tiered(
        &spec,
        &runner,
        &store,
        CacheMode::Refresh,
        &NoopStoreObserver,
        false,
    )
    .unwrap();
    assert_eq!(refreshed.cache, CacheOutcome::Refreshed);
    assert_eq!(refreshed.report.served, ServeTier::Mc);
    match store.get(&id).unwrap() {
        eacp_store::Lookup::Hit { entry, .. } => assert_eq!(entry.served, ServeTier::Mc),
        other => panic!("expected a hit, got {other:?}"),
    }
    assert_eq!(verify_store(&store, 0).unwrap().checked, 1);
}
