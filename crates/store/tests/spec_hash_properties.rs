//! Content-address soundness: semantically equal spec JSON always lands in
//! the same cell, and any result-bearing field change always lands in a
//! different one.
//!
//! "Semantically equal" covers exactly the freedoms JSON gives an author:
//! object key order, whitespace/indentation, float spelling (`1.4e-3` vs
//! `0.0014`), plus the store's own result-neutral fields (`name`, `mc`,
//! `executor.queue`). If any of these leaked into the hash, the cache
//! would silently fragment — equal experiments recomputed under different
//! addresses. If a result-bearing change ever collided, the cache would
//! serve a wrong answer. Both directions are load-bearing.

use eacp_spec::{ExperimentSpec, FaultSpec, PolicySpec, QueueSpec, ToJson};
use eacp_store::{spec_hash, StoreCell};
use proptest::prelude::*;

/// A grid of distinct experiments to perturb.
fn spec_for(scheme: usize, lambda: f64, k: u32) -> ExperimentSpec {
    let tag = PolicySpec::TAGS[scheme % PolicySpec::TAGS.len()];
    let mut spec = ExperimentSpec::paper_nominal();
    spec.policy = PolicySpec::from_tag(tag, lambda, k, 0).expect("known tag");
    spec.faults = FaultSpec::Poisson { lambda };
    spec
}

/// Re-serializes a JSON document with shuffled object key order (rotation
/// by `salt`), recursively.
fn rotate_keys(json: &eacp_spec::Json, salt: usize) -> eacp_spec::Json {
    use eacp_spec::Json;
    match json {
        Json::Object(fields) => {
            let mut rotated: Vec<(String, Json)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), rotate_keys(v, salt + 1)))
                .collect();
            if !rotated.is_empty() {
                let by = salt % rotated.len();
                rotated.rotate_left(by);
            }
            Json::Object(rotated)
        }
        Json::Array(items) => Json::Array(items.iter().map(|v| rotate_keys(v, salt)).collect()),
        other => other.clone(),
    }
}

/// Compact (no-whitespace) serialization of a document.
fn compact(json: &eacp_spec::Json) -> String {
    use eacp_spec::Json;
    match json {
        Json::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{:?}:{}", k, compact(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Json::Array(items) => {
            let inner: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", inner.join(","))
        }
        other => other.pretty().trim().to_owned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Key order, whitespace, float spelling and result-neutral fields
    /// never change the address.
    #[test]
    fn semantically_equal_documents_share_a_hash(
        scheme in 0usize..8,
        lambda_scale in 1u32..50,
        k in 1u32..8,
        salt in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let lambda = lambda_scale as f64 * 1e-4;
        let spec = spec_for(scheme, lambda, k);
        let base = spec_hash(&spec);

        // Key order: rotate every object's fields and re-parse.
        let rotated = rotate_keys(&spec.to_json(), salt).pretty();
        let reparsed = ExperimentSpec::from_json_str(&rotated).expect("rotation keeps schema");
        prop_assert_eq!(spec_hash(&reparsed), base, "key order leaked into the hash");

        // Whitespace: compact serialization, same document.
        let compacted = compact(&spec.to_json());
        let reparsed = ExperimentSpec::from_json_str(&compacted).expect("compact keeps schema");
        prop_assert_eq!(spec_hash(&reparsed), base, "whitespace leaked into the hash");

        // Float spelling: an equivalent decimal expansion of lambda.
        let retext = spec
            .to_json_string()
            .replace(&format!("{lambda:?}"), &format!("{lambda:.24}"));
        let reparsed = ExperimentSpec::from_json_str(&retext).expect("respelling keeps schema");
        prop_assert_eq!(spec_hash(&reparsed), base, "float spelling leaked into the hash");

        // Result-neutral fields: name, mc, queue scheduling.
        let mut neutral = spec.clone();
        neutral.name = format!("renamed-{seed}");
        neutral.mc.seed = seed;
        neutral.mc.replications = 1 + seed % 9_999;
        neutral.mc.threads = (seed % 7) as usize;
        neutral.executor = neutral.executor.with_queue(QueueSpec {
            workers: (seed % 5) as usize,
            max_attempts: 1 + (seed % 3) as u32,
            ..Default::default()
        });
        prop_assert_eq!(spec_hash(&neutral), base, "result-neutral field leaked into the hash");
    }

    /// Any result-bearing field change produces a different address.
    #[test]
    fn field_changes_change_the_hash(
        scheme in 0usize..8,
        lambda_scale in 1u32..50,
        k in 1u32..8,
    ) {
        let lambda = lambda_scale as f64 * 1e-4;
        let spec = spec_for(scheme, lambda, k);
        let base = spec_hash(&spec);

        let mut faults = spec.clone();
        faults.faults = FaultSpec::Poisson { lambda: lambda * 1.0000001 };
        prop_assert_ne!(spec_hash(&faults), base, "fault-rate change collided");

        let mut policy = spec.clone();
        let other_tag = PolicySpec::TAGS[(scheme + 1) % PolicySpec::TAGS.len()];
        policy.policy = PolicySpec::from_tag(other_tag, lambda, k, 0).expect("known tag");
        prop_assert_ne!(spec_hash(&policy), base, "policy change collided");

        let mut scenario = spec.clone();
        scenario.scenario.processors += 1;
        prop_assert_ne!(spec_hash(&scenario), base, "scenario change collided");

        let mut executor = spec.clone();
        executor.executor.faults_during_overhead = !executor.executor.faults_during_overhead;
        prop_assert_ne!(spec_hash(&executor), base, "executor-semantics change collided");
    }

    /// Scheme × k landscape: equal canonical documents share an address,
    /// distinct ones never collide. (Some schemes ignore `k`, so two grid
    /// cells *may* legitimately be the same experiment — the invariant is
    /// hash-equal ⇔ document-equal.)
    #[test]
    fn the_scheme_grid_has_no_collisions(lambda_scale in 1u32..50) {
        let lambda = lambda_scale as f64 * 1e-4;
        let mut seen: std::collections::BTreeMap<String, String> =
            std::collections::BTreeMap::new();
        for scheme in 0..PolicySpec::TAGS.len() {
            for k in [1u32, 5] {
                let spec = spec_for(scheme, lambda, k);
                let doc = spec.cell_spec_text();
                let hash = spec_hash(&spec).to_string();
                if let Some(prior) = seen.get(&hash) {
                    prop_assert_eq!(
                        prior, &doc,
                        "hash collision between distinct documents at scheme {} k {}",
                        scheme, k
                    );
                } else {
                    seen.insert(hash, doc);
                }
            }
        }
        // The landscape still spans plenty of distinct experiments.
        prop_assert!(seen.len() >= PolicySpec::TAGS.len());
    }
}

/// Addresses pinned across builds: every stored entry sits under its
/// spec's hash, so a drift in the canonical text orphans existing stores.
#[test]
fn spec_addresses_are_pinned() {
    assert_eq!(
        spec_hash(&ExperimentSpec::paper_nominal()).to_string(),
        "c659193fc84c7b96b17cdaf7c4a3448b78ddd81fff9973d821abcd94d7c6f4e9"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/avionics-trio.json"
    );
    let executive = eacp_spec::ExecutiveSpec::load(std::path::Path::new(path)).unwrap();
    assert_eq!(
        executive.cell_id().spec_hash.to_string(),
        "9235fa984bdc5af9726de1a33a27254674226790ce94a66053d615dfade97f13"
    );
}
