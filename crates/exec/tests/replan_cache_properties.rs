//! Property test of the plan table's transparency contract: the per-level
//! plan table inside the adaptive policies, with its memoized subdivision
//! of each level's Poisson interval, survives `reset(seed)` on purpose
//! (it holds pure functions of the costs, the frequencies and λ), so a
//! replication's outcome must be bit-identical whether the table is cold
//! or warmed by any number of earlier replications.

use eacp_exec::Job;
use eacp_sim::NoopObserver;
use eacp_spec::{ExperimentSpec, FaultSpec, McSpec, PolicySpec};
use proptest::prelude::*;

fn adaptive_job(tag: &str, lambda: f64, seed: u64, reps: u64) -> Job {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.name = format!("replan-cache-{tag}");
    spec.policy = PolicySpec::from_tag(tag, lambda, 5, 0).expect("known scheme tag");
    spec.faults = FaultSpec::Poisson { lambda };
    spec.mc = McSpec {
        replications: reps,
        seed,
        threads: 1,
    };
    Job::from_spec(&spec).expect("valid property-test spec")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn warm_cache_never_changes_a_replication(
        // The adaptive schemes that replan (and so consult the memo).
        tag_idx in 0usize..4,
        // Rates from fault-free (0) to replanning-dominated (~2e-2).
        lambda_mils in 0u32..21,
        seed in 0u64..1_000,
        warmups in 1u64..12,
    ) {
        let tag = ["a_d_s", "a_d", "a_s", "a_c"][tag_idx];
        let lambda = f64::from(lambda_mils) * 1e-3;
        let job = adaptive_job(tag, lambda, seed, warmups + 1);

        // Cold: the target replication is the first thing this
        // replicator ever runs — every replan computes from scratch.
        let cold = job
            .replicator()
            .run_replication(warmups, &mut NoopObserver);

        // Warm: the same replication after `warmups` earlier ones have
        // filled the memo with whatever keys they produced.
        let mut warmed = job.replicator();
        for i in 0..warmups {
            warmed.run_replication(i, &mut NoopObserver);
        }
        let warm = warmed.run_replication(warmups, &mut NoopObserver);

        prop_assert_eq!(
            cold, warm,
            "replication outcome depended on replan-cache warmth"
        );
    }
}
