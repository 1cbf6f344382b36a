//! Conformance suite for the closed-form serve tier.
//!
//! The tier's promise: a replication-invariant cell served analytically
//! is statistically indistinguishable from — and for point-mass cells
//! exactly equal to — the full Monte-Carlo loop, and every non-invariant
//! cell falls back to MC bit-identically. These tests pin the promise.

use eacp_exec::{run_sweep_tiered, run_tiered, serve_closed_form, Job, LocalRunner};
use eacp_spec::{Axis, ExperimentSpec, FaultSpec, Knob, McSpec, ServeTier, SweepSpec, ToJson};

fn spec_with(faults: FaultSpec, reps: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.faults = faults;
    spec.mc = McSpec {
        replications: reps,
        seed: 11,
        threads: 1,
    };
    spec
}

/// The Wilson score interval at z for a Bernoulli proportion — the bound
/// the ISSUE pins the analytic ≡ MC conformance to.
fn wilson(successes: f64, n: f64, z: f64) -> (f64, f64) {
    let p = successes / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (center - half, center + half)
}

#[test]
fn analytic_matches_forced_mc_on_invariant_cells() {
    for faults in [
        FaultSpec::Poisson { lambda: 0.0 },
        FaultSpec::Deterministic { times: vec![] },
        FaultSpec::Deterministic {
            times: vec![700.0, 4200.0],
        },
    ] {
        let spec = spec_with(faults, 400);
        let (analytic, report_a) = run_tiered(&spec, true).unwrap();
        let (mc, report_m) = run_tiered(&spec, false).unwrap();
        assert_eq!(report_a.served, ServeTier::Analytic);
        assert_eq!(report_m.served, ServeTier::Mc);

        // The analytic p_timely must sit inside the MC run's Wilson
        // interval (for a point mass the two proportions are equal, so
        // this is the conservative form of the bound).
        let (lo, hi) = wilson(mc.timely as f64, mc.replications as f64, 1.96);
        let p = analytic.p_timely();
        assert!(
            (lo..=hi).contains(&p),
            "analytic p_timely {p} outside MC Wilson interval [{lo}, {hi}]"
        );

        // Stronger than Wilson: an invariant cell is a point mass, so
        // every moment agrees exactly, not just within sampling error.
        assert_eq!(analytic, mc, "invariant cell must be an exact point mass");
        assert_eq!(analytic.energy_all.sample_variance(), 0.0);
        assert_eq!(report_a.summary, report_m.summary);
    }
}

#[test]
fn non_invariant_cells_fall_back_bit_identically() {
    for faults in [
        FaultSpec::Poisson { lambda: 1.4e-3 },
        FaultSpec::Weibull {
            shape: 0.7,
            scale: 900.0,
        },
    ] {
        let spec = spec_with(faults, 150);
        let (with_tier, report_t) = run_tiered(&spec, true).unwrap();
        let (forced_mc, report_f) = run_tiered(&spec, false).unwrap();
        assert_eq!(report_t.served, ServeTier::Mc, "must fall back to MC");
        assert_eq!(report_f.served, ServeTier::Mc);
        assert_eq!(
            with_tier, forced_mc,
            "the tier toggle must not change an MC result by a single bit"
        );
        assert_eq!(report_t.to_json().pretty(), report_f.to_json().pretty());
    }
}

#[test]
fn sweep_marks_only_invariant_points_analytic() {
    let mut base = ExperimentSpec::paper_nominal();
    base.name = "tier-grid".into();
    base.mc = McSpec {
        replications: 80,
        seed: 3,
        threads: 1,
    };
    let sweep = SweepSpec {
        base,
        axes: vec![Axis::new(Knob::Lambda, vec![0.0, 1.4e-3])],
    };
    let grid = run_sweep_tiered(&sweep, None, &LocalRunner::new(1), true).unwrap();
    let tiers: Vec<ServeTier> = grid.points.iter().map(|p| p.report.served).collect();
    assert_eq!(tiers, vec![ServeTier::Analytic, ServeTier::Mc]);

    // And with the tier disabled, everything is MC and bit-identical on
    // the λ > 0 point.
    let forced = run_sweep_tiered(&sweep, None, &LocalRunner::new(1), false).unwrap();
    assert!(forced
        .points
        .iter()
        .all(|p| p.report.served == ServeTier::Mc));
    assert_eq!(
        grid.points[1].report.summary,
        forced.points[1].report.summary
    );
    assert_eq!(
        grid.points[0].report.summary.p_timely,
        forced.points[0].report.summary.p_timely
    );
}

#[test]
fn served_marker_round_trips_through_report_json() {
    use eacp_spec::{FromJson, RunReport};
    let spec = spec_with(FaultSpec::Poisson { lambda: 0.0 }, 60);
    let (_, report) = run_tiered(&spec, true).unwrap();
    assert_eq!(report.served, ServeTier::Analytic);
    let text = report.to_json().pretty();
    assert!(text.contains("\"served\": \"analytic\""));
    let back = RunReport::from_json(&eacp_spec::Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, report);

    // MC reports omit the marker entirely — historical documents keep
    // their bytes — and deserialize back to the Mc default.
    let (_, mc_report) = run_tiered(&spec, false).unwrap();
    let mc_text = mc_report.to_json().pretty();
    assert!(!mc_text.contains("served"));
    let mc_back = RunReport::from_json(&eacp_spec::Json::parse(&mc_text).unwrap()).unwrap();
    assert_eq!(mc_back.served, ServeTier::Mc);
}

#[test]
fn closed_form_serve_scales_to_any_replication_count() {
    // The whole point of the tier: cost is one execution regardless of N.
    let spec = spec_with(FaultSpec::Poisson { lambda: 0.0 }, 1_000_000);
    let job = Job::from_spec(&spec).unwrap();
    let summary = serve_closed_form(&job).expect("λ=0 is invariant");
    assert_eq!(summary.replications, 1_000_000);
    assert_eq!(summary.energy_all.sample_variance(), 0.0);
    assert_eq!(summary.p_timely(), 1.0);
}
