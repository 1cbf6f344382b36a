//! A harsh-environment scenario from the paper's motivation: a space
//! system whose fault rate swings with radiation conditions (quiet sky vs
//! solar-event bursts).
//!
//! The telemetry-compression task must finish each frame by its deadline
//! on a battery budget. We sweep the environment from benign to hostile —
//! including a *bursty* (Markov-modulated) environment the Poisson-based
//! analysis does not model — and compare the static Poisson baseline
//! against the paper's `A_D_S`. The whole grid is one declarative
//! [`eacp::spec::SweepSpec`] per scheme.
//!
//! ```text
//! cargo run --release --example satellite_telemetry
//! ```

use eacp::faults::FaultProcess;
use eacp::sim::Executor;
use eacp::spec::{
    preset, Axis, ExperimentSpec, FaultSpec, GridCell, Knob, McSpec, PolicySpec, SweepSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const REPS: u64 = 2_000;
const LAMBDAS: [f64; 6] = [1e-5, 1e-4, 5e-4, 1e-3, 1.4e-3, 2e-3];

/// The `satellite-telemetry` preset pinned to this example's replication
/// budget, with the scheme and (Poisson) environment swapped in.
fn base(scheme_tag: &str) -> ExperimentSpec {
    let mut spec = preset("satellite-telemetry").expect("built-in preset");
    spec.name = format!("telemetry-{scheme_tag}");
    spec.set(Knob::Utilization(0.76))
        .expect("the preset's work is utilization-based");
    spec.faults = FaultSpec::Poisson { lambda: 1.4e-3 };
    spec.policy = PolicySpec::from_tag(scheme_tag, 1.4e-3, 5, 0).expect("known tag");
    spec.mc = McSpec {
        replications: REPS,
        seed: 99,
        threads: 0,
    };
    spec
}

fn p_and_e(spec: &ExperimentSpec) -> (f64, f64) {
    let (summary, _) = eacp::exec::run(spec).expect("valid experiment spec");
    (summary.p_timely(), summary.mean_energy_timely())
}

fn main() {
    println!("Telemetry frame: N = 7600 cycles, D = 10000, DMR pair, ts=2 tcp=20");
    println!("\n== Poisson environments (quiet sky ... hostile belt) ==");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "lambda", "P(static)", "E(static)", "P(A_D_S)", "E(A_D_S)"
    );
    // One sweep document per scheme; the λ axis retunes both the injected
    // faults and the policy's assumed rate, as in the paper. The seed axis
    // keeps every point on the same seed so the two schemes face identical
    // fault streams, like the original hand-rolled comparison.
    let sweep = |tag: &str| {
        SweepSpec {
            base: base(tag),
            axes: vec![
                Axis::new(Knob::Lambda, LAMBDAS.to_vec()),
                Axis::new(Knob::Seed, [99]),
            ],
        }
        .expand()
        .expect("compatible axes")
    };
    let static_points = sweep("poisson");
    let ads_points = sweep("a_d_s");
    for (s, a) in static_points.into_iter().zip(ads_points) {
        let lambda = s.faults.nominal_lambda().expect("poisson base");
        let (p_static, e_static) = p_and_e(&s);
        let (p_ads, e_ads) = p_and_e(&a);
        println!("{lambda:<12.0e} {p_static:>10.4} {e_static:>10.0} {p_ads:>10.4} {e_ads:>10.0}");
    }

    println!("\n== Solar-event bursts (MMPP), nominal rate matched to λ = 1.4e-3 ==");
    // Quiet rate 4e-4, burst rate 1.2e-2, mean dwell 20k quiet / 2k burst:
    // stationary rate ≈ (10/11)·4e-4 + (1/11)·1.2e-2 ≈ 1.45e-3.
    let burst = FaultSpec::Burst {
        quiet_rate: 4e-4,
        burst_rate: 1.2e-2,
        mean_quiet_dwell: 20_000.0,
        mean_burst_dwell: 2_000.0,
    };
    println!(
        "stationary burst rate ≈ {:.2e}",
        burst
            .build(0)
            .expect("valid fault spec")
            .mean_rate()
            .expect("MMPP has a stationary rate")
    );
    let with_burst = |tag: &str| {
        let mut spec = base(tag);
        spec.name = format!("telemetry-burst-{tag}");
        spec.faults = burst.clone();
        spec
    };
    let (p_static, e_static) = p_and_e(&with_burst("poisson"));
    let (p_ads, e_ads) = p_and_e(&with_burst("a_d_s"));
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "environment", "P(static)", "E(static)", "P(A_D_S)", "E(A_D_S)"
    );
    println!(
        "{:<12} {p_static:>10.4} {e_static:>10.0} {p_ads:>10.4} {e_ads:>10.0}",
        "bursty"
    );

    println!("\n== A single hostile run, inspected ==");
    let spec = base("a_d_s");
    let scenario = spec.scenario.build().expect("valid scenario spec");
    let mut policy = PolicySpec::from_tag("a_d_s", 2e-3, 5, 0)
        .and_then(|p| p.build())
        .expect("valid policy spec");
    let mut faults = eacp::faults::PoissonProcess::new(2e-3, StdRng::seed_from_u64(7));
    let out = Executor::new(&scenario).run(&mut policy, &mut faults);
    println!(
        "timely={} finish={:.0} energy={:.0} faults={} rollbacks={} SCPs={} CSCPs={} \
         fast-fraction={:.2}",
        out.timely,
        out.finish_time,
        out.energy,
        out.faults,
        out.rollbacks,
        out.store_checkpoints,
        out.compare_store_checkpoints,
        out.fast_fraction(),
    );
}
