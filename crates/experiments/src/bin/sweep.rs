//! Parameter sweeps beyond the paper's tables (ablations / sensitivity).
//!
//! ```text
//! sweep --kind store-compare-ratio   # A_D_S vs A_D_C crossover over ts:tcp
//! sweep --kind lambda                # adaptive schemes over a λ grid
//! sweep --kind optimizer             # paper closed-form vs exact num_SCP
//! sweep --kind no-dvs                # paper §2 (Fig. 3): adaptive schemes
//!                                    # at a fixed speed vs static baselines
//! ```
//!
//! Optional: `--reps N` (default 2000), `--seed S`.
//!
//! Every built-in kind is expressed as `eacp-spec` documents: a base
//! [`ExperimentSpec`] plus [`Axis`] grids where the shape is a
//! cartesian product, or explicit spec lists where it is not. `--emit-spec`
//! prints the expanded documents instead of running them. A user-provided
//! [`SweepSpec`] grid runs through `eacp sweep --spec sweep.json` (and
//! `eacp csv` renders its report documents).

#![forbid(unsafe_code)]

use eacp_spec::{
    Axis, CostsSpec, ExperimentSpec, GridCell, Knob, McSpec, OptimizerSpec, PolicySpec, SweepSpec,
    ToJson,
};

/// [`nominal_base`] at the nominal λ under the scheme `tag`, named after it.
fn scheme_base(tag: &str, reps: u64, seed: u64) -> ExperimentSpec {
    let mut base = nominal_base(tag, 1.4e-3, reps, seed);
    base.policy = PolicySpec::from_tag(tag, 1.4e-3, 5, 0).expect("known tag");
    base
}

fn nominal_base(name: &str, lambda: f64, reps: u64, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.name = name.to_owned();
    spec.set(Knob::Lambda(lambda))
        .expect("the nominal faults are Poisson");
    spec.mc = McSpec {
        replications: reps,
        seed,
        threads: 0,
    };
    // These sweeps use the physical fault model (faults can also strike
    // during checkpoint operations), unlike the paper-faithful tables.
    spec.executor = eacp_spec::ExecSpec::default();
    spec
}

fn run_spec(spec: &ExperimentSpec) -> eacp_sim::Summary {
    let (summary, _) = eacp_exec::run(spec).unwrap_or_else(|e| {
        eprintln!("sweep: {}: {e}", spec.name);
        std::process::exit(1);
    });
    summary
}

/// A_D_S vs A_D_C as the store/compare cost ratio varies with `ts + tcp`
/// fixed at 22 cycles — the design-insight sweep: "separating the
/// comparison and store operations enables choosing the optimal interval
/// for each".
fn sweep_store_compare_ratio(reps: u64, seed: u64, emit: bool) {
    let costs: Vec<CostsSpec> = [1.0, 2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 21.0]
        .iter()
        .map(|&ts| CostsSpec::Explicit {
            store: ts,
            compare: 22.0 - ts,
            rollback: 0.0,
        })
        .collect();
    let grid = |tag: &str| SweepSpec {
        base: scheme_base(tag, reps, seed),
        axes: vec![
            Axis::new(Knob::Costs, costs.clone()),
            // Pin every point to the same seed: both schemes must face
            // identical fault streams for the crossover to be meaningful.
            Axis::new(Knob::Seed, vec![seed]),
        ],
    };
    let ads_grid = grid("a_d_s").expand().expect("compatible axes");
    let adc_grid = grid("a_d_c").expand().expect("compatible axes");
    if emit {
        emit_specs(ads_grid.iter().chain(&adc_grid));
        return;
    }
    println!("ts,tcp,P_ads,E_ads,P_adc,E_adc,winner_p");
    for (ads_spec, adc_spec) in ads_grid.iter().zip(&adc_grid) {
        let (ts, tcp) = match ads_spec.scenario.costs {
            CostsSpec::Explicit { store, compare, .. } => (store, compare),
            _ => unreachable!("axis values are explicit costs"),
        };
        let ads = run_spec(ads_spec);
        let adc = run_spec(adc_spec);
        let winner = if ads.p_timely() >= adc.p_timely() {
            "A_D_S"
        } else {
            "A_D_C"
        };
        println!(
            "{ts},{tcp},{:.4},{:.0},{:.4},{:.0},{winner}",
            ads.p_timely(),
            ads.mean_energy_timely(),
            adc.p_timely(),
            adc.mean_energy_timely(),
        );
    }
}

/// All adaptive variants over a fault-rate grid at the paper's nominal
/// operating point.
fn sweep_lambda(reps: u64, seed: u64, emit: bool) {
    let lambdas = vec![1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1.4e-3, 2e-3, 4e-3];
    let grids: Vec<Vec<ExperimentSpec>> = ["a_d", "a_d_s", "a_d_c"]
        .iter()
        .map(|tag| {
            SweepSpec {
                base: scheme_base(tag, reps, seed),
                axes: vec![
                    Axis::new(Knob::Lambda, lambdas.clone()),
                    Axis::new(Knob::Seed, vec![seed]),
                ],
            }
            .expand()
            .expect("compatible axes")
        })
        .collect();
    if emit {
        emit_specs(grids.iter().flatten());
        return;
    }
    println!("lambda,scheme,P,E,faults_mean,fast_fraction");
    for i in 0..lambdas.len() {
        for grid in &grids {
            let spec = &grid[i];
            let s = run_spec(spec);
            println!(
                "{:e},{},{:.4},{:.0},{:.2},{:.3}",
                lambdas[i],
                spec.policy.policy_name(),
                s.p_timely(),
                s.mean_energy_timely(),
                s.faults.mean(),
                s.fast_fraction.mean(),
            );
        }
    }
}

/// The paper's closed-form `num_SCP` vs the exact-recursion optimizer.
fn sweep_optimizer(reps: u64, seed: u64, emit: bool) {
    let lambdas = vec![1.4e-3, 1.6e-3, 4e-3];
    let variants = [
        ("paper-closed-form", OptimizerSpec::PaperClosedForm),
        ("exact-recursion", OptimizerSpec::ExactRecursion),
    ];
    let mut specs = Vec::new();
    for &lambda in &lambdas {
        for (name, optimizer) in variants {
            let mut spec = nominal_base(&format!("optimizer-{name}-l{lambda}"), lambda, reps, seed);
            spec.policy = PolicySpec::DvsScp {
                lambda,
                k: 5,
                optimizer,
            };
            specs.push((name, lambda, spec));
        }
    }
    if emit {
        emit_specs(specs.iter().map(|(_, _, s)| s));
        return;
    }
    println!("lambda,method,P,E,checkpoints_mean");
    for (name, lambda, spec) in &specs {
        let s = run_spec(spec);
        println!(
            "{lambda:e},{name},{:.4},{:.0},{:.1}",
            s.p_timely(),
            s.mean_energy_timely(),
            s.checkpoints.mean(),
        );
    }
}

/// The paper's §2 setting (Fig. 3): adaptive checkpointing *without* DVS
/// at the fixed low speed, against the static baselines — isolating the
/// benefit of adaptive intervals + SCP subdivision from the DVS benefit.
fn sweep_no_dvs(reps: u64, seed: u64, emit: bool) {
    // The (U, λ) list is deliberately not a cartesian product, so this
    // kind enumerates explicit specs rather than axes.
    let points = [(0.60, 1.4e-3), (0.68, 1.4e-3), (0.76, 1.4e-3), (0.76, 2e-3)];
    let tags = ["poisson", "kft", "cscp", "a_s"];
    let mut specs = Vec::new();
    for &(util, lambda) in &points {
        for tag in tags {
            let mut spec = nominal_base(
                &format!("no-dvs-{tag}-u{util}-l{lambda}"),
                lambda,
                reps,
                seed,
            );
            spec.set(Knob::Utilization(util))
                .expect("the nominal work is utilization-based");
            spec.policy = PolicySpec::from_tag(tag, lambda, 5, 0).expect("known tag");
            specs.push((util, lambda, spec));
        }
    }
    if emit {
        emit_specs(specs.iter().map(|(_, _, s)| s));
        return;
    }
    println!("utilization,lambda,scheme,P,E");
    for (util, lambda, spec) in &specs {
        let s = run_spec(spec);
        println!(
            "{util},{lambda:e},{},{:.4},{:.0}",
            spec.policy.policy_name(),
            s.p_timely(),
            s.mean_energy_timely()
        );
    }
}

fn emit_specs<'a, I: Iterator<Item = &'a ExperimentSpec>>(specs: I) {
    let docs: Vec<eacp_spec::Json> = specs.map(ToJson::to_json).collect();
    print!("{}", eacp_spec::Json::Array(docs).pretty());
}

fn main() {
    let mut kind = String::from("store-compare-ratio");
    let mut reps = 2000u64;
    let mut seed = 77u64;
    let mut emit = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--kind" => kind = it.next().expect("missing value for --kind"),
            "--emit-spec" => emit = true,
            "--reps" => {
                reps = it
                    .next()
                    .expect("missing value for --reps")
                    .parse()
                    .expect("bad --reps")
            }
            "--seed" => {
                seed = it
                    .next()
                    .expect("missing value for --seed")
                    .parse()
                    .expect("bad --seed")
            }
            "--help" | "-h" => {
                println!(
                    "usage: sweep --kind store-compare-ratio|lambda|optimizer|no-dvs [--reps N] [--seed S]\n\
                     \x20      (add --emit-spec to print the expanded spec documents instead of running)"
                );
                return;
            }
            other => {
                eprintln!("sweep: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    match kind.as_str() {
        "store-compare-ratio" => sweep_store_compare_ratio(reps, seed, emit),
        "lambda" => sweep_lambda(reps, seed, emit),
        "optimizer" => sweep_optimizer(reps, seed, emit),
        "no-dvs" => sweep_no_dvs(reps, seed, emit),
        other => {
            eprintln!("sweep: unknown kind {other:?}");
            std::process::exit(2);
        }
    }
}
