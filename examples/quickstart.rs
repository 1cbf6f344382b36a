//! Quickstart: run every scheme of the paper once on the nominal operating
//! point (Table 1(a), U = 0.76, λ = 0.0014, k = 5) and print a comparison.
//!
//! Everything is constructed through the declarative spec layer: the same
//! [`eacp::spec::ExperimentSpec`] documents printed at the end can be saved
//! to a file and replayed with `eacp mc --spec file.json` — bit for bit.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use eacp::core::analysis::{
    checkpoint_interval_with_branch, estimated_completion_time, num_scp, IntervalInputs,
    OptimizeMethod, RenewalParams,
};
use eacp::faults::PoissonProcess;
use eacp::sim::Executor;
use eacp::spec::{PolicySpec, ScenarioSpec, ToJson};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The paper's SCP experiment: D = 10000, ts = 2, tcp = 20, c = 22.
    let lambda = 0.0014;
    let k = 5;
    let scenario = ScenarioSpec::paper_nominal()
        .build()
        .expect("the paper's nominal scenario is valid");

    println!("== Analysis at the initial planning point ==");
    let rd = scenario.task.deadline;
    let rt = scenario.task.work_cycles; // at f1 = 1
    let t_est_slow = estimated_completion_time(rt, 1.0, 22.0, lambda);
    let t_est_fast = estimated_completion_time(rt, 2.0, 22.0, lambda);
    println!("t_est(f1) = {t_est_slow:.0}, t_est(f2) = {t_est_fast:.0}, Rd = {rd:.0}");
    println!(
        "-> DVS starts at {}",
        if t_est_slow <= rd {
            "f1 (slow)"
        } else {
            "f2 (fast)"
        }
    );
    let (itv, branch) = checkpoint_interval_with_branch(IntervalInputs {
        rd,
        rt: rt / 2.0, // at f2
        c: 11.0,      // c / f2
        rf: k as f64,
        lambda,
    });
    let params = RenewalParams::new(1.0, 10.0, 0.0, lambda); // ts/f2, tcp/f2
    let m = num_scp(itv, &params, OptimizeMethod::PaperClosedForm);
    println!("interval() = {itv:.1} time units via {branch:?}; num_SCP -> m = {m}");

    println!("\n== One seeded run per scheme ==");
    for tag in ["poisson", "kft", "a_d", "a_d_s"] {
        let policy_spec = PolicySpec::from_tag(tag, lambda, k, 0).expect("known tag");
        let mut policy = policy_spec.build().expect("valid policy spec");
        let mut faults = PoissonProcess::new(lambda, StdRng::seed_from_u64(2006));
        let out = Executor::new(&scenario).run(&mut policy, &mut faults);
        println!(
            "{:<8} timely={} finish={:>8.1} energy={:>8.0} faults={:>2} rollbacks={:>2} \
             checkpoints={:>3} fast-fraction={:.2}",
            policy_spec.policy_name(),
            out.timely as u8,
            out.finish_time,
            out.energy,
            out.faults,
            out.rollbacks,
            out.checkpoints(),
            out.fast_fraction(),
        );
    }

    println!("\n== Monte-Carlo (2000 replications, like a paper table cell) ==");
    let mut last_spec_json = String::new();
    // Table 1(a)'s first row, as its committed document describes it, with
    // the paper's values; the k-f-t column is left out.
    let row = eacp::experiments::paper::cells().take(4);
    for (mut spec, paper) in row.filter(|(spec, _)| spec.policy.tag() != "kft") {
        // One declarative document describes the whole cell...
        spec.mc.seed = 42;
        // ...and running it is one call.
        let (summary, report) = eacp::exec::run(&spec).expect("valid experiment spec");
        let (lo, hi) = summary.p_timely_ci(1.96);
        println!(
            "{:<8} P = {:.4} [{lo:.4}, {hi:.4}]   E = {:>8.0}   (paper: P = {:.4}, E = {:.0})",
            report.policy_name,
            summary.p_timely(),
            summary.mean_energy_timely(),
            paper.p,
            paper.e,
        );
        last_spec_json = spec.to_json_string();
    }

    println!("\n== The last cell above, as a replayable spec document ==");
    println!("(save as cell.json and reproduce with: eacp mc --spec cell.json)\n");
    print!("{last_spec_json}");
}
