//! The acceptance criterion of the spec redesign: one JSON
//! `ExperimentSpec` file reproduces a paper table cell through **both**
//! the CLI and the table's grid document, with identical summary numbers
//! for the same seed.

use eacp_experiments::{table_grids, TableId};
use eacp_spec::{
    CostsSpec, DvsSpec, ExecSpec, ExperimentSpec, FaultSpec, Json, McSpec, PolicySpec,
    ScenarioSpec, SummaryReport, WorkSpec, PAPER_DEADLINE,
};

/// Table 1(a)'s first row under the proposed scheme (grid point 3), at
/// `reps` replications from `seed`.
fn first_proposed_cell(reps: u64, seed: u64) -> ExperimentSpec {
    let [mut grid, _] = table_grids(TableId::Table1);
    grid.base.mc.replications = reps;
    grid.base.mc.seed = seed;
    grid.expand().unwrap().swap_remove(3)
}

#[test]
fn one_spec_file_reproduces_a_table_cell_through_cli_and_runner() {
    let reps = 80;
    let seed = 7;

    // The table's own result for the proposed scheme, U = 0.76,
    // λ = 1.4e-3, k = 5...
    let [mut grid, _] = table_grids(TableId::Table1);
    grid.base.mc.replications = reps;
    grid.base.mc.seed = seed;
    let table = eacp_exec::run_sweep(&grid, None, 0).unwrap();
    let runner_result = &table.points[3].report;

    // ...is the paper cell, named after its table part: the SCP costs,
    // utilization quoted at f1 and the A_D_S proposal of Table 1, as the
    // paper describes it.
    let spec = first_proposed_cell(reps, seed);
    let paper = ExperimentSpec {
        name: "table1a-u0.76-l0.0014-k5-a_d_s".into(),
        scenario: ScenarioSpec {
            work: WorkSpec::Utilization {
                utilization: 0.76,
                speed: 1.0,
                deadline: PAPER_DEADLINE,
            },
            costs: CostsSpec::PaperScp,
            dvs: DvsSpec::PaperDefault,
            processors: 2,
        },
        faults: FaultSpec::Poisson { lambda: 1.4e-3 },
        policy: PolicySpec::from_tag("a_d_s", 1.4e-3, 5, 0).unwrap(),
        mc: McSpec {
            replications: reps,
            seed,
            threads: 0,
        },
        executor: ExecSpec::paper(),
    };
    assert_eq!(spec, paper);
    assert_eq!(spec, runner_result.spec);

    // Written to a JSON file and fed to the CLI...
    let dir = std::env::temp_dir().join("eacp-spec-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cell.json");
    spec.save(&path).unwrap();
    let out = eacp_cli::dispatch(vec![
        "mc".into(),
        "--spec".into(),
        path.to_str().unwrap().into(),
        "--json".into(),
    ])
    .unwrap();
    std::fs::remove_file(&path).unwrap();

    // ...the CLI's JSON report must carry the identical summary numbers.
    let doc = Json::parse(&out).unwrap();
    let summary = doc.req("summary").unwrap();
    assert_eq!(
        summary.req("replications").unwrap().as_u64().unwrap(),
        runner_result.summary.replications
    );
    assert_eq!(
        summary.req("timely").unwrap().as_u64().unwrap(),
        runner_result.summary.timely
    );
    assert_eq!(
        summary.req("p_timely").unwrap().as_f64().unwrap(),
        runner_result.summary.p_timely
    );
    assert_eq!(
        summary
            .req("energy_timely")
            .unwrap()
            .req("mean")
            .unwrap()
            .as_f64()
            .unwrap(),
        runner_result.summary.energy_timely.mean
    );
    assert_eq!(
        summary
            .req("faults")
            .unwrap()
            .req("mean")
            .unwrap()
            .as_f64()
            .unwrap(),
        runner_result.summary.faults.mean
    );

    // The report embeds the spec; it must be the exact document we wrote.
    use eacp_spec::FromJson;
    let embedded = ExperimentSpec::from_json(doc.req("spec").unwrap()).unwrap();
    assert_eq!(embedded, spec);

    // And running the embedded spec directly is still bit-identical.
    let (direct, _) = eacp_exec::run(&embedded).unwrap();
    assert_eq!(SummaryReport::from_summary(&direct), runner_result.summary);
}

#[test]
fn cli_flags_desugar_to_the_same_cell_spec() {
    // `eacp mc` flags for Table 1(a)'s first cell must desugar into the
    // same experiment the table document holds, modulo the experiment name.
    let harness_spec = first_proposed_cell(2_000, 2006);

    let emitted = eacp_cli::dispatch(vec![
        "mc".into(),
        "--emit-spec".into(),
        "--scheme".into(),
        "a_d_s".into(),
        "--util".into(),
        "0.76".into(),
        "--lambda".into(),
        "1.4e-3".into(),
        "--k".into(),
        "5".into(),
    ])
    .unwrap();
    let mut cli_spec = ExperimentSpec::from_json_str(&emitted).unwrap();
    cli_spec.name = harness_spec.name.clone();
    assert_eq!(cli_spec, harness_spec);
}
