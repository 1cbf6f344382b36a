//! The acceptance criterion of the spec redesign: one JSON
//! `ExperimentSpec` file reproduces a paper table cell through **both**
//! the CLI and the experiments runner, with identical `Summary` numbers
//! for the same seed.

use eacp_experiments::{cell_experiment, run_table, table_config, TableId};
use eacp_spec::{ExecSpec, ExperimentSpec, Json, PaperScheme};

#[test]
fn one_spec_file_reproduces_a_table_cell_through_cli_and_runner() {
    let reps = 80;
    let seed = 7;
    let config = table_config(TableId::Table1);
    let cell = config.cells[0]; // U = 0.76, λ = 1.4e-3, k = 5

    // The table runner's own result for the proposed scheme...
    let table = run_table(TableId::Table1, reps, seed, &ExecSpec::paper(), |spec| {
        eacp_exec::run(spec).map(|(summary, _)| summary)
    })
    .unwrap();
    let runner_result = table.cells[0].scheme(PaperScheme::Proposed);

    // ...and the spec document describing exactly that scheme/cell.
    let spec = cell_experiment(
        &config,
        &cell,
        PaperScheme::Proposed,
        reps,
        seed,
        &ExecSpec::paper(),
    );
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
        runner_result.summary.p_timely()
    );
    assert_eq!(
        summary
            .req("energy_timely")
            .unwrap()
            .req("mean")
            .unwrap()
            .as_f64()
            .unwrap(),
        runner_result.summary.energy_timely.mean()
    );
    assert_eq!(
        summary
            .req("faults")
            .unwrap()
            .req("mean")
            .unwrap()
            .as_f64()
            .unwrap(),
        runner_result.summary.faults.mean()
    );

    // The report embeds the spec; it must be the exact document we wrote.
    use eacp_spec::FromJson;
    let embedded = ExperimentSpec::from_json(doc.req("spec").unwrap()).unwrap();
    assert_eq!(embedded, spec);

    // And running the embedded spec directly is still bit-identical.
    let (direct, _) = eacp_exec::run(&embedded).unwrap();
    assert_eq!(direct, runner_result.summary);
}

#[test]
fn cli_flags_desugar_to_the_same_cell_spec() {
    // `eacp mc` flags for Table 1(a)'s first cell must desugar into the
    // same experiment the harness builds, modulo the experiment name.
    let config = table_config(TableId::Table1);
    let cell = config.cells[0];
    let harness_spec = cell_experiment(
        &config,
        &cell,
        PaperScheme::Proposed,
        2_000,
        2006,
        &ExecSpec::paper(),
    );

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
