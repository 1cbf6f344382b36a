//! End-to-end tests of the spec-driven periodic-workload subcommands:
//! `eacp feasibility` and `eacp executive`.

use eacp_cli::dispatch;
use eacp_spec::{executive_preset, ExecutiveRunReport, ExecutiveSpec, FromJson, Json};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eacp-exec-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `feasibility --spec` prints exactly what the equivalent `--tasks`
/// shorthand prints: the shorthand is a parser into the same spec.
#[test]
fn feasibility_spec_matches_tasks_shorthand() {
    let tasks = "ctrl:900:5000,tele:2600:20000:15000";
    let from_flags = dispatch(args(&format!(
        "feasibility --tasks {tasks} --k 2 --speed 1"
    )))
    .unwrap();

    // Emit the effective spec, write it, and drive feasibility from it.
    let emitted = dispatch(args(&format!(
        "feasibility --tasks {tasks} --k 2 --speed 1 --emit-spec"
    )))
    .unwrap();
    let dir = temp_dir();
    let path = dir.join("feasibility.json");
    std::fs::write(&path, &emitted).unwrap();
    let from_spec = dispatch(args(&format!("feasibility --spec {}", path.display()))).unwrap();
    std::fs::remove_file(&path).unwrap();

    assert_eq!(from_flags, from_spec);
    assert!(from_flags.contains("EDF density"), "{from_flags}");
    assert!(from_flags.contains("k-fault sensitivity"), "{from_flags}");
    // The constrained deadline survives the spec round trip.
    let spec = ExecutiveSpec::from_json_str(&emitted).unwrap();
    assert_eq!(spec.tasks.tasks[1].deadline, 15_000);
}

/// `executive --spec --emit-spec` round-trips: the emitted document
/// re-parses to an equal spec, and flags act as overrides on top of it.
#[test]
fn executive_emit_spec_round_trips() {
    let emitted = dispatch(args("executive --preset avionics-trio --emit-spec")).unwrap();
    let spec = ExecutiveSpec::from_json_str(&emitted).unwrap();
    assert_eq!(spec, executive_preset("avionics-trio").unwrap());

    // Replay the document through --spec: identical emission.
    let dir = temp_dir();
    let path = dir.join("avionics.json");
    std::fs::write(&path, &emitted).unwrap();
    let replayed = dispatch(args(&format!(
        "executive --spec {} --emit-spec",
        path.display()
    )))
    .unwrap();
    assert_eq!(emitted, replayed);

    // Flags override the loaded document (and are re-emitted).
    let overridden = dispatch(args(&format!(
        "executive --spec {} --hyperperiods 2 --seed 5 --k 3 --emit-spec",
        path.display()
    )))
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    let spec = ExecutiveSpec::from_json_str(&overridden).unwrap();
    assert_eq!(spec.hyperperiods, 2);
    assert_eq!(spec.seed, 5);
    assert_eq!(spec.k, 3);
    assert_eq!(spec.policy.for_task(0).k(), Some(3));
}

/// Golden snapshot: the JSON report of the shipped `avionics-trio`
/// preset is pinned byte for byte. A diff here means either the executive
/// semantics, the RNG stream, or the report schema changed — all three
/// must be deliberate, reviewed changes (regenerate with
/// `eacp executive --preset avionics-trio --json`).
#[test]
fn executive_preset_report_matches_golden_snapshot() {
    let expected = include_str!("golden/executive-avionics-trio.json");
    let actual = dispatch(args("executive --preset avionics-trio --json")).unwrap();
    assert_eq!(actual, expected, "golden executive report drifted");

    // The snapshot itself parses as a well-formed report document.
    let report = ExecutiveRunReport::from_json_str(expected).unwrap();
    assert_eq!(report.spec.name, "avionics-trio");
    assert_eq!(report.tasks.len(), 3);
    assert_eq!(report.summary.jobs, 35);
}

/// The `--spec` document and the preset of the same name ship in
/// lockstep: specs/avionics-trio.json etc. are the emitted presets.
#[test]
fn shipped_spec_files_match_their_presets() {
    for name in eacp_spec::executive_preset_names() {
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .join("specs")
            .join(format!("{name}.json"));
        let loaded =
            ExecutiveSpec::load(&path).unwrap_or_else(|e| panic!("specs/{name}.json: {e}"));
        assert_eq!(loaded, executive_preset(name).unwrap(), "{name} drifted");
    }
}

/// `executive` runs end to end from a preset, both human and JSON forms.
#[test]
fn executive_preset_runs_end_to_end() {
    let out = dispatch(args("executive --preset avionics-trio")).unwrap();
    assert!(out.contains("executive avionics-trio"), "{out}");
    assert!(out.contains("attitude-control"), "{out}");

    let json = dispatch(args("executive --preset k-fault-feasibility-sweep --json")).unwrap();
    let doc = Json::parse(&json).unwrap();
    let report = ExecutiveRunReport::from_json(&doc).unwrap();
    assert_eq!(report.tasks.len(), 5);
    // The per-task assignment surfaces in the report.
    assert_eq!(report.policy_names[2], "k-f-t");

    assert!(dispatch(args("executive --preset nope")).is_err());
    assert!(dispatch(args("executive")).is_err());
}

/// Switching the scheme on a loaded document must not silently reset the
/// pinned DVS level (mirrors the `mc` override contract).
#[test]
fn executive_scheme_override_preserves_pinned_speed() {
    // The policy's own k (4) differs from the top-level feasibility k
    // (5): a scheme switch must carry the policy's k, not spec.k.
    let text = r#"{
        "tasks": [{"name": "solo", "wcet": 500, "period": 4000}],
        "faults": {"kind": "poisson", "lambda": 0.001},
        "policy": {"kind": "a_s", "lambda": 0.001, "k": 4, "speed": 1},
        "k": 5
    }"#;
    let dir = temp_dir();
    let path = dir.join("pinned.json");
    std::fs::write(&path, text).unwrap();
    let emitted = dispatch(args(&format!(
        "executive --spec {} --scheme a_c --emit-spec",
        path.display()
    )))
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    let spec = ExecutiveSpec::from_json_str(&emitted).unwrap();
    assert_eq!(spec.policy.for_task(0).tag(), "a_c");
    assert_eq!(spec.policy.for_task(0).speed(), Some(1));
    assert_eq!(spec.policy.for_task(0).k(), Some(4));
    assert_eq!(spec.k, 5, "the feasibility k is untouched");
}

/// Determinism at the CLI boundary: two invocations of the same spec
/// emit byte-identical JSON reports.
#[test]
fn executive_json_is_deterministic_across_invocations() {
    let a = dispatch(args("executive --preset k-fault-feasibility-sweep --json")).unwrap();
    let b = dispatch(args("executive --preset k-fault-feasibility-sweep --json")).unwrap();
    assert_eq!(a, b);
}

/// `--util U` on an executive command is the executive utilization axis:
/// it rescales every WCET to total utilization U, so the flag's spec is
/// point 0 of a one-value utilization grid over the same base, once the
/// names (the grid appends `-u0.5`) are normalized.
#[test]
fn executive_util_flag_equals_the_utilization_axis() {
    let base = dispatch(args("executive --preset avionics-trio --emit-spec")).unwrap();
    let dir = temp_dir();
    let path = dir.join("util-grid.json");
    std::fs::write(
        &path,
        format!(r#"{{"base": {base}, "axes": [{{"utilization": [0.5]}}]}}"#),
    )
    .unwrap();
    let points = dispatch(args(&format!(
        "executive --sweep {} --emit-spec",
        path.display()
    )))
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    let points = Json::parse(&points).unwrap();
    let mut point = ExecutiveSpec::from_json(&points.as_array().unwrap()[0]).unwrap();
    assert_eq!(point.name, "avionics-trio-u0.5");

    let flagged = dispatch(args(
        "executive --preset avionics-trio --util 0.5 --emit-spec",
    ))
    .unwrap();
    let flagged = ExecutiveSpec::from_json_str(&flagged).unwrap();
    point.name = flagged.name.clone();
    assert_eq!(flagged, point);
    let util: f64 = flagged
        .tasks
        .tasks
        .iter()
        .map(|t| t.wcet / t.period as f64)
        .sum();
    assert!((util - 0.5).abs() < 1e-12, "utilization {util}");
}
