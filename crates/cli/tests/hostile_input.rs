//! Hostile spec files through the real `eacp` binary: a decoder failure
//! must be a one-line `eacp: ...` error with exit status 2, never a crash.

use std::process::Command;

use eacp_spec::{CostsSpec, ExecutiveSpec, ExperimentSpec, PolicyAssignment, PolicySpec, ToJson};

/// A file in a directory of its own, removed by [`remove`].
fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eacp-hostile-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn remove(path: &std::path::Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn deeply_nested_spec_exits_2_with_a_parse_error() {
    let path = temp_file("nested.json", &"[".repeat(1_000_000));
    let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
        .args(["mc", "--spec"])
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("eacp: "), "{stderr}");
    assert!(stderr.contains("deeper than 128"), "{stderr}");
    assert!(stderr.contains("line 1, column 129"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    remove(&path);
}

#[test]
fn truncated_and_garbled_specs_exit_2() {
    let spec = Command::new(env!("CARGO_BIN_EXE_eacp"))
        .args(["mc", "--preset", "satellite-telemetry", "--emit-spec"])
        .output()
        .unwrap();
    assert!(spec.status.success());
    let text = String::from_utf8(spec.stdout).unwrap();
    for (i, bad) in [
        text[..text.len() / 2].to_owned(),
        text.replacen(':', "", 1),
        text.replacen('"', "\u{1}", 1),
    ]
    .iter()
    .enumerate()
    {
        let path = temp_file(&format!("bad-{i}.json"), bad);
        let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
            .args(["mc", "--reps", "10", "--spec"])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "case {i}: {stderr}");
        assert!(stderr.starts_with("eacp: "), "case {i}: {stderr}");
        remove(&path);
    }
}

#[test]
fn non_integer_counts_seeds_and_sizes_are_usage_errors() {
    // Each value once parsed as a float and was cast: 2.5 replications ran
    // 2, k = 3.9 recorded 3, seed -1 recorded 0 and 1e30 replications
    // saturated to u64::MAX. `--emit-spec` makes an accepted value exit at
    // once instead of running.
    let cases: &[(&str, &str, &[&str])] = &[
        ("--reps", "2.5", &[]),
        ("--reps", "1e30", &[]),
        ("--k", "3.9", &[]),
        ("--seed", "-1", &[]),
        ("--threads", "1.5", &[]),
        ("--workers", "2.5", &["--queue"]),
        (
            "--timeout-ms",
            "1e3",
            &["--queue", "--endpoints", "127.0.0.1:1"],
        ),
        ("--hyperperiods", "2.5", &["--preset", "avionics-trio"]),
        ("--max-entries", "1.5", &[]),
        ("--max-bytes", "1e9", &[]),
        ("--sample", "0.5", &[]),
    ];
    for &(flag, value, extra) in cases {
        let command = if flag == "--hyperperiods" {
            "executive"
        } else {
            "mc"
        };
        let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
            .args([command, "--emit-spec"])
            .args(extra)
            .args([flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("eacp: bad {flag}: ")),
            "{flag} {value}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value}: spec emitted");
    }
}

/// Runs `eacp` and asserts a one-line `eacp: ` usage error (exit 2).
fn assert_usage_error(args: &[&str], what: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.starts_with("eacp: "), "{what}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{what}: wrote {} bytes",
        out.stdout.len()
    );
    stderr
}

/// A key set twice in one object once ran the last value silently
/// (`"replications": 20000, "replications": 7` ran 7, and `--emit-spec`
/// dropped the first): each is now a parse error naming the key and where
/// it repeats, for `mc`, `--emit-spec` and `sweep` alike.
#[test]
fn repeated_keys_in_a_spec_file_are_usage_errors() {
    let text = emitted(&["mc", "--reps", "20000"]);
    let doubled = text.replacen(
        "\"replications\": 20000,",
        "\"replications\": 20000,\n    \"replications\": 7,",
        1,
    );
    assert_ne!(doubled, text);
    let path = temp_file("repeated-key.json", &doubled);
    let path_str = path.display().to_string();
    for args in [
        &["mc", "--spec", &path_str][..],
        &["mc", "--spec", &path_str, "--emit-spec"],
    ] {
        let stderr = assert_usage_error(args, "repeated replications");
        assert!(
            stderr.contains("duplicate key \"replications\"") && stderr.contains("line "),
            "{stderr}"
        );
    }
    remove(&path);
    let grid = temp_file(
        "repeated-axis-key.json",
        &grid_with_axes("table1a-sweep.json", r#"[{"k": [3], "k": [5]}]"#),
    );
    let stderr = assert_usage_error(
        &[
            "sweep",
            "--spec",
            &grid.display().to_string(),
            "--emit-spec",
        ],
        "repeated axis key",
    );
    assert!(stderr.contains("duplicate key \"k\""), "{stderr}");
    remove(&grid);
}

/// A grid document over a shipped sweep file's base whose axes are
/// `twos` two-valued seed axes, plus one three-valued one when `three`.
fn huge_grid(base_file: &str, twos: usize, three: bool) -> String {
    let path = format!("{}/../../specs/{base_file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).unwrap();
    let base = &text[text.find('{').unwrap() + 1..text.find("\"axes\"").unwrap()];
    let mut axes = vec![r#"{"seed": [1, 2]}"#; twos];
    if three {
        axes.push(r#"{"seed": [1, 2, 3]}"#);
    }
    format!("{{{base}\"axes\": [{}]}}", axes.join(", "))
}

/// Grids whose point count overflows `usize` (64 two-valued axes: the
/// product wraps to 0; one more three-valued axis: a capacity-overflow
/// panic) or cannot be allocated (2^40 points: an abort) are usage
/// errors for both grid kinds, in every command that expands a grid.
#[test]
fn grids_too_large_to_expand_are_usage_errors() {
    let store = std::env::temp_dir().join(format!("eacp-hostile-store-{}", std::process::id()));
    // `store status` needs an existing store to reach the grid check.
    std::fs::create_dir_all(&store).unwrap();
    let store = store.display().to_string();
    for (kind, base_file, command) in [
        ("experiment", "table1a-sweep.json", &["sweep", "--spec"][..]),
        (
            "executive",
            "avionics-trio-sweep.json",
            &["executive", "--sweep"][..],
        ),
    ] {
        for (shape, twos, three) in [
            ("wrap", 64, false),
            ("panic", 63, true),
            ("abort", 40, false),
        ] {
            let what = format!("{kind} {shape}");
            let path = temp_file(
                &format!("{kind}-{shape}.json"),
                &huge_grid(base_file, twos, three),
            );
            let path_str = path.display().to_string();
            let mut args = command.to_vec();
            args.extend([path_str.as_str(), "--emit-spec"]);
            assert_usage_error(&args, &format!("{what}: {command:?} --emit-spec"));
            assert_usage_error(
                &["store", "status", "--store", &store, "--spec", &path_str],
                &format!("{what}: store status --spec"),
            );
            remove(&path);
        }

        // A `--out` document edited to embed the wrapping grid, with no
        // points and `total_points: 0`: neither merge nor queue status may
        // take it for a complete empty grid, and both name the file.
        let sweep = huge_grid(base_file, 64, false);
        let doc = format!("{{\"sweep\": {sweep}, \"total_points\": 0, \"points\": []}}");
        let path = temp_file(&format!("{kind}-edited-grid.json"), &doc);
        let dir = path.parent().unwrap().display().to_string();
        for cmd in [
            &["merge", dir.as_str()][..],
            &["queue", "status", dir.as_str()],
        ] {
            let stderr = assert_usage_error(cmd, &format!("{kind}: {cmd:?}"));
            assert!(
                stderr.contains(&path.display().to_string()),
                "{kind}: {cmd:?}: {stderr}"
            );
        }
        remove(&path);
    }
    let _ = std::fs::remove_dir_all(&store);
}

/// `store status|verify|gc` only read or prune a store: a store directory
/// that does not exist, from `--store` or `$EACP_STORE`, is a usage error,
/// and the command creates nothing.
#[test]
fn store_subcommands_do_not_create_a_missing_store() {
    let missing = std::env::temp_dir().join(format!("eacp-no-such-store-{}", std::process::id()));
    let dir = missing.display().to_string();
    for sub in ["status", "verify", "gc"] {
        let stderr = assert_usage_error(&["store", sub, "--store", &dir], sub);
        assert!(
            stderr.contains(&format!("no store at {dir}")),
            "{sub}: {stderr}"
        );
        assert!(!missing.exists(), "store {sub} created {dir}");
        let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
            .args(["store", sub])
            .env("EACP_STORE", &missing)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub} via $EACP_STORE");
        assert!(
            !missing.exists(),
            "store {sub} created {dir} via $EACP_STORE"
        );
    }
}

/// A grid point that fails its check names its index and name once, in
/// front of the one error it raised, for both grid kinds.
#[test]
fn grid_point_errors_name_the_point_once() {
    let spec = |name: &str| format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    for (command, file, point) in [
        ("sweep", "table1a-sweep.json", "table1a-grid-u0.76-l0.0014"),
        (
            "executive",
            "avionics-trio-sweep.json",
            "avionics-trio-l0.0002-h1",
        ),
    ] {
        let flag = if command == "sweep" {
            "--spec"
        } else {
            "--sweep"
        };
        let stderr = assert_usage_error(&[command, flag, &spec(file), "--reps", "0"], command);
        let expect = format!("eacp: grid point 0 ({point}): invalid spec: ");
        assert!(stderr.starts_with(&expect), "{command}: {stderr}");
        assert_eq!(stderr.matches("invalid spec").count(), 1, "{stderr}");
        assert_eq!(stderr.matches("grid point").count(), 1, "{stderr}");
    }
}

/// A parameter flag the command's cell has no parameter for, or that a
/// grid or paper table fixes, is a usage error naming the flag — never
/// silently dropped.
#[test]
fn parameter_flags_a_command_cannot_apply_are_usage_errors() {
    let spec = |name: &str| format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let (sweep, exec_sweep) = (spec("table1a-sweep.json"), spec("avionics-trio-sweep.json"));
    let cases: &[(&[&str], &str)] = &[
        // Executives have no single relative deadline.
        (
            &[
                "executive",
                "--preset",
                "avionics-trio",
                "--util",
                "0.3",
                "--deadline",
                "5",
            ],
            "--deadline",
        ),
        (
            &[
                "feasibility",
                "--preset",
                "avionics-trio",
                "--deadline",
                "5",
            ],
            "--deadline",
        ),
        // Single-task experiments have no hyperperiods or fixed speed.
        (
            &[
                "mc",
                "--preset",
                "table1-a",
                "--hyperperiods",
                "9",
                "--speed",
                "3",
            ],
            "--speed",
        ),
        (
            &["mc", "--preset", "table1-a", "--hyperperiods", "9"],
            "--hyperperiods",
        ),
        (&["run", "--speed", "2"], "--speed"),
        // Grids and tables fix every parameter but the seed.
        (
            &["sweep", "--spec", &sweep, "--hyperperiods", "3"],
            "--hyperperiods",
        ),
        (&["sweep", "--spec", &sweep, "--speed", "2"], "--speed"),
        (
            &[
                "executive",
                "--sweep",
                &exec_sweep,
                "--util",
                "0.9",
                "--deadline",
                "7",
            ],
            "--util",
        ),
        (
            &["executive", "--sweep", &exec_sweep, "--deadline", "7"],
            "--deadline",
        ),
        (
            &["table", "1", "--hyperperiods", "3", "--speed", "2"],
            "--speed",
        ),
        (&["table", "1", "--hyperperiods", "3"], "--hyperperiods"),
    ];
    for &(args, flag) in cases {
        let mut args = args.to_vec();
        args.push("--emit-spec");
        let stderr = assert_usage_error(&args, &format!("{args:?}"));
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

/// The document `eacp <args> --emit-spec` writes.
fn emitted(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
        .args(args)
        .arg("--emit-spec")
        .output()
        .unwrap();
    assert!(out.status.success(), "{args:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// A fixed DVS level index past the scenario's table is a spec error
/// naming the index and the table size, never an index-out-of-bounds
/// panic: in `mc` ...
#[test]
fn mc_fixed_speed_past_the_dvs_table_is_a_usage_error() {
    let mut spec = ExperimentSpec::from_json_str(&emitted(&["mc"])).unwrap();
    spec.policy = PolicySpec::Poisson {
        lambda: 0.0014,
        speed: 2,
    };
    let path = temp_file("speed-mc.json", &spec.to_json_string());
    let err = assert_usage_error(
        &["mc", "--reps", "10", "--spec", path.to_str().unwrap()],
        "mc, poisson at speed 2",
    );
    assert!(err.contains("speed 2") && err.contains("2 level"), "{err}");
    remove(&path);
}

/// ... and in both executive commands, for a shared and a per-task
/// policy.
fn assert_executive_rejects_speed_7(mode: &[&str]) {
    let base = emitted(&["executive", "--preset", "avionics-trio"]);
    let pinned = PolicySpec::from_tag("a_s", 0.0005, 2, 7).unwrap();
    let shared = {
        let mut spec = ExecutiveSpec::from_json_str(&base).unwrap();
        spec.policy = PolicyAssignment::Shared(pinned);
        spec
    };
    let per_task = {
        let mut spec = ExecutiveSpec::from_json_str(&base).unwrap();
        let tasks = spec.tasks.len();
        let mut policies = vec![PolicySpec::from_tag("a_d_s", 0.0005, 2, 0).unwrap(); tasks];
        policies[tasks - 1] = pinned;
        spec.policy = PolicyAssignment::PerTask(policies);
        spec
    };
    for (name, spec) in [("shared", shared), ("per-task", per_task)] {
        let path = temp_file(
            &format!("speed-{name}-{}.json", mode.len()),
            &spec.to_json_string(),
        );
        let mut args = vec!["executive"];
        args.extend_from_slice(mode);
        args.extend_from_slice(&["--spec", path.to_str().unwrap()]);
        let err = assert_usage_error(&args, &format!("{name}: {args:?}"));
        assert!(err.contains("speed 7") && err.contains("2 level"), "{err}");
        remove(&path);
    }
}

#[test]
fn executive_fixed_speed_past_the_dvs_table_is_a_usage_error() {
    assert_executive_rejects_speed_7(&[]);
}

#[test]
fn executive_mc_fixed_speed_past_the_dvs_table_is_a_usage_error() {
    assert_executive_rejects_speed_7(&["--mc", "--reps", "10"]);
}

/// An operation far longer than the mean gap between faults once drew
/// every arrival inside it — λ × its length of them, unbounded by the
/// operation budget: at checkpoint costs of 1e300 cycles the run never
/// ended. Draws now count against `max_operations`, so the run stops and
/// reports the exhausted budget.
#[test]
fn astronomically_long_operations_end_at_the_op_budget() {
    let mut spec = ExperimentSpec::from_json_str(&emitted(&["mc"])).unwrap();
    spec.scenario.costs = CostsSpec::Explicit {
        store: 1e300,
        compare: 1e300,
        rollback: 0.0,
    };
    spec.mc.replications = 1;
    spec.executor.max_operations = 1000;
    let path = temp_file("long-ops.json", &spec.to_json_string());
    let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
        .args(["mc", "--json", "--spec"])
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"anomalies\": 1"), "{stdout}");
    // The text report prints the runaway energy in scientific notation,
    // not as a 300-digit integer.
    let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
        .args(["mc", "--spec"])
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("anomalies = 1"), "{stdout}");
    assert!(
        stdout.contains("e300") || stdout.contains("e301"),
        "{stdout}"
    );
    for line in stdout.lines() {
        assert!(line.len() <= 80, "{} chars: {line}", line.len());
    }
    remove(&path);
}

/// A flag the command never reads is a usage error naming the flag and
/// the command, never silently dropped (each of these once ran, exit 0).
#[test]
fn flags_a_command_never_reads_are_usage_errors() {
    let sweep = format!(
        "{}/../../specs/table1a-sweep.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let cases: &[(&[&str], &str)] = &[
        (&["mc", "--trace"], "--trace"),
        (&["sweep", "--spec", &sweep, "--trace"], "--trace"),
        (&["table", "1", "--trace"], "--trace"),
        (&["mc", "--listen", "1.2.3.4:5"], "--listen"),
        (&["mc", "--tasks", "a:1:10"], "--tasks"),
        (&["sweep", "--spec", &sweep, "--tasks", "a:1:10"], "--tasks"),
        (&["table", "1", "--tasks", "a:1:10"], "--tasks"),
        (&["presets", "--json"], "--json"),
        // One seeded execution has no replications, threads or queue.
        (&["run", "--reps", "7"], "--reps"),
        (&["run", "--threads", "4"], "--threads"),
        (&["run", "--queue", "--workers", "2"], "--queue"),
    ];
    for &(args, flag) in cases {
        // `--emit-spec` keeps a regression from running a whole table.
        let mut args = args.to_vec();
        args.push("--emit-spec");
        let stderr = assert_usage_error(&args, &format!("{args:?}"));
        let command = args[0];
        assert!(
            stderr.starts_with(&format!("eacp: {command}: {flag} ")),
            "{args:?}: {stderr}"
        );
    }
}

/// A grid document over a shipped sweep file's base with `axes`.
fn grid_with_axes(base_file: &str, axes: &str) -> String {
    let path = format!("{}/../../specs/{base_file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).unwrap();
    let base = &text[text.find('{').unwrap() + 1..text.find("\"axes\"").unwrap()];
    format!("{{{base}\"axes\": [{axes}]}}")
}

/// Malformed points axes and policy values are one-line typed errors with
/// exit 2, never a panic or a silently empty grid.
#[test]
fn malformed_points_and_policy_grids_are_usage_errors() {
    let cases: &[(&str, &[&str], &str, &str)] = &[
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": []}"#,
            "is empty",
        ),
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": [[0.76]]}"#,
            "object of knob assignments",
        ),
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": [{"utilization": 0.76, "alpha": 1}]}"#,
            "\"alpha\"",
        ),
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": [{"lambda": 1e-3, "lambda": 2e-3}]}"#,
            "twice",
        ),
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": [{"speed": 2}]}"#,
            "\"speed\"",
        ),
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": [{"k": 2, "seed_offset": 1, "seed_offset": 2}]}"#,
            "twice",
        ),
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": [{"seed_offset": 1}]}"#,
            "at least one knob",
        ),
        (
            "table1a-sweep.json",
            &["sweep", "--spec"],
            r#"{"points": [{"policy": {"kind": "nope"}}]}"#,
            "nope",
        ),
        (
            "avionics-trio-sweep.json",
            &["executive", "--sweep"],
            r#"{"policy": [{"kind": "a_d", "lambda": 1e-3, "k": 2}]}"#,
            "\"policy\"",
        ),
        (
            "avionics-trio-sweep.json",
            &["executive", "--sweep"],
            r#"{"points": [{"k": 2, "policy": {"kind": "a_d", "lambda": 1e-3, "k": 2}}]}"#,
            "\"policy\"",
        ),
    ];
    for (i, &(base_file, command, axes, expect)) in cases.iter().enumerate() {
        let path = temp_file(
            &format!("points-{i}.json"),
            &grid_with_axes(base_file, axes),
        );
        let path_str = path.display().to_string();
        let mut args = command.to_vec();
        args.extend([path_str.as_str(), "--emit-spec"]);
        let stderr = assert_usage_error(&args, axes);
        assert!(stderr.contains(expect), "{axes}: {stderr}");
        remove(&path);
    }
}
