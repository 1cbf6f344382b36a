//! Acceptance tests of the work-queue scheduler through the CLI: a queued
//! sweep writes a grid report byte-identical to the default runner's,
//! `eacp queue status` tracks a trickling-in collection directory, the
//! queue config round-trips through `--emit-spec`, and corrupt shard
//! documents are clear errors naming the offending file.

use eacp_spec::{Axis, ExperimentSpec, Knob, McSpec, SweepSpec, ToJson};
use std::path::PathBuf;

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eacp-queue-cli-{}-{name}", std::process::id()))
}

/// A 4-point sweep, small enough for CI.
fn write_sweep(dir: &PathBuf) -> PathBuf {
    let mut base = ExperimentSpec::paper_nominal();
    base.name = "queued".into();
    base.mc = McSpec {
        replications: 50,
        seed: 7,
        threads: 1,
    };
    let sweep = SweepSpec {
        base,
        axes: vec![
            Axis::new(Knob::Lambda, vec![1.4e-3, 1.6e-3]),
            Axis::new(Knob::K, vec![5, 1]),
        ],
    };
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("sweep.json");
    std::fs::write(&path, sweep.to_json_string()).unwrap();
    path
}

#[test]
fn queued_sweep_grid_report_is_byte_identical_to_the_default_runner() {
    let base = tmp("identical");
    let _ = std::fs::remove_dir_all(&base);
    let spec_path = write_sweep(&base);
    let spec = spec_path.to_str().unwrap();

    let plain_dir = base.join("plain");
    eacp_cli::dispatch(args(&[
        "sweep",
        "--spec",
        spec,
        "--out",
        plain_dir.to_str().unwrap(),
    ]))
    .unwrap();

    for workers in ["1", "3"] {
        let queued_dir = base.join(format!("queued-{workers}"));
        let out = eacp_cli::dispatch(args(&[
            "sweep",
            "--spec",
            spec,
            "--queue",
            "--workers",
            workers,
            "--out",
            queued_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("queued:"), "{out}");
        assert!(out.contains(&format!("{workers}-worker pool")), "{out}");
        assert_eq!(
            std::fs::read_to_string(queued_dir.join("grid.json")).unwrap(),
            std::fs::read_to_string(plain_dir.join("grid.json")).unwrap(),
            "queued grid report must be byte-identical ({workers} workers)"
        );
    }

    // Queued shard runs produce the same shard documents, too.
    let shard_plain = base.join("shard-plain");
    let shard_queued = base.join("shard-queued");
    for (dir, extra) in [(&shard_plain, &[][..]), (&shard_queued, &["--queue"][..])] {
        let mut a = args(&["sweep", "--spec", spec, "--shard", "1/3", "--out"]);
        a.push(dir.to_str().unwrap().to_owned());
        a.extend(extra.iter().map(|s| (*s).to_owned()));
        eacp_cli::dispatch(a).unwrap();
    }
    assert_eq!(
        std::fs::read_to_string(shard_plain.join("shard-1-of-3.json")).unwrap(),
        std::fs::read_to_string(shard_queued.join("shard-1-of-3.json")).unwrap(),
    );

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn queue_status_tracks_a_collection_directory() {
    let base = tmp("status");
    let _ = std::fs::remove_dir_all(&base);
    let spec_path = write_sweep(&base);
    let spec = spec_path.to_str().unwrap();
    let dir = base.join("collect");

    // Two of three shards in: incomplete.
    for i in ["0", "2"] {
        eacp_cli::dispatch(args(&[
            "sweep",
            "--spec",
            spec,
            "--shard",
            &format!("{i}/3"),
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
    }
    let out = eacp_cli::dispatch(args(&["queue", "status", dir.to_str().unwrap()])).unwrap();
    assert!(out.contains("sweep \"queued\": 4 grid points"), "{out}");
    assert!(out.contains("3 shards declared"), "{out}");
    assert!(out.contains("covered 3/4 points"), "{out}");
    // Balanced 4-over-3 partition: shard 1 owns index 2.
    assert!(out.contains("missing: [2]"), "{out}");
    assert!(out.contains("not ready to merge"), "{out}");

    // Third shard lands: complete.
    eacp_cli::dispatch(args(&[
        "sweep",
        "--spec",
        spec,
        "--shard",
        "1/3",
        "--out",
        dir.to_str().unwrap(),
    ]))
    .unwrap();
    let out = eacp_cli::dispatch(args(&["queue", "status", dir.to_str().unwrap()])).unwrap();
    assert!(out.contains("covered 4/4 points"), "{out}");
    assert!(out.contains("ready to merge"), "{out}");
    assert!(out.contains("shard 1/3"), "{out}");

    // And the merge proves the status right.
    eacp_cli::dispatch(args(&["merge", dir.to_str().unwrap()])).unwrap();

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn queue_subcommand_rejects_bad_invocations() {
    let err = eacp_cli::dispatch(args(&["queue"])).unwrap_err();
    assert!(err.contains("missing subcommand"), "{err}");
    let err = eacp_cli::dispatch(args(&["queue", "frobnicate"])).unwrap_err();
    assert!(err.contains("frobnicate"), "{err}");
    let err = eacp_cli::dispatch(args(&["queue", "status"])).unwrap_err();
    assert!(err.contains("missing report directory"), "{err}");
    // --workers is queue-only.
    let err = eacp_cli::dispatch(args(&["mc", "--workers", "3"])).unwrap_err();
    assert!(err.contains("--queue"), "{err}");
    // --threads would be silently dead under --queue: rejected loudly.
    let err = eacp_cli::dispatch(args(&[
        "sweep",
        "--spec",
        "x.json",
        "--queue",
        "--threads",
        "2",
    ]))
    .unwrap_err();
    assert!(err.contains("--workers"), "{err}");
}

#[test]
fn mc_queue_flag_is_recorded_in_the_spec_and_changes_nothing() {
    let plain = eacp_cli::dispatch(args(&["mc", "--reps", "80", "--seed", "4"])).unwrap();
    let queued = eacp_cli::dispatch(args(&[
        "mc",
        "--reps",
        "80",
        "--seed",
        "4",
        "--queue",
        "--workers",
        "3",
    ]))
    .unwrap();
    assert_eq!(plain, queued, "queue scheduling must not change results");

    let emitted = eacp_cli::dispatch(args(&[
        "mc",
        "--reps",
        "80",
        "--queue",
        "--workers",
        "3",
        "--emit-spec",
    ]))
    .unwrap();
    let spec = ExperimentSpec::from_json_str(&emitted).unwrap();
    let queue = spec.executor.queue.expect("queue config recorded");
    assert_eq!(queue.workers, 3);
}

#[test]
fn sweep_emit_spec_records_the_queue_config_too() {
    let base = tmp("emit");
    let _ = std::fs::remove_dir_all(&base);
    let spec_path = write_sweep(&base);
    let spec = spec_path.to_str().unwrap();

    let emitted = eacp_cli::dispatch(args(&[
        "sweep",
        "--spec",
        spec,
        "--queue",
        "--workers",
        "2",
        "--emit-spec",
    ]))
    .unwrap();
    let docs = eacp_spec::Json::parse(&emitted).unwrap();
    let docs = docs.as_array().unwrap();
    assert_eq!(docs.len(), 4);
    for doc in docs {
        use eacp_spec::FromJson;
        let point = ExperimentSpec::from_json(doc).unwrap();
        assert_eq!(
            point.executor.queue.map(|q| q.workers),
            Some(2),
            "{emitted}"
        );
    }
    // Without --queue the emitted specs stay queue-free.
    let emitted = eacp_cli::dispatch(args(&["sweep", "--spec", spec, "--emit-spec"])).unwrap();
    assert!(!emitted.contains("\"queue\""), "{emitted}");

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn corrupt_shard_documents_are_clear_errors_naming_the_file() {
    let base = tmp("corrupt");
    let _ = std::fs::remove_dir_all(&base);
    let spec_path = write_sweep(&base);
    let spec = spec_path.to_str().unwrap();
    let dir = base.join("shards");
    for i in ["0", "1", "2"] {
        eacp_cli::dispatch(args(&[
            "sweep",
            "--spec",
            spec,
            "--shard",
            &format!("{i}/3"),
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
    }

    // Truncated JSON (a partially-copied shard document).
    let victim = dir.join("shard-1-of-3.json");
    let intact = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &intact[..intact.len() / 3]).unwrap();
    for cmd in ["merge", "queue-status", "csv"] {
        let argv = match cmd {
            "queue-status" => args(&["queue", "status", dir.to_str().unwrap()]),
            other => args(&[other, dir.to_str().unwrap()]),
        };
        let err = eacp_cli::dispatch(argv).unwrap_err();
        assert!(err.contains("shard-1-of-3.json"), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }

    // A lying total_points must be a clear error, not an allocation panic.
    let lying = intact.replace(
        "\"total_points\": 4",
        "\"total_points\": 1152921504606846976",
    );
    assert_ne!(lying, intact, "fixture must actually corrupt the field");
    std::fs::write(&victim, lying).unwrap();
    let err = eacp_cli::dispatch(args(&["merge", dir.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("shard-1-of-3.json"), "{err}");
    // queue status must reject the same lie instead of iterating a
    // fantasy-sized grid.
    let err = eacp_cli::dispatch(args(&["queue", "status", dir.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("shard-1-of-3.json"), "{err}");

    std::fs::remove_dir_all(&base).unwrap();
}
