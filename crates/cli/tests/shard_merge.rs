//! Acceptance test of the sharded sweep executor, end to end through the
//! CLI: running `eacp sweep --shard i/3` for i = 0..3 and merging the shard
//! documents produces a grid report bit-identical to the unsharded
//! `eacp sweep` run; `eacp merge` fails loudly on a withheld or duplicated
//! shard; bad `--shard` arguments are clear errors; and `eacp csv` renders
//! the merged directory with paper-value deltas.

use eacp_spec::{Axis, ExperimentSpec, Knob, McSpec, SweepSpec, ToJson};
use std::path::PathBuf;

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

/// A 4-point paper-anchored sweep (Table 1(a) first row × λ axis), small
/// enough for CI.
fn write_sweep(dir: &PathBuf) -> PathBuf {
    let mut base = ExperimentSpec::paper_nominal();
    base.name = "anchor".into();
    base.mc = McSpec {
        replications: 60,
        seed: 11,
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

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eacp-shard-merge-{}-{name}", std::process::id()))
}

#[test]
fn sharded_sweep_merges_bit_identically_to_the_unsharded_run() {
    let base = tmp("determinism");
    let _ = std::fs::remove_dir_all(&base);
    let spec_path = write_sweep(&base);
    let spec = spec_path.to_str().unwrap();

    // Unsharded reference run.
    let full_dir = base.join("full");
    eacp_cli::dispatch(args(&[
        "sweep",
        "--spec",
        spec,
        "--out",
        full_dir.to_str().unwrap(),
    ]))
    .unwrap();
    let full = std::fs::read_to_string(full_dir.join("grid.json")).unwrap();

    // Three shards, then merge.
    let shard_dir = base.join("shards");
    for i in 0..3 {
        let out = eacp_cli::dispatch(args(&[
            "sweep",
            "--spec",
            spec,
            "--shard",
            &format!("{i}/3"),
            "--out",
            shard_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains(&format!("shard {i}/3")), "{out}");
    }
    let merged = eacp_cli::dispatch(args(&["merge", shard_dir.to_str().unwrap()])).unwrap();
    assert_eq!(
        merged, full,
        "merged shard documents must be bit-identical to the unsharded grid report"
    );

    // --out writes the same bytes to a file.
    let merged_path = base.join("merged.json");
    eacp_cli::dispatch(args(&[
        "merge",
        shard_dir.to_str().unwrap(),
        "--out",
        merged_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(std::fs::read_to_string(&merged_path).unwrap(), full);

    // The CSV renderer covers the merged directory: header + 4 rows, with
    // paper reference values for the anchor point (Table 1(a), U = 0.76,
    // λ = 1.4e-3, k = 5, A_D_S → paper P = 0.9999).
    let csv = eacp_cli::dispatch(args(&["csv", shard_dir.to_str().unwrap()])).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 5, "{csv}");
    assert!(lines[0].starts_with("index,experiment,scheme,"), "{csv}");
    let anchor = lines
        .iter()
        .find(|l| l.starts_with("0,"))
        .expect("grid point 0 present");
    let cols: Vec<&str> = anchor.split(',').collect();
    assert_eq!(cols[2], "A_D_S", "{anchor}");
    assert_eq!(cols[9], "0.9999", "paper P column: {anchor}");
    assert!(!cols[10].is_empty(), "delta_p column: {anchor}");

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn merge_fails_on_withheld_or_duplicated_shards() {
    let base = tmp("failures");
    let _ = std::fs::remove_dir_all(&base);
    let spec_path = write_sweep(&base);
    let spec = spec_path.to_str().unwrap();

    let shard_dir = base.join("shards");
    for i in 0..3 {
        eacp_cli::dispatch(args(&[
            "sweep",
            "--spec",
            spec,
            "--shard",
            &format!("{i}/3"),
            "--out",
            shard_dir.to_str().unwrap(),
        ]))
        .unwrap();
    }

    // Withheld shard: only 0 and 2 present.
    let withheld = base.join("withheld");
    std::fs::create_dir_all(&withheld).unwrap();
    for name in ["shard-0-of-3.json", "shard-2-of-3.json"] {
        std::fs::copy(shard_dir.join(name), withheld.join(name)).unwrap();
    }
    let err = eacp_cli::dispatch(args(&["merge", withheld.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("missing"), "{err}");

    // Duplicated shard: shard 0 appears under two file names.
    let duplicated = base.join("duplicated");
    std::fs::create_dir_all(&duplicated).unwrap();
    for name in [
        "shard-0-of-3.json",
        "shard-1-of-3.json",
        "shard-2-of-3.json",
    ] {
        std::fs::copy(shard_dir.join(name), duplicated.join(name)).unwrap();
    }
    std::fs::copy(
        shard_dir.join("shard-0-of-3.json"),
        duplicated.join("shard-0-again.json"),
    )
    .unwrap();
    let err = eacp_cli::dispatch(args(&["merge", duplicated.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("covered twice"), "{err}");

    // csv refuses the same duplication instead of silently emitting each
    // row twice (merged grid + shards in one directory is the common way
    // to hit this).
    let err = eacp_cli::dispatch(args(&["csv", duplicated.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("already covered"), "{err}");

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn invalid_shard_arguments_are_clear_errors() {
    let base = tmp("badshard");
    let _ = std::fs::remove_dir_all(&base);
    let spec_path = write_sweep(&base);
    let spec = spec_path.to_str().unwrap();

    // i >= n.
    let err = eacp_cli::dispatch(args(&["sweep", "--spec", spec, "--shard", "3/3"])).unwrap_err();
    assert!(err.contains("out of range"), "{err}");
    // n == 0.
    let err = eacp_cli::dispatch(args(&["sweep", "--spec", spec, "--shard", "0/0"])).unwrap_err();
    assert!(err.contains("positive"), "{err}");
    // Malformed.
    let err = eacp_cli::dispatch(args(&["sweep", "--spec", spec, "--shard", "x"])).unwrap_err();
    assert!(err.contains("index/count"), "{err}");

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn sweep_with_an_empty_axis_is_a_clear_error() {
    let base = tmp("emptyaxis");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // Hand-written document with an empty lambda axis: rejected at parse
    // time with a message naming the axis.
    let text = r#"{
        "base": {
            "name": "empty",
            "scenario": {"work": {"kind": "utilization", "utilization": 0.76, "deadline": 10000}},
            "faults": {"kind": "poisson", "lambda": 0.0014},
            "policy": {"kind": "a_d_s", "lambda": 0.0014, "k": 5}
        },
        "axes": [{"lambda": []}]
    }"#;
    let path = base.join("empty-axis.json");
    std::fs::write(&path, text).unwrap();
    let err = eacp_cli::dispatch(args(&["sweep", "--spec", path.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("empty"), "{err}");

    std::fs::remove_dir_all(&base).unwrap();
}

/// `text` rewritten line by line: each line without its indentation,
/// joined by `sep` (`"\n"` re-indents, `""` compacts onto one line). No
/// string in these documents holds a newline, so every line break is
/// whitespace between tokens.
fn reflowed(text: &str, sep: &str) -> String {
    text.lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join(sep)
}

/// Shard documents written by another tool's formatting — re-indented, or
/// compacted onto one line — merge to the unsharded grid's bytes and
/// render the same CSV, for single-task and executive grids alike.
/// Merging executive shards decodes each point's summary from the parsed
/// document, through the summary types' reader bodies.
#[test]
fn reformatted_shard_documents_merge_like_the_originals() {
    let base = tmp("reformatted");
    let _ = std::fs::remove_dir_all(&base);
    let single = write_sweep(&base);
    let executive =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/avionics-trio-sweep.json");
    for (command, flag, spec) in [
        ("sweep", "--spec", &single),
        ("executive", "--sweep", &executive),
    ] {
        let spec = spec.to_str().unwrap();
        let run = |extra: &[&str], out: &PathBuf| {
            let mut parts = vec![command, flag, spec, "--reps", "20"];
            parts.extend(extra);
            parts.extend(["--out", out.to_str().unwrap()]);
            eacp_cli::dispatch(args(&parts)).unwrap();
        };
        let full_dir = base.join(format!("{command}-full"));
        run(&[], &full_dir);
        let full = std::fs::read_to_string(full_dir.join("grid.json")).unwrap();
        let shard_dir = base.join(format!("{command}-shards"));
        for shard in ["0/2", "1/2"] {
            run(&["--shard", shard], &shard_dir);
        }
        let dir = shard_dir.to_str().unwrap();
        assert_eq!(eacp_cli::dispatch(args(&["merge", dir])).unwrap(), full);
        let csv = eacp_cli::dispatch(args(&["csv", dir])).unwrap();

        for (style, sep) in [("reindented", "\n"), ("compacted", "")] {
            let dir = base.join(format!("{command}-{style}"));
            std::fs::create_dir_all(&dir).unwrap();
            let mut shards = 0;
            for entry in std::fs::read_dir(&shard_dir).unwrap() {
                let path = entry.unwrap().path();
                let text = std::fs::read_to_string(&path).unwrap();
                let rewritten = reflowed(&text, sep);
                assert_ne!(rewritten, text, "{command} {style}");
                assert_eq!(rewritten.contains('\n'), sep == "\n", "{command} {style}");
                std::fs::write(dir.join(path.file_name().unwrap()), rewritten).unwrap();
                shards += 1;
            }
            assert_eq!(shards, 2, "{command}");
            let dir = dir.to_str().unwrap();
            let merged = eacp_cli::dispatch(args(&["merge", dir])).unwrap();
            assert_eq!(merged, full, "{command} {style}: merge");
            let rendered = eacp_cli::dispatch(args(&["csv", dir])).unwrap();
            assert_eq!(rendered, csv, "{command} {style}: csv");
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}
