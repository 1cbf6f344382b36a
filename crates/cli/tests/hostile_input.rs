//! Hostile spec files through the real `eacp` binary: a decoder failure
//! must be a one-line `eacp: ...` error with exit status 2, never a crash.

use std::process::Command;

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
