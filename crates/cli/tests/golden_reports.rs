//! Golden Monte-Carlo reports, pinned byte for byte across versions.
//!
//! The determinism suites compare two paths of the same build, so an
//! engine change that moves bits on every path at once passes them all.
//! These snapshots were written by an earlier `eacp` binary and are
//! compared with what this build prints (stdout, trailing newline
//! included). A diff means the simulated executions, the RNG streams or
//! the report schema changed; each of those must be a deliberate change
//! that regenerates the file with the command named next to it.

use eacp_cli::dispatch;

/// What `eacp <args>` writes to stdout.
fn stdout_of(args: &[&str]) -> String {
    let args = args.iter().map(|s| (*s).to_owned()).collect();
    let out = dispatch(args).unwrap_or_else(|e| panic!("eacp failed: {e}"));
    format!("{out}\n")
}

/// Path of a shipped spec document under the repository's `specs/`.
fn spec(name: &str) -> String {
    format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Equality with a readable failure: the first line where the texts part.
fn assert_golden(actual: &str, expected: &str, what: &str) {
    if actual != expected {
        let mut pairs = actual.lines().zip(expected.lines());
        let line = pairs
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "golden report drifted: {what}\nfirst differing line {}:\n  actual:   {:?}\n  expected: {:?}",
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line),
        );
    }
}

/// `eacp mc --spec specs/table1-anchor.json --json --no-cache`
#[test]
fn table1_anchor_spec_report_is_pinned() {
    let actual = stdout_of(&[
        "mc",
        "--spec",
        &spec("table1-anchor.json"),
        "--json",
        "--no-cache",
    ]);
    assert_golden(
        &actual,
        include_str!("golden/mc-table1-anchor.json"),
        "mc --spec specs/table1-anchor.json",
    );
}

/// `eacp mc --spec specs/satellite-telemetry.json --json --no-cache`
#[test]
fn satellite_telemetry_spec_report_is_pinned() {
    let actual = stdout_of(&[
        "mc",
        "--spec",
        &spec("satellite-telemetry.json"),
        "--json",
        "--no-cache",
    ]);
    assert_golden(
        &actual,
        include_str!("golden/mc-satellite-telemetry.json"),
        "mc --spec specs/satellite-telemetry.json",
    );
}

/// `eacp mc --scheme a_d_c --variant ccp --lambda 0.004 --reps 2000 --json --no-cache`
#[test]
fn adaptive_ccp_flag_report_is_pinned() {
    let actual = stdout_of(&[
        "mc",
        "--scheme",
        "a_d_c",
        "--variant",
        "ccp",
        "--lambda",
        "0.004",
        "--reps",
        "2000",
        "--json",
        "--no-cache",
    ]);
    assert_golden(
        &actual,
        include_str!("golden/mc-a_d_c-ccp-l0.004.json"),
        "mc --scheme a_d_c --variant ccp --lambda 0.004",
    );
}

/// `eacp table 1 --reps 20 --json`
#[test]
fn table1_report_is_pinned() {
    let actual = stdout_of(&["table", "1", "--reps", "20", "--json"]);
    assert_golden(
        &actual,
        include_str!("golden/table1-reps20.json"),
        "table 1 --reps 20",
    );
}

/// Lower-case hex SHA-256 of a report.
fn sha256_hex(text: &str) -> String {
    eacp_store::sha256(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Tables 2–4 are ~150 KB each, so their reports are pinned by digest
/// (`eacp table N --reps 20 --json | sha256sum`). Between them they cover
/// what Table 1 does not: baselines at f2 (Tables 2, 4) and the CCP
/// variant with the `A_D_C` proposal (Tables 3, 4).
#[test]
fn tables_2_to_4_reports_are_pinned_by_digest() {
    for (table, digest) in [
        (
            "2",
            "917e6d9133277bddb81ac743e8b1482dbbae2b20929ce19b96ec632f5fc4644c",
        ),
        (
            "3",
            "9e13ef1a4b9c94076749f8b290d287d04d8e97d21d5bdbb2bea06ba4ab6169e0",
        ),
        (
            "4",
            "d8d9665d207c2e28df7e8561fbd1f55a9582116f63e037916dde57d23ffafbcc",
        ),
    ] {
        let actual = stdout_of(&["table", table, "--reps", "20", "--json"]);
        assert_eq!(
            sha256_hex(&actual),
            digest,
            "table {table} --reps 20 --json drifted"
        );
    }
}

/// A grid document over a shipped sweep file's base with other axes,
/// written to a directory of its own; returns (document path, output dir).
fn grid_file(tag: &str, base_file: &str, axes: &str) -> (String, String) {
    let text = std::fs::read_to_string(spec(base_file)).unwrap();
    let json = eacp_spec::Json::parse(&text).unwrap();
    let base = json.req("base").unwrap().pretty();
    let dir = std::env::temp_dir().join(format!("eacp-golden-grid-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid-spec.json");
    std::fs::write(&path, format!("{{\"base\": {base}, \"axes\": {axes}}}")).unwrap();
    let out = dir.join("out");
    (path.display().to_string(), out.display().to_string())
}

/// Pins a 32-point grid's `--out` document and `--emit-spec` output by
/// digest, for `cmd` (`sweep --spec` or `executive --sweep`).
fn assert_grid_pinned(cmd: &[&str], reps: &str, doc: &str, out: &str, digests: [&str; 2]) {
    let mut args = cmd.to_vec();
    args.extend([doc, "--reps", reps]);
    let mut emit = args.clone();
    emit.push("--emit-spec");
    args.extend(["--out", out]);
    stdout_of(&args);
    let grid = std::fs::read_to_string(std::path::Path::new(out).join("grid.json")).unwrap();
    assert_eq!(
        sha256_hex(&grid),
        digests[0],
        "{cmd:?} --out grid.json drifted"
    );
    assert_eq!(
        sha256_hex(&stdout_of(&emit)),
        digests[1],
        "{cmd:?} --emit-spec drifted"
    );
    std::fs::remove_dir_all(std::path::Path::new(doc).parent().unwrap()).unwrap();
}

/// A 32-point experiment grid over every experiment axis key:
/// `eacp sweep --spec D --reps 10 --out O` (`O/grid.json | sha256sum`)
/// and `... --emit-spec | sha256sum`, with D the base of
/// `specs/table1a-sweep.json` and the axes below.
#[test]
fn experiment_grid_over_every_axis_is_pinned_by_digest() {
    let (doc, out) = grid_file(
        "experiment",
        "table1a-sweep.json",
        r#"[{"utilization": [0.76, 0.8]}, {"lambda": [1e-3, 2e-3]}, {"k": [3, 5]},
            {"costs": [{"kind": "paper-scp"},
                       {"kind": "explicit", "store": 5, "compare": 17, "rollback": 0}]},
            {"seed": [1, 2]}]"#,
    );
    assert_grid_pinned(
        &["sweep", "--spec"],
        "10",
        &doc,
        &out,
        [
            "08e8990057f4314729c1b105de0ec8dbf48c1a359b67a879138dc69716565160",
            "4cf5b4bba6fcf615b3da22c242c08129659dd9a0b88b1dc04536d43187569f20",
        ],
    );
}

/// A 32-point executive grid over every executive axis key:
/// `eacp executive --sweep D --reps 4 --out O` and `... --emit-spec`,
/// with D the base of `specs/avionics-trio-sweep.json` and the axes below.
#[test]
fn executive_grid_over_every_axis_is_pinned_by_digest() {
    let (doc, out) = grid_file(
        "executive",
        "avionics-trio-sweep.json",
        r#"[{"hyperperiods": [1, 2]}, {"utilization": [0.5, 0.7]},
            {"lambda": [5e-4, 1e-3]}, {"k": [1, 2]}, {"seed": [1, 2]}]"#,
    );
    assert_grid_pinned(
        &["executive", "--sweep"],
        "4",
        &doc,
        &out,
        [
            "b6e2bd990a86a0c7a6f5f36237e9f4b7177eea97fb844eabcfa03c5c9aa61902",
            "0dd93c9c1f8b1af932a937e7c7c5949683ce7d4bfb10d7f593630a1d3615049b",
        ],
    );
}

/// Every parameter flag a kind applies, overriding a preset:
/// `eacp mc --preset table1-a --util 0.8 --lambda 2e-3 --k 3 --variant ccp
/// --seed 9 --deadline 9000 --emit-spec | sha256sum` and `eacp executive
/// --preset avionics-trio --lambda 2e-3 --k 2 --hyperperiods 3 --variant
/// ccp --seed 9 --speed 2 --emit-spec | sha256sum`.
#[test]
fn parameter_flag_overrides_are_pinned_by_digest() {
    for (args, digest) in [
        (
            &[
                "mc",
                "--preset",
                "table1-a",
                "--util",
                "0.8",
                "--lambda",
                "2e-3",
                "--k",
                "3",
                "--variant",
                "ccp",
                "--seed",
                "9",
                "--deadline",
                "9000",
                "--emit-spec",
            ][..],
            "bec1d81eaa97b92831a1adac8b4714d07a64e30d1f9f6e7aa9abbf5501599782",
        ),
        (
            &[
                "executive",
                "--preset",
                "avionics-trio",
                "--lambda",
                "2e-3",
                "--k",
                "2",
                "--hyperperiods",
                "3",
                "--variant",
                "ccp",
                "--seed",
                "9",
                "--speed",
                "2",
                "--emit-spec",
            ][..],
            "bb8872c9f6f3b34c16ac00063e18bd55c1746a31d2804976a1f4da131b1e7e22",
        ),
    ] {
        assert_eq!(sha256_hex(&stdout_of(args)), digest, "{args:?} drifted");
    }
}

/// The ablation documents, pinned by the digests of `eacp sweep --spec
/// specs/ablation-K.json --emit-spec`: the whole output (`| sha256sum`),
/// and the output without its `name` lines (`| grep -v '^    "name": ' |
/// sed '${/^$/d}' | sha256sum`, which also drops the final empty line).
/// The second digest is the one the retired ablation binary's spec
/// output had at its defaults (2,000 replications, seed 77): the documents
/// reproduce its points, names aside. Point names are distinct within each
/// document.
#[test]
fn ablation_documents_are_pinned_by_digest() {
    for (kind, full, unnamed) in [
        (
            "store-compare-ratio",
            "4f6250d1419a6c5803f67fd6727712a03bb946509fd26b31560b1931dd4963c7",
            "7cb8d4151d7e7cf789cfd955aca374e62b2907d10e286664f8cb41e6c584e298",
        ),
        (
            "lambda",
            "e02395f96e6fb394db3bd8e066ceb2293f5340ce54a79688783cc1a7fb9c54ba",
            "10f7d64b551465b7e23f4f583e099d1505e58fba9a877ec8e7cfc6261829918a",
        ),
        (
            "optimizer",
            "09413ebf9a083c5cc8b9a1c2e6826519cbc76d7ad9769af0f36ca99ce98e304c",
            "142c77604fe3594a765a8903be46e2eef89d37a9106eff647244b3fe8221f7b9",
        ),
        (
            "no-dvs",
            "1ba307966ecafed032361af0a0e38dc3c160ade9dee5cc9b684eb76f5622dd3f",
            "e129bca0d857b43f948055068c8cc0aa26d4b95fb7fd2fbdee54ca91f7284cb5",
        ),
    ] {
        let doc = spec(&format!("ablation-{kind}.json"));
        let out = stdout_of(&["sweep", "--spec", &doc, "--emit-spec"]);
        assert_eq!(sha256_hex(&out), full, "{kind}: emitted points drifted");
        let (names, rest): (Vec<&str>, Vec<&str>) = out
            .trim_end()
            .lines()
            .partition(|line| line.starts_with("    \"name\": "));
        let unnamed_text: String = rest.iter().map(|line| format!("{line}\n")).collect();
        assert_eq!(sha256_hex(&unnamed_text), unnamed, "{kind}: points drifted");
        let mut distinct = names.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), names.len(), "{kind}: point names collide");
    }
}

/// Path of a committed golden artifact under `tests/golden/`.
fn golden(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, as (path relative to `dir`, bytes), sorted.
fn files_under(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}

/// A `points` axis that lists one point twice expands to two equal cells
/// under one store key. A cold store computes the cell once and serves
/// the repeat, and every run prints the storeless report bytes:
/// `eacp sweep --spec D --reps 20 --json --no-cache | sha256sum`, with D
/// the base of `specs/table1a-sweep.json` and the axis below.
#[test]
fn a_repeated_grid_cell_is_computed_once_and_served_to_its_repeat() {
    let (doc, out) = grid_file(
        "repeat",
        "table1a-sweep.json",
        r#"[{"points": [{"utilization": 0.8, "k": 3, "seed_offset": 0},
                        {"utilization": 0.8, "k": 3, "seed_offset": 0}]}]"#,
    );
    let sweep = |extra: &[&str]| {
        let mut args = vec!["sweep", "--spec", &doc, "--reps", "20"];
        args.extend_from_slice(extra);
        stdout_of(&args)
    };
    let plain = sweep(&["--json", "--no-cache"]);
    assert_eq!(
        sha256_hex(&plain),
        "7b103983bd3ff46ca08acf88ed21cf9dcb3b8ea99e97ada533d2ff4784b5947d",
        "repeated-cell sweep --json drifted"
    );
    let (text_store, json_store) = (format!("{out}/text"), format!("{out}/json"));
    let cold = sweep(&["--store", &text_store]);
    assert!(cold.contains("store: 1 served, 1 computed"), "{cold}");
    let warm = sweep(&["--store", &text_store]);
    assert!(warm.contains("store: 2 served, 0 computed"), "{warm}");
    assert_eq!(sweep(&["--store", &json_store, "--json"]), plain, "cold");
    assert_eq!(sweep(&["--store", &json_store, "--json"]), plain, "warm");
    let status = stdout_of(&["store", "status", "--store", &json_store]);
    assert!(status.contains("entries: 1 "), "{status}");
    std::fs::remove_dir_all(std::path::Path::new(&doc).parent().unwrap()).unwrap();
}

/// A store written by an earlier build, over the three cells of
/// `golden/store-grid.json`: an ordinary cell, a λ = 0 cell the analytic
/// tier served (its entry carries `"served"`), and a P = 0 cell whose
/// timely-energy statistics report as `null`. This build must serve all
/// three, prove them by recomputation, print the pinned report bytes
/// (`eacp sweep --spec golden/store-grid.json --json`, also committed as
/// `golden/store-grid-sweep.json`), and write the same entry bytes into a
/// fresh store. A one-byte drift in the entry writer fails here, as it
/// would fail `eacp store verify` on every existing store.
#[test]
fn a_store_written_by_an_earlier_build_is_served_verified_and_rerecorded() {
    let fixture = std::path::PathBuf::from(golden("store"));
    let grid = golden("store-grid.json");
    let dir = std::env::temp_dir().join(format!("eacp-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let served = dir.join("served");
    for (rel, bytes) in files_under(&fixture) {
        let path = served.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
    let served = served.display().to_string();

    let text = stdout_of(&["sweep", "--spec", &grid, "--store", &served]);
    assert!(text.contains("store: 3 served, 0 computed"), "{text}");
    let json = stdout_of(&["sweep", "--spec", &grid, "--store", &served, "--json"]);
    assert_golden(
        &json,
        &std::fs::read_to_string(golden("store-grid-sweep.json")).unwrap(),
        "sweep --spec golden/store-grid.json --json, served",
    );
    assert_eq!(
        sha256_hex(&json),
        "fe654afd0b7ce1e7b398a2ba60e285d9b659fbd6ce60c1505f2c6aff6ed583ae",
        "served sweep --json drifted"
    );
    let verified = stdout_of(&["store", "verify", "--store", &served]);
    assert!(verified.contains("verified 3 of 3 entries"), "{verified}");
    assert_eq!(
        files_under(std::path::Path::new(&served)),
        files_under(&fixture)
    );

    let fresh = dir.join("fresh").display().to_string();
    let text = stdout_of(&["sweep", "--spec", &grid, "--store", &fresh]);
    assert!(text.contains("store: 0 served, 3 computed"), "{text}");
    let fresh_cells = std::path::Path::new(&fresh).join("cells");
    assert_eq!(
        files_under(&fresh_cells),
        files_under(&fixture.join("cells"))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
