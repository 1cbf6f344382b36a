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
