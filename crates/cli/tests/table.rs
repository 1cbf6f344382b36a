//! `eacp table` runs its two committed part documents on the grid path
//! `eacp sweep` uses — store, analytic tier and runner placement — so the
//! cache, scheduling and output flags that `eacp sweep` honours apply to
//! tables too, and none of them moves a summary bit.

use eacp_cli::dispatch;
use eacp_spec::{
    CostsSpec, DvsSpec, ExecSpec, ExperimentSpec, FaultSpec, Json, McSpec, PolicySpec, QueueSpec,
    ScenarioSpec, ToJson, WorkSpec, PAPER_DEADLINE,
};

fn eacp(args: &[&str]) -> Result<String, String> {
    dispatch(args.iter().map(|s| (*s).to_owned()).collect())
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eacp-table-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `eacp table 2 --reps 20 --json` plus `extra` flags.
fn table2(extra: &[&str]) -> String {
    let mut args = vec!["table", "2", "--reps", "20", "--json"];
    args.extend_from_slice(extra);
    eacp(&args).unwrap_or_else(|e| panic!("table 2 {extra:?}: {e}"))
}

/// Every scheme's `(spec, summary)` in table order.
fn schemes(report: &str) -> Vec<(Json, Json)> {
    let doc = Json::parse(report).unwrap();
    let mut out = Vec::new();
    for cell in doc.req("cells").unwrap().as_array().unwrap() {
        for s in cell.req("schemes").unwrap().as_array().unwrap() {
            out.push((
                s.req("spec").unwrap().clone(),
                s.req("summary").unwrap().clone(),
            ));
        }
    }
    out
}

#[test]
fn table_store_and_tier_flags_give_identical_bytes() {
    let plain = table2(&["--no-cache"]);
    let dir = scratch("store");
    let store = dir.to_str().unwrap();
    let cold = table2(&["--store", store]);
    let warm = table2(&["--store", store]);
    assert_eq!(cold, plain, "cold store run differs from the plain run");
    assert_eq!(warm, plain, "warm store run differs from the plain run");
    // Twelve rows × four schemes were recorded...
    let status = eacp(&["store", "status", "--store", store]).unwrap();
    assert!(status.contains("entries: 48 "), "{status}");
    // ...under the same keys `mc` uses: a table cell's spec is a hit there.
    let (first_spec, _) = &schemes(&plain)[0];
    let spec_path = dir.join("cell.json");
    std::fs::write(&spec_path, first_spec.pretty()).unwrap();
    let mc = eacp(&[
        "mc",
        "--spec",
        spec_path.to_str().unwrap(),
        "--store",
        store,
    ])
    .unwrap();
    assert!(mc.contains("store: hit"), "{mc}");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(table2(&["--no-cache", "--no-analytic"]), plain);
    assert_eq!(table2(&["--no-cache", "--threads", "1"]), plain);
}

#[test]
fn table_text_tallies_what_the_store_served_and_computed() {
    let dir = scratch("tally");
    let store = dir.to_str().unwrap();
    let run = || eacp(&["table", "2", "--reps", "20", "--store", store]).unwrap();
    // 32 cells in part a, 16 in part b.
    let cold = run();
    assert!(cold.ends_with("store: 0 served, 48 computed\n"), "{cold}");
    let warm = run();
    assert!(warm.ends_with("store: 48 served, 0 computed\n"), "{warm}");
    // The table itself is the same either way.
    let table = |text: &str| text.lines().count();
    assert_eq!(table(&cold), table(&warm));
    assert_eq!(
        cold.replace("0 served, 48 computed", ""),
        warm.replace("48 served, 0 computed", "")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_cell_specs_reproduce_through_mc() {
    // Each embedded spec is a complete document: read back by `mc --spec`,
    // it reports the summary the table printed for it.
    let dir = scratch("specs");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (spec, summary)) in schemes(&table2(&["--no-cache"])).iter().take(4).enumerate() {
        let path = dir.join(format!("cell{i}.json"));
        std::fs::write(&path, spec.pretty()).unwrap();
        let path = path.to_str().unwrap();
        let report = eacp(&["mc", "--spec", path, "--json", "--no-cache"]).unwrap();
        let report = Json::parse(&report).unwrap();
        assert_eq!(report.req("spec").unwrap(), spec);
        assert_eq!(report.req("summary").unwrap(), summary);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_table_summaries_equal_the_plain_run() {
    let plain = schemes(&table2(&["--no-cache"]));
    let queued = schemes(&table2(&["--no-cache", "--queue", "--workers", "3"]));
    assert_eq!(plain.len(), 12 * 4);
    assert_eq!(queued.len(), plain.len());
    for ((_, want), (spec, got)) in plain.iter().zip(&queued) {
        assert_eq!(got, want, "{}", spec.req("name").unwrap().as_str().unwrap());
        // The scheduling choice is recorded in each cell's spec, as
        // `mc --queue` records it.
        let workers = spec
            .req("executor")
            .and_then(|e| e.req("queue"))
            .and_then(|q| q.req("workers"))
            .and_then(|w| w.as_u64())
            .unwrap();
        assert_eq!(workers, 3);
    }
}

#[test]
fn table_out_writes_text_markdown_and_csv() {
    let dir = scratch("out");
    let out = dir.to_str().unwrap();
    let note = eacp(&["table", "4", "--reps", "20", "--no-cache", "--out", out]).unwrap();
    assert!(note.starts_with("wrote "), "{note}");
    assert!(note.contains("shape: "), "{note}");
    let text = eacp(&["table", "4", "--reps", "20", "--no-cache"]).unwrap();
    assert!(text.starts_with("Table 4 — A_D_C variant"), "{text}");
    assert!(text.contains("Table 4 vs paper"), "{text}");
    assert!(text.contains(" criteria passed, "), "{text}");
    let read = |ext: &str| std::fs::read_to_string(dir.join(format!("table4.{ext}"))).unwrap();
    assert_eq!(read("txt"), text);
    assert!(read("md").starts_with("### Table 4"));
    assert_eq!(read("csv").lines().count(), 12 * 4 + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_rejects_flags_that_would_reshape_its_cells() {
    // Each of these used to be accepted and silently ignored.
    for (flag, value) in [
        ("--scheme", "poisson"),
        ("--util", "0.5"),
        ("--lambda", "0.5"),
        ("--k", "3"),
        ("--deadline", "5000"),
        ("--variant", "ccp"),
        ("--spec", "cell.json"),
        ("--preset", "table1-a"),
        ("--shard", "0/2"),
        ("--sweep", "grid.json"),
    ] {
        let err = eacp(&["table", "1", "--reps", "20", flag, value]).expect_err(flag);
        assert!(err.starts_with(&format!("table: {flag} ")), "{flag}: {err}");
    }
    // The reported case: nothing runs, and no store is created.
    let dir = scratch("rejected");
    let store = dir.to_str().unwrap();
    let err = eacp(&[
        "table",
        "1",
        "--reps",
        "20",
        "--json",
        "--store",
        store,
        "--scheme",
        "poisson",
        "--lambda",
        "0.5",
        "--queue",
        "--workers",
        "2",
    ])
    .unwrap_err();
    assert!(err.contains("--scheme"), "{err}");
    assert!(!dir.exists());
}

/// What sets each of the paper's tables apart, transcribed from the paper
/// rather than read off the committed documents: the checkpoint cost
/// variant, the DVS level the static baselines are pinned to, the speed
/// the utilization is quoted at, and the proposed scheme's tag.
const TABLE_PARAMETERS: [(CostsSpec, usize, f64, &str); 4] = [
    (CostsSpec::PaperScp, 0, 1.0, "a_d_s"),
    (CostsSpec::PaperScp, 1, 2.0, "a_d_s"),
    (CostsSpec::PaperCcp, 0, 1.0, "a_d_c"),
    (CostsSpec::PaperCcp, 1, 2.0, "a_d_c"),
];

/// One cell of Table `table` (1-based): the scheme tagged `tag` at `(U,
/// λ, k)`, with the baselines pinned to the table's baseline speed and
/// the task scaled by its utilization speed, on the paper's executor.
fn table_cell(table: u32, u: f64, lambda: f64, k: u32, tag: &str) -> ExperimentSpec {
    let (costs, baseline_speed, util_speed, _) = TABLE_PARAMETERS[table as usize - 1];
    let policy = match tag {
        "poisson" => PolicySpec::Poisson {
            lambda,
            speed: baseline_speed,
        },
        "kft" => PolicySpec::KFaultTolerant {
            k,
            speed: baseline_speed,
        },
        _ => PolicySpec::from_tag(tag, lambda, k, 0).unwrap(),
    };
    ExperimentSpec {
        name: String::new(),
        scenario: ScenarioSpec {
            work: WorkSpec::Utilization {
                utilization: u,
                speed: util_speed,
                deadline: PAPER_DEADLINE,
            },
            costs,
            dvs: DvsSpec::PaperDefault,
            processors: 2,
        },
        faults: FaultSpec::Poisson { lambda },
        policy,
        mc: McSpec::default(),
        executor: ExecSpec::paper(),
    }
}

/// Every scheme of every row of Table `table`, as [`table_cell`]
/// describes it, named and seeded as the table runs it: row `i` (part (a)
/// first) is seeded `seed + i` for all four schemes.
fn table_cells(table: u32, reps: u64, seed: u64, queue: Option<&QueueSpec>) -> Vec<Json> {
    let (_, baseline_speed, _, proposed) = TABLE_PARAMETERS[table as usize - 1];
    let f1_baselines = baseline_speed == 0;
    let part_b_us: &[f64] = if f1_baselines {
        &[0.92, 0.95, 1.00]
    } else {
        &[0.92, 0.95]
    };
    let parts = [
        ("a", 5, &[0.76, 0.78, 0.80, 0.82][..], [1.4e-3, 1.6e-3]),
        ("b", 1, part_b_us, [1.0e-4, 2.0e-4]),
    ];
    let mut cells = Vec::new();
    let mut row = 0;
    for (part, k, us, lambdas) in parts {
        for &u in us {
            for lambda in lambdas {
                for scheme in ["poisson", "kft", "a_d", proposed] {
                    let mut spec = table_cell(table, u, lambda, k, scheme);
                    spec.name = format!(
                        "table{table}{part}-u{u}-l{lambda}-k{k}-{}",
                        spec.policy.tag()
                    );
                    spec.mc = McSpec {
                        replications: reps,
                        seed: seed + row,
                        threads: 0,
                    };
                    spec.executor.queue = queue.cloned();
                    cells.push(spec.to_json());
                }
                row += 1;
            }
        }
    }
    cells
}

#[test]
fn table_emit_spec_is_the_paper_cells() {
    // `--emit-spec` prints the cells of the committed part documents
    // (`specs/tableNa.json`, `specs/tableNb.json`), as `sweep --emit-spec`
    // prints a grid's: `--reps` and `--seed` applied, `--queue` recorded.
    for table in 1..=4 {
        let n = table.to_string();
        let emitted = eacp(&["table", &n, "--reps", "20", "--seed", "5", "--emit-spec"]).unwrap();
        assert_eq!(
            emitted,
            Json::Array(table_cells(table, 20, 5, None)).pretty(),
            "table {table}"
        );
    }
    let queue = QueueSpec {
        workers: 2,
        ..Default::default()
    };
    let emitted = eacp(&["table", "2", "--emit-spec", "--queue", "--workers", "2"]).unwrap();
    assert_eq!(
        emitted,
        Json::Array(table_cells(2, 2_000, 2006, Some(&queue))).pretty()
    );
}

#[test]
fn table_part_documents_run_through_sweep() {
    // The committed part documents are ordinary grids: `sweep --spec`
    // reports the cells `table --json` prints, in row order.
    let spec = |name: &str| format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let table = schemes(&table2(&["--no-cache"]));
    let mut swept = Vec::new();
    for part in ["table2a.json", "table2b.json"] {
        let out = eacp(&["sweep", "--spec", &spec(part), "--reps", "20", "--json"]).unwrap();
        for report in Json::parse(&out).unwrap().as_array().unwrap() {
            swept.push((
                report.req("spec").unwrap().clone(),
                report.req("summary").unwrap().clone(),
            ));
        }
    }
    assert_eq!(swept.len(), table.len());
    for ((spec, summary), (want_spec, want_summary)) in swept.iter().zip(&table) {
        assert_eq!(spec.pretty(), want_spec.pretty());
        assert_eq!(summary.pretty(), want_summary.pretty());
    }
}

/// The `paper_p` column of every data row of `eacp csv DIR`.
fn csv_paper_p(dir: &std::path::Path) -> Vec<String> {
    let csv = eacp(&["csv", dir.to_str().unwrap()]).unwrap();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let column = header.iter().position(|c| *c == "paper_p").unwrap();
    lines
        .map(|line| line.split(',').nth(column).unwrap().to_owned())
        .collect()
}

#[test]
fn csv_gives_paper_values_exactly_to_cells_of_the_paper_tables() {
    // A report carries the paper's P/E when its cell address is a table
    // cell's, and only then: ablation points that share a table cell's
    // operating point but not its executor or optimizer get none.
    let spec = |name: &str| format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let dir = scratch("csv-identity");
    let swept = |doc: &str| {
        let out = dir.join(doc);
        let args = ["sweep", "--spec", &spec(doc), "--reps", "20", "--out"];
        eacp(&[&args[..], &[out.to_str().unwrap()]].concat()).unwrap();
        csv_paper_p(&out)
    };
    for doc in [
        "ablation-no-dvs.json",
        "ablation-lambda.json",
        "ablation-optimizer.json",
    ] {
        let paper_p = swept(doc);
        assert!(!paper_p.is_empty(), "{doc}");
        assert!(paper_p.iter().all(String::is_empty), "{doc}: {paper_p:?}");
    }
    let paper_p = swept("table1a-sweep.json");
    assert_eq!(paper_p.len(), 8);
    assert!(paper_p.iter().all(|p| !p.is_empty()), "{paper_p:?}");

    // A loose report of a table preset is a table cell too.
    let loose = dir.join("loose");
    std::fs::create_dir_all(&loose).unwrap();
    let report = eacp(&["mc", "--preset", "table2-b", "--reps", "20", "--json"]).unwrap();
    std::fs::write(loose.join("table2-b.json"), report).unwrap();
    assert_eq!(csv_paper_p(&loose), ["0.7776"]);
    std::fs::remove_dir_all(&dir).unwrap();

    // The 208 table cells have 208 distinct addresses.
    let addresses: std::collections::BTreeSet<_> = eacp_experiments::paper::cells()
        .map(|(spec, _)| eacp_store::spec_hash(&spec))
        .collect();
    assert_eq!(addresses.len(), 208);
}
