//! Property and fuzz tests of the workspace's JSON codec.
//!
//! * `Json::parse` never panics: not on arbitrary bytes, not on random
//!   single-byte mutations or truncations of real spec, sweep and report
//!   texts, not on nesting past the depth cap. Neither do the spec
//!   decoders fed whatever a mutated text still parses to.
//! * `parse(pretty(doc)) == doc` (bit-for-bit on floats, NaN reading back
//!   as `null`), and `pretty` is idempotent.
//! * The in-place writer is byte-identical to the `format!`-based renderer
//!   it replaced, kept below as [`reference_pretty`]: for any tree, and for
//!   the text every serialized type writes without one, which also reads
//!   back to the value that wrote it.
//! * A key repeated within one object is a parse error naming the key,
//!   line and column, found without a quadratic scan however many keys an
//!   object has.
//! * `JsonReader` decodes `OnlineStats`, `Summary`, `ExecutiveSummary` and
//!   `CellEntry` (all three payloads, both serve tiers) from text and from
//!   a tree to the same value, bit for bit, as the tree decoders it
//!   replaced (kept below as `ref_*`), whatever the member order, unknown
//!   members or key escapes; on hostile documents — repeated keys, known
//!   or unknown, missing members, wrong types, truncation, trailing bytes,
//!   nesting past the cap — both sources give the error text that parsing
//!   and then tree-decoding gives.
//! * The store's canonical cell-spec text, written by the text sink's
//!   member filter, is the stripped tree's pretty text, kept below as
//!   `reference_cell_spec_text`.

use eacp_exec::{ExecutiveSummary, TaskAggregate};
use eacp_numerics::OnlineStats;
use eacp_sim::{RunOutcome, Summary};
use eacp_spec::json::MAX_DEPTH;
use eacp_spec::{
    CheckpointTotals, ExecutiveMcSpec, ExecutiveRunReport, ExecutiveSpec, ExecutiveSweepSpec,
    ExperimentSpec, FromJson, Json, JsonReader, PolicyAssignment, QueueSpec, RunReport, ServeTier,
    SpecError, StatsReport, SummaryReport, SweepSpec, ToJson,
};
use eacp_store::{CellEntry, CellId, CellPayload, SpecHash, StoreCell};
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;

// ---------------------------------------------------------------------------
// The renderer the in-place writer replaced, kept as the oracle.

fn reference_pretty(doc: &Json) -> String {
    let mut out = String::new();
    reference_write(doc, &mut out, 0);
    out.push('\n');
    out
}

fn reference_write(doc: &Json, out: &mut String, indent: usize) {
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Float(x) => out.push_str(&reference_float(*x)),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Str(s) => reference_string(out, s),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                reference_indent(out, indent + 1);
                reference_write(item, out, indent + 1);
            }
            out.push('\n');
            reference_indent(out, indent);
            out.push(']');
        }
        Json::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                reference_indent(out, indent + 1);
                reference_string(out, k);
                out.push_str(": ");
                reference_write(v, out, indent + 1);
            }
            out.push('\n');
            reference_indent(out, indent);
            out.push('}');
        }
    }
}

fn reference_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn reference_float(x: f64) -> String {
    if x.is_nan() {
        "null".to_owned()
    } else if x.is_infinite() {
        if x > 0.0 { "1e999" } else { "-1e999" }.to_owned()
    } else {
        format!("{x:?}")
    }
}

fn reference_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Generated documents.

fn below(rng: &mut TestRng, n: u64) -> u64 {
    (0..n).sample(rng)
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[below(rng, items.len() as u64) as usize]
}

fn float(rng: &mut TestRng) -> f64 {
    const SPECIAL: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.4e-3,
        1e308,
        -1e308,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        f64::NAN,
        f64::INFINITY,
    ];
    match below(rng, 4) {
        0 => pick(rng, &SPECIAL),
        // Any bit pattern: subnormals, huge and tiny exponents, NaNs.
        1 => f64::from_bits(rng.gen::<u64>()),
        2 => (below(rng, 2_000_001) as f64 - 1e6) / 8.0,
        _ => rng.gen::<f64>() * 10f64.powi(below(rng, 40) as i32 - 20),
    }
}

fn int(rng: &mut TestRng) -> i128 {
    const SPECIAL: [i128; 10] = [
        0,
        -1,
        1,
        i64::MAX as i128,
        i64::MIN as i128,
        i64::MAX as i128 + 1,
        i64::MIN as i128 - 1,
        u64::MAX as i128,
        i128::MAX,
        i128::MIN,
    ];
    match below(rng, 3) {
        0 => pick(rng, &SPECIAL),
        1 => rng.gen::<u64>() as i64 as i128,
        _ => ((rng.gen::<u64>() as i128) << 64 | rng.gen::<u64>() as i128) >> below(rng, 127),
    }
}

fn string(rng: &mut TestRng) -> String {
    const CHARS: [char; 16] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'λ', '≈',
        '⁻', '🛰',
    ];
    (0..below(rng, 12))
        .map(|_| match below(rng, 3) {
            0 => pick(rng, &CHARS),
            1 => char::from_u32(below(rng, 0x80) as u32).unwrap(),
            _ => char::from_u32(below(rng, 0x11_0000) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn doc(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 5 } else { 8 };
    match below(rng, kinds) {
        0 => Json::Null,
        1 => Json::Bool(below(rng, 2) == 1),
        2 => Json::Float(float(rng)),
        3 => Json::Int(int(rng)),
        4 => Json::Str(string(rng)),
        5 | 6 => Json::Array((0..below(rng, 5)).map(|_| doc(rng, depth - 1)).collect()),
        _ => {
            let mut fields: Vec<(String, Json)> = Vec::new();
            for _ in 0..below(rng, 5) {
                let (key, value) = (string(rng), doc(rng, depth - 1));
                // A repeated key does not parse, so an object keeps the
                // first of each.
                if fields.iter().all(|(k, _)| *k != key) {
                    fields.push((key, value));
                }
            }
            Json::Object(fields)
        }
    }
}

/// Random documents up to `depth` levels of arrays/objects.
struct Docs(u32);

impl Strategy for Docs {
    type Value = Json;
    fn sample(&self, rng: &mut TestRng) -> Json {
        doc(rng, self.0)
    }
}

/// A strategy drawing values with a generator function.
struct With<F>(F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for With<F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// A count: small, or one of the extremes.
fn count(rng: &mut TestRng) -> u64 {
    match below(rng, 4) {
        0 => u64::MAX,
        1 => 0,
        2 => rng.gen(),
        _ => below(rng, 1_000),
    }
}

/// A float that reads back bit for bit (no NaN: a spec field holding NaN
/// would not compare equal to itself).
fn finite_or_infinite(rng: &mut TestRng) -> f64 {
    let x = float(rng);
    if x.is_nan() {
        f64::NEG_INFINITY
    } else {
        x
    }
}

fn experiment_spec(rng: &mut TestRng) -> ExperimentSpec {
    let names = eacp_spec::preset_names();
    let mut spec = eacp_spec::preset(pick(rng, &names)).unwrap();
    spec.name = string(rng);
    spec.mc.replications = count(rng);
    spec.mc.seed = count(rng);
    if let eacp_spec::FaultSpec::Poisson { lambda } = &mut spec.faults {
        *lambda = finite_or_infinite(rng);
    }
    if below(rng, 2) == 0 {
        spec.executor.queue = Some(QueueSpec {
            endpoints: (0..below(rng, 3)).map(|_| string(rng)).collect(),
            timeout_ms: count(rng),
            ..QueueSpec::default()
        });
    }
    spec
}

fn executive_spec(rng: &mut TestRng) -> ExecutiveSpec {
    let names = eacp_spec::executive_preset_names();
    let mut spec = eacp_spec::executive_preset(pick(rng, &names)).unwrap();
    spec.name = string(rng);
    for task in &mut spec.tasks.tasks {
        task.name = string(rng);
        task.wcet = finite_or_infinite(rng);
        task.deadline = count(rng);
    }
    spec.speed = finite_or_infinite(rng);
    spec.seed = count(rng);
    if let PolicyAssignment::Shared(p) = spec.policy {
        if below(rng, 2) == 0 {
            spec.policy = PolicyAssignment::PerTask(vec![p; spec.tasks.tasks.len()]);
        }
    }
    spec.mc = match below(rng, 3) {
        0 => None,
        1 => Some(ExecutiveMcSpec::default()),
        _ => Some(ExecutiveMcSpec {
            replications: count(rng),
            threads: below(rng, 8) as usize,
            queue: Some(QueueSpec::default()),
        }),
    };
    spec
}

fn stats(rng: &mut TestRng) -> OnlineStats {
    OnlineStats::from_raw_parts(count(rng), float(rng), float(rng), float(rng), float(rng))
}

fn summary(rng: &mut TestRng) -> Summary {
    Summary {
        replications: count(rng),
        timely: count(rng),
        completed: count(rng),
        aborted: count(rng),
        anomalies: count(rng),
        energy_timely: stats(rng),
        energy_all: stats(rng),
        finish_timely: stats(rng),
        faults: stats(rng),
        rollbacks: stats(rng),
        checkpoints: stats(rng),
        fast_fraction: stats(rng),
    }
}

fn stats_report(rng: &mut TestRng) -> StatsReport {
    StatsReport {
        count: count(rng),
        mean: float(rng),
        variance: float(rng),
        min: float(rng),
        max: float(rng),
    }
}

fn summary_report(rng: &mut TestRng) -> SummaryReport {
    SummaryReport {
        replications: count(rng),
        timely: count(rng),
        completed: count(rng),
        aborted: count(rng),
        anomalies: count(rng),
        p_timely: float(rng),
        p_timely_ci95: (float(rng), float(rng)),
        energy_timely: stats_report(rng),
        energy_all: stats_report(rng),
        finish_timely: stats_report(rng),
        faults: stats_report(rng),
        rollbacks: stats_report(rng),
        checkpoints: stats_report(rng),
        fast_fraction: stats_report(rng),
    }
}

fn tier(rng: &mut TestRng) -> ServeTier {
    pick(rng, &[ServeTier::Mc, ServeTier::Analytic])
}

fn run_report(rng: &mut TestRng) -> RunReport {
    RunReport {
        spec: experiment_spec(rng),
        policy_name: string(rng),
        summary: summary_report(rng),
        served: tier(rng),
        source: None,
    }
}

fn outcome(rng: &mut TestRng) -> RunOutcome {
    RunOutcome {
        completed: below(rng, 2) == 0,
        timely: below(rng, 2) == 0,
        finish_time: float(rng),
        energy: float(rng),
        faults: rng.gen(),
        rollbacks: rng.gen(),
        store_checkpoints: rng.gen(),
        compare_checkpoints: rng.gen(),
        compare_store_checkpoints: rng.gen(),
        segments: u32::MAX,
        speed_switches: count(rng),
        cycles_at_fastest: float(rng),
        total_cycles: float(rng),
        aborted: below(rng, 2) == 0,
        anomaly: None,
    }
}

fn executive_summary(rng: &mut TestRng) -> ExecutiveSummary {
    // Checkpoint counts stay small: their document carries their sum.
    let small = |rng: &mut TestRng| below(rng, 1 << 40);
    ExecutiveSummary {
        horizons: count(rng),
        jobs: count(rng),
        deadline_misses: count(rng),
        faults: count(rng),
        rollbacks: count(rng),
        checkpoints: CheckpointTotals {
            store: small(rng),
            compare: small(rng),
            compare_store: small(rng),
        },
        total_energy: float(rng),
        miss_ratio: stats(rng),
        energy: stats(rng),
        horizon_faults: stats(rng),
        horizon_rollbacks: stats(rng),
        per_task: (0..below(rng, 4))
            .map(|_| TaskAggregate {
                jobs: count(rng),
                deadline_misses: count(rng),
                faults: count(rng),
                rollbacks: count(rng),
                energy: float(rng),
                worst_response: float(rng),
            })
            .collect(),
    }
}

/// An entry of any payload and tier, embedding a canonical spec text of
/// its payload's kind.
fn cell_entry(rng: &mut TestRng) -> CellEntry {
    let mut hash = [0u8; 32];
    hash.iter_mut().for_each(|b| *b = below(rng, 256) as u8);
    let (spec, payload) = match below(rng, 3) {
        0 => (
            experiment_spec(rng).cell_spec_text(),
            CellPayload::Summary(summary(rng)),
        ),
        1 => (
            experiment_spec(rng).cell_spec_text(),
            CellPayload::Outcome(outcome(rng)),
        ),
        _ => (
            executive_spec(rng).cell_spec_text(),
            CellPayload::Executive(executive_summary(rng)),
        ),
    };
    CellEntry {
        cell: CellId {
            spec_hash: SpecHash(hash),
            seed: count(rng),
            replications: count(rng),
        },
        policy: string(rng),
        spec,
        payload,
        served: tier(rng),
        source: None,
    }
}

/// What every serialized type must do: its text is the reference
/// rendering of its tree, and reads back to a value that writes the same
/// tree, floats compared bit for bit (NaN as `null`).
fn writes_its_tree_and_reads_back<T: ToJson + FromJson>(x: &T) -> T {
    let text = x.to_json_string();
    let tree = x.to_json();
    assert_eq!(text, reference_pretty(&tree));
    let back = T::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert!(
        identical(&written(&back.to_json()), &written(&tree)),
        "{text} read back differently"
    );
    assert_eq!(back.to_json_string(), text);
    back
}

/// `doc` as it reads back: NaN is written as `null`.
fn written(doc: &Json) -> Json {
    match doc {
        Json::Float(x) if x.is_nan() => Json::Null,
        Json::Array(items) => Json::Array(items.iter().map(written).collect()),
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), written(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Structural equality with floats compared bit for bit (`-0.0 != 0.0`).
fn identical(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Float(x), Json::Float(y)) => x.to_bits() == y.to_bits(),
        (Json::Array(xs), Json::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| identical(x, y))
        }
        (Json::Object(xs), Json::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && identical(x, y))
        }
        _ => a == b,
    }
}

// ---------------------------------------------------------------------------
// The tree decoders `JsonReader` replaced, kept as the oracle.

fn ref_stats(json: &Json) -> Result<OnlineStats, SpecError> {
    Ok(OnlineStats::from_raw_parts(
        json.req("count")?.as_u64()?,
        json.req("mean")?.as_f64()?,
        json.req("m2")?.as_f64()?,
        json.req("min")?.as_f64()?,
        json.req("max")?.as_f64()?,
    ))
}

fn ref_summary(json: &Json) -> Result<Summary, SpecError> {
    Ok(Summary {
        replications: json.req("replications")?.as_u64()?,
        timely: json.req("timely")?.as_u64()?,
        completed: json.req("completed")?.as_u64()?,
        aborted: json.req("aborted")?.as_u64()?,
        anomalies: json.req("anomalies")?.as_u64()?,
        energy_timely: ref_stats(json.req("energy_timely")?)?,
        energy_all: ref_stats(json.req("energy_all")?)?,
        finish_timely: ref_stats(json.req("finish_timely")?)?,
        faults: ref_stats(json.req("faults")?)?,
        rollbacks: ref_stats(json.req("rollbacks")?)?,
        checkpoints: ref_stats(json.req("checkpoints")?)?,
        fast_fraction: ref_stats(json.req("fast_fraction")?)?,
    })
}

fn ref_task(json: &Json) -> Result<TaskAggregate, SpecError> {
    Ok(TaskAggregate {
        jobs: json.req("jobs")?.as_u64()?,
        deadline_misses: json.req("deadline_misses")?.as_u64()?,
        faults: json.req("faults")?.as_u64()?,
        rollbacks: json.req("rollbacks")?.as_u64()?,
        energy: json.req("energy")?.as_f64()?,
        worst_response: json.req("worst_response")?.as_f64()?,
    })
}

fn ref_checkpoints(json: &Json) -> Result<CheckpointTotals, SpecError> {
    Ok(CheckpointTotals {
        store: json.req("store")?.as_u64()?,
        compare: json.req("compare")?.as_u64()?,
        compare_store: json.req("compare_store")?.as_u64()?,
    })
}

fn ref_executive(json: &Json) -> Result<ExecutiveSummary, SpecError> {
    Ok(ExecutiveSummary {
        horizons: json.req("horizons")?.as_u64()?,
        jobs: json.req("jobs")?.as_u64()?,
        deadline_misses: json.req("deadline_misses")?.as_u64()?,
        faults: json.req("faults")?.as_u64()?,
        rollbacks: json.req("rollbacks")?.as_u64()?,
        checkpoints: ref_checkpoints(json.req("checkpoints")?)?,
        total_energy: json.req("total_energy")?.as_f64()?,
        miss_ratio: ref_stats(json.req("miss_ratio")?)?,
        energy: ref_stats(json.req("energy")?)?,
        horizon_faults: ref_stats(json.req("horizon_faults")?)?,
        horizon_rollbacks: ref_stats(json.req("horizon_rollbacks")?)?,
        per_task: json
            .req("tasks")?
            .as_array()?
            .iter()
            .map(ref_task)
            .collect::<Result<_, _>>()?,
    })
}

fn ref_outcome(json: &Json) -> Result<RunOutcome, SpecError> {
    Ok(RunOutcome {
        completed: json.req("completed")?.as_bool()?,
        timely: json.req("timely")?.as_bool()?,
        finish_time: json.req("finish_time")?.as_f64()?,
        energy: json.req("energy")?.as_f64()?,
        faults: json.req("faults")?.as_u32()?,
        rollbacks: json.req("rollbacks")?.as_u32()?,
        store_checkpoints: json.req("store_checkpoints")?.as_u32()?,
        compare_checkpoints: json.req("compare_checkpoints")?.as_u32()?,
        compare_store_checkpoints: json.req("compare_store_checkpoints")?.as_u32()?,
        segments: json.req("segments")?.as_u32()?,
        speed_switches: json.req("speed_switches")?.as_u64()?,
        cycles_at_fastest: json.req("cycles_at_fastest")?.as_f64()?,
        total_cycles: json.req("total_cycles")?.as_f64()?,
        aborted: json.req("aborted")?.as_bool()?,
        anomaly: None,
    })
}

/// The entry decoder over a tree; the embedded spec document comes back
/// as its pretty text, which is what the reader keeps.
fn ref_entry(json: &Json) -> Result<CellEntry, SpecError> {
    let spec = json.req("spec").map(Json::pretty);
    let cell = CellId {
        spec_hash: SpecHash::from_hex(json.req("spec_hash")?.as_str()?)?,
        seed: json.req("seed")?.as_u64()?,
        replications: json.req("replications")?.as_u64()?,
    };
    let payload = match json.req("kind")?.as_str()? {
        "summary" => CellPayload::Summary(ref_summary(json.req("payload")?)?),
        "outcome" => CellPayload::Outcome(ref_outcome(json.req("payload")?)?),
        "executive" => CellPayload::Executive(ref_executive(json.req("payload")?)?),
        other => {
            return Err(SpecError::invalid(format!(
                "unknown cell payload kind {other:?} \
                 (expected summary, outcome or executive)"
            )))
        }
    };
    Ok(CellEntry {
        cell,
        policy: json.req("policy")?.as_str()?.to_owned(),
        spec: spec?,
        payload,
        served: match json.get("served") {
            None => ServeTier::Mc,
            Some(s) => ServeTier::parse(s.as_str()?)?,
        },
        source: None,
    })
}

/// The three decoders of `text` agree: the reader over the text, the
/// reader over its parsed tree (`from_json`), and parsing then the old
/// tree decoder — on the same value, floats bit for bit, or on the same
/// error text.
fn decoders_agree<T: FromJson + ToJson>(text: &str, reference: fn(&Json) -> Result<T, SpecError>) {
    let from_text = JsonReader::text(text).read::<T>();
    let from_tree = Json::parse(text).and_then(|tree| T::from_json(&tree));
    let oracle = Json::parse(text).and_then(|tree| reference(&tree));
    let show = |r: &Result<T, SpecError>| match r {
        Ok(x) => format!("ok {}", x.to_json_string()),
        Err(e) => format!("error {e}"),
    };
    let agree = match (&from_text, &from_tree, &oracle) {
        (Ok(a), Ok(b), Ok(c)) => {
            let (a, b, c) = (a.to_json(), b.to_json(), c.to_json());
            identical(&a, &c) && identical(&b, &c)
        }
        (Err(a), Err(b), Err(c)) => {
            a.to_string() == c.to_string() && b.to_string() == c.to_string()
        }
        _ => false,
    };
    assert!(
        agree,
        "text: {}\ntree: {}\nparse + old decoder: {}\nfor {text}",
        show(&from_text),
        show(&from_tree),
        show(&oracle)
    );
}

/// `doc` with the members of every object in a random order and, in some
/// objects, unknown members mixed in.
fn reordered(tree: &Json, rng: &mut TestRng) -> Json {
    match tree {
        Json::Object(fields) => {
            let mut fields: Vec<(String, Json)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), reordered(v, rng)))
                .collect();
            for i in 0..below(rng, 3) {
                fields.push((format!("unknown_{i}"), doc(rng, 2)));
            }
            for i in (1..fields.len()).rev() {
                fields.swap(i, below(rng, i as u64 + 1) as usize);
            }
            Json::Object(fields)
        }
        Json::Array(items) => Json::Array(items.iter().map(|v| reordered(v, rng)).collect()),
        other => other.clone(),
    }
}

/// `tree` as compact text whose keys spell some of their characters as
/// `\u` escapes (`"spec\u005fhash"`).
fn escaped_keys(tree: &Json, rng: &mut TestRng, out: &mut String) {
    match tree {
        Json::Object(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                for c in key.chars() {
                    let plain = c > '\u{1f}' && c != '"' && c != '\\';
                    if c > '\u{ffff}' || (plain && below(rng, 2) == 0) {
                        out.push(c);
                    } else {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                }
                out.push_str("\":");
                escaped_keys(value, rng, out);
            }
            out.push('}');
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escaped_keys(item, rng, out);
            }
            out.push(']');
        }
        scalar => out.push_str(scalar.pretty().trim_end()),
    }
}

/// A text of `tree` as another writer might spell it: the canonical
/// pretty text, or reordered with unknown members, or with escaped keys.
fn respelled(tree: &Json, rng: &mut TestRng) -> String {
    let tree = if below(rng, 2) == 0 {
        tree.clone()
    } else {
        reordered(tree, rng)
    };
    if below(rng, 2) == 0 {
        return tree.pretty();
    }
    let mut out = String::new();
    escaped_keys(&tree, rng, &mut out);
    out
}

/// How many objects `tree` holds.
fn objects(tree: &Json) -> usize {
    match tree {
        Json::Object(fields) => 1 + fields.iter().map(|(_, v)| objects(v)).sum::<usize>(),
        Json::Array(items) => items.iter().map(objects).sum(),
        _ => 0,
    }
}

/// The members of the `n`-th object of `tree`, in pre-order.
fn nth_object<'a>(tree: &'a mut Json, n: &mut usize) -> Option<&'a mut Vec<(String, Json)>> {
    match tree {
        Json::Object(fields) => {
            if *n == 0 {
                return Some(fields);
            }
            *n -= 1;
            for (_, value) in fields.iter_mut() {
                if let Some(found) = nth_object(value, n) {
                    return Some(found);
                }
            }
            None
        }
        Json::Array(items) => {
            for item in items.iter_mut() {
                if let Some(found) = nth_object(item, n) {
                    return Some(found);
                }
            }
            None
        }
        _ => None,
    }
}

/// A value of another JSON type than `value`.
fn retyped(value: &Json, rng: &mut TestRng) -> Json {
    let others: Vec<Json> = [
        Json::Str("8".into()),
        Json::Bool(true),
        Json::Array(vec![Json::Int(1)]),
        Json::Object(vec![("count".into(), Json::Int(1))]),
        Json::Int(-1),
        Json::Float(0.5),
        Json::Null,
    ]
    .into_iter()
    .filter(|other| other.type_name() != value.type_name())
    .collect();
    others[below(rng, others.len() as u64) as usize].clone()
}

/// `tree` damaged one to six times: a member repeated (a known one, or
/// an unknown one set twice), removed, retyped or nested past the depth
/// cap, then the text cut short or followed by stray bytes. Half the edits
/// land in the root object, so that several faults often meet in one
/// object and the order they are reported in shows.
fn hostile(tree: &Json, rng: &mut TestRng) -> String {
    let mut tree = tree.clone();
    let (mut cut, mut trailing) = (false, None);
    for _ in 0..1 + below(rng, 6) {
        let edit = below(rng, 7);
        let mut n = match below(rng, 2) {
            0 => 0,
            _ => below(rng, objects(&tree) as u64) as usize,
        };
        let Some(fields) = nth_object(&mut tree, &mut n) else {
            continue;
        };
        let at = |rng: &mut TestRng, len: usize| below(rng, len as u64) as usize;
        match edit {
            0 if !fields.is_empty() => {
                let member = fields[at(rng, fields.len())].clone();
                let to = at(rng, fields.len() + 1);
                fields.insert(to, member);
            }
            1 => {
                for _ in 0..2 {
                    let to = at(rng, fields.len() + 1);
                    fields.insert(to, ("unknown".into(), doc(rng, 1)));
                }
            }
            2 if !fields.is_empty() => {
                fields.remove(at(rng, fields.len()));
            }
            3 if !fields.is_empty() => {
                let i = at(rng, fields.len());
                fields[i].1 = retyped(&fields[i].1, rng);
            }
            4 if !fields.is_empty() => {
                let mut deep = Json::Int(0);
                for _ in 0..MAX_DEPTH {
                    deep = Json::Array(vec![deep]);
                }
                let i = at(rng, fields.len());
                fields[i].1 = deep;
            }
            5 => cut = true,
            _ => trailing = Some(pick(rng, &[" x", "1", "{}", ",", "\"", " ]", "\n\n0"])),
        }
    }
    let mut text = tree.pretty();
    if cut {
        let mut end = below(rng, text.len() as u64) as usize;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        text.truncate(end);
    }
    if let Some(bytes) = trailing {
        text.push_str(bytes);
    }
    text
}

/// `x`'s document, respelled and damaged: every decoder agrees on both.
fn reads_agree<T: FromJson + ToJson>(
    x: &T,
    reference: fn(&Json) -> Result<T, SpecError>,
    rng: &mut TestRng,
) {
    let tree = x.to_json();
    decoders_agree(&x.to_json_string(), reference);
    decoders_agree(&respelled(&tree, rng), reference);
    decoders_agree(&hostile(&tree, rng), reference);
}

// ---------------------------------------------------------------------------
// The store's canonical cell-spec text, the way it was made before the text
// sink had a member filter: the spec's tree, stripped, pretty-printed.

/// `doc` without the object members named in `fields`.
fn strip(doc: Json, fields: &[&str]) -> Json {
    match doc {
        Json::Object(kv) => Json::Object(
            kv.into_iter()
                .filter(|(k, _)| !fields.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    }
}

fn reference_experiment_cell_spec_text(spec: &ExperimentSpec) -> String {
    let doc = match strip(spec.to_json(), &["name", "mc"]) {
        Json::Object(fields) => Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "executor" => (k, strip(v, &["queue"])),
                    _ => (k, v),
                })
                .collect(),
        ),
        other => other,
    };
    doc.pretty()
}

fn reference_executive_cell_spec_text(spec: &ExecutiveSpec) -> String {
    strip(spec.to_json(), &["name", "seed", "mc"]).pretty()
}

// ---------------------------------------------------------------------------
// Real texts to mutate.

fn real_texts() -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut texts: Vec<String> = [
        "specs/table1-anchor.json",
        "specs/table1a-sweep.json",
        "specs/satellite-telemetry.json",
        "specs/avionics-trio.json",
        "specs/avionics-trio-sweep.json",
        "crates/cli/tests/golden/executive-avionics-trio.json",
    ]
    .iter()
    .map(|path| std::fs::read_to_string(format!("{root}/{path}")).unwrap())
    .collect();
    texts.extend(
        eacp_spec::preset_names()
            .into_iter()
            .map(|name| eacp_spec::ToJson::to_json(&eacp_spec::preset(name).unwrap()).pretty()),
    );
    texts
}

/// Every decoder a spec, sweep or report text can reach. Errors are fine;
/// panics are not.
fn decode_all(doc: &Json) {
    let _ = ExperimentSpec::from_json(doc);
    let _ = ExecutiveSpec::from_json(doc);
    let _ = SweepSpec::from_json(doc);
    let _ = ExecutiveSweepSpec::from_json(doc);
    let _ = ExecutiveRunReport::from_json(doc);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pretty_matches_the_reference_renderer(doc in Docs(4)) {
        prop_assert_eq!(doc.pretty(), reference_pretty(&doc));
    }

    #[test]
    fn parse_inverts_pretty_and_pretty_is_idempotent(doc in Docs(4)) {
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        prop_assert!(identical(&back, &written(&doc)), "{} read back as {:?}", text, back);
        prop_assert_eq!(back.pretty(), text);
    }

    #[test]
    fn specs_of_both_kinds_write_the_reference_text_and_read_back(
        experiment in With(experiment_spec),
        executive in With(executive_spec),
    ) {
        prop_assert_eq!(writes_its_tree_and_reads_back(&experiment), experiment);
        prop_assert_eq!(writes_its_tree_and_reads_back(&executive), executive);
    }

    #[test]
    fn summaries_and_reports_write_the_reference_text_and_read_back(
        summary in With(summary),
        report in With(summary_report),
        run in With(run_report),
        entry in With(cell_entry),
    ) {
        writes_its_tree_and_reads_back(&summary);
        writes_its_tree_and_reads_back(&report);
        let back = writes_its_tree_and_reads_back(&run);
        prop_assert_eq!(back.served, run.served);
        let back = writes_its_tree_and_reads_back(&entry);
        prop_assert_eq!(back.cell, entry.cell);
        prop_assert_eq!(back.served, entry.served);
    }

    #[test]
    fn the_reader_decodes_text_and_trees_as_the_tree_decoders_did(
        seed in 0u64..u64::MAX,
        stats in With(stats),
        summary in With(summary),
        executive in With(executive_summary),
        entry in With(cell_entry),
    ) {
        let rng = &mut <TestRng as rand::SeedableRng>::seed_from_u64(seed);
        reads_agree(&stats, ref_stats, rng);
        reads_agree(&summary, ref_summary, rng);
        reads_agree(&executive, ref_executive, rng);
        // A store hit reads an entry right after hashing the spec it
        // asked for; the entry's embedded spec may or may not be that.
        let _ = SpecHash::of(if below(rng, 2) == 0 { &entry.spec } else { "" });
        reads_agree(&entry, ref_entry, rng);
    }

    #[test]
    fn canonical_cell_spec_text_is_the_stripped_tree_printed(
        experiment in With(experiment_spec),
        executive in With(executive_spec),
    ) {
        let text = experiment.cell_spec_text();
        prop_assert_eq!(&text, &reference_experiment_cell_spec_text(&experiment));
        // Scheduling is placement: the queue section never reaches the text.
        let mut queued = experiment.clone();
        queued.executor.queue = Some(QueueSpec { workers: 3, ..QueueSpec::default() });
        prop_assert_eq!(queued.cell_spec_text(), text);
        prop_assert_eq!(
            executive.cell_spec_text(),
            reference_executive_cell_spec_text(&executive)
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(doc) = Json::parse(&text) {
            decode_all(&doc);
        }
    }

    #[test]
    fn json_shaped_noise_never_panics_the_parser(
        picks in proptest::collection::vec(0usize..24, 0..512),
    ) {
        const TOKENS: [&str; 24] = [
            "[", "]", "{", "}", ",", ":", " ", "\n", "\"", "\\", "\\u", "\\ud800", "0", "-",
            "1.5", "e", "E+", "1e999", "true", "nul", "\"k\":", "λ", "\u{1}", "18446744073709551616",
        ];
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        if let Ok(doc) = Json::parse(&text) {
            decode_all(&doc);
        }
    }

    #[test]
    fn mutated_and_truncated_real_texts_never_panic(
        which in 0usize..64,
        at in 0usize..1 << 20,
        byte in 0u8..=255,
        truncate in 0u8..3,
    ) {
        thread_local! {
            static TEXTS: Vec<String> = real_texts();
        }
        TEXTS.with(|texts| {
            let original = texts[which % texts.len()].as_bytes();
            let mut bytes = original.to_vec();
            if truncate == 0 {
                bytes.truncate(at % original.len());
            } else {
                bytes[at % original.len()] = byte;
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(doc) = Json::parse(&text) {
                decode_all(&doc);
                prop_assert_eq!(Json::parse(&doc.pretty()).unwrap().pretty(), doc.pretty());
            }
        });
    }
}

#[test]
fn real_texts_round_trip_through_both_renderers() {
    for text in real_texts() {
        let doc = Json::parse(&text).unwrap();
        decode_all(&doc);
        assert_eq!(doc.pretty(), reference_pretty(&doc));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }
}

#[test]
fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\": ", "[{\"k\": "] {
        let text = open.repeat(1_000_000);
        let err = Json::parse(&text).unwrap_err().to_string();
        assert!(err.contains("deeper than"), "{err}");
    }
    // The error points at the first bracket past the cap.
    let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    let err = Json::parse(&over).unwrap_err().to_string();
    assert!(err.contains("line 1, column 129"), "{err}");
    // Exactly at the cap parses, and the writer agrees with the oracle.
    let mut doc = Json::Int(7);
    for _ in 0..MAX_DEPTH {
        doc = Json::Array(vec![doc]);
    }
    let text = doc.pretty();
    assert_eq!(text, reference_pretty(&doc));
    assert_eq!(Json::parse(&text).unwrap(), doc);
    let deeper = Json::Array(vec![doc]).pretty();
    assert!(Json::parse(&deeper).is_err());
}

#[test]
fn repeated_keys_are_errors_naming_the_key_line_and_column() {
    for (text, key, at) in [
        (r#"{"a": 1, "a": 2}"#, "\"a\"", "line 1, column 10"),
        (
            "{\n  \"a\": {\"b\": [], \"b\": []}\n}",
            "\"b\"",
            "line 2, column 18",
        ),
        (
            r#"[{"k": 1}, {"k": 2, "x": 0, "k": 3}]"#,
            "\"k\"",
            "line 1, column 29",
        ),
        // Escapes are compared after decoding.
        (r#"{"a\u0062": 1, "ab": 2}"#, "\"ab\"", "line 1, column 16"),
    ] {
        let err = Json::parse(text).unwrap_err();
        assert!(
            matches!(err, eacp_spec::SpecError::Parse(_)),
            "{text}: {err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("duplicate key") && msg.contains(key),
            "{text}: {msg}"
        );
        assert!(msg.contains(at), "{text}: {msg}");
    }
    // The same key in different objects is not a repeat.
    assert!(Json::parse(r#"{"a": {"a": 1}, "b": [{"a": 2}, {"a": 3}]}"#).is_ok());
}

#[test]
fn repeated_keys_are_found_in_objects_of_any_size() {
    let keys = 500_000;
    let object = |repeat: Option<usize>| {
        let mut text = String::from("{");
        for i in 0..keys {
            let key = repeat.filter(|_| i == keys - 1).unwrap_or(i);
            text.push_str(&format!(
                "{}\"k{key}\": {i}",
                if i == 0 { "" } else { ", " }
            ));
        }
        text.push('}');
        text
    };
    let distinct = Json::parse(&object(None)).unwrap();
    assert_eq!(distinct.get("k499999"), Some(&Json::Int(499_999)));
    for repeat in [0, 17, keys / 2] {
        let err = Json::parse(&object(Some(repeat))).unwrap_err().to_string();
        assert!(err.contains(&format!("\"k{repeat}\"")), "{err}");
    }
    // Below and across the size where the scan gives way to a hash set.
    for n in 1..40 {
        for repeat in 0..n {
            let mut text: Vec<String> = (0..n).map(|i| format!("\"k{i}\": 0")).collect();
            text.push(format!("\"k{repeat}\": 1"));
            let err = Json::parse(&format!("{{{}}}", text.join(", "))).unwrap_err();
            assert!(err.to_string().contains(&format!("\"k{repeat}\"")), "{err}");
        }
    }
}
