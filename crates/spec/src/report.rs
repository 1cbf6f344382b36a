//! Serializable result schema: the JSON mirror of [`eacp_sim::Summary`].
//!
//! `spec + seed → identical Summary` is the reproducibility contract: the
//! report embeds the spec that produced it, so a report file is a complete,
//! re-runnable record of an experiment. Execution lives in `eacp-exec`
//! (`eacp_exec::run` produces these reports through the `Job`/`Runner`
//! path).

use crate::error::SpecError;
use crate::json::{FromJson, Json, JsonReader, JsonWriter, ToJson};
use crate::model::ExperimentSpec;
use eacp_numerics::OnlineStats;
use eacp_sim::Summary;

/// Which execution tier produced a Monte-Carlo result.
///
/// The closed-form tier answers **replication-invariant** cells: when the
/// fault stream is the same for every replication seed (a deterministic
/// schedule, or Poisson with `λ = 0`) and the policy is deterministic
/// given the execution it observes (every in-repo scheme is), the outcome
/// distribution is a point mass — one simulated replication determines the
/// whole aggregate exactly, so the executor simulates once and absorbs the
/// outcome `N` times instead of running `N` identical simulations. The
/// marker records which tier served a report so consumers can tell an
/// analytic answer from a sampled one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeTier {
    /// Full Monte-Carlo: every replication simulated.
    #[default]
    Mc,
    /// Closed form: one replication simulated, aggregate derived exactly.
    Analytic,
}

impl ServeTier {
    /// The serialized marker (`"mc"` / `"analytic"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ServeTier::Mc => "mc",
            ServeTier::Analytic => "analytic",
        }
    }

    /// Parses the serialized marker.
    ///
    /// # Errors
    ///
    /// Unknown markers are [`SpecError`]s naming the offending value.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        match text {
            "mc" => Ok(ServeTier::Mc),
            "analytic" => Ok(ServeTier::Analytic),
            other => Err(SpecError::invalid(format!(
                "unknown serve tier {other:?} (expected mc or analytic)"
            ))),
        }
    }
}

impl std::fmt::Display for ServeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Snapshot of one [`OnlineStats`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsReport {
    /// Number of observations.
    pub count: u64,
    /// Mean (NaN when `count == 0`).
    pub mean: f64,
    /// Population variance (NaN when `count == 0`).
    pub variance: f64,
    /// Minimum observation (NaN when `count == 0`).
    pub min: f64,
    /// Maximum observation (NaN when `count == 0`).
    pub max: f64,
}

impl StatsReport {
    /// Snapshots an accumulator.
    pub fn from_stats(s: &OnlineStats) -> Self {
        Self {
            count: s.count(),
            mean: s.mean(),
            variance: s.population_variance(),
            min: s.min(),
            max: s.max(),
        }
    }
}

impl ToJson for StatsReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("count", &self.count);
            w.field("mean", &self.mean);
            w.field("variance", &self.variance);
            w.field("min", &self.min);
            w.field("max", &self.max);
        });
    }
}

impl FromJson for StatsReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            count: json.req("count")?.as_u64()?,
            mean: json.req("mean")?.as_f64()?,
            variance: json.req("variance")?.as_f64()?,
            min: json.req("min")?.as_f64()?,
            max: json.req("max")?.as_f64()?,
        })
    }
}

/// Lossless [`OnlineStats`] serialization: the raw accumulator state
/// (`count, mean, m2, min, max`), not the derived variance that
/// [`StatsReport`] renders. Round-trips bit for bit — this is the codec
/// the result store and the remote execution transport both rely on to
/// keep a deserialized [`Summary`] byte-identical to the computed one.
impl ToJson for OnlineStats {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let (count, mean, m2, min, max) = self.raw_parts();
        w.object(|w| {
            w.field("count", &count);
            w.field("mean", &mean);
            w.field("m2", &m2);
            w.field("min", &min);
            w.field("max", &max);
        });
    }
}

impl FromJson for OnlineStats {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        JsonReader::tree(json).read()
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SpecError> {
        let (mut count, mut floats) = (0, [0.0; 4]);
        r.object(&["count", "mean", "m2", "min", "max"], &mut |r, i| {
            match i {
                0 => count = r.u64()?,
                _ => floats[i - 1] = r.f64()?,
            }
            Ok(())
        })
        .check()?;
        let [mean, m2, min, max] = floats;
        Ok(OnlineStats::from_raw_parts(count, mean, m2, min, max))
    }
}

/// Lossless [`Summary`] serialization via [`OnlineStats`] raw parts —
/// the exact-accumulator dual of the human-facing [`SummaryReport`].
impl ToJson for Summary {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("replications", &self.replications);
            w.field("timely", &self.timely);
            w.field("completed", &self.completed);
            w.field("aborted", &self.aborted);
            w.field("anomalies", &self.anomalies);
            w.field("energy_timely", &self.energy_timely);
            w.field("energy_all", &self.energy_all);
            w.field("finish_timely", &self.finish_timely);
            w.field("faults", &self.faults);
            w.field("rollbacks", &self.rollbacks);
            w.field("checkpoints", &self.checkpoints);
            w.field("fast_fraction", &self.fast_fraction);
        });
    }
}

impl FromJson for Summary {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        JsonReader::tree(json).read()
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SpecError> {
        const FIELDS: [&str; 12] = [
            "replications",
            "timely",
            "completed",
            "aborted",
            "anomalies",
            "energy_timely",
            "energy_all",
            "finish_timely",
            "faults",
            "rollbacks",
            "checkpoints",
            "fast_fraction",
        ];
        let mut s = Summary::empty();
        r.object(&FIELDS, &mut |r, i| {
            match i {
                0 => s.replications = r.u64()?,
                1 => s.timely = r.u64()?,
                2 => s.completed = r.u64()?,
                3 => s.aborted = r.u64()?,
                4 => s.anomalies = r.u64()?,
                _ => *summary_stats_mut(&mut s)[i - 5] = OnlineStats::read_json(r)?,
            }
            Ok(())
        })
        .check()?;
        Ok(s)
    }
}

/// How many raw parts the compact [`Summary`] form holds: five counts,
/// then seven accumulators.
const SUMMARY_PARTS: usize = 12;

/// How many raw parts one accumulator holds: `count, mean, m2, min, max`.
const STATS_PARTS: usize = 5;

/// Appends the compact form of `summary` to `out`: one JSON array of its
/// raw parts, written without whitespace — the five counts
/// (`replications, timely, completed, aborted, anomalies`), then each of
/// the seven accumulators in field order (`energy_timely, energy_all,
/// finish_timely, faults, rollbacks, checkpoints, fast_fraction`) as
/// `[count, mean, m2, min, max]`. Floats use the document writer's
/// lossless form (`{:?}`, `null` for NaN, `±1e999` for infinities), so
/// [`summary_from_parts`] reads back a bit-identical summary. The remote
/// transport's reply carries one per block.
pub fn write_summary_parts(out: &mut String, summary: &Summary) {
    use std::fmt::Write as _;
    let counts = [
        summary.replications,
        summary.timely,
        summary.completed,
        summary.aborted,
        summary.anomalies,
    ];
    out.push('[');
    for count in counts {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{count},");
    }
    for (i, stats) in summary_stats(summary).into_iter().enumerate() {
        let (count, mean, m2, min, max) = stats.raw_parts();
        out.push_str(if i == 0 { "[" } else { ",[" });
        let _ = write!(out, "{count}");
        for x in [mean, m2, min, max] {
            out.push(',');
            crate::json::write_float(out, x);
        }
        out.push(']');
    }
    out.push(']');
}

/// The seven accumulators of `summary`, in field order.
fn summary_stats(s: &Summary) -> [&OnlineStats; 7] {
    [
        &s.energy_timely,
        &s.energy_all,
        &s.finish_timely,
        &s.faults,
        &s.rollbacks,
        &s.checkpoints,
        &s.fast_fraction,
    ]
}

/// The seven accumulators of `summary`, in field order, to fill in.
fn summary_stats_mut(s: &mut Summary) -> [&mut OnlineStats; 7] {
    [
        &mut s.energy_timely,
        &mut s.energy_all,
        &mut s.finish_timely,
        &mut s.faults,
        &mut s.rollbacks,
        &mut s.checkpoints,
        &mut s.fast_fraction,
    ]
}

/// Reads the compact form [`write_summary_parts`] writes, from a tree.
///
/// # Errors
///
/// Those of [`read_summary_parts`].
pub fn summary_from_parts(json: &Json) -> Result<Summary, SpecError> {
    JsonReader::tree(json).document(read_summary_parts)?
}

/// Reads the compact form [`write_summary_parts`] writes: the one body
/// behind [`summary_from_parts`] and the remote transport's streamed
/// replies.
///
/// # Errors
///
/// Anything but an array of five unsigned counts and seven
/// five-part accumulators (an unsigned count, then four numbers or
/// `null`) is a [`SpecError`] saying what is wrong.
pub fn read_summary_parts(r: &mut JsonReader<'_>) -> Result<Summary, SpecError> {
    let mut s = Summary::empty();
    let (parts, read) = r.array(&mut |r, i| {
        match i {
            0 => s.replications = r.u64()?,
            1 => s.timely = r.u64()?,
            2 => s.completed = r.u64()?,
            3 => s.aborted = r.u64()?,
            4 => s.anomalies = r.u64()?,
            5..SUMMARY_PARTS => *summary_stats_mut(&mut s)[i - 5] = read_stats_parts(r)?,
            _ => r.skip(),
        }
        Ok(())
    })?;
    if parts != SUMMARY_PARTS {
        return Err(SpecError::invalid(format!(
            "a summary is {SUMMARY_PARTS} raw parts (5 counts, 7 accumulators), got {parts}"
        )));
    }
    read.map(|()| s)
}

/// One accumulator of the compact form: `[count, mean, m2, min, max]`.
fn read_stats_parts(r: &mut JsonReader<'_>) -> Result<OnlineStats, SpecError> {
    let (mut count, mut floats) = (0, [0.0; 4]);
    let (parts, read) = r.array(&mut |r, i| {
        match i {
            0 => count = r.u64()?,
            1..STATS_PARTS => floats[i - 1] = r.f64()?,
            _ => r.skip(),
        }
        Ok(())
    })?;
    if parts != STATS_PARTS {
        return Err(SpecError::invalid(format!(
            "an accumulator is {STATS_PARTS} raw parts (count, mean, m2, min, max), got {parts}"
        )));
    }
    read?;
    let [mean, m2, min, max] = floats;
    Ok(OnlineStats::from_raw_parts(count, mean, m2, min, max))
}

/// The serializable mirror of a Monte-Carlo [`Summary`].
///
/// `p_timely` and the 95% Wilson interval are derived quantities, embedded
/// so report consumers (plots, dashboards, CI gates) need no simulator code.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryReport {
    /// Total replications.
    pub replications: u64,
    /// Replications completing at or before the deadline.
    pub timely: u64,
    /// Replications completing at all.
    pub completed: u64,
    /// Replications aborted by the policy.
    pub aborted: u64,
    /// Executor anomalies (must be 0 for healthy policies).
    pub anomalies: u64,
    /// The paper's `P`.
    pub p_timely: f64,
    /// 95% Wilson confidence interval on `P`.
    pub p_timely_ci95: (f64, f64),
    /// Energy over timely replications (the paper's `E`; NaN when `P = 0`).
    pub energy_timely: StatsReport,
    /// Energy over all replications.
    pub energy_all: StatsReport,
    /// Completion time over timely replications.
    pub finish_timely: StatsReport,
    /// Faults per replication.
    pub faults: StatsReport,
    /// Rollbacks per replication.
    pub rollbacks: StatsReport,
    /// Checkpoints (all kinds) per replication.
    pub checkpoints: StatsReport,
    /// Fraction of cycles at the fastest speed, per replication.
    pub fast_fraction: StatsReport,
}

impl SummaryReport {
    /// Builds the report from a Monte-Carlo aggregate.
    pub fn from_summary(s: &Summary) -> Self {
        let (lo, hi) = s.p_timely_ci(1.96);
        Self {
            replications: s.replications,
            timely: s.timely,
            completed: s.completed,
            aborted: s.aborted,
            anomalies: s.anomalies,
            p_timely: s.p_timely(),
            p_timely_ci95: (lo, hi),
            energy_timely: StatsReport::from_stats(&s.energy_timely),
            energy_all: StatsReport::from_stats(&s.energy_all),
            finish_timely: StatsReport::from_stats(&s.finish_timely),
            faults: StatsReport::from_stats(&s.faults),
            rollbacks: StatsReport::from_stats(&s.rollbacks),
            checkpoints: StatsReport::from_stats(&s.checkpoints),
            fast_fraction: StatsReport::from_stats(&s.fast_fraction),
        }
    }
}

impl ToJson for SummaryReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let (lo, hi) = self.p_timely_ci95;
        w.object(|w| {
            w.field("replications", &self.replications);
            w.field("timely", &self.timely);
            w.field("completed", &self.completed);
            w.field("aborted", &self.aborted);
            w.field("anomalies", &self.anomalies);
            w.field("p_timely", &self.p_timely);
            w.field("p_timely_ci95", &[lo, hi][..]);
            w.field("energy_timely", &self.energy_timely);
            w.field("energy_all", &self.energy_all);
            w.field("finish_timely", &self.finish_timely);
            w.field("faults", &self.faults);
            w.field("rollbacks", &self.rollbacks);
            w.field("checkpoints", &self.checkpoints);
            w.field("fast_fraction", &self.fast_fraction);
        });
    }
}

impl FromJson for SummaryReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let ci = json.req("p_timely_ci95")?.as_array()?;
        if ci.len() != 2 {
            return Err(SpecError::invalid("p_timely_ci95 must be a [lo, hi] pair"));
        }
        Ok(Self {
            replications: json.req("replications")?.as_u64()?,
            timely: json.req("timely")?.as_u64()?,
            completed: json.req("completed")?.as_u64()?,
            aborted: json.req("aborted")?.as_u64()?,
            anomalies: json.req("anomalies")?.as_u64()?,
            p_timely: json.req("p_timely")?.as_f64()?,
            p_timely_ci95: (ci[0].as_f64()?, ci[1].as_f64()?),
            energy_timely: StatsReport::from_json(json.req("energy_timely")?)?,
            energy_all: StatsReport::from_json(json.req("energy_all")?)?,
            finish_timely: StatsReport::from_json(json.req("finish_timely")?)?,
            faults: StatsReport::from_json(json.req("faults")?)?,
            rollbacks: StatsReport::from_json(json.req("rollbacks")?)?,
            checkpoints: StatsReport::from_json(json.req("checkpoints")?)?,
            fast_fraction: StatsReport::from_json(json.req("fast_fraction")?)?,
        })
    }
}

/// The result of running one [`ExperimentSpec`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The spec that produced this result (embedded for provenance).
    pub spec: ExperimentSpec,
    /// The `Policy::name()` of the scheme that ran.
    pub policy_name: String,
    /// The serializable aggregate.
    pub summary: SummaryReport,
    /// Which execution tier produced the summary ([`ServeTier::Mc`] unless
    /// the closed-form tier answered a replication-invariant cell).
    /// Serialized only when analytic, so Monte-Carlo report documents keep
    /// their historical bytes.
    pub served: ServeTier,
    /// Where this report was loaded from (`None` for freshly computed
    /// reports). Never serialized — pure diagnostics provenance, so merge
    /// and store-verification failures can name the offending artifact.
    pub source: Option<std::path::PathBuf>,
}

// `source` is where the report came *from*, not part of what it *says*:
// a loaded report must compare equal to the in-memory recomputation it
// claims to record, so equality covers only the serialized fields.
impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.policy_name == other.policy_name
            && self.summary == other.summary
            && self.served == other.served
    }
}

impl RunReport {
    /// Reads one report document, recording `path` as its
    /// [`RunReport::source`].
    ///
    /// # Errors
    ///
    /// Unreadable files, malformed JSON and schema mismatches all carry
    /// the offending path.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        let json = Json::parse(&text)
            .map_err(|e| SpecError::invalid(format!("{}: {e}", path.display())))?;
        let mut report = Self::from_json(&json).map_err(|e| {
            SpecError::invalid(format!("{}: invalid run report: {e}", path.display()))
        })?;
        report.source = Some(path.to_path_buf());
        Ok(report)
    }
}

impl ToJson for RunReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("spec", &self.spec);
            w.field("policy", &self.policy_name);
            // Emitted only for analytic results: Monte-Carlo documents keep
            // their historical bytes (and store cells their addresses).
            if self.served != ServeTier::Mc {
                w.field("served", self.served.as_str());
            }
            w.field("summary", &self.summary);
        });
    }
}

impl FromJson for RunReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            spec: ExperimentSpec::from_json(json.req("spec")?)?,
            policy_name: json.req("policy")?.as_str()?.to_owned(),
            summary: SummaryReport::from_json(json.req("summary")?)?,
            served: match json.get("served") {
                None => ServeTier::Mc,
                Some(s) => ServeTier::parse(s.as_str()?)?,
            },
            source: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::McSpec;
    use eacp_sim::{replication_seed, Executor};

    /// Sequential spec execution on the engine API — this crate describes
    /// experiments and cannot depend on `eacp-exec` (which depends on it),
    /// so the report tests drive the engine directly under the same
    /// per-replication seeding contract.
    fn run_for_test(spec: &ExperimentSpec) -> RunReport {
        let scenario = spec.scenario.build().unwrap();
        let options = spec.executor.build().unwrap();
        let executor = Executor::new(&scenario).with_options(options);
        let mut summary = Summary::empty();
        for rep in 0..spec.mc.replications {
            let seed = replication_seed(spec.mc.seed, rep);
            let mut policy = spec.policy.build().unwrap();
            let mut faults = spec.faults.build(seed).unwrap();
            summary.absorb(&executor.run(&mut policy, &mut faults));
        }
        RunReport {
            spec: spec.clone(),
            policy_name: spec.policy.policy_name().to_owned(),
            summary: SummaryReport::from_summary(&summary),
            served: ServeTier::Mc,
            source: None,
        }
    }

    fn small_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: 120,
            seed: 9,
            threads: 0,
        };
        spec
    }

    #[test]
    fn report_mirrors_the_summary() {
        let spec = small_spec();
        let report = run_for_test(&spec);
        assert_eq!(report.summary.replications, 120);
        assert_eq!(report.policy_name, "A_D_S");
        assert_eq!(report.spec, spec);
        assert_eq!(report.summary.anomalies, 0);
        let (lo, hi) = report.summary.p_timely_ci95;
        assert!(lo <= report.summary.p_timely && report.summary.p_timely <= hi);
    }

    #[test]
    fn summary_report_round_trips_through_json() {
        let report = run_for_test(&small_spec());
        let json = report.summary.to_json();
        let back = SummaryReport::from_json(&Json::parse(&json.pretty()).unwrap()).unwrap();
        // NaN fields (empty stats) compare unequal; compare via JSON text,
        // which canonicalizes NaN to null.
        assert_eq!(json.pretty(), back.to_json().pretty());
        assert_eq!(report.summary.timely, back.timely);
    }

    /// A summary equal to `s` bit for bit, NaN payloads included.
    fn same_bits(a: &Summary, b: &Summary) -> bool {
        let bits = |s: &Summary| {
            let mut bits = vec![
                s.replications,
                s.timely,
                s.completed,
                s.aborted,
                s.anomalies,
            ];
            for stats in summary_stats(s) {
                let (count, mean, m2, min, max) = stats.raw_parts();
                bits.push(count);
                bits.extend([mean, m2, min, max].map(f64::to_bits));
            }
            bits
        };
        bits(a) == bits(b)
    }

    #[test]
    fn compact_summary_parts_round_trip_bit_for_bit() {
        let mut summary = Summary::empty();
        let spec = small_spec();
        let scenario = spec.scenario.build().unwrap();
        let executor = Executor::new(&scenario);
        for rep in 0..40 {
            let mut policy = spec.policy.build().unwrap();
            let mut faults = spec.faults.build(replication_seed(7, rep)).unwrap();
            summary.absorb(&executor.run(&mut policy, &mut faults));
        }
        // Every float the writer special-cases: NaN, infinities (an empty
        // accumulator's min and max), negative zero and extremes.
        let odd = OnlineStats::from_raw_parts(3, -0.0, f64::NAN, f64::MIN_POSITIVE, f64::MAX);
        let mut extremes = summary.clone();
        extremes.faults = odd;
        for s in [Summary::empty(), summary, extremes] {
            let mut text = String::new();
            write_summary_parts(&mut text, &s);
            assert!(!text.contains(' ') && !text.contains('\n'), "{text}");
            let back = summary_from_parts(&Json::parse(&text).unwrap()).unwrap();
            assert!(same_bits(&back, &s), "{text}");
        }
        let mut text = String::new();
        write_summary_parts(&mut text, &Summary::empty());
        assert_eq!(
            text.matches("[0,0.0,0.0,1e999,-1e999]").count(),
            7,
            "{text}"
        );
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let report = run_for_test(&small_spec());
        let text = report.to_json().pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.spec, report.spec);
        assert_eq!(back.policy_name, report.policy_name);
        // NaN-bearing stats compare via canonical JSON text.
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn load_records_the_source_path_without_affecting_equality() {
        let report = run_for_test(&small_spec());
        let dir = std::env::temp_dir().join(format!("eacp-spec-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        std::fs::write(&path, report.to_json().pretty()).unwrap();

        let loaded = RunReport::load(&path).unwrap();
        assert_eq!(loaded.source.as_deref(), Some(path.as_path()));
        // Provenance is diagnostics-only: the loaded report still equals
        // the in-memory one, and serializes to the same bytes.
        assert_eq!(loaded, report);
        assert_eq!(loaded.to_json().pretty(), report.to_json().pretty());

        let err = RunReport::load(&dir.join("absent.json")).unwrap_err();
        assert!(err.to_string().contains("absent.json"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
