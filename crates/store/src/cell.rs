//! Store cells: what a result is keyed by and what an entry holds.
//!
//! A **cell** is one reproducible unit of computation: a canonical cell
//! spec (content-addressed by [`SpecHash`]) plus the Monte-Carlo seed and
//! replication count. Every field of the key is an exact input to the
//! deterministic simulator, so a cell's result never goes stale — the only
//! way to get a different answer is to ask a different cell.
//!
//! [`StoreCell`] is where each workload kind makes its hashing decision:
//! which fields of its spec are result-neutral and stripped before
//! hashing, which fields key the cell alongside the hash, and which
//! [`CellPayload`] variant holds its summary. Both kinds' rules live in
//! this module, next to the key and entry types they feed.
//!
//! `replications == 0` is the **single-execution sentinel**: `eacp run`
//! executes one replication directly with the raw base seed (no
//! per-replication seed derivation), which is a different computation from
//! a 1-replication Monte-Carlo cell. The sentinel is unambiguous because
//! `McSpec::validate` rejects `replications == 0` for real Monte-Carlo
//! runs. Summary cells carry a [`CellPayload::Summary`]; single-execution
//! cells carry a [`CellPayload::Outcome`].
//!
//! Payload serialization is **lossless**, not the report schema: the
//! report layer's `StatsReport` stores `variance = m2 / count`, which
//! cannot reconstruct the accumulator bit-exactly. Entries instead persist
//! each [`OnlineStats`] via its raw `(count, mean, m2, min, max)` state,
//! which round-trips bit-for-bit through the spec layer's
//! shortest-round-trip float formatting — the property that makes a cache
//! hit byte-identical to recomputation.

use crate::hash::SpecHash;
use eacp_exec::{Cell, ExecutiveSummary};
use eacp_sim::{RunOutcome, Summary};
use eacp_spec::{
    ExecutiveSpec, ExperimentSpec, FromJson, Json, JsonWriter, Knob, ServeTier, SpecError, ToJson,
};
use std::path::PathBuf;

/// A [`Cell`] the store can key and hold: one workload kind's cell key
/// (hash-strip rule, seed, replication count) and payload mapping.
pub trait StoreCell: Cell {
    /// What this kind's payload is called in wrong-kind errors.
    const PAYLOAD: &'static str;

    /// The canonical cell-spec document: the spec's JSON with every
    /// result-neutral field removed. This is the exact text that gets
    /// hashed and the exact text an entry embeds, so a stored document
    /// always re-hashes to its own address.
    fn cell_spec_json(&self) -> Json;

    /// The entry's `policy` column.
    fn policy_label(&self) -> String;

    /// Wraps a summary as this kind's payload.
    fn payload(summary: &Self::Summary) -> CellPayload;

    /// This kind's summary in `payload`, if it holds one.
    fn summary_in(payload: &CellPayload) -> Option<&Self::Summary>;

    /// Reconstructs a runnable cell from an entry's canonical document
    /// plus its key — what `eacp store verify` re-executes. Stripped
    /// fields take their defaults (`threads = 0`, which cannot change the
    /// result).
    ///
    /// # Errors
    ///
    /// A canonical document that does not parse as this kind's spec.
    fn from_entry(entry: &CellEntry) -> Result<Self, SpecError> {
        let mut cell = Self::from_json(&entry.spec)?;
        cell.set(Knob::Seed(entry.cell.seed))?;
        cell.set_mc(Some(entry.cell.replications.max(1)), Some(0));
        Ok(cell)
    }

    /// The cell a Monte-Carlo run of this spec lands in.
    fn cell_id(&self) -> CellId {
        CellId {
            spec_hash: SpecHash::of(&self.cell_spec_json()),
            seed: self.seed(),
            replications: self.replications(),
        }
    }
}

/// `doc` without the object fields named in `fields` — the shape of every
/// kind's strip rule.
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

/// Single-task cells strip `name` (a human label), `mc` (seed and
/// replications key the cell alongside the hash; the thread count is
/// proven result-neutral) and `executor.queue` (work-queue scheduling is
/// proven bit-identical to the local runner — placement, not physics).
impl StoreCell for ExperimentSpec {
    const PAYLOAD: &'static str = "single-task Monte-Carlo summary";

    fn cell_spec_json(&self) -> Json {
        match strip(self.to_json(), &["name", "mc"]) {
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
        }
    }

    fn policy_label(&self) -> String {
        self.policy.policy_name().to_owned()
    }

    fn payload(summary: &Summary) -> CellPayload {
        CellPayload::Summary(summary.clone())
    }

    fn summary_in(payload: &CellPayload) -> Option<&Summary> {
        match payload {
            CellPayload::Summary(s) => Some(s),
            _ => None,
        }
    }
}

/// Executive cells strip `name`, `seed` (keys the cell alongside the
/// hash, like `mc.seed` for single-task cells) and `mc` (the horizon
/// count keys the cell; threads and queue scheduling are proven
/// bit-identical by the canonical-reduction contract).
impl StoreCell for ExecutiveSpec {
    const PAYLOAD: &'static str = "executive Monte-Carlo summary";

    fn cell_spec_json(&self) -> Json {
        strip(self.to_json(), &["name", "seed", "mc"])
    }

    /// The per-task names joined with `+`.
    fn policy_label(&self) -> String {
        self.policy.policy_names(self.tasks.len()).join("+")
    }

    fn payload(summary: &ExecutiveSummary) -> CellPayload {
        CellPayload::Executive(summary.clone())
    }

    fn summary_in(payload: &CellPayload) -> Option<&ExecutiveSummary> {
        match payload {
            CellPayload::Executive(s) => Some(s),
            _ => None,
        }
    }
}

/// The key of one stored result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId {
    /// Content address of the canonical cell spec.
    pub spec_hash: SpecHash,
    /// Monte-Carlo base seed.
    pub seed: u64,
    /// Replication count; `0` denotes a single raw-seed execution.
    pub replications: u64,
}

impl CellId {
    /// The cell a single raw-seed execution of `spec` lands in.
    pub fn for_single(spec: &ExperimentSpec) -> Self {
        Self {
            replications: 0,
            ..spec.cell_id()
        }
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:s{}:r{}",
            self.spec_hash, self.seed, self.replications
        )
    }
}

/// What a cell holds: the aggregate of a Monte-Carlo run, or the outcome
/// of one single execution.
// Summary outweighs RunOutcome, but payloads are built once per recorded
// cell (cold path); boxing would complicate every accessor for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellPayload {
    /// Monte-Carlo aggregate (`replications >= 1`).
    Summary(Summary),
    /// One raw-seed execution (`replications == 0`).
    Outcome(RunOutcome),
    /// Executive Monte-Carlo aggregate: N seeded hyperperiod horizons
    /// (`replications >= 1`, over an executive cell spec).
    Executive(ExecutiveSummary),
}

/// One stored result: key, canonical spec document, and payload.
#[derive(Debug, Clone)]
pub struct CellEntry {
    /// The cell this entry fills.
    pub cell: CellId,
    /// The `Policy::name()` of the scheme that ran.
    pub policy: String,
    /// The canonical cell-spec document ([`StoreCell::cell_spec_json`]) — embedded so
    /// an entry is self-describing and re-verifiable without the original
    /// spec file.
    pub spec: Json,
    /// The result.
    pub payload: CellPayload,
    /// Which execution tier produced the payload. `ServeTier::Analytic`
    /// marks summaries answered by the closed-form tier (replication-
    /// invariant cells); `eacp store verify` re-derives such cells through
    /// the same tier, so the byte-comparison stays meaningful. Serialized
    /// only when analytic — Monte-Carlo entries keep their historical
    /// bytes.
    pub served: ServeTier,
    /// Where this entry was loaded from (`None` for freshly computed
    /// entries). Never serialized — diagnostics provenance, so `eacp store
    /// verify` failures can name the offending artifact.
    pub source: Option<PathBuf>,
}

// Like `RunReport`: provenance is where the entry came from, not part of
// the result, so a loaded entry compares equal to its recomputation.
impl PartialEq for CellEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell
            && self.policy == other.policy
            && self.spec == other.spec
            && self.payload == other.payload
            && self.served == other.served
    }
}

impl CellEntry {
    /// Builds the entry recording `summary` as `cell`'s result, filed
    /// under `id` — the [`StoreCell::cell_id`] the caller already looked
    /// up, so a point is hashed once.
    pub fn record<C: StoreCell>(
        cell: &C,
        id: CellId,
        summary: &C::Summary,
        served: ServeTier,
    ) -> Self {
        Self {
            cell: id,
            policy: cell.policy_label(),
            spec: cell.cell_spec_json(),
            payload: C::payload(summary),
            served,
            source: None,
        }
    }

    /// Builds the entry recording a Monte-Carlo run of `spec`.
    pub fn summary(spec: &ExperimentSpec, summary: &Summary) -> Self {
        Self::record(spec, spec.cell_id(), summary, ServeTier::Mc)
    }

    /// Builds the entry recording a single raw-seed execution of `spec`.
    pub fn outcome(spec: &ExperimentSpec, outcome: &RunOutcome) -> Self {
        Self {
            cell: CellId::for_single(spec),
            policy: spec.policy.policy_name().to_owned(),
            spec: spec.cell_spec_json(),
            payload: CellPayload::Outcome(outcome.clone()),
            served: ServeTier::Mc,
            source: None,
        }
    }

    /// The `C`-kind aggregate, for that kind's cells.
    pub fn summary_of<C: StoreCell>(&self) -> Result<&C::Summary, SpecError> {
        C::summary_in(&self.payload).ok_or_else(|| {
            SpecError::invalid(format!("cell {} does not hold a {}", self.cell, C::PAYLOAD))
        })
    }

    /// The single-task Monte-Carlo aggregate, for summary cells.
    pub fn as_summary(&self) -> Result<&Summary, SpecError> {
        self.summary_of::<ExperimentSpec>()
    }

    /// The single-execution outcome, for `replications == 0` cells.
    pub fn as_outcome(&self) -> Result<&RunOutcome, SpecError> {
        match &self.payload {
            CellPayload::Outcome(o) => Ok(o),
            _ => Err(SpecError::invalid(format!(
                "cell {} does not hold a single-execution outcome",
                self.cell
            ))),
        }
    }

    /// Internal-consistency check: the embedded spec re-hashes to the
    /// cell's address, and the payload kind, replication count and anomaly
    /// discipline match the key. Backends run this on every read so a
    /// corrupt or tampered entry surfaces as a quarantine, never as a
    /// silently wrong cache hit.
    pub fn validate(&self) -> Result<(), SpecError> {
        let rehashed = SpecHash::of(&self.spec);
        if rehashed != self.cell.spec_hash {
            return Err(SpecError::invalid(format!(
                "cell {}: embedded spec re-hashes to {rehashed}",
                self.cell
            )));
        }
        if self.served == ServeTier::Analytic && !matches!(self.payload, CellPayload::Summary(_)) {
            return Err(SpecError::invalid(format!(
                "cell {}: only Monte-Carlo summaries can be served analytically",
                self.cell
            )));
        }
        let covered = match &self.payload {
            CellPayload::Outcome(o) => {
                if self.cell.replications != 0 {
                    return Err(SpecError::invalid(format!(
                        "cell {}: single-execution payload in a Monte-Carlo cell",
                        self.cell
                    )));
                }
                if o.anomaly.is_some() {
                    return Err(SpecError::invalid(format!(
                        "cell {}: anomalous outcomes are never recorded",
                        self.cell
                    )));
                }
                return Ok(());
            }
            CellPayload::Summary(s) => s.replications,
            CellPayload::Executive(s) => s.horizons,
        };
        if self.cell.replications == 0 {
            return Err(SpecError::invalid(format!(
                "cell {}: Monte-Carlo payload in a single-execution cell",
                self.cell
            )));
        }
        if covered != self.cell.replications {
            return Err(SpecError::invalid(format!(
                "cell {}: payload covers {covered} replications",
                self.cell
            )));
        }
        Ok(())
    }

    /// Reads a parsed entry document, moving its embedded spec out of
    /// `json` instead of copying it: how a store hit decodes an entry.
    pub fn from_document(mut json: Json) -> Result<Self, SpecError> {
        let spec = json.take("spec");
        Self::read(&json, spec)
    }

    /// Reads every field of an entry document but its spec, which the
    /// caller has taken out of it (or failed to).
    fn read(json: &Json, spec: Result<Json, SpecError>) -> Result<Self, SpecError> {
        let cell = CellId {
            spec_hash: SpecHash::from_hex(json.req("spec_hash")?.as_str()?)?,
            seed: json.req("seed")?.as_u64()?,
            replications: json.req("replications")?.as_u64()?,
        };
        let payload = match json.req("kind")?.as_str()? {
            "summary" => CellPayload::Summary(Summary::from_json(json.req("payload")?)?),
            "outcome" => CellPayload::Outcome(outcome_from_json(json.req("payload")?)?),
            "executive" => {
                CellPayload::Executive(ExecutiveSummary::from_json(json.req("payload")?)?)
            }
            other => {
                return Err(SpecError::invalid(format!(
                    "unknown cell payload kind {other:?} \
                     (expected summary, outcome or executive)"
                )))
            }
        };
        Ok(Self {
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

    /// The canonical serialized bytes of this entry — exactly what a
    /// backend persists, and what `eacp store verify` compares against a
    /// recomputation.
    pub fn canonical_text(&self) -> String {
        self.to_json_string()
    }
}

impl ToJson for CellEntry {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let kind = match &self.payload {
            CellPayload::Summary(_) => "summary",
            CellPayload::Outcome(_) => "outcome",
            CellPayload::Executive(_) => "executive",
        };
        w.object(|w| {
            w.field("spec_hash", &self.cell.spec_hash.to_string());
            w.field("seed", &self.cell.seed);
            w.field("replications", &self.cell.replications);
            w.field("policy", &self.policy);
            // Emitted only for analytic cells: Monte-Carlo entries keep
            // their historical canonical bytes.
            if self.served != ServeTier::Mc {
                w.field("served", self.served.as_str());
            }
            w.field("spec", &self.spec);
            w.field("kind", kind);
            w.key("payload");
            match &self.payload {
                CellPayload::Summary(s) => s.write_json(w),
                CellPayload::Outcome(o) => write_outcome(w, o),
                // ExecutiveSummary's own ToJson is already lossless (raw
                // accumulator state), so the entry embeds it verbatim.
                CellPayload::Executive(s) => s.write_json(w),
            }
        });
    }
}

impl FromJson for CellEntry {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Self::read(json, json.req("spec").cloned())
    }
}

// Summary/OnlineStats cells persist through the spec layer's lossless
// `ToJson`/`FromJson` impls (raw accumulator state, same wire shape as
// the remote execution transport) — see `eacp_spec::report`.

/// Anomalous runs are never recorded (they indicate policy bugs, and the
/// store must not launder one into a cache hit), so the serialized outcome
/// has no anomaly field and deserialization always yields `anomaly: None`.
fn write_outcome(w: &mut JsonWriter<'_>, o: &RunOutcome) {
    w.object(|w| {
        w.field("completed", &o.completed);
        w.field("timely", &o.timely);
        w.field("finish_time", &o.finish_time);
        w.field("energy", &o.energy);
        w.field("faults", &o.faults);
        w.field("rollbacks", &o.rollbacks);
        w.field("store_checkpoints", &o.store_checkpoints);
        w.field("compare_checkpoints", &o.compare_checkpoints);
        w.field("compare_store_checkpoints", &o.compare_store_checkpoints);
        w.field("segments", &o.segments);
        w.field("speed_switches", &o.speed_switches);
        w.field("cycles_at_fastest", &o.cycles_at_fastest);
        w.field("total_cycles", &o.total_cycles);
        w.field("aborted", &o.aborted);
    });
}

fn outcome_from_json(json: &Json) -> Result<RunOutcome, SpecError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_exec::run;
    use eacp_spec::McSpec;

    fn small_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: 80,
            seed: 11,
            threads: 1,
        };
        spec
    }

    #[test]
    fn summary_entry_round_trips_bit_exactly() {
        let spec = small_spec();
        let (summary, _) = run(&spec).unwrap();
        let entry = CellEntry::summary(&spec, &summary);
        entry.validate().unwrap();
        let text = entry.canonical_text();
        let back = CellEntry::from_json(&Json::parse(&text).unwrap()).unwrap();
        back.validate().unwrap();
        assert_eq!(back, entry);
        assert_eq!(back.canonical_text(), text);
        // The payload round-trip is lossless to the bit, not just to the
        // serialized text: the reconstructed Summary equals the original.
        assert_eq!(back.as_summary().unwrap(), &summary);
    }

    #[test]
    fn outcome_entry_round_trips_and_uses_the_sentinel() {
        let spec = small_spec();
        let scenario = spec.scenario.build().unwrap();
        let mut policy = spec.policy.build().unwrap();
        let mut faults = spec.faults.build(spec.mc.seed).unwrap();
        let options = spec.executor.build().unwrap();
        let out = eacp_sim::Executor::new(&scenario)
            .with_options(options)
            .run(&mut policy, &mut faults);
        let entry = CellEntry::outcome(&spec, &out);
        assert_eq!(entry.cell.replications, 0);
        entry.validate().unwrap();
        let back = CellEntry::from_json(&Json::parse(&entry.canonical_text()).unwrap()).unwrap();
        assert_eq!(back.as_outcome().unwrap(), &out);
        assert!(back.as_summary().is_err());
    }

    #[test]
    fn validate_rejects_mismatched_entries() {
        let spec = small_spec();
        let (summary, _) = run(&spec).unwrap();
        let entry = CellEntry::summary(&spec, &summary);

        let mut wrong_hash = entry.clone();
        wrong_hash.cell.spec_hash = SpecHash([0u8; 32]);
        assert!(wrong_hash.validate().is_err());

        let mut wrong_reps = entry.clone();
        wrong_reps.cell.replications += 1;
        assert!(wrong_reps.validate().is_err());

        let mut sentinel_summary = entry.clone();
        sentinel_summary.cell.replications = 0;
        assert!(sentinel_summary.validate().is_err());
    }

    #[test]
    fn experiment_spec_reconstruction_lands_in_the_same_cell() {
        let spec = small_spec();
        let (summary, _) = run(&spec).unwrap();
        let entry = CellEntry::summary(&spec, &summary);
        let rebuilt = ExperimentSpec::from_entry(&entry).unwrap();
        assert_eq!(rebuilt.cell_id(), entry.cell);
        // Re-running the reconstructed spec reproduces the payload.
        let (again, _) = run(&rebuilt).unwrap();
        assert_eq!(&again, entry.as_summary().unwrap());
    }
}
