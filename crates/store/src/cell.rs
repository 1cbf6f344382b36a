//! Store cells: what a result is keyed by and what an entry holds.
//!
//! A **cell** is one reproducible unit of computation: a canonical cell
//! spec (content-addressed by [`SpecHash`]) plus the Monte-Carlo seed and
//! replication count. Every field of the key is an exact input to the
//! deterministic simulator, so a cell's result never goes stale — the only
//! way to get a different answer is to ask a different cell.
//!
//! [`StoreCell`] is where each workload kind makes its hashing decision:
//! which fields of its spec are result-neutral and left out of the hashed
//! text, which fields key the cell alongside the hash, and which
//! [`CellPayload`] variant holds its summary. Both kinds' rules live in
//! this module, next to the key and entry types they feed.
//!
//! The canonical cell spec is text, written straight from the spec: the
//! spec layer's writer writes the spec's pretty JSON with a member
//! filter per kind ([`eacp_spec::json::pretty_omitting`]), so no document
//! tree is built to address a cell. That text is what is hashed, what an
//! entry embeds (indented one level) and what [`CellEntry::spec`] holds.
//! Reading an entry back compares the embedded spec's bytes with the text
//! the lookup just hashed; only an embedded spec that differs from it (an
//! entry reformatted by hand, or one that belongs to another cell) is
//! parsed and printed again, so it is served, or quarantined, exactly as
//! its canonical text says.
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
//! each [`OnlineStats`](eacp_numerics::OnlineStats) via its raw `(count,
//! mean, m2, min, max)` state, which round-trips bit-for-bit through the
//! spec layer's shortest-round-trip float formatting — the property that
//! makes a cache hit byte-identical to recomputation.

use crate::hash::{with_last_text, SpecHash};
use eacp_exec::{Cell, ExecutiveSummary};
use eacp_sim::{RunOutcome, Summary};
use eacp_spec::json::pretty_omitting;
use eacp_spec::{
    ExecutiveSpec, ExperimentSpec, FromJson, Json, JsonReader, JsonWriter, Knob, ServeTier,
    SpecError, ToJson,
};
use std::path::PathBuf;

/// A [`Cell`] the store can key and hold: one workload kind's cell key
/// (hash-strip rule, seed, replication count) and payload mapping.
pub trait StoreCell: Cell {
    /// What this kind's payload is called in wrong-kind errors.
    const PAYLOAD: &'static str;

    /// The canonical cell-spec text: the spec's pretty JSON without its
    /// result-neutral members, written by the writer's member filter.
    /// This is the exact text that gets hashed and the exact text an
    /// entry embeds, so a stored document always re-hashes to its own
    /// address.
    fn cell_spec_text(&self) -> String;

    /// The entry's `policy` column.
    fn policy_label(&self) -> String;

    /// Wraps a summary as this kind's payload.
    fn payload(summary: &Self::Summary) -> CellPayload;

    /// This kind's summary in `payload`, if it holds one.
    fn summary_in(payload: &CellPayload) -> Option<&Self::Summary>;

    /// Reconstructs a runnable cell from an entry's canonical text plus
    /// its key — what `eacp store verify` re-executes. Left-out fields
    /// take their defaults (`threads = 0`, which cannot change the
    /// result).
    ///
    /// # Errors
    ///
    /// A canonical text that does not parse as this kind's spec.
    fn from_entry(entry: &CellEntry) -> Result<Self, SpecError> {
        let mut cell = Self::from_json(&Json::parse(&entry.spec)?)?;
        cell.set(Knob::Seed(entry.cell.seed))?;
        cell.set_mc(Some(entry.cell.replications.max(1)), Some(0));
        Ok(cell)
    }

    /// The cell a Monte-Carlo run of this spec lands in.
    fn cell_id(&self) -> CellId {
        CellId {
            spec_hash: SpecHash::of(&self.cell_spec_text()),
            seed: self.seed(),
            replications: self.replications(),
        }
    }
}

/// Single-task cells leave out `name` (a human label), `mc` (seed and
/// replications key the cell alongside the hash; the thread count is
/// proven result-neutral) and `executor.queue` (work-queue scheduling is
/// proven bit-identical to the local runner — placement, not physics).
impl StoreCell for ExperimentSpec {
    const PAYLOAD: &'static str = "single-task Monte-Carlo summary";

    fn cell_spec_text(&self) -> String {
        pretty_omitting(&["name", "mc", "executor.queue"], |w| self.write_json(w))
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

/// Executive cells leave out `name`, `seed` (keys the cell alongside the
/// hash, like `mc.seed` for single-task cells) and `mc` (the horizon
/// count keys the cell; threads and queue scheduling are proven
/// bit-identical by the canonical-reduction contract).
impl StoreCell for ExecutiveSpec {
    const PAYLOAD: &'static str = "executive Monte-Carlo summary";

    fn cell_spec_text(&self) -> String {
        pretty_omitting(&["name", "seed", "mc"], |w| self.write_json(w))
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
    /// The canonical cell-spec text ([`StoreCell::cell_spec_text`]) —
    /// embedded so an entry is self-describing and re-verifiable without
    /// the original spec file.
    pub spec: String,
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
            spec: cell.cell_spec_text(),
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
            spec: spec.cell_spec_text(),
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
    /// silently wrong cache hit. On a hit the spec is the text the lookup
    /// just hashed, so the re-hash is a string compare against the digest
    /// memo.
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

    /// The canonical serialized bytes of this entry — exactly what a
    /// backend persists, and what `eacp store verify` compares against a
    /// recomputation.
    pub fn canonical_text(&self) -> String {
        self.to_json_string()
    }
}

impl ToJson for CellEntry {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
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
            w.key("spec");
            w.pretty(&self.spec);
            w.field("kind", PayloadKind::of(&self.payload).as_str());
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

/// An entry's one decoding body, over its file's text (a store hit) or a
/// tree's printed text (`from_json`). Members are read in any order; the
/// checks run in a fixed order, so a damaged entry gets the same error
/// however its members are ordered.
impl FromJson for CellEntry {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        JsonReader::text(&json.pretty()).read()
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SpecError> {
        // In the order they are checked; `served` alone is optional.
        const FIELDS: [&str; 8] = [
            "spec_hash",
            "seed",
            "replications",
            "kind",
            "payload",
            "policy",
            "spec",
            "served",
        ];
        let mut cell = CellId {
            spec_hash: SpecHash([0; 32]),
            seed: 0,
            replications: 0,
        };
        let (mut kind, mut payload, mut early_payload) = (None, None, None);
        let (mut policy, mut spec, mut served) = (String::new(), String::new(), ServeTier::Mc);
        let mut m = r.object(&FIELDS, &mut |r, i| {
            match i {
                0 => cell.spec_hash = SpecHash::from_hex(&r.string()?)?,
                1 => cell.seed = r.u64()?,
                2 => cell.replications = r.u64()?,
                3 => kind = Some(PayloadKind::parse(&r.string()?)?),
                // The payload is read by its kind; one that comes first is
                // kept as a tree until the kind is known.
                4 => match kind {
                    Some(kind) => payload = Some(kind.read(r)?),
                    None => early_payload = Some(r.value()?),
                },
                5 => policy = r.string()?,
                6 => spec = with_last_text(|known| r.pretty(known))?,
                _ => served = ServeTier::parse(&r.string()?)?,
            }
            Ok(())
        });
        if let (Some(kind), Some(tree)) = (kind, &early_payload) {
            let read = JsonReader::text(&tree.pretty())
                .document(|r| kind.read(r))
                .and_then(|read| read);
            m.record(4, read.map(|read| payload = Some(read)));
        }
        m.check_required(7)?;
        Ok(Self {
            cell,
            policy,
            spec,
            payload: payload.ok_or_else(|| SpecError::invalid("entry payload unread"))?,
            served,
            source: None,
        })
    }
}

/// Which payload an entry holds: its `kind` member.
#[derive(Debug, Clone, Copy)]
enum PayloadKind {
    Summary,
    Outcome,
    Executive,
}

impl PayloadKind {
    fn of(payload: &CellPayload) -> Self {
        match payload {
            CellPayload::Summary(_) => PayloadKind::Summary,
            CellPayload::Outcome(_) => PayloadKind::Outcome,
            CellPayload::Executive(_) => PayloadKind::Executive,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            PayloadKind::Summary => "summary",
            PayloadKind::Outcome => "outcome",
            PayloadKind::Executive => "executive",
        }
    }

    fn parse(kind: &str) -> Result<Self, SpecError> {
        match kind {
            "summary" => Ok(PayloadKind::Summary),
            "outcome" => Ok(PayloadKind::Outcome),
            "executive" => Ok(PayloadKind::Executive),
            other => Err(SpecError::invalid(format!(
                "unknown cell payload kind {other:?} \
                 (expected summary, outcome or executive)"
            ))),
        }
    }

    /// Reads a payload of this kind.
    fn read(self, r: &mut JsonReader<'_>) -> Result<CellPayload, SpecError> {
        Ok(match self {
            PayloadKind::Summary => CellPayload::Summary(Summary::read_json(r)?),
            PayloadKind::Outcome => CellPayload::Outcome(read_outcome(r)?),
            PayloadKind::Executive => CellPayload::Executive(ExecutiveSummary::read_json(r)?),
        })
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

fn read_outcome(r: &mut JsonReader<'_>) -> Result<RunOutcome, SpecError> {
    const FIELDS: [&str; 14] = [
        "completed",
        "timely",
        "finish_time",
        "energy",
        "faults",
        "rollbacks",
        "store_checkpoints",
        "compare_checkpoints",
        "compare_store_checkpoints",
        "segments",
        "speed_switches",
        "cycles_at_fastest",
        "total_cycles",
        "aborted",
    ];
    let mut o = RunOutcome {
        completed: false,
        timely: false,
        finish_time: 0.0,
        energy: 0.0,
        faults: 0,
        rollbacks: 0,
        store_checkpoints: 0,
        compare_checkpoints: 0,
        compare_store_checkpoints: 0,
        segments: 0,
        speed_switches: 0,
        cycles_at_fastest: 0.0,
        total_cycles: 0.0,
        aborted: false,
        anomaly: None,
    };
    r.object(&FIELDS, &mut |r, i| {
        match i {
            0 => o.completed = r.bool()?,
            1 => o.timely = r.bool()?,
            2 => o.finish_time = r.f64()?,
            3 => o.energy = r.f64()?,
            4 => o.faults = r.u32()?,
            5 => o.rollbacks = r.u32()?,
            6 => o.store_checkpoints = r.u32()?,
            7 => o.compare_checkpoints = r.u32()?,
            8 => o.compare_store_checkpoints = r.u32()?,
            9 => o.segments = r.u32()?,
            10 => o.speed_switches = r.u64()?,
            11 => o.cycles_at_fastest = r.f64()?,
            12 => o.total_cycles = r.f64()?,
            _ => o.aborted = r.bool()?,
        }
        Ok(())
    })
    .check()?;
    Ok(o)
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
