//! The sharded sweep executor: partition a grid of [`Cell`]s across
//! machines by index range, emit per-shard report documents, and
//! reassemble the full grid — failing loudly on anything suspicious.
//!
//! Written once over [`Cell`] and its [`Grid`], so single-task
//! [`SweepSpec`] grids and executive [`ExecutiveSweepSpec`] grids share
//! every rule below. A grid's expansion derives each point's seed from
//! its flat index, so a point produces the same report no matter which
//! shard (or machine, or runner) computed it. The workflow:
//!
//! ```text
//! eacp sweep --spec grid.json --shard 0/3 --out reports/   # machine 0
//! eacp sweep --spec grid.json --shard 1/3 --out reports/   # machine 1
//! eacp sweep --spec grid.json --shard 2/3 --out reports/   # machine 2
//! eacp merge reports/ --out grid-report.json               # anywhere
//! ```
//!
//! (`eacp executive --sweep grid.json` shards the same way.) The merged
//! document is bit-identical to what an unsharded run writes (the
//! unsharded document is simply the one-shard special case), and
//! [`merge_dir`] refuses to produce a grid report when a shard is missing,
//! a grid point is duplicated, or a point's embedded spec does not match
//! the sweep it claims to belong to.
//!
//! [`SweepSpec`]: eacp_spec::SweepSpec
//! [`ExecutiveSweepSpec`]: eacp_spec::ExecutiveSweepSpec

use crate::cell::{point_error, Cell};
use crate::runner::{LocalRunner, Runner};
use eacp_spec::{ExperimentSpec, FromJson, Grid, Json, JsonWriter, SpecError, ToJson};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One shard of a sweep: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardId {
    /// Zero-based shard index.
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

impl ShardId {
    /// Creates a validated shard id.
    ///
    /// # Errors
    ///
    /// `count == 0` and `index >= count` are [`SpecError`]s, not silent
    /// empty shards.
    pub fn new(index: u64, count: u64) -> Result<Self, SpecError> {
        if count == 0 {
            return Err(SpecError::invalid(
                "shard count must be positive (got 0 shards)",
            ));
        }
        if index >= count {
            return Err(SpecError::invalid(format!(
                "shard index {index} is out of range for {count} shards \
                 (valid: 0..{count})"
            )));
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI form `i/n` (e.g. `--shard 1/3`).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let Some((i, n)) = text.split_once('/') else {
            return Err(SpecError::invalid(format!(
                "shard must be written as index/count, e.g. 0/3 (got {text:?})"
            )));
        };
        let parse = |s: &str, what: &str| -> Result<u64, SpecError> {
            s.trim().parse().map_err(|_| {
                SpecError::invalid(format!("shard {what} {s:?} is not a non-negative integer"))
            })
        };
        Self::new(parse(i, "index")?, parse(n, "count")?)
    }

    /// The contiguous grid-index range this shard owns out of `total`
    /// points (the ranges of all `count` shards tile `0..total` exactly).
    ///
    /// The partition is balanced: shard sizes differ by at most one (the
    /// first `total % count` shards carry the extra point), so every shard
    /// is non-empty whenever `total >= count`. The old `div_ceil` chunking
    /// starved trailing shards — 4 points over 3 shards came out 2/2/0,
    /// leaving machine 2 idle while machine 0 ran double load.
    pub fn range(&self, total: usize) -> std::ops::Range<usize> {
        let count = self.count as usize;
        let index = self.index as usize;
        let base = total / count;
        let extra = total % count;
        let lo = index * base + index.min(extra);
        let hi = lo + base + usize::from(index < extra);
        lo..hi
    }

    pub(crate) fn from_json(json: &Json) -> Result<Self, SpecError> {
        Self::new(json.req("index")?.as_u64()?, json.req("count")?.as_u64()?)
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One grid point's result, tagged with its flat grid index.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport<C: Cell = ExperimentSpec> {
    /// Flat index into the sweep's expansion order.
    pub index: usize,
    /// The point's full report (spec embedded for provenance).
    pub report: C::Report,
}

/// A sweep result document: the whole grid, or one shard of it.
#[derive(Debug, Clone)]
pub struct GridReport<C: Cell = ExperimentSpec> {
    /// The grid that produced (or will reproduce) these points.
    pub sweep: Grid<C>,
    /// Total grid points in the full sweep (not just this document).
    pub total_points: usize,
    /// Which shard this document covers (`None` = the full grid).
    pub shard: Option<ShardId>,
    /// Covered points, ascending by grid index.
    pub points: Vec<PointReport<C>>,
    /// Where this document was loaded from (`None` for freshly computed
    /// grids). Never serialized — diagnostics provenance only, so merge
    /// failures can name the artifact a bad point came from.
    pub source: Option<PathBuf>,
}

// Like `RunReport`: provenance is where the document came from, not part
// of the result, so a loaded shard compares equal to its recomputation.
impl<C: Cell> PartialEq for GridReport<C> {
    fn eq(&self, other: &Self) -> bool {
        self.sweep == other.sweep
            && self.total_points == other.total_points
            && self.shard == other.shard
            && self.points == other.points
    }
}

impl<C: Cell> GridReport<C> {
    /// The canonical file name: `grid.json` for a full grid,
    /// `shard-I-of-N.json` for one shard.
    pub fn file_name(&self) -> String {
        match self.shard {
            None => "grid.json".to_owned(),
            Some(s) => format!("shard-{}-of-{}.json", s.index, s.count),
        }
    }

    /// Writes the document into `dir` (created if absent) under its
    /// canonical [`GridReport::file_name`]; returns the written path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, SpecError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| SpecError::Io(format!("{}: {e}", dir.display())))?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json_string())
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        Ok(path)
    }

    /// Reads one document.
    ///
    /// # Errors
    ///
    /// Every failure — unreadable file, malformed/truncated JSON, a
    /// document that is not a report of this kind — carries the offending
    /// file path, so a corrupt shard in a big collection directory is
    /// identifiable without bisecting.
    pub fn load(path: &Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        let json = Json::parse(&text)
            .map_err(|e| SpecError::invalid(format!("{}: {e}", path.display())))?;
        let mut doc = Self::from_json(&json).map_err(|e| {
            SpecError::invalid(format!(
                "{}: invalid {} report document: {e}",
                path.display(),
                C::KIND
            ))
        })?;
        doc.source = Some(path.to_path_buf());
        Ok(doc)
    }
}

impl<C: Cell> ToJson for GridReport<C> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("sweep", &self.sweep);
            w.field("total_points", &self.total_points);
            if let Some(shard) = &self.shard {
                w.key("shard");
                w.object(|w| {
                    w.field("index", &shard.index);
                    w.field("count", &shard.count);
                });
            }
            w.key("points");
            w.array(|w| {
                for point in &self.points {
                    w.object(|w| {
                        w.field("index", &point.index);
                        w.field("report", &point.report);
                    });
                }
            });
        });
    }
}

impl<C: Cell> FromJson for GridReport<C> {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let shard = match json.get("shard") {
            None | Some(Json::Null) => None,
            Some(s) => Some(ShardId::from_json(s)?),
        };
        let mut points = Vec::new();
        for item in json.req("points")?.as_array()? {
            points.push(PointReport {
                index: item.req("index")?.as_usize()?,
                report: C::Report::from_json(item.req("report")?)?,
            });
        }
        Ok(Self {
            sweep: Grid::from_json(json.req("sweep")?)?,
            total_points: json.req("total_points")?.as_usize()?,
            shard,
            points,
            source: None,
        })
    }
}

/// Expands a sweep and produces the selected shard's document (or, with
/// `shard = None`, the whole grid's), computing each point with `point`.
///
/// The plain executor below and the result store's cache-or-compute sweep
/// share the one grid loop ([`grid_report`]); the store computes point by
/// point, so each cell is recorded before the next starts.
///
/// # Errors
///
/// Per-point failures are wrapped with the grid index and point name.
pub fn run_grid<C: Cell>(
    sweep: &Grid<C>,
    shard: Option<ShardId>,
    mut point: impl FnMut(&C) -> Result<C::Report, SpecError>,
) -> Result<GridReport<C>, SpecError> {
    grid_report(sweep, shard, |cells, range| {
        range
            .map(|index| {
                let cell = &cells[index];
                let report = point(cell).map_err(|e| point_error(index, cell, e))?;
                Ok(PointReport { index, report })
            })
            .collect()
    })
}

/// Expands a sweep, selects the shard's index range and assembles the
/// document from the `points` of the expansion's cells in that range, in
/// order.
fn grid_report<C: Cell>(
    sweep: &Grid<C>,
    shard: Option<ShardId>,
    points: impl FnOnce(&[C], Range<usize>) -> Result<Vec<PointReport<C>>, SpecError>,
) -> Result<GridReport<C>, SpecError> {
    let cells = sweep.expand()?;
    let total = cells.len();
    let range = shard.map_or(0..total, |s| s.range(total));
    let points = points(&cells, range)?;
    Ok(GridReport {
        sweep: sweep.clone(),
        total_points: total,
        shard,
        points,
        source: None,
    })
}

/// Runs a sweep shard on a [`LocalRunner`] with `threads` workers.
pub fn run_sweep<C: Cell>(
    sweep: &Grid<C>,
    shard: Option<ShardId>,
    threads: usize,
) -> Result<GridReport<C>, SpecError> {
    run_sweep_tiered(sweep, shard, &LocalRunner::new(threads), true)
}

/// Runs a sweep shard on an explicit [`Runner`], with the closed-form
/// serve tier enabled or disabled (`analytic = false` is the CLI's
/// `--no-analytic`).
///
/// Any runner honoring the determinism contract (summaries are a pure
/// function of the job) produces the same report document here.
/// Replication-invariant single-task points — `λ = 0` corners of a
/// fault-rate axis, deterministic-schedule cells — are answered
/// analytically and marked `served: analytic` in their point reports.
///
/// The shard's cells are computed in one call ([`Cell::compute_grid`]):
/// single-task grids answer their analytic cells first and hand every
/// other cell to [`Runner::run_jobs`] at once, so a work-queue runner
/// leases the whole grid from one queue.
pub fn run_sweep_tiered<C: Cell>(
    sweep: &Grid<C>,
    shard: Option<ShardId>,
    runner: &dyn Runner,
    analytic: bool,
) -> Result<GridReport<C>, SpecError> {
    grid_report(sweep, shard, |cells, range| {
        C::compute_grid(cells, range, runner, analytic)
    })
}

/// Lists the `.json` report documents in `dir`, sorted by path — the one
/// directory-enumeration rule shared by [`merge_dir`] and the CLI's
/// `csv` loader, so both commands always see the same document set.
pub fn list_report_files(dir: &Path) -> Result<Vec<PathBuf>, SpecError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| SpecError::Io(format!("{}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Reads every `*.json` document in `dir` and reassembles the full grid.
///
/// # Errors
///
/// Fails loudly — with a [`SpecError`] naming the offending file or grid
/// index — when:
///
/// * the directory holds no report documents, or a `.json` file is not a
///   report document of this kind;
/// * documents disagree on the sweep spec, total point count, or shard
///   count (a mixed-up directory);
/// * a grid point is covered twice (duplicated shard), is missing
///   (withheld shard), or embeds a spec that does not match the sweep's
///   expansion at its index (tampered or foreign report).
pub fn merge_dir<C: Cell>(dir: &Path) -> Result<GridReport<C>, SpecError> {
    let SweepDocs {
        docs,
        total,
        expected,
        ..
    } = load_sweep_docs::<C>(dir)?;
    let sweep = docs[0].1.sweep.clone();

    // Point coverage: exactly once each, spec-faithful.
    let mut slots: Vec<Option<PointReport<C>>> = vec![None; total];
    for (path, doc) in &docs {
        for point in &doc.points {
            if point.index >= total {
                return Err(SpecError::invalid(format!(
                    "{}: grid point {} is out of range for a {total}-point sweep",
                    path.display(),
                    point.index
                )));
            }
            if slots[point.index].is_some() {
                return Err(SpecError::invalid(format!(
                    "{}: grid point {} is covered twice — duplicated shard?",
                    path.display(),
                    point.index
                )));
            }
            let embedded = C::of_report(&point.report);
            if *embedded != expected[point.index] {
                return Err(SpecError::invalid(format!(
                    "{}: grid point {}'s embedded spec does not match the \
                     sweep expansion (expected {:?}, found {:?})",
                    path.display(),
                    point.index,
                    expected[point.index].name(),
                    embedded.name()
                )));
            }
            slots[point.index] = Some(point.clone());
        }
    }
    let missing: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    if !missing.is_empty() {
        return Err(SpecError::invalid(format!(
            "incomplete grid: {} of {total} points missing (indices {:?}{}) — \
             withheld shard?",
            missing.len(),
            &missing[..missing.len().min(8)],
            if missing.len() > 8 { ", ..." } else { "" }
        )));
    }

    Ok(GridReport {
        sweep,
        total_points: total,
        shard: None,
        // audit:allow(panic): the `missing` check above already rejected
        // grids with any unfilled slot.
        points: slots.into_iter().map(|s| s.expect("checked")).collect(),
        source: None,
    })
}

/// A directory of report documents proven to belong to one sweep.
struct SweepDocs<C: Cell> {
    /// `(path, document)` pairs in path order.
    docs: Vec<(PathBuf, GridReport<C>)>,
    /// The validated total point count (equals `expected.len()`).
    total: usize,
    /// The sweep's expansion, for per-point spec checks.
    expected: Vec<C>,
    /// Shard count declared by the shard documents, when any declare one.
    shard_count: Option<u64>,
}

/// Loads every `*.json` document in `dir` and validates cross-document
/// consistency — the shared front half of [`merge_dir`] and
/// [`coverage_dir`].
///
/// Checks: at least one document; every document parses (errors name the
/// file, via [`GridReport::load`]); all documents carry the same sweep
/// spec, declared total and shard count; and the declared total matches
/// the sweep's expansion *before* it is ever used as an allocation or
/// iteration bound — a corrupt or tampered `total_points` must surface as
/// a [`SpecError`] naming the file, not as a capacity-overflow panic or a
/// multi-terabyte allocation.
fn load_sweep_docs<C: Cell>(dir: &Path) -> Result<SweepDocs<C>, SpecError> {
    let paths = list_report_files(dir)?;
    if paths.is_empty() {
        return Err(SpecError::invalid(format!(
            "{}: no .json report documents found",
            dir.display()
        )));
    }

    let mut docs = Vec::with_capacity(paths.len());
    for path in paths {
        let doc = GridReport::<C>::load(&path)?;
        docs.push((path, doc));
    }

    let (first_path, first) = &docs[0];
    let sweep_fingerprint = first.sweep.to_json_string();
    let total = first.total_points;
    let mut shard_count: Option<u64> = None;
    for (path, doc) in &docs {
        if doc.sweep.to_json_string() != sweep_fingerprint {
            return Err(SpecError::invalid(format!(
                "{}: sweep spec differs from {} — these shards are not from \
                 the same sweep",
                path.display(),
                first_path.display()
            )));
        }
        if doc.total_points != total {
            return Err(SpecError::invalid(format!(
                "{}: declares {} total points, {} declares {total}",
                path.display(),
                doc.total_points,
                first_path.display()
            )));
        }
        if let Some(s) = doc.shard {
            match shard_count {
                None => shard_count = Some(s.count),
                Some(c) if c != s.count => {
                    return Err(SpecError::invalid(format!(
                        "{}: shard count {} conflicts with earlier shard count {c}",
                        path.display(),
                        s.count
                    )))
                }
                Some(_) => {}
            }
        }
    }

    let expected = first
        .sweep
        .expand()
        .map_err(|e| SpecError::invalid(format!("{}: {e}", first_path.display())))?;
    if expected.len() != total {
        return Err(SpecError::invalid(format!(
            "{}: declares {total} total points but its embedded sweep \
             expands to {} — corrupt or tampered document",
            first_path.display(),
            expected.len()
        )));
    }
    Ok(SweepDocs {
        docs,
        total,
        expected,
        shard_count,
    })
}

/// Coverage of one report document in a collection directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocCoverage {
    /// The document's path.
    pub path: PathBuf,
    /// Which shard it claims to cover (`None` = a full-grid document).
    pub shard: Option<ShardId>,
    /// The grid indices the document actually covers, ascending.
    pub indices: Vec<usize>,
}

/// Completion state of a sweep's result-collection directory — what
/// `eacp queue status` renders while shards are still trickling in.
///
/// Unlike [`merge_dir`], missing or duplicated points are *reported*, not
/// errors: the whole purpose is to see how far a distributed sweep has
/// progressed and which shards are still owed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCoverage {
    /// The sweep's base experiment name.
    pub sweep_name: String,
    /// Total grid points in the full sweep.
    pub total_points: usize,
    /// Shard count declared by the shard documents, when any declare one.
    pub shard_count: Option<u64>,
    /// Per-document coverage, in path order.
    pub docs: Vec<DocCoverage>,
    /// Grid indices covered by no document, ascending.
    pub missing: Vec<usize>,
    /// Grid indices covered by more than one document, ascending.
    pub duplicated: Vec<usize>,
}

impl SweepCoverage {
    /// Points covered at least once.
    pub fn covered(&self) -> usize {
        self.total_points - self.missing.len()
    }

    /// Whether the directory is ready to [`merge_dir`]: every point
    /// covered exactly once.
    pub fn complete(&self) -> bool {
        self.missing.is_empty() && self.duplicated.is_empty()
    }
}

/// Inspects a result-collection directory: which grid points the present
/// documents cover, which are missing, which are duplicated.
///
/// # Errors
///
/// Unreadable or malformed documents, and documents from *different*
/// sweeps mixed into one directory, are still loud [`SpecError`]s naming
/// the offending file — only incomplete/duplicated coverage is tolerated.
pub fn coverage_dir<C: Cell>(dir: &Path) -> Result<SweepCoverage, SpecError> {
    // Same loading and consistency rules as `merge_dir` — including the
    // total_points-vs-expansion guard, so a lying document cannot make
    // the status pass iterate a fantasy-sized grid.
    let SweepDocs {
        docs,
        total,
        shard_count,
        ..
    } = load_sweep_docs::<C>(dir)?;
    let sweep_name = docs[0].1.sweep.base.name().to_owned();

    let mut hits: std::collections::BTreeMap<usize, usize> = Default::default();
    let docs: Vec<DocCoverage> = docs
        .into_iter()
        .map(|(path, doc)| {
            let mut indices: Vec<usize> = doc.points.iter().map(|p| p.index).collect();
            indices.sort_unstable();
            for &i in &indices {
                *hits.entry(i).or_insert(0) += 1;
            }
            DocCoverage {
                path,
                shard: doc.shard,
                indices,
            }
        })
        .collect();
    let missing = (0..total).filter(|i| !hits.contains_key(i)).collect();
    let duplicated = hits
        .iter()
        .filter_map(|(&i, &n)| (n > 1).then_some(i))
        .collect();
    Ok(SweepCoverage {
        sweep_name,
        total_points: total,
        shard_count,
        docs,
        missing,
        duplicated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_validates() {
        assert_eq!(
            ShardId::parse("1/3").unwrap(),
            ShardId { index: 1, count: 3 }
        );
        for bad in ["", "3", "a/b", "1/0", "3/3", "4/3"] {
            let err = ShardId::parse(bad).unwrap_err();
            assert!(matches!(err, SpecError::Invalid(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn shard_ranges_tile_the_grid_exactly() {
        for total in [0usize, 1, 4, 7, 10] {
            for count in [1u64, 2, 3, 5, 8] {
                let mut covered = Vec::new();
                for index in 0..count {
                    let r = ShardId::new(index, count).unwrap().range(total);
                    covered.extend(r);
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>(), "{total}/{count}");
            }
        }
    }

    #[test]
    fn shard_partition_is_balanced_and_leaves_no_shard_empty() {
        // The regression that motivated the fix: 4 points over 3 shards
        // must come out 2/1/1, not 2/2/0.
        let sizes: Vec<usize> = (0..3)
            .map(|i| ShardId::new(i, 3).unwrap().range(4).len())
            .collect();
        assert_eq!(sizes, vec![2, 1, 1]);
        for total in [1usize, 2, 5, 7, 16, 97] {
            for count in [1u64, 2, 3, 5, 8, 16] {
                let sizes: Vec<usize> = (0..count)
                    .map(|i| ShardId::new(i, count).unwrap().range(total).len())
                    .collect();
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced {sizes:?} for {total}/{count}");
                if total >= count as usize {
                    assert!(min >= 1, "empty shard in {sizes:?} for {total}/{count}");
                }
            }
        }
    }
}
