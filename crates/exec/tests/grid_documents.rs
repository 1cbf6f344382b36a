//! Decoding grid and shard report documents, for both cell kinds.
//!
//! * A seeded mutation of a valid `--out` document — truncation, a byte
//!   flip, a rewritten digit in `total_points`, a point `index` or an axis
//!   value, a duplicated axis, an exploded axis list — never panics or
//!   aborts [`GridReport::load`], [`merge_dir`] or [`coverage_dir`]: each
//!   returns `Ok` or a `SpecError`.
//! * A merge only ever accepts the original grid points: every merged
//!   point embeds the spec it had. But grid documents carry no payload
//!   digest, so a point's payload can still be rewritten: a digit inside
//!   its summary (or a byte of its policy name) passes, because nothing
//!   re-derives it. This is pinned here as today's behavior, not
//!   endorsed.
//! * Grids too large to count or allocate are errors, and a grid with no
//!   axes expands to its base.
//! * Generated grid documents — knob axes and points axes, with `policy`
//!   values and seed offsets — round-trip through their JSON codec and
//!   expand to one cell per point.

use eacp_spec::{CostsSpec, Point, PolicySpec};

use eacp_exec::{coverage_dir, merge_dir, run_sweep, Cell, GridReport};
use eacp_spec::{
    Axis, ExecutiveMcSpec, ExecutiveSpec, ExperimentSpec, FaultSpec, Grid, Json, Knob, McSpec,
    SweepSpec, TaskSetSpec, ToJson,
};
use proptest::Strategy;
use std::path::PathBuf;

/// A cell kind under test: a 4-point grid of a two-point points axis and
/// a two-valued knob axis.
trait Fixture: Cell {
    const TAG: &'static str;
    fn grid() -> Grid<Self>;
}

impl Fixture for ExperimentSpec {
    const TAG: &'static str = "experiment";

    fn grid() -> Grid<Self> {
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "fuzz".into();
        base.mc = McSpec {
            replications: 20,
            seed: 3,
            threads: 1,
        };
        // The policy has no `k` for the k axis to overwrite, so every
        // digit of the points axis reaches the expanded cells.
        let poisson = PolicySpec::Poisson {
            lambda: 1.0e-4,
            speed: 0,
        };
        Grid {
            base,
            axes: vec![
                Axis::points([
                    Point::new([Knob::Lambda(1.0e-4), Knob::Policy(poisson)]),
                    Point::new([Knob::Lambda(1.4e-3)]).with_seed_offset(9),
                ]),
                Axis::new(Knob::K, [1, 5]),
            ],
        }
    }
}

impl Fixture for ExecutiveSpec {
    const TAG: &'static str = "executive";

    fn grid() -> Grid<Self> {
        let mut base = ExecutiveSpec::new(
            "fuzz",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        base.faults = FaultSpec::Poisson { lambda: 5e-4 };
        base.seed = 3;
        base.mc = Some(ExecutiveMcSpec {
            replications: 4,
            threads: 1,
            queue: None,
        });
        Grid {
            base,
            axes: vec![
                Axis::points([
                    Point::new([Knob::Lambda(2e-4)]),
                    Point::new([Knob::Lambda(1e-3), Knob::Utilization(0.5)]).with_seed_offset(4),
                ]),
                Axis::new(Knob::K, [1, 3]),
            ],
        }
    }
}

/// How one case damages a document.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate(usize),
    Flip(usize, u8),
    /// Rewrites the `n`th digit of `total_points`, a point index or an
    /// axis value to a different digit.
    Digit(usize, u8),
    /// Appends a copy of one axis.
    DuplicateAxis(usize),
    /// Appends this many copies of the first (two-valued) axis: 2^40
    /// points or more, past what can be allocated or counted.
    ExplodeAxes(usize),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (0u8..5, 0usize..1 << 20, 0u8..=255).prop_map(|(kind, i, b)| match kind {
        0 => Mutation::Truncate(i),
        1 => Mutation::Flip(i, b),
        2 => Mutation::Digit(i, b),
        3 => Mutation::DuplicateAxis(i),
        _ => Mutation::ExplodeAxes(40 + i % 41),
    })
}

/// Positions of the digits a [`Mutation::Digit`] may rewrite.
fn rewritable_digits(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut digits_after = |key: &str, end: Option<&str>| {
        let mut from = 0;
        while let Some(at) = text[from..].find(key) {
            let start = from + at + key.len();
            let stop = end.map_or(start, |e| start + text[start..].find(e).unwrap());
            let mut j = start;
            while j < bytes.len() && (j < stop || bytes[j].is_ascii_digit() || bytes[j] == b' ') {
                if bytes[j].is_ascii_digit() {
                    out.push(j);
                }
                j += 1;
            }
            from = start;
        }
    };
    digits_after("\"total_points\":", None);
    digits_after("\"index\":", None);
    digits_after("\"axes\":", Some("\"total_points\""));
    out
}

/// The spans of each point's report outside its embedded spec: from the
/// report-level policy key to the next point.
fn payload_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find("\n        \"policy") {
        let start = from + at;
        let end = text[start..]
            .find("\"index\"")
            .map_or(text.len(), |e| start + e);
        spans.push(start..end);
        from = end;
    }
    spans
}

/// The document's axes array, edited by `edit`.
fn with_axes(text: &str, edit: impl FnOnce(&mut Vec<Json>)) -> String {
    let mut doc = Json::parse(text).unwrap();
    let Json::Object(fields) = &mut doc else {
        panic!("a grid document is an object")
    };
    let sweep = &mut fields.iter_mut().find(|(k, _)| k == "sweep").unwrap().1;
    let Json::Object(sweep) = sweep else {
        panic!("a sweep is an object")
    };
    let axes = &mut sweep.iter_mut().find(|(k, _)| k == "axes").unwrap().1;
    let Json::Array(axes) = axes else {
        panic!("axes are an array")
    };
    edit(axes);
    doc.pretty()
}

impl Mutation {
    fn apply(self, text: &str) -> Vec<u8> {
        let mut out = text.as_bytes().to_vec();
        match self {
            Mutation::Truncate(i) => out.truncate(i % out.len()),
            Mutation::Flip(i, b) => {
                let n = out.len();
                out[i % n] = b;
            }
            Mutation::Digit(i, d) => {
                let digits = rewritable_digits(text);
                let at = digits[i % digits.len()];
                let old = out[at] - b'0';
                out[at] = b'0' + (old + 1 + d % 9) % 10;
            }
            Mutation::DuplicateAxis(i) => {
                out = with_axes(text, |axes| axes.push(axes[i % axes.len()].clone())).into();
            }
            Mutation::ExplodeAxes(n) => {
                out = with_axes(text, |axes| {
                    let first = axes[0].clone();
                    axes.extend(std::iter::repeat_n(first, n));
                })
                .into();
            }
        }
        out
    }

    /// Whether the mutation may only land in a point's payload (summary
    /// or policy name), the one part of a document nothing re-derives.
    fn in_payload(self, text: &str) -> bool {
        match self {
            Mutation::Flip(i, _) => {
                let at = i % text.len();
                payload_spans(text).iter().any(|s| s.contains(&at))
            }
            _ => false,
        }
    }

    /// The original text around a byte-level mutation, for failures.
    fn context(self, text: &str) -> String {
        let at = match self {
            Mutation::Flip(i, _) | Mutation::Truncate(i) => i % text.len(),
            _ => return String::new(),
        };
        let lo = text.floor_char_boundary(at.saturating_sub(120));
        let hi = text.ceil_char_boundary((at + 40).min(text.len()));
        format!("{}<<HERE>>{}", &text[lo..at.max(lo)], &text[at.max(lo)..hi])
    }

    /// Whether the mutation must make merge and coverage fail, naming the
    /// document.
    fn always_rejected(self) -> bool {
        matches!(
            self,
            Mutation::Digit(..) | Mutation::DuplicateAxis(_) | Mutation::ExplodeAxes(_)
        )
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eacp-grid-docs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mutated_documents_load_or_fail_cleanly<C: Fixture>() {
    let dir = scratch(C::TAG);
    let grid = run_sweep(&C::grid(), None, 1).unwrap();
    let path = grid.save(&dir).unwrap();
    let original = std::fs::read_to_string(&path).unwrap();
    let name = path.display().to_string();
    proptest::test_runner::run_cases(256, &format!("mutated_{}_grid", C::TAG), |rng| {
        let m = mutation_strategy().sample(rng);
        std::fs::write(&path, m.apply(&original)).unwrap();
        let _ = GridReport::<C>::load(&path);
        match merge_dir::<C>(&dir) {
            Ok(merged) => {
                // A mutated sweep may still describe the same points (an
                // optional key lost to its default, say), but every merged
                // point is the original point, and only its payload can
                // differ.
                assert!(!m.always_rejected(), "{m:?}: merged");
                for (got, want) in merged.points.iter().zip(&grid.points) {
                    assert_eq!(C::of_report(&got.report), C::of_report(&want.report));
                    if got.report.to_json().pretty() != want.report.to_json().pretty() {
                        assert!(
                            m.in_payload(&original),
                            "{m:?}: merged a changed point:\n{}",
                            m.context(&original)
                        );
                    }
                }
            }
            Err(e) if m.always_rejected() => {
                assert!(e.to_string().contains(&name), "{m:?}: {e}")
            }
            Err(_) => {}
        }
        match coverage_dir::<C>(&dir) {
            Ok(coverage) => {
                assert!(!matches!(
                    m,
                    Mutation::DuplicateAxis(_) | Mutation::ExplodeAxes(_)
                ));
                assert_eq!(coverage.total_points, 4, "{m:?}");
            }
            Err(e) if !matches!(m, Mutation::Truncate(_) | Mutation::Flip(..)) => {
                assert!(e.to_string().contains(&name), "{m:?}: {e}")
            }
            Err(_) => {}
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mutated_experiment_documents_load_or_fail_cleanly() {
    mutated_documents_load_or_fail_cleanly::<ExperimentSpec>();
}

#[test]
fn mutated_executive_documents_load_or_fail_cleanly() {
    mutated_documents_load_or_fail_cleanly::<ExecutiveSpec>();
}

/// The gap the fuzz property allows, pinned: a digit rewritten inside a
/// point's summary merges, and the merged grid serves the forged value.
#[test]
fn a_rewritten_summary_digit_is_accepted_without_a_payload_digest() {
    let dir = scratch("summary-digit");
    let path = run_sweep(&ExperimentSpec::grid(), None, 1)
        .unwrap()
        .save(&dir)
        .unwrap();
    let original = std::fs::read_to_string(&path).unwrap();
    let span = payload_spans(&original)[0].clone();
    let summary = span.start + original[span].find("\"summary\"").unwrap();
    let at = summary
        + original[summary..]
            .find(|c: char| c.is_ascii_digit())
            .unwrap();
    let mut forged = original.clone().into_bytes();
    forged[at] = if forged[at] == b'9' {
        b'8'
    } else {
        forged[at] + 1
    };
    std::fs::write(&path, &forged).unwrap();
    let merged = merge_dir::<ExperimentSpec>(&dir).unwrap();
    assert_ne!(merged.to_json().pretty(), original);
    assert_eq!(merged.to_json().pretty().into_bytes(), forged);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn grids_too_large_to_count_or_allocate_are_errors() {
    let base = ExperimentSpec::grid().base;
    // 2^64 points wrap a plain product to 0.
    let sweep = SweepSpec {
        base: base.clone(),
        axes: vec![Axis::new(Knob::Seed, [1, 2]); 64],
    };
    let err = sweep.expand().unwrap_err();
    assert!(err.to_string().contains("more points"), "unhelpful: {err}");
    // 2^40 points count fine but cannot be allocated.
    let sweep = SweepSpec {
        base,
        axes: vec![Axis::new(Knob::Seed, [1, 2]); 40],
    };
    assert_eq!(sweep.len().unwrap(), 1 << 40);
    let err = sweep.expand().unwrap_err();
    assert!(err.to_string().contains("allocated"), "unhelpful: {err}");
}

fn a_grid_without_axes_is_its_base<C: Fixture>() {
    let base = C::grid().base;
    let grid = Grid {
        base: base.clone(),
        axes: Vec::new(),
    };
    assert_eq!(grid.expand().unwrap(), vec![base]);
}

#[test]
fn grids_without_axes_are_their_base() {
    a_grid_without_axes_is_its_base::<ExperimentSpec>();
    a_grid_without_axes_is_its_base::<ExecutiveSpec>();
}

/// One generated knob value: a fraction, a small count and a scheme.
type Draw = (f64, u32, usize);

fn draw(rng: &mut proptest::TestRng) -> Draw {
    (0.0f64..1.0, 1u32..8, 0usize..8).sample(rng)
}

fn costs(n: u32) -> CostsSpec {
    if n.is_multiple_of(2) {
        CostsSpec::PaperCcp
    } else {
        CostsSpec::Explicit {
            store: f64::from(n),
            compare: 22.0 - f64::from(n),
            rollback: 0.0,
        }
    }
}

fn policy((x, n, tag): Draw) -> PolicySpec {
    let tags = [
        "poisson", "kft", "a_d", "a_d_s", "a_d_c", "a_s", "a_c", "cscp",
    ];
    PolicySpec::from_tag(tags[tag], 1e-4 + 2e-3 * x, n, n as usize % 2).unwrap()
}

/// An experiment knob of kind `kind` (one of every kind a single-task
/// grid accepts, `policy` included).
fn knob(kind: u8, d: Draw) -> Knob {
    let (x, n, _) = d;
    match kind {
        0 => Knob::Utilization(0.5 + 0.4 * x),
        1 => Knob::Lambda(1e-4 + 2e-3 * x),
        2 => Knob::K(n),
        3 => Knob::Costs(costs(n)),
        4 => Knob::Seed(u64::from(n) * 1_000),
        _ => Knob::Policy(policy(d)),
    }
}

/// A knob axis of `len` values of one kind.
fn knob_axis(rng: &mut proptest::TestRng, len: usize) -> Axis {
    let kind = (0u8..6).sample(rng);
    let draws: Vec<Draw> = (0..len).map(|_| draw(rng)).collect();
    let d = draws.iter().copied();
    match kind {
        0 => Axis::new(Knob::Utilization, d.map(|(x, ..)| 0.5 + 0.4 * x)),
        1 => Axis::new(Knob::Lambda, d.map(|(x, ..)| 1e-4 + 2e-3 * x)),
        2 => Axis::new(Knob::K, d.map(|(_, n, _)| n)),
        3 => Axis::new(Knob::Costs, d.map(|(_, n, _)| costs(n))),
        4 => Axis::new(Knob::Seed, d.map(|(_, n, _)| u64::from(n) * 1_000)),
        _ => Axis::new(Knob::Policy, d.map(policy)),
    }
}

/// A points-axis point: one to three knobs of distinct kinds, and a seed
/// offset half the time.
fn point(rng: &mut proptest::TestRng) -> Point {
    let mut knobs: Vec<Knob> = Vec::new();
    for _ in 0..(1usize..4).sample(rng) {
        let k = knob((0u8..6).sample(rng), draw(rng));
        if knobs.iter().all(|have| have.kind() != k.kind()) {
            knobs.push(k);
        }
    }
    let (offset, with_offset) = (0u64..100, 0u8..2).sample(rng);
    let point = Point::new(knobs);
    if with_offset == 1 {
        point.with_seed_offset(offset)
    } else {
        point
    }
}

#[test]
fn generated_points_and_policy_grids_round_trip_and_expand() {
    let base = ExperimentSpec::grid().base;
    proptest::test_runner::run_cases(256, "generated_points_grids", |rng| {
        let mut axes = Vec::new();
        for _ in 0..(1usize..4).sample(rng) {
            let (points_axis, len) = (0u8..2, 1usize..4).sample(rng);
            axes.push(if points_axis == 1 {
                Axis::points((0..len).map(|_| point(rng)).collect::<Vec<_>>())
            } else {
                knob_axis(rng, len)
            });
        }
        let grid = SweepSpec {
            base: base.clone(),
            axes,
        };
        let text = grid.to_json_string();
        let back = SweepSpec::from_json_str(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(back, grid, "{text}");
        assert_eq!(back.to_json_string(), text);
        let cells = grid.expand().unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(cells.len(), grid.len().unwrap());
        assert_eq!(back.expand().unwrap(), cells);
    });
}
