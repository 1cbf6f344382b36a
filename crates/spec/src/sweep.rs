//! Sweep grids: a base cell plus axes of variation, expanding into the
//! product of their values — for both workload kinds.
//!
//! A grid is written once, as [`Grid<C>`], over any cell kind that
//! implements the per-kind hook [`GridCell`]: [`SweepSpec`] grids vary a
//! single-task [`ExperimentSpec`], `Grid<ExecutiveSpec>` grids an EDF
//! [`ExecutiveSpec`]. Every cell parameter is one [`Knob`] value. An
//! [`Axis`] lists [`Point`]s: a knob axis (`{"lambda": [1e-4, 2e-4]}`)
//! sets one knob kind per point, a points axis (`{"points": [{...}]}`)
//! sets an ordered list of knobs per point — the form for point sets that
//! are not products, such as the paper's tables. [`GridCell::set`] writes
//! one knob into a cell, and it is the only place a parameter is set:
//! grid expansion calls it for every knob of every point, and the CLI
//! calls it for every parameter flag (`--util`, `--lambda`, ...), so an
//! axis and the matching flag always mean the same thing.
//!
//! `spec + seed = identical results` extends to grids: the expansion order
//! is deterministic (axes in declaration order, values in listed order) and
//! each point derives its seed from the base seed — `base + grid index`,
//! or `base + offset` for a point that carries a seed offset — so a grid
//! can be sharded across machines by index range and re-assembled without
//! collisions.

use crate::error::SpecError;
use crate::executive::ExecutiveSpec;
use crate::json::{FromJson, Json, JsonWriter, ToJson};
use crate::model::{CostsSpec, ExperimentSpec, FaultSpec, OptimizerSpec, PolicySpec, WorkSpec};

/// Which cell parameter a [`Knob`] sets; an axis varies one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// Task utilization.
    Utilization,
    /// Relative deadline.
    Deadline,
    /// Checkpoint cost model.
    Costs,
    /// Fault arrival rate.
    Lambda,
    /// Fault-tolerance target `k`.
    K,
    /// Fixed speed.
    Speed,
    /// Hyperperiods per horizon.
    Hyperperiods,
    /// Base seed.
    Seed,
    /// Checkpointing policy.
    Policy,
}

impl KnobKind {
    /// The key naming this kind in grid documents and errors.
    pub fn key(self) -> &'static str {
        match self {
            KnobKind::Utilization => "utilization",
            KnobKind::Deadline => "deadline",
            KnobKind::Costs => "costs",
            KnobKind::Lambda => "lambda",
            KnobKind::K => "k",
            KnobKind::Speed => "speed",
            KnobKind::Hyperperiods => "hyperperiods",
            KnobKind::Seed => "seed",
            KnobKind::Policy => "policy",
        }
    }
}

/// One cell parameter value. What setting it means for each cell kind is
/// that kind's [`GridCell::set`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Knob {
    /// Task utilization (experiments) or target task-set utilization
    /// (executives, which rescale every WCET uniformly to hit it).
    Utilization(f64),
    /// Relative deadline of a single-task experiment.
    Deadline(f64),
    /// Checkpoint cost model.
    Costs(CostsSpec),
    /// Fault arrival rate; updates the Poisson fault process *and* every
    /// policy's assumed rate, mirroring the paper where the two coincide.
    Lambda(f64),
    /// Fault-tolerance target `k` of every policy (and of an executive's
    /// feasibility analysis).
    K(u32),
    /// Fixed speed of an executive workload.
    Speed(f64),
    /// Hyperperiods per executive horizon.
    Hyperperiods(u32),
    /// Base seed (for variance studies).
    Seed(u64),
    /// The whole policy of a single-task experiment, its rate and `k`
    /// included.
    Policy(PolicySpec),
}

impl Knob {
    /// The parameter this value sets.
    pub fn kind(&self) -> KnobKind {
        match self {
            Knob::Utilization(_) => KnobKind::Utilization,
            Knob::Deadline(_) => KnobKind::Deadline,
            Knob::Costs(_) => KnobKind::Costs,
            Knob::Lambda(_) => KnobKind::Lambda,
            Knob::K(_) => KnobKind::K,
            Knob::Speed(_) => KnobKind::Speed,
            Knob::Hyperperiods(_) => KnobKind::Hyperperiods,
            Knob::Seed(_) => KnobKind::Seed,
            Knob::Policy(_) => KnobKind::Policy,
        }
    }

    /// The grid-point name suffix for this value: `u0.76`, `l0.0014`,
    /// `k5`, `scp`/`ccp`/`ts5-tcp17`, `h2`, `s1`, a policy's tag (`a_d_s`,
    /// `a_d_s-exact-recursion` off the paper's optimizer), and `d…` and
    /// `f…` for the kinds no grid varies.
    pub fn label(&self) -> String {
        match *self {
            Knob::Utilization(u) => format!("u{u}"),
            Knob::Deadline(d) => format!("d{d}"),
            Knob::Costs(CostsSpec::PaperScp) => "scp".to_owned(),
            Knob::Costs(CostsSpec::PaperCcp) => "ccp".to_owned(),
            Knob::Costs(CostsSpec::Explicit { store, compare, .. }) => {
                format!("ts{store}-tcp{compare}")
            }
            Knob::Lambda(l) => format!("l{l}"),
            Knob::K(k) => format!("k{k}"),
            Knob::Speed(f) => format!("f{f}"),
            Knob::Hyperperiods(h) => format!("h{h}"),
            Knob::Seed(s) => format!("s{s}"),
            Knob::Policy(p) => match p.optimizer() {
                Some(o) if o != OptimizerSpec::default() => format!("{}-{}", p.tag(), o.tag()),
                _ => p.tag().to_owned(),
            },
        }
    }

    /// Writes the value this knob sets (an axis entry or a point member).
    fn write_value(&self, w: &mut JsonWriter<'_>) {
        match self {
            Knob::Utilization(x) | Knob::Deadline(x) | Knob::Lambda(x) | Knob::Speed(x) => {
                w.float(*x);
            }
            Knob::Costs(c) => c.write_json(w),
            Knob::K(x) | Knob::Hyperperiods(x) => w.uint(u64::from(*x)),
            Knob::Seed(x) => w.uint(*x),
            Knob::Policy(p) => p.write_json(w),
        }
    }

    fn parse(kind: KnobKind, value: &Json) -> Result<Self, SpecError> {
        Ok(match kind {
            KnobKind::Utilization => Knob::Utilization(value.as_f64()?),
            KnobKind::Deadline => Knob::Deadline(value.as_f64()?),
            KnobKind::Costs => Knob::Costs(CostsSpec::from_json(value)?),
            KnobKind::Lambda => Knob::Lambda(value.as_f64()?),
            KnobKind::K => Knob::K(value.as_u32()?),
            KnobKind::Speed => Knob::Speed(value.as_f64()?),
            KnobKind::Hyperperiods => Knob::Hyperperiods(value.as_u32()?),
            KnobKind::Seed => Knob::Seed(value.as_u64()?),
            KnobKind::Policy => Knob::Policy(PolicySpec::from_json(value)?),
        })
    }
}

/// The key of a points-axis point's seed offset.
const SEED_OFFSET: &str = "seed_offset";

/// The knob kind `key` names among `accepted`; an unknown key is an error
/// naming `what` it was read as and listing the accepted keys and `also`.
fn knob_kind(
    key: &str,
    accepted: &[KnobKind],
    what: &'static str,
    also: &str,
) -> Result<KnobKind, SpecError> {
    accepted
        .iter()
        .copied()
        .find(|k| k.key() == key)
        .ok_or_else(|| {
            let keys: Vec<&str> = accepted.iter().map(|k| k.key()).collect();
            SpecError::unknown_kind(what, key, format!("{}, {also}", keys.join(", ")))
        })
}

/// One value of an [`Axis`]: knob assignments applied in order, and
/// optionally the point's seed as an offset from the base seed.
///
/// JSON shape in a points axis: `{"utilization": 0.76, "lambda": 0.0014,
/// "seed_offset": 3}`. The point's label joins its knobs' labels
/// (`u0.76-l0.0014`); the offset is not labelled.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    knobs: Vec<Knob>,
    seed_offset: Option<u64>,
}

impl Point {
    /// The point setting `knobs`, in order.
    pub fn new(knobs: impl IntoIterator<Item = Knob>) -> Self {
        Self {
            knobs: knobs.into_iter().collect(),
            seed_offset: None,
        }
    }

    /// The point seeded `base seed + offset` instead of `base seed + grid
    /// index`.
    pub fn with_seed_offset(mut self, offset: u64) -> Self {
        self.seed_offset = Some(offset);
        self
    }

    /// The knobs this point sets, in order.
    pub fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    fn label(&self) -> String {
        let labels: Vec<String> = self.knobs.iter().map(Knob::label).collect();
        labels.join("-")
    }

    /// Reads a points-axis point whose knob keys must be among `accepted`.
    fn parse(json: &Json, accepted: &[KnobKind]) -> Result<Self, SpecError> {
        let Json::Object(fields) = json else {
            return Err(SpecError::invalid(
                "a grid point is an object of knob assignments, e.g. \
                 {\"utilization\": 0.76, \"lambda\": 0.0014}",
            ));
        };
        let mut point = Point::new([]);
        for (key, value) in fields {
            let duplicate = if key == SEED_OFFSET {
                point.seed_offset.replace(value.as_u64()?).is_some()
            } else {
                let kind = knob_kind(key, accepted, "grid point key", SEED_OFFSET)?;
                let duplicate = point.knobs.iter().any(|k| k.kind() == kind);
                point.knobs.push(Knob::parse(kind, value)?);
                duplicate
            };
            if duplicate {
                return Err(SpecError::invalid(format!("grid point sets {key:?} twice")));
            }
        }
        if point.knobs.is_empty() {
            return Err(SpecError::invalid(
                "a grid point must set at least one knob",
            ));
        }
        Ok(point)
    }
}

impl ToJson for Point {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            for knob in &self.knobs {
                w.key(knob.kind().key());
                knob.write_value(w);
            }
            if let Some(offset) = &self.seed_offset {
                w.field(SEED_OFFSET, offset);
            }
        });
    }
}

/// One axis of variation: its points, in order.
///
/// JSON shape: a single-key object — a knob axis, e.g. `{"lambda": [1e-4,
/// 2e-4]}`, whose points each set that one knob, or a points axis,
/// `{"points": [{"utilization": 0.76, "lambda": 0.0014}, ...]}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The knob every point sets, or `None` for a points axis.
    kind: Option<KnobKind>,
    values: Vec<Point>,
}

impl Axis {
    /// The axis setting `knob` to each of `values`, e.g.
    /// `Axis::new(Knob::Lambda, [1e-4, 2e-4])`. The kind is read off
    /// `knob` itself, so an empty axis still knows what it varies.
    pub fn new<T: Default>(knob: fn(T) -> Knob, values: impl IntoIterator<Item = T>) -> Self {
        Self {
            kind: Some(knob(T::default()).kind()),
            values: values.into_iter().map(|v| Point::new([knob(v)])).collect(),
        }
    }

    /// The points axis over `points`, in order.
    pub fn points(points: impl IntoIterator<Item = Point>) -> Self {
        Self {
            kind: None,
            values: points.into_iter().collect(),
        }
    }

    /// The axis's points, in order.
    pub fn values(&self) -> &[Point] {
        &self.values
    }

    /// Reads an axis whose knob keys must be among `accepted`.
    fn parse(json: &Json, accepted: &[KnobKind]) -> Result<Self, SpecError> {
        let fields = match json {
            Json::Object(fields) if fields.len() == 1 => fields,
            _ => {
                return Err(SpecError::invalid(
                    "a sweep axis is a single-key object, e.g. {\"lambda\": [1e-4, 2e-4]}",
                ))
            }
        };
        let (key, value) = &fields[0];
        let values = value.as_array()?;
        let axis = if key == "points" {
            Self::points(
                values
                    .iter()
                    .map(|v| Point::parse(v, accepted))
                    .collect::<Result<Vec<_>, _>>()?,
            )
        } else {
            let kind = knob_kind(key, accepted, "sweep axis", "points")?;
            Self {
                kind: Some(kind),
                values: values
                    .iter()
                    .map(|v| Ok(Point::new([Knob::parse(kind, v)?])))
                    .collect::<Result<Vec<_>, SpecError>>()?,
            }
        };
        if axis.values.is_empty() {
            return Err(SpecError::invalid(format!("sweep axis {key:?} is empty")));
        }
        Ok(axis)
    }
}

impl ToJson for Axis {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self.kind {
            Some(kind) => {
                w.key(kind.key());
                w.array(|w| {
                    for point in &self.values {
                        point.knobs[0].write_value(w);
                    }
                });
            }
            None => w.field("points", &self.values),
        });
    }
}

/// The per-kind hook: what a grid needs to know about its cells.
pub trait GridCell: Clone + PartialEq + std::fmt::Debug + ToJson + FromJson {
    /// What a grid document of this kind is called in errors (`"sweep"`,
    /// `"executive sweep"`).
    const KIND: &'static str;

    /// The knob kinds this kind's grid documents accept, as axes and as
    /// point keys, in the order an unknown-key error lists them.
    const AXES: &'static [KnobKind];

    /// The cell's name.
    fn name(&self) -> &str;

    /// Renames the cell (grid points are named after the base and their
    /// axis labels).
    fn rename(&mut self, name: String);

    /// The seed expansion derives each point's seed from.
    fn seed(&self) -> u64;

    /// Sets one parameter.
    ///
    /// # Errors
    ///
    /// A knob this kind has no parameter for, or one the cell cannot take
    /// (a λ on a non-Poisson fault process, ...).
    fn set(&mut self, knob: Knob) -> Result<(), SpecError>;

    /// Checks one expanded grid point. Executive points are validated
    /// here, so a bad grid is rejected before any horizon runs; experiment
    /// points are validated when they run.
    ///
    /// # Errors
    ///
    /// An invalid point.
    fn check_point(&self) -> Result<(), SpecError> {
        Ok(())
    }
}

/// Sets the rate of a Poisson fault process: the only process with one.
fn set_poisson_rate(faults: &mut FaultSpec, lambda: f64) -> Result<(), SpecError> {
    match faults {
        FaultSpec::Poisson { lambda: l } => {
            *l = lambda;
            Ok(())
        }
        other => Err(SpecError::invalid(format!(
            "lambda needs a Poisson fault process, not a {} one",
            other.kind()
        ))),
    }
}

/// The error for a knob a cell kind has no parameter for.
fn no_such_parameter(knob: Knob, cell: &str) -> SpecError {
    SpecError::invalid(format!(
        "{} is not a parameter of {cell}",
        knob.kind().key()
    ))
}

impl GridCell for ExperimentSpec {
    const KIND: &'static str = "sweep";
    const AXES: &'static [KnobKind] = &[
        KnobKind::Utilization,
        KnobKind::Lambda,
        KnobKind::K,
        KnobKind::Costs,
        KnobKind::Seed,
        KnobKind::Policy,
    ];

    fn name(&self) -> &str {
        &self.name
    }

    fn rename(&mut self, name: String) {
        self.name = name;
    }

    fn seed(&self) -> u64 {
        self.mc.seed
    }

    fn set(&mut self, knob: Knob) -> Result<(), SpecError> {
        match knob {
            Knob::Utilization(u) => match &mut self.scenario.work {
                WorkSpec::Utilization { utilization, .. } => *utilization = u,
                WorkSpec::Cycles { .. } => {
                    return Err(SpecError::invalid(
                        "utilization needs utilization-based work, not cycle-based work",
                    ))
                }
            },
            Knob::Deadline(d) => match &mut self.scenario.work {
                WorkSpec::Utilization { deadline, .. } | WorkSpec::Cycles { deadline, .. } => {
                    *deadline = d
                }
            },
            Knob::Costs(costs) => self.scenario.costs = costs,
            Knob::Lambda(lambda) => {
                set_poisson_rate(&mut self.faults, lambda)?;
                self.policy = self.policy.with_lambda(lambda);
            }
            Knob::K(k) => self.policy = self.policy.with_k(k),
            Knob::Seed(seed) => self.mc.seed = seed,
            Knob::Policy(policy) => self.policy = policy,
            Knob::Speed(_) | Knob::Hyperperiods(_) => {
                return Err(no_such_parameter(knob, "a single-task experiment"))
            }
        }
        Ok(())
    }
}

impl GridCell for ExecutiveSpec {
    const KIND: &'static str = "executive sweep";
    const AXES: &'static [KnobKind] = &[
        KnobKind::Hyperperiods,
        KnobKind::Utilization,
        KnobKind::Lambda,
        KnobKind::K,
        KnobKind::Seed,
    ];

    fn name(&self) -> &str {
        &self.name
    }

    fn rename(&mut self, name: String) {
        self.name = name;
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn set(&mut self, knob: Knob) -> Result<(), SpecError> {
        match knob {
            Knob::Utilization(target) => {
                if !(target > 0.0 && target.is_finite()) {
                    return Err(SpecError::invalid(format!(
                        "utilization must be positive and finite, got {target}"
                    )));
                }
                let tasks = &mut self.tasks.tasks;
                let current: f64 = tasks.iter().map(|t| t.wcet / t.period as f64).sum();
                if !(current > 0.0 && current.is_finite()) {
                    return Err(SpecError::invalid(
                        "utilization needs a non-empty task set with positive wcets and periods",
                    ));
                }
                let scale = target / current;
                for task in tasks {
                    task.wcet *= scale;
                }
            }
            Knob::Costs(costs) => self.costs = costs,
            Knob::Lambda(lambda) => {
                set_poisson_rate(&mut self.faults, lambda)?;
                self.policy.update_all(|p| p.with_lambda(lambda));
            }
            Knob::K(k) => {
                self.k = k;
                self.policy.update_all(|p| p.with_k(k));
            }
            Knob::Speed(speed) => self.speed = speed,
            Knob::Hyperperiods(h) => self.hyperperiods = h,
            Knob::Seed(seed) => self.seed = seed,
            Knob::Deadline(_) => {
                return Err(no_such_parameter(
                    knob,
                    "an executive workload (each task has its own)",
                ))
            }
            Knob::Policy(_) => {
                return Err(no_such_parameter(
                    knob,
                    "an executive workload (its base assigns one per task)",
                ))
            }
        }
        Ok(())
    }

    fn check_point(&self) -> Result<(), SpecError> {
        self.validate()
    }
}

/// A base cell and the axes to vary it over.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<C> {
    /// The cell every grid point starts from.
    pub base: C,
    /// Axes, outermost first.
    pub axes: Vec<Axis>,
}

/// A grid of single-task experiments (`eacp sweep`).
pub type SweepSpec = Grid<ExperimentSpec>;

impl<C: GridCell> Grid<C> {
    /// Number of grid points.
    ///
    /// # Errors
    ///
    /// The axis lengths multiply out past `usize::MAX`.
    pub fn len(&self) -> Result<usize, SpecError> {
        self.axes
            .iter()
            .try_fold(1usize, |n, axis| n.checked_mul(axis.values.len()))
            .ok_or_else(|| SpecError::invalid("the grid has more points than a usize counts"))
    }

    /// Whether the grid has no points: some axis has no values (never
    /// true for a parsed document).
    pub fn is_empty(&self) -> bool {
        self.axes.iter().any(|axis| axis.values.is_empty())
    }

    /// Validates the grid's shape: every axis must have at least one value
    /// (an empty axis would expand to a silent zero-point grid).
    pub fn validate_axes(&self) -> Result<(), SpecError> {
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.values.is_empty() {
                return Err(SpecError::invalid(format!(
                    "sweep axis #{i} has no values: the grid would be empty"
                )));
            }
        }
        Ok(())
    }

    /// Expands the grid into concrete cells, outermost axis slowest. A
    /// grid with no axes is its base, as one point.
    ///
    /// Each point applies the knobs of its value on every axis, in axis
    /// order, and gets a derived name (`base-u0.78-l0.0014`). Its seed is
    /// `base seed + offset` when a value carries a seed offset (offsets on
    /// several axes add up), else the seed knob's value when one is set,
    /// else `base seed + index`, so grids shard reproducibly. (The paper's
    /// tables seed row `i` at `seed + i` for all four schemes: offsets.)
    ///
    /// # Errors
    ///
    /// Fails with a clear [`SpecError`] when an axis has zero values
    /// (instead of silently returning an empty grid), when the grid has
    /// more points than can be counted or allocated, when an axis is
    /// incompatible with the base cell, or when a point fails
    /// [`GridCell::check_point`].
    pub fn expand(&self) -> Result<Vec<C>, SpecError> {
        self.validate_axes()?;
        let total = self.len()?;
        let mut out = Vec::new();
        out.try_reserve_exact(total).map_err(|e| {
            SpecError::invalid(format!("a grid of {total} points cannot be allocated: {e}"))
        })?;
        let base_seed = self.base.seed();
        for flat in 0..total {
            let mut cell = self.base.clone();
            let mut name = self.base.name().to_owned();
            let mut offset: Option<u64> = None;
            let mut seeded = false;
            // Decompose the flat index, outermost axis slowest.
            let mut rem = flat;
            let mut stride = total;
            for axis in &self.axes {
                stride /= axis.values.len();
                let point = &axis.values[rem / stride];
                rem %= stride;
                for &knob in &point.knobs {
                    cell.set(knob)?;
                    seeded |= knob.kind() == KnobKind::Seed;
                }
                if let Some(o) = point.seed_offset {
                    offset = Some(offset.unwrap_or(0).wrapping_add(o));
                }
                name.push('-');
                name.push_str(&point.label());
            }
            match offset {
                Some(o) => cell.set(Knob::Seed(base_seed.wrapping_add(o)))?,
                None if !seeded => cell.set(Knob::Seed(base_seed.wrapping_add(flat as u64)))?,
                None => {}
            }
            cell.rename(name);
            cell.check_point()
                .map_err(|e| SpecError::grid_point(flat, cell.name(), e))?;
            out.push(cell);
        }
        Ok(out)
    }

    /// Parses a grid from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Reads a grid file.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json_str(&text)
    }
}

impl<C: GridCell> ToJson for Grid<C> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("base", &self.base);
            w.field("axes", &self.axes);
        });
    }
}

impl<C: GridCell> FromJson for Grid<C> {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let axes = json
            .req("axes")?
            .as_array()?
            .iter()
            .map(|axis| Axis::parse(axis, C::AXES))
            .collect::<Result<Vec<_>, _>>()?;
        if axes.is_empty() {
            return Err(SpecError::invalid("a sweep needs at least one axis"));
        }
        Ok(Self {
            base: C::from_json(json.req("base")?)?,
            axes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executive::{PolicyAssignment, TaskSetSpec};
    use crate::model::PolicySpec;

    fn base() -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.name = "grid".into();
        spec.mc.replications = 50;
        spec
    }

    #[test]
    fn expansion_is_cartesian_and_ordered() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![
                Axis::new(Knob::Utilization, [0.76, 0.78]),
                Axis::new(Knob::Lambda, [1.4e-3, 1.6e-3]),
            ],
        };
        assert_eq!(sweep.len().unwrap(), 4);
        let specs = sweep.expand().unwrap();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].name, "grid-u0.76-l0.0014");
        assert_eq!(specs[3].name, "grid-u0.78-l0.0016");
        // Outermost axis slowest.
        match (&specs[1].scenario.work, &specs[1].faults) {
            (WorkSpec::Utilization { utilization, .. }, FaultSpec::Poisson { lambda }) => {
                assert_eq!(*utilization, 0.76);
                assert_eq!(*lambda, 1.6e-3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Each point gets a distinct derived seed.
        let seeds: Vec<u64> = specs.iter().map(|s| s.mc.seed).collect();
        assert_eq!(seeds, vec![2006, 2007, 2008, 2009]);
    }

    #[test]
    fn lambda_axis_updates_policy_too() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![Axis::new(Knob::Lambda, [9e-4])],
        };
        let specs = sweep.expand().unwrap();
        match specs[0].policy {
            PolicySpec::DvsScp { lambda, .. } => assert_eq!(lambda, 9e-4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn seed_axis_takes_precedence_over_derived_seeds() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![Axis::new(Knob::Seed, [100, 200])],
        };
        let seeds: Vec<u64> = sweep.expand().unwrap().iter().map(|s| s.mc.seed).collect();
        assert_eq!(seeds, vec![100, 200]);
    }

    #[test]
    fn empty_axis_is_a_clear_error_not_a_silent_empty_grid() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![
                Axis::new(Knob::Utilization, [0.76]),
                Axis::new(Knob::Lambda, []),
            ],
        };
        assert_eq!(sweep.len().unwrap(), 0);
        let err = sweep.expand().unwrap_err();
        assert!(
            err.to_string().contains("axis #1"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn incompatible_axes_error() {
        let mut b = base();
        b.faults = FaultSpec::Deterministic { times: vec![] };
        let sweep = SweepSpec {
            base: b,
            axes: vec![Axis::new(Knob::Lambda, [1e-3])],
        };
        assert!(sweep.expand().is_err());
    }

    #[test]
    fn sweep_round_trips_through_json() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![
                Axis::new(Knob::Utilization, [0.76, 0.8]),
                Axis::new(Knob::K, [1, 5]),
                Axis::new(Knob::Costs, [CostsSpec::PaperScp, CostsSpec::PaperCcp]),
            ],
        };
        let back = SweepSpec::from_json_str(&sweep.to_json_string()).unwrap();
        assert_eq!(sweep, back);
        assert_eq!(back.expand().unwrap().len(), 8);
    }

    fn executive_base() -> ExecutiveSpec {
        let mut spec = ExecutiveSpec::new(
            "exec-grid",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        spec.faults = FaultSpec::Poisson { lambda: 5e-4 };
        spec.seed = 2006;
        spec
    }

    #[test]
    fn executive_expansion_is_cartesian_and_ordered() {
        let sweep = Grid::<ExecutiveSpec> {
            base: executive_base(),
            axes: vec![
                Axis::new(Knob::Hyperperiods, [2, 4]),
                Axis::new(Knob::Lambda, [1.4e-3, 1.6e-3]),
            ],
        };
        assert_eq!(sweep.len().unwrap(), 4);
        let specs = sweep.expand().unwrap();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].name, "exec-grid-h2-l0.0014");
        assert_eq!(specs[3].name, "exec-grid-h4-l0.0016");
        // Outermost axis slowest.
        assert_eq!(specs[1].hyperperiods, 2);
        match specs[1].faults {
            FaultSpec::Poisson { lambda } => assert_eq!(lambda, 1.6e-3),
            ref other => panic!("unexpected {other:?}"),
        }
        // Each point gets a distinct derived seed.
        let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![2006, 2007, 2008, 2009]);
    }

    #[test]
    fn executive_lambda_axis_updates_every_assigned_policy() {
        let mut base = executive_base();
        base.policy = PolicyAssignment::PerTask(vec![
            PolicySpec::from_tag("a_d_s", 5e-4, 2, 0).unwrap(),
            PolicySpec::from_tag("a_d", 5e-4, 2, 0).unwrap(),
        ]);
        let sweep = Grid::<ExecutiveSpec> {
            base,
            axes: vec![Axis::new(Knob::Lambda, [9e-4])],
        };
        let specs = sweep.expand().unwrap();
        match &specs[0].policy {
            PolicyAssignment::PerTask(ps) => {
                for p in ps {
                    match p {
                        PolicySpec::DvsScp { lambda, .. } | PolicySpec::AdtDvs { lambda, .. } => {
                            assert_eq!(*lambda, 9e-4)
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn executive_utilization_axis_rescales_wcets_to_the_target() {
        let sweep = Grid::<ExecutiveSpec> {
            base: executive_base(),
            axes: vec![Axis::new(Knob::Utilization, [0.5, 0.9])],
        };
        let specs = sweep.expand().unwrap();
        for (spec, target) in specs.iter().zip([0.5, 0.9]) {
            let util: f64 = spec
                .tasks
                .tasks
                .iter()
                .map(|t| t.wcet / t.period as f64)
                .sum();
            assert!(
                (util - target).abs() < 1e-12,
                "wanted utilization {target}, got {util}"
            );
        }
        // The relative wcet mix is preserved (uniform scaling).
        let ratio = specs[0].tasks.tasks[1].wcet / specs[0].tasks.tasks[0].wcet;
        assert!((ratio - 1_200.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn executive_k_axis_updates_feasibility_target_and_policies() {
        let sweep = Grid::<ExecutiveSpec> {
            base: executive_base(),
            axes: vec![Axis::new(Knob::K, [4])],
        };
        let specs = sweep.expand().unwrap();
        assert_eq!(specs[0].k, 4);
        match &specs[0].policy {
            PolicyAssignment::Shared(p) => assert_eq!(p.k(), Some(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn executive_seed_axis_takes_precedence_over_derived_seeds() {
        let sweep = Grid::<ExecutiveSpec> {
            base: executive_base(),
            axes: vec![Axis::new(Knob::Seed, [100, 200])],
        };
        let seeds: Vec<u64> = sweep.expand().unwrap().iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![100, 200]);
    }

    #[test]
    fn executive_sweep_errors_are_clear() {
        // Lambda over a non-Poisson base.
        let mut b = executive_base();
        b.faults = FaultSpec::Deterministic { times: vec![] };
        let sweep = Grid::<ExecutiveSpec> {
            base: b,
            axes: vec![Axis::new(Knob::Lambda, [1e-3])],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("Poisson"), "unhelpful: {err}");

        // Empty axis.
        let sweep = Grid::<ExecutiveSpec> {
            base: executive_base(),
            axes: vec![
                Axis::new(Knob::Hyperperiods, [1]),
                Axis::new(Knob::Lambda, []),
            ],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("axis #1"), "unhelpful: {err}");

        // Non-positive utilization target.
        let sweep = Grid::<ExecutiveSpec> {
            base: executive_base(),
            axes: vec![Axis::new(Knob::Utilization, [0.0])],
        };
        assert!(sweep.expand().is_err());

        // Unknown axis kind names the executive vocabulary.
        let doc = format!(
            r#"{{"base": {}, "axes": [{{"costs": []}}]}}"#,
            executive_base().to_json().pretty()
        );
        let err = Grid::<ExecutiveSpec>::from_json_str(&doc).unwrap_err();
        assert!(err.to_string().contains("hyperperiods"), "unhelpful: {err}");
    }

    #[test]
    fn executive_sweep_round_trips_through_json() {
        let mut base = executive_base();
        base.mc = Some(crate::executive::ExecutiveMcSpec {
            replications: 32,
            threads: 0,
            queue: None,
        });
        let sweep = Grid::<ExecutiveSpec> {
            base,
            axes: vec![
                Axis::new(Knob::Hyperperiods, [1, 2]),
                Axis::new(Knob::Utilization, [0.4, 0.7]),
                Axis::new(Knob::K, [1, 3]),
            ],
        };
        let back = Grid::<ExecutiveSpec>::from_json_str(&sweep.to_json_string()).unwrap();
        assert_eq!(sweep, back);
        assert_eq!(back.expand().unwrap().len(), 8);
    }
}
