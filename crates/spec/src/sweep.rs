//! Sweep grids: a base experiment plus axes of variation, expanding into
//! the cartesian product of concrete [`ExperimentSpec`]s.
//!
//! `spec + seed = identical results` extends to sweeps: the expansion order
//! is deterministic (axes in declaration order, values in listed order) and
//! each point derives a distinct seed from the base seed and its grid
//! index, so a sweep can be sharded across machines by index range and
//! re-assembled without collisions.

use crate::error::SpecError;
use crate::executive::{ExecutiveSpec, PolicyAssignment};
use crate::json::{FromJson, Json, ToJson};
use crate::model::{CostsSpec, ExperimentSpec, FaultSpec, PolicySpec, WorkSpec};

/// One axis of variation.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Task utilization (requires the base work spec to be
    /// [`WorkSpec::Utilization`]).
    Utilization(Vec<f64>),
    /// Fault arrival rate; updates the fault process *and* the policy's
    /// assumed rate, mirroring the paper where the two coincide.
    Lambda(Vec<f64>),
    /// Fault-tolerance target `k`.
    K(Vec<u32>),
    /// Checkpoint cost models.
    Costs(Vec<CostsSpec>),
    /// Replication base seeds (for variance studies).
    Seed(Vec<u64>),
}

impl SweepAxis {
    fn len(&self) -> usize {
        match self {
            SweepAxis::Utilization(v) => v.len(),
            SweepAxis::Lambda(v) => v.len(),
            SweepAxis::K(v) => v.len(),
            SweepAxis::Costs(v) => v.len(),
            SweepAxis::Seed(v) => v.len(),
        }
    }

    fn label(&self, idx: usize) -> String {
        match self {
            SweepAxis::Utilization(v) => format!("u{}", v[idx]),
            SweepAxis::Lambda(v) => format!("l{}", v[idx]),
            SweepAxis::K(v) => format!("k{}", v[idx]),
            SweepAxis::Costs(v) => match v[idx] {
                CostsSpec::PaperScp => "scp".to_owned(),
                CostsSpec::PaperCcp => "ccp".to_owned(),
                CostsSpec::Explicit { store, compare, .. } => format!("ts{store}-tcp{compare}"),
            },
            SweepAxis::Seed(v) => format!("s{}", v[idx]),
        }
    }

    fn apply(&self, idx: usize, spec: &mut ExperimentSpec) -> Result<(), SpecError> {
        match self {
            SweepAxis::Utilization(v) => match &mut spec.scenario.work {
                WorkSpec::Utilization { utilization, .. } => {
                    *utilization = v[idx];
                    Ok(())
                }
                WorkSpec::Cycles { .. } => Err(SpecError::invalid(
                    "utilization axis requires the base work spec to be utilization-based",
                )),
            },
            SweepAxis::Lambda(v) => {
                let lambda = v[idx];
                match &mut spec.faults {
                    FaultSpec::Poisson { lambda: l } => *l = lambda,
                    _ => {
                        return Err(SpecError::invalid(
                            "lambda axis requires a Poisson base fault process",
                        ))
                    }
                }
                spec.policy = spec.policy.with_lambda(lambda);
                Ok(())
            }
            SweepAxis::K(v) => {
                spec.policy = spec.policy.with_k(v[idx]);
                Ok(())
            }
            SweepAxis::Costs(v) => {
                spec.scenario.costs = v[idx];
                Ok(())
            }
            SweepAxis::Seed(v) => {
                spec.mc.seed = v[idx];
                Ok(())
            }
        }
    }
}

impl ToJson for SweepAxis {
    fn to_json(&self) -> Json {
        match self {
            SweepAxis::Utilization(v) => Json::obj([(
                "utilization",
                Json::Array(v.iter().map(|&x| x.into()).collect()),
            )]),
            SweepAxis::Lambda(v) => {
                Json::obj([("lambda", Json::Array(v.iter().map(|&x| x.into()).collect()))])
            }
            SweepAxis::K(v) => {
                Json::obj([("k", Json::Array(v.iter().map(|&x| x.into()).collect()))])
            }
            SweepAxis::Costs(v) => Json::obj([(
                "costs",
                Json::Array(v.iter().map(ToJson::to_json).collect()),
            )]),
            SweepAxis::Seed(v) => {
                Json::obj([("seed", Json::Array(v.iter().map(|&x| x.into()).collect()))])
            }
        }
    }
}

impl FromJson for SweepAxis {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let fields = match json {
            Json::Object(fields) if fields.len() == 1 => fields,
            _ => {
                return Err(SpecError::invalid(
                    "a sweep axis is a single-key object, e.g. {\"lambda\": [1e-4, 2e-4]}",
                ))
            }
        };
        let (key, value) = &fields[0];
        let axis = match key.as_str() {
            "utilization" => SweepAxis::Utilization(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Result<_, _>>()?,
            ),
            "lambda" => SweepAxis::Lambda(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Result<_, _>>()?,
            ),
            "k" => SweepAxis::K(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_u32)
                    .collect::<Result<_, _>>()?,
            ),
            "costs" => SweepAxis::Costs(
                value
                    .as_array()?
                    .iter()
                    .map(CostsSpec::from_json)
                    .collect::<Result<_, _>>()?,
            ),
            "seed" => SweepAxis::Seed(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Result<_, _>>()?,
            ),
            other => {
                return Err(SpecError::unknown_kind(
                    "sweep axis",
                    other,
                    "utilization, lambda, k, costs, seed",
                ))
            }
        };
        if axis.len() == 0 {
            return Err(SpecError::invalid(format!("sweep axis {key:?} is empty")));
        }
        Ok(axis)
    }
}

/// A base experiment and the axes to vary it over.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The experiment every grid point starts from.
    pub base: ExperimentSpec,
    /// Axes, outermost first.
    pub axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.axes.iter().map(SweepAxis::len).product()
    }

    /// Whether the grid is empty (never true for a valid spec — axes must
    /// be non-empty — but kept for clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the grid's shape: every axis must have at least one value
    /// (an empty axis would expand to a silent zero-point grid).
    pub fn validate_axes(&self) -> Result<(), SpecError> {
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.len() == 0 {
                return Err(SpecError::invalid(format!(
                    "sweep axis #{i} has no values: the grid would be empty"
                )));
            }
        }
        Ok(())
    }

    /// Expands the grid into concrete experiments, outermost axis slowest.
    ///
    /// Each point gets a derived name (`base-u0.78-l0.0014`) and, unless a
    /// [`SweepAxis::Seed`] axis overrides it, a per-point seed
    /// `base.mc.seed + index`, so sweeps shard reproducibly. (Paper tables
    /// offset per row instead — all four schemes of row `i` share
    /// `seed + i` — which is why they are not sweep documents.)
    ///
    /// # Errors
    ///
    /// Fails with a clear [`SpecError`] when an axis has zero values
    /// (instead of silently returning an empty grid) or when an axis is
    /// incompatible with the base spec.
    pub fn expand(&self) -> Result<Vec<ExperimentSpec>, SpecError> {
        self.validate_axes()?;
        let total = self.len();
        let has_seed_axis = self.axes.iter().any(|a| matches!(a, SweepAxis::Seed(_)));
        let mut out = Vec::with_capacity(total);
        for flat in 0..total {
            let mut spec = self.base.clone();
            let mut name = self.base.name.clone();
            // Decompose the flat index, outermost axis slowest.
            let mut rem = flat;
            let mut stride = total;
            for axis in &self.axes {
                stride /= axis.len();
                let idx = rem / stride;
                rem %= stride;
                axis.apply(idx, &mut spec)?;
                name.push('-');
                name.push_str(&axis.label(idx));
            }
            if !has_seed_axis {
                spec.mc.seed = self.base.mc.seed.wrapping_add(flat as u64);
            }
            spec.name = name;
            out.push(spec);
        }
        Ok(out)
    }

    /// Parses a sweep from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Serializes as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Reads a sweep file.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json_str(&text)
    }
}

impl ToJson for SweepSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("base", self.base.to_json()),
            (
                "axes",
                Json::Array(self.axes.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for SweepSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let axes = json
            .req("axes")?
            .as_array()?
            .iter()
            .map(SweepAxis::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if axes.is_empty() {
            return Err(SpecError::invalid("a sweep needs at least one axis"));
        }
        Ok(Self {
            base: ExperimentSpec::from_json(json.req("base")?)?,
            axes,
        })
    }
}

/// One axis of variation over an [`ExecutiveSpec`] task-set workload.
///
/// The executive analogue of [`SweepAxis`]: single-key-object JSON, the
/// same outermost-slowest expansion order, the same per-point seed
/// derivation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutiveSweepAxis {
    /// Number of hyperperiods per horizon.
    Hyperperiods(Vec<u32>),
    /// Target task-set utilization; rescales every task's WCET uniformly
    /// so `sum(wcet_i / period_i)` hits the listed value.
    Utilization(Vec<f64>),
    /// Fault arrival rate; updates the fault process *and* every assigned
    /// policy's assumed rate, mirroring the single-task lambda axis.
    Lambda(Vec<f64>),
    /// Fault-tolerance target `k` (feasibility input and every policy).
    K(Vec<u32>),
    /// Base seeds (for variance studies).
    Seed(Vec<u64>),
}

/// Applies `f` to every policy in the assignment, shared or per-task.
fn map_policies(assignment: &mut PolicyAssignment, f: impl Fn(&PolicySpec) -> PolicySpec) {
    match assignment {
        PolicyAssignment::Shared(p) => *p = f(p),
        PolicyAssignment::PerTask(ps) => {
            for p in ps.iter_mut() {
                *p = f(p);
            }
        }
    }
}

impl ExecutiveSweepAxis {
    fn len(&self) -> usize {
        match self {
            ExecutiveSweepAxis::Hyperperiods(v) => v.len(),
            ExecutiveSweepAxis::Utilization(v) => v.len(),
            ExecutiveSweepAxis::Lambda(v) => v.len(),
            ExecutiveSweepAxis::K(v) => v.len(),
            ExecutiveSweepAxis::Seed(v) => v.len(),
        }
    }

    fn label(&self, idx: usize) -> String {
        match self {
            ExecutiveSweepAxis::Hyperperiods(v) => format!("h{}", v[idx]),
            ExecutiveSweepAxis::Utilization(v) => format!("u{}", v[idx]),
            ExecutiveSweepAxis::Lambda(v) => format!("l{}", v[idx]),
            ExecutiveSweepAxis::K(v) => format!("k{}", v[idx]),
            ExecutiveSweepAxis::Seed(v) => format!("s{}", v[idx]),
        }
    }

    fn apply(&self, idx: usize, spec: &mut ExecutiveSpec) -> Result<(), SpecError> {
        match self {
            ExecutiveSweepAxis::Hyperperiods(v) => {
                spec.hyperperiods = v[idx];
                Ok(())
            }
            ExecutiveSweepAxis::Utilization(v) => {
                let target = v[idx];
                if !(target > 0.0 && target.is_finite()) {
                    return Err(SpecError::invalid(format!(
                        "utilization axis values must be positive and finite, got {target}"
                    )));
                }
                let current: f64 = spec
                    .tasks
                    .tasks
                    .iter()
                    .map(|t| t.wcet / t.period as f64)
                    .sum();
                if !(current > 0.0 && current.is_finite()) {
                    return Err(SpecError::invalid(
                        "utilization axis requires a non-empty task set with positive \
                         wcets and periods",
                    ));
                }
                let scale = target / current;
                for task in &mut spec.tasks.tasks {
                    task.wcet *= scale;
                }
                Ok(())
            }
            ExecutiveSweepAxis::Lambda(v) => {
                let lambda = v[idx];
                match &mut spec.faults {
                    FaultSpec::Poisson { lambda: l } => *l = lambda,
                    _ => {
                        return Err(SpecError::invalid(
                            "lambda axis requires a Poisson base fault process",
                        ))
                    }
                }
                map_policies(&mut spec.policy, |p| p.with_lambda(lambda));
                Ok(())
            }
            ExecutiveSweepAxis::K(v) => {
                spec.k = v[idx];
                map_policies(&mut spec.policy, |p| p.with_k(v[idx]));
                Ok(())
            }
            ExecutiveSweepAxis::Seed(v) => {
                spec.seed = v[idx];
                Ok(())
            }
        }
    }
}

impl ToJson for ExecutiveSweepAxis {
    fn to_json(&self) -> Json {
        match self {
            ExecutiveSweepAxis::Hyperperiods(v) => Json::obj([(
                "hyperperiods",
                Json::Array(v.iter().map(|&x| x.into()).collect()),
            )]),
            ExecutiveSweepAxis::Utilization(v) => Json::obj([(
                "utilization",
                Json::Array(v.iter().map(|&x| x.into()).collect()),
            )]),
            ExecutiveSweepAxis::Lambda(v) => {
                Json::obj([("lambda", Json::Array(v.iter().map(|&x| x.into()).collect()))])
            }
            ExecutiveSweepAxis::K(v) => {
                Json::obj([("k", Json::Array(v.iter().map(|&x| x.into()).collect()))])
            }
            ExecutiveSweepAxis::Seed(v) => {
                Json::obj([("seed", Json::Array(v.iter().map(|&x| x.into()).collect()))])
            }
        }
    }
}

impl FromJson for ExecutiveSweepAxis {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let fields = match json {
            Json::Object(fields) if fields.len() == 1 => fields,
            _ => {
                return Err(SpecError::invalid(
                    "a sweep axis is a single-key object, e.g. {\"lambda\": [1e-4, 2e-4]}",
                ))
            }
        };
        let (key, value) = &fields[0];
        let axis = match key.as_str() {
            "hyperperiods" => ExecutiveSweepAxis::Hyperperiods(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_u32)
                    .collect::<Result<_, _>>()?,
            ),
            "utilization" => ExecutiveSweepAxis::Utilization(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Result<_, _>>()?,
            ),
            "lambda" => ExecutiveSweepAxis::Lambda(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Result<_, _>>()?,
            ),
            "k" => ExecutiveSweepAxis::K(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_u32)
                    .collect::<Result<_, _>>()?,
            ),
            "seed" => ExecutiveSweepAxis::Seed(
                value
                    .as_array()?
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Result<_, _>>()?,
            ),
            other => {
                return Err(SpecError::unknown_kind(
                    "executive sweep axis",
                    other,
                    "hyperperiods, utilization, lambda, k, seed",
                ))
            }
        };
        if axis.len() == 0 {
            return Err(SpecError::invalid(format!("sweep axis {key:?} is empty")));
        }
        Ok(axis)
    }
}

/// A base executive workload and the axes to vary it over — the task-set
/// counterpart of [`SweepSpec`], expanding into concrete
/// [`ExecutiveSpec`]s for `eacp executive --sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveSweepSpec {
    /// The workload every grid point starts from.
    pub base: ExecutiveSpec,
    /// Axes, outermost first.
    pub axes: Vec<ExecutiveSweepAxis>,
}

impl ExecutiveSweepSpec {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.axes.iter().map(ExecutiveSweepAxis::len).product()
    }

    /// Whether the grid is empty (never true for a valid spec — axes must
    /// be non-empty — but kept for clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the grid's shape: every axis must have at least one value.
    pub fn validate_axes(&self) -> Result<(), SpecError> {
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.len() == 0 {
                return Err(SpecError::invalid(format!(
                    "sweep axis #{i} has no values: the grid would be empty"
                )));
            }
        }
        Ok(())
    }

    /// Expands the grid into concrete workloads, outermost axis slowest.
    ///
    /// Each point gets a derived name (`base-h5-l0.0014`) and, unless a
    /// [`ExecutiveSweepAxis::Seed`] axis overrides it, a per-point seed
    /// `base.seed + index` — the same derivation the single-task
    /// [`SweepSpec::expand`] applies, so executive sweeps shard and
    /// resume reproducibly.
    ///
    /// # Errors
    ///
    /// Fails with a clear [`SpecError`] when an axis has zero values or is
    /// incompatible with the base spec, and validates every expanded
    /// point so a bad grid is rejected before any horizon runs.
    pub fn expand(&self) -> Result<Vec<ExecutiveSpec>, SpecError> {
        self.validate_axes()?;
        let total = self.len();
        let has_seed_axis = self
            .axes
            .iter()
            .any(|a| matches!(a, ExecutiveSweepAxis::Seed(_)));
        let mut out = Vec::with_capacity(total);
        for flat in 0..total {
            let mut spec = self.base.clone();
            let mut name = self.base.name.clone();
            // Decompose the flat index, outermost axis slowest.
            let mut rem = flat;
            let mut stride = total;
            for axis in &self.axes {
                stride /= axis.len();
                let idx = rem / stride;
                rem %= stride;
                axis.apply(idx, &mut spec)?;
                name.push('-');
                name.push_str(&axis.label(idx));
            }
            if !has_seed_axis {
                spec.seed = self.base.seed.wrapping_add(flat as u64);
            }
            spec.name = name;
            spec.validate()
                .map_err(|e| SpecError::invalid(format!("grid point {flat}: {e}")))?;
            out.push(spec);
        }
        Ok(out)
    }

    /// Parses a sweep from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Serializes as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Reads a sweep file.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json_str(&text)
    }
}

impl ToJson for ExecutiveSweepSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("base", self.base.to_json()),
            (
                "axes",
                Json::Array(self.axes.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for ExecutiveSweepSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let axes = json
            .req("axes")?
            .as_array()?
            .iter()
            .map(ExecutiveSweepAxis::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if axes.is_empty() {
            return Err(SpecError::invalid("a sweep needs at least one axis"));
        }
        Ok(Self {
            base: ExecutiveSpec::from_json(json.req("base")?)?,
            axes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executive::TaskSetSpec;
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
                SweepAxis::Utilization(vec![0.76, 0.78]),
                SweepAxis::Lambda(vec![1.4e-3, 1.6e-3]),
            ],
        };
        assert_eq!(sweep.len(), 4);
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
            axes: vec![SweepAxis::Lambda(vec![9e-4])],
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
            axes: vec![SweepAxis::Seed(vec![100, 200])],
        };
        let seeds: Vec<u64> = sweep.expand().unwrap().iter().map(|s| s.mc.seed).collect();
        assert_eq!(seeds, vec![100, 200]);
    }

    #[test]
    fn empty_axis_is_a_clear_error_not_a_silent_empty_grid() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![
                SweepAxis::Utilization(vec![0.76]),
                SweepAxis::Lambda(vec![]),
            ],
        };
        assert_eq!(sweep.len(), 0);
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
            axes: vec![SweepAxis::Lambda(vec![1e-3])],
        };
        assert!(sweep.expand().is_err());
    }

    #[test]
    fn sweep_round_trips_through_json() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![
                SweepAxis::Utilization(vec![0.76, 0.8]),
                SweepAxis::K(vec![1, 5]),
                SweepAxis::Costs(vec![CostsSpec::PaperScp, CostsSpec::PaperCcp]),
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
        let sweep = ExecutiveSweepSpec {
            base: executive_base(),
            axes: vec![
                ExecutiveSweepAxis::Hyperperiods(vec![2, 4]),
                ExecutiveSweepAxis::Lambda(vec![1.4e-3, 1.6e-3]),
            ],
        };
        assert_eq!(sweep.len(), 4);
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
        let sweep = ExecutiveSweepSpec {
            base,
            axes: vec![ExecutiveSweepAxis::Lambda(vec![9e-4])],
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
        let sweep = ExecutiveSweepSpec {
            base: executive_base(),
            axes: vec![ExecutiveSweepAxis::Utilization(vec![0.5, 0.9])],
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
        let sweep = ExecutiveSweepSpec {
            base: executive_base(),
            axes: vec![ExecutiveSweepAxis::K(vec![4])],
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
        let sweep = ExecutiveSweepSpec {
            base: executive_base(),
            axes: vec![ExecutiveSweepAxis::Seed(vec![100, 200])],
        };
        let seeds: Vec<u64> = sweep.expand().unwrap().iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![100, 200]);
    }

    #[test]
    fn executive_sweep_errors_are_clear() {
        // Lambda over a non-Poisson base.
        let mut b = executive_base();
        b.faults = FaultSpec::Deterministic { times: vec![] };
        let sweep = ExecutiveSweepSpec {
            base: b,
            axes: vec![ExecutiveSweepAxis::Lambda(vec![1e-3])],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("Poisson"), "unhelpful: {err}");

        // Empty axis.
        let sweep = ExecutiveSweepSpec {
            base: executive_base(),
            axes: vec![
                ExecutiveSweepAxis::Hyperperiods(vec![1]),
                ExecutiveSweepAxis::Lambda(vec![]),
            ],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("axis #1"), "unhelpful: {err}");

        // Non-positive utilization target.
        let sweep = ExecutiveSweepSpec {
            base: executive_base(),
            axes: vec![ExecutiveSweepAxis::Utilization(vec![0.0])],
        };
        assert!(sweep.expand().is_err());

        // Unknown axis kind names the executive vocabulary.
        let err =
            ExecutiveSweepAxis::from_json(&Json::parse(r#"{"costs": []}"#).unwrap()).unwrap_err();
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
        let sweep = ExecutiveSweepSpec {
            base,
            axes: vec![
                ExecutiveSweepAxis::Hyperperiods(vec![1, 2]),
                ExecutiveSweepAxis::Utilization(vec![0.4, 0.7]),
                ExecutiveSweepAxis::K(vec![1, 3]),
            ],
        };
        let back = ExecutiveSweepSpec::from_json_str(&sweep.to_json_string()).unwrap();
        assert_eq!(sweep, back);
        assert_eq!(back.expand().unwrap().len(), 8);
    }
}
