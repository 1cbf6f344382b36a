//! The spec types: one serializable description per simulation concept.
//!
//! Every type here is plain data with a `build()` method that turns it into
//! the corresponding runtime object (`Scenario`, [`PolicyKind`],
//! [`FaultKind`], `ExecutorOptions`); [`McSpec`] has no runtime object and
//! only a `validate()`. Building validates: all the panicking invariants of
//! the runtime constructors are checked up front and reported as
//! [`SpecError`]s instead. Policies and fault
//! processes build as concrete enums — the monomorphized hot path — and
//! can be boxed into `dyn Policy` / `dyn FaultProcess` where the open
//! trait-object path is needed.

use crate::error::SpecError;
use crate::json::{FromJson, Json, JsonWriter, ToJson};
use eacp_core::analysis::OptimizeMethod;
use eacp_core::policies::{Adaptive, KFaultTolerant, PoissonArrival, PolicyKind};
use eacp_energy::{DvsConfig, SpeedLevel};
use eacp_faults::{
    BurstProcess, DeterministicFaults, FaultKind, PhasedPoisson, PoissonProcess, WeibullRenewal,
};
use eacp_sim::{CheckpointCosts, ExecutorOptions, Scenario, TaskSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_pos(v: f64, what: &str) -> Result<f64, SpecError> {
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(SpecError::invalid(format!(
            "{what} must be positive and finite, got {v}"
        )))
    }
}

fn finite_nonneg(v: f64, what: &str) -> Result<f64, SpecError> {
    if v >= 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(SpecError::invalid(format!(
            "{what} must be non-negative and finite, got {v}"
        )))
    }
}

/// How the task's work volume is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkSpec {
    /// The paper's parameterization: `N = U · f · D`.
    Utilization {
        /// Utilization `U` quoted at `speed`.
        utilization: f64,
        /// The speed the utilization is quoted at (1 for Tables 1/3,
        /// 2 for Tables 2/4).
        speed: f64,
        /// Relative deadline `D`.
        deadline: f64,
    },
    /// Direct cycle count.
    Cycles {
        /// Work `N` in cycles at the minimum speed.
        work_cycles: f64,
        /// Relative deadline `D`.
        deadline: f64,
    },
}

impl WorkSpec {
    /// Builds the [`TaskSpec`].
    pub fn build(&self) -> Result<TaskSpec, SpecError> {
        match *self {
            WorkSpec::Utilization {
                utilization,
                speed,
                deadline,
            } => {
                finite_pos(utilization, "utilization")?;
                finite_pos(speed, "utilization speed")?;
                finite_pos(deadline, "deadline")?;
                Ok(TaskSpec::from_utilization(utilization, speed, deadline))
            }
            WorkSpec::Cycles {
                work_cycles,
                deadline,
            } => {
                finite_pos(work_cycles, "work_cycles")?;
                finite_pos(deadline, "deadline")?;
                Ok(TaskSpec::new(work_cycles, deadline))
            }
        }
    }

    /// The relative deadline `D`.
    pub fn deadline(&self) -> f64 {
        match *self {
            WorkSpec::Utilization { deadline, .. } | WorkSpec::Cycles { deadline, .. } => deadline,
        }
    }
}

impl ToJson for WorkSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            WorkSpec::Utilization {
                utilization,
                speed,
                deadline,
            } => {
                w.field("kind", "utilization");
                w.field("utilization", utilization);
                w.field("speed", speed);
                w.field("deadline", deadline);
            }
            WorkSpec::Cycles {
                work_cycles,
                deadline,
            } => {
                w.field("kind", "cycles");
                w.field("work_cycles", work_cycles);
                w.field("deadline", deadline);
            }
        });
    }
}

impl FromJson for WorkSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        match json.req("kind")?.as_str()? {
            "utilization" => Ok(WorkSpec::Utilization {
                utilization: json.req("utilization")?.as_f64()?,
                speed: json.get("speed").map_or(Ok(1.0), Json::as_f64)?,
                deadline: json.req("deadline")?.as_f64()?,
            }),
            "cycles" => Ok(WorkSpec::Cycles {
                work_cycles: json.req("work_cycles")?.as_f64()?,
                deadline: json.req("deadline")?.as_f64()?,
            }),
            other => Err(SpecError::unknown_kind(
                "work",
                other,
                "utilization, cycles",
            )),
        }
    }
}

/// Checkpoint operation costs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CostsSpec {
    /// The paper's SCP experiment costs (`ts = 2, tcp = 20, tr = 0`).
    #[default]
    PaperScp,
    /// The paper's CCP experiment costs (`ts = 20, tcp = 2, tr = 0`).
    PaperCcp,
    /// Explicit cycle costs.
    Explicit {
        /// `ts`: store cost in cycles.
        store: f64,
        /// `tcp`: compare cost in cycles.
        compare: f64,
        /// `tr`: rollback cost in cycles.
        rollback: f64,
    },
}

impl CostsSpec {
    /// Builds the [`CheckpointCosts`].
    pub fn build(&self) -> Result<CheckpointCosts, SpecError> {
        match *self {
            CostsSpec::PaperScp => Ok(CheckpointCosts::paper_scp_variant()),
            CostsSpec::PaperCcp => Ok(CheckpointCosts::paper_ccp_variant()),
            CostsSpec::Explicit {
                store,
                compare,
                rollback,
            } => {
                finite_nonneg(store, "store cost")?;
                finite_nonneg(compare, "compare cost")?;
                finite_nonneg(rollback, "rollback cost")?;
                if store + compare <= 0.0 {
                    return Err(SpecError::invalid(
                        "store + compare costs must be positive (a free CSCP allows \
                         zero-progress scheduling loops)",
                    ));
                }
                Ok(CheckpointCosts::new(store, compare, rollback))
            }
        }
    }
}

impl ToJson for CostsSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            CostsSpec::PaperScp => w.field("kind", "paper-scp"),
            CostsSpec::PaperCcp => w.field("kind", "paper-ccp"),
            CostsSpec::Explicit {
                store,
                compare,
                rollback,
            } => {
                w.field("kind", "explicit");
                w.field("store", store);
                w.field("compare", compare);
                w.field("rollback", rollback);
            }
        });
    }
}

impl FromJson for CostsSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        match json.req("kind")?.as_str()? {
            "paper-scp" => Ok(CostsSpec::PaperScp),
            "paper-ccp" => Ok(CostsSpec::PaperCcp),
            "explicit" => Ok(CostsSpec::Explicit {
                store: json.req("store")?.as_f64()?,
                compare: json.req("compare")?.as_f64()?,
                rollback: json.get("rollback").map_or(Ok(0.0), Json::as_f64)?,
            }),
            other => Err(SpecError::unknown_kind(
                "costs",
                other,
                "paper-scp, paper-ccp, explicit",
            )),
        }
    }
}

/// DVS speed-level table.
#[derive(Debug, Clone, PartialEq)]
pub enum DvsSpec {
    /// The paper-calibrated two-speed table (`f1 = 1, V1 = √2; f2 = 2, V2 = 2`).
    PaperDefault,
    /// Two speeds `f2 = 2·f1` with explicit voltages.
    TwoSpeed {
        /// Voltage at `f1`.
        v1: f64,
        /// Voltage at `f2`.
        v2: f64,
    },
    /// Fully explicit level table.
    Levels {
        /// `(frequency, voltage)` pairs, ascending in frequency.
        levels: Vec<(f64, f64)>,
    },
}

impl DvsSpec {
    /// Builds the [`DvsConfig`].
    pub fn build(&self) -> Result<DvsConfig, SpecError> {
        match self {
            DvsSpec::PaperDefault => Ok(DvsConfig::paper_default()),
            DvsSpec::TwoSpeed { v1, v2 } => {
                finite_pos(*v1, "v1")?;
                finite_pos(*v2, "v2")?;
                Ok(DvsConfig::two_speed(*v1, *v2))
            }
            DvsSpec::Levels { levels } => {
                if levels.is_empty() {
                    return Err(SpecError::invalid("DVS level table must not be empty"));
                }
                let mut built = Vec::with_capacity(levels.len());
                for &(f, v) in levels {
                    finite_pos(f, "level frequency")?;
                    finite_pos(v, "level voltage")?;
                    built.push(SpeedLevel::new(f, v));
                }
                if !built.windows(2).all(|w| w[0].frequency < w[1].frequency) {
                    return Err(SpecError::invalid(
                        "DVS levels must be strictly ascending in frequency",
                    ));
                }
                Ok(DvsConfig::new(built))
            }
        }
    }
}

impl ToJson for DvsSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            DvsSpec::PaperDefault => w.field("kind", "paper-default"),
            DvsSpec::TwoSpeed { v1, v2 } => {
                w.field("kind", "two-speed");
                w.field("v1", v1);
                w.field("v2", v2);
            }
            DvsSpec::Levels { levels } => {
                w.field("kind", "levels");
                w.key("levels");
                w.array(|w| {
                    for (f, v) in levels {
                        w.object(|w| {
                            w.field("frequency", f);
                            w.field("voltage", v);
                        });
                    }
                });
            }
        });
    }
}

impl FromJson for DvsSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        match json.req("kind")?.as_str()? {
            "paper-default" => Ok(DvsSpec::PaperDefault),
            "two-speed" => Ok(DvsSpec::TwoSpeed {
                v1: json.req("v1")?.as_f64()?,
                v2: json.req("v2")?.as_f64()?,
            }),
            "levels" => {
                let mut levels = Vec::new();
                for item in json.req("levels")?.as_array()? {
                    levels.push((
                        item.req("frequency")?.as_f64()?,
                        item.req("voltage")?.as_f64()?,
                    ));
                }
                Ok(DvsSpec::Levels { levels })
            }
            other => Err(SpecError::unknown_kind(
                "dvs",
                other,
                "paper-default, two-speed, levels",
            )),
        }
    }
}

/// A full scenario: task, costs, DVS table and redundancy degree.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Task work volume and deadline.
    pub work: WorkSpec,
    /// Checkpoint costs.
    pub costs: CostsSpec,
    /// DVS table.
    pub dvs: DvsSpec,
    /// Redundant processors charged for energy (2 = DMR).
    pub processors: u32,
}

impl ScenarioSpec {
    /// The paper's nominal SCP scenario (`U = 0.76, D = 10000`).
    pub fn paper_nominal() -> Self {
        Self {
            work: WorkSpec::Utilization {
                utilization: 0.76,
                speed: 1.0,
                deadline: 10_000.0,
            },
            costs: CostsSpec::PaperScp,
            dvs: DvsSpec::PaperDefault,
            processors: 2,
        }
    }

    /// Builds the runtime [`Scenario`].
    pub fn build(&self) -> Result<Scenario, SpecError> {
        if self.processors == 0 {
            return Err(SpecError::invalid("at least one processor is required"));
        }
        Ok(
            Scenario::new(self.work.build()?, self.costs.build()?, self.dvs.build()?)
                .with_processors(self.processors),
        )
    }
}

impl ToJson for ScenarioSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("work", &self.work);
            w.field("costs", &self.costs);
            w.field("dvs", &self.dvs);
            w.field("processors", &self.processors);
        });
    }
}

impl FromJson for ScenarioSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            work: WorkSpec::from_json(json.req("work")?)?,
            costs: json
                .get("costs")
                .map_or(Ok(CostsSpec::PaperScp), CostsSpec::from_json)?,
            dvs: json
                .get("dvs")
                .map_or(Ok(DvsSpec::PaperDefault), DvsSpec::from_json)?,
            processors: json.get("processors").map_or(Ok(2), Json::as_u32)?,
        })
    }
}

/// Transient-fault arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Homogeneous Poisson arrivals — the paper's model.
    Poisson {
        /// Arrival rate `λ`.
        lambda: f64,
    },
    /// A fixed schedule of fault instants (deterministic tests).
    Deterministic {
        /// Absolute fault times.
        times: Vec<f64>,
    },
    /// Weibull renewal process (bursty for `shape < 1`).
    Weibull {
        /// Shape parameter.
        shape: f64,
        /// Scale parameter.
        scale: f64,
    },
    /// Two-state Markov-modulated Poisson process (radiation bursts).
    Burst {
        /// Fault rate in the quiet state.
        quiet_rate: f64,
        /// Fault rate in the burst state.
        burst_rate: f64,
        /// Mean dwell time in the quiet state.
        mean_quiet_dwell: f64,
        /// Mean dwell time in the burst state.
        mean_burst_dwell: f64,
    },
    /// Piecewise-constant rate profile (mission phases).
    Phased {
        /// `(duration, rate)` phases.
        phases: Vec<(f64, f64)>,
        /// Whether the profile cycles forever.
        repeat: bool,
    },
}

impl FaultSpec {
    /// Builds the fault process for one replication seed, as the concrete
    /// [`FaultKind`] enum (no heap allocation, no virtual dispatch).
    ///
    /// The same `(spec, seed)` pair always yields an identical stream —
    /// this is the reproducibility contract every experiment relies on.
    /// Replication loops build once per block and re-seed the instance via
    /// [`FaultKind::reset`], which yields the same stream as rebuilding.
    /// Box the result for the open `dyn FaultProcess` escape hatch.
    pub fn build(&self, seed: u64) -> Result<FaultKind, SpecError> {
        let rng = StdRng::seed_from_u64(seed);
        match self {
            FaultSpec::Poisson { lambda } => {
                if lambda.is_nan() {
                    return Err(SpecError::invalid("fault rate must not be NaN"));
                }
                Ok(FaultKind::Poisson(PoissonProcess::new(*lambda, rng)))
            }
            FaultSpec::Deterministic { times } => {
                if times.iter().any(|t| !t.is_finite() || *t < 0.0) {
                    return Err(SpecError::invalid(
                        "deterministic fault instants must be finite and non-negative",
                    ));
                }
                Ok(FaultKind::Deterministic(DeterministicFaults::new(
                    times.clone(),
                )))
            }
            FaultSpec::Weibull { shape, scale } => {
                finite_pos(*shape, "Weibull shape")?;
                finite_pos(*scale, "Weibull scale")?;
                Ok(FaultKind::Weibull(WeibullRenewal::new(*shape, *scale, rng)))
            }
            FaultSpec::Burst {
                quiet_rate,
                burst_rate,
                mean_quiet_dwell,
                mean_burst_dwell,
            } => {
                finite_nonneg(*quiet_rate, "quiet rate")?;
                finite_pos(*burst_rate, "burst rate")?;
                finite_pos(*mean_quiet_dwell, "quiet dwell")?;
                finite_pos(*mean_burst_dwell, "burst dwell")?;
                Ok(FaultKind::Burst(BurstProcess::new(
                    *quiet_rate,
                    *burst_rate,
                    *mean_quiet_dwell,
                    *mean_burst_dwell,
                    rng,
                )))
            }
            FaultSpec::Phased { phases, repeat } => {
                if phases.is_empty() {
                    return Err(SpecError::invalid("at least one phase is required"));
                }
                for &(d, r) in phases {
                    finite_pos(d, "phase duration")?;
                    finite_nonneg(r, "phase rate")?;
                }
                Ok(FaultKind::Phased(PhasedPoisson::new(
                    phases.clone(),
                    *repeat,
                    rng,
                )))
            }
        }
    }

    /// The nominal rate `λ` when the process has one (used by sweeps).
    pub fn nominal_lambda(&self) -> Option<f64> {
        match self {
            FaultSpec::Poisson { lambda } => Some(*lambda),
            _ => None,
        }
    }

    /// The process's `"kind"` tag, as its JSON document names it.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::Poisson { .. } => "poisson",
            FaultSpec::Deterministic { .. } => "deterministic",
            FaultSpec::Weibull { .. } => "weibull",
            FaultSpec::Burst { .. } => "burst",
            FaultSpec::Phased { .. } => "phased",
        }
    }
}

impl ToJson for FaultSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("kind", self.kind());
            match self {
                FaultSpec::Poisson { lambda } => w.field("lambda", lambda),
                FaultSpec::Deterministic { times } => w.field("times", times),
                FaultSpec::Weibull { shape, scale } => {
                    w.field("shape", shape);
                    w.field("scale", scale);
                }
                FaultSpec::Burst {
                    quiet_rate,
                    burst_rate,
                    mean_quiet_dwell,
                    mean_burst_dwell,
                } => {
                    w.field("quiet_rate", quiet_rate);
                    w.field("burst_rate", burst_rate);
                    w.field("mean_quiet_dwell", mean_quiet_dwell);
                    w.field("mean_burst_dwell", mean_burst_dwell);
                }
                FaultSpec::Phased { phases, repeat } => {
                    w.key("phases");
                    w.array(|w| {
                        for &(duration, rate) in phases {
                            w.array(|w| {
                                w.float(duration);
                                w.float(rate);
                            });
                        }
                    });
                    w.field("repeat", repeat);
                }
            }
        });
    }
}

impl FromJson for FaultSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        match json.req("kind")?.as_str()? {
            "poisson" => Ok(FaultSpec::Poisson {
                lambda: json.req("lambda")?.as_f64()?,
            }),
            "deterministic" => {
                let times = json
                    .req("times")?
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(FaultSpec::Deterministic { times })
            }
            "weibull" => Ok(FaultSpec::Weibull {
                shape: json.req("shape")?.as_f64()?,
                scale: json.req("scale")?.as_f64()?,
            }),
            "burst" => Ok(FaultSpec::Burst {
                quiet_rate: json.req("quiet_rate")?.as_f64()?,
                burst_rate: json.req("burst_rate")?.as_f64()?,
                mean_quiet_dwell: json.req("mean_quiet_dwell")?.as_f64()?,
                mean_burst_dwell: json.req("mean_burst_dwell")?.as_f64()?,
            }),
            "phased" => {
                let mut phases = Vec::new();
                for item in json.req("phases")?.as_array()? {
                    let pair = item.as_array()?;
                    if pair.len() != 2 {
                        return Err(SpecError::invalid(
                            "each phase must be a [duration, rate] pair",
                        ));
                    }
                    phases.push((pair[0].as_f64()?, pair[1].as_f64()?));
                }
                Ok(FaultSpec::Phased {
                    phases,
                    repeat: json.get("repeat").map_or(Ok(false), Json::as_bool)?,
                })
            }
            other => Err(SpecError::unknown_kind(
                "faults",
                other,
                "poisson, deterministic, weibull, burst, phased",
            )),
        }
    }
}

/// How adaptive policies optimize the sub-checkpoint count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerSpec {
    /// The paper's Fig. 2 closed-form procedure (default).
    #[default]
    PaperClosedForm,
    /// Direct integer search over the exact recursion (ablation).
    ExactRecursion,
}

impl OptimizerSpec {
    fn build(self) -> OptimizeMethod {
        match self {
            OptimizerSpec::PaperClosedForm => OptimizeMethod::PaperClosedForm,
            OptimizerSpec::ExactRecursion => OptimizeMethod::ExactRecursion,
        }
    }

    pub(crate) fn tag(self) -> &'static str {
        match self {
            OptimizerSpec::PaperClosedForm => "paper-closed-form",
            OptimizerSpec::ExactRecursion => "exact-recursion",
        }
    }

    fn from_tag(tag: &str) -> Result<Self, SpecError> {
        match tag {
            "paper-closed-form" => Ok(OptimizerSpec::PaperClosedForm),
            "exact-recursion" => Ok(OptimizerSpec::ExactRecursion),
            other => Err(SpecError::unknown_kind(
                "optimizer",
                other,
                "paper-closed-form, exact-recursion",
            )),
        }
    }
}

/// One of the eight checkpointing schemes in `eacp_core::policies`.
///
/// | Tag | Paper name | Policy `name()` |
/// |---|---|---|
/// | `poisson` | Poisson-arrival baseline | `Poisson` |
/// | `kft` | k-fault-tolerant baseline | `k-f-t` |
/// | `a_d` | ADT_DVS (DATE'03) | `A_D` |
/// | `a_d_s` | `adapchp_dvs_SCP` (Fig. 6) | `A_D_S` |
/// | `a_d_c` | `adapchp_dvs_CCP` (Fig. 7) | `A_D_C` |
/// | `a_s` | `adapchp-SCP` (Fig. 3) | `A_S` |
/// | `a_c` | `adapchp-CCP` | `A_C` |
/// | `cscp` | ADT without DVS (ablation) | `A` |
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Static `sqrt(2C/λ)` CSCP interval at a fixed speed.
    Poisson {
        /// Assumed fault rate `λ`.
        lambda: f64,
        /// DVS level index the scheme is pinned to.
        speed: usize,
    },
    /// Static `sqrt(NC/k)` CSCP interval at a fixed speed.
    KFaultTolerant {
        /// Fault-tolerance target `k`.
        k: u32,
        /// DVS level index the scheme is pinned to.
        speed: usize,
    },
    /// `A_D`: adaptive CSCP with DVS, no subdivision.
    AdtDvs {
        /// Assumed fault rate `λ`.
        lambda: f64,
        /// Fault-tolerance target `k`.
        k: u32,
        /// Sub-checkpoint count optimizer.
        optimizer: OptimizerSpec,
    },
    /// `A_D_S`: adaptive CSCP + SCP subdivision with DVS (the proposal).
    DvsScp {
        /// Assumed fault rate `λ`.
        lambda: f64,
        /// Fault-tolerance target `k`.
        k: u32,
        /// Sub-checkpoint count optimizer.
        optimizer: OptimizerSpec,
    },
    /// `A_D_C`: adaptive CSCP + CCP subdivision with DVS (the proposal).
    DvsCcp {
        /// Assumed fault rate `λ`.
        lambda: f64,
        /// Fault-tolerance target `k`.
        k: u32,
        /// Sub-checkpoint count optimizer.
        optimizer: OptimizerSpec,
    },
    /// `A_S`: adaptive SCP subdivision at a fixed speed.
    Scp {
        /// Assumed fault rate `λ`.
        lambda: f64,
        /// Fault-tolerance target `k`.
        k: u32,
        /// Fixed DVS level index.
        speed: usize,
        /// Sub-checkpoint count optimizer.
        optimizer: OptimizerSpec,
    },
    /// `A_C`: adaptive CCP subdivision at a fixed speed.
    Ccp {
        /// Assumed fault rate `λ`.
        lambda: f64,
        /// Fault-tolerance target `k`.
        k: u32,
        /// Fixed DVS level index.
        speed: usize,
        /// Sub-checkpoint count optimizer.
        optimizer: OptimizerSpec,
    },
    /// `A`: adaptive CSCP interval at a fixed speed (ADT without DVS).
    Cscp {
        /// Assumed fault rate `λ`.
        lambda: f64,
        /// Fault-tolerance target `k`.
        k: u32,
        /// Fixed DVS level index.
        speed: usize,
    },
}

impl PolicySpec {
    /// All eight scheme tags, in the order of the module table.
    pub const TAGS: [&'static str; 8] = [
        "poisson", "kft", "a_d", "a_d_s", "a_d_c", "a_s", "a_c", "cscp",
    ];

    /// The spec's tag (`a_d_s`, ...).
    pub fn tag(&self) -> &'static str {
        match self {
            PolicySpec::Poisson { .. } => "poisson",
            PolicySpec::KFaultTolerant { .. } => "kft",
            PolicySpec::AdtDvs { .. } => "a_d",
            PolicySpec::DvsScp { .. } => "a_d_s",
            PolicySpec::DvsCcp { .. } => "a_d_c",
            PolicySpec::Scp { .. } => "a_s",
            PolicySpec::Ccp { .. } => "a_c",
            PolicySpec::Cscp { .. } => "cscp",
        }
    }

    /// The `Policy::name()` the built policy will report.
    pub fn policy_name(&self) -> &'static str {
        match self {
            PolicySpec::Poisson { .. } => "Poisson",
            PolicySpec::KFaultTolerant { .. } => "k-f-t",
            PolicySpec::AdtDvs { .. } => "A_D",
            PolicySpec::DvsScp { .. } => "A_D_S",
            PolicySpec::DvsCcp { .. } => "A_D_C",
            PolicySpec::Scp { .. } => "A_S",
            PolicySpec::Ccp { .. } => "A_C",
            PolicySpec::Cscp { .. } => "A",
        }
    }

    /// Constructs the spec for a scheme tag with shared parameters — the
    /// desugaring used by CLI flags (`--scheme a_d_s --lambda ... --k ...`).
    pub fn from_tag(tag: &str, lambda: f64, k: u32, speed: usize) -> Result<Self, SpecError> {
        let optimizer = OptimizerSpec::default();
        Ok(match tag {
            "poisson" => PolicySpec::Poisson { lambda, speed },
            "kft" => PolicySpec::KFaultTolerant { k, speed },
            "a_d" => PolicySpec::AdtDvs {
                lambda,
                k,
                optimizer,
            },
            "a_d_s" => PolicySpec::DvsScp {
                lambda,
                k,
                optimizer,
            },
            "a_d_c" => PolicySpec::DvsCcp {
                lambda,
                k,
                optimizer,
            },
            "a_s" => PolicySpec::Scp {
                lambda,
                k,
                speed,
                optimizer,
            },
            "a_c" => PolicySpec::Ccp {
                lambda,
                k,
                speed,
                optimizer,
            },
            "cscp" => PolicySpec::Cscp { lambda, k, speed },
            other => {
                return Err(SpecError::unknown_kind(
                    "policy",
                    other,
                    "poisson, kft, a_d, a_d_s, a_d_c, a_s, a_c, cscp",
                ))
            }
        })
    }

    /// Builds a fresh policy instance, as the concrete [`PolicyKind`]
    /// enum (no heap allocation, no virtual dispatch).
    ///
    /// Policies are stateful across one run. Monte-Carlo drivers build
    /// one instance per block and restore it per replication via
    /// [`PolicyKind::reset`], which is equivalent to building fresh. Box
    /// the result for the open `dyn Policy` escape hatch.
    pub fn build(&self) -> Result<PolicyKind, SpecError> {
        let check_lambda = |l: f64| -> Result<f64, SpecError> {
            if l >= 0.0 && !l.is_nan() {
                Ok(l)
            } else {
                Err(SpecError::invalid(format!(
                    "policy lambda must be non-negative, got {l}"
                )))
            }
        };
        Ok(match *self {
            PolicySpec::Poisson { lambda, speed } => {
                if check_lambda(lambda)? <= 0.0 {
                    return Err(SpecError::invalid(
                        "the Poisson baseline needs a positive lambda (its interval is sqrt(2C/λ))",
                    ));
                }
                PolicyKind::Poisson(PoissonArrival::new(lambda, speed))
            }
            PolicySpec::KFaultTolerant { k, speed } => {
                if k == 0 {
                    return Err(SpecError::invalid("k-fault-tolerant requires k >= 1"));
                }
                PolicyKind::KFaultTolerant(KFaultTolerant::new(k, speed))
            }
            PolicySpec::AdtDvs {
                lambda,
                k,
                optimizer,
            } => PolicyKind::Adaptive(
                Adaptive::adt_dvs(check_lambda(lambda)?, k).with_optimizer(optimizer.build()),
            ),
            PolicySpec::DvsScp {
                lambda,
                k,
                optimizer,
            } => PolicyKind::Adaptive(
                Adaptive::dvs_scp(check_lambda(lambda)?, k).with_optimizer(optimizer.build()),
            ),
            PolicySpec::DvsCcp {
                lambda,
                k,
                optimizer,
            } => PolicyKind::Adaptive(
                Adaptive::dvs_ccp(check_lambda(lambda)?, k).with_optimizer(optimizer.build()),
            ),
            PolicySpec::Scp {
                lambda,
                k,
                speed,
                optimizer,
            } => PolicyKind::Adaptive(
                Adaptive::scp(check_lambda(lambda)?, k, speed).with_optimizer(optimizer.build()),
            ),
            PolicySpec::Ccp {
                lambda,
                k,
                speed,
                optimizer,
            } => PolicyKind::Adaptive(
                Adaptive::ccp(check_lambda(lambda)?, k, speed).with_optimizer(optimizer.build()),
            ),
            PolicySpec::Cscp { lambda, k, speed } => {
                PolicyKind::Adaptive(Adaptive::cscp(check_lambda(lambda)?, k, speed))
            }
        })
    }

    /// The sub-checkpoint count optimizer, where the scheme has one.
    pub fn optimizer(&self) -> Option<OptimizerSpec> {
        match *self {
            PolicySpec::AdtDvs { optimizer, .. }
            | PolicySpec::DvsScp { optimizer, .. }
            | PolicySpec::DvsCcp { optimizer, .. }
            | PolicySpec::Scp { optimizer, .. }
            | PolicySpec::Ccp { optimizer, .. } => Some(optimizer),
            PolicySpec::Poisson { .. }
            | PolicySpec::KFaultTolerant { .. }
            | PolicySpec::Cscp { .. } => None,
        }
    }

    /// The fault-tolerance target `k`, where the scheme has one.
    pub fn k(&self) -> Option<u32> {
        match *self {
            PolicySpec::KFaultTolerant { k, .. }
            | PolicySpec::AdtDvs { k, .. }
            | PolicySpec::DvsScp { k, .. }
            | PolicySpec::DvsCcp { k, .. }
            | PolicySpec::Scp { k, .. }
            | PolicySpec::Ccp { k, .. }
            | PolicySpec::Cscp { k, .. } => Some(k),
            PolicySpec::Poisson { .. } => None,
        }
    }

    /// The fixed DVS level index, where the scheme is speed-pinned.
    pub fn speed(&self) -> Option<usize> {
        match *self {
            PolicySpec::Poisson { speed, .. }
            | PolicySpec::KFaultTolerant { speed, .. }
            | PolicySpec::Scp { speed, .. }
            | PolicySpec::Ccp { speed, .. }
            | PolicySpec::Cscp { speed, .. } => Some(speed),
            PolicySpec::AdtDvs { .. } | PolicySpec::DvsScp { .. } | PolicySpec::DvsCcp { .. } => {
                None
            }
        }
    }

    /// Checks the pinned speed, if any, against a DVS table of `levels`
    /// levels.
    ///
    /// # Errors
    ///
    /// [`SpecError::SpeedOutOfRange`] when the index is past the table.
    pub fn check_speed(&self, levels: usize) -> Result<(), SpecError> {
        match self.speed() {
            Some(speed) if speed >= levels => Err(SpecError::SpeedOutOfRange { speed, levels }),
            _ => Ok(()),
        }
    }

    /// Overrides the assumed fault rate, where the scheme has one.
    pub fn with_lambda(mut self, new_lambda: f64) -> Self {
        match &mut self {
            PolicySpec::Poisson { lambda, .. }
            | PolicySpec::AdtDvs { lambda, .. }
            | PolicySpec::DvsScp { lambda, .. }
            | PolicySpec::DvsCcp { lambda, .. }
            | PolicySpec::Scp { lambda, .. }
            | PolicySpec::Ccp { lambda, .. }
            | PolicySpec::Cscp { lambda, .. } => *lambda = new_lambda,
            PolicySpec::KFaultTolerant { .. } => {}
        }
        self
    }

    /// Overrides the fault-tolerance target, where the scheme has one.
    pub fn with_k(mut self, new_k: u32) -> Self {
        match &mut self {
            PolicySpec::KFaultTolerant { k, .. }
            | PolicySpec::AdtDvs { k, .. }
            | PolicySpec::DvsScp { k, .. }
            | PolicySpec::DvsCcp { k, .. }
            | PolicySpec::Scp { k, .. }
            | PolicySpec::Ccp { k, .. }
            | PolicySpec::Cscp { k, .. } => *k = new_k,
            PolicySpec::Poisson { .. } => {}
        }
        self
    }
}

/// The paper's proposal at its nominal operating point: `A_D_S` at
/// `λ = 1.4e-3`, `k = 5` (Table 1(a), first row).
impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec::DvsScp {
            lambda: 1.4e-3,
            k: 5,
            optimizer: OptimizerSpec::default(),
        }
    }
}

impl ToJson for PolicySpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("kind", self.tag());
            match self {
                PolicySpec::Poisson { lambda, speed } => {
                    w.field("lambda", lambda);
                    w.field("speed", speed);
                }
                PolicySpec::KFaultTolerant { k, speed } => {
                    w.field("k", k);
                    w.field("speed", speed);
                }
                PolicySpec::AdtDvs {
                    lambda,
                    k,
                    optimizer,
                }
                | PolicySpec::DvsScp {
                    lambda,
                    k,
                    optimizer,
                }
                | PolicySpec::DvsCcp {
                    lambda,
                    k,
                    optimizer,
                } => {
                    w.field("lambda", lambda);
                    w.field("k", k);
                    w.field("optimizer", optimizer.tag());
                }
                PolicySpec::Scp {
                    lambda,
                    k,
                    speed,
                    optimizer,
                }
                | PolicySpec::Ccp {
                    lambda,
                    k,
                    speed,
                    optimizer,
                } => {
                    w.field("lambda", lambda);
                    w.field("k", k);
                    w.field("speed", speed);
                    w.field("optimizer", optimizer.tag());
                }
                PolicySpec::Cscp { lambda, k, speed } => {
                    w.field("lambda", lambda);
                    w.field("k", k);
                    w.field("speed", speed);
                }
            }
        });
    }
}

impl FromJson for PolicySpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let kind = json.req("kind")?.as_str()?;
        let lambda = || json.req("lambda")?.as_f64();
        let k = || json.req("k")?.as_u32();
        let speed = || json.get("speed").map_or(Ok(0), Json::as_usize);
        let optimizer = || -> Result<OptimizerSpec, SpecError> {
            match json.get("optimizer") {
                None => Ok(OptimizerSpec::default()),
                Some(v) => OptimizerSpec::from_tag(v.as_str()?),
            }
        };
        Ok(match kind {
            "poisson" => PolicySpec::Poisson {
                lambda: lambda()?,
                speed: speed()?,
            },
            "kft" => PolicySpec::KFaultTolerant {
                k: k()?,
                speed: speed()?,
            },
            "a_d" => PolicySpec::AdtDvs {
                lambda: lambda()?,
                k: k()?,
                optimizer: optimizer()?,
            },
            "a_d_s" => PolicySpec::DvsScp {
                lambda: lambda()?,
                k: k()?,
                optimizer: optimizer()?,
            },
            "a_d_c" => PolicySpec::DvsCcp {
                lambda: lambda()?,
                k: k()?,
                optimizer: optimizer()?,
            },
            "a_s" => PolicySpec::Scp {
                lambda: lambda()?,
                k: k()?,
                speed: speed()?,
                optimizer: optimizer()?,
            },
            "a_c" => PolicySpec::Ccp {
                lambda: lambda()?,
                k: k()?,
                speed: speed()?,
                optimizer: optimizer()?,
            },
            "cscp" => PolicySpec::Cscp {
                lambda: lambda()?,
                k: k()?,
                speed: speed()?,
            },
            other => {
                return Err(SpecError::unknown_kind(
                    "policy",
                    other,
                    "poisson, kft, a_d, a_d_s, a_d_c, a_s, a_c, cscp",
                ))
            }
        })
    }
}

/// Monte-Carlo replication parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McSpec {
    /// Number of independent replications.
    pub replications: u64,
    /// Base seed (replication seeds derive deterministically from it).
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for McSpec {
    fn default() -> Self {
        Self {
            replications: 2_000,
            seed: 2006,
            threads: 0,
        }
    }
}

impl McSpec {
    /// Checks the replication count is positive.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.replications == 0 {
            return Err(SpecError::invalid("replications must be positive"));
        }
        Ok(())
    }
}

impl ToJson for McSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("replications", &self.replications);
            w.field("seed", &self.seed);
            w.field("threads", &self.threads);
        });
    }
}

impl FromJson for McSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let d = McSpec::default();
        Ok(Self {
            replications: json
                .get("replications")
                .map_or(Ok(d.replications), Json::as_u64)?,
            seed: json.get("seed").map_or(Ok(d.seed), Json::as_u64)?,
            threads: json.get("threads").map_or(Ok(d.threads), Json::as_usize)?,
        })
    }
}

/// Default per-request transport timeout for remote queue endpoints, in
/// milliseconds (applies to connect, write and read individually).
pub const DEFAULT_REMOTE_TIMEOUT_MS: u64 = 10_000;

/// Work-queue scheduling configuration for the execution layer.
///
/// When present on an [`ExecSpec`], the experiment's replications are
/// scheduled through `eacp-exec`'s `QueueRunner` — a work queue of
/// canonical reduction blocks drained by a worker pool with lease retry —
/// instead of the plain multi-threaded runner. Results are bit-identical
/// either way; the queue buys failure tolerance and the seam for remote
/// workers. With `endpoints` set, leased blocks are shipped to `eacp
/// serve` processes at those addresses instead of running in-process;
/// the summary is still bit-identical (per-replication seeding makes a
/// block's partial the same wherever it runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSpec {
    /// Worker-pool size (0 = available parallelism).
    pub workers: usize,
    /// Per-assignment attempt budget (first attempt + retries; ≥ 1).
    pub max_attempts: u32,
    /// Remote worker endpoints (`host:port`). Empty = in-process workers.
    pub endpoints: Vec<String>,
    /// Per-request transport timeout in milliseconds (connect, write and
    /// read each get this budget). Only meaningful with `endpoints`.
    pub timeout_ms: u64,
}

impl Default for QueueSpec {
    fn default() -> Self {
        Self {
            workers: 0,
            max_attempts: 3,
            endpoints: Vec::new(),
            timeout_ms: DEFAULT_REMOTE_TIMEOUT_MS,
        }
    }
}

/// Checks one `host:port` endpoint string.
fn validate_endpoint(endpoint: &str) -> Result<(), SpecError> {
    let bad = |why: &str| {
        Err(SpecError::invalid(format!(
            "queue endpoint {endpoint:?} {why} (expected host:port)"
        )))
    };
    let Some((host, port)) = endpoint.rsplit_once(':') else {
        return bad("has no port");
    };
    if host.is_empty() {
        return bad("has an empty host");
    }
    match port.parse::<u16>() {
        Ok(0) => bad("has port 0"),
        Ok(_) => Ok(()),
        Err(_) => bad("has a non-numeric port"),
    }
}

impl QueueSpec {
    /// Validates the scheduling parameters.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.max_attempts == 0 {
            return Err(SpecError::invalid(
                "queue max_attempts must be at least 1 (the first attempt)",
            ));
        }
        for endpoint in &self.endpoints {
            validate_endpoint(endpoint)?;
        }
        if !self.endpoints.is_empty() && self.timeout_ms == 0 {
            return Err(SpecError::invalid(
                "queue timeout_ms must be positive with remote endpoints",
            ));
        }
        Ok(())
    }
}

impl ToJson for QueueSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("workers", &self.workers);
            w.field("max_attempts", &self.max_attempts);
            // The remote fields are emitted only when they depart from the
            // in-process defaults, so documents written before the remote
            // transport existed round-trip byte-identically.
            if !self.endpoints.is_empty() {
                w.field("endpoints", &self.endpoints);
            }
            if self.timeout_ms != DEFAULT_REMOTE_TIMEOUT_MS {
                w.field("timeout_ms", &self.timeout_ms);
            }
        });
    }
}

impl FromJson for QueueSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let d = QueueSpec::default();
        Ok(Self {
            workers: json.get("workers").map_or(Ok(d.workers), Json::as_usize)?,
            max_attempts: json
                .get("max_attempts")
                .map_or(Ok(d.max_attempts), Json::as_u32)?,
            endpoints: match json.get("endpoints") {
                None => d.endpoints,
                Some(v) => v
                    .as_array()?
                    .iter()
                    .map(|e| e.as_str().map(str::to_owned))
                    .collect::<Result<_, _>>()?,
            },
            timeout_ms: json
                .get("timeout_ms")
                .map_or(Ok(d.timeout_ms), Json::as_u64)?,
        })
    }
}

/// Executor semantics switches (mirrors [`ExecutorOptions`]), plus the
/// execution-layer scheduling choice ([`QueueSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecSpec {
    /// Whether faults can strike during checkpoint/rollback operations.
    pub faults_during_overhead: bool,
    /// Stop once the deadline has passed.
    pub stop_at_deadline: bool,
    /// Safety cap on the work of one run: executed operations (segments
    /// and checkpoints) plus fault arrivals drawn. A run that reaches it
    /// stops with the "operation budget exhausted" anomaly.
    pub max_operations: u64,
    /// Zero-progress rounds tolerated before flagging an anomaly.
    pub max_stalled_rounds: u32,
    /// Run through the work-queue scheduler (`None` = plain local runner).
    pub queue: Option<QueueSpec>,
}

impl Default for ExecSpec {
    fn default() -> Self {
        let d = ExecutorOptions::default();
        Self {
            faults_during_overhead: d.faults_during_overhead,
            stop_at_deadline: d.stop_at_deadline,
            max_operations: d.max_operations,
            max_stalled_rounds: d.max_stalled_rounds,
            queue: None,
        }
    }
}

impl ExecSpec {
    /// The analysis-faithful model the paper's tables use (faults only
    /// during useful computation).
    pub fn paper() -> Self {
        Self {
            faults_during_overhead: false,
            ..Self::default()
        }
    }

    /// Requests work-queue scheduling with a pool of `workers`.
    pub fn with_queue(mut self, queue: QueueSpec) -> Self {
        self.queue = Some(queue);
        self
    }

    /// Builds the [`ExecutorOptions`].
    ///
    /// The queue configuration is not part of the engine options — it is
    /// consumed by the execution layer — but it is validated here so
    /// `ExperimentSpec::validate` rejects a bad one.
    pub fn build(&self) -> Result<ExecutorOptions, SpecError> {
        if self.max_operations == 0 {
            return Err(SpecError::invalid("max_operations must be positive"));
        }
        if let Some(queue) = &self.queue {
            queue.validate()?;
        }
        Ok(ExecutorOptions {
            max_operations: self.max_operations,
            max_stalled_rounds: self.max_stalled_rounds,
            faults_during_overhead: self.faults_during_overhead,
            stop_at_deadline: self.stop_at_deadline,
        })
    }
}

impl ToJson for ExecSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("faults_during_overhead", &self.faults_during_overhead);
            w.field("stop_at_deadline", &self.stop_at_deadline);
            w.field("max_operations", &self.max_operations);
            w.field("max_stalled_rounds", &self.max_stalled_rounds);
            // Emitted only when present, so documents written before the
            // queue scheduler existed round-trip byte-identically.
            if let Some(queue) = &self.queue {
                w.field("queue", queue);
            }
        });
    }
}

impl FromJson for ExecSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let d = ExecSpec::default();
        Ok(Self {
            faults_during_overhead: json
                .get("faults_during_overhead")
                .map_or(Ok(d.faults_during_overhead), Json::as_bool)?,
            stop_at_deadline: json
                .get("stop_at_deadline")
                .map_or(Ok(d.stop_at_deadline), Json::as_bool)?,
            max_operations: json
                .get("max_operations")
                .map_or(Ok(d.max_operations), Json::as_u64)?,
            max_stalled_rounds: json
                .get("max_stalled_rounds")
                .map_or(Ok(d.max_stalled_rounds), Json::as_u32)?,
            queue: match json.get("queue") {
                None | Some(Json::Null) => None,
                Some(q) => Some(QueueSpec::from_json(q)?),
            },
        })
    }
}

/// The top-level experiment description: everything needed to reproduce one
/// Monte-Carlo cell, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Human-readable experiment name.
    pub name: String,
    /// The simulated world.
    pub scenario: ScenarioSpec,
    /// The injected fault process.
    pub faults: FaultSpec,
    /// The checkpointing scheme under test.
    pub policy: PolicySpec,
    /// Replication parameters.
    pub mc: McSpec,
    /// Executor semantics.
    pub executor: ExecSpec,
}

impl ExperimentSpec {
    /// A fully-defaulted experiment at the paper's nominal operating point
    /// (Table 1(a) first row, proposed scheme).
    pub fn paper_nominal() -> Self {
        Self {
            name: "paper-nominal".to_owned(),
            scenario: ScenarioSpec::paper_nominal(),
            faults: FaultSpec::Poisson { lambda: 1.4e-3 },
            policy: PolicySpec::default(),
            mc: McSpec::default(),
            executor: ExecSpec::paper(),
        }
    }

    /// Parses a spec from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Reads a spec file.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json_str(&text)
    }

    /// Writes the spec as a JSON file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SpecError> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))
    }

    /// Validates every component by building it once.
    pub fn validate(&self) -> Result<(), SpecError> {
        let scenario = self.scenario.build()?;
        self.faults.build(0)?;
        self.policy.build()?;
        self.policy.check_speed(scenario.dvs().len())?;
        self.mc.validate()?;
        self.executor.build()?;
        Ok(())
    }
}

impl ToJson for ExperimentSpec {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("name", &self.name);
            w.field("scenario", &self.scenario);
            w.field("faults", &self.faults);
            w.field("policy", &self.policy);
            w.field("mc", &self.mc);
            w.field("executor", &self.executor);
        });
    }
}

impl FromJson for ExperimentSpec {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            name: json
                .get("name")
                .map_or(Ok("unnamed"), Json::as_str)?
                .to_owned(),
            scenario: ScenarioSpec::from_json(json.req("scenario")?)?,
            faults: FaultSpec::from_json(json.req("faults")?)?,
            policy: PolicySpec::from_json(json.req("policy")?)?,
            mc: json
                .get("mc")
                .map_or_else(|| Ok(McSpec::default()), McSpec::from_json)?,
            executor: json
                .get("executor")
                .map_or_else(|| Ok(ExecSpec::default()), ExecSpec::from_json)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_faults::FaultProcess;
    use eacp_sim::Policy;

    #[test]
    fn every_policy_tag_builds_with_matching_name() {
        for tag in PolicySpec::TAGS {
            let spec = PolicySpec::from_tag(tag, 1.4e-3, 5, 0).unwrap();
            assert_eq!(spec.tag(), tag);
            let policy = spec.build().unwrap();
            assert_eq!(policy.name(), spec.policy_name(), "tag {tag}");
        }
    }

    #[test]
    fn unknown_policy_tag_is_rejected() {
        let err = PolicySpec::from_tag("nope", 1e-3, 5, 0).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn scenario_spec_builds_paper_scenario() {
        let s = ScenarioSpec::paper_nominal().build().unwrap();
        assert_eq!(s.task.work_cycles, 7600.0);
        assert_eq!(s.task.deadline, 10_000.0);
        assert_eq!(s.costs().cscp_cycles(), 22.0);
        assert_eq!(s.processors, 2);
    }

    #[test]
    fn invalid_values_error_instead_of_panicking() {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.scenario.work = WorkSpec::Cycles {
            work_cycles: -1.0,
            deadline: 100.0,
        };
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        let mc = McSpec {
            replications: 0,
            ..McSpec::default()
        };
        assert!(mc.validate().is_err());

        let dvs = DvsSpec::Levels { levels: vec![] };
        assert!(dvs.build().is_err());

        let costs = CostsSpec::Explicit {
            store: 0.0,
            compare: 0.0,
            rollback: 0.0,
        };
        assert!(costs.build().is_err());
    }

    #[test]
    fn experiment_spec_round_trips_through_json() {
        let spec = ExperimentSpec::paper_nominal();
        let text = spec.to_json_string();
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn every_fault_kind_round_trips() {
        let faults = [
            FaultSpec::Poisson { lambda: 1.4e-3 },
            FaultSpec::Deterministic {
                times: vec![1.0, 2.5, 10.0],
            },
            FaultSpec::Weibull {
                shape: 0.7,
                scale: 800.0,
            },
            FaultSpec::Burst {
                quiet_rate: 1e-4,
                burst_rate: 5e-2,
                mean_quiet_dwell: 9_000.0,
                mean_burst_dwell: 600.0,
            },
            FaultSpec::Phased {
                phases: vec![(900.0, 0.0), (100.0, 0.05)],
                repeat: true,
            },
        ];
        for f in faults {
            let back = FaultSpec::from_json(&f.to_json()).unwrap();
            assert_eq!(f, back);
            f.build(7).unwrap();
        }
    }

    #[test]
    fn every_policy_kind_round_trips() {
        for tag in PolicySpec::TAGS {
            let spec = PolicySpec::from_tag(tag, 2e-4, 3, 1).unwrap();
            let back = PolicySpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn missing_fields_default_sanely() {
        let text = r#"{
            "scenario": {"work": {"kind": "utilization", "utilization": 0.8, "deadline": 10000}},
            "faults": {"kind": "poisson", "lambda": 0.001},
            "policy": {"kind": "a_d", "lambda": 0.001, "k": 5}
        }"#;
        let spec = ExperimentSpec::from_json_str(text).unwrap();
        assert_eq!(spec.name, "unnamed");
        assert_eq!(spec.mc, McSpec::default());
        assert_eq!(spec.scenario.processors, 2);
        assert_eq!(spec.scenario.costs, CostsSpec::PaperScp);
        spec.validate().unwrap();
    }

    #[test]
    fn queue_spec_round_trips_and_validates() {
        // Absent queue config: the document keeps its pre-queue shape.
        let spec = ExperimentSpec::paper_nominal();
        assert!(spec.executor.queue.is_none());
        assert!(!spec.to_json_string().contains("queue"));

        let mut queued = spec.clone();
        queued.executor = queued.executor.with_queue(QueueSpec {
            workers: 3,
            max_attempts: 5,
            ..QueueSpec::default()
        });
        let text = queued.to_json_string();
        assert!(text.contains("\"queue\""), "{text}");
        // In-process queue configs keep their pre-remote wire shape.
        assert!(!text.contains("endpoints"), "{text}");
        assert!(!text.contains("timeout_ms"), "{text}");
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(back, queued);
        assert_eq!(
            back.executor.queue,
            Some(QueueSpec {
                workers: 3,
                max_attempts: 5,
                ..QueueSpec::default()
            })
        );
        back.validate().unwrap();

        // A zero attempt budget can never run anything: rejected.
        let mut bad = queued.clone();
        bad.executor.queue = Some(QueueSpec {
            workers: 1,
            max_attempts: 0,
            ..QueueSpec::default()
        });
        assert!(matches!(bad.validate(), Err(SpecError::Invalid(_))));

        // Omitted fields default.
        let partial = Json::parse(r#"{"queue": {"workers": 2}}"#).unwrap();
        let exec = ExecSpec::from_json(&partial).unwrap();
        assert_eq!(
            exec.queue,
            Some(QueueSpec {
                workers: 2,
                max_attempts: 3,
                ..QueueSpec::default()
            })
        );
    }

    #[test]
    fn remote_queue_endpoints_round_trip_and_validate() {
        let mut queued = ExperimentSpec::paper_nominal();
        queued.executor = queued.executor.with_queue(QueueSpec {
            workers: 4,
            endpoints: vec!["10.0.0.1:7401".into(), "fleet.local:7402".into()],
            timeout_ms: 2_500,
            ..QueueSpec::default()
        });
        queued.validate().unwrap();
        let text = queued.to_json_string();
        assert!(text.contains("endpoints"), "{text}");
        assert!(text.contains("timeout_ms"), "{text}");
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(back, queued);

        for bad_endpoint in ["", "no-port", ":7401", "host:", "host:x", "host:0"] {
            let q = QueueSpec {
                endpoints: vec![bad_endpoint.into()],
                ..QueueSpec::default()
            };
            assert!(
                matches!(q.validate(), Err(SpecError::Invalid(_))),
                "{bad_endpoint:?} must be rejected"
            );
        }
        let zero_timeout = QueueSpec {
            endpoints: vec!["h:1".into()],
            timeout_ms: 0,
            ..QueueSpec::default()
        };
        assert!(zero_timeout.validate().is_err());
        // IPv6 addresses use rsplit: the last colon separates the port.
        QueueSpec {
            endpoints: vec!["::1:7401".into()],
            ..QueueSpec::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn fault_streams_are_seed_deterministic() {
        let spec = FaultSpec::Poisson { lambda: 1e-3 };
        let mut a = spec.build(42).unwrap();
        let mut b = spec.build(42).unwrap();
        for _ in 0..50 {
            assert_eq!(a.next_fault(), b.next_fault());
        }
        let mut c = spec.build(43).unwrap();
        assert_ne!(a.next_fault(), c.next_fault());
    }

    #[test]
    fn lambda_and_k_overrides_apply_where_present() {
        let p = PolicySpec::from_tag("a_d_s", 1e-3, 5, 0).unwrap();
        let p = p.with_lambda(2e-3).with_k(3);
        match p {
            PolicySpec::DvsScp { lambda, k, .. } => {
                assert_eq!(lambda, 2e-3);
                assert_eq!(k, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // kft has no lambda; with_lambda is a no-op there.
        let kft = PolicySpec::from_tag("kft", 1e-3, 5, 0)
            .unwrap()
            .with_lambda(9.0);
        assert_eq!(kft, PolicySpec::KFaultTolerant { k: 5, speed: 0 });
    }
}
