//! DVS speed levels and energy accounting for the EACP workspace.
//!
//! The paper's processor model: a variable-voltage CPU with two speeds
//! `f1 = 1` (normalized minimum) and `f2 = 2·f1`, negligible switching time,
//! and energy measured by "summing the product of the square of the voltage
//! and the number of computation cycles over all the segments of the task",
//! over both processors of the DMR pair.
//!
//! The paper does not state the absolute supply voltages. This crate
//! assumes per-processor `V² = 2` at `f1` and `V² = 4` at `f2`
//! (`V1 ≈ 1.41 V`, `V2 = 2.0 V`), read off the energy scales the paper
//! reports: ≈39k for an all-slow run of a `U = 0.76` task and ≈149k for
//! the all-fast variant, about 3.8× as much. [`DvsConfig::paper_default`]
//! encodes exactly that; everything is configurable for sensitivity
//! studies. The assumption is not fitted: the f2-baseline tables (2 and
//! 4) read 2.0–2.5% above the paper's energies, which suggests `V² = 4`
//! is about 2% high. Fitting both levels to the paper's tables is open
//! (ROADMAP item 1).
//!
//! # Examples
//!
//! ```
//! use eacp_energy::{Cycles, DvsConfig, EnergyMeter};
//!
//! let dvs = DvsConfig::paper_default();
//! let mut meter = EnergyMeter::new(2); // DMR: two processors
//! meter.record_cycles(1000.0, dvs.level(0));
//! meter.record_cycles(500.0, dvs.level(1));
//! // 2·(1000·2 + 500·4) = 8000 (to rounding: V1 = √2 squares to ~2)
//! assert!((meter.total() - 8000.0).abs() < 1e-9);
//!
//! // The same accounting as one run per speed epoch (what the simulator
//! // does), bit-identical to the per-record calls above.
//! let mut batched = EnergyMeter::new(2);
//! let mut run = batched.begin_run(dvs.level(0));
//! run.record(Cycles::new(1000.0));
//! batched.end_run(run);
//! let mut run = batched.begin_run(dvs.level(1));
//! run.record(Cycles::new(500.0));
//! batched.end_run(run);
//! assert_eq!(batched.total().to_bits(), meter.total().to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eacp_numerics::NeumaierSum;

/// One operating point of a variable-voltage processor.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpeedLevel {
    /// Clock frequency in cycles per (normalized) time unit. The paper
    /// normalizes the minimum speed to 1.
    pub frequency: f64,
    /// Supply voltage in volts; energy per cycle is `voltage²`.
    pub voltage: f64,
}

impl SpeedLevel {
    /// Creates a speed level.
    ///
    /// # Panics
    ///
    /// Panics unless both `frequency` and `voltage` are positive and finite.
    pub fn new(frequency: f64, voltage: f64) -> Self {
        assert!(
            frequency > 0.0 && frequency.is_finite(),
            "frequency must be positive and finite"
        );
        assert!(
            voltage > 0.0 && voltage.is_finite(),
            "voltage must be positive and finite"
        );
        Self { frequency, voltage }
    }

    /// Energy consumed per executed cycle (`voltage²`), per processor.
    pub fn energy_per_cycle(&self) -> f64 {
        self.voltage * self.voltage
    }

    /// Wall-clock time to execute `cycles` cycles at this level.
    pub fn time_for_cycles(&self, cycles: f64) -> f64 {
        cycles / self.frequency
    }

    /// Cycles executed in `time` wall-clock units at this level.
    pub fn cycles_in_time(&self, time: f64) -> f64 {
        time * self.frequency
    }
}

/// A dynamic-voltage-scaling configuration: an ordered set of speed levels
/// (slowest first) plus speed-switch overheads.
///
/// The paper assumes the processor "can switch its speed in a negligible
/// amount of time"; both overheads default to zero but are configurable for
/// sensitivity experiments.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DvsConfig {
    levels: Vec<SpeedLevel>,
    /// Wall-clock time consumed by one speed switch.
    pub switch_time: f64,
    /// Energy consumed by one speed switch (per processor).
    pub switch_energy: f64,
}

impl DvsConfig {
    /// Creates a configuration from levels sorted by ascending frequency.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or not strictly ascending in frequency.
    pub fn new(levels: Vec<SpeedLevel>) -> Self {
        assert!(!levels.is_empty(), "at least one speed level is required");
        assert!(
            levels.windows(2).all(|w| w[0].frequency < w[1].frequency),
            "levels must be strictly ascending in frequency"
        );
        Self {
            levels,
            switch_time: 0.0,
            switch_energy: 0.0,
        }
    }

    /// Two-level configuration `f2 = 2·f1` with `f1` normalized to 1.
    // audit:setup: a configuration is built once per scenario, before any
    // replication runs.
    pub fn two_speed(v1: f64, v2: f64) -> Self {
        Self::new(vec![SpeedLevel::new(1.0, v1), SpeedLevel::new(2.0, v2)])
    }

    /// The configuration calibrated to the paper's energy scale:
    /// `f1 = 1, V1 = √2` and `f2 = 2, V2 = 2` (per-processor `V² ∈ {2, 4}`).
    pub fn paper_default() -> Self {
        Self::two_speed(std::f64::consts::SQRT_2, 2.0)
    }

    /// Single fixed-speed configuration (no DVS).
    // audit:setup: a configuration is built once per scenario, before any
    // replication runs.
    pub fn fixed(level: SpeedLevel) -> Self {
        Self::new(vec![level])
    }

    /// Number of levels.
    #[inline]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether there are no levels (never true — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The level at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn level(&self, index: usize) -> SpeedLevel {
        self.levels[index]
    }

    /// All levels, slowest first.
    pub fn levels(&self) -> &[SpeedLevel] {
        &self.levels
    }

    /// Index of the slowest level (always 0).
    pub fn slowest(&self) -> usize {
        0
    }

    /// Index of the fastest level.
    pub fn fastest(&self) -> usize {
        self.levels.len() - 1
    }
}

impl Default for DvsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A per-processor cycle count, checked once to be non-negative and
/// finite: the only thing a [`LevelRun`] records.
///
/// A caller that records the same count many times (a simulator's
/// fixed-size segments and checkpoints) checks it once, here, instead of
/// on every record.
#[derive(Debug, Clone, Copy)]
pub struct Cycles(f64);

impl Cycles {
    /// Checks `cycles` as a count to record.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is negative or not finite.
    #[inline]
    pub fn new(cycles: f64) -> Self {
        // `cycles >= 0.0 && cycles.is_finite()`, written as two float
        // compares: LLVM turns the `is_finite` form into a bit-level class
        // test of about twenty integer instructions.
        assert!(
            (0.0..=f64::MAX).contains(&cycles),
            "cycle count must be non-negative and finite"
        );
        Self(cycles)
    }
}

/// Accumulates energy over task segments: `Σ processors · V² · cycles`.
///
/// Also tracks per-level cycle counts so experiments can report how much of
/// the task ran at each speed (the DVS "downshift fraction").
///
/// # Runs
///
/// All cycle accounting goes through a [`LevelRun`]: [`EnergyMeter::begin_run`]
/// copies the running total and the level's cycle bucket into a small
/// `Copy` value, [`LevelRun::record`] accumulates into it, and
/// [`EnergyMeter::end_run`] writes both back. A simulation opens one run per
/// speed epoch, so the per-segment accounting touches only the run — a
/// local the compiler keeps in registers — instead of the meter in memory.
/// [`EnergyMeter::record_cycles`] is a one-record run, so a sequence of
/// runs and the same records made one call at a time give bit-identical
/// totals: the additions happen on the same operands in the same order.
///
/// While a run is open the meter's own state is stale: close the run before
/// reading totals or recording a switch.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    processors: u32,
    total: NeumaierSum,
    cycles_per_level: Vec<(f64, f64)>, // (frequency key, cycles), first-record order
    run_open: bool,
    switches: u64,
}

/// An open accounting run at one speed level; see [`EnergyMeter`].
///
/// Holds the meter's compensated total, the level's cycle count so far,
/// the processor count and the level's `V²`, so recording a segment is a
/// few register operations with no memory traffic.
#[derive(Debug, Clone, Copy)]
pub struct LevelRun {
    total: NeumaierSum,
    cycles: f64,
    processors: f64,
    energy_per_cycle: f64,
    frequency: f64,
    /// The level's bucket index, or the table length when it has none yet.
    bucket: usize,
    recorded: bool,
}

impl LevelRun {
    /// Records `cycles` executed (per processor) at this run's level.
    #[inline]
    pub fn record(&mut self, Cycles(cycles): Cycles) {
        self.total
            .add(self.processors * cycles * self.energy_per_cycle);
        self.cycles += cycles;
        self.recorded = true;
    }

    /// Total energy so far, this run's records included.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total.value()
    }
}

impl EnergyMeter {
    /// Creates a meter for `processors` redundant processors (2 for DMR).
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    // audit:setup: the per-level table starts empty; `reset` keeps its
    // capacity, so pooled replication loops grow it at most once per level.
    pub fn new(processors: u32) -> Self {
        assert!(processors > 0, "at least one processor is required");
        Self {
            processors,
            total: NeumaierSum::new(),
            cycles_per_level: Vec::new(),
            run_open: false,
            switches: 0,
        }
    }

    /// Resets the meter to its just-constructed state for `processors`,
    /// keeping the per-level table's capacity — replication loops reuse
    /// one meter instead of allocating one per run.
    ///
    /// # Panics
    ///
    /// Panics if `processors` is zero.
    pub fn reset(&mut self, processors: u32) {
        assert!(processors > 0, "at least one processor is required");
        self.processors = processors;
        self.total = NeumaierSum::new();
        self.cycles_per_level.clear();
        self.run_open = false;
        self.switches = 0;
    }

    /// Opens an accounting run at `level`.
    ///
    /// # Panics
    ///
    /// Panics if a run is already open.
    #[inline]
    pub fn begin_run(&mut self, level: SpeedLevel) -> LevelRun {
        assert!(!self.run_open, "an energy-meter run is already open");
        self.run_open = true;
        let bucket = self
            .cycles_per_level
            .iter()
            .position(|(f, _)| *f == level.frequency)
            .unwrap_or(self.cycles_per_level.len());
        LevelRun {
            total: self.total,
            // `-0.0 + x == x` for every `x`, so a new bucket's first record
            // lands exactly as the value a direct insert would store.
            cycles: self.cycles_per_level.get(bucket).map_or(-0.0, |b| b.1),
            processors: self.processors as f64,
            energy_per_cycle: level.energy_per_cycle(),
            frequency: level.frequency,
            bucket,
            recorded: false,
        }
    }

    /// Closes `run`, folding its records into the meter. A level's bucket
    /// is created only if the run recorded something, so buckets keep the
    /// order in which levels first received cycles.
    ///
    /// # Panics
    ///
    /// Panics if no run is open.
    #[inline]
    pub fn end_run(&mut self, run: LevelRun) {
        assert!(self.run_open, "no energy-meter run is open");
        self.run_open = false;
        self.total = run.total;
        if let Some(bucket) = self.cycles_per_level.get_mut(run.bucket) {
            bucket.1 = run.cycles;
        } else if run.recorded {
            // At most once per level per meter lifetime; `reset` keeps the
            // capacity, so pooled loops do not allocate here after warmup.
            self.cycles_per_level.push((run.frequency, run.cycles));
        }
    }

    /// Records `cycles` executed (per processor) at `level`: a run holding
    /// one record.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is negative or not finite, or a run is open.
    pub fn record_cycles(&mut self, cycles: f64, level: SpeedLevel) {
        let mut run = self.begin_run(level);
        run.record(Cycles::new(cycles));
        self.end_run(run);
    }

    /// Records one speed switch costing `energy` per processor.
    ///
    /// # Panics
    ///
    /// Panics if a run is open.
    pub fn record_switch(&mut self, energy: f64) {
        assert!(!self.run_open, "close the energy-meter run before a switch");
        self.switches += 1;
        self.total.add(self.processors as f64 * energy);
    }

    /// Total energy so far.
    // Non-generic and read per executed operation from other crates:
    // inline so a discarded reading costs nothing instead of a call.
    #[inline]
    pub fn total(&self) -> f64 {
        debug_assert!(!self.run_open, "read with an energy-meter run open");
        self.total.value()
    }

    /// Number of processors being accounted.
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// Number of recorded speed switches.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Per-processor cycles executed at the level with frequency `frequency`.
    #[inline]
    pub fn cycles_at_frequency(&self, frequency: f64) -> f64 {
        debug_assert!(!self.run_open, "read with an energy-meter run open");
        self.cycles_per_level
            .iter()
            .find(|(f, _)| *f == frequency)
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    }

    /// Total per-processor cycles executed at any level.
    #[inline]
    pub fn total_cycles(&self) -> f64 {
        debug_assert!(!self.run_open, "read with an energy-meter run open");
        self.cycles_per_level.iter().map(|(_, c)| c).sum()
    }

    /// Fraction of cycles executed at the given frequency (0 when idle).
    pub fn fraction_at_frequency(&self, frequency: f64) -> f64 {
        let total = self.total_cycles();
        if total == 0.0 {
            0.0
        } else {
            self.cycles_at_frequency(frequency) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_calibration() {
        let dvs = DvsConfig::paper_default();
        assert_eq!(dvs.len(), 2);
        let f1 = dvs.level(0);
        let f2 = dvs.level(1);
        assert_eq!(f1.frequency, 1.0);
        assert_eq!(f2.frequency, 2.0);
        assert!((f1.energy_per_cycle() - 2.0).abs() < 1e-12);
        assert!((f2.energy_per_cycle() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_cycle_round_trip() {
        let l = SpeedLevel::new(2.0, 1.0);
        assert_eq!(l.time_for_cycles(10.0), 5.0);
        assert_eq!(l.cycles_in_time(5.0), 10.0);
    }

    #[test]
    fn meter_accumulates_both_processors() {
        let dvs = DvsConfig::paper_default();
        let mut m = EnergyMeter::new(2);
        m.record_cycles(100.0, dvs.level(0));
        assert!((m.total() - 2.0 * 100.0 * 2.0).abs() < 1e-9);
        m.record_cycles(100.0, dvs.level(1));
        assert!((m.total() - (400.0 + 2.0 * 100.0 * 4.0)).abs() < 1e-9);
        assert_eq!(m.total_cycles(), 200.0);
        assert_eq!(m.fraction_at_frequency(1.0), 0.5);
        assert_eq!(m.fraction_at_frequency(2.0), 0.5);
        assert_eq!(m.fraction_at_frequency(3.0), 0.0);
    }

    #[test]
    fn meter_switch_accounting() {
        let mut m = EnergyMeter::new(2);
        m.record_switch(5.0);
        assert_eq!(m.switches(), 1);
        assert_eq!(m.total(), 10.0);
    }

    #[test]
    fn single_processor_meter() {
        let mut m = EnergyMeter::new(1);
        m.record_cycles(10.0, SpeedLevel::new(1.0, 3.0));
        assert_eq!(m.total(), 90.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn dvs_rejects_unsorted_levels() {
        DvsConfig::new(vec![SpeedLevel::new(2.0, 1.0), SpeedLevel::new(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one speed level")]
    fn dvs_rejects_empty() {
        DvsConfig::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn level_rejects_zero_frequency() {
        SpeedLevel::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "cycle count")]
    fn meter_rejects_negative_cycles() {
        let mut m = EnergyMeter::new(2);
        m.record_cycles(-1.0, SpeedLevel::new(1.0, 1.0));
    }

    #[test]
    fn cycles_reject_negative_and_non_finite_counts() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let panic = std::panic::catch_unwind(|| Cycles::new(bad))
                .expect_err(&format!("Cycles::new({bad}) must panic"));
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"cycle count must be non-negative and finite"),
                "Cycles::new({bad})"
            );
        }
        for good in [0.0, -0.0, 5e-324, 22.0, f64::MAX] {
            assert_eq!(Cycles::new(good).0.to_bits(), good.to_bits());
        }
    }

    #[test]
    fn fastest_slowest_indices() {
        let dvs = DvsConfig::paper_default();
        assert_eq!(dvs.slowest(), 0);
        assert_eq!(dvs.fastest(), 1);
        let fixed = DvsConfig::fixed(SpeedLevel::new(1.0, 1.0));
        assert_eq!(fixed.slowest(), fixed.fastest());
    }
}
