//! Meter runs are the per-record accounting, bit for bit.
//!
//! A sequence of `LevelRun` epochs interleaved with `record_switch` must
//! leave the meter exactly where the same records made one
//! `record_cycles` call at a time leave it, and both must match a plain
//! reference model of the documented accounting: one compensated total
//! over `processors · cycles · V²` and switch terms in call order, plus
//! per-level cycle buckets kept in the order levels first received a
//! record. The sequences mix three and four levels, zero-cycle records,
//! empty runs and revisited levels, with cycle counts spread over many
//! magnitudes so that any change in addition order shows in the bits.

use eacp_energy::{Cycles, EnergyMeter, SpeedLevel};
use eacp_numerics::NeumaierSum;

/// The documented accounting, written out directly.
struct Reference {
    processors: f64,
    total: NeumaierSum,
    buckets: Vec<(f64, f64)>,
    switches: u64,
}

impl Reference {
    fn new(processors: u32) -> Self {
        Self {
            processors: f64::from(processors),
            total: NeumaierSum::new(),
            buckets: Vec::new(),
            switches: 0,
        }
    }

    fn record(&mut self, cycles: f64, level: SpeedLevel) {
        self.total
            .add(self.processors * cycles * (level.voltage * level.voltage));
        match self.buckets.iter_mut().find(|(f, _)| *f == level.frequency) {
            Some((_, c)) => *c += cycles,
            None => self.buckets.push((level.frequency, cycles)),
        }
    }

    fn switch(&mut self, energy: f64) {
        self.switches += 1;
        self.total.add(self.processors * energy);
    }
}

/// One speed epoch: a level, its records, and an optional switch after it.
struct Epoch {
    level: SpeedLevel,
    records: Vec<f64>,
    switch: Option<f64>,
}

/// SplitMix64, so the sequences are fixed without a dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A cycle count: often zero (of either sign), otherwise spread over
    /// ~12 decades.
    fn cycles(&mut self) -> f64 {
        if self.below(5) == 0 {
            return if self.below(2) == 0 { 0.0 } else { -0.0 };
        }
        let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        mantissa * 10f64.powi(self.below(12) as i32 - 4)
    }
}

fn levels(n: usize) -> Vec<SpeedLevel> {
    [
        SpeedLevel::new(1.0, std::f64::consts::SQRT_2),
        SpeedLevel::new(1.5, 1.7),
        SpeedLevel::new(2.0, 2.0),
        SpeedLevel::new(0.75, 1.1),
    ][..n]
        .to_vec()
}

fn random_epochs(mix: &mut Mix, levels: &[SpeedLevel]) -> Vec<Epoch> {
    let len = 1 + mix.below(24) as usize;
    (0..len)
        .map(|_| Epoch {
            level: levels[mix.below(levels.len() as u64) as usize],
            records: (0..mix.below(7)).map(|_| mix.cycles()).collect(),
            switch: match mix.below(3) {
                0 => None,
                1 => Some(0.0),
                _ => Some(mix.cycles()),
            },
        })
        .collect()
}

fn by_runs(processors: u32, epochs: &[Epoch]) -> EnergyMeter {
    let mut meter = EnergyMeter::new(processors);
    for epoch in epochs {
        let mut run = meter.begin_run(epoch.level);
        for &c in &epoch.records {
            run.record(Cycles::new(c));
        }
        meter.end_run(run);
        if let Some(e) = epoch.switch {
            meter.record_switch(e);
        }
    }
    meter
}

fn by_records(processors: u32, epochs: &[Epoch]) -> EnergyMeter {
    let mut meter = EnergyMeter::new(processors);
    for epoch in epochs {
        for &c in &epoch.records {
            meter.record_cycles(c, epoch.level);
        }
        if let Some(e) = epoch.switch {
            meter.record_switch(e);
        }
    }
    meter
}

fn by_reference(processors: u32, epochs: &[Epoch]) -> Reference {
    let mut r = Reference::new(processors);
    for epoch in epochs {
        for &c in &epoch.records {
            r.record(c, epoch.level);
        }
        if let Some(e) = epoch.switch {
            r.switch(e);
        }
    }
    r
}

fn assert_same(what: &str, runs: &EnergyMeter, records: &EnergyMeter, reference: &Reference) {
    let reference_cycles: f64 = reference.buckets.iter().map(|(_, c)| c).sum();
    for (label, meter) in [("runs", runs), ("records", records)] {
        assert_eq!(
            meter.total().to_bits(),
            reference.total.value().to_bits(),
            "{what}: {label} total"
        );
        assert_eq!(
            meter.switches(),
            reference.switches,
            "{what}: {label} switches"
        );
        assert_eq!(
            meter.total_cycles().to_bits(),
            reference_cycles.to_bits(),
            "{what}: {label} total_cycles"
        );
        for level in levels(4) {
            let expected = reference
                .buckets
                .iter()
                .find(|(f, _)| *f == level.frequency)
                .map_or(0.0, |(_, c)| *c);
            assert_eq!(
                meter.cycles_at_frequency(level.frequency).to_bits(),
                expected.to_bits(),
                "{what}: {label} cycles at {}",
                level.frequency
            );
        }
    }
}

#[test]
fn runs_match_per_record_accounting_on_random_sequences() {
    let mut mix = Mix(2006);
    for case in 0..2_000 {
        let n_levels = 3 + (case % 2);
        let processors = 1 + (case % 3) as u32;
        let epochs = random_epochs(&mut mix, &levels(n_levels));
        assert_same(
            &format!("case {case}"),
            &by_runs(processors, &epochs),
            &by_records(processors, &epochs),
            &by_reference(processors, &epochs),
        );
    }
}

#[test]
fn bucket_order_follows_first_record_not_first_run() {
    // Level 2.0 opens the first run but records nothing; 1.0 and 1.5 then
    // receive cycles, then 2.0. Buckets must come out as 1.0, 1.5, 2.0:
    // an empty run creates no bucket. The cycle counts are chosen so that
    // summing the buckets in another order rounds differently.
    let [slow, mid, fast] = [levels(3)[0], levels(3)[1], levels(3)[2]];
    let epochs = [
        Epoch {
            level: fast,
            records: vec![],
            switch: Some(3.0),
        },
        Epoch {
            level: slow,
            records: vec![1e16],
            switch: None,
        },
        Epoch {
            level: mid,
            records: vec![1.0, 0.0],
            switch: Some(0.5),
        },
        Epoch {
            level: fast,
            records: vec![0.0, 1.0],
            switch: Some(3.0),
        },
        Epoch {
            level: slow,
            records: vec![-0.0, 0.0],
            switch: None,
        },
    ];
    let runs = by_runs(2, &epochs);
    let reference = by_reference(2, &epochs);
    assert_same("ordered", &runs, &by_records(2, &epochs), &reference);
    let buckets: Vec<f64> = reference.buckets.iter().map(|(f, _)| *f).collect();
    assert_eq!(buckets, [1.0, 1.5, 2.0]);
    // (1e16 + 1) + 1 rounds back to 1e16, while (1 + 1) + 1e16 is exact:
    // summing the buckets in another order would show.
    let other_order = reference.buckets[1].1 + reference.buckets[2].1 + reference.buckets[0].1;
    assert_ne!(runs.total_cycles().to_bits(), other_order.to_bits());
}

#[test]
fn an_open_run_reports_the_running_total() {
    let level = levels(3)[2];
    let mut meter = EnergyMeter::new(2);
    meter.record_switch(1.0);
    let mut run = meter.begin_run(level);
    run.record(Cycles::new(10.0));
    let mid_run = run.total();
    meter.end_run(run);
    assert_eq!(mid_run, meter.total());
    assert_eq!(meter.total(), 2.0 + 2.0 * 10.0 * 4.0);
}

#[test]
#[should_panic(expected = "already open")]
fn nested_runs_are_rejected() {
    let level = levels(3)[0];
    let mut meter = EnergyMeter::new(2);
    let _outer = meter.begin_run(level);
    let _inner = meter.begin_run(level);
}

#[test]
#[should_panic(expected = "close the energy-meter run")]
fn switch_inside_a_run_is_rejected() {
    let mut meter = EnergyMeter::new(2);
    let _run = meter.begin_run(levels(3)[0]);
    meter.record_switch(1.0);
}
