//! Batched fault sampling: block-drawn arrivals behind the scalar
//! [`FaultProcess`] contract.
//!
//! The Monte-Carlo hot loop used to pay one RNG draw plus an `ln`/`powf`
//! transcendental per fault arrival, interleaved with simulation work. A
//! [`BatchedFaults`] wrapper instead refills a small pooled [`FaultBatch`]
//! buffer in blocks — uniforms first (amortizing RNG state updates), then
//! the inverse-CDF transform over the whole block, then one prefix-sum
//! pass to absolute arrival times — and serves `next_fault()` from the
//! buffer as a cursor read.
//!
//! # Bit-identity contract
//!
//! The refill draws uniforms from the *same* RNG stream in the *same*
//! order the scalar samplers would, and applies per-element math identical
//! to [`sample_exponential`](crate::sample_exponential) /
//! [`sample_weibull`](crate::sample_weibull); the prefix sum performs the
//! same `now += delta` additions in the same order. A batched stream is
//! therefore **bit-identical** to the scalar stream, prefix for prefix.
//! Arrivals drawn past the point a replication consumes only advance RNG
//! state that the next [`BatchedFaults::reset`] discards, so pooled
//! replication loops see exactly the scalar results. The golden identity
//! tests in `eacp-exec` pin this end to end for every fault process ×
//! scheme.
//!
//! # Pooling contract
//!
//! The buffer is pre-sized to the maximum block length at construction
//! and [`reset`](BatchedFaults::reset) only rewinds the cursor, so the
//! replication loop performs **no heap allocation** — the wrapper lives
//! alongside the engine's `ExecutorScratch` in the pooled per-block
//! replicator state, and the `alloc-count` witness covers it.

use crate::sampling::{fill_exponential_deltas, fill_weibull_deltas};
use crate::{FaultKind, FaultProcess};

/// Refill block length. Paper-nominal cells consume ~10 arrivals per
/// replication; constant blocks of 8 bound the worst-case overdraw to 7
/// wasted transcendentals per replication, which profiling showed beats
/// doubling growth (8 → 16 → 32 drew up to ~24 uniforms for ~11 served
/// arrivals). Fault-dense cells pay one cold `refill` call per 8
/// arrivals, amortized by the block transform.
const BATCH_LEN: usize = 8;

/// Reserved buffer capacity. Kept above [`BATCH_LEN`] so the capacity is
/// insensitive to future block-length tuning and the pooled-buffer
/// witness (`refills_never_grow_the_reserved_buffer`) pins the absence
/// of regrowth rather than an exact size.
const BATCH_MAX: usize = 32;

/// A pooled, pre-sized block of upcoming absolute fault arrival times.
///
/// Plain data: the buffer, a serve cursor, the adaptive next-refill
/// length, and an exhaustion latch for finite streams. Refilling and
/// serving live on [`BatchedFaults`], which pairs the batch with the
/// process it buffers.
#[derive(Debug, Clone)]
pub struct FaultBatch {
    /// Upcoming absolute arrival times, ascending.
    buf: Vec<f64>,
    /// Index of the next unserved arrival in `buf`.
    cursor: usize,
    /// Set once the source stream returned infinity: every later arrival
    /// is infinite, so no further refill is attempted.
    exhausted: bool,
}

impl FaultBatch {
    /// A fresh batch with the full `BATCH_MAX` capacity reserved, so
    /// refills never reallocate.
    // audit:setup: the one-time buffer reservation for the pooled batch.
    pub fn new() -> Self {
        Self {
            buf: Vec::with_capacity(BATCH_MAX),
            cursor: 0,
            exhausted: false,
        }
    }

    /// Discards buffered arrivals, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
        self.cursor = 0;
        self.exhausted = false;
    }

    /// Arrivals buffered but not yet served.
    pub fn pending(&self) -> &[f64] {
        &self.buf[self.cursor.min(self.buf.len())..]
    }
}

impl Default for FaultBatch {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`FaultKind`] served through a pooled [`FaultBatch`]: block-drawn
/// arrivals behind the scalar [`FaultProcess`] contract.
///
/// See the [module docs](self) for the bit-identity and pooling
/// contracts.
#[derive(Debug, Clone)]
pub struct BatchedFaults {
    inner: FaultKind,
    batch: FaultBatch,
}

impl BatchedFaults {
    /// Wraps a process, reserving the batch buffer up front.
    // audit:setup: construction reserves the batch buffer once.
    pub fn new(inner: FaultKind) -> Self {
        Self {
            inner,
            batch: FaultBatch::new(),
        }
    }

    /// Rewinds the process to time zero, re-seeded, and discards buffered
    /// arrivals — exactly the stream a fresh [`BatchedFaults::new`] over
    /// `FaultKind::reset(seed)` would serve, which in turn is exactly the
    /// scalar stream of a fresh process build. No allocation.
    #[inline]
    pub fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
        self.batch.clear();
    }

    /// The wrapped process.
    pub fn inner(&self) -> &FaultKind {
        &self.inner
    }

    /// Refills the batch with the next block of arrivals.
    ///
    /// Poisson and Weibull streams use the two-pass block transforms in
    /// [`crate::sampling`] plus a prefix-sum pass; the remaining processes
    /// (fixed schedules, Markov-modulated and phased arrivals consume a
    /// variable number of uniforms per arrival) run their scalar sampler
    /// into the buffer, which still amortizes the serve path. Pushes at
    /// least one arrival; never allocates (capacity is reserved).
    #[cold]
    fn refill(&mut self) {
        let batch = &mut self.batch;
        batch.buf.clear();
        batch.cursor = 0;
        let n = BATCH_LEN;
        match &mut self.inner {
            FaultKind::Poisson(p) => {
                if p.rate() <= 0.0 {
                    batch.buf.push(f64::INFINITY);
                } else {
                    fill_exponential_deltas(&mut p.rng, p.rate, &mut batch.buf, n);
                    for d in &mut batch.buf {
                        p.now += *d;
                        *d = p.now;
                    }
                }
            }
            FaultKind::Weibull(w) => {
                fill_weibull_deltas(&mut w.rng, w.shape, w.scale, &mut batch.buf, n);
                for d in &mut batch.buf {
                    w.now += *d;
                    *d = w.now;
                }
            }
            other => {
                for _ in 0..n {
                    let t = other.next_fault();
                    batch.buf.push(t);
                    if t.is_infinite() {
                        break;
                    }
                }
            }
        }
        // audit:allow(panic): every arm above pushes at least one arrival.
        let last = *batch.buf.last().expect("refill produced arrivals");
        batch.exhausted = last.is_infinite();
    }
}

impl FaultProcess for BatchedFaults {
    #[inline]
    fn next_fault(&mut self) -> f64 {
        if self.batch.cursor < self.batch.buf.len() {
            let t = self.batch.buf[self.batch.cursor];
            self.batch.cursor += 1;
            return t;
        }
        if self.batch.exhausted {
            return f64::INFINITY;
        }
        self.refill();
        self.batch.cursor = 1;
        self.batch.buf[0]
    }

    fn mean_rate(&self) -> Option<f64> {
        self.inner.mean_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BurstProcess, DeterministicFaults, PhasedPoisson, PoissonProcess, WeibullRenewal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kinds() -> Vec<FaultKind> {
        let rng = || StdRng::seed_from_u64(0);
        vec![
            FaultKind::Poisson(PoissonProcess::new(1.4e-3, rng())),
            FaultKind::Deterministic(DeterministicFaults::new(vec![3.0, 40.0, 41.5, 900.0])),
            FaultKind::Weibull(WeibullRenewal::new(0.7, 600.0, rng())),
            FaultKind::Burst(BurstProcess::new(1e-4, 5e-2, 2_000.0, 150.0, rng())),
            FaultKind::Phased(PhasedPoisson::new(
                vec![(900.0, 1e-4), (100.0, 2e-2)],
                true,
                rng(),
            )),
        ]
    }

    #[test]
    fn batched_stream_is_bit_identical_to_scalar_for_every_kind() {
        for kind in kinds() {
            let mut scalar = kind.clone();
            scalar.reset(77);
            let mut batched = BatchedFaults::new(kind);
            batched.reset(77);
            for i in 0..200 {
                let s = scalar.next_fault();
                let b = batched.next_fault();
                assert_eq!(s.to_bits(), b.to_bits(), "arrival {i}");
            }
        }
    }

    #[test]
    fn reset_discards_overdraw_and_replays_the_seeded_stream() {
        for kind in kinds() {
            let mut batched = BatchedFaults::new(kind.clone());
            batched.reset(5);
            let first: Vec<u64> = (0..7).map(|_| batched.next_fault().to_bits()).collect();
            // Leave buffered overdraw behind, re-seed, and demand the same
            // prefix a fresh scalar build produces.
            batched.reset(5);
            let replay: Vec<u64> = (0..7).map(|_| batched.next_fault().to_bits()).collect();
            assert_eq!(first, replay);
            let mut scalar = kind;
            scalar.reset(5);
            let fresh: Vec<u64> = (0..7).map(|_| scalar.next_fault().to_bits()).collect();
            assert_eq!(first, fresh);
        }
    }

    #[test]
    fn finite_streams_latch_on_infinity() {
        let sched = FaultKind::Deterministic(DeterministicFaults::new(vec![1.0, 2.0]));
        let mut batched = BatchedFaults::new(sched);
        batched.reset(0);
        assert_eq!(batched.next_fault(), 1.0);
        assert_eq!(batched.next_fault(), 2.0);
        for _ in 0..5 {
            assert_eq!(batched.next_fault(), f64::INFINITY);
        }
    }

    #[test]
    fn zero_rate_poisson_is_fault_free() {
        let mut batched = BatchedFaults::new(FaultKind::Poisson(PoissonProcess::new(
            0.0,
            StdRng::seed_from_u64(1),
        )));
        batched.reset(9);
        assert_eq!(batched.next_fault(), f64::INFINITY);
        assert_eq!(batched.next_fault(), f64::INFINITY);
    }

    #[test]
    fn refills_never_grow_the_reserved_buffer() {
        let mut batched = BatchedFaults::new(FaultKind::Poisson(PoissonProcess::new(
            0.1,
            StdRng::seed_from_u64(2),
        )));
        batched.reset(3);
        let cap = batched.batch.buf.capacity();
        for _ in 0..500 {
            batched.next_fault();
        }
        assert_eq!(batched.batch.buf.capacity(), cap);
        assert!(batched.batch.pending().len() <= cap);
    }

    #[test]
    fn mean_rate_passes_through() {
        let batched = BatchedFaults::new(FaultKind::Poisson(PoissonProcess::new(
            2.5e-3,
            StdRng::seed_from_u64(1),
        )));
        assert_eq!(batched.mean_rate(), Some(2.5e-3));
    }
}
