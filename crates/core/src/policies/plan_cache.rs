//! Replan memoization: a fixed-capacity direct-mapped cache of the
//! subdivision argmin.
//!
//! The adaptive schemes recompute speed, CSCP interval and `num_SCP` /
//! `num_CCP` subdivision at task start and after every detected error.
//! The subdivision count — an integer argmin over the renewal closed
//! form — is the most expensive part of that computation, and its inputs
//! recur: the Fig. 4 Poisson-branch interval does not depend on the
//! remaining work or time, so post-fault replans at different points of
//! a task, and across replications in one block, ask for the same
//! `(interval, frequency)` argmin.
//!
//! [`ArgminCache`] memoizes it behind an **exact-key** contract: keys are
//! the raw IEEE-754 bit patterns of the argmin inputs (plus a fingerprint
//! of the cost/DVS environment), compared for equality on every probe. A
//! hit therefore returns the bit-identical count the uncached computation
//! would produce — quantization decides only which slot a key maps to,
//! never whether two keys match. The property test in
//! `crates/exec/tests/replan_cache_properties.rs` pins "cache never
//! changes a decision" over randomized contexts.
//!
//! Per the audit rules the cache is a fixed inline array (no `HashMap`,
//! no iteration-order dependence — R1) and performs no allocation at any
//! point (R3): direct-mapped, one slot per key hash, eviction by
//! overwrite.

/// Number of slots in the subdivision-argmin memo. The key lattice is
/// tiny — one entry per (interval, frequency) pair, and the Fig. 4
/// Poisson branch yields an `rd`/`rt`-independent interval, so a handful
/// of slots cover a whole block.
const ARGMIN_SLOTS: usize = 8;

/// One memoized `num_SCP`/`num_CCP` argmin result.
#[derive(Debug, Clone, Copy)]
struct ArgminEntry {
    /// Exact key: bit patterns of (interval, frequency) plus the
    /// environment fingerprint.
    key: [u64; 3],
    /// The argmin subdivision count.
    m: u32,
    /// Whether the slot holds a value.
    full: bool,
}

const ARGMIN_EMPTY: ArgminEntry = ArgminEntry {
    key: [0; 3],
    m: 0,
    full: false,
};

/// A fixed-capacity direct-mapped memo of subdivision argmins — the
/// `num_SCP`/`num_CCP` integer walk over the renewal closed form. See the
/// [module docs](self) for the exact-key contract.
#[derive(Debug, Clone)]
pub(crate) struct ArgminCache {
    slots: [ArgminEntry; ARGMIN_SLOTS],
    hits: u64,
    misses: u64,
}

impl ArgminCache {
    /// An empty cache. Inline array — no allocation.
    pub(crate) const fn new() -> Self {
        Self {
            slots: [ARGMIN_EMPTY; ARGMIN_SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    /// Forgets every memoized argmin.
    pub(crate) fn invalidate(&mut self) {
        self.slots = [ARGMIN_EMPTY; ARGMIN_SLOTS];
    }

    /// Probes for an exact key match.
    #[inline]
    pub(crate) fn get(&mut self, key: &[u64; 3]) -> Option<u32> {
        let slot = &self.slots[Self::index(key)];
        if slot.full && slot.key == *key {
            self.hits += 1;
            Some(slot.m)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Memoizes a computed argmin, overwriting any colliding entry.
    #[inline]
    pub(crate) fn put(&mut self, key: [u64; 3], m: u32) {
        self.slots[Self::index(&key)] = ArgminEntry { key, m, full: true };
    }

    /// Lifetime (hits, misses) — diagnostics only.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Direct-mapped slot for a key; matching is always on the full key.
    #[inline]
    fn index(key: &[u64; 3]) -> usize {
        let mut x = key[0]
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key[1])
            .wrapping_add(key[2]);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        (x as usize) & (ARGMIN_SLOTS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmin_cache_roundtrips_and_never_aliases() {
        let mut c = ArgminCache::new();
        let key = [100.0f64.to_bits(), 1.0f64.to_bits(), 7];
        assert_eq!(c.get(&key), None);
        c.put(key, 6);
        assert_eq!(c.get(&key), Some(6));
        assert_eq!(c.stats(), (1, 1));
        for delta in 1..100u64 {
            let other = [key[0] ^ delta, key[1], key[2]];
            assert_eq!(c.get(&other), None, "delta {delta}");
        }
        c.invalidate();
        assert_eq!(c.get(&key), None);
    }
}
