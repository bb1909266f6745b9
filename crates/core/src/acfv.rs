//! Active Cache Footprint Vectors (paper §2.1, Fig. 4).
//!
//! An ACFV is a small bit vector summarizing the set of unique cache lines
//! a thread actively uses in a slice during an epoch. The paper's hardware
//! sets the hashed bit of a newly installed tag and clears the hashed bit
//! of the replaced tag on every eviction, and resets the whole vector once
//! per reconfiguration interval so stale data does not inflate the
//! estimate.
//!
//! **Reproduction note.** We additionally set the bit when a resident line
//! is *hit* in the slice. The paper defines the ACF as "the set of unique
//! cache lines referenced by the thread in that epoch" and validates the
//! ACFV against an oracle of that definition (Fig. 5); an eviction-only
//! update cannot see lines that were installed in an earlier epoch and are
//! still being referenced after a reset, so hit-updates are required for
//! the vector to track the stated definition. The hardware cost is the
//! same hash performed off the critical path on hits.
//!
//! Two properties make ACFVs useful (§2.1): `|ACFV|` (the number of ones)
//! tracks the active utilization of the slice, and the number of common
//! ones in two ACFVs measures data sharing between threads.

use crate::hash::HashKind;

/// A fixed-length footprint bit vector with a configurable hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acfv {
    words: Vec<u64>,
    bits: usize,
    hash: HashKind,
}

impl Acfv {
    /// Creates an all-zero vector of `bits` bits (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or not a power of two.
    pub fn new(bits: usize, hash: HashKind) -> Self {
        assert!(
            bits.is_power_of_two() && bits > 0,
            "ACFV length must be a power of two"
        );
        Self {
            words: vec![0; bits.div_ceil(64)],
            bits,
            hash,
        }
    }

    /// Vector length in bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Records the installation (or active reuse) of `tag`: sets its bit.
    pub fn record_insert(&mut self, tag: u64) {
        let i = self.hash.index(tag, self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Records the eviction of `tag`: clears its bit.
    pub fn record_evict(&mut self, tag: u64) {
        let i = self.hash.index(tag, self.bits);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether `tag`'s bit is currently set (it was actively reused this
    /// epoch and not yet evicted).
    pub fn test(&self, tag: u64) -> bool {
        let i = self.hash.index(tag, self.bits);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `|ACFV|`: the number of ones.
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of bits set, in `[0, 1]`.
    pub fn ones_fraction(&self) -> f64 {
        self.popcount() as f64 / self.bits as f64
    }

    /// Number of common ones with `other` — the paper's sharing measure.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn overlap(&self, other: &Acfv) -> usize {
        assert_eq!(self.bits, other.bits, "ACFVs must be the same length");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// ORs `other` into `self` (used to combine the per-core vectors of a
    /// slice into the slice's aggregate footprint).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn union_with(&mut self, other: &Acfv) {
        assert_eq!(self.bits, other.bits, "ACFVs must be the same length");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Clears all bits (the per-interval reset of §2.1).
    pub fn reset(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// The oracle footprint estimator of Fig. 5: a one-to-one mapping from
/// lines to bits, i.e. an exact set of the distinct resident-and-referenced
/// lines this epoch.
///
/// Backed by a `BTreeSet` rather than a default-hasher `HashSet` so that
/// iteration (and any future serialization of the footprint) is in stable
/// tag order, independent of the process's hash seed.
#[derive(Debug, Clone, Default)]
pub struct ExactFootprint {
    lines: std::collections::BTreeSet<u64>,
}

impl ExactFootprint {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an installation or active reuse of `tag`.
    pub fn record_insert(&mut self, tag: u64) {
        self.lines.insert(tag);
    }

    /// Records an eviction of `tag`.
    pub fn record_evict(&mut self, tag: u64) {
        self.lines.remove(&tag);
    }

    /// Exact footprint size.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if the footprint is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Clears the oracle at the interval boundary.
    pub fn reset(&mut self) {
        self.lines.clear();
    }

    /// Iterates the resident tags in ascending order (deterministic
    /// across processes and runs).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_evict_round_trips() {
        let mut v = Acfv::new(128, HashKind::Xor);
        assert!(v.is_empty());
        v.record_insert(42);
        assert_eq!(v.popcount(), 1);
        v.record_evict(42);
        assert!(v.is_empty());
        // Evicting every inserted tag empties the vector, collisions and
        // repeated tags included.
        for seed in 0..256 {
            let mut rng = crate::Xoshiro256pp::seed_from_u64(seed);
            let mut v = Acfv::new(64, HashKind::Mix);
            let tags: Vec<u64> = (0..rng.range_usize(0, 100))
                .map(|_| rng.next_u64() >> rng.range_u32(0, 64))
                .collect();
            for &t in &tags {
                v.record_insert(t);
            }
            for &t in &tags {
                v.record_evict(t);
            }
            assert!(v.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn popcount_is_bounded_and_reset_empties() {
        for seed in 0..256 {
            let mut rng = crate::Xoshiro256pp::seed_from_u64(seed);
            let bits = [8, 32, 128][rng.range_usize(0, 3)];
            let mut v = Acfv::new(bits, HashKind::Xor);
            let mut oracle = ExactFootprint::new();
            for _ in 0..rng.range_usize(0, 200) {
                let t = rng.next_u64() >> rng.range_u32(0, 64);
                v.record_insert(t);
                oracle.record_insert(t);
            }
            // A hashed vector never reports more than the true distinct
            // count nor more than its length.
            assert!(v.popcount() <= oracle.len().min(bits), "seed {seed}");
            assert_eq!(v.overlap(&v.clone()), v.popcount(), "seed {seed}");
            v.reset();
            assert!(v.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn popcount_saturates_with_collisions() {
        let mut v = Acfv::new(8, HashKind::Modulo);
        for t in 0..1000u64 {
            v.record_insert(t);
        }
        assert_eq!(v.popcount(), 8, "all bits set once footprint >> bits");
        assert_eq!(v.ones_fraction(), 1.0);
    }

    #[test]
    fn ones_fraction_tracks_small_footprints() {
        let mut v = Acfv::new(512, HashKind::Xor);
        for t in 0..64u64 {
            v.record_insert(t * 7919); // spread-out tags
        }
        // With 512 bits and 64 distinct tags, collisions are few.
        assert!(v.popcount() >= 56, "popcount {}", v.popcount());
    }

    #[test]
    fn overlap_measures_sharing() {
        let mut a = Acfv::new(128, HashKind::Xor);
        let mut b = Acfv::new(128, HashKind::Xor);
        for t in 0..40u64 {
            a.record_insert(t * 131);
        }
        for t in 20..60u64 {
            b.record_insert(t * 131);
        }
        let ov = a.overlap(&b);
        // 20 shared tags; stride-131 XOR collisions can halve the distinct
        // indices, so require a clear majority signal rather than 20.
        assert!(ov >= 8, "expected a strong common-bit signal, got {ov}");
        // Disjoint vectors share (almost) nothing.
        let mut c = Acfv::new(128, HashKind::Xor);
        for t in 1000..1040u64 {
            c.record_insert(t * 131);
        }
        assert!(a.overlap(&c) < ov);
    }

    #[test]
    fn union_accumulates() {
        let mut a = Acfv::new(64, HashKind::Xor);
        let mut b = Acfv::new(64, HashKind::Xor);
        a.record_insert(1);
        b.record_insert(2);
        a.union_with(&b);
        assert_eq!(a.popcount(), 2);
    }

    #[test]
    fn reset_clears() {
        let mut v = Acfv::new(64, HashKind::Xor);
        v.record_insert(7);
        v.reset();
        assert!(v.is_empty());
    }

    #[test]
    fn oracle_tracks_exact_set() {
        let mut o = ExactFootprint::new();
        for t in 0..100u64 {
            o.record_insert(t);
        }
        for t in 0..50u64 {
            o.record_evict(t);
        }
        assert_eq!(o.len(), 50);
        o.reset();
        assert!(o.is_empty());
    }

    #[test]
    fn estimate_correlates_with_oracle_across_epochs() {
        // Miniature Fig. 5: footprints of varying size, estimated by a
        // 128-bit XOR ACFV, correlate strongly with the oracle.
        let mut rng = crate::rng::Xoshiro256pp::seed_from_u64(3);
        let mut est = Vec::new();
        let mut ora = Vec::new();
        for _ in 0..30 {
            let mut v = Acfv::new(128, HashKind::Xor);
            let mut o = ExactFootprint::new();
            let n = rng.range_usize(5, 120);
            for _ in 0..n {
                let t: u64 = rng.next_u64();
                v.record_insert(t);
                o.record_insert(t);
            }
            est.push(v.popcount() as f64);
            ora.push(o.len() as f64);
        }
        // Pearson correlation, inline to avoid a dev-dependency cycle.
        let mx = est.iter().sum::<f64>() / est.len() as f64;
        let my = ora.iter().sum::<f64>() / ora.len() as f64;
        let sxy: f64 = est.iter().zip(&ora).map(|(x, y)| (x - mx) * (y - my)).sum();
        let sxx: f64 = est.iter().map(|x| (x - mx).powi(2)).sum();
        let syy: f64 = ora.iter().map(|y| (y - my).powi(2)).sum();
        let r = sxy / (sxx * syy).sqrt();
        assert!(r > 0.9, "correlation {r}");
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn overlap_length_mismatch_panics() {
        let a = Acfv::new(64, HashKind::Xor);
        let b = Acfv::new(128, HashKind::Xor);
        let _ = a.overlap(&b);
    }

    /// Regression for the default-hasher replacement: the oracle's
    /// iteration order must be a pure function of its contents, never of
    /// the process's hash seed. Serializes the order and pins it.
    #[test]
    fn exact_footprint_iteration_order_is_deterministic() {
        let mut o = ExactFootprint::new();
        for tag in [0xdead_beef_u64, 3, 0xffff_ffff_ffff_ffff, 42, 7, 42] {
            o.record_insert(tag);
        }
        o.record_evict(7);
        let order: Vec<u64> = o.iter().collect();
        assert_eq!(order, vec![3, 42, 0xdead_beef, 0xffff_ffff_ffff_ffff]);
        let serialized = order
            .iter()
            .map(|t| format!("{t:x}"))
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(serialized, "3,2a,deadbeef,ffffffffffffffff");
    }
}
