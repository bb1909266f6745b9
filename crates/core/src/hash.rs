//! Hardware hash functions for ACFV indexing (Fig. 5 compares XOR and
//! modulo hashing; efficient hardware implementations are surveyed in
//! Ramakrishna et al. \[22\]).

/// Which hash maps a cache tag to an ACFV bit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// XOR-fold the tag into `log2(bits)` bits. The paper's better
    /// performer (Fig. 5).
    Xor,
    /// `tag mod bits`. Cheap but more collision-prone for strided tags.
    Modulo,
    /// A multiplicative scrambler (SplitMix64 finalizer): the hash of
    /// the engine's decision vectors. [`MorphEngine::new`] sizes them
    /// one-to-one with the slice lines, which only approximates the
    /// paper's collision-free mapping if the hash is close to uniform on
    /// structured tag sequences — plain XOR folding is visibly biased on
    /// strided tags.
    ///
    /// [`MorphEngine::new`]: crate::MorphEngine::new
    Mix,
}

impl HashKind {
    /// Hashes `tag` into `0..bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or not a power of two (ACFV lengths are
    /// powers of two: 2–512 in the Fig. 5 sweep).
    pub fn index(self, tag: u64, bits: usize) -> usize {
        assert!(
            bits.is_power_of_two() && bits > 0,
            "ACFV length must be a power of two"
        );
        match self {
            HashKind::Xor => {
                let w = bits.trailing_zeros().max(1);
                let mask = (bits - 1) as u64;
                let mut acc = 0u64;
                let mut t = tag;
                while t != 0 {
                    acc ^= t & mask;
                    t >>= w;
                }
                acc as usize
            }
            HashKind::Modulo => (tag % bits as u64) as usize,
            HashKind::Mix => {
                let mut z = tag.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                (z & (bits as u64 - 1)) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_in_range() {
        for bits in [2usize, 8, 32, 128, 512] {
            for tag in [0u64, 1, 0xdead_beef, u64::MAX, 1 << 40] {
                assert!(HashKind::Xor.index(tag, bits) < bits);
                assert!(HashKind::Modulo.index(tag, bits) < bits);
                assert!(HashKind::Mix.index(tag, bits) < bits);
            }
        }
    }

    #[test]
    fn xor_fold_differs_from_modulo_on_high_bits() {
        // Tags that differ only in high bits collide under modulo but not
        // (generally) under XOR folding.
        let bits = 64;
        let a = 0x0000_0000_0000_0010u64;
        let b = 0x0001_0000_0000_0010u64;
        assert_eq!(
            HashKind::Modulo.index(a, bits),
            HashKind::Modulo.index(b, bits)
        );
        assert_ne!(HashKind::Xor.index(a, bits), HashKind::Xor.index(b, bits));
    }

    #[test]
    fn xor_spreads_strided_tags() {
        // Strided tags (stride = bits) all collide under modulo; XOR
        // folding spreads them across many indices.
        let bits = 128;
        let idxs: std::collections::HashSet<usize> = (0..64u64)
            .map(|i| HashKind::Xor.index(i * bits as u64, bits))
            .collect();
        assert!(idxs.len() > 16, "XOR spread only {} indices", idxs.len());
        let m: std::collections::HashSet<usize> = (0..64u64)
            .map(|i| HashKind::Modulo.index(i * bits as u64, bits))
            .collect();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn mix_is_near_uniform_on_strided_tags() {
        // The engine's decision vectors depend on low bias: hashing N
        // strided tags into 2N bits should set close to the
        // occupancy-model expectation, unlike XOR folding.
        let bits = 256;
        for stride in [7u64, 16, 8191, 1 << 20] {
            let set: std::collections::HashSet<usize> = (0..128u64)
                .map(|i| HashKind::Mix.index(i * stride, bits))
                .collect();
            // Expected distinct ≈ 256(1 - e^{-0.5}) ≈ 100.7.
            assert!(
                set.len() > 80 && set.len() <= 128,
                "stride {stride}: {}",
                set.len()
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            HashKind::Xor.index(12345, 128),
            HashKind::Xor.index(12345, 128)
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_length_panics() {
        HashKind::Xor.index(1, 100);
    }
}
