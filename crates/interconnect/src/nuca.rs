//! Distance-aware (NUCA-style) latency model for merged groups that span
//! more tiles than the paper's die.
//!
//! The paper's merged-access latencies (Table 2, §3.2: +15 unpipelined /
//! +10 pipelined core cycles) are derived from a 16-tile floorplan whose
//! worst leaf-to-root wire fits in one bus cycle. Scaled to 64–1024
//! cores ([`crate::Floorplan::for_cores`]), a merged group covering more
//! than 16 tiles grows its wire span with every doubling, so each
//! doubling past the 16-tile threshold costs one extra bus hop — the
//! classic non-uniform cache access (NUCA) distance term, applied at bus
//! granularity rather than per-bank.
//!
//! A group's covering span is the smallest power of two at least as wide
//! as the range of tiles it covers
//! (`morphcache::topology::covering_pow2_span`); the backends charge the
//! widest group's span. The model is deliberately degenerate at the
//! paper's scale: for any covering span ≤ 16 tiles it adds **zero**
//! cycles, so a 16-core system is bit-identical with or without it.

/// Hop-latency model: extra core cycles per merged access as a function
/// of the group's covering span in tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NucaModel {
    /// Largest covering span (in tiles) reachable within the baseline
    /// bus transaction — the paper's die, 16 tiles.
    pub tile_span_threshold: usize,
    /// Extra core cycles per doubling of the covering span beyond the
    /// threshold (one bus hop).
    pub hop_cycles_per_doubling: u64,
}

impl NucaModel {
    /// The model matching the paper's published clocks: a 5 GHz core and
    /// a 1 GHz segmented bus make one extra bus hop cost 5 core cycles,
    /// and the 16-tile die is the zero-cost threshold.
    pub fn paper() -> Self {
        Self {
            tile_span_threshold: 16,
            hop_cycles_per_doubling: 5,
        }
    }

    /// Extra core cycles for a merged access whose group covers `span`
    /// tiles: zero at or below the threshold, one hop per doubling above
    /// it. `extra(32) = 1 hop`, `extra(64) = 2 hops`, ... on the paper
    /// clocks.
    pub fn extra_merged_cycles(&self, span: usize) -> u64 {
        let mut reach = self.tile_span_threshold;
        let mut extra = 0;
        while reach < span {
            reach *= 2;
            extra += self.hop_cycles_per_doubling;
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_extra_cycles_at_or_below_the_paper_die() {
        let m = NucaModel::paper();
        assert_eq!(m.hop_cycles_per_doubling, 5);
        for span in 1..=16 {
            assert_eq!(m.extra_merged_cycles(span), 0, "span {span}");
        }
    }

    #[test]
    fn one_hop_per_doubling_past_sixteen_tiles() {
        let m = NucaModel::paper();
        assert_eq!(m.extra_merged_cycles(32), 5);
        assert_eq!(m.extra_merged_cycles(64), 10);
        assert_eq!(m.extra_merged_cycles(256), 20);
        assert_eq!(m.extra_merged_cycles(1024), 30);
        // Non-power-of-two spans round up to the next doubling.
        assert_eq!(m.extra_merged_cycles(17), 5);
        assert_eq!(m.extra_merged_cycles(33), 10);
    }
}
