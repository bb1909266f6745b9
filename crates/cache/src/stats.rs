//! Access statistics kept per slice and per level.

use crate::CoreId;

/// Counters for one physical cache slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// Hits served by this slice for other cores of its merged group.
    pub remote_hits: u64,
    /// Lines removed by inclusion back-invalidation.
    pub back_invalidations: u64,
    /// Duplicate copies removed by lazy invalidation after a merge (§2.2).
    pub lazy_invalidations: u64,
}

impl SliceStats {
    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = SliceStats::default();
    }
}

/// Counters for one cache level, including a per-core miss breakdown
/// (needed by the QoS throttling of §5.3, which tracks "the number of
/// misses incurred by an application before and after each merging
/// reconfiguration step").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups issued to this level.
    pub accesses: u64,
    /// Lookups that missed in the requester's whole group.
    pub misses: u64,
    /// Per-core access counts.
    pub accesses_by_core: Vec<u64>,
    /// Per-core miss counts.
    pub misses_by_core: Vec<u64>,
}

impl LevelStats {
    /// Creates zeroed stats for `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        Self {
            accesses: 0,
            misses: 0,
            accesses_by_core: vec![0; n_cores],
            misses_by_core: vec![0; n_cores],
        }
    }

    /// Records an access by `core`; `miss` says whether it missed.
    pub fn record(&mut self, core: CoreId, miss: bool) {
        self.accesses += 1;
        self.accesses_by_core[core] += 1;
        if miss {
            self.misses += 1;
            self.misses_by_core[core] += 1;
        }
    }

    /// Resets all counters, preserving the core count.
    pub fn reset(&mut self) {
        let n = self.accesses_by_core.len();
        *self = LevelStats::new(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_stats_accumulate_and_reset() {
        let mut s = SliceStats::default();
        s.remote_hits += 1;
        s.back_invalidations += 2;
        s.reset();
        assert_eq!(s, SliceStats::default());
    }

    #[test]
    fn level_stats_track_per_core_misses() {
        let mut s = LevelStats::new(2);
        s.record(0, false);
        s.record(0, true);
        s.record(1, true);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.misses_by_core, vec![1, 1]);
        s.reset();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.accesses_by_core.len(), 2);
    }
}
