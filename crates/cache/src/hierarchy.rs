//! The inclusive three-level hierarchy: private L1s plus groupable L2 and
//! L3 slice levels, with inclusion enforced by back-invalidation.
//!
//! Inclusion ordering (paper §2.2: "we use inclusive caches in our work to
//! avoid the design complexity of the coherence protocols"):
//!
//! * every L1 line of core `c` is resident in `c`'s L2 group;
//! * every L2 line in slice `s` is resident in the L3 group containing `s`.
//!
//! The grouping-safety rules follow: the L2 grouping must *refine* the L3
//! grouping (merging L2 requires the L3 merged; splitting L3 requires the
//! L2 split). [`Hierarchy::set_l2_grouping`] and
//! [`Hierarchy::set_l3_grouping`] validate this and evict any lines whose
//! backing disappears across a reconfiguration.

use crate::events::{CacheEventSink, Level};
use crate::group::Grouping;
use crate::params::{CacheParams, LatencyParams};
use crate::slice::{CacheLevel, Entry, Slice};
use crate::stats::LevelStats;
use crate::{ConfigError, CoreId, Line, MAX_CORES};

/// Anything that can serve memory accesses for a set of cores.
///
/// Implemented by [`Hierarchy`] and by the baseline memory systems (PIPP,
/// DSR) in the `morph-baselines` crate, so the system simulator can drive
/// them interchangeably.
pub trait MemorySubsystem {
    /// Performs one access by `core` to the given line address, returning
    /// the access latency in core cycles. Cache events are reported on
    /// `sink`.
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        sink: &mut dyn CacheEventSink,
    ) -> u64;

    /// Number of cores served.
    fn n_cores(&self) -> usize;
}

/// Full configuration of a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyParams {
    /// Number of cores (== number of L2 slices == number of L3 slices).
    pub n_cores: usize,
    /// Geometry of each private L1.
    pub l1: CacheParams,
    /// Geometry of each L2 slice.
    pub l2_slice: CacheParams,
    /// Geometry of each L3 slice.
    pub l3_slice: CacheParams,
    /// Access latencies.
    pub latency: LatencyParams,
}

/// Geometry for one preset cache level. Both presets ([`paper`] and
/// [`scaled_down`]) use power-of-two capacity/ways/block constants that
/// always validate; funnelling them through one helper keeps the panic
/// justification in a single place.
///
/// [`paper`]: HierarchyParams::paper
/// [`scaled_down`]: HierarchyParams::scaled_down
fn preset_geometry(capacity: usize, ways: usize, block: usize) -> CacheParams {
    CacheParams::from_capacity(capacity, ways, block)
        // morph-lint: allow(no-panic-in-lib, reason = "preset power-of-two capacity/ways/block constants always yield a valid geometry; pinned by the paper_geometry and scaled_down tests")
        .expect("preset constants yield a valid geometry")
}

impl HierarchyParams {
    /// The paper's Table 3 configuration: 32 KB 4-way L1, 256 KB 8-way L2
    /// slices, 1 MB 16-way L3 slices, 64 B lines.
    pub fn paper(n_cores: usize) -> Self {
        Self {
            n_cores,
            l1: preset_geometry(32 * 1024, 4, 64),
            l2_slice: preset_geometry(256 * 1024, 8, 64),
            l3_slice: preset_geometry(1024 * 1024, 16, 64),
            latency: LatencyParams::paper(),
        }
    }

    /// A 1/8-scale hierarchy with the same shape, for fast tests:
    /// 4 KB L1, 32 KB L2 slices, 128 KB L3 slices.
    pub fn scaled_down(n_cores: usize) -> Self {
        Self {
            n_cores,
            l1: preset_geometry(4 * 1024, 4, 64),
            l2_slice: preset_geometry(32 * 1024, 8, 64),
            l3_slice: preset_geometry(128 * 1024, 16, 64),
            latency: LatencyParams::paper(),
        }
    }

    /// Returns a copy with a different L2 slice capacity (same ways/block).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the implied geometry is invalid
    /// (e.g. a capacity that does not divide into power-of-two sets).
    pub fn with_l2_capacity(mut self, bytes: usize) -> Result<Self, ConfigError> {
        self.l2_slice =
            CacheParams::from_capacity(bytes, self.l2_slice.ways(), self.l2_slice.block_bytes())?;
        Ok(self)
    }

    /// Returns a copy with a different L3 slice capacity (same ways/block).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the implied geometry is invalid.
    pub fn with_l3_capacity(mut self, bytes: usize) -> Result<Self, ConfigError> {
        self.l3_slice =
            CacheParams::from_capacity(bytes, self.l3_slice.ways(), self.l3_slice.block_bytes())?;
        Ok(self)
    }

    /// Returns a copy with doubled L2/L3 associativity at constant capacity
    /// (the §5.4 sensitivity experiment).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the implied geometry is invalid
    /// (doubling the ways halves the set count, which can reach zero).
    pub fn with_doubled_associativity(mut self) -> Result<Self, ConfigError> {
        self.l2_slice = CacheParams::from_capacity(
            self.l2_slice.capacity_bytes(),
            self.l2_slice.ways() * 2,
            self.l2_slice.block_bytes(),
        )?;
        self.l3_slice = CacheParams::from_capacity(
            self.l3_slice.capacity_bytes(),
            self.l3_slice.ways() * 2,
            self.l3_slice.block_bytes(),
        )?;
        Ok(self)
    }
}

/// An inclusive L1/L2/L3 hierarchy with groupable L2 and L3 levels.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    params: HierarchyParams,
    l1: Vec<Slice>,
    l2: CacheLevel,
    l3: CacheLevel,
    /// L1-level statistics (per core).
    pub l1_stats: LevelStats,
    /// Dirty lines written back to memory.
    pub memory_writebacks: u64,
    stamp: u64,
}

impl Hierarchy {
    /// Creates a hierarchy with all L2/L3 slices private.
    ///
    /// # Panics
    ///
    /// Panics if `params.n_cores` exceeds [`MAX_CORES`]: the caches store
    /// line owners as 2-byte core ids. Simulator runs reject such core
    /// counts earlier, with a typed error from
    /// `morph_system::SystemConfig::validate`; this check covers callers
    /// that build a hierarchy directly.
    pub fn new(params: HierarchyParams) -> Self {
        assert!(
            params.n_cores <= MAX_CORES,
            "{} cores exceed MAX_CORES ({MAX_CORES})",
            params.n_cores
        );
        Self {
            l1: (0..params.n_cores).map(|_| Slice::new(params.l1)).collect(),
            l2: CacheLevel::new(Level::L2, params.n_cores, params.l2_slice),
            l3: CacheLevel::new(Level::L3, params.n_cores, params.l3_slice),
            l1_stats: LevelStats::new(params.n_cores),
            memory_writebacks: 0,
            params,
            stamp: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn params(&self) -> &HierarchyParams {
        &self.params
    }

    /// The L2 level.
    pub fn l2(&self) -> &CacheLevel {
        &self.l2
    }

    /// The L3 level.
    pub fn l3(&self) -> &CacheLevel {
        &self.l3
    }

    /// A core's private L1 slice.
    pub fn l1(&self, core: CoreId) -> &Slice {
        &self.l1[core]
    }

    /// Replaces the L2 grouping.
    ///
    /// Always safe with respect to L2↔L3 inclusion *if* the new grouping
    /// refines the current L3 grouping (§2.2: "merge the L2 cache slices
    /// only when it is possible to merge the corresponding L3 slices as
    /// well"). L1 lines that lose their L2 reachability (possible when an
    /// L2 group splits) are back-invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InclusionViolation`] if the new L2 grouping
    /// does not refine the current L3 grouping.
    pub fn set_l2_grouping(&mut self, g: Grouping) -> Result<(), ConfigError> {
        if !g.refines(self.l3.grouping()) {
            return Err(ConfigError::InclusionViolation(format!(
                "L2 grouping {} does not refine L3 grouping {}",
                g,
                self.l3.grouping()
            )));
        }
        self.l2.set_grouping(g)?;
        // Restore L1 ⊆ L2-group(core): evict L1 lines that are no longer
        // reachable through the core's (possibly shrunken) L2 group.
        for core in 0..self.params.n_cores {
            let members = self.l2.grouping().group_members(core).to_vec();
            let mut lost: Vec<Entry> = Vec::new();
            self.l1[core]
                .retain_entries(|e| self.l2.resident_in(&members, e.line), |e| lost.push(e));
            for e in lost {
                self.l1[core].stats.back_invalidations += 1;
                if e.dirty {
                    // Always a memory writeback, also when an L2 copy
                    // survives in a slice outside the core's new group
                    // (the dirty bit is not folded into that copy).
                    self.memory_writebacks += 1;
                }
            }
        }
        Ok(())
    }

    /// Replaces the L3 grouping.
    ///
    /// The current L2 grouping must refine the new L3 grouping (§2.3:
    /// "decide to split the L3 cache only if the corresponding L2 caches
    /// can be split"). L2 and L1 lines whose L3 backing becomes
    /// unreachable (possible when an L3 group splits) are back-invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InclusionViolation`] if the current L2
    /// grouping does not refine `g`.
    pub fn set_l3_grouping(&mut self, g: Grouping) -> Result<(), ConfigError> {
        if !self.l2.grouping().refines(&g) {
            return Err(ConfigError::InclusionViolation(format!(
                "L2 grouping {} does not refine new L3 grouping {}",
                self.l2.grouping(),
                g
            )));
        }
        self.l3.set_grouping(g)?;
        // Restore L2-slice ⊆ L3-group(slice).
        for s in 0..self.params.n_cores {
            let l3_members = self.l3.grouping().group_members(s).to_vec();
            let mut lost: Vec<Entry> = Vec::new();
            {
                let (l2, l3) = (&mut self.l2, &self.l3);
                l2.retain_slice_entries(
                    s,
                    |e| l3.resident_in(&l3_members, e.line),
                    |e| lost.push(e),
                );
            }
            for e in lost {
                self.l2.slice_stats_mut(s).back_invalidations += 1;
                if e.dirty {
                    self.memory_writebacks += 1;
                }
                // Remove the line from the L1s of every core that could
                // reach this L2 slice.
                let cores = self.l2.grouping().group_members(s).to_vec();
                for c in cores {
                    if self.l1[c].invalidate(e.line).is_some() {
                        self.l1[c].stats.back_invalidations += 1;
                    }
                }
            }
        }
        // The sweep above removed L2 entries through
        // `retain_slice_entries`, behind the back of the level's
        // residency index (a no-op while the level keeps none).
        self.l2.rebuild_index();
        Ok(())
    }

    /// Performs one access, returning the latency in core cycles and
    /// reporting cache events on `sink`.
    ///
    /// Latency composition: `L1` on an L1 hit; `L1 + L2(local|merged)` on
    /// an L2 hit; `... + L3(local|merged)` on an L3 hit; `... + memory` on
    /// an L3 miss (Table 3 latencies).
    pub fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        sink: &mut dyn CacheEventSink,
    ) -> u64 {
        let lat = &self.params.latency;
        let mut cycles = lat.l1;
        self.stamp += 1;
        let stamp = self.stamp;

        // Start fetching the L2 tag rows the group lookup would scan:
        // most accesses miss L1, and issuing the fetches here hides them
        // behind the L1 probe. Pure hint — no behavioral effect.
        self.l2.prefetch_lookup(core, line);

        // L1.
        if let Some(way) = self.l1[core].probe(line) {
            let set = self.params.l1.set_index(line);
            self.l1[core].touch(set, way, stamp);
            if is_write {
                self.l1[core].set_dirty(set, way);
            }
            self.l1[core].stats.local_hits += 1;
            self.l1_stats.record(core, false);
            return cycles;
        }
        self.l1_stats.record(core, true);

        // L2.
        let l2_hit = self.l2.lookup(core, line, sink);
        match l2_hit {
            Some(hit) => {
                cycles += if hit.local {
                    lat.l2_local
                } else {
                    lat.l2_merged
                };
                if is_write {
                    self.l2.mark_dirty(core, line);
                }
            }
            None => {
                // L3.
                let l3_hit = self.l3.lookup(core, line, sink);
                match l3_hit {
                    Some(hit) => {
                        cycles += lat.l2_local; // L2 tag check on the way down.
                        cycles += if hit.local {
                            lat.l3_local
                        } else {
                            lat.l3_merged
                        };
                    }
                    None => {
                        cycles += lat.l2_local + lat.l3_local + lat.memory;
                        self.fill_l3(core, line, sink);
                    }
                }
                if is_write {
                    self.l3.mark_dirty(core, line);
                }
                self.fill_l2(core, line, is_write, sink);
            }
        }

        // Fill L1.
        self.fill_l1(core, line, is_write, stamp);
        cycles
    }

    fn fill_l3(&mut self, core: CoreId, line: Line, sink: &mut dyn CacheEventSink) {
        if let Some(d) = self.l3.insert(core, line, false, sink) {
            // Inclusion: evict the victim from every L2 slice and L1 of the
            // cores that share the victim's L3 group. Borrowing the levels
            // as disjoint fields lets the group's member list be used in
            // place — no per-miss `to_vec` allocation.
            let victim = d.entry;
            let Self {
                l1,
                l2,
                l3,
                memory_writebacks,
                ..
            } = self;
            let l3_group: &[CoreId] = l3.grouping().group_members(d.slice);
            let dirty_l2 = l2.back_invalidate(l3_group, victim.line, sink);
            let mut dirty_l1 = false;
            for &c in l3_group {
                if let Some(e) = l1[c].invalidate(victim.line) {
                    l1[c].stats.back_invalidations += 1;
                    dirty_l1 |= e.dirty;
                }
            }
            if victim.dirty || dirty_l2 || dirty_l1 {
                *memory_writebacks += 1;
            }
        }
    }

    fn fill_l2(&mut self, core: CoreId, line: Line, dirty: bool, sink: &mut dyn CacheEventSink) {
        if let Some(d) = self.l2.insert(core, line, dirty, sink) {
            let victim = d.entry;
            // L1 inclusion: the victim may be cached by any core of the L2
            // group it was evicted from. Same disjoint-field borrow as
            // fill_l3 — the member slice is read in place.
            let Self { l1, l2, l3, .. } = self;
            let l2_group: &[CoreId] = l2.grouping().group_members(d.slice);
            let mut dirty_l1 = false;
            for &c in l2_group {
                if let Some(e) = l1[c].invalidate(victim.line) {
                    l1[c].stats.back_invalidations += 1;
                    dirty_l1 |= e.dirty;
                }
            }
            if victim.dirty || dirty_l1 {
                // Writeback to L3 (inclusive: the line is still there).
                l3.mark_dirty(victim.owner, victim.line);
            }
        }
    }

    fn fill_l1(&mut self, core: CoreId, line: Line, dirty: bool, stamp: u64) {
        let set = self.params.l1.set_index(line);
        let displaced = self.l1[core].fill(
            set,
            Entry {
                line,
                owner: core,
                stamp,
                dirty,
            },
        );
        if let Some(e) = displaced {
            self.l1[core].stats.evictions += 1;
            if e.dirty {
                // Write-back into the L2 copy (present by inclusion).
                self.l2.mark_dirty(core, e.line);
            }
        }
    }

    /// Verifies the inclusion invariants; returns a description of the
    /// first violation found. Used by integration and property tests.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_inclusion(&self) -> Result<(), String> {
        for core in 0..self.params.n_cores {
            let l2_members = self.l2.grouping().group_members(core);
            for e in self.l1[core].iter_entries() {
                if !self.l2.resident_in(l2_members, e.line) {
                    return Err(format!(
                        "L1 line {:#x} of core {core} not backed by its L2 group",
                        e.line
                    ));
                }
            }
        }
        for s in 0..self.params.n_cores {
            let l3_members = self.l3.grouping().group_members(s);
            for e in self.l2.iter_slice_entries(s) {
                if !self.l3.resident_in(l3_members, e.line) {
                    return Err(format!(
                        "L2 line {:#x} in slice {s} not backed by its L3 group",
                        e.line
                    ));
                }
            }
        }
        Ok(())
    }

    /// Overrides the merged-hit latencies (used by the §5.5 relaxed
    /// grouping experiments, where distant group members pay a
    /// span-proportional interconnect penalty).
    pub fn set_merged_latencies(&mut self, l2_merged: u64, l3_merged: u64) {
        self.params.latency.l2_merged = l2_merged;
        self.params.latency.l3_merged = l3_merged;
    }

    /// Combined per-core L2 + L3 miss counts since the last
    /// [`reset_stats`](Self::reset_stats) (the per-epoch miss statistic
    /// the MorphCache engine and the QoS analysis consume).
    pub fn misses_by_core(&self) -> Vec<u64> {
        self.l2
            .stats
            .misses_by_core
            .iter()
            .zip(self.l3.stats.misses_by_core.iter())
            .map(|(a, b)| a + b)
            .collect()
    }

    /// Worst covering-span inflation over the non-singleton groups of a
    /// slice grouping: 1.0 for buddy-aligned groupings, larger when a
    /// logical group rides a physical superset segment (§5.5 relaxed
    /// groupings). Distant group members pay a latency penalty
    /// proportional to this factor on the segmented bus.
    pub fn span_factor(groups: &[Vec<usize>]) -> f64 {
        groups
            .iter()
            .filter(|g| g.len() > 1)
            .map(|g| morphcache::topology::covering_pow2_span(g) as f64 / g.len() as f64)
            .fold(1.0, f64::max)
    }

    /// Resets all statistics counters (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        self.l1_stats.reset();
        for s in &mut self.l1 {
            s.stats.reset();
        }
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.memory_writebacks = 0;
    }
}

impl MemorySubsystem for Hierarchy {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        sink: &mut dyn CacheEventSink,
    ) -> u64 {
        Hierarchy::access(self, core, line, is_write, sink)
    }

    fn n_cores(&self) -> usize {
        self.params.n_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{NoopSink, RecordingSink};

    fn h4() -> Hierarchy {
        Hierarchy::new(HierarchyParams::scaled_down(4))
    }

    #[test]
    fn cold_miss_pays_full_path_and_fills_all_levels() {
        let mut h = h4();
        let mut sink = RecordingSink::default();
        let lat = h.access(0, 0x1000, false, &mut sink);
        let p = h.params().latency;
        assert_eq!(lat, p.l1 + p.l2_local + p.l3_local + p.memory);
        // Fills at both groupable levels reported.
        assert!(sink.inserted.iter().any(|&(l, ..)| l == Level::L2));
        assert!(sink.inserted.iter().any(|&(l, ..)| l == Level::L3));
        h.check_inclusion().unwrap();
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = h4();
        let mut sink = NoopSink;
        h.access(0, 0x1000, false, &mut sink);
        let lat = h.access(0, 0x1000, false, &mut sink);
        assert_eq!(lat, h.params().latency.l1);
    }

    #[test]
    fn l2_hit_after_l1_conflict_eviction() {
        let mut h = h4();
        let mut sink = NoopSink;
        let l1 = h.params().l1;
        // Fill one L1 set beyond capacity: ways+1 lines in the same set.
        let lines: Vec<Line> = (0..=l1.ways() as u64)
            .map(|i| i * l1.sets() as u64)
            .collect();
        for &l in &lines {
            h.access(0, l, false, &mut sink);
        }
        // The first line was evicted from L1 but lives in L2.
        let p = h.params().latency;
        let lat = h.access(0, lines[0], false, &mut sink);
        assert_eq!(lat, p.l1 + p.l2_local);
    }

    #[test]
    fn private_hierarchies_are_isolated() {
        let mut h = h4();
        let mut sink = NoopSink;
        h.access(0, 0x1000, false, &mut sink);
        let p = h.params().latency;
        // Same line from another core: full miss (private slices).
        let lat = h.access(1, 0x1000, false, &mut sink);
        assert_eq!(lat, p.l1 + p.l2_local + p.l3_local + p.memory);
    }

    #[test]
    fn merged_l3_serves_remote_hits() {
        let mut h = h4();
        let mut g = Grouping::private(4);
        g.merge_pair(0, 1).unwrap();
        h.set_l3_grouping(g).unwrap();
        let mut sink = NoopSink;
        h.access(0, 0x1000, false, &mut sink);
        let p = h.params().latency;
        // Core 1 misses L1+L2 but hits core 0's line in the merged L3.
        // The line is in slice 0 = core 1's remote slice.
        let lat = h.access(1, 0x1000, false, &mut sink);
        assert_eq!(lat, p.l1 + p.l2_local + p.l3_merged);
        h.check_inclusion().unwrap();
    }

    #[test]
    fn l2_merge_requires_l3_merge_first() {
        let mut h = h4();
        let mut g = Grouping::private(4);
        g.merge_pair(0, 1).unwrap();
        assert!(
            h.set_l2_grouping(g.clone()).is_err(),
            "L2 merge with split L3 must fail"
        );
        h.set_l3_grouping(g.clone()).unwrap();
        h.set_l2_grouping(g).unwrap();
    }

    #[test]
    fn l3_split_requires_l2_split_first() {
        let mut h = h4();
        let mut g = Grouping::private(4);
        g.merge_pair(0, 1).unwrap();
        h.set_l3_grouping(g.clone()).unwrap();
        h.set_l2_grouping(g.clone()).unwrap();
        // Splitting L3 while L2 is merged violates inclusion safety.
        assert!(h.set_l3_grouping(Grouping::private(4)).is_err());
        // Split L2 first, then L3.
        h.set_l2_grouping(Grouping::private(4)).unwrap();
        h.set_l3_grouping(Grouping::private(4)).unwrap();
    }

    #[test]
    fn l3_split_back_invalidates_unbacked_l2_lines() {
        let mut h = h4();
        let mut g = Grouping::private(4);
        g.merge_pair(0, 1).unwrap();
        h.set_l3_grouping(g).unwrap();
        let mut sink = NoopSink;
        // Fill enough distinct lines from core 0 that some L3 copies land
        // in (or spill to) slice 1.
        let sets = h.params().l3_slice.sets() as u64;
        for i in 0..(h.params().l3_slice.ways() as u64 * 2 + 4) {
            h.access(0, i * sets, false, &mut sink);
        }
        h.check_inclusion().unwrap();
        // Split L3 back to private: every L2/L1 line must stay backed.
        h.set_l3_grouping(Grouping::private(4)).unwrap();
        h.check_inclusion().unwrap();
    }

    #[test]
    fn inclusion_holds_under_random_traffic() {
        let mut rng = morphcache::Xoshiro256pp::seed_from_u64(7);
        let mut h = h4();
        let mut sink = NoopSink;
        // Shared L2+L3 pairs.
        let mut g = Grouping::private(4);
        g.merge_pair(0, 1).unwrap();
        g.merge_pair(2, 3).unwrap();
        h.set_l3_grouping(g.clone()).unwrap();
        h.set_l2_grouping(g).unwrap();
        for _ in 0..20_000 {
            let core = rng.range_usize(0, 4);
            let line = rng.range_u64(0, 4096);
            let write = rng.gen_bool(0.3);
            h.access(core, line, write, &mut sink);
        }
        h.check_inclusion().unwrap();
        // Random buddy groupings, shared by both levels, under short bursts
        // of random traffic.
        for seed in 0..64 {
            let mut rng = morphcache::Xoshiro256pp::seed_from_u64(seed);
            let mut groups = Vec::new();
            let mut stack = vec![(0usize, 4usize)];
            while let Some((lo, size)) = stack.pop() {
                if size == 1 || rng.gen_bool(0.4) {
                    groups.push((lo..lo + size).collect::<Vec<usize>>());
                } else {
                    stack.extend([(lo + size / 2, size / 2), (lo, size / 2)]);
                }
            }
            let mut h = h4();
            h.set_l3_grouping(Grouping::from_groups(4, groups.clone()).unwrap())
                .unwrap();
            h.set_l2_grouping(Grouping::from_groups(4, groups).unwrap())
                .unwrap();
            for _ in 0..rng.range_usize(1, 300) {
                let (core, line) = (rng.range_usize(0, 4), rng.range_u64(0, 2048));
                h.access(core, line, rng.gen_bool(0.5), &mut sink);
            }
            h.check_inclusion().unwrap();
        }
    }

    #[test]
    fn l3_eviction_back_invalidates_l1_and_l2() {
        let mut h = h4();
        let mut sink = RecordingSink::default();
        let l3 = h.params().l3_slice;
        // Touch ways+1 lines mapping to the same L3 set from core 0.
        let lines: Vec<Line> = (0..=l3.ways() as u64)
            .map(|i| i * l3.sets() as u64)
            .collect();
        for &l in &lines {
            h.access(0, l, false, &mut sink);
        }
        // lines[0] was evicted from L3; it must not be in L1/L2 either.
        assert!(h.l1(0).probe(lines[0]).is_none());
        assert!(h.l2().peek(0, lines[0]).is_none());
        h.check_inclusion().unwrap();
        // And the access after eviction is a full miss again.
        let p = h.params().latency;
        assert_eq!(
            h.access(0, lines[0], false, &mut sink),
            p.l1 + p.l2_local + p.l3_local + p.memory
        );
    }

    #[test]
    fn writeback_counted_on_dirty_l3_eviction() {
        let mut h = h4();
        let mut sink = NoopSink;
        let l3 = h.params().l3_slice;
        let lines: Vec<Line> = (0..=l3.ways() as u64)
            .map(|i| i * l3.sets() as u64)
            .collect();
        h.access(0, lines[0], true, &mut sink); // dirty line
        for &l in &lines[1..] {
            h.access(0, l, false, &mut sink);
        }
        assert!(h.memory_writebacks >= 1, "dirty L3 victim must write back");
    }

    #[test]
    fn misses_by_core_sums_both_groupable_levels() {
        let mut h = h4();
        let mut sink = NoopSink;
        h.access(0, 0x1000, false, &mut sink); // cold: misses L2 and L3
        h.access(1, 0x2000, false, &mut sink);
        let m = h.misses_by_core();
        assert_eq!(m.len(), 4);
        assert_eq!(m[0], 2, "one L2 miss + one L3 miss");
        assert_eq!(m[1], 2);
        assert_eq!(m[2], 0);
        h.reset_stats();
        assert_eq!(h.misses_by_core(), vec![0; 4]);
    }

    #[test]
    fn span_factor_penalizes_sparse_groups() {
        assert_eq!(Hierarchy::span_factor(&[vec![0, 1], vec![2], vec![3]]), 1.0);
        assert_eq!(
            Hierarchy::span_factor(&[vec![0], vec![1], vec![2], vec![3]]),
            1.0
        );
        assert_eq!(Hierarchy::span_factor(&[vec![0, 3], vec![1], vec![2]]), 2.0);
        assert!((Hierarchy::span_factor(&[vec![0, 1, 2], vec![3]]) - 4.0 / 3.0).abs() < 1e-12);
    }

    /// At 64 cores, 4-slice groups span 32 L2 / 64 L3 ways and stay on
    /// the tag scan, while all-shared groups span 512 / 1,024 ways and
    /// carry the residency index. Regrouping across the gate in both
    /// directions, with traffic in between, must keep inclusion.
    #[test]
    fn residency_index_exists_only_while_a_group_is_wide() {
        let mut h = Hierarchy::new(HierarchyParams::scaled_down(64));
        let mut rng = morphcache::Xoshiro256pp::seed_from_u64(0x64);
        let mut traffic = |h: &mut Hierarchy| {
            for _ in 0..10_000 {
                let core = rng.range_usize(0, 64);
                let line = rng.range_u64(0, 1 << 16);
                let write = rng.gen_bool(0.3);
                h.access(core, line, write, &mut NoopSink);
            }
        };
        let narrow = Grouping::contiguous(64, 4).unwrap();
        let shared = Grouping::all_shared(64);
        let indexed = |h: &Hierarchy| (h.l2().has_index(), h.l3().has_index());
        traffic(&mut h);
        h.set_l3_grouping(narrow.clone()).unwrap();
        h.set_l2_grouping(narrow.clone()).unwrap();
        h.check_inclusion().unwrap();
        assert_eq!(indexed(&h), (false, false));
        traffic(&mut h);
        h.set_l3_grouping(shared.clone()).unwrap();
        h.check_inclusion().unwrap();
        assert_eq!(indexed(&h), (false, true));
        h.set_l2_grouping(shared).unwrap();
        h.check_inclusion().unwrap();
        assert_eq!(indexed(&h), (true, true));
        traffic(&mut h);
        h.check_inclusion().unwrap();
        h.set_l2_grouping(narrow.clone()).unwrap();
        h.check_inclusion().unwrap();
        assert_eq!(indexed(&h), (false, true));
        h.set_l3_grouping(narrow).unwrap();
        h.check_inclusion().unwrap();
        assert_eq!(indexed(&h), (false, false));
        traffic(&mut h);
        h.check_inclusion().unwrap();
    }

    /// The paper's widest group — all 16 slices shared — spans 128 L2
    /// and 256 L3 ways, so paper-geometry runs never build the index.
    #[test]
    fn paper_geometry_never_builds_the_index() {
        let mut h = Hierarchy::new(HierarchyParams::paper(16));
        h.set_l3_grouping(Grouping::all_shared(16)).unwrap();
        h.set_l2_grouping(Grouping::all_shared(16)).unwrap();
        assert!(!h.l2().has_index());
        assert!(!h.l3().has_index());
    }

    #[test]
    #[should_panic(expected = "exceed MAX_CORES")]
    fn hierarchy_rejects_more_cores_than_owner_ids_hold() {
        let _ = Hierarchy::new(HierarchyParams::scaled_down(MAX_CORES + 1));
    }

    #[test]
    fn memory_subsystem_trait_dispatch() {
        let mut h: Box<dyn MemorySubsystem> = Box::new(h4());
        assert_eq!(h.n_cores(), 4);
        let mut sink = NoopSink;
        let lat = h.access(2, 42, false, &mut sink);
        assert!(lat > 0);
    }
}
