//! Promotion/Insertion Pseudo-Partitioning (PIPP) \[28\], extended to both
//! L2 and L3 as in Fig. 17.
//!
//! PIPP manages a *fully shared* cache with a single mechanism:
//!
//! * each core `i` has a target allocation `π_i` of the ways, computed
//!   periodically by **UCP lookahead partitioning** over per-core
//!   **utility monitors** (UMON: sampled-set auxiliary tag directories
//!   with per-recency-position hit counters);
//! * on a miss, the incoming line is *inserted* at priority position
//!   `π_i` (counted from the LRU end) instead of at MRU;
//! * on a hit, the line is *promoted* by exactly one position with
//!   probability `p_prom = 3/4`.
//!
//! Cores with large allocations insert high and their lines survive;
//! cores with small allocations insert near LRU and steal little capacity
//! — partitioning emerges without way-locking. As the paper notes, the
//! scheme is "topology-unaware": both levels are all-shared, which is
//! what MorphCache beats on mixes with high footprint variation.

use morph_cache::slice::Entry;
use morph_cache::{
    CacheEventSink, CacheParams, CoreId, LatencyParams, Level, Line, MemorySubsystem, Slice,
    MAX_CORES,
};
use morphcache::Xoshiro256pp;

/// Promotion probability numerator over 256 (`3/4` as in the PIPP paper).
const PROM_P256: u32 = 192;
/// Every `UMON_SAMPLING`-th set feeds the utility monitors.
const UMON_SAMPLING: usize = 16;

/// Per-core utility monitor: an auxiliary tag directory over sampled sets
/// with true-LRU stacks and a hit histogram per recency position.
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    ways: usize,
    /// `tags[sampled_set]` — LRU stack, most recent last.
    tags: Vec<Vec<Line>>,
    /// `hits[p]`: hits at stack distance `p` (0 = MRU).
    pub hits: Vec<u64>,
    /// Misses observed in the sampled sets.
    pub misses: u64,
}

impl UtilityMonitor {
    /// Creates a monitor with `sampled_sets` sets of `ways` ways.
    pub fn new(sampled_sets: usize, ways: usize) -> Self {
        Self {
            ways,
            tags: vec![Vec::new(); sampled_sets],
            hits: vec![0; ways],
            misses: 0,
        }
    }

    /// Records an access to a sampled set.
    pub fn access(&mut self, sampled_set: usize, line: Line) {
        let stack = &mut self.tags[sampled_set];
        if let Some(pos_from_back) = stack.iter().rev().position(|&t| t == line) {
            self.hits[pos_from_back] += 1;
            let idx = stack.len() - 1 - pos_from_back;
            let t = stack.remove(idx);
            stack.push(t);
        } else {
            self.misses += 1;
            if stack.len() == self.ways {
                stack.remove(0);
            }
            stack.push(line);
        }
    }

    /// Hits this core would get from `w` ways (sum of the first `w`
    /// histogram entries).
    pub fn utility(&self, w: usize) -> u64 {
        self.hits[..w.min(self.hits.len())].iter().sum()
    }

    /// Halves all counters (periodic decay between repartitioning).
    pub fn decay(&mut self) {
        for h in &mut self.hits {
            *h /= 2;
        }
        self.misses /= 2;
    }
}

/// UCP lookahead partitioning: distributes `total_ways` among the cores to
/// maximize total utility, greedily picking the block of ways with the
/// highest marginal utility per way. Every core receives at least one way.
///
/// # Panics
///
/// Panics if `total_ways < umons.len()`.
pub fn lookahead_partition(umons: &[UtilityMonitor], total_ways: usize) -> Vec<usize> {
    let n = umons.len();
    assert!(total_ways >= n, "need at least one way per core");
    let mut alloc = vec![1usize; n];
    let mut remaining = total_ways - n;
    while remaining > 0 {
        let mut best: Option<(f64, usize, usize)> = None; // (mu, core, k)
        for (i, u) in umons.iter().enumerate() {
            let have = alloc[i];
            let max_extra = (u.hits.len() - have).min(remaining);
            for k in 1..=max_extra {
                let gained = u.utility(have + k) - u.utility(have);
                if gained == 0 {
                    // Zero marginal utility never wins a way; without this
                    // guard, cold monitors (e.g. in the first interval)
                    // would tie at zero and the tie-break would hand every
                    // spare way to one core, starving the rest.
                    continue;
                }
                let mu = gained as f64 / k as f64;
                if best.map(|(b, ..)| mu > b).unwrap_or(true) {
                    best = Some((mu, i, k));
                }
            }
        }
        match best {
            Some((_, i, k)) if k > 0 => {
                alloc[i] += k;
                remaining -= k;
            }
            _ => break,
        }
    }
    // Distribute any leftover (no demonstrated utility) evenly so no core
    // is starved of insertion depth.
    let mut i = 0;
    while remaining > 0 {
        alloc[i % n] += 1;
        remaining -= 1;
        i += 1;
    }
    alloc
}

/// One PIPP-managed fully shared cache level.
#[derive(Debug, Clone)]
struct PippCache {
    ways: usize,
    block_mask_sets: usize,
    /// `sets[s]`: priority order, index 0 = lowest (next victim),
    /// `len-1` = highest.
    sets: Vec<Vec<(Line, CoreId)>>,
    alloc: Vec<usize>,
    umons: Vec<UtilityMonitor>,
    accesses: u64,
    misses: u64,
    misses_by_core: Vec<u64>,
}

impl PippCache {
    fn new(n_sets: usize, ways: usize, n_cores: usize) -> Self {
        let sampled = n_sets.div_ceil(UMON_SAMPLING);
        Self {
            ways,
            block_mask_sets: n_sets - 1,
            sets: vec![Vec::new(); n_sets],
            alloc: vec![(ways / n_cores).max(1); n_cores],
            umons: (0..n_cores)
                .map(|_| UtilityMonitor::new(sampled, ways))
                .collect(),
            accesses: 0,
            misses: 0,
            misses_by_core: vec![0; n_cores],
        }
    }

    fn set_index(&self, line: Line) -> usize {
        (line as usize) & self.block_mask_sets
    }

    /// Looks up `line`; on a hit, applies the single-step promotion with
    /// probability 3/4. Returns whether it hit.
    fn access(&mut self, core: CoreId, line: Line, rng: &mut Xoshiro256pp) -> bool {
        self.accesses += 1;
        let s = self.set_index(line);
        if s.is_multiple_of(UMON_SAMPLING) {
            self.umons[core].access(s / UMON_SAMPLING, line);
        }
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            // Promotion distance scales with the stack depth: the PIPP
            // paper's single-step promotion assumes a 16-way cache, so a
            // 128-way aggregated stack promotes by ways/16 positions to
            // preserve the same relative movement.
            if rng.range_u32(0, 256) < PROM_P256 {
                let step = (self.ways / 16).max(1);
                let new_pos = (pos + step).min(set.len() - 1);
                let entry = set.remove(pos);
                set.insert(new_pos, entry);
            }
            true
        } else {
            self.misses += 1;
            self.misses_by_core[core] += 1;
            false
        }
    }

    /// Probes without side effects (used by the inclusion tests).
    #[cfg(test)]
    fn contains(&self, line: Line) -> bool {
        let s = self.set_index(line);
        self.sets[s].iter().any(|&(l, _)| l == line)
    }

    /// Inserts `line` at the owner's allocation position, returning the
    /// evicted line (the lowest-priority entry) if the set was full.
    fn insert(&mut self, core: CoreId, line: Line) -> Option<(Line, CoreId)> {
        let s = self.set_index(line);
        let set = &mut self.sets[s];
        let evicted = if set.len() == self.ways {
            Some(set.remove(0))
        } else {
            None
        };
        let pos = self.alloc[core].min(set.len());
        set.insert(pos, (line, core));
        evicted
    }

    fn invalidate(&mut self, line: Line) -> bool {
        let s = self.set_index(line);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            set.remove(pos);
            true
        } else {
            false
        }
    }

    fn repartition(&mut self) {
        self.alloc = lookahead_partition(&self.umons, self.ways);
        for u in &mut self.umons {
            u.decay();
        }
    }
}

/// Private L1s plus PIPP-managed fully shared L2 and L3 (the Fig. 17
/// "PIPP" configuration).
#[derive(Debug, Clone)]
pub struct PippSystem {
    n_cores: usize,
    l1: Vec<Slice>,
    l1_params: CacheParams,
    l2: PippCache,
    l3: PippCache,
    latency: LatencyParams,
    rng: Xoshiro256pp,
    stamp: u64,
    /// Per-core miss counts at the L3 (for reporting).
    pub l3_misses_by_core: Vec<u64>,
    /// Snapshot of `l3_misses_by_core` at the last
    /// [`begin_miss_window`](Self::begin_miss_window).
    window_start: Vec<u64>,
}

impl PippSystem {
    /// Canonical grouping description for report rows: both levels are
    /// fully shared under PIPP, with no topology to describe.
    pub const GROUPING_LABEL: &'static str = "PIPP shared";

    /// Builds a PIPP system with `n_cores` cores, aggregating the per-slice
    /// geometries into one shared cache per level (16 × 256 KB 8-way
    /// slices → one 4 MB 128-way shared L2, etc.), which is the paper's
    /// "(16:1:1) with PIPP at each level".
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` exceeds [`MAX_CORES`]: the L1 slices store
    /// line owners as 2-byte core ids.
    pub fn new(
        n_cores: usize,
        l1: CacheParams,
        l2_slice: CacheParams,
        l3_slice: CacheParams,
        latency: LatencyParams,
    ) -> Self {
        assert!(
            n_cores <= MAX_CORES,
            "{n_cores} cores exceed MAX_CORES ({MAX_CORES})"
        );
        let latency = latency.paper_static();
        Self {
            n_cores,
            l1: (0..n_cores).map(|_| Slice::new(l1)).collect(),
            l1_params: l1,
            l2: PippCache::new(l2_slice.sets(), l2_slice.ways() * n_cores, n_cores),
            l3: PippCache::new(l3_slice.sets(), l3_slice.ways() * n_cores, n_cores),
            latency,
            rng: Xoshiro256pp::seed_from_u64(0x9e3779b97f4a7c15),
            stamp: 0,
            l3_misses_by_core: vec![0; n_cores],
            window_start: vec![0; n_cores],
        }
    }

    /// Starts a per-epoch miss measurement window: subsequent
    /// [`window_misses`](Self::window_misses) calls report L3 misses
    /// accumulated since this point.
    pub fn begin_miss_window(&mut self) {
        self.window_start.clone_from(&self.l3_misses_by_core);
    }

    /// Per-core L3 misses since the last
    /// [`begin_miss_window`](Self::begin_miss_window) (or construction).
    pub fn window_misses(&self) -> Vec<u64> {
        self.l3_misses_by_core
            .iter()
            .zip(self.window_start.iter())
            .map(|(a, b)| a - b)
            .collect()
    }

    /// Re-solves both levels' way partitions from their utility
    /// monitors; called once per epoch boundary.
    pub fn repartition(&mut self) {
        self.l2.repartition();
        self.l3.repartition();
    }

    /// Current L2 way allocations (one per core).
    pub fn l2_allocations(&self) -> &[usize] {
        &self.l2.alloc
    }

    fn fill_l1(&mut self, core: CoreId, line: Line) {
        self.stamp += 1;
        let set = self.l1_params.set_index(line);
        self.l1[core].fill(
            set,
            Entry {
                line,
                owner: core,
                stamp: self.stamp,
                dirty: false,
            },
        );
    }
}

impl MemorySubsystem for PippSystem {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        _is_write: bool,
        sink: &mut dyn CacheEventSink,
    ) -> u64 {
        let mut cycles = self.latency.l1;
        self.stamp += 1;
        if let Some(way) = self.l1[core].probe(line) {
            let set = self.l1_params.set_index(line);
            self.l1[core].touch(set, way, self.stamp);
            return cycles;
        }
        if self.l2.access(core, line, &mut self.rng) {
            cycles += self.latency.l2_local;
            self.fill_l1(core, line);
            return cycles;
        }
        cycles += self.latency.l2_local;
        if self.l3.access(core, line, &mut self.rng) {
            cycles += self.latency.l3_local;
        } else {
            cycles += self.latency.l3_local + self.latency.memory;
            self.l3_misses_by_core[core] += 1;
            if let Some((victim, owner)) = self.l3.insert(core, line) {
                // Inclusion: purge the victim everywhere.
                self.l2.invalidate(victim);
                for c in 0..self.n_cores {
                    self.l1[c].invalidate(victim);
                }
                sink.evicted(Level::L3, 0, owner, victim);
            }
            sink.inserted(Level::L3, 0, core, line);
        }
        if let Some((victim, _owner)) = self.l2.insert(core, line) {
            for c in 0..self.n_cores {
                self.l1[c].invalidate(victim);
            }
        }
        self.fill_l1(core, line);
        cycles
    }

    fn n_cores(&self) -> usize {
        self.n_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_cache::NoopSink;

    fn params() -> (CacheParams, CacheParams, CacheParams) {
        (
            CacheParams::from_capacity(4 * 1024, 4, 64).unwrap(),
            CacheParams::from_capacity(32 * 1024, 8, 64).unwrap(),
            CacheParams::from_capacity(128 * 1024, 16, 64).unwrap(),
        )
    }

    fn system(n: usize) -> PippSystem {
        let (l1, l2, l3) = params();
        PippSystem::new(n, l1, l2, l3, LatencyParams::paper())
    }

    #[test]
    fn umon_counts_hits_by_stack_depth() {
        let mut u = UtilityMonitor::new(1, 4);
        u.access(0, 10); // miss
        u.access(0, 10); // hit at MRU (pos 0)
        u.access(0, 20); // miss
        u.access(0, 10); // hit at pos 1
        assert_eq!(u.misses, 2);
        assert_eq!(u.hits[0], 1);
        assert_eq!(u.hits[1], 1);
        assert_eq!(u.utility(1), 1);
        assert_eq!(u.utility(2), 2);
    }

    #[test]
    fn umon_capacity_bounded() {
        let mut u = UtilityMonitor::new(1, 2);
        for t in 0..10u64 {
            u.access(0, t);
        }
        assert_eq!(u.tags[0].len(), 2);
        // Cyclic re-access of 3 lines through a 2-way ATD: all misses.
        for _ in 0..3 {
            for t in 0..3u64 {
                u.access(0, 100 + t);
            }
        }
        assert_eq!(u.hits.iter().sum::<u64>(), 0);
    }

    #[test]
    fn lookahead_gives_ways_to_the_utile() {
        let mut hungry = UtilityMonitor::new(1, 8);
        let mut modest = UtilityMonitor::new(1, 8);
        // hungry: hits spread deep (benefits from many ways).
        for (i, h) in hungry.hits.iter_mut().enumerate() {
            *h = 100 - i as u64;
        }
        // modest: only MRU hits.
        modest.hits[0] = 50;
        let alloc = lookahead_partition(&[hungry, modest], 8);
        assert_eq!(alloc.iter().sum::<usize>(), 8);
        assert!(alloc[0] > alloc[1], "alloc {alloc:?}");
        assert!(alloc[1] >= 1);
    }

    #[test]
    fn lookahead_balanced_when_equal() {
        let mk = || {
            let mut u = UtilityMonitor::new(1, 8);
            u.hits = vec![10, 8, 6, 4, 2, 1, 1, 1];
            u
        };
        let alloc = lookahead_partition(&[mk(), mk()], 8);
        assert_eq!(alloc, vec![4, 4]);
    }

    #[test]
    fn insertion_position_follows_allocation() {
        let mut c = PippCache::new(4, 4, 2);
        c.alloc = vec![3, 1];
        // Fill set 0 from core 1 (low allocation).
        for i in 0..4u64 {
            c.insert(1, i * 4);
        }
        // Core 0's new line lands above core 1's recent inserts.
        c.insert(0, 16 * 4);
        let set = &c.sets[0];
        let pos0 = set.iter().position(|&(_, o)| o == 0).unwrap();
        assert!(pos0 >= 2, "core 0 should insert high, set: {set:?}");
        // Victim is always the lowest-priority entry.
        let evicted = c.insert(1, 20 * 4).unwrap();
        assert_eq!(evicted.1, 1, "low-priority core's line evicted first");
    }

    #[test]
    fn full_path_latencies() {
        let mut sys = system(2);
        let mut sink = NoopSink;
        let lat = sys.access(0, 0x8000, false, &mut sink);
        let p = LatencyParams::paper();
        assert_eq!(lat, p.l1 + p.l2_local + p.l3_local + p.memory);
        // L1 hit on re-access.
        assert_eq!(sys.access(0, 0x8000, false, &mut sink), p.l1);
        // Other core misses L1 but hits shared L2.
        let lat2 = sys.access(1, 0x8000, false, &mut sink);
        assert_eq!(lat2, p.l1 + p.l2_local);
    }

    #[test]
    fn repartition_reacts_to_utility() {
        let mut sys = system(2);
        let mut sink = NoopSink;
        // Core 0 cycles a modest working set with deep reuse (8 lines per
        // set, within the 16-way shared stack); core 1 streams.
        for round in 0..40 {
            for i in 0..32u64 {
                sys.access(0, i * 16, false, &mut sink); // sampled sets (set 0 family)
            }
            for i in 0..512u64 {
                sys.access(1, 1_000_000 + round * 512 + i, false, &mut sink);
            }
        }
        sys.repartition();
        let alloc = sys.l2_allocations();
        assert!(
            alloc[0] > alloc[1],
            "reuse-heavy core should win ways: {alloc:?}"
        );
    }

    #[test]
    fn inclusion_held_on_l3_eviction() {
        let mut sys = system(2);
        let mut sink = NoopSink;
        // Thrash one L3 set heavily (set 0 of 128-set... l3 sets = 128).
        let sets = 128u64;
        let assoc = sys.l3.ways as u64;
        for i in 0..(assoc * 3) {
            sys.access(0, i * sets, false, &mut sink);
        }
        // Every line still in L2 must be in L3 (spot-check recent ones).
        for i in (assoc * 2)..(assoc * 3) {
            let line = i * sets;
            if sys.l2.contains(line) {
                assert!(sys.l3.contains(line), "L2 line {line:#x} missing from L3");
            }
        }
    }
}
