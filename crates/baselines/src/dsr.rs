//! Dynamic Spill-Receive (DSR) \[18\], extended to both private levels as in
//! Fig. 17.
//!
//! Every core keeps its private L2 and L3 slices, but each slice *duels*
//! two policies on dedicated sample sets:
//!
//! * **always-spill** sample sets: capacity victims are spilled into a
//!   receiver slice's matching set;
//! * **never-spill** sample sets: victims are dropped normally.
//!
//! A per-slice PSEL counter accumulates which sample population misses
//! less; follower sets adopt the winner, making the slice a *spiller* or a
//! *receiver*. On a local miss, all peer slices are snooped (a spilled
//! line may live anywhere) at the remote-hit latency. As the paper notes,
//! DSR "is topology agnostic and does not extend well to multiple
//! levels" — each level duels independently with no awareness of the
//! other.

use morph_cache::slice::Entry;
use morph_cache::{
    CacheEventSink, CacheParams, CoreId, LatencyParams, Line, MemorySubsystem, Slice, MAX_CORES,
};

/// The learned role of a private slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillRole {
    /// Evicted lines are spilled to a receiver.
    Spiller,
    /// Accepts spills from spillers.
    Receiver,
}

/// Sample-set period: set 0 mod 32 duels always-spill, set 1 mod 32 duels
/// never-spill, the rest follow the PSEL winner.
const DUEL_PERIOD: usize = 32;
/// PSEL saturation bound.
const PSEL_MAX: i32 = 1024;

/// One DSR-managed level: `n` private slices with spill-receive.
#[derive(Debug, Clone)]
struct DsrLevel {
    params: CacheParams,
    slices: Vec<Slice>,
    psel: Vec<i32>,
    rr: usize,
    stamp: u64,
    /// Lines spilled into peers.
    spills: u64,
    /// Hits served from a spilled (remote) copy.
    remote_hits: u64,
}

impl DsrLevel {
    fn new(n: usize, params: CacheParams) -> Self {
        Self {
            params,
            slices: (0..n).map(|_| Slice::new(params)).collect(),
            psel: vec![0; n],
            rr: 0,
            stamp: 0,
            spills: 0,
            remote_hits: 0,
        }
    }

    /// The follower-set role of slice `s`: positive PSEL means the
    /// always-spill samples missed less, i.e. spilling helps this slice.
    fn role(&self, s: usize) -> SpillRole {
        if self.psel[s] > 0 {
            SpillRole::Spiller
        } else {
            SpillRole::Receiver
        }
    }

    /// Whether an eviction from `(slice, set)` should spill.
    fn should_spill(&self, slice: usize, set: usize) -> bool {
        match set % DUEL_PERIOD {
            0 => true,
            1 => false,
            _ => self.role(slice) == SpillRole::Spiller,
        }
    }

    /// Looks up `line` for `core`: local first, then snoop every peer.
    /// Returns `(hit, remote)`.
    fn lookup(&mut self, core: CoreId, line: Line) -> (bool, bool) {
        self.stamp += 1;
        let set = self.params.set_index(line);
        if let Some(way) = self.slices[core].probe(line) {
            self.slices[core].touch(set, way, self.stamp);
            return (true, false);
        }
        for s in 0..self.slices.len() {
            if s == core {
                continue;
            }
            if let Some(way) = self.slices[s].probe(line) {
                self.slices[s].touch(set, way, self.stamp);
                self.slices[s].stats.remote_hits += 1;
                self.remote_hits += 1;
                return (true, true);
            }
        }
        // Miss: update the duel for the home slice's sample sets.
        match set % DUEL_PERIOD {
            0 => self.psel[core] = (self.psel[core] - 1).max(-PSEL_MAX),
            1 => self.psel[core] = (self.psel[core] + 1).min(PSEL_MAX),
            _ => {}
        }
        (false, false)
    }

    /// Inserts `line` into `core`'s slice; the displaced victim is spilled
    /// to a receiver (once — spilled lines are never re-spilled) when the
    /// policy says so. Returns lines fully evicted from the level.
    fn insert(&mut self, core: CoreId, line: Line) -> Vec<(Line, CoreId)> {
        self.stamp += 1;
        let set = self.params.set_index(line);
        let displaced = self.slices[core].fill(
            set,
            Entry {
                line,
                owner: core,
                stamp: self.stamp,
                dirty: false,
            },
        );
        let mut gone = Vec::new();
        if let Some(victim) = displaced {
            if self.should_spill(core, set) {
                if let Some(receiver) = self.pick_receiver(core) {
                    self.spills += 1;
                    if let Some(dropped) = self.slices[receiver].fill(set, victim) {
                        gone.push((dropped.line, dropped.owner));
                    }
                    return gone;
                }
            }
            gone.push((victim.line, victim.owner));
        }
        gone
    }

    /// Round-robin over the current receivers (excluding the spiller).
    fn pick_receiver(&mut self, spiller: usize) -> Option<usize> {
        let n = self.slices.len();
        for i in 0..n {
            let cand = (self.rr + i) % n;
            if cand != spiller && self.role(cand) == SpillRole::Receiver {
                self.rr = cand + 1;
                return Some(cand);
            }
        }
        None
    }

    fn invalidate_everywhere(&mut self, line: Line) {
        for s in &mut self.slices {
            s.invalidate(line);
        }
    }
}

/// Private L1s plus DSR-managed private L2 and L3 slices (the Fig. 17
/// "DSR" configuration).
#[derive(Debug, Clone)]
pub struct DsrSystem {
    n_cores: usize,
    l1: Vec<Slice>,
    l1_params: CacheParams,
    l2: DsrLevel,
    l3: DsrLevel,
    latency: LatencyParams,
    stamp: u64,
    /// Per-core L3 miss counts.
    pub l3_misses_by_core: Vec<u64>,
    /// Snapshot of `l3_misses_by_core` at the last
    /// [`begin_miss_window`](Self::begin_miss_window).
    window_start: Vec<u64>,
}

impl DsrSystem {
    /// Canonical grouping description for report rows: every slice stays
    /// private under DSR (spilling is not a topology change).
    pub const GROUPING_LABEL: &'static str = "DSR private";

    /// Builds a DSR system with per-core private slices at L2 and L3.
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
        Self {
            n_cores,
            l1: (0..n_cores).map(|_| Slice::new(l1)).collect(),
            l1_params: l1,
            l2: DsrLevel::new(n_cores, l2_slice),
            l3: DsrLevel::new(n_cores, l3_slice),
            latency,
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

    /// The learned role of core `c`'s L2 slice.
    pub fn l2_role(&self, c: usize) -> SpillRole {
        self.l2.role(c)
    }

    /// Total spills performed at L2 so far.
    pub fn l2_spills(&self) -> u64 {
        self.l2.spills
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

impl MemorySubsystem for DsrSystem {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        _is_write: bool,
        _sink: &mut dyn CacheEventSink,
    ) -> u64 {
        let mut cycles = self.latency.l1;
        self.stamp += 1;
        if let Some(way) = self.l1[core].probe(line) {
            let set = self.l1_params.set_index(line);
            self.l1[core].touch(set, way, self.stamp);
            return cycles;
        }
        let (l2_hit, l2_remote) = self.l2.lookup(core, line);
        if l2_hit {
            cycles += if l2_remote {
                self.latency.l2_merged
            } else {
                self.latency.l2_local
            };
            self.fill_l1(core, line);
            return cycles;
        }
        cycles += self.latency.l2_local;
        let (l3_hit, l3_remote) = self.l3.lookup(core, line);
        if l3_hit {
            cycles += if l3_remote {
                self.latency.l3_merged
            } else {
                self.latency.l3_local
            };
        } else {
            cycles += self.latency.l3_local + self.latency.memory;
            self.l3_misses_by_core[core] += 1;
            for (victim, _owner) in self.l3.insert(core, line) {
                // Inclusion: a line gone from L3 must leave L2 and L1.
                self.l2.invalidate_everywhere(victim);
                for c in 0..self.n_cores {
                    self.l1[c].invalidate(victim);
                }
            }
        }
        for (victim, _owner) in self.l2.insert(core, line) {
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

    fn system(n: usize) -> DsrSystem {
        DsrSystem::new(
            n,
            CacheParams::from_capacity(4 * 1024, 4, 64).unwrap(),
            CacheParams::from_capacity(32 * 1024, 8, 64).unwrap(),
            CacheParams::from_capacity(128 * 1024, 16, 64).unwrap(),
            LatencyParams::paper(),
        )
    }

    #[test]
    fn local_hit_after_fill() {
        let mut sys = system(2);
        let mut sink = NoopSink;
        let p = LatencyParams::paper();
        assert_eq!(
            sys.access(0, 0x42, false, &mut sink),
            p.l1 + p.l2_local + p.l3_local + p.memory
        );
        assert_eq!(sys.access(0, 0x42, false, &mut sink), p.l1);
    }

    #[test]
    fn sample_sets_always_and_never_spill() {
        let mut lvl = DsrLevel::new(2, CacheParams::new(64, 2, 64).unwrap());
        // Set 0: always-spill sample. Fill slice 0's set 0 beyond capacity.
        for i in 0..3u64 {
            lvl.insert(0, i * 64);
        }
        assert!(lvl.spills >= 1, "always-spill sample must spill");
        // The spilled line is findable via snoop.
        let (hit, remote) = lvl.lookup(0, 0);
        assert!(hit && remote, "victim 0 should be in the receiver");
        // Set 1: never-spill sample.
        let before = lvl.spills;
        for i in 0..3u64 {
            lvl.insert(0, 1 + i * 64);
        }
        assert_eq!(lvl.spills, before, "never-spill sample must not spill");
    }

    #[test]
    fn psel_learns_from_sample_misses() {
        let mut lvl = DsrLevel::new(2, CacheParams::new(64, 2, 64).unwrap());
        // Misses in the always-spill sample (set 0) push PSEL down
        // (spilling did not help) ... and in never-spill (set 1) up.
        for i in 0..10u64 {
            lvl.lookup(0, i * 64); // set 0 misses
        }
        assert!(lvl.psel[0] < 0);
        assert_eq!(lvl.role(0), SpillRole::Receiver);
        for i in 0..30u64 {
            lvl.lookup(0, 1 + i * 64); // set 1 misses
        }
        assert!(lvl.psel[0] > 0);
        assert_eq!(lvl.role(0), SpillRole::Spiller);
    }

    #[test]
    fn spiller_capacity_extends_into_receiver() {
        let mut sys = system(2);
        let mut sink = NoopSink;
        // Make core 0's L2 a spiller by missing in its never-spill sets.
        for i in 0..200u64 {
            sys.access(0, 1 + i * 64, false, &mut sink);
        }
        // Core 1 idle -> receiver by default (psel 0).
        assert_eq!(sys.l2_role(1), SpillRole::Receiver);
        // Thrash a follower set from core 0; spills land in core 1.
        let spills_before = sys.l2_spills();
        for i in 0..100u64 {
            sys.access(0, 5 + i * 64, false, &mut sink);
        }
        assert!(
            sys.l2_spills() > spills_before,
            "follower sets should spill"
        );
    }

    #[test]
    fn remote_hits_cost_merged_latency() {
        let mut lvl = DsrLevel::new(2, CacheParams::new(64, 2, 64).unwrap());
        for i in 0..3u64 {
            lvl.insert(0, i * 64); // set 0 always-spill
        }
        let mut sys = system(2);
        // Direct check at the system level: plant a line in core 1's L2 and
        // access from core 0 -> snoop hit at merged latency.
        sys.l2.insert(1, 0x77 << 6 >> 6); // line 0x77? keep simple below
        let mut sink = NoopSink;
        sys.l3.insert(1, 0x77);
        sys.l2.insert(1, 0x77);
        let p = LatencyParams::paper();
        let lat = sys.access(0, 0x77, false, &mut sink);
        assert_eq!(lat, p.l1 + p.l2_merged);
        let _ = lvl;
    }

    #[test]
    fn inclusion_scrubbed_on_l3_eviction() {
        let mut sys = system(2);
        let mut sink = NoopSink;
        let l3_sets = 128u64;
        // Overflow one L3 set from core 0 with spilling possible to core 1:
        // effective capacity 2 slices x 16 ways = 32; push 40 lines.
        for i in 0..40u64 {
            sys.access(0, 2 + i * l3_sets, false, &mut sink);
        }
        // Any line still in some L2 slice must exist in some L3 slice.
        for i in 0..40u64 {
            let line = 2 + i * l3_sets;
            let in_l2 = (0..2).any(|s| sys.l2.slices[s].probe(line).is_some());
            let in_l3 = (0..2).any(|s| sys.l3.slices[s].probe(line).is_some());
            if in_l2 {
                assert!(in_l3, "line {line:#x} in L2 but not L3");
            }
        }
    }
}
