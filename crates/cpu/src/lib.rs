//! # morph-cpu
//!
//! Trace-driven core timing model and quantum-interleaved multicore
//! scheduler — the substitute for the paper's Simics-simulated 4-issue
//! superscalar cores (Table 3).
//!
//! Each [`Core`] consumes an address stream and charges cycles for:
//!
//! * non-memory instructions, issued `issue_width` per cycle — the stream's
//!   benchmark profile fixes the instructions-per-memory-access ratio;
//! * memory accesses, whose latency comes from the attached
//!   [`MemorySubsystem`]; stall cycles beyond
//!   the L1 latency are divided by a constant memory-level-parallelism
//!   factor (no MSHR file is modeled to bound it).
//!
//! The [`QuantumScheduler`] advances all cores round-robin in small cycle
//! quanta so that concurrent cores interleave their traffic into shared
//! cache groups, approximating the concurrency of the full-system
//! simulation without a global event queue. Classes of cores that share
//! no cache state can run through an epoch one after another instead.
//!
//! # Example
//!
//! ```
//! use morph_cache::{Hierarchy, HierarchyParams, NoopSink};
//! use morph_cpu::{Core, CoreParams, QuantumScheduler};
//! use morph_trace::{spec, stream::{StreamConfig, SyntheticStream}};
//!
//! let mut mem = Hierarchy::new(HierarchyParams::scaled_down(2));
//! let mut cores = vec![Core::new(0, CoreParams::paper()), Core::new(1, CoreParams::paper())];
//! let mut streams: Vec<SyntheticStream> = (0..2)
//!     .map(|c| {
//!         let cfg = StreamConfig::single_threaded(c, 42).with_slice_lines(512, 2048);
//!         SyntheticStream::new(spec::profile("gcc").unwrap(), cfg)
//!     })
//!     .collect();
//! let mut sink = NoopSink;
//! let sched = QuantumScheduler::new(1000);
//! sched.run_epoch(&mut cores, &mut streams, &mut mem, &mut sink, 10_000);
//! assert!(cores[0].instructions() > 0);
//! ```

use morph_cache::{CacheEventSink, CoreId, MemorySubsystem};
use morph_trace::stream::AccessStream;

/// Microarchitectural parameters of the core timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreParams {
    /// Instructions issued per cycle when not stalled (Table 3: 4).
    pub issue_width: f64,
    /// L1 hit latency in cycles; stalls beyond this are subject to MLP
    /// discounting.
    pub l1_latency: f64,
    /// Memory-level-parallelism factor: miss stall cycles are divided by
    /// this constant, modeling overlapped misses.
    pub mlp: f64,
}

impl CoreParams {
    /// The paper's configuration: 4-way issue, 3-cycle L1, and a modest
    /// MLP factor of 1.3.
    pub fn paper() -> Self {
        Self {
            issue_width: 4.0,
            l1_latency: 3.0,
            mlp: 1.3,
        }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-epoch snapshot of a core's progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreProgress {
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Cycles elapsed in the window.
    pub cycles: f64,
    /// Memory accesses issued in the window.
    pub accesses: u64,
}

impl CoreProgress {
    /// Instructions per cycle over the window (0 for an empty window).
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions as f64 / self.cycles
        } else {
            0.0
        }
    }
}

/// One trace-driven core.
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    params: CoreParams,
    cycles: f64,
    instructions: u64,
    accesses: u64,
    // Fractional instruction accumulator (instructions per access is
    // generally not an integer).
    insn_frac: f64,
    mark_cycles: f64,
    mark_instructions: u64,
    mark_accesses: u64,
}

impl Core {
    /// Creates core `id` with the given parameters.
    pub fn new(id: CoreId, params: CoreParams) -> Self {
        Self {
            id,
            params,
            cycles: 0.0,
            instructions: 0,
            accesses: 0,
            insn_frac: 0.0,
            mark_cycles: 0.0,
            mark_instructions: 0,
            mark_accesses: 0,
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Total cycles simulated.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Total instructions retired.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total memory accesses issued.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Runs the core until its local clock reaches `target_cycles`,
    /// pulling references from `stream` and timing them against `mem`.
    pub fn run_until(
        &mut self,
        target_cycles: f64,
        stream: &mut dyn AccessStream,
        mem: &mut dyn MemorySubsystem,
        sink: &mut dyn CacheEventSink,
    ) {
        let mem_ratio = stream.profile().mem_ratio;
        let insn_per_access = 1.0 / mem_ratio;
        let nonmem_cycles = (insn_per_access - 1.0) / self.params.issue_width;
        while self.cycles < target_cycles {
            let a = stream.next_access();
            self.accesses += 1;
            let lat = mem.access(self.id, a.line, a.is_write, sink) as f64;
            let stall = if lat > self.params.l1_latency {
                self.params.l1_latency + (lat - self.params.l1_latency) / self.params.mlp
            } else {
                lat
            };
            self.cycles += nonmem_cycles + stall;
            self.insn_frac += insn_per_access;
            // `insn_frac` is never negative, so truncation is `floor`
            // without its out-of-line library call.
            let whole = self.insn_frac as u64;
            self.instructions += whole;
            self.insn_frac -= whole as f64;
        }
    }

    /// Returns progress since the previous call (or since construction)
    /// and starts a new measurement window.
    pub fn take_progress(&mut self) -> CoreProgress {
        let p = CoreProgress {
            instructions: self.instructions - self.mark_instructions,
            cycles: self.cycles - self.mark_cycles,
            accesses: self.accesses - self.mark_accesses,
        };
        self.mark_instructions = self.instructions;
        self.mark_cycles = self.cycles;
        self.mark_accesses = self.accesses;
        p
    }
}

/// Round-robin quantum scheduler for a set of cores.
///
/// Cores advance `quantum` cycles at a time in turn, so their accesses
/// interleave in shared cache groups at a granularity far smaller than an
/// epoch. Smaller quanta interleave more finely at slightly higher
/// scheduling overhead.
///
/// Only cores that share cache state need to interleave. Given classes
/// of cores that share none with each other,
/// [`run_epoch_by_class`](Self::run_epoch_by_class) runs one class
/// through the epoch before the next, which keeps every result the same
/// while the host works on one class's cache state at a time.
#[derive(Debug, Clone, Copy)]
pub struct QuantumScheduler {
    quantum: f64,
}

impl QuantumScheduler {
    /// Creates a scheduler with the given quantum (in cycles).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not positive.
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        Self {
            quantum: quantum as f64,
        }
    }

    /// Runs every core for `epoch_cycles` additional cycles, interleaved in
    /// quanta. `streams[i]` feeds `cores[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` and `streams` lengths differ.
    pub fn run_epoch<S: AccessStream>(
        &self,
        cores: &mut [Core],
        streams: &mut [S],
        mem: &mut dyn MemorySubsystem,
        sink: &mut dyn CacheEventSink,
        epoch_cycles: u64,
    ) {
        let all = [(0..cores.len()).collect()];
        self.run_epoch_by_class(cores, streams, &all, mem, sink, epoch_cycles);
    }

    /// Runs every core for `epoch_cycles` additional cycles, one class of
    /// `classes` after another. `streams[i]` feeds `cores[i]`.
    ///
    /// The epoch's start, end and quantum boundaries are those of
    /// [`run_epoch`](Self::run_epoch), taken over all cores; each class
    /// walks its members through them in ascending core order. If no two
    /// classes share state in `mem`, every core, access and cache result
    /// is the same as under `run_epoch`; only the order in which `sink`
    /// sees the classes' events differs.
    ///
    /// # Panics
    ///
    /// Panics if `cores` and `streams` lengths differ, or if `classes`
    /// does not list every core exactly once, each class in ascending
    /// order; it then runs nothing.
    pub fn run_epoch_by_class<S: AccessStream>(
        &self,
        cores: &mut [Core],
        streams: &mut [S],
        classes: &[Vec<usize>],
        mem: &mut dyn MemorySubsystem,
        sink: &mut dyn CacheEventSink,
        epoch_cycles: u64,
    ) {
        assert_eq!(cores.len(), streams.len(), "one stream per core");
        assert!(
            partitions(classes, cores.len()),
            "classes {classes:?} do not partition {} cores in ascending order",
            cores.len()
        );
        if cores.is_empty() {
            return;
        }
        let start = cores.iter().map(|c| c.cycles).fold(f64::INFINITY, f64::min);
        let end = start + epoch_cycles as f64;
        for class in classes {
            let mut t = start;
            while t < end {
                t = (t + self.quantum).min(end);
                for &c in class {
                    cores[c].run_until(t, &mut streams[c], mem, sink);
                }
            }
        }
    }
}

/// True if `classes` lists each of `n` cores exactly once, every class in
/// ascending order.
fn partitions(classes: &[Vec<usize>], n: usize) -> bool {
    let mut seen = vec![false; n];
    let each_once = classes
        .iter()
        .flatten()
        .all(|&c| c < n && !std::mem::replace(&mut seen[c], true));
    each_once && seen.iter().all(|&s| s) && classes.iter().all(|c| c.is_sorted())
}

/// Closes the current measurement window on every core, returning one
/// progress snapshot per core in core order (the per-epoch progress
/// vector the epoch loop consumes).
pub fn take_epoch_progress(cores: &mut [Core]) -> Vec<CoreProgress> {
    cores.iter_mut().map(Core::take_progress).collect()
}

/// Per-core IPCs of a progress vector, in the same order.
pub fn epoch_ipcs(progress: &[CoreProgress]) -> Vec<f64> {
    progress.iter().map(CoreProgress::ipc).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_cache::{Hierarchy, HierarchyParams, NoopSink};
    use morph_trace::spec;
    use morph_trace::stream::{StreamConfig, SyntheticStream};

    fn stream(core: usize, name: &str) -> SyntheticStream {
        let cfg = StreamConfig::single_threaded(core, 99).with_slice_lines(512, 2048);
        SyntheticStream::new(spec::profile(name).unwrap(), cfg)
    }

    #[test]
    fn core_advances_and_retires() {
        let mut mem = Hierarchy::new(HierarchyParams::scaled_down(1));
        let mut core = Core::new(0, CoreParams::paper());
        let mut s = stream(0, "gcc");
        let mut sink = NoopSink;
        core.run_until(10_000.0, &mut s, &mut mem, &mut sink);
        assert!(core.cycles() >= 10_000.0);
        let p = core.take_progress();
        assert!(p.instructions > 0);
        let ipc = p.ipc();
        assert!(ipc > 0.0 && ipc <= 4.0, "IPC {ipc} out of range");
    }

    #[test]
    fn take_progress_windows_are_disjoint() {
        let mut mem = Hierarchy::new(HierarchyParams::scaled_down(1));
        let mut core = Core::new(0, CoreParams::paper());
        let mut s = stream(0, "mcf");
        let mut sink = NoopSink;
        core.run_until(5_000.0, &mut s, &mut mem, &mut sink);
        let p1 = core.take_progress();
        core.run_until(10_000.0, &mut s, &mut mem, &mut sink);
        let p2 = core.take_progress();
        assert!((p1.cycles + p2.cycles - core.cycles()).abs() < 1e-6);
        assert_eq!(p1.instructions + p2.instructions, core.instructions());
    }

    #[test]
    fn low_latency_memory_yields_higher_ipc() {
        // Same stream against a warmed cache beats a cold one.
        let mut sink = NoopSink;
        let mut mem = Hierarchy::new(HierarchyParams::scaled_down(1));
        let mut warm = stream(0, "calculix");
        let mut c0 = Core::new(0, CoreParams::paper());
        c0.run_until(50_000.0, &mut warm, &mut mem, &mut sink);
        c0.take_progress();
        c0.run_until(100_000.0, &mut warm, &mut mem, &mut sink);
        let warm_ipc = c0.take_progress().ipc();

        let mut cold_mem = Hierarchy::new(HierarchyParams::scaled_down(1));
        let mut cold = stream(0, "calculix");
        let mut c1 = Core::new(0, CoreParams::paper());
        c1.run_until(50_000.0, &mut cold, &mut cold_mem, &mut sink);
        let cold_ipc = c1.take_progress().ipc();
        assert!(
            warm_ipc > cold_ipc * 0.9,
            "warm {warm_ipc} should not be much worse than cold {cold_ipc}"
        );
    }

    #[test]
    fn scheduler_advances_all_cores_evenly() {
        let mut mem = Hierarchy::new(HierarchyParams::scaled_down(4));
        let mut cores: Vec<Core> = (0..4).map(|i| Core::new(i, CoreParams::paper())).collect();
        let mut streams: Vec<SyntheticStream> = (0..4).map(|i| stream(i, "gcc")).collect();
        let mut sink = NoopSink;
        QuantumScheduler::new(500).run_epoch(&mut cores, &mut streams, &mut mem, &mut sink, 20_000);
        for c in &cores {
            assert!(c.cycles() >= 20_000.0, "core {} at {}", c.id(), c.cycles());
            // No core races far ahead (quantum bound + one access).
            assert!(c.cycles() < 22_000.0, "core {} at {}", c.id(), c.cycles());
        }
    }

    /// Two L3 groups of two cores, L2 shared by cores 0 and 1 only: the
    /// groups share no cache state, so running them one after another
    /// (in either order) changes nothing, while splitting a group does.
    #[test]
    fn independent_classes_run_as_one_class_does() {
        const EPOCH: u64 = 200_000;
        let sched = QuantumScheduler::new(500);
        let run = |classes: Option<&[Vec<usize>]>| {
            let mut mem = Hierarchy::new(HierarchyParams::scaled_down(4));
            mem.regroup(&[vec![0, 1], vec![2], vec![3]], &[vec![0, 1], vec![2, 3]])
                .unwrap();
            let mut cores: Vec<Core> = (0..4).map(|i| Core::new(i, CoreParams::paper())).collect();
            let names = ["gcc", "mcf", "lbm", "gcc"];
            let mut streams: Vec<SyntheticStream> = (0..4).map(|i| stream(i, names[i])).collect();
            let mut progress = Vec::new();
            for _ in 0..2 {
                let (c, s, m) = (&mut cores, &mut streams, &mut mem);
                match classes {
                    Some(k) => sched.run_epoch_by_class(c, s, k, m, &mut NoopSink, EPOCH),
                    None => sched.run_epoch(c, s, m, &mut NoopSink, EPOCH),
                }
                progress.push(take_epoch_progress(&mut cores));
            }
            let stats = (
                mem.l1_stats.clone(),
                mem.l2().stats.clone(),
                mem.l3().stats.clone(),
                mem.memory_writebacks,
            );
            (progress, stats)
        };
        let one = run(None);
        assert_eq!(run(Some(&[vec![2, 3], vec![0, 1]])), one);
        assert_ne!(run(Some(&[vec![0], vec![1], vec![2, 3]])), one);
    }

    #[test]
    fn classes_must_partition_the_cores_in_ascending_order() {
        assert!(partitions(&[vec![2, 3], vec![0, 1]], 4));
        assert!(partitions(&[vec![]], 0));
        for bad in [
            vec![vec![0, 1], vec![2]],
            vec![vec![0, 1, 2], vec![2, 3]],
            vec![vec![0, 1, 2, 3, 4]],
            vec![vec![1, 0], vec![2, 3]],
        ] {
            assert!(!partitions(&bad, 4), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "do not partition 2 cores")]
    fn scheduler_rejects_classes_that_miss_a_core() {
        let mut mem = Hierarchy::new(HierarchyParams::scaled_down(2));
        let mut cores: Vec<Core> = (0..2).map(|i| Core::new(i, CoreParams::paper())).collect();
        let mut streams: Vec<SyntheticStream> = (0..2).map(|i| stream(i, "gcc")).collect();
        QuantumScheduler::new(500).run_epoch_by_class(
            &mut cores,
            &mut streams,
            &[vec![0]],
            &mut mem,
            &mut NoopSink,
            1_000,
        );
    }

    #[test]
    fn mlp_discounts_memory_stalls() {
        let fast = CoreParams {
            mlp: 4.0,
            ..CoreParams::paper()
        };
        let slow = CoreParams {
            mlp: 1.0,
            ..CoreParams::paper()
        };
        let run = |p: CoreParams| {
            let mut mem = Hierarchy::new(HierarchyParams::scaled_down(1));
            let mut core = Core::new(0, p);
            let mut s = stream(0, "lbm");
            let mut sink = NoopSink;
            core.run_until(100_000.0, &mut s, &mut mem, &mut sink);
            core.take_progress().ipc()
        };
        assert!(run(fast) > run(slow));
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        QuantumScheduler::new(0);
    }

    #[test]
    fn epoch_progress_helpers_cover_all_cores() {
        let mut mem = Hierarchy::new(HierarchyParams::scaled_down(2));
        let mut cores: Vec<Core> = (0..2).map(|i| Core::new(i, CoreParams::paper())).collect();
        let mut streams: Vec<SyntheticStream> = (0..2).map(|i| stream(i, "gcc")).collect();
        let mut sink = NoopSink;
        QuantumScheduler::new(500).run_epoch(&mut cores, &mut streams, &mut mem, &mut sink, 5_000);
        let progress = take_epoch_progress(&mut cores);
        assert_eq!(progress.len(), 2);
        let ipcs = epoch_ipcs(&progress);
        assert!(ipcs.iter().all(|&i| i > 0.0));
        // The window was consumed: a second take reports an empty window.
        assert_eq!(take_epoch_progress(&mut cores)[0].instructions, 0);
    }
}
