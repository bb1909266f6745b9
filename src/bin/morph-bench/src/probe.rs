//! The host-speed probe that `accesses_per_ref_sec` is scaled by.
//!
//! On a shared host the simulator's raw speed swings by up to 2× over
//! minutes, with no change to the program: co-tenants contend for the
//! last-level cache the simulator's tag arrays live in. The probe is a
//! dependent pointer chase over an 8 MiB random cycle — LLC-sized, like
//! the simulator's hot data — so it slows down with the same contention.
//! (A chase over 64 MiB runs from DRAM and barely notices it.) The probe
//! shares no code with the simulator, so a simulator change cannot move
//! it.

use morph_metrics::timing::Stopwatch;
use morphcache::Xoshiro256pp;
use std::hint::black_box;

/// Probe entries: 2 Mi `u32`s, 8 MiB.
const ENTRIES: usize = 1 << 21;
/// Loads per probe: about 0.1 s on a quiet 2 GHz Xeon.
const LOADS: usize = 1 << 20;

/// The probe rate `accesses_per_ref_sec` scales to, in loads/s.
const REFERENCE_LOADS_PER_SEC: f64 = 1.0e7;

/// Scales a run's speed to a host whose probe runs at
/// [`REFERENCE_LOADS_PER_SEC`], given the probe rate around the run.
///
/// The probe does nothing but stall on the contended cache; the
/// simulator spends part of its time elsewhere, and on a 2-vCPU Xeon VM
/// its speed moved with the probe's to the power 0.45-0.7, depending on
/// the workload. Scaling by the square root of the probe's slowdown
/// therefore removes most of the host's drift without overcorrecting.
pub fn scale(accesses_per_sec: f64, probe_loads_per_sec: f64) -> f64 {
    accesses_per_sec * (REFERENCE_LOADS_PER_SEC / probe_loads_per_sec).sqrt()
}

/// An 8 MiB random cyclic permutation: `next[i]` is the entry after `i`.
pub struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    /// Builds the cycle with Sattolo's algorithm (a fixed seed, so every
    /// measurement chases the same cycle).
    pub fn new() -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        for i in (1..ENTRIES).rev() {
            next.swap(i, rng.range_usize(0, i));
        }
        Self { next }
    }

    /// Dependent loads per second right now.
    pub fn loads_per_sec(&self) -> f64 {
        let sw = Stopwatch::start();
        let mut at = 0u32;
        for _ in 0..LOADS {
            at = self.next[at as usize];
        }
        black_box(at);
        LOADS as f64 / sw.elapsed_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_cycle_visits_every_entry() {
        let p = HostProbe::new();
        let (mut at, mut steps) = (p.next[0], 1);
        while at != 0 {
            at = p.next[at as usize];
            steps += 1;
        }
        assert_eq!(steps, ENTRIES);
        assert!(p.loads_per_sec() > 0.0);
    }
}
