//! The epoch loop: drives a [`MemoryBackend`](crate::policy::MemoryBackend)
//! through the per-epoch protocol (begin → run → watchdog → boundary →
//! close), fast-forwards the epochs representative-interval sampling
//! skips, and holds the forward-progress watchdog and the forced
//! merge/split faults the MorphCache backend applies to an engine
//! outcome before `Hierarchy::regroup` installs (and, if need be,
//! repairs) it.
//!
//! Simulated and skipped epochs end in the same close step
//! ([`close_epoch`]), the only code that moves the streams and the epoch
//! index forward.

use crate::faults::{FaultInjector, FaultedMemory};
use crate::policy::EpochCtx;
use crate::sim::{EpochResult, SystemSim};
use crate::supervisor::CancelToken;
use morph_cache::{CacheEventSink, NoopSink};
use morph_cpu::{epoch_ipcs, take_epoch_progress, CoreProgress};
use morph_trace::stream::AccessStream;
use morphcache::{topology, MorphError, ReconfigOutcome, StallDiagnostic};

/// Runs one epoch of `sim`, duplicating all cache events into `probe`.
///
/// # Errors
///
/// Returns [`MorphError::Stalled`] if the forward-progress watchdog
/// detects a core below the per-epoch retirement floor, and any error
/// the backend's epoch hooks return.
pub(crate) fn run_epoch(
    sim: &mut SystemSim,
    probe: &mut dyn CacheEventSink,
) -> Result<EpochResult, MorphError> {
    // Cooperative cancellation: the token fires once the cell's
    // deadline passes or a graceful shutdown is requested; the run aborts
    // at the next epoch boundary rather than being killed mid-epoch, so
    // no shared state is ever left half-updated.
    if sim.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        return Err(MorphError::Cancelled { epoch: sim.epoch });
    }
    let epoch = sim.epoch;
    let cycles = sim.cfg.epoch_cycles;
    let n = sim.cfg.n_cores();
    let SystemSim {
        backend,
        cores,
        streams,
        faults,
        scheduler,
        ..
    } = sim;
    faults.begin_epoch(epoch, cycles, n);
    let mut ctx = EpochCtx {
        epoch,
        cycles,
        scheduler: *scheduler,
        cores,
        streams,
        faults: faults.as_mut(),
    };
    backend.begin_epoch(&mut ctx)?;
    let classes = backend.independent_core_classes();
    if ctx.faults.is_noop() {
        let mem = backend.as_mut();
        scheduler.run_epoch_by_class(ctx.cores, ctx.streams, &classes, mem, probe, cycles);
    } else {
        // The fault plan's state is per core, so classes stay independent.
        let mut mem = FaultedMemory::new(backend.as_mut(), &mut *ctx.faults);
        scheduler.run_epoch_by_class(ctx.cores, ctx.streams, &classes, &mut mem, probe, cycles);
    }
    let progress = take_epoch_progress(ctx.cores);
    check_forward_progress(
        epoch,
        cycles,
        &progress,
        &*ctx.faults,
        backend.reconfig_outcome(),
    )?;
    let ipcs = epoch_ipcs(&progress);
    let accesses_by_core: Vec<u64> = progress.iter().map(|p| p.accesses).collect();
    let misses = backend.misses_by_core();
    let report = backend.epoch_boundary(&mut ctx, &ipcs, &misses)?;
    let (l2_grouping, l3_grouping) = close_epoch(sim);
    Ok(EpochResult {
        epoch,
        ipcs,
        misses_by_core: misses,
        accesses: accesses_by_core.iter().sum(),
        accesses_by_core,
        reconfig_events: report.reconfig_events,
        asymmetric_events: report.asymmetric_events,
        asymmetric: report.asymmetric,
        l2_grouping,
        l3_grouping,
        chosen_topology: report.chosen_topology,
    })
}

/// Fast-forwards an epoch that sampling skips: every stream draws
/// `draws[core]` accesses, and the trailing `warmup_fraction` of each
/// core's draws is replayed through the backend as functional warm-up —
/// no core timing, no probes. Cores interleave draw-by-draw,
/// approximating the scheduler's fair interleaving at a fraction of its
/// cost. Returns the grouping labels, frozen across the skipped epoch.
pub(crate) fn fast_forward(
    sim: &mut SystemSim,
    draws: &[u64],
    warmup_fraction: f64,
) -> (String, String) {
    let warm_from: Vec<u64> = draws
        .iter()
        .map(|&k| k - (k as f64 * warmup_fraction) as u64)
        .collect();
    let max = draws.iter().copied().max().unwrap_or(0);
    let mut sink = NoopSink;
    for i in 0..max {
        for (core, s) in sim.streams.iter_mut().enumerate() {
            if i < draws[core] {
                let a = s.next_access();
                if i >= warm_from[core] {
                    sim.backend.access(core, a.line, a.is_write, &mut sink);
                }
            }
        }
    }
    close_epoch(sim)
}

/// Closes an epoch, simulated or skipped: reads the post-boundary
/// grouping labels, moves every stream to its next epoch's phase, and
/// advances the epoch index.
fn close_epoch(sim: &mut SystemSim) -> (String, String) {
    let labels = sim.backend.grouping_labels();
    for s in &mut sim.streams {
        s.advance_epoch();
    }
    sim.epoch += 1;
    labels
}

/// The forward-progress watchdog: every core must retire at least
/// `max(16, epoch_cycles / 10_000)` instructions per epoch. A healthy
/// core, even one bound by memory latency on every access, retires orders
/// of magnitude more; a core whose misses cannot complete (a pinned
/// core, a wedged arbiter) retires at most one access's worth.
pub(crate) fn check_forward_progress(
    epoch: u64,
    epoch_cycles: u64,
    progress: &[CoreProgress],
    faults: &dyn FaultInjector,
    last_reconfig: Option<&ReconfigOutcome>,
) -> Result<(), MorphError> {
    let floor = 16u64.max(epoch_cycles / 10_000);
    for (core, p) in progress.iter().enumerate() {
        if p.instructions < floor {
            return Err(MorphError::Stalled {
                epoch,
                core,
                diagnostic: Box::new(StallDiagnostic {
                    retired: p.instructions,
                    cycles: epoch_cycles,
                    mshr_outstanding: faults.mshr_outstanding(),
                    bus_pending: faults.bus_pending(),
                    last_reconfig: last_reconfig.cloned(),
                }),
            });
        }
    }
    Ok(())
}

/// Forces a merge of the first two L3 groups (fault injection). L3 only
/// gets coarser, so L2 still refines it.
pub(crate) fn force_l3_merge(outcome: &mut ReconfigOutcome) {
    if outcome.l3_groups.len() >= 2 {
        outcome.l3_groups = topology::merge(&outcome.l3_groups, 0, 1).0;
    }
}

/// Forces an L3-only split of the first non-singleton group in halves
/// (fault injection). Deliberately does NOT touch L2, so an L2 group
/// spanning the split violates refinement and exercises the repair path.
pub(crate) fn force_l3_split(outcome: &mut ReconfigOutcome) {
    let l3 = &outcome.l3_groups;
    if let Some((i, (a, b))) = l3
        .iter()
        .enumerate()
        .find_map(|(i, g)| Some((i, topology::halves(g)?)))
    {
        outcome.l3_groups = topology::split(l3, i, &a, &b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_cache::{Hierarchy, HierarchyParams};
    use morphcache::topology::{is_partition, refines};

    #[test]
    fn forced_merge_and_split_are_repaired_into_valid_topologies() {
        let mut outcome = ReconfigOutcome {
            l2_groups: vec![vec![0, 1], vec![2, 3]],
            l3_groups: vec![vec![0, 1], vec![2, 3]],
            events: Vec::new(),
            asymmetric: false,
        };
        force_l3_merge(&mut outcome);
        assert_eq!(outcome.l3_groups, vec![vec![0, 1, 2, 3]]);
        force_l3_split(&mut outcome);
        // The split broke nothing L2 refines, but must still be a
        // partition and installable.
        assert!(is_partition(&outcome.l3_groups, 4));
        let mut h = Hierarchy::new(HierarchyParams::scaled_down(4));
        let l2 = h.regroup(&outcome.l2_groups, &outcome.l3_groups).unwrap();
        assert!(refines(&l2, &outcome.l3_groups));
        // A split through an L2 group is repaired by the meet.
        outcome.l3_groups = vec![vec![0], vec![1, 2, 3]];
        let l2 = h.regroup(&outcome.l2_groups, &outcome.l3_groups).unwrap();
        assert_eq!(l2, vec![vec![0], vec![1], vec![2, 3]]);
        h.check_inclusion().unwrap();
    }
}
