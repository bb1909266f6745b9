//! Topology / cache-management policies a run can use, and the
//! [`MemoryBackend`] trait every one of them runs through.

use crate::config::SystemConfig;
use crate::faults::FaultInjector;
use morph_cache::{Hierarchy, MemorySubsystem};
use morph_cpu::{Core, QuantumScheduler};
use morph_trace::stream::SyntheticStream;
use morphcache::{
    GroupingMode, MorphConfig, MorphEngine, MorphError, ReconfigOutcome, SymmetricTopology,
};

/// Context the epoch loop hands a backend at the edges of an epoch. The
/// library's backends read only the epoch index and the fault injector
/// whose decisions apply this epoch; none reads `cycles`, `scheduler`,
/// `cores` or `streams`. Those stay because the repository benchmark
/// (`src/bin/morph-bench/`) builds this struct as a literal, so removing
/// them is a change to the benchmark.
pub struct EpochCtx<'a> {
    /// 0-based index of the epoch being run (warm-up epochs included).
    pub epoch: u64,
    /// Cycles the measured portion of the epoch runs for.
    pub cycles: u64,
    /// The scheduler driving the cores.
    pub scheduler: QuantumScheduler,
    /// The cores about to run (or just finished running) this epoch.
    pub cores: &'a mut Vec<Core>,
    /// The per-core access streams feeding the cores.
    pub streams: &'a mut Vec<SyntheticStream>,
    /// The fault injector active for this run.
    pub faults: &'a mut dyn FaultInjector,
}

/// What a backend did at an epoch boundary, folded into the epoch's
/// [`EpochResult`](crate::sim::EpochResult). The default is the
/// "nothing reconfigured" report of the static schemes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundaryReport {
    /// Reconfigurations (merges + splits) performed at the boundary.
    pub reconfig_events: usize,
    /// How many of those left an asymmetric configuration (§2.4).
    pub asymmetric_events: usize,
    /// Whether the configuration after the boundary is asymmetric.
    pub asymmetric: bool,
    /// The topology a backend chose for the epoch; every library backend
    /// leaves it `None`. It stays because the repository benchmark builds
    /// and hashes it, so removing it is a change to the benchmark.
    pub chosen_topology: Option<String>,
}

/// A memory system pluggable into the epoch-driven simulator.
///
/// All four policies — static topologies, MorphCache, PIPP and DSR —
/// implement this trait (see [`crate::backend`]), so the epoch loop,
/// fault injection and event probes treat them uniformly, and new
/// policies are plug-ins rather than new enum arms. The trait is
/// object-safe and `Send`, which is what lets
/// [`crate::experiment::run_cells`] fan independent matrix cells out
/// across threads.
///
/// Every backend is a [`MemorySubsystem`]: its `access` serves each
/// memory access of an epoch, and the epoch loop hands the backend to
/// the scheduler as one. Cache events must reach the sink `access` is
/// given; a backend may feed them to a private sink of its own first.
///
/// The epoch protocol, driven by the loop in `epoch.rs`:
///
/// 1. [`begin_epoch`](Self::begin_epoch) — reset per-epoch statistics
///    and read fault decisions;
/// 2. [`MemorySubsystem::access`] — every memory access of the epoch;
/// 3. [`misses_by_core`](Self::misses_by_core) — the epoch's per-core
///    miss counts, read after the run;
/// 4. [`epoch_boundary`](Self::epoch_boundary) — digest the epoch's
///    IPCs/misses and reconfigure, returning a [`BoundaryReport`];
/// 5. [`grouping_labels`](Self::grouping_labels) — the canonical
///    post-boundary grouping descriptions for the epoch's result row.
pub trait MemoryBackend: MemorySubsystem + Send {
    /// Prepares the backend for an epoch: statistics windows open here,
    /// and this epoch's fault decisions are read from `ctx.faults`.
    ///
    /// # Errors
    ///
    /// Returns a [`MorphError`] if the backend cannot set up the epoch.
    fn begin_epoch(&mut self, ctx: &mut EpochCtx<'_>) -> Result<(), MorphError>;

    /// Digests the finished epoch (per-core `ipcs` and `misses`) and
    /// performs any end-of-epoch reconfiguration or repartitioning.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Grouping`] / [`MorphError::Topology`] if a
    /// reconfiguration produces a topology that cannot be repaired.
    fn epoch_boundary(
        &mut self,
        ctx: &mut EpochCtx<'_>,
        ipcs: &[f64],
        misses: &[u64],
    ) -> Result<BoundaryReport, MorphError>;

    /// Per-core miss counts accumulated since
    /// [`begin_epoch`](Self::begin_epoch).
    fn misses_by_core(&self) -> Vec<u64>;

    /// Canonical descriptions of the (L2, L3) groupings, read after the
    /// epoch boundary for the result row.
    fn grouping_labels(&self) -> (String, String);

    /// The most recent reconfiguration outcome, for stall diagnostics.
    fn reconfig_outcome(&self) -> Option<&ReconfigOutcome> {
        None
    }

    /// The LRU hierarchy, if this backend is built on one.
    fn as_hierarchy(&self) -> Option<&Hierarchy> {
        None
    }

    /// The MorphCache engine, if this backend runs one.
    fn engine(&self) -> Option<&MorphEngine> {
        None
    }
}

/// Which cache-management scheme manages the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// A fixed `(x:y:z)` topology with the paper's static-latency
    /// assumption (10-cycle L2 / 30-cycle L3 hits regardless of sharing).
    Static(SymmetricTopology),
    /// The adaptive MorphCache engine; remote (merged) hits pay the
    /// segmented-bus overhead (25/45 cycles).
    Morph(MorphConfig),
    /// PIPP \[28\] on fully shared L2 and L3.
    Pipp,
    /// DSR \[18\] on private L2 and L3 slices.
    Dsr,
}

impl Policy {
    /// The baseline `(16:1:1)` shared-everything topology.
    pub fn baseline(n_cores: usize) -> Self {
        Policy::Static(
            // morph-lint: allow(no-panic-in-lib, reason = "(n:1:1) always covers n cores, so construction cannot fail")
            SymmetricTopology::new(n_cores, 1, 1, n_cores).expect("valid baseline topology"),
        )
    }

    /// A static topology parsed from `"x:y:z"`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed or non-covering topology string.
    pub fn static_topology(s: &str, n_cores: usize) -> Self {
        // morph-lint: allow(no-panic-in-lib, reason = "convenience constructor with a documented # Panics contract for literal topology strings; fallible callers use SymmetricTopology::parse directly")
        Policy::Static(SymmetricTopology::parse(s, n_cores).expect("valid topology string"))
    }

    /// MorphCache with paper defaults, decision vectors calibrated to the
    /// configured slice geometry (see `MorphConfig::calibrated`).
    pub fn morph(cfg: &SystemConfig) -> Self {
        Policy::Morph(MorphConfig::calibrated(
            cfg.l2_slice_lines(),
            cfg.l3_slice_lines(),
        ))
    }

    /// MorphCache with QoS throttling enabled (§5.3).
    pub fn morph_qos(cfg: &SystemConfig) -> Self {
        Policy::Morph(MorphConfig {
            qos: true,
            ..MorphConfig::calibrated(cfg.l2_slice_lines(), cfg.l3_slice_lines())
        })
    }

    /// MorphCache with a relaxed grouping mode (§5.5).
    pub fn morph_with_grouping(cfg: &SystemConfig, grouping: GroupingMode) -> Self {
        Policy::Morph(MorphConfig {
            grouping,
            ..MorphConfig::calibrated(cfg.l2_slice_lines(), cfg.l3_slice_lines())
        })
    }

    /// Short display name for report rows.
    pub fn name(&self) -> String {
        match self {
            Policy::Static(t) => t.notation(),
            Policy::Morph(c) if c.qos => "MorphCache+QoS".into(),
            Policy::Morph(c) => match c.grouping {
                GroupingMode::BuddyPowerOfTwo => "MorphCache".into(),
                GroupingMode::ArbitraryContiguous => "MorphCache(arb)".into(),
                GroupingMode::NonNeighbor => "MorphCache(nn)".into(),
            },
            Policy::Pipp => "PIPP".into(),
            Policy::Dsr => "DSR".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        let cfg = SystemConfig::quick_test(4);
        assert_eq!(Policy::baseline(4).name(), "(4:1:1)");
        assert_eq!(Policy::morph(&cfg).name(), "MorphCache");
        assert_eq!(Policy::morph_qos(&cfg).name(), "MorphCache+QoS");
        assert_eq!(Policy::Pipp.name(), "PIPP");
        assert_eq!(Policy::Dsr.name(), "DSR");
        assert_eq!(
            Policy::morph_with_grouping(&cfg, GroupingMode::NonNeighbor).name(),
            "MorphCache(nn)"
        );
    }

    #[test]
    fn morph_config_is_calibrated() {
        let cfg = SystemConfig::quick_test(4);
        if let Policy::Morph(mc) = Policy::morph(&cfg) {
            assert_eq!(mc.l2_slice_lines, cfg.l2_slice_lines());
            assert_eq!(mc.acfv_bits, cfg.l3_slice_lines());
        } else {
            panic!("expected Morph policy");
        }
    }
}
