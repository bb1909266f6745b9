//! The MorphCache backend: the LRU hierarchy managed by the adaptive
//! engine, with ACFV sampling on the access path and merge/split
//! reconfiguration at every epoch boundary.

use super::apply_merged_latencies;
use crate::config::SystemConfig;
use crate::epoch::{force_l3_merge, force_l3_split};
use crate::policy::{BoundaryReport, EpochCtx, MemoryBackend};
use crate::probes::EngineSink;
use morph_cache::{CacheEventSink, CoreId, Hierarchy, LatencyParams, Line, MemorySubsystem};
use morphcache::{MorphConfig, MorphEngine, MorphError, ReconfigOutcome};

/// The adaptive MorphCache backend.
///
/// Footnote 2 of the paper: overlapping arbitration with the previous
/// transfer reduces the merged-hit interconnect overhead from 15 to 10
/// core cycles; MorphCache runs with the pipelined segmented bus.
pub struct MorphBackend {
    hier: Box<Hierarchy>,
    engine: Box<MorphEngine>,
    /// The pipelined-bus latency baseline the §5.5 span penalty scales.
    base_latency: LatencyParams,
    /// This epoch's ACFV corruption mask (0 = identity, the clean path).
    corrupt_mask: u64,
    last_outcome: Option<ReconfigOutcome>,
}

impl MorphBackend {
    /// Builds the hierarchy (pipelined-bus latencies) and the engine,
    /// whose utilization estimates take `cfg`'s slice line counts.
    ///
    /// # Errors
    ///
    /// Returns a [`MorphError`] if the engine configuration is invalid.
    pub fn new(
        cfg: &SystemConfig,
        app_ids: Vec<usize>,
        mc: MorphConfig,
    ) -> Result<Self, MorphError> {
        let mut hp = cfg.hierarchy;
        hp.latency.l2_merged = hp.latency.l2_local + 10;
        hp.latency.l3_merged = hp.latency.l3_local + 10;
        let engine = MorphEngine::new(
            cfg.n_cores(),
            app_ids,
            cfg.l2_slice_lines(),
            cfg.l3_slice_lines(),
            mc,
        )?;
        Ok(Self {
            hier: Box::new(Hierarchy::new(hp)),
            engine: Box::new(engine),
            base_latency: hp.latency,
            corrupt_mask: 0,
            last_outcome: None,
        })
    }
}

impl MemorySubsystem for MorphBackend {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        probe: &mut dyn CacheEventSink,
    ) -> u64 {
        let mut sink = EngineSink::new(&mut self.engine, self.corrupt_mask, probe);
        self.hier.access(core, line, is_write, &mut sink)
    }

    fn n_cores(&self) -> usize {
        self.hier.params().n_cores
    }
}

impl MemoryBackend for MorphBackend {
    fn begin_epoch(&mut self, ctx: &mut EpochCtx<'_>) -> Result<(), MorphError> {
        self.hier.reset_stats();
        self.corrupt_mask = ctx.faults.corrupt_mask().unwrap_or(0);
        Ok(())
    }

    fn epoch_boundary(
        &mut self,
        ctx: &mut EpochCtx<'_>,
        ipcs: &[f64],
        misses: &[u64],
    ) -> Result<BoundaryReport, MorphError> {
        self.engine.note_epoch_misses(misses);
        self.engine.note_epoch_perf(ipcs);
        let mut outcome = self.engine.reconfigure(ctx.epoch);
        if ctx.faults.force_merge() {
            force_l3_merge(&mut outcome);
        }
        if ctx.faults.force_split() {
            force_l3_split(&mut outcome);
        }
        outcome.l2_groups = self.hier.regroup(&outcome.l2_groups, &outcome.l3_groups)?;
        apply_merged_latencies(
            &mut self.hier,
            self.base_latency,
            &outcome.l2_groups,
            &outcome.l3_groups,
        );
        let report = BoundaryReport {
            reconfig_events: outcome.events.len(),
            asymmetric_events: outcome.events.iter().filter(|e| e.asymmetric_after).count(),
            asymmetric: outcome.asymmetric,
            chosen_topology: None,
        };
        self.last_outcome = Some(outcome);
        Ok(report)
    }

    fn misses_by_core(&self) -> Vec<u64> {
        self.hier.misses_by_core()
    }

    fn grouping_labels(&self) -> (String, String) {
        (
            self.hier.l2().grouping().describe(),
            self.hier.l3().grouping().describe(),
        )
    }

    fn reconfig_outcome(&self) -> Option<&ReconfigOutcome> {
        self.last_outcome.as_ref()
    }

    fn as_hierarchy(&self) -> Option<&Hierarchy> {
        Some(&self.hier)
    }

    fn engine(&self) -> Option<&MorphEngine> {
        Some(&self.engine)
    }
}
