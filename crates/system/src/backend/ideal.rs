//! The §5.1 ideal offline scheme: every epoch, trial-run each candidate
//! static topology from a snapshot and keep the best.

use super::{apply_groups, apply_merged_latencies};
use crate::config::SystemConfig;
use crate::policy::{BoundaryReport, EpochCtx, MemoryBackend};
use morph_cache::{
    CacheEventSink, CoreId, Hierarchy, LatencyParams, Line, MemorySubsystem, NoopSink,
};
use morphcache::{MorphError, SymmetricTopology};

/// An LRU hierarchy re-chosen each epoch from static candidates.
///
/// At [`begin_epoch`](MemoryBackend::begin_epoch) every candidate is
/// trial-run on clones of the hierarchy, cores and streams — the real
/// state is untouched — and the winner (by throughput) is committed for
/// the measured run. Trial runs see no faults and feed no probes: the
/// oracle observes the clean machine.
pub struct IdealBackend {
    hier: Box<Hierarchy>,
    candidates: Vec<SymmetricTopology>,
    /// Static-latency baseline the merged-latency extras are added onto.
    base_latency: LatencyParams,
    /// The topology committed for the current epoch's measured run.
    chosen: Option<String>,
}

impl IdealBackend {
    /// Builds the hierarchy (paper static latencies) under the first
    /// candidate.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Topology`] if `candidates` is empty or any
    /// candidate does not cover the configured core count.
    pub fn new(cfg: &SystemConfig, candidates: Vec<SymmetricTopology>) -> Result<Self, MorphError> {
        let n = cfg.n_cores();
        if candidates.is_empty() {
            return Err(MorphError::Topology(
                "ideal offline scheme needs at least one candidate".into(),
            ));
        }
        for t in &candidates {
            if t.x * t.y * t.z != n {
                return Err(MorphError::Topology(format!(
                    "candidate {t} does not cover {n} cores"
                )));
            }
        }
        let mut hp = cfg.hierarchy;
        hp.latency = hp.latency.paper_static();
        let mut hier = Hierarchy::new(hp);
        apply_groups(
            &mut hier,
            &candidates[0].l2_groups(),
            &candidates[0].l3_groups(),
        )
        .map_err(MorphError::Grouping)?;
        apply_merged_latencies(
            &mut hier,
            hp.latency,
            &candidates[0].l2_groups(),
            &candidates[0].l3_groups(),
        );
        Ok(Self {
            hier: Box::new(hier),
            candidates,
            base_latency: hp.latency,
            chosen: None,
        })
    }
}

impl MemorySubsystem for IdealBackend {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        probe: &mut dyn CacheEventSink,
    ) -> u64 {
        self.hier.access(core, line, is_write, probe)
    }

    fn n_cores(&self) -> usize {
        self.hier.params().n_cores
    }
}

impl MemoryBackend for IdealBackend {
    fn begin_epoch(&mut self, ctx: &mut EpochCtx<'_>) -> Result<(), MorphError> {
        // Trial-run every candidate on clones, keep the best.
        let mut best: Option<(f64, SymmetricTopology)> = None;
        for t in &self.candidates {
            let mut h = (*self.hier).clone();
            if apply_groups(&mut h, &t.l2_groups(), &t.l3_groups()).is_err() {
                continue;
            }
            // The oracle judges each candidate with the latencies it
            // would actually pay, NUCA hops included.
            apply_merged_latencies(&mut h, self.base_latency, &t.l2_groups(), &t.l3_groups());
            let mut cs = ctx.cores.clone();
            let mut ss = ctx.streams.clone();
            let mut noop = NoopSink;
            ctx.scheduler
                .run_epoch(&mut cs, &mut ss, &mut h, &mut noop, ctx.cycles);
            let tp: f64 = cs.iter_mut().map(|c| c.take_progress().ipc()).sum();
            if best.map(|(b, _)| tp > b).unwrap_or(true) {
                best = Some((tp, *t));
            }
        }
        let (_, chosen) = best.ok_or_else(|| {
            MorphError::Topology("ideal offline: no candidate could be applied".into())
        })?;
        apply_groups(&mut self.hier, &chosen.l2_groups(), &chosen.l3_groups())
            .map_err(MorphError::Grouping)?;
        apply_merged_latencies(
            &mut self.hier,
            self.base_latency,
            &chosen.l2_groups(),
            &chosen.l3_groups(),
        );
        self.hier.reset_stats();
        self.chosen = Some(chosen.notation());
        Ok(())
    }

    fn epoch_boundary(
        &mut self,
        _ctx: &mut EpochCtx<'_>,
        _ipcs: &[f64],
        _misses: &[u64],
    ) -> Result<BoundaryReport, MorphError> {
        Ok(BoundaryReport {
            chosen_topology: self.chosen.clone(),
            ..BoundaryReport::default()
        })
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

    fn as_hierarchy(&self) -> Option<&Hierarchy> {
        Some(&self.hier)
    }
}
