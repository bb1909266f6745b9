//! The static-topology backend: an LRU hierarchy pinned to one
//! `(x:y:z)` grouping for the whole run.

use super::apply_merged_latencies;
use crate::config::SystemConfig;
use crate::policy::{BoundaryReport, EpochCtx, MemoryBackend};
use morph_cache::{CacheEventSink, CoreId, Hierarchy, Line, MemorySubsystem};
use morphcache::{MorphError, SymmetricTopology};

/// An LRU hierarchy with a fixed topology and the paper's static-latency
/// assumption (10/30-cycle L2/L3 hits regardless of sharing).
pub struct StaticBackend {
    hier: Box<Hierarchy>,
}

impl StaticBackend {
    /// Builds the hierarchy and installs topology `t`.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Topology`] if `t` does not cover the
    /// configured core count, and [`MorphError::Grouping`] if its
    /// groupings cannot be installed.
    pub fn new(cfg: &SystemConfig, t: SymmetricTopology) -> Result<Self, MorphError> {
        let n = cfg.n_cores();
        // The fields are public, so a struct literal can bypass
        // `SymmetricTopology::new`'s check; the product may overflow.
        let product = t.x.checked_mul(t.y).and_then(|xy| xy.checked_mul(t.z));
        if product != Some(n) {
            return Err(MorphError::Topology(format!(
                "topology {t} does not cover {n} cores"
            )));
        }
        let mut hp = cfg.hierarchy;
        hp.latency = hp.latency.paper_static();
        let mut hier = Hierarchy::new(hp);
        let l3g = t.l3_groups();
        let l2g = hier.regroup(&t.l2_groups(), &l3g)?;
        // Past 16 tiles even a "static latency" topology pays the NUCA
        // hop distance for groups wider than one die; at 16 cores the
        // extras are zero and the §4 flat-latency assumption is exact.
        apply_merged_latencies(&mut hier, hp.latency, &l2g, &l3g);
        Ok(Self {
            hier: Box::new(hier),
        })
    }
}

impl MemorySubsystem for StaticBackend {
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

impl MemoryBackend for StaticBackend {
    fn begin_epoch(&mut self, _ctx: &mut EpochCtx<'_>) -> Result<(), MorphError> {
        self.hier.reset_stats();
        Ok(())
    }

    fn epoch_boundary(
        &mut self,
        _ctx: &mut EpochCtx<'_>,
        _ipcs: &[f64],
        _misses: &[u64],
    ) -> Result<BoundaryReport, MorphError> {
        Ok(BoundaryReport::default())
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

    /// The L3 groups. L2 groups refine them and the hierarchy is
    /// inclusive, so no line, LRU decision or cache event crosses an L3
    /// group, and a static grouping never changes. The level's per-set
    /// recency clocks are shared by every slice, but a static grouping
    /// only ever compares the stamps of one group, whose order the
    /// classes' run order leaves as it is.
    fn independent_core_classes(&self) -> Vec<Vec<usize>> {
        self.hier
            .l3()
            .grouping()
            .iter()
            .map(<[usize]>::to_vec)
            .collect()
    }

    fn as_hierarchy(&self) -> Option<&Hierarchy> {
        Some(&self.hier)
    }
}
