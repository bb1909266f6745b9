//! [`MemoryBackend`] for DSR.
//!
//! Sited here for the same orphan-rule reason as `pipp.rs`: the trait
//! is local to this crate, and a `morph-baselines` → `morph-system`
//! dependency would be a cycle.

use crate::policy::{BoundaryReport, EpochCtx, MemoryBackend};
use morph_baselines::DsrSystem;
use morphcache::MorphError;

impl MemoryBackend for DsrSystem {
    fn begin_epoch(&mut self, _ctx: &mut EpochCtx<'_>) -> Result<(), MorphError> {
        self.begin_miss_window();
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
        self.window_misses()
    }

    fn grouping_labels(&self) -> (String, String) {
        (Self::GROUPING_LABEL.into(), Self::GROUPING_LABEL.into())
    }
}
