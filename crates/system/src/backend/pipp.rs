//! [`MemoryBackend`] for PIPP.
//!
//! The impl lives here rather than in `morph-baselines` because the
//! trait is local to this crate and `morph-system` already depends on
//! `morph-baselines` (the reverse edge would be a cycle); the orphan
//! rule allows a local trait on the foreign `PippSystem` type.

use crate::policy::{BoundaryReport, EpochCtx, MemoryBackend};
use morph_baselines::PippSystem;
use morphcache::MorphError;

impl MemoryBackend for PippSystem {
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
        self.repartition();
        Ok(BoundaryReport::default())
    }

    fn misses_by_core(&self) -> Vec<u64> {
        self.window_misses()
    }

    fn grouping_labels(&self) -> (String, String) {
        (Self::GROUPING_LABEL.into(), Self::GROUPING_LABEL.into())
    }
}
