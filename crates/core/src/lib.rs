//! # morphcache
//!
//! The paper's primary contribution: a **reconfigurable adaptive
//! multi-level cache topology engine** (Srikantaiah et al., "MorphCache: A
//! Reconfigurable Adaptive Multi-level Cache Hierarchy", HPCA 2011).
//!
//! Starting from per-core L2 and L3 slices, MorphCache periodically merges
//! or splits neighboring slices at each level based on **Active Cache
//! Footprint** estimation:
//!
//! * [`acfv`] — Active Cache Footprint Vectors (Fig. 4): small per-core,
//!   per-slice bit vectors updated on insertions/evictions through a
//!   hardware [`hash`] function (XOR or modulo, Fig. 5), plus the exact
//!   oracle estimator used to validate them;
//! * [`msat`] — the Merge/Split Aggressiveness Threshold `(h, l)` and the
//!   QoS throttling of §5.3;
//! * [`topology`] — buddy-aligned slice topologies, the `(x:y:z)` notation
//!   of §1.2, and the relaxed grouping modes of §5.5;
//! * [`symmetry`] — the slice rotation/reflection symmetry group over
//!   buddy partitions and the canonical forms the symmetry-reduced
//!   lattice verification enumerates at 64+ slices;
//! * [`engine`] — the per-epoch decision engine implementing the merge
//!   rules of §2.2, the split rules of §2.3, the inclusion-safety coupling
//!   between levels, and the paper's default split/merge conflict
//!   arbitration of §2.4 (merges first), with the decision thresholds
//!   the paper fixes as constants;
//! * [`config`] — what a run varies, in one [`config::MorphConfig`]: the
//!   grouping mode and QoS throttling. The slice geometry is the managed
//!   hierarchy's, passed to [`MorphEngine::new`] beside it.
//!
//! This crate is deliberately free of cache-simulator dependencies: it
//! consumes abstract insertion/eviction/touch events and produces slice
//! groupings as plain `Vec<Vec<usize>>` partitions, which the
//! `morph-system` crate applies to the `morph-cache` hierarchy.
//!
//! # Example
//!
//! ```
//! use morphcache::{MorphConfig, MorphEngine, CacheLevelId};
//!
//! // 4 slices per level of the paper's geometry (4096 lines per L2
//! // slice, 16384 per L3 slice), one single-threaded app per core.
//! let mut engine = MorphEngine::new(4, vec![0, 1, 2, 3], 4096, 16384, MorphConfig::paper())
//!     .expect("valid engine config");
//! // Feed footprint events: core 0 reuses many lines, core 1 few.
//! for line in 0..3000u64 {
//!     engine.on_touched(CacheLevelId::L2, 0, 0, line);
//! }
//! engine.on_touched(CacheLevelId::L2, 1, 1, 1);
//! let outcome = engine.reconfigure(1);
//! // Groupings remain valid partitions of the four slices.
//! assert_eq!(outcome.l3_groups.iter().map(|g| g.len()).sum::<usize>(), 4);
//! ```

pub mod acfv;
pub mod config;
pub mod engine;
pub mod error;
pub mod hash;
pub mod msat;
pub mod rng;
pub mod symmetry;
pub mod topology;

pub use acfv::{Acfv, ExactFootprint};
pub use config::{GroupingMode, MorphConfig};
pub use engine::{MorphEngine, ReconfigEvent, ReconfigKind, ReconfigOutcome};
pub use error::{MorphError, StallDiagnostic};
pub use hash::HashKind;
pub use msat::{Msat, Utilization};
pub use rng::Xoshiro256pp;
pub use symmetry::SymmetryGroup;
pub use topology::SymmetricTopology;

/// Which groupable cache level an event or decision concerns.
///
/// (Defined here rather than reusing the simulator's `Level` so this crate
/// stays free of substrate dependencies.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevelId {
    /// The L2 slice level.
    L2,
    /// The L3 (last-level) slice level.
    L3,
}

impl std::fmt::Display for CacheLevelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLevelId::L2 => write!(f, "L2"),
            CacheLevelId::L3 => write!(f, "L3"),
        }
    }
}
