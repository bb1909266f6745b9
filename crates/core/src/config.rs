//! Engine configuration: what the paper's evaluation varies. The
//! decision constants the paper fixes live in [`crate::engine`].

/// Which slice groups the engine may form (§5.5 extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingMode {
    /// Default MorphCache: buddy-aligned power-of-two groups of
    /// neighboring slices (private / dual / quad / oct / all-shared).
    BuddyPowerOfTwo,
    /// §5.5: arbitrary *sizes* of neighboring groups (e.g. 3 slices),
    /// realized over the physical superset segment with logical group IDs.
    ArbitraryContiguous,
    /// §5.5: additionally allow non-neighboring slices to group. Distant
    /// members pay the span-proportional latency penalty that makes this
    /// mode a net loss on 16 cores (−7.1% in the paper).
    NonNeighbor,
}

/// What a MorphCache run varies besides the cache geometry: the grouping
/// mode (§5.5) and the QoS throttle (§5.3). The slice geometry (§5.4) is
/// the hierarchy's, handed to [`MorphEngine::new`] by whoever builds
/// both, so the engine cannot disagree with the caches it manages.
///
/// [`MorphEngine::new`]: crate::MorphEngine::new
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorphConfig {
    /// Allowed group shapes (§5.5).
    pub grouping: GroupingMode,
    /// Enable the §5.3 QoS MSAT throttling.
    pub qos: bool,
}

impl MorphConfig {
    /// The paper's MorphCache: buddy power-of-two groups, QoS off.
    pub fn paper() -> Self {
        Self {
            grouping: GroupingMode::BuddyPowerOfTwo,
            qos: false,
        }
    }
}
