//! Engine configuration: what the paper's evaluation varies. The
//! decision constants the paper fixes live in [`crate::engine`].

/// Which slice groups the engine may form (§5.5 extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingMode {
    /// Default MorphCache: buddy-aligned power-of-two groups of
    /// neighboring slices (private / dual / quad / oct / all-shared).
    #[default]
    BuddyPowerOfTwo,
    /// §5.5: arbitrary *sizes* of neighboring groups (e.g. 3 slices),
    /// realized over the physical superset segment with logical group IDs.
    ArbitraryContiguous,
    /// §5.5: additionally allow non-neighboring slices to group. Distant
    /// members pay the span-proportional latency penalty that makes this
    /// mode a net loss on 16 cores (−7.1% in the paper).
    NonNeighbor,
}

/// What a MorphCache run varies: the grouping mode (§5.5), the QoS
/// throttle (§5.3) and the slice geometry (§5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MorphConfig {
    /// Allowed group shapes (§5.5).
    pub grouping: GroupingMode,
    /// Enable the §5.3 QoS MSAT throttling.
    pub qos: bool,
    /// Lines per L2 slice: the denominator of L2 utilization estimates.
    pub l2_slice_lines: usize,
    /// Lines per L3 slice: the denominator of L3 utilization estimates.
    pub l3_slice_lines: usize,
}

impl MorphConfig {
    /// The paper's MorphCache for the given slice geometries: buddy
    /// power-of-two groups, QoS off. The engine sizes its decision
    /// vectors one-to-one with the larger slice's lines, so utilization
    /// estimates resolve the full 0..1 range.
    pub fn calibrated(l2_slice_lines: usize, l3_slice_lines: usize) -> Self {
        Self {
            grouping: GroupingMode::BuddyPowerOfTwo,
            qos: false,
            l2_slice_lines,
            l3_slice_lines,
        }
    }
}
