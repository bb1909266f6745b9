//! Engine configuration.

use crate::hash::HashKind;
use crate::msat::Msat;

/// How conflicting merge and split desires are arbitrated (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// "In case of such a split/merge conflict, MorphCache, by default,
    /// favors a merge": merges are considered first; groups that merge do
    /// not split this epoch.
    #[default]
    MergeAggressive,
    /// The §5 alternative: splits are considered first.
    SplitAggressive,
}

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

/// All tunables of the MorphCache engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MorphConfig {
    /// ACFV length in bits (Fig. 5: 128 bits give 0.96 correlation with
    /// the oracle).
    ///
    /// The decision engine converts the raw ones-fraction into a footprint
    /// estimate with the linear-counting correction `n̂ = -bits·ln(1-f)`
    /// before comparing against the MSAT, because hash collisions make the
    /// raw fraction saturate: a 128-bit vector cannot *count* the 4096
    /// lines of a 256 KB slice even though it *correlates* with the
    /// footprint (which is all Fig. 5 claims). For topology decisions the
    /// paper's accurate option — "a one-to-one mapping of the cache lines
    /// to the bits in ACFV at the cost of additional hardware" (§2.1) —
    /// is selected by [`MorphConfig::calibrated`].
    pub acfv_bits: usize,
    /// ACFV hash function.
    pub hash: HashKind,
    /// Merge/split aggressiveness thresholds.
    pub msat: Msat,
    /// Minimum overlap fraction (common ones / smaller popcount) for the
    /// shared-data merge condition (§2.2 condition (ii)).
    pub overlap_threshold: f64,
    /// Upper bound on the *combined* utilization at which a capacity
    /// merge still yields the "moderately utilized merged cache" of §2.2:
    /// merging is pointless (or harmful, given the merged-hit latency)
    /// when the pooled group would still be saturated.
    pub merge_fit_threshold: f64,
    /// A group whose epoch evictions exceed this multiple of its line
    /// capacity *while its ACFV shows almost no reuse* is a streaming
    /// polluter: it is excluded from capacity merges, since pooling with
    /// it donates capacity to dead lines.
    pub churn_pollution_threshold: f64,
    /// Conflict arbitration policy (§2.4).
    pub policy: ConflictPolicy,
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
    /// The paper's default configuration: 128-bit XOR ACFVs, MSAT (60,30),
    /// merge-aggressive, buddy power-of-two groups, QoS off.
    pub fn paper() -> Self {
        Self {
            acfv_bits: 128,
            hash: HashKind::Xor,
            msat: Msat::paper(),
            // Corrected overlap (chance-collision-adjusted) of truly
            // disjoint footprints is ~0; thrashing halves the residency of
            // shared lines in each slice, quartering the measurable
            // overlap, so the trigger sits well below the naive 0.3.
            overlap_threshold: 0.15,
            merge_fit_threshold: 0.75,
            churn_pollution_threshold: 1.0,
            policy: ConflictPolicy::MergeAggressive,
            grouping: GroupingMode::BuddyPowerOfTwo,
            qos: false,
            l2_slice_lines: 4096,
            l3_slice_lines: 16384,
        }
    }

    /// Paper defaults with one-to-one ("oracle-sized") decision vectors
    /// for the given slice geometries: `acfv_bits` = the larger slice's
    /// line count, so utilization estimates resolve the full 0..1 range.
    ///
    /// # Panics
    ///
    /// Panics if either line count is not a nonzero power of two.
    pub fn calibrated(l2_slice_lines: usize, l3_slice_lines: usize) -> Self {
        assert!(
            l2_slice_lines.is_power_of_two() && l3_slice_lines.is_power_of_two(),
            "slice line counts must be powers of two"
        );
        Self {
            acfv_bits: l2_slice_lines.max(l3_slice_lines),
            hash: HashKind::Mix,
            // With the reuse-based calibrated estimator, measured
            // utilizations land on the Table 4 ACF scale, whose published
            // low/high class boundary sits at ≈ 0.5 — the (60,30) MSAT of
            // the paper applies to raw |ACFV| bit fractions, a different
            // scale.
            msat: Msat::new(0.50, 0.30),
            l2_slice_lines,
            l3_slice_lines,
            ..Self::paper()
        }
    }
}

impl Default for MorphConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = MorphConfig::paper();
        assert_eq!(c.acfv_bits, 128);
        assert_eq!(c.hash, HashKind::Xor);
        assert_eq!(c.policy, ConflictPolicy::MergeAggressive);
        assert_eq!(c.grouping, GroupingMode::BuddyPowerOfTwo);
        assert!(!c.qos);
    }
}
