//! # morph-cache
//!
//! Set-associative cache slices, merged slice groups, and an inclusive
//! multi-level (L1/L2/L3) cache hierarchy — the memory-system substrate of
//! the MorphCache reproduction (Srikantaiah et al., HPCA 2011).
//!
//! The paper's basic design point is a CMP where every core owns a private
//! L1 plus one *slice* of L2 and one slice of L3. Slices at a level can be
//! dynamically *merged* into groups: merging two `n`-way slices of size `S`
//! yields one `2n`-way shared slice of size `2S` (paper §2.2, footnote 1).
//! This crate models exactly that: a [`Slice`] is one physical array of
//! sets (a private L1), a [`CacheLevel`] holds every slice of a groupable
//! level, a [`Grouping`] partitions those slices into shared groups, and
//! group lookups treat set *i* as the concatenation of set *i*'s ways
//! across all member slices.
//!
//! The [`Hierarchy`] type composes private L1s with two groupable levels and
//! enforces the paper's **inclusion** property (L1 ⊆ L2 ⊆ L3) via
//! back-invalidation, including the "lazy invalidation" of duplicated lines
//! that can appear after a merge (§2.2).
//!
//! # Example
//!
//! ```
//! use morph_cache::{Hierarchy, HierarchyParams, Grouping, NoopSink};
//!
//! // A small 4-core hierarchy with private (ungrouped) L2/L3 slices.
//! let params = HierarchyParams::scaled_down(4);
//! let mut h = Hierarchy::new(params);
//! let mut sink = NoopSink;
//! let lat = h.access(0, 0x4_0000, false, &mut sink); // cold miss -> memory
//! assert!(lat >= h.params().latency.memory);
//! // Merge L3 slices 0 and 1 into a shared group.
//! let mut g = Grouping::private(4);
//! g.merge_pair(0, 1).unwrap();
//! h.set_l3_grouping(g).unwrap();
//! ```

pub mod events;
pub mod group;
pub mod hierarchy;
pub mod index;
pub mod mshr;
pub mod params;
pub mod slice;
pub mod stats;

pub use events::{CacheEventSink, Level, NoopSink};
pub use group::Grouping;
pub use hierarchy::{Hierarchy, HierarchyParams, MemorySubsystem};
pub use index::{CopySet, LineIndex};
pub use mshr::MshrFile;
pub use params::{CacheParams, LatencyParams};
pub use slice::{CacheLevel, Slice};
pub use stats::{LevelStats, SliceStats};

/// Hints the CPU to start fetching the cache line at `p`.
///
/// [`CacheLevel::prefetch_lookup`] issues it for the member tag rows (or
/// the residency-index probe chain) an L2 group lookup will read, at
/// access entry, so the host-cache misses overlap the L1 probe. Purely a
/// hint: results are bit-identical with or without it, and on
/// non-x86_64 targets it compiles to nothing.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects visible to the program; any
    // address, valid or not, is permitted by the ISA.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A full byte address.
pub type Addr = u64;
/// A cache-line address (`Addr >> block_bits`).
pub type Line = u64;
/// Identifies a core in the CMP (0-based).
pub type CoreId = usize;
/// Identifies a physical cache slice within one level (0-based).
pub type SliceId = usize;

/// Largest core (and per-level slice) count a cache structure accepts.
/// The per-way owner arrays store core ids in 2 bytes, so every core id
/// must be below `u16::MAX + 1`; constructors enforce this bound once.
pub const MAX_CORES: usize = 1 << 16;

/// Errors produced when configuring cache structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter that must be a nonzero power of two was not.
    NotPowerOfTwo(&'static str, usize),
    /// A grouping did not form a partition of the slice set.
    InvalidGrouping(String),
    /// A grouping referenced a slice outside the level.
    SliceOutOfRange(SliceId, usize),
    /// Hierarchy-level inconsistency (e.g. L2 grouping does not refine L3).
    InclusionViolation(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo(what, v) => {
                write!(f, "{what} must be a nonzero power of two, got {v}")
            }
            ConfigError::InvalidGrouping(why) => write!(f, "invalid grouping: {why}"),
            ConfigError::SliceOutOfRange(s, n) => {
                write!(f, "slice {s} out of range for level with {n} slices")
            }
            ConfigError::InclusionViolation(why) => write!(f, "inclusion violation: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}
