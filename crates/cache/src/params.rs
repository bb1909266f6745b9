//! Geometry and latency parameters for the cache hierarchy.
//!
//! Defaults follow Table 3 of the paper: private 32 KB 4-way L1 (3 cycles),
//! sixteen 256 KB 8-way L2 slices (10 cycles local / 25 merged), sixteen
//! 1 MB 16-way L3 slices (30 cycles local / 45 merged), 300-cycle memory.

use crate::ConfigError;
use morphcache::MorphError;

/// Geometry of one cache (or cache slice): `sets × ways × block_bytes`.
///
/// All three fields must be nonzero powers of two so that set indexing and
/// tag extraction are simple shifts and masks, and so that slices can be
/// merged by way-concatenation (all slices at a level share a set count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    sets: usize,
    ways: usize,
    block_bytes: usize,
}

impl CacheParams {
    /// Creates a geometry from an explicit set count, associativity and
    /// block size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotPowerOfTwo`] if any argument is zero or not
    /// a power of two.
    pub fn new(sets: usize, ways: usize, block_bytes: usize) -> Result<Self, ConfigError> {
        for (name, v) in [("sets", sets), ("ways", ways), ("block_bytes", block_bytes)] {
            if v == 0 || !v.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo(
                    match name {
                        "sets" => "sets",
                        "ways" => "ways",
                        _ => "block_bytes",
                    },
                    v,
                ));
            }
        }
        Ok(Self {
            sets,
            ways,
            block_bytes,
        })
    }

    /// Creates a geometry from a total capacity in bytes and associativity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotPowerOfTwo`] if the implied set count, the
    /// associativity or the block size is not a nonzero power of two.
    pub fn from_capacity(
        capacity_bytes: usize,
        ways: usize,
        block_bytes: usize,
    ) -> Result<Self, ConfigError> {
        if ways == 0 || block_bytes == 0 {
            return Err(ConfigError::NotPowerOfTwo("ways", ways.max(block_bytes)));
        }
        let sets = capacity_bytes / (ways * block_bytes);
        Self::new(sets, ways, block_bytes)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity (ways per set).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Cache block (line) size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.block_bytes
    }

    /// Total number of lines this cache can hold.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of bits consumed by the block offset.
    pub fn block_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// Converts a byte address to a line address.
    pub fn line_of_addr(&self, addr: u64) -> u64 {
        addr >> self.block_bits()
    }

    /// Set index for a line address.
    pub fn set_index(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Tag for a line address (the bits above the set index).
    pub fn tag(&self, line: u64) -> u64 {
        line >> self.sets.trailing_zeros()
    }

    /// Re-checks the power-of-two indexing invariants, reporting
    /// violations as workspace-level typed errors. `field` names the
    /// cache this geometry describes (e.g. `"l2_slice"`) and is carried
    /// into the error verbatim.
    ///
    /// Construction already enforces these invariants, so this only fails
    /// for values forged through transmutes or future field exposure; it
    /// exists so system-level configuration validation has a single typed
    /// error surface.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] naming `field` and the
    /// offending component.
    pub fn validate(&self, field: &'static str) -> Result<(), MorphError> {
        for (constraint, v) in [
            ("sets must be a nonzero power of two", self.sets),
            ("ways must be a nonzero power of two", self.ways),
            (
                "block_bytes must be a nonzero power of two",
                self.block_bytes,
            ),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(MorphError::InvalidConfig {
                    field,
                    value: v as u64,
                    constraint,
                });
            }
        }
        Ok(())
    }
}

/// Access latencies, in core cycles (Table 3 of the paper).
///
/// "Local" means the access hit in the slice adjacent to the requesting
/// core; "merged" means it was served by another slice of a merged group and
/// therefore paid the segmented-bus transaction overhead (15 core cycles at
/// a 5 GHz core / 1 GHz bus, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyParams {
    /// L1 hit latency.
    pub l1: u64,
    /// L2 hit latency in the requester's own slice.
    pub l2_local: u64,
    /// L2 hit latency in a merged (remote) slice of the requester's group.
    pub l2_merged: u64,
    /// L3 hit latency in the requester's own slice.
    pub l3_local: u64,
    /// L3 hit latency in a merged (remote) slice of the requester's group.
    pub l3_merged: u64,
    /// Off-chip memory access latency.
    pub memory: u64,
}

impl LatencyParams {
    /// The paper's Table 3 latencies.
    pub fn paper() -> Self {
        Self {
            l1: 3,
            l2_local: 10,
            l2_merged: 25,
            l3_local: 30,
            l3_merged: 45,
            memory: 300,
        }
    }

    /// The paper's static-topology assumption: fixed 10-cycle L2 and
    /// 30-cycle L3 regardless of sharing degree (§4).
    pub fn paper_static(&self) -> Self {
        Self {
            l2_merged: self.l2_local,
            l3_merged: self.l3_local,
            ..*self
        }
    }
}

impl Default for LatencyParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_slice_geometry() {
        let p = CacheParams::from_capacity(256 * 1024, 8, 64).unwrap();
        assert_eq!(p.sets(), 512);
        assert_eq!(p.ways(), 8);
        assert_eq!(p.capacity_bytes(), 256 * 1024);
        assert_eq!(p.lines(), 4096);
    }

    #[test]
    fn paper_l3_slice_geometry() {
        let p = CacheParams::from_capacity(1024 * 1024, 16, 64).unwrap();
        assert_eq!(p.sets(), 1024);
        assert_eq!(p.lines(), 16384);
    }

    #[test]
    fn paper_l1_geometry() {
        let p = CacheParams::from_capacity(32 * 1024, 4, 64).unwrap();
        assert_eq!(p.sets(), 128);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheParams::new(3, 4, 64).is_err());
        assert!(CacheParams::new(4, 0, 64).is_err());
        assert!(CacheParams::new(4, 4, 48).is_err());
    }

    #[test]
    fn line_and_set_mapping_round_trip() {
        let p = CacheParams::new(512, 8, 64).unwrap();
        let addr = 0xdead_beef_u64;
        let line = p.line_of_addr(addr);
        assert_eq!(line, addr >> 6);
        let set = p.set_index(line);
        assert!(set < 512);
        // tag || set reconstructs the line address.
        let rebuilt = (p.tag(line) << 9) | set as u64;
        assert_eq!(rebuilt, line);
        let mut rng = morphcache::Xoshiro256pp::seed_from_u64(0);
        for _ in 0..1024 {
            let line = p.line_of_addr(rng.next_u64());
            assert!(p.set_index(line) < 512);
            assert_eq!((p.tag(line) << 9) | p.set_index(line) as u64, line);
        }
    }

    #[test]
    fn validate_accepts_constructed_geometry() {
        let p = CacheParams::new(512, 8, 64).unwrap();
        assert!(p.validate("l2_slice").is_ok());
    }

    #[test]
    fn latency_defaults_match_table3() {
        let l = LatencyParams::default();
        assert_eq!((l.l1, l.l2_local, l.l2_merged), (3, 10, 25));
        assert_eq!((l.l3_local, l.l3_merged, l.memory), (30, 45, 300));
    }

    #[test]
    fn static_latencies_flatten_merged_costs() {
        let l = LatencyParams::paper().paper_static();
        assert_eq!(l.l2_merged, l.l2_local);
        assert_eq!(l.l3_merged, l.l3_local);
    }
}
