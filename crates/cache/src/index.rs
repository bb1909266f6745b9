//! A level-wide residency index: line address → the member slices (and
//! ways) currently holding a copy.
//!
//! Merged groups concatenate set `i` across member slices, so the scan
//! formulation of a group lookup walks one tag row per member. In the
//! set-major layout those rows are one contiguous run of ways, which
//! the scan streams cheaply while the group is narrow; on very wide
//! groups (64 cores sharing a level: 512 or 1,024 ways per set) the run
//! outgrows that. The index answers the same question with a single
//! open-addressing probe: one hash walk returns every `(slice, way)`
//! copy of the line, after which only the rows that actually hold the
//! line are touched. Its price is a random-access update on every fill
//! and eviction in every group of the level, so [`CacheLevel`] keeps one
//! only while some group is wider than 256 ways (see
//! `MAX_SCAN_GROUP_WAYS` in `slice.rs`); paper-geometry levels never do.
//!
//! The index is an *acceleration structure*, not the source of truth:
//! the per-slice tag arrays remain authoritative, and [`CacheLevel`]
//! keeps the index in sync at every install and invalidation (a
//! `rebuild` exists for bulk out-of-band mutations such as regrouping
//! back-invalidation sweeps). Duplicate keys are legal — right after a
//! merge the same line may be resident in several member slices until
//! lazy invalidation collapses the copies — so removal is keyed by
//! `(line, slice)` and a lookup walks the whole probe chain.
//!
//! Deterministic by construction: the hash is a fixed multiplicative
//! mix, capacity depends only on the level geometry, and iteration
//! order never leaks to callers (copies are reported through a
//! slice-indexed [`CopySet`], not in probe order).
//!
//! [`CacheLevel`]: crate::slice::CacheLevel

use crate::{Line, SliceId};

/// Location sentinel: the slot is free and terminates every probe chain
/// passing through it.
const EMPTY: u32 = u32::MAX;
/// Location sentinel: the slot held a copy that was removed; probe
/// chains continue through it, and inserts may recycle it.
const TOMBSTONE: u32 = u32::MAX - 1;

/// One open-addressing slot: the line key plus a packed
/// `slice << 16 | way` location (valid only when `loc` is not a
/// sentinel).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    loc: u32,
}

const FREE: Slot = Slot { key: 0, loc: EMPTY };

/// The copies of one line across a level, indexed by slice.
///
/// Capped at [`CopySet::MAX_SLICES`] slices — [`LineIndex`] refuses
/// construction above that, and callers fall back to tag scans.
#[derive(Debug, Clone, Copy)]
pub struct CopySet {
    /// Bit `s` set iff slice `s` holds the line.
    mask: u64,
    /// `ways[s]` is meaningful only when bit `s` of `mask` is set.
    ways: [u16; CopySet::MAX_SLICES],
}

impl CopySet {
    /// Largest slice count a `CopySet` (and thus a [`LineIndex`]) can
    /// describe.
    pub const MAX_SLICES: usize = 64;

    /// The empty set.
    pub fn empty() -> Self {
        Self {
            mask: 0,
            ways: [0; Self::MAX_SLICES],
        }
    }

    /// The way at which `slice` holds the line, if it does.
    #[inline]
    pub fn way_of(&self, slice: SliceId) -> Option<usize> {
        if (self.mask >> slice) & 1 != 0 {
            Some(self.ways[slice] as usize)
        } else {
            None
        }
    }

    /// True if no slice holds the line.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }
}

/// Open-addressing multimap from line address to `(slice, way)` copies.
///
/// Linear probing with tombstone deletion; the table is sized to twice
/// the level's line capacity, so the live load factor never exceeds
/// one half. Tombstones are swept by an in-place rebuild when they
/// outnumber a quarter of the table.
#[derive(Debug, Clone)]
pub struct LineIndex {
    slots: Vec<Slot>,
    mask: usize,
    tombstones: usize,
}

impl LineIndex {
    /// Builds an index for a level holding at most `lines` lines across
    /// `n_slices` slices, or `None` if the slice count exceeds
    /// [`CopySet::MAX_SLICES`] (callers then keep the tag-scan path).
    pub fn for_level(n_slices: usize, lines: usize) -> Option<Self> {
        if n_slices > CopySet::MAX_SLICES {
            return None;
        }
        let cap = (lines.max(1) * 2).next_power_of_two();
        Some(Self {
            slots: vec![FREE; cap],
            mask: cap - 1,
            tombstones: 0,
        })
    }

    /// Fixed multiplicative mix (Fibonacci hashing); deterministic
    /// across runs and hosts.
    #[inline]
    fn slot_of(&self, line: Line) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Records that `slice` now holds `line` at `way`.
    ///
    /// The caller guarantees `(line, slice)` is not already present (a
    /// slice holds a line at most once, and installs only happen after
    /// a group miss or an explicit displacement removal).
    #[inline]
    pub fn insert(&mut self, line: Line, slice: SliceId, way: usize) {
        debug_assert!(slice < CopySet::MAX_SLICES && way < u16::MAX as usize);
        let mut i = self.slot_of(line);
        loop {
            let s = &mut self.slots[i];
            if s.loc == EMPTY || s.loc == TOMBSTONE {
                if s.loc == TOMBSTONE {
                    self.tombstones -= 1;
                }
                *s = Slot {
                    key: line,
                    loc: ((slice as u32) << 16) | way as u32,
                };
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes the `(line, slice)` copy if present, returning whether it
    /// was found. Sweeps tombstones once they cover a quarter of the
    /// table.
    #[inline]
    pub fn remove(&mut self, line: Line, slice: SliceId) -> bool {
        let mut i = self.slot_of(line);
        loop {
            let s = &mut self.slots[i];
            if s.loc == EMPTY {
                return false;
            }
            if s.loc != TOMBSTONE && s.key == line && (s.loc >> 16) as usize == slice {
                s.loc = TOMBSTONE;
                self.tombstones += 1;
                if self.tombstones * 4 > self.slots.len() {
                    self.sweep();
                }
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Every copy of `line` across the level.
    #[inline]
    pub fn copies(&self, line: Line) -> CopySet {
        let mut set = CopySet::empty();
        let mut i = self.slot_of(line);
        loop {
            let s = &self.slots[i];
            if s.loc == EMPTY {
                return set;
            }
            if s.loc != TOMBSTONE && s.key == line {
                let slice = (s.loc >> 16) as usize;
                set.mask |= 1 << slice;
                set.ways[slice] = (s.loc & 0xFFFF) as u16;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Hints the CPU to fetch the head of `line`'s probe chain.
    #[inline]
    pub fn prefetch_line(&self, line: Line) {
        crate::prefetch(&self.slots[self.slot_of(line)]);
    }

    /// Drops every entry (bulk rebuild entry point).
    pub fn clear(&mut self) {
        self.slots.fill(FREE);
        self.tombstones = 0;
    }

    /// Re-inserts all live entries, dropping tombstones.
    fn sweep(&mut self) {
        let live: Vec<Slot> = self
            .slots
            .iter()
            .copied()
            .filter(|s| s.loc != EMPTY && s.loc != TOMBSTONE)
            .collect();
        self.clear();
        for s in live {
            self.insert(s.key, (s.loc >> 16) as usize, (s.loc & 0xFFFF) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut ix = LineIndex::for_level(8, 64).unwrap();
        ix.insert(0xABC, 3, 5);
        ix.insert(0xABC, 6, 1); // duplicate line in another slice
        ix.insert(0xDEF, 3, 7);
        let c = ix.copies(0xABC);
        assert_eq!(c.way_of(3), Some(5));
        assert_eq!(c.way_of(6), Some(1));
        assert_eq!(c.way_of(0), None);
        assert!(ix.remove(0xABC, 3));
        assert!(!ix.remove(0xABC, 3));
        let c = ix.copies(0xABC);
        assert_eq!(c.way_of(3), None);
        assert_eq!(c.way_of(6), Some(1));
        assert!(!ix.copies(0xDEF).is_empty());
        assert!(ix.copies(0x123).is_empty());
    }

    #[test]
    fn survives_collision_chains_and_sweeps() {
        // Tiny table forces collisions and repeated tombstone sweeps.
        let mut ix = LineIndex::for_level(4, 8).unwrap();
        for round in 0u64..50 {
            for l in 0..8u64 {
                ix.insert(l * 7919 + round, (l % 4) as usize, l as usize);
            }
            for l in 0..8u64 {
                assert_eq!(
                    ix.copies(l * 7919 + round).way_of((l % 4) as usize),
                    Some(l as usize),
                    "round {round} line {l}"
                );
                assert!(ix.remove(l * 7919 + round, (l % 4) as usize));
            }
        }
        for round in 0u64..50 {
            for l in 0..8u64 {
                assert!(ix.copies(l * 7919 + round).is_empty());
            }
        }
    }

    #[test]
    fn refuses_oversized_levels() {
        assert!(LineIndex::for_level(65, 1024).is_none());
        assert!(LineIndex::for_level(64, 1024).is_some());
    }
}
