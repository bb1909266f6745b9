//! Physical cache slices and groupable cache levels.
//!
//! A [`Slice`] is one physical set-associative array. A [`CacheLevel`] owns
//! all slices of one level (L2 or L3) plus the current [`Grouping`]; lookups
//! and insertions operate on the *group* of the requesting core's home
//! slice, realizing the paper's merged-slice semantics: set `i` of a merged
//! group is the concatenation of set `i`'s ways across member slices, with
//! victim selection by global LRU over the whole group.

use crate::events::{CacheEventSink, Level};
use crate::group::Grouping;
use crate::index::{CopySet, LineIndex};
use crate::params::CacheParams;
use crate::replacement::{ReplacementKind, TreePlru};
use crate::stats::{LevelStats, SliceStats};
use crate::{ConfigError, CoreId, Line, SliceId, MAX_CORES};

/// One resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Full line address (block-granular).
    pub line: Line,
    /// Core that brought the line in.
    pub owner: CoreId,
    /// Monotonic recency stamp (larger = more recent).
    pub stamp: u64,
    /// Whether the line has been written since installation.
    pub dirty: bool,
}

/// Sentinel marking an invalid way in the compact tag array.
const NO_LINE: Line = Line::MAX;

/// Widest merged group, in ways (member slices × ways per slice), that a
/// [`CacheLevel`] serves by scanning tag rows. Only while some group is
/// wider does the level keep a [`LineIndex`]: set `i` of a group is one
/// contiguous run of ways, and up to this width the scan beats the
/// index's random-access maintenance on every fill and eviction.
const MAX_SCAN_GROUP_WAYS: usize = 256;

/// Narrows a core id to the 2 bytes the per-way owner arrays store.
/// Lossless: every owner is a core of a level or hierarchy whose
/// constructor bounds the core count by [`MAX_CORES`].
#[inline]
fn owner_bits(core: CoreId) -> u16 {
    debug_assert!(core < MAX_CORES, "core {core} exceeds MAX_CORES");
    core as u16
}

use crate::prefetch;

/// A physical cache slice: `sets × ways` of ways in struct-of-arrays
/// layout.
///
/// A `Slice` backs each core's private L1 (and the baseline systems'
/// per-core arrays); the groupable L2/L3 levels keep their ways in
/// [`CacheLevel`]'s level-owned arrays instead. Every L1 access probes
/// one `Slice`, so the probe path scans 8-byte line addresses (`tags`)
/// contiguously, and recency stamps, owners and dirty bits live in
/// parallel arrays touched only by the paths that need them. A way is
/// valid iff its tag is not `NO_LINE`; invalid ways carry stamp
/// `u64::MAX` so LRU scans skip them without a branch. [`Entry`] remains
/// the exchange type at the API boundary (install/invalidate/iterate) and
/// is materialized from the arrays on demand.
#[derive(Debug, Clone)]
pub struct Slice {
    params: CacheParams,
    tags: Vec<Line>,
    stamps: Vec<u64>,
    /// Owning core of each way, narrowed with [`owner_bits`].
    owners: Vec<u16>,
    /// Dirty bits, one per way slot, packed 64 per word.
    dirty: Vec<u64>,
    plru: Vec<TreePlru>,
    kind: ReplacementKind,
    /// Access statistics for this slice.
    pub stats: SliceStats,
}

impl Slice {
    /// Creates an empty slice with the given geometry and replacement kind.
    pub fn new(params: CacheParams, kind: ReplacementKind) -> Self {
        let plru = match kind {
            ReplacementKind::TreePlru => (0..params.sets())
                .map(|_| TreePlru::new(params.ways()))
                .collect(),
            ReplacementKind::Lru => Vec::new(),
        };
        let slots = params.sets() * params.ways();
        Self {
            params,
            tags: vec![NO_LINE; slots],
            stamps: vec![u64::MAX; slots],
            owners: vec![0; slots],
            dirty: vec![0; slots.div_ceil(64)],
            plru,
            kind,
            stats: SliceStats::default(),
        }
    }

    /// Geometry of this slice.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.params.ways()
    }

    #[inline]
    fn dirty_bit(&self, idx: usize) -> bool {
        (self.dirty[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    #[inline]
    fn write_dirty_bit(&mut self, idx: usize, d: bool) {
        let mask = 1u64 << (idx & 63);
        if d {
            self.dirty[idx >> 6] |= mask;
        } else {
            self.dirty[idx >> 6] &= !mask;
        }
    }

    /// Materializes the entry at flat index `idx`, which must be valid.
    #[inline]
    fn entry_at(&self, idx: usize) -> Entry {
        debug_assert_ne!(self.tags[idx], NO_LINE, "entry_at on an invalid way");
        Entry {
            line: self.tags[idx],
            owner: CoreId::from(self.owners[idx]),
            stamp: self.stamps[idx],
            dirty: self.dirty_bit(idx),
        }
    }

    #[inline]
    fn clear_slot(&mut self, idx: usize) {
        self.tags[idx] = NO_LINE;
        self.stamps[idx] = u64::MAX;
        self.write_dirty_bit(idx, false);
    }

    /// Returns the way holding `line`, if resident.
    #[inline]
    pub fn probe(&self, line: Line) -> Option<usize> {
        self.probe_in_set(self.params.set_index(line), line)
    }

    /// Hints the CPU to fetch the tag row of `set` ahead of a probe.
    #[inline]
    pub fn prefetch_tags(&self, set: usize) {
        prefetch(&self.tags[self.base(set)]);
    }

    /// Hints the CPU to fetch the stamp row of `set` ahead of a
    /// placement scan.
    #[inline]
    pub fn prefetch_stamps(&self, set: usize) {
        prefetch(&self.stamps[self.base(set)]);
    }

    /// [`Self::probe`] with the set index precomputed by the caller.
    ///
    /// Group scans probe every member slice for the same line; all slices
    /// of a level share one geometry, so the caller hoists the set-index
    /// computation out of the member loop and passes it here.
    #[inline]
    pub fn probe_in_set(&self, set: usize, line: Line) -> Option<usize> {
        let base = self.base(set);
        let ways = self.params.ways();
        self.tags[base..base + ways].iter().position(|&t| t == line)
    }

    /// The entry at `(set, way)`, materialized from the parallel arrays.
    pub fn entry(&self, set: usize, way: usize) -> Option<Entry> {
        let idx = self.base(set) + way;
        (self.tags[idx] != NO_LINE).then(|| self.entry_at(idx))
    }

    /// The recency stamp at `(set, way)` (`u64::MAX` for an invalid way).
    #[inline]
    pub fn stamp(&self, set: usize, way: usize) -> u64 {
        self.stamps[self.base(set) + way]
    }

    /// Marks the line at `(set, way)` dirty (no-op on an invalid way).
    pub fn set_dirty(&mut self, set: usize, way: usize) {
        let idx = self.base(set) + way;
        if self.tags[idx] != NO_LINE {
            self.write_dirty_bit(idx, true);
        }
    }

    /// Records a hit on `(set, way)`: refreshes the recency stamp and the
    /// PLRU tree (if in use).
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, stamp: u64) {
        let idx = self.base(set) + way;
        if self.tags[idx] != NO_LINE {
            self.stamps[idx] = stamp;
        }
        if self.kind == ReplacementKind::TreePlru {
            self.plru[set].touch(way);
        }
    }

    /// First invalid way in `set`, if any.
    #[inline]
    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        let base = self.base(set);
        self.tags[base..base + self.params.ways()]
            .iter()
            .position(|&t| t == NO_LINE)
    }

    /// The valid way with the smallest recency stamp in `set`, with that
    /// stamp. `None` if the set is entirely invalid (invalid ways carry
    /// stamp `u64::MAX`, so the strict `<` scan skips them for free).
    #[inline]
    pub fn lru_way(&self, set: usize) -> Option<(usize, u64)> {
        let base = self.base(set);
        let (mut best, mut best_stamp) = (None, u64::MAX);
        for (w, &st) in self.stamps[base..base + self.params.ways()]
            .iter()
            .enumerate()
        {
            if st < best_stamp {
                best_stamp = st;
                best = Some(w);
            }
        }
        best.map(|w| (w, best_stamp))
    }

    /// One fused pass over the recency stamps of `set`, returning the
    /// first invalid way (if any), plus the first minimum-stamp valid way
    /// and its stamp.
    ///
    /// Invalid ways carry stamp `u64::MAX` (established at construction
    /// and restored by `clear_slot`) while live stamps are monotonic from
    /// zero, so validity is decidable from the stamp array alone: the
    /// placement scan touches one dense array per slice instead of a tag
    /// pass per invalid-way query plus a stamp pass for the LRU victim.
    /// When the set holds no valid way the returned victim defaults to
    /// way 0 with stamp `u64::MAX`; callers take the invalid way in that
    /// case.
    #[inline]
    pub fn placement_scan(&self, set: usize) -> (Option<usize>, usize, u64) {
        let base = self.base(set);
        let mut invalid = None;
        let (mut best, mut best_stamp) = (0usize, u64::MAX);
        for (w, &st) in self.stamps[base..base + self.params.ways()]
            .iter()
            .enumerate()
        {
            if st == u64::MAX {
                if invalid.is_none() {
                    invalid = Some(w);
                }
            } else if st < best_stamp {
                best_stamp = st;
                best = w;
            }
        }
        (invalid, best, best_stamp)
    }

    /// The pseudo-LRU victim way for `set`.
    ///
    /// Debug builds assert this slice uses [`ReplacementKind::TreePlru`];
    /// release builds skip the check — the kind is fixed at construction
    /// and the only caller ([`CacheLevel::insert`]) dispatches on it, so
    /// re-checking on every replacement in the hot loop buys nothing.
    pub fn plru_victim(&self, set: usize) -> usize {
        debug_assert_eq!(
            self.kind,
            ReplacementKind::TreePlru,
            "slice is not in PLRU mode"
        );
        self.plru[set].victim()
    }

    /// Installs `entry` at `(set, way)`, returning any displaced entry.
    pub fn install(&mut self, set: usize, way: usize, entry: Entry) -> Option<Entry> {
        if self.kind == ReplacementKind::TreePlru {
            self.plru[set].touch(way);
        }
        self.stats.insertions += 1;
        let idx = self.base(set) + way;
        let displaced = (self.tags[idx] != NO_LINE).then(|| self.entry_at(idx));
        self.tags[idx] = entry.line;
        self.stamps[idx] = entry.stamp;
        self.owners[idx] = owner_bits(entry.owner);
        self.write_dirty_bit(idx, entry.dirty);
        displaced
    }

    /// Removes `line` if resident, returning the removed entry.
    pub fn invalidate(&mut self, line: Line) -> Option<Entry> {
        let way = self.probe(line)?;
        let set = self.params.set_index(line);
        self.invalidate_way(set, way)
    }

    /// Removes the entry at `(set, way)` if valid, returning it. Used by
    /// the residency-index paths, which already know the way and skip the
    /// probe.
    #[inline]
    pub fn invalidate_way(&mut self, set: usize, way: usize) -> Option<Entry> {
        let idx = self.base(set) + way;
        if self.tags[idx] == NO_LINE {
            return None;
        }
        let removed = self.entry_at(idx);
        self.clear_slot(idx);
        Some(removed)
    }

    /// Number of valid entries in the whole slice.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_LINE).count()
    }

    /// Iterates over all valid entries (materialized by value).
    pub fn iter_entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != NO_LINE)
            .map(|(idx, _)| self.entry_at(idx))
    }

    /// Invokes `f(set, way, line)` for every valid way. Used to rebuild
    /// the level residency index after bulk mutations.
    pub fn for_each_valid(&self, mut f: impl FnMut(usize, usize, Line)) {
        let ways = self.params.ways();
        for (idx, &t) in self.tags.iter().enumerate() {
            if t != NO_LINE {
                f(idx / ways, idx % ways, t);
            }
        }
    }

    /// Removes every entry for which `pred` returns true, invoking `f` on
    /// each removed entry. Used for inclusion enforcement on
    /// reconfiguration.
    pub fn retain_entries(
        &mut self,
        mut pred: impl FnMut(&Entry) -> bool,
        mut f: impl FnMut(Entry),
    ) {
        for idx in 0..self.tags.len() {
            if self.tags[idx] != NO_LINE {
                let e = self.entry_at(idx);
                if !pred(&e) {
                    self.clear_slot(idx);
                    f(e);
                }
            }
        }
    }

    /// Empties the slice.
    pub fn clear(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = NO_LINE);
        self.stamps.iter_mut().for_each(|s| *s = u64::MAX);
        self.dirty.iter_mut().for_each(|d| *d = 0);
    }
}

/// Where a group lookup found the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupHit {
    /// Slice that served the hit.
    pub slice: SliceId,
    /// True if that slice is the requester's home slice.
    pub local: bool,
}

/// A line displaced from the level by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displaced {
    /// Slice the entry was displaced from.
    pub slice: SliceId,
    /// The displaced entry.
    pub entry: Entry,
}

/// All slices of one groupable level (L2 or L3) plus the active grouping.
///
/// Core `c`'s *home slice* is slice `c` (the paper co-locates one L2 and one
/// L3 slice with each core, Fig. 12).
///
/// Storage is **level-owned and set-major**: the flat slot of `(set,
/// slice, way)` is `(set * n_slices + slice) * ways + way`, so set `i` of
/// a merged group of adjacent slices is one contiguous run of ways. Group
/// lookups and global-LRU placement scans — the simulator's hottest loops
/// — then walk sequential memory the host's hardware prefetcher can
/// stream. With one array per `Slice` (the previous layout), the same
/// scans took one *dependent* host-cache miss per member, because member
/// rows of the same set live hundreds of KiB apart.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    level: Level,
    /// Per-slice geometry (all slices of a level are identical).
    params: CacheParams,
    n_slices: usize,
    /// Line tags; [`NO_LINE`] marks an invalid way.
    tags: Vec<Line>,
    /// Recency stamps; `u64::MAX` on invalid ways (see
    /// [`Slice::placement_scan`] for the invariant this buys).
    stamps: Vec<u64>,
    /// Owning core of each way, narrowed with [`owner_bits`] (the level
    /// has at most [`MAX_CORES`] slices, and owners are its cores).
    owners: Vec<u16>,
    /// Dirty bits, one per way slot, packed 64 per word.
    dirty: Vec<u64>,
    /// One PLRU tree per `(slice, set)` at `slice * sets + set`; empty in
    /// LRU mode.
    plru: Vec<TreePlru>,
    slice_stats: Vec<SliceStats>,
    grouping: Grouping,
    kind: ReplacementKind,
    stamp: u64,
    rr: usize,
    /// Level-wide line → (slice, way) residency index, kept in sync with
    /// every install/invalidate so multi-member group operations touch
    /// only the rows that actually hold the line (one probe-chain walk)
    /// instead of one tag row per member. Only materialized while the
    /// widest group spans more than [`MAX_SCAN_GROUP_WAYS`] ways, where
    /// it beats the scan. Also `None` when the level has more slices
    /// than [`CopySet`] can describe. Without an index, all group
    /// operations use the tag-scan formulation.
    index: Option<LineIndex>,
    /// Access statistics for the level.
    pub stats: LevelStats,
}

impl CacheLevel {
    /// Creates a level of `n_slices` identical private slices.
    ///
    /// # Panics
    ///
    /// Panics if `n_slices` exceeds [`MAX_CORES`]: the per-way owner
    /// arrays could not hold every core id losslessly.
    pub fn new(
        level: Level,
        n_slices: usize,
        slice_params: CacheParams,
        kind: ReplacementKind,
    ) -> Self {
        assert!(
            n_slices <= MAX_CORES,
            "a level of {n_slices} slices exceeds MAX_CORES ({MAX_CORES})"
        );
        let slots = n_slices * slice_params.sets() * slice_params.ways();
        let plru = match kind {
            ReplacementKind::TreePlru => (0..n_slices * slice_params.sets())
                .map(|_| TreePlru::new(slice_params.ways()))
                .collect(),
            ReplacementKind::Lru => Vec::new(),
        };
        Self {
            level,
            params: slice_params,
            n_slices,
            tags: vec![NO_LINE; slots],
            stamps: vec![u64::MAX; slots],
            owners: vec![0; slots],
            dirty: vec![0; slots.div_ceil(64)],
            plru,
            slice_stats: vec![SliceStats::default(); n_slices],
            grouping: Grouping::private(n_slices),
            kind,
            stamp: 0,
            rr: 0,
            // Levels start all-private; the index appears with the first
            // grouping wide enough to need it (see `set_grouping`).
            index: None,
            stats: LevelStats::new(n_slices),
        }
    }

    /// Flat slot of way 0 of `(set, slice)`.
    #[inline]
    fn row(&self, set: usize, s: SliceId) -> usize {
        (set * self.n_slices + s) * self.params.ways()
    }

    #[inline]
    fn dirty_bit(&self, idx: usize) -> bool {
        (self.dirty[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    #[inline]
    fn write_dirty_bit(&mut self, idx: usize, d: bool) {
        let mask = 1u64 << (idx & 63);
        if d {
            self.dirty[idx >> 6] |= mask;
        } else {
            self.dirty[idx >> 6] &= !mask;
        }
    }

    /// Materializes the entry at flat slot `idx`, which must be valid.
    #[inline]
    fn entry_at(&self, idx: usize) -> Entry {
        debug_assert_ne!(self.tags[idx], NO_LINE, "entry_at on an invalid way");
        Entry {
            line: self.tags[idx],
            owner: CoreId::from(self.owners[idx]),
            stamp: self.stamps[idx],
            dirty: self.dirty_bit(idx),
        }
    }

    #[inline]
    fn clear_slot(&mut self, idx: usize) {
        self.tags[idx] = NO_LINE;
        self.stamps[idx] = u64::MAX;
        self.write_dirty_bit(idx, false);
    }

    /// Way of `(set, s)` holding `line`, if resident there.
    #[inline]
    fn probe_row(&self, set: usize, s: SliceId, line: Line) -> Option<usize> {
        let base = self.row(set, s);
        let ways = self.params.ways();
        self.tags[base..base + ways].iter().position(|&t| t == line)
    }

    /// One fused pass over the stamps of `(set, s)` — same contract as
    /// [`Slice::placement_scan`].
    #[inline]
    fn placement_scan_row(&self, set: usize, s: SliceId) -> (Option<usize>, usize, u64) {
        let base = self.row(set, s);
        let mut invalid = None;
        let (mut best, mut best_stamp) = (0usize, u64::MAX);
        for (w, &st) in self.stamps[base..base + self.params.ways()]
            .iter()
            .enumerate()
        {
            if st == u64::MAX {
                if invalid.is_none() {
                    invalid = Some(w);
                }
            } else if st < best_stamp {
                best_stamp = st;
                best = w;
            }
        }
        (invalid, best, best_stamp)
    }

    /// First invalid way of `(set, s)`, if any.
    #[inline]
    fn invalid_way_row(&self, set: usize, s: SliceId) -> Option<usize> {
        let base = self.row(set, s);
        self.tags[base..base + self.params.ways()]
            .iter()
            .position(|&t| t == NO_LINE)
    }

    /// Refreshes recency (and the PLRU tree, in PLRU mode) on a hit.
    #[inline]
    fn touch_at(&mut self, set: usize, s: SliceId, way: usize, stamp: u64) {
        let idx = self.row(set, s) + way;
        if self.tags[idx] != NO_LINE {
            self.stamps[idx] = stamp;
        }
        if self.kind == ReplacementKind::TreePlru {
            let p = s * self.params.sets() + set;
            self.plru[p].touch(way);
        }
    }

    /// Installs `entry` at `(set, s, way)`, returning any displaced entry.
    fn install_at(&mut self, set: usize, s: SliceId, way: usize, entry: Entry) -> Option<Entry> {
        if self.kind == ReplacementKind::TreePlru {
            let p = s * self.params.sets() + set;
            self.plru[p].touch(way);
        }
        self.slice_stats[s].insertions += 1;
        let idx = self.row(set, s) + way;
        let displaced = (self.tags[idx] != NO_LINE).then(|| self.entry_at(idx));
        self.tags[idx] = entry.line;
        self.stamps[idx] = entry.stamp;
        self.owners[idx] = owner_bits(entry.owner);
        self.write_dirty_bit(idx, entry.dirty);
        displaced
    }

    /// Removes the entry at `(set, s, way)` if valid, returning it.
    #[inline]
    fn invalidate_way_at(&mut self, set: usize, s: SliceId, way: usize) -> Option<Entry> {
        let idx = self.row(set, s) + way;
        if self.tags[idx] == NO_LINE {
            return None;
        }
        let removed = self.entry_at(idx);
        self.clear_slot(idx);
        Some(removed)
    }

    /// Removes `line` from `(set, s)` if resident, returning it.
    #[inline]
    fn invalidate_row(&mut self, set: usize, s: SliceId, line: Line) -> Option<Entry> {
        let way = self.probe_row(set, s, line)?;
        self.invalidate_way_at(set, s, way)
    }

    /// Which hierarchy level this is.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Number of slices.
    pub fn n_slices(&self) -> usize {
        self.n_slices
    }

    /// Geometry of each (identical) slice.
    pub fn slice_params(&self) -> &CacheParams {
        &self.params
    }

    /// The active grouping.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// Access statistics of one slice.
    pub fn slice_stats(&self, s: SliceId) -> &SliceStats {
        &self.slice_stats[s]
    }

    /// Mutable access statistics of one slice (the hierarchy attributes
    /// reconfiguration back-invalidations here).
    pub fn slice_stats_mut(&mut self, s: SliceId) -> &mut SliceStats {
        &mut self.slice_stats[s]
    }

    /// Iterates the valid entries of slice `s` (materialized by value),
    /// in `(set, way)` order.
    pub fn iter_slice_entries(&self, s: SliceId) -> impl Iterator<Item = Entry> + '_ {
        let ways = self.params.ways();
        (0..self.params.sets()).flat_map(move |set| {
            let base = self.row(set, s);
            (0..ways)
                .filter(move |w| self.tags[base + w] != NO_LINE)
                .map(move |w| self.entry_at(base + w))
        })
    }

    /// Removes every entry of slice `s` for which `pred` returns false,
    /// invoking `f` on each removed entry in `(set, way)` order. Used for
    /// inclusion enforcement on reconfiguration; callers must follow the
    /// sweep with [`Self::rebuild_index`].
    pub fn retain_slice_entries(
        &mut self,
        s: SliceId,
        mut pred: impl FnMut(&Entry) -> bool,
        mut f: impl FnMut(Entry),
    ) {
        for set in 0..self.params.sets() {
            let base = self.row(set, s);
            for idx in base..base + self.params.ways() {
                if self.tags[idx] != NO_LINE {
                    let e = self.entry_at(idx);
                    if !pred(&e) {
                        self.clear_slot(idx);
                        f(e);
                    }
                }
            }
        }
    }

    /// Replaces the grouping. The caller (the [`Hierarchy`](crate::Hierarchy)) is responsible
    /// for inclusion checks between levels.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGrouping`] if the grouping covers a
    /// different number of slices.
    pub fn set_grouping(&mut self, g: Grouping) -> Result<(), ConfigError> {
        if g.n_slices() != self.n_slices {
            return Err(ConfigError::InvalidGrouping(format!(
                "grouping covers {} slices, level has {}",
                g.n_slices(),
                self.n_slices
            )));
        }
        // Materialize the index when the widest group crosses
        // MAX_SCAN_GROUP_WAYS (populated from the tag arrays, which may
        // already hold lines mid-run) and drop it when every group is
        // narrow again. Reconfiguration-rate path.
        let widest = g.iter().map(<[SliceId]>::len).max().unwrap_or(1);
        let wide = widest * self.params.ways() > MAX_SCAN_GROUP_WAYS;
        self.grouping = g;
        match (&self.index, wide) {
            (None, true) => {
                let lines = self.n_slices * self.params.lines();
                self.index = LineIndex::for_level(self.n_slices, lines);
                self.rebuild_index();
            }
            (Some(_), false) => self.index = None,
            _ => {}
        }
        Ok(())
    }

    /// Whether the residency index is currently materialized.
    #[cfg(test)]
    pub(crate) fn has_index(&self) -> bool {
        self.index.is_some()
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Hints the CPU to fetch what a [`Self::lookup`] of `line` by `core`
    /// will read first: the residency-index probe chain for a merged group
    /// while the level keeps an index, the member tag rows otherwise
    /// (adjacent in the set-major layout). Issued by the hierarchy at
    /// access entry so the fetch overlaps the L1 probe that precedes the
    /// group scan.
    #[inline]
    pub fn prefetch_lookup(&self, core: CoreId, line: Line) {
        let members = self.grouping.group_members(core);
        match &self.index {
            Some(ix) if members.len() > 1 => ix.prefetch_line(line),
            _ => {
                let set = self.params.set_index(line);
                for &s in members {
                    prefetch(&self.tags[self.row(set, s)]);
                }
            }
        }
    }

    /// Looks `line` up in the group of `core`'s home slice.
    ///
    /// If the line is resident in several member slices (possible right
    /// after a merge), all but the most recently used copy are *lazily
    /// invalidated* (§2.2) and reported to `sink` as evictions.
    ///
    /// Records hit/miss statistics and refreshes recency on a hit.
    pub fn lookup(
        &mut self,
        core: CoreId,
        line: Line,
        sink: &mut dyn CacheEventSink,
    ) -> Option<GroupHit> {
        // All slices of a level share one geometry, so the set index can
        // be computed once for the whole group scan.
        let set = self.params.set_index(line);
        let members: &[SliceId] = self.grouping.group_members(core);
        // Fast path: a private (singleton) group cannot hold duplicates,
        // so the whole duplicate-tracking scan collapses to one probe.
        if let &[s] = members {
            return match self.probe_row(set, s, line) {
                Some(way) => {
                    let stamp = self.next_stamp();
                    self.touch_at(set, s, way, stamp);
                    let local = s == core;
                    if local {
                        self.slice_stats[s].local_hits += 1;
                    } else {
                        self.slice_stats[s].remote_hits += 1;
                    }
                    self.stats.record(core, false);
                    sink.touched(self.level, s, core, line);
                    Some(GroupHit { slice: s, local })
                }
                None => {
                    self.stats.record(core, true);
                    None
                }
            };
        }
        // One residency-index probe replaces the per-member tag scans:
        // only members that actually hold the line are visited. The member
        // loop below still walks `members` in group order, so hit events,
        // best-copy tie-breaks, and lazy-invalidation order are identical
        // to the scan formulation (which iterated the same list).
        let copies: Option<CopySet> = self.index.as_ref().map(|ix| ix.copies(line));
        if let Some(c) = &copies {
            if c.is_empty() {
                // No slice in the whole level holds the line, so no
                // member does either: a guaranteed group miss.
                self.stats.record(core, true);
                return None;
            }
        }
        // Collect every member slice holding the line.
        let mut best: Option<(SliceId, usize, u64)> = None;
        let mut duplicates: [Option<SliceId>; 4] = [None; 4];
        let mut n_dup = 0usize;
        for &s in members {
            let found = match &copies {
                Some(c) => c.way_of(s),
                None => self.probe_row(set, s, line),
            };
            if let Some(way) = found {
                debug_assert_eq!(
                    self.probe_row(set, s, line),
                    Some(way),
                    "residency index out of sync with slice {s}"
                );
                let stamp = self.stamps[self.row(set, s) + way];
                match best {
                    None => best = Some((s, way, stamp)),
                    Some((bs, bw, bstamp)) => {
                        if stamp > bstamp {
                            if n_dup < duplicates.len() {
                                duplicates[n_dup] = Some(bs);
                                n_dup += 1;
                            }
                            let _ = bw;
                            best = Some((s, way, stamp));
                        } else if n_dup < duplicates.len() {
                            duplicates[n_dup] = Some(s);
                            n_dup += 1;
                        }
                    }
                }
            }
        }
        // Lazy-invalidate stale duplicates.
        for dup in duplicates.iter().take(n_dup).flatten() {
            if let Some(e) = self.invalidate_row(set, *dup, line) {
                if let Some(ix) = self.index.as_mut() {
                    ix.remove(line, *dup);
                }
                self.slice_stats[*dup].lazy_invalidations += 1;
                sink.evicted(self.level, *dup, e.owner, e.line);
            }
        }
        match best {
            Some((s, way, _)) => {
                let stamp = self.next_stamp();
                self.touch_at(set, s, way, stamp);
                let local = s == core;
                if local {
                    self.slice_stats[s].local_hits += 1;
                } else {
                    self.slice_stats[s].remote_hits += 1;
                }
                self.stats.record(core, false);
                sink.touched(self.level, s, core, line);
                Some(GroupHit { slice: s, local })
            }
            None => {
                self.stats.record(core, true);
                None
            }
        }
    }

    /// Probes without modifying recency, statistics, or duplicates.
    pub fn peek(&self, core: CoreId, line: Line) -> Option<GroupHit> {
        let set = self.params.set_index(line);
        self.grouping
            .group_members(core)
            .iter()
            .find(|&&s| self.probe_row(set, s, line).is_some())
            .map(|&s| GroupHit {
                slice: s,
                local: s == core,
            })
    }

    /// True if `line` is resident anywhere in the slices listed.
    pub fn resident_in(&self, slices: &[SliceId], line: Line) -> bool {
        let set = self.params.set_index(line);
        slices
            .iter()
            .any(|&s| self.probe_row(set, s, line).is_some())
    }

    /// Inserts `line` on behalf of `core` into its group.
    ///
    /// Placement policy (capacity sharing of §2.2): an invalid way in the
    /// home slice is preferred, then an invalid way anywhere in the group,
    /// then the replacement victim — global LRU over all member ways, or
    /// the round-robin member's PLRU victim in
    /// [`ReplacementKind::TreePlru`] mode.
    ///
    /// Returns the displaced entry, if any. The caller handles inclusion
    /// consequences. Emits an `inserted` event (and an `evicted` event for
    /// the victim) on `sink`.
    pub fn insert(
        &mut self,
        core: CoreId,
        line: Line,
        dirty: bool,
        sink: &mut dyn CacheEventSink,
    ) -> Option<Displaced> {
        debug_assert!(
            self.peek(core, line).is_none(),
            "inserting an already-resident line"
        );
        let set = self.params.set_index(line);
        let members: &[SliceId] = self.grouping.group_members(core);
        // Placement: invalid way in the home slice, then an invalid way in
        // any member (in member order), then the replacement victim. In
        // LRU mode one fused stamp scan per member answers both the
        // invalid-way and the victim query, so a warm (fully valid) group
        // costs exactly one pass over each member's stamp row instead of a
        // failed tag pass plus a stamp pass — and member rows of one set
        // are adjacent in the set-major layout, so the whole group scan
        // streams through contiguous memory.
        let (s, w) = match self.kind {
            ReplacementKind::Lru => {
                let (home_inv, home_way, home_stamp) = self.placement_scan_row(set, core);
                if let Some(w) = home_inv {
                    (core, w)
                } else {
                    let mut target: Option<(SliceId, usize)> = None;
                    let mut best: Option<(SliceId, usize, u64)> = None;
                    for &s in members {
                        let (inv, way, stamp) = if s == core {
                            (None, home_way, home_stamp)
                        } else {
                            self.placement_scan_row(set, s)
                        };
                        if let Some(w) = inv {
                            target = Some((s, w));
                            break;
                        }
                        if best.map(|(_, _, b)| stamp < b).unwrap_or(true) {
                            best = Some((s, way, stamp));
                        }
                    }
                    // Every member scan yields a victim (a validated
                    // geometry has ways >= 1, and a set with no valid way
                    // was taken as an invalid-way target above), so the
                    // home slice's entry alone guarantees `best` is Some.
                    target
                        .or_else(|| best.map(|(s, w, _)| (s, w)))
                        // morph-lint: allow(no-panic-in-lib, reason = "the home slice always contributes a placement candidate; geometry validated at construction")
                        .expect("a set always has a victim")
                }
            }
            ReplacementKind::TreePlru => {
                let mut target: Option<(SliceId, usize)> = None;
                if let Some(w) = self.invalid_way_row(set, core) {
                    target = Some((core, w));
                } else {
                    for &s in members {
                        if s == core {
                            continue;
                        }
                        if let Some(w) = self.invalid_way_row(set, s) {
                            target = Some((s, w));
                            break;
                        }
                    }
                }
                match target {
                    Some(t) => t,
                    None => {
                        let s = members[self.rr % members.len()];
                        self.rr = self.rr.wrapping_add(1);
                        debug_assert_eq!(
                            self.kind,
                            ReplacementKind::TreePlru,
                            "PLRU victim on a non-PLRU level"
                        );
                        (s, self.plru[s * self.params.sets() + set].victim())
                    }
                }
            }
        };
        let stamp = self.next_stamp();
        let displaced = self.install_at(
            set,
            s,
            w,
            Entry {
                line,
                owner: core,
                stamp,
                dirty,
            },
        );
        if let Some(ix) = self.index.as_mut() {
            if let Some(e) = &displaced {
                ix.remove(e.line, s);
            }
            ix.insert(line, s, w);
        }
        sink.inserted(self.level, s, core, line);
        if let Some(e) = displaced {
            self.slice_stats[s].evictions += 1;
            sink.evicted(self.level, s, e.owner, e.line);
            Some(Displaced { slice: s, entry: e })
        } else {
            None
        }
    }

    /// Marks `line` dirty wherever it is resident in `core`'s group.
    pub fn mark_dirty(&mut self, core: CoreId, line: Line) {
        let set = self.params.set_index(line);
        // Disjoint-field borrows: the member list stays borrowed from
        // `grouping` across the loop while `dirty` words are written.
        let Self {
            grouping,
            params,
            n_slices,
            tags,
            dirty,
            index,
            ..
        } = self;
        let ways = params.ways();
        let copies: Option<CopySet> = index.as_ref().map(|ix| ix.copies(line));
        for &s in grouping.group_members(core) {
            let base = (set * *n_slices + s) * ways;
            let found = match &copies {
                Some(c) => c.way_of(s),
                None => tags[base..base + ways].iter().position(|&t| t == line),
            };
            if let Some(w) = found {
                let idx = base + w;
                if tags[idx] != NO_LINE {
                    dirty[idx >> 6] |= 1u64 << (idx & 63);
                }
            }
        }
    }

    /// Invalidates `line` from the listed slices (inclusion
    /// back-invalidation). Returns whether any removed copy was dirty.
    pub fn back_invalidate(
        &mut self,
        slices: &[SliceId],
        line: Line,
        sink: &mut dyn CacheEventSink,
    ) -> bool {
        let set = self.params.set_index(line);
        // With the residency index, only slices that actually hold the
        // line are touched; the scan fallback probes every listed slice
        // (adjacent rows in the set-major layout, so the probes stream).
        let copies: Option<CopySet> = self.index.as_ref().map(|ix| ix.copies(line));
        let mut any_dirty = false;
        for &s in slices {
            let removed = match &copies {
                Some(c) => c.way_of(s).and_then(|w| self.invalidate_way_at(set, s, w)),
                None => self.invalidate_row(set, s, line),
            };
            if let Some(e) = removed {
                debug_assert_eq!(e.line, line, "residency index out of sync with slice {s}");
                if let Some(ix) = self.index.as_mut() {
                    ix.remove(line, s);
                }
                self.slice_stats[s].back_invalidations += 1;
                any_dirty |= e.dirty;
                sink.evicted(self.level, s, e.owner, e.line);
            }
        }
        any_dirty
    }

    /// Rebuilds the residency index from the (authoritative) tag arrays.
    ///
    /// Must be called after any bulk out-of-band mutation — i.e. whenever
    /// entries are removed through [`Self::retain_slice_entries`] instead
    /// of the maintaining paths (`insert`/`lookup`/`back_invalidate`), as
    /// the regrouping inclusion sweeps do. Reconfiguration-rate cold path.
    pub fn rebuild_index(&mut self) {
        let Self {
            tags,
            params,
            n_slices,
            index,
            ..
        } = self;
        if let Some(ix) = index {
            ix.clear();
            let ways = params.ways();
            for (idx, &t) in tags.iter().enumerate() {
                if t != NO_LINE {
                    let (row, way) = (idx / ways, idx % ways);
                    ix.insert(t, row % *n_slices, way);
                }
            }
        }
    }

    /// Total valid entries over all slices.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_LINE).count()
    }

    /// Clears recency stamps' origin by resetting statistics only (stamps
    /// themselves are monotonic for the lifetime of the level).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        for s in &mut self.slice_stats {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{NoopSink, RecordingSink};

    fn small_params() -> CacheParams {
        CacheParams::new(4, 2, 64).unwrap()
    }

    fn level(n: usize) -> CacheLevel {
        CacheLevel::new(Level::L2, n, small_params(), ReplacementKind::Lru)
    }

    /// Line addresses that all map to set 0 of the 4-set slice.
    fn set0_line(i: u64) -> Line {
        i * 4
    }

    #[test]
    fn slice_insert_probe_invalidate() {
        let mut s = Slice::new(small_params(), ReplacementKind::Lru);
        assert_eq!(s.probe(12), None);
        s.install(
            0,
            0,
            Entry {
                line: 12,
                owner: 0,
                stamp: 1,
                dirty: false,
            },
        );
        // line 12 maps to set 0 (12 & 3 == 0).
        assert_eq!(s.probe(12), Some(0));
        assert_eq!(s.occupancy(), 1);
        let removed = s.invalidate(12).unwrap();
        assert_eq!(removed.line, 12);
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn slice_lru_way_is_min_stamp() {
        let mut s = Slice::new(small_params(), ReplacementKind::Lru);
        s.install(
            0,
            0,
            Entry {
                line: set0_line(1),
                owner: 0,
                stamp: 5,
                dirty: false,
            },
        );
        s.install(
            0,
            1,
            Entry {
                line: set0_line(2),
                owner: 0,
                stamp: 3,
                dirty: false,
            },
        );
        assert_eq!(s.lru_way(0), Some((1, 3)));
        s.touch(0, 1, 9);
        assert_eq!(s.lru_way(0), Some((0, 5)));
    }

    #[test]
    fn private_miss_then_hit() {
        let mut l = level(2);
        let mut sink = NoopSink;
        assert!(l.lookup(0, 100, &mut sink).is_none());
        l.insert(0, 100, false, &mut sink);
        let hit = l.lookup(0, 100, &mut sink).unwrap();
        assert!(hit.local);
        assert_eq!(hit.slice, 0);
        assert_eq!(l.stats.misses, 1);
        assert_eq!(l.stats.accesses, 2);
    }

    #[test]
    fn private_groups_do_not_leak_across_cores() {
        let mut l = level(2);
        let mut sink = NoopSink;
        l.insert(0, 100, false, &mut sink);
        assert!(
            l.lookup(1, 100, &mut sink).is_none(),
            "core 1 must not see core 0's private line"
        );
    }

    #[test]
    fn merged_group_shares_capacity() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        // Fill 4 ways of set 0 (2 ways per slice x 2 slices) from core 0.
        for i in 0..4 {
            l.insert(0, set0_line(i + 1), false, &mut sink);
        }
        // All four lines resident: capacity doubled by the merge.
        for i in 0..4 {
            assert!(
                l.lookup(0, set0_line(i + 1), &mut sink).is_some(),
                "line {i} missing"
            );
        }
        // A fifth insertion evicts the global LRU (line 1, which was
        // re-touched above... the LRU is line 1 because lookups refreshed
        // them in order; the least recently touched is line 1).
        let d = l.insert(0, set0_line(5), false, &mut sink).unwrap();
        assert_eq!(d.entry.line, set0_line(1));
    }

    #[test]
    fn remote_hits_are_flagged() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        // Core 1 inserts into its own (home) slice.
        l.insert(1, 100, false, &mut sink);
        let hit = l.lookup(0, 100, &mut sink).unwrap();
        assert!(!hit.local);
        assert_eq!(hit.slice, 1);
        assert_eq!(l.slice_stats(1).remote_hits, 1);
    }

    #[test]
    fn lazy_invalidation_removes_duplicates() {
        let mut l = level(2);
        let mut sink = RecordingSink::default();
        // While private, both cores cache the same (shared) line.
        l.insert(0, 100, false, &mut sink);
        l.insert(1, 100, false, &mut sink);
        // Merge; next lookup sees two copies, keeps one.
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let hit = l.lookup(0, 100, &mut sink).unwrap();
        // Copy in slice 1 is newer (stamp 2 > 1), so it is retained.
        assert_eq!(hit.slice, 1);
        let lazies: u64 = (0..2).map(|s| l.slice_stats(s).lazy_invalidations).sum();
        assert_eq!(lazies, 1);
        assert_eq!(sink.evicted.len(), 1);
        assert_eq!(sink.evicted[0], (Level::L2, 0, 0, 100));
        // Only one copy remains.
        assert_eq!(l.occupancy(), 1);
    }

    #[test]
    fn insert_prefers_home_invalid_way() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        l.insert(0, set0_line(1), false, &mut sink);
        assert_eq!(l.peek(0, set0_line(1)).unwrap().slice, 0);
        l.insert(1, set0_line(2), false, &mut sink);
        assert_eq!(l.peek(1, set0_line(2)).unwrap().slice, 1);
    }

    #[test]
    fn insert_spills_to_group_when_home_set_full() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        for i in 1..=2 {
            l.insert(0, set0_line(i), false, &mut sink);
        }
        // Home set 0 of slice 0 is full; third line spills to slice 1.
        l.insert(0, set0_line(3), false, &mut sink);
        assert_eq!(l.peek(0, set0_line(3)).unwrap().slice, 1);
    }

    #[test]
    fn back_invalidate_reports_dirty() {
        let mut l = level(2);
        let mut sink = NoopSink;
        l.insert(0, 100, true, &mut sink);
        assert!(l.back_invalidate(&[0, 1], 100, &mut sink));
        assert!(!l.back_invalidate(&[0, 1], 100, &mut sink), "already gone");
        assert_eq!(l.slice_stats(0).back_invalidations, 1);
    }

    #[test]
    fn events_emitted_on_insert_and_evict() {
        let mut l = level(1);
        let mut sink = RecordingSink::default();
        for i in 1..=3 {
            l.insert(0, set0_line(i), false, &mut sink);
        }
        assert_eq!(sink.inserted.len(), 3);
        // Third insert into a 2-way set evicted the first line.
        assert_eq!(sink.evicted, vec![(Level::L2, 0, 0, set0_line(1))]);
    }

    #[test]
    fn plru_mode_inserts_and_evicts() {
        let mut l = CacheLevel::new(Level::L2, 2, small_params(), ReplacementKind::TreePlru);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        for i in 1..=8 {
            l.insert(0, set0_line(i), false, &mut sink);
        }
        // 4 ways total in the merged set; at most 4 lines resident.
        let resident = (1..=8)
            .filter(|&i| l.peek(0, set0_line(i)).is_some())
            .count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn grouping_size_mismatch_rejected() {
        let mut l = level(2);
        assert!(l.set_grouping(Grouping::private(3)).is_err());
    }

    /// Regrouping a 64-slice, 16-way level narrow → all-shared → narrow
    /// moves it across the width gate both ways: 4-slice groups span 64
    /// ways (tag scan), the all-shared group 1,024 (residency index,
    /// rebuilt from the live tags mid-run). A twin level whose index is
    /// dropped after every regroup replays the same traffic through the
    /// scan path alone; every lookup, fill, back-invalidation and event
    /// must match it, and every lookup must agree with a preceding peek.
    #[test]
    fn index_follows_group_width_and_matches_the_scan() {
        let params = CacheParams::new(16, 16, 64).unwrap();
        let mut l = CacheLevel::new(Level::L3, 64, params, ReplacementKind::Lru);
        let mut scan = l.clone();
        let (mut sink, mut scan_sink) = (RecordingSink::default(), RecordingSink::default());
        let mut rng = morphcache::Xoshiro256pp::seed_from_u64(0x64);
        let narrow = Grouping::contiguous(64, 4).unwrap();
        for (g, wide) in [
            (narrow.clone(), false),
            (Grouping::all_shared(64), true),
            (narrow, false),
        ] {
            l.set_grouping(g.clone()).unwrap();
            scan.set_grouping(g).unwrap();
            scan.index = None;
            assert_eq!(l.has_index(), wide);
            // Twice the all-shared capacity, so every phase evicts.
            for i in 0..20_000 {
                let core = rng.range_usize(0, 64);
                let line = rng.range_u64(0, 32_768);
                let seen = l.peek(core, line);
                let hit = l.lookup(core, line, &mut sink);
                assert_eq!(hit.is_some(), seen.is_some(), "peek/lookup on {line:#x}");
                assert_eq!(hit, scan.lookup(core, line, &mut scan_sink));
                if hit.is_none() {
                    let d = l.insert(core, line, false, &mut sink);
                    assert_eq!(d, scan.insert(core, line, false, &mut scan_sink));
                } else if i % 3 == 0 {
                    l.mark_dirty(core, line);
                    scan.mark_dirty(core, line);
                }
                if i % 97 == 0 {
                    let members = l.grouping().group_members(core).to_vec();
                    assert_eq!(
                        l.back_invalidate(&members, line, &mut sink),
                        scan.back_invalidate(&members, line, &mut scan_sink)
                    );
                }
            }
            assert_eq!(l.occupancy(), scan.occupancy());
        }
        assert!(sink.evicted.len() > 1_000, "traffic must evict");
        assert_eq!(sink.inserted, scan_sink.inserted);
        assert_eq!(sink.evicted, scan_sink.evicted);
        assert_eq!(sink.touched, scan_sink.touched);
        let lazies = |l: &CacheLevel| {
            (0..64)
                .map(|s| l.slice_stats(s).lazy_invalidations)
                .sum::<u64>()
        };
        assert!(lazies(&l) > 0, "the merge must expose duplicates");
        assert_eq!(lazies(&l), lazies(&scan));
    }
}
