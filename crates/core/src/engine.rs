//! The MorphCache decision engine (§2.2–2.4).
//!
//! Once per epoch (the 300 M-cycle reconfiguration interval of Table 3),
//! the engine inspects the per-core, per-slice ACFVs accumulated during
//! the epoch and decides which slice groups to merge or split at each
//! level:
//!
//! * **merge** two neighboring groups when one is highly utilized and the
//!   other under-utilized (capacity sharing), or when both are highly
//!   utilized by threads of the same address space with significant ACFV
//!   overlap (data sharing);
//! * **split** a merged group when both halves are under-utilized (the
//!   merged latency penalty is no longer paying for itself) or when both
//!   halves are highly utilized without data sharing (destructive
//!   interference);
//! * **inclusion safety**: an L2 merge requires the corresponding L3
//!   slices merged (they are merged on demand), and an L3 split requires
//!   the covered L2 slices already split;
//! * **conflicts** (Fig. 6) are arbitrated as the paper does by default:
//!   "MorphCache, by default, favors a merge" (§2.4), so merges are
//!   considered before splits.
//!
//! The engine owns only abstract footprint state; the caller applies the
//! returned groupings to the actual hierarchy and interconnect.

use crate::acfv::Acfv;
use crate::config::MorphConfig;
use crate::error::MorphError;
use crate::hash::HashKind;
use crate::msat::{Msat, Utilization};
use crate::topology::{self, is_partition};
use crate::CacheLevelId;

/// The hash of every decision vector. The vectors are one-to-one with
/// the larger slice's lines (see [`MorphEngine::new`]), which only
/// approximates the paper's collision-free mapping if the hash is close
/// to uniform on structured tag sequences; plain XOR folding is visibly
/// biased on strided tags.
const HASH: HashKind = HashKind::Mix;

/// Minimum overlap fraction (common ones / smaller popcount) for the
/// shared-data merge condition (§2.2 condition (ii)). Corrected overlap
/// (chance-collision-adjusted) of truly disjoint footprints is ~0;
/// thrashing halves the residency of shared lines in each slice,
/// quartering the measurable overlap, so the trigger sits well below the
/// naive 0.3.
const OVERLAP_THRESHOLD: f64 = 0.15;

/// Upper bound on the *combined* utilization at which a capacity merge
/// still yields the "moderately utilized merged cache" of §2.2: merging
/// is pointless (or harmful, given the merged-hit latency) when the
/// pooled group would still be saturated.
const MERGE_FIT_THRESHOLD: f64 = 0.75;

/// A group whose epoch evictions exceed this multiple of its line
/// capacity *while its ACFV shows almost no reuse* is a streaming
/// polluter: it is excluded from capacity merges, since pooling with it
/// donates capacity to dead lines.
const CHURN_POLLUTION_THRESHOLD: f64 = 1.0;

/// Merge or split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigKind {
    /// Two groups became one.
    Merge,
    /// One group became two.
    Split,
}

/// One reconfiguration performed by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigEvent {
    /// Epoch in which the reconfiguration happened.
    pub epoch: u64,
    /// Level it applied to.
    pub level: CacheLevelId,
    /// Merge or split.
    pub kind: ReconfigKind,
    /// The slices of the resulting group (merge) or of the group that was
    /// divided (split).
    pub members: Vec<usize>,
    /// Whether the overall configuration was asymmetric *after* this
    /// reconfiguration (the §2.4 statistic).
    pub asymmetric_after: bool,
}

/// The result of one reconfiguration round.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigOutcome {
    /// New L2 grouping (partition of the slices).
    pub l2_groups: Vec<Vec<usize>>,
    /// New L3 grouping.
    pub l3_groups: Vec<Vec<usize>>,
    /// Reconfigurations performed this round, in order.
    pub events: Vec<ReconfigEvent>,
    /// Whether the resulting configuration is asymmetric.
    pub asymmetric: bool,
}

/// Per-level footprint and grouping state.
#[derive(Debug, Clone)]
struct LevelState {
    /// Slice `s`'s vector for core `c` (Fig. 4) at `acfv[s * n + c]`,
    /// created by the pair's first insert or hit. A slice only receives
    /// events from the cores of its groups, so most pairs never get one;
    /// an absent vector reads as all zero.
    acfv: Vec<Option<Box<Acfv>>>,
    /// Slices (== cores) of the level.
    n: usize,
    /// Length of every vector.
    bits: usize,
    groups: Vec<Vec<usize>>,
    /// Lines per slice at this level (utilization denominator).
    slice_lines: usize,
    /// Evictions of *actively reused* lines per slice this epoch (the
    /// replaced tag's ACFV bit was set). This is genuine capacity
    /// starvation: retained-and-reused data thrown out for lack of room.
    reused_churn: Vec<u64>,
    /// All evictions per slice this epoch, reused or dead-on-arrival. The
    /// ACFV hardware already observes every eviction (it clears a bit per
    /// replaced tag), so both counters are free.
    total_churn: Vec<u64>,
}

impl LevelState {
    fn new(n: usize, bits: usize, slice_lines: usize) -> Self {
        Self {
            acfv: vec![None; n * n],
            n,
            bits,
            groups: (0..n).map(|s| vec![s]).collect(),
            slice_lines,
            reused_churn: vec![0; n],
            total_churn: vec![0; n],
        }
    }

    /// Epoch starvation churn (reused victims) of a group, normalized to
    /// its line capacity.
    fn starved_churn_rate(&self, group: &[usize]) -> f64 {
        let evictions: u64 = group.iter().map(|&s| self.reused_churn[s]).sum();
        evictions as f64 / (group.len() * self.slice_lines) as f64
    }

    /// Epoch total churn of a group, normalized to its line capacity.
    fn total_churn_rate(&self, group: &[usize]) -> f64 {
        let evictions: u64 = group.iter().map(|&s| self.total_churn[s]).sum();
        evictions as f64 / (group.len() * self.slice_lines) as f64
    }

    /// Linear-counting footprint estimate for one slice: the raw
    /// ones-fraction under-counts once hash collisions set in, so invert
    /// the occupancy model `f = 1 - e^(-n/bits)` to recover `n̂`.
    fn slice_estimate(&self, slice: usize) -> f64 {
        let v = self.slice_footprint(slice);
        let bits = v.len() as f64;
        let f = v.ones_fraction();
        if f >= 1.0 {
            // Fully saturated: report well above one slice's worth.
            2.0 * self.slice_lines as f64
        } else {
            (-bits * (1.0 - f).ln()).min(2.0 * self.slice_lines as f64)
        }
    }

    /// Sets `line`'s bit in slice `slice`'s vector for `core`, creating
    /// the vector on the pair's first event.
    fn record_insert(&mut self, slice: usize, core: usize, line: u64) {
        let bits = self.bits;
        self.acfv[slice * self.n + core]
            .get_or_insert_with(|| Box::new(Acfv::new(bits, HASH)))
            .record_insert(line);
    }

    /// Counts an eviction of `owner`'s line from `slice` and clears its
    /// bit. An absent vector has no bit set, so it stays absent and the
    /// eviction is not reused churn.
    fn record_evict(&mut self, slice: usize, owner: usize, line: u64) {
        self.total_churn[slice] += 1;
        if let Some(v) = &mut self.acfv[slice * self.n + owner] {
            if v.record_evict(line) {
                self.reused_churn[slice] += 1;
            }
        }
    }

    /// OR of the per-core vectors of one slice: the slice's footprint.
    fn slice_footprint(&self, slice: usize) -> Acfv {
        let mut v = Acfv::new(self.bits, HASH);
        for u in self.acfv[slice * self.n..(slice + 1) * self.n]
            .iter()
            .flatten()
        {
            v.union_with(u);
        }
        v
    }

    /// Group utilization: the collision-corrected footprint estimate of
    /// the juxtaposed member ACFVs (§2.2), normalized by the group's line
    /// capacity — floored by the group's eviction churn. A slice whose
    /// demand overflows its capacity paradoxically *under*-reports active
    /// footprint (only the surviving fraction is ever re-hit), but its
    /// churn registers expose the pressure: a slice evicting on the order
    /// of its capacity per epoch is highly utilized no matter how few of
    /// its lines survive long enough to be reused.
    fn utilization(&self, group: &[usize]) -> f64 {
        let acfv_util = self.acfv_utilization(group);
        acfv_util.max(self.starved_churn_rate(group).min(1.0))
    }

    /// The raw ACFV-only utilization (no churn floor).
    fn acfv_utilization(&self, group: &[usize]) -> f64 {
        let est: f64 = group.iter().map(|&s| self.slice_estimate(s)).sum();
        est / (group.len() * self.slice_lines) as f64
    }

    /// Combined (OR) footprint of a whole group, for overlap tests.
    fn group_footprint(&self, group: &[usize]) -> Acfv {
        let mut v = self.slice_footprint(group[0]);
        for &s in &group[1..] {
            v.union_with(&self.slice_footprint(s));
        }
        v
    }

    fn reset(&mut self) {
        for v in self.acfv.iter_mut().flatten() {
            v.reset();
        }
        self.reused_churn.iter_mut().for_each(|c| *c = 0);
        self.total_churn.iter_mut().for_each(|c| *c = 0);
    }
}

/// The MorphCache engine. See the module docs.
#[derive(Debug, Clone)]
pub struct MorphEngine {
    n: usize,
    /// Address-space (application) id of each core.
    apps: Vec<usize>,
    config: MorphConfig,
    /// Merge/split aggressiveness thresholds, throttled by QoS (§5.3).
    msat: Msat,
    l2: LevelState,
    l3: LevelState,
    log: Vec<ReconfigEvent>,
    // QoS state (§5.3).
    prev_misses: Option<Vec<u64>>,
    merged_last_round: bool,
    // Merge probation (an extension of the §5.3 per-slice performance
    // registers): every merge is checked one epoch later against the
    // group's aggregate performance; a merge that made its own group
    // slower — more misses *or* merged-latency cost exceeding the
    // capacity gain — is reverted and the pair blacklisted for a few
    // epochs.
    probation: Vec<Probation>,
    blacklist: Vec<(CacheLevelId, Vec<usize>, u64)>,
    prev_perf: Option<Vec<f64>>,
}

/// A merge awaiting its one-epoch miss check.
#[derive(Debug, Clone)]
struct Probation {
    level: CacheLevelId,
    half_a: Vec<usize>,
    half_b: Vec<usize>,
    /// Sum of the group cores' IPC in the epoch before the merge.
    pre_perf: f64,
}

impl MorphEngine {
    /// Creates an engine for `n` slices per level (== cores), with
    /// `apps[c]` giving the address-space id of core `c` (threads of one
    /// multithreaded application share an id). `l2_slice_lines` and
    /// `l3_slice_lines` are the managed hierarchy's lines per slice: the
    /// denominators of the utilization estimates.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] if `n` or either slice line
    /// count is not a nonzero power of two, and [`MorphError::Mismatch`]
    /// if `apps.len() != n`.
    pub fn new(
        n: usize,
        apps: Vec<usize>,
        l2_slice_lines: usize,
        l3_slice_lines: usize,
        config: MorphConfig,
    ) -> Result<Self, MorphError> {
        if !n.is_power_of_two() {
            return Err(MorphError::InvalidConfig {
                field: "n_slices",
                value: n as u64,
                constraint: "must be a nonzero power of two",
            });
        }
        if apps.len() != n {
            return Err(MorphError::Mismatch {
                what: "app ids vs slices",
                left: apps.len(),
                right: n,
            });
        }
        if !l2_slice_lines.is_power_of_two() {
            return Err(MorphError::InvalidConfig {
                field: "l2_slice_lines",
                value: l2_slice_lines as u64,
                constraint: "must be a nonzero power of two",
            });
        }
        if !l3_slice_lines.is_power_of_two() {
            return Err(MorphError::InvalidConfig {
                field: "l3_slice_lines",
                value: l3_slice_lines as u64,
                constraint: "must be a nonzero power of two",
            });
        }
        // Decision vectors one-to-one with the larger slice's lines: the
        // paper's accurate option, "a one-to-one mapping of the cache
        // lines to the bits in ACFV at the cost of additional hardware"
        // (§2.1). The estimator still applies the linear-counting
        // correction `n̂ = -bits·ln(1-f)` before comparing against the
        // MSAT, because hash collisions make the raw ones-fraction
        // saturate.
        let bits = l2_slice_lines.max(l3_slice_lines);
        Ok(Self {
            n,
            apps,
            l2: LevelState::new(n, bits, l2_slice_lines),
            l3: LevelState::new(n, bits, l3_slice_lines),
            config,
            // With the reuse-based estimator, measured utilizations land
            // on the Table 4 ACF scale, whose published low/high class
            // boundary sits at ≈ 0.5 — the (60,30) MSAT of the paper
            // applies to raw |ACFV| bit fractions, a different scale.
            msat: Msat::new(0.50, 0.30),
            log: Vec::new(),
            prev_misses: None,
            merged_last_round: false,
            probation: Vec::new(),
            blacklist: Vec::new(),
            prev_perf: None,
        })
    }

    /// Number of slices per level.
    pub fn n_slices(&self) -> usize {
        self.n
    }

    /// Current L2 grouping.
    pub fn l2_groups(&self) -> &[Vec<usize>] {
        &self.l2.groups
    }

    /// Current L3 grouping.
    pub fn l3_groups(&self) -> &[Vec<usize>] {
        &self.l3.groups
    }

    /// Full reconfiguration log since construction.
    pub fn event_log(&self) -> &[ReconfigEvent] {
        &self.log
    }

    /// Records an eviction of `owner`'s line from `slice`.
    pub fn on_evicted(&mut self, level: CacheLevelId, slice: usize, owner: usize, line: u64) {
        self.level_mut(level).record_evict(slice, owner, line);
    }

    /// Records an active reuse (hit) of a resident line — see the
    /// reproduction note in [`crate::acfv`].
    pub fn on_touched(&mut self, level: CacheLevelId, slice: usize, core: usize, line: u64) {
        self.level_mut(level).record_insert(slice, core, line);
    }

    fn level(&self, level: CacheLevelId) -> &LevelState {
        match level {
            CacheLevelId::L2 => &self.l2,
            CacheLevelId::L3 => &self.l3,
        }
    }

    fn level_mut(&mut self, level: CacheLevelId) -> &mut LevelState {
        match level {
            CacheLevelId::L2 => &mut self.l2,
            CacheLevelId::L3 => &mut self.l3,
        }
    }

    /// Number of ACFVs materialized at `level`.
    #[cfg(test)]
    fn materialized(&self, level: CacheLevelId) -> usize {
        self.level(level).acfv.iter().flatten().count()
    }

    /// Utilization (ones-fraction of the juxtaposed ACFV) of the group
    /// containing `slice` at `level`. Exposed for instrumentation.
    pub fn group_utilization(&self, level: CacheLevelId, slice: usize) -> f64 {
        let state = self.level(level);
        // Groups always partition the slice space, so a valid index is
        // found; an out-of-range probe reads as an empty (0.0) group
        // instead of panicking mid-epoch.
        state
            .groups
            .iter()
            .find(|g| g.contains(&slice))
            .map_or(0.0, |g| state.utilization(g))
    }

    /// QoS hook (§5.3): call once per epoch with the per-core miss counts
    /// of the epoch that just ran. If the previous round performed a merge
    /// and any core's misses grew by more than 5%, the MSAT throttles up;
    /// otherwise it throttles down.
    pub fn note_epoch_misses(&mut self, misses: &[u64]) {
        if self.config.qos {
            if let Some(prev) = &self.prev_misses {
                if self.merged_last_round {
                    let hurt = prev
                        .iter()
                        .zip(misses.iter())
                        .any(|(&p, &c)| c as f64 > p as f64 * 1.05 + 16.0);
                    if hurt {
                        self.msat.throttle_up();
                    } else {
                        self.msat.throttle_down();
                    }
                }
            }
        }
        self.prev_misses = Some(misses.to_vec());
    }

    /// Per-epoch performance hook: call once per epoch with the per-core
    /// IPCs of the epoch that just ran. Drives the merge-probation check.
    pub fn note_epoch_perf(&mut self, ipcs: &[f64]) {
        self.prev_perf = Some(ipcs.to_vec());
    }

    /// Runs one reconfiguration round and resets the ACFVs for the next
    /// epoch. Returns the (possibly unchanged) groupings and the events
    /// performed.
    ///
    /// Both groupings stay partitions of the slices with L2 refining L3:
    /// every move merges two groups or splits one in halves, an L2 merge
    /// first merges the L3 groups it spans, and an L3 split (or the
    /// revert of an L3 merge) waits while an L2 group straddles the
    /// halves.
    pub fn reconfigure(&mut self, epoch: u64) -> ReconfigOutcome {
        let mut events = Vec::new();
        self.blacklist.retain(|(_, _, until)| *until > epoch);
        self.check_probation(epoch, &mut events);
        self.do_merges(CacheLevelId::L3, epoch, &mut events);
        self.do_merges(CacheLevelId::L2, epoch, &mut events);
        self.do_splits(CacheLevelId::L2, epoch, &mut events);
        self.do_splits(CacheLevelId::L3, epoch, &mut events);
        self.merged_last_round = events.iter().any(|e| e.kind == ReconfigKind::Merge);
        self.l2.reset();
        self.l3.reset();
        debug_assert!(
            is_partition(&self.l2.groups, self.n)
                && is_partition(&self.l3.groups, self.n)
                && topology::refines(&self.l2.groups, &self.l3.groups),
            "epoch {epoch}: L2 {:?} / L3 {:?}",
            self.l2.groups,
            self.l3.groups
        );
        let asymmetric = !topology::is_symmetric(&self.l2.groups, &self.l3.groups);
        self.log.extend(events.iter().cloned());
        ReconfigOutcome {
            l2_groups: self.l2.groups.clone(),
            l3_groups: self.l3.groups.clone(),
            events,
            asymmetric,
        }
    }

    /// Evaluates last round's merges against the per-slice miss registers:
    /// a merge whose group misses grew more than 5% (plus slack for
    /// counter noise) is reverted, and the pair blacklisted for four
    /// epochs so the same (stale) ACFV signal does not immediately remake
    /// it.
    fn check_probation(&mut self, epoch: u64, events: &mut Vec<ReconfigEvent>) {
        let Some(perf) = self.prev_perf.clone() else {
            self.probation.clear();
            return;
        };
        for p in std::mem::take(&mut self.probation) {
            let mut span = p.half_a.clone();
            span.extend(p.half_b.iter().copied());
            span.sort_unstable();
            // Only check groups that still exist exactly as merged.
            let groups = &self.level(p.level).groups;
            let Some(gi) = groups.iter().position(|g| *g == span) else {
                continue;
            };
            let post: f64 = span
                .iter()
                .map(|&c| perf.get(c).copied().unwrap_or(0.0))
                .sum();
            if post < p.pre_perf * 0.95 {
                // Revert to the recorded halves. The L2 refinement is
                // preserved: an L3 revert is skipped if an L2 group
                // straddles the halves.
                if p.level == CacheLevelId::L3
                    && topology::straddles(&self.l2.groups, &p.half_a, &p.half_b)
                {
                    // Cannot revert yet (inclusion); re-check next epoch —
                    // the straddling L2 merge has its own probation entry
                    // and may be reverted first.
                    self.probation.push(p);
                    continue;
                }
                let reverted = (
                    topology::split(groups, gi, &p.half_a, &p.half_b),
                    span.clone(),
                );
                self.record(events, epoch, p.level, ReconfigKind::Split, reverted);
                self.blacklist.push((p.level, span, epoch + 8));
            }
        }
    }

    /// Whether a candidate merged span is currently blacklisted.
    fn blacklisted(&self, level: CacheLevelId, span: &[usize]) -> bool {
        self.blacklist
            .iter()
            .any(|(l, s, _)| *l == level && s == span)
    }

    // ---- merge/split machinery -------------------------------------------------

    /// Whether groups `a` and `b` contain threads of a common address
    /// space.
    fn shares_space(&self, a: &[usize], b: &[usize]) -> bool {
        a.iter()
            .any(|&sa| b.iter().any(|&sb| self.apps[sa] == self.apps[sb]))
    }

    /// The §2.2 merge test for two candidate groups at `level`.
    ///
    /// Condition (i), capacity sharing: one side is highly utilized and
    /// the merged cache would be "moderately utilized" (§2.2's stated
    /// goal), i.e. the combined utilization lands below the high bound.
    /// The paper's (high, low) pairing is the strongest instance of this;
    /// requiring the combined fit generalizes it to (high, mid) pairs
    /// without ever merging two saturated slices.
    ///
    /// Condition (ii), data sharing: both sides highly utilized by threads
    /// of one address space with significant ACFV overlap.
    fn mergeable(&self, level: CacheLevelId, a: &[usize], b: &[usize]) -> bool {
        let state = self.level(level);
        let (ua, ub) = (state.utilization(a), state.utilization(b));
        let (ca, cb) = (self.msat.classify(ua), self.msat.classify(ub));
        let exactly_one_high = (ca == Utilization::High) != (cb == Utilization::High);
        let combined = (ua * a.len() as f64 + ub * b.len() as f64) / (a.len() + b.len()) as f64;
        // A polluter churns heavily while reusing almost nothing — a
        // streaming access pattern. It is excluded from capacity merges:
        // pooling with it donates capacity to dead lines.
        let polluter = |g: &[usize]| {
            state.total_churn_rate(g) > CHURN_POLLUTION_THRESHOLD
                && state.acfv_utilization(g) < self.msat.low()
        };
        if exactly_one_high && combined < MERGE_FIT_THRESHOLD && !polluter(a) && !polluter(b) {
            return true;
        }
        // Data sharing (condition (ii)): replication spreads the shared
        // working set across both slices, so each side reports at most
        // moderate utilization even when the aggregate is heavily used —
        // any non-idle pair of same-address-space groups with significant
        // ACFV overlap is a sharing-merge candidate; merging removes the
        // replicas and the repeated inter-slice transfers.
        if ca != Utilization::Low && cb != Utilization::Low && self.shares_space(a, b) {
            let fa = state.group_footprint(a);
            let fb = state.group_footprint(b);
            return corrected_overlap(&fa, &fb) > OVERLAP_THRESHOLD;
        }
        false
    }

    /// The §2.3 split test for a merged group with halves `a` and `b`:
    /// the merge is "no longer justified" when the whole group is
    /// under-utilized (the merged-access latency penalty buys nothing), or
    /// when a previously data-sharing group has lost its ACFV overlap.
    ///
    /// A merged group whose halves both look highly utilized is *not*
    /// split: with capacity pooled, per-slice footprints homogenize, so
    /// half-utilization no longer distinguishes constructive pooling from
    /// destructive interference — only the idle and lost-sharing signals
    /// are unambiguous.
    fn splittable(&self, level: CacheLevelId, a: &[usize], b: &[usize]) -> bool {
        let state = self.level(level);
        let (ua, ub) = (state.utilization(a), state.utilization(b));
        let combined = (ua * a.len() as f64 + ub * b.len() as f64) / (a.len() + b.len()) as f64;
        if combined < self.msat.low() {
            return true;
        }
        // Lost sharing: both halves pressed, same address space, but the
        // footprints no longer overlap.
        let (ca, cb) = (self.msat.classify(ua), self.msat.classify(ub));
        if ca == Utilization::High && cb == Utilization::High && self.shares_space(a, b) {
            let fa = state.group_footprint(a);
            let fb = state.group_footprint(b);
            return corrected_overlap(&fa, &fb) <= OVERLAP_THRESHOLD / 2.0;
        }
        false
    }

    /// Installs the grouping a move left at `level` and logs the move with
    /// the group it concerns and whether the configuration it leaves is
    /// asymmetric (§2.4).
    fn record(
        &mut self,
        events: &mut Vec<ReconfigEvent>,
        epoch: u64,
        level: CacheLevelId,
        kind: ReconfigKind,
        (groups, members): (Vec<Vec<usize>>, Vec<usize>),
    ) {
        self.level_mut(level).groups = groups;
        events.push(ReconfigEvent {
            epoch,
            level,
            kind,
            members,
            asymmetric_after: !topology::is_symmetric(&self.l2.groups, &self.l3.groups),
        });
    }

    fn do_merges(&mut self, level: CacheLevelId, epoch: u64, events: &mut Vec<ReconfigEvent>) {
        loop {
            let groups = self.level(level).groups.clone();
            let candidate = topology::merge_candidates(&groups, self.config.grouping)
                .into_iter()
                .find(|&(i, j)| {
                    let mut span = groups[i].clone();
                    span.extend(groups[j].iter().copied());
                    span.sort_unstable();
                    !self.blacklisted(level, &span) && self.mergeable(level, &groups[i], &groups[j])
                });
            let Some((i, j)) = candidate else { break };
            let (merged, members) = topology::merge(&groups, i, j);
            if level == CacheLevelId::L2 {
                // Inclusion safety: the merged L2 span must be covered by
                // one L3 group, so the L3 merges it forces come first.
                while let Some((a, b)) = topology::cover_step(&self.l3.groups, &members) {
                    let cover = topology::merge(&self.l3.groups, a, b);
                    self.record(events, epoch, CacheLevelId::L3, ReconfigKind::Merge, cover);
                }
            }
            // Put the merge on probation for next epoch's performance
            // check.
            let pre: f64 = {
                let span_cores = groups[i].iter().chain(groups[j].iter());
                match &self.prev_perf {
                    Some(m) => span_cores.map(|&c| m.get(c).copied().unwrap_or(0.0)).sum(),
                    None => 0.0,
                }
            };
            self.probation.push(Probation {
                level,
                half_a: groups[i].clone(),
                half_b: groups[j].clone(),
                pre_perf: pre,
            });
            self.record(events, epoch, level, ReconfigKind::Merge, (merged, members));
        }
    }

    fn do_splits(&mut self, level: CacheLevelId, epoch: u64, events: &mut Vec<ReconfigEvent>) {
        loop {
            let groups = self.level(level).groups.clone();
            // Inclusion safety: no L2 group may straddle an L3 split. The
            // merge is kept and the split skipped.
            let found = groups.iter().enumerate().find_map(|(gi, g)| {
                let (a, b) = topology::halves(g)?;
                let allowed = self.splittable(level, &a, &b)
                    && !(level == CacheLevelId::L3 && topology::straddles(&self.l2.groups, &a, &b));
                allowed.then_some((gi, a, b))
            });
            let Some((gi, a, b)) = found else { break };
            let split = (topology::split(&groups, gi, &a, &b), groups[gi].clone());
            self.record(events, epoch, level, ReconfigKind::Split, split);
        }
    }
}

/// Sharing measure between two footprint vectors, corrected for chance
/// collisions: two *independent* dense vectors overlap in about
/// `f_a · f_b` of the bits by accident, so the excess over that baseline,
/// normalized to its maximum (`min(f_a, f_b) - f_a·f_b`), is the
/// probability-corrected fraction of genuinely common footprint.
/// 1.0 for identical sets, ~0 for independent ones.
fn corrected_overlap(a: &Acfv, b: &Acfv) -> f64 {
    let bits = a.len() as f64;
    let fa = a.ones_fraction();
    let fb = b.ones_fraction();
    let and_frac = a.overlap(b) as f64 / bits;
    let expected = fa * fb;
    let denom = fa.min(fb) - expected;
    if denom <= 1e-9 {
        return 0.0;
    }
    ((and_frac - expected) / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GroupingMode, MorphConfig};

    /// Feeds `frac` of a slice's ACFV bits at `level` as distinct
    /// touched lines.
    fn fill(engine: &mut MorphEngine, level: CacheLevelId, slice: usize, owner: usize, frac: f64) {
        let bits = engine.l2.bits;
        let n = (frac * bits as f64) as u64;
        for i in 0..n {
            // Use spread-out tags so the hash sets ~distinct bits.
            engine.on_touched(level, slice, owner, i * 8191 + slice as u64 * 7);
        }
    }

    /// Engine over 128-line slices, so its decision vectors are
    /// one-to-one with a slice and `fill(frac)` lands at utilization ≈
    /// `frac`.
    fn engine(apps: Vec<usize>, config: MorphConfig) -> MorphEngine {
        MorphEngine::new(apps.len(), apps, 128, 128, config).unwrap()
    }

    fn fresh(n: usize) -> MorphEngine {
        engine((0..n).collect(), MorphConfig::paper())
    }

    #[test]
    fn no_signal_no_reconfiguration() {
        let mut e = fresh(4);
        // Every slice mid-utilized: nothing happens.
        for s in 0..4 {
            fill(&mut e, CacheLevelId::L2, s, s, 0.40);
            fill(&mut e, CacheLevelId::L3, s, s, 0.40);
        }
        let out = e.reconfigure(0);
        assert!(out.events.is_empty());
        assert_eq!(out.l2_groups.len(), 4);
        assert_eq!(out.l3_groups.len(), 4);
    }

    #[test]
    fn high_low_pair_merges_for_capacity() {
        let mut e = fresh(4);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.1);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.1);
        for s in 2..4 {
            fill(&mut e, CacheLevelId::L2, s, s, 0.40);
            fill(&mut e, CacheLevelId::L3, s, s, 0.40);
        }
        let out = e.reconfigure(0);
        assert!(
            out.l3_groups.contains(&vec![0, 1]),
            "L3 {:?}",
            out.l3_groups
        );
        assert!(
            out.l2_groups.contains(&vec![0, 1]),
            "L2 {:?}",
            out.l2_groups
        );
        assert!(out.events.iter().any(|ev| ev.kind == ReconfigKind::Merge));
        // {2,3} untouched.
        assert!(out.l2_groups.contains(&vec![2]));
    }

    #[test]
    fn l2_merge_forces_l3_merge() {
        let mut e = fresh(4);
        // Strong L2 signal, no L3 signal.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.05);
        for s in 0..4 {
            fill(&mut e, CacheLevelId::L3, s, s, 0.40);
        }
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.40);
        fill(&mut e, CacheLevelId::L2, 3, 3, 0.40);
        let out = e.reconfigure(0);
        assert!(
            out.l2_groups.contains(&vec![0, 1]),
            "L2 {:?}",
            out.l2_groups
        );
        // Inclusion safety: the covering L3 pair merged too.
        assert!(
            out.l3_groups.contains(&vec![0, 1]),
            "L3 {:?}",
            out.l3_groups
        );
        assert!(crate::topology::refines(&out.l2_groups, &out.l3_groups));
    }

    #[test]
    fn both_high_without_sharing_does_not_merge() {
        let mut e = fresh(4);
        for s in 0..2 {
            // Distinct tag spaces: no overlap, different apps anyway.
            let bits = e.l2.bits;
            for i in 0..((0.9 * bits as f64) as u64) {
                e.on_touched(CacheLevelId::L2, s, s, i * 8191 + (s as u64) * 1_000_003);
                e.on_touched(CacheLevelId::L3, s, s, i * 8191 + (s as u64) * 1_000_003);
            }
        }
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.40);
        fill(&mut e, CacheLevelId::L2, 3, 3, 0.40);
        fill(&mut e, CacheLevelId::L3, 2, 2, 0.40);
        fill(&mut e, CacheLevelId::L3, 3, 3, 0.40);
        let out = e.reconfigure(0);
        assert!(out.l2_groups.contains(&vec![0]), "{:?}", out.l2_groups);
        assert!(out.l2_groups.contains(&vec![1]));
    }

    #[test]
    fn both_high_with_sharing_merges() {
        // Cores 0 and 1 run threads of the same app touching the same
        // lines.
        let mut e = engine(vec![7, 7, 8, 9], MorphConfig::paper());
        let bits = e.l2.bits;
        for i in 0..((0.9 * bits as f64) as u64) {
            let line = i * 8191;
            e.on_touched(CacheLevelId::L2, 0, 0, line);
            e.on_touched(CacheLevelId::L2, 1, 1, line);
            e.on_touched(CacheLevelId::L3, 0, 0, line);
            e.on_touched(CacheLevelId::L3, 1, 1, line);
        }
        let out = e.reconfigure(0);
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
    }

    #[test]
    fn merged_low_low_splits() {
        let mut e = fresh(4);
        // Round 1: force a merge via high/low.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        let out = e.reconfigure(0);
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
        // Round 2: both halves now idle -> split back (L2 first, then L3).
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.05);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.05);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.05);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.05);
        let out2 = e.reconfigure(1);
        assert!(out2.l2_groups.contains(&vec![0]), "{:?}", out2.l2_groups);
        assert!(out2.l3_groups.contains(&vec![0]), "{:?}", out2.l3_groups);
        assert!(out2.events.iter().any(|ev| ev.kind == ReconfigKind::Split));
    }

    #[test]
    fn l3_split_blocked_while_l2_merged_in_merge_aggressive() {
        let mut e = fresh(4);
        // Merge both levels for {0,1} with a strong joint signal.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.reconfigure(0);
        assert!(e.l2_groups().contains(&vec![0, 1]));
        // Now: L3 halves look idle (want split) but L2 halves look busy
        // enough to stay merged (one high one low keeps the L2 merged —
        // mergeable state persists, not splittable).
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.05);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.05);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.05);
        let out = e.reconfigure(1);
        // L2 still merged; therefore L3 must remain merged (inclusion).
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
        assert!(out.l3_groups.contains(&vec![0, 1]), "{:?}", out.l3_groups);
        assert!(crate::topology::refines(&out.l2_groups, &out.l3_groups));
    }

    #[test]
    fn fig6_conflict_merge_aggressive_merges_upward() {
        let mut e = fresh(4);
        // Round 1: merge {0,1} (high/low) and {2,3} (high/low).
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 2, 2, 0.9);
        let out1 = e.reconfigure(0);
        assert!(out1.l2_groups.contains(&vec![0, 1]));
        assert!(out1.l2_groups.contains(&vec![2, 3]));
        // Round 2 (Fig. 6): first pair both-high, second pair both-low.
        // Pairwise each wants a split; across pairs the quad merge
        // condition (high, low) holds. Merge-aggressive must merge.
        for s in [0usize, 1] {
            fill(&mut e, CacheLevelId::L2, s, s, 0.95);
            fill(&mut e, CacheLevelId::L3, s, s, 0.95);
        }
        for s in [2usize, 3] {
            fill(&mut e, CacheLevelId::L2, s, s, 0.02);
            fill(&mut e, CacheLevelId::L3, s, s, 0.02);
        }
        let out2 = e.reconfigure(1);
        assert!(
            out2.l2_groups.contains(&vec![0, 1, 2, 3]),
            "{:?}",
            out2.l2_groups
        );
    }

    #[test]
    fn asymmetric_configurations_are_detected() {
        let mut e = fresh(8);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        for s in 2..8 {
            fill(&mut e, CacheLevelId::L2, s, s, 0.40);
            fill(&mut e, CacheLevelId::L3, s, s, 0.40);
        }
        let out = e.reconfigure(0);
        // {0,1} merged, everything else private: asymmetric.
        assert!(out.asymmetric);
        assert!(out.events.iter().all(|ev| ev.asymmetric_after));
    }

    #[test]
    fn buddy_mode_rejects_non_buddy_merges() {
        let mut e = fresh(4);
        // Slices 1 and 2 are adjacent but not buddies ({0,1} and {2,3} are
        // the buddy pairs). Give 1 high, 2 low, and neutral elsewhere:
        // buddy mode must not merge {1,2}.
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.9);
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.05);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.9);
        fill(&mut e, CacheLevelId::L3, 2, 2, 0.05);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.40);
        fill(&mut e, CacheLevelId::L2, 3, 3, 0.40);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.40);
        fill(&mut e, CacheLevelId::L3, 3, 3, 0.40);
        let out = e.reconfigure(0);
        assert!(!out
            .l2_groups
            .iter()
            .any(|g| g.contains(&1) && g.contains(&2)));
        // In arbitrary-contiguous mode the same signal merges {1,2}.
        let mut c = MorphConfig::paper();
        c.grouping = GroupingMode::ArbitraryContiguous;
        let mut e2 = engine((0..4).collect(), c);
        fill(&mut e2, CacheLevelId::L2, 1, 1, 0.9);
        fill(&mut e2, CacheLevelId::L2, 2, 2, 0.05);
        fill(&mut e2, CacheLevelId::L3, 1, 1, 0.9);
        fill(&mut e2, CacheLevelId::L3, 2, 2, 0.05);
        fill(&mut e2, CacheLevelId::L2, 0, 0, 0.40);
        fill(&mut e2, CacheLevelId::L2, 3, 3, 0.40);
        fill(&mut e2, CacheLevelId::L3, 0, 0, 0.40);
        fill(&mut e2, CacheLevelId::L3, 3, 3, 0.40);
        let out2 = e2.reconfigure(0);
        assert!(
            out2.l3_groups
                .iter()
                .any(|g| g.contains(&1) && g.contains(&2)),
            "{:?}",
            out2.l3_groups
        );
    }

    #[test]
    fn non_neighbor_mode_merges_distant_slices() {
        let mut c = MorphConfig::paper();
        c.grouping = GroupingMode::NonNeighbor;
        let mut e = engine((0..4).collect(), c);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 3, 3, 0.05);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 3, 3, 0.05);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.40);
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.40);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.40);
        fill(&mut e, CacheLevelId::L3, 2, 2, 0.40);
        let out = e.reconfigure(0);
        assert!(
            out.l3_groups
                .iter()
                .any(|g| g.contains(&0) && g.contains(&3)),
            "{:?}",
            out.l3_groups
        );
    }

    #[test]
    fn qos_throttles_msat_after_harmful_merge() {
        let qos = MorphConfig {
            qos: true,
            ..MorphConfig::paper()
        };
        let mut e = engine((0..4).collect(), qos);
        let h0 = e.msat.high();
        // Round 1 with a merge.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.note_epoch_misses(&[100, 100, 100, 100]);
        let out = e.reconfigure(0);
        assert!(out.events.iter().any(|ev| ev.kind == ReconfigKind::Merge));
        // Misses grew sharply for core 1 after the merge: throttle up.
        e.note_epoch_misses(&[100, 400, 100, 100]);
        assert!(e.msat.high() > h0);
        // A harmless epoch throttles back down.
        e.merged_last_round = true;
        e.note_epoch_misses(&[100, 100, 100, 100]);
        assert_eq!(e.msat.high(), h0);
    }

    #[test]
    fn event_log_accumulates() {
        let mut e = fresh(4);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.reconfigure(0);
        assert!(!e.event_log().is_empty());
    }

    #[test]
    fn acfvs_reset_each_round() {
        let mut e = fresh(4);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.reconfigure(0);
        // With no new events, utilization is zero everywhere.
        assert_eq!(e.group_utilization(CacheLevelId::L2, 0), 0.0);
    }

    #[test]
    fn sharing_merge_fires_for_moderate_replicated_pairs() {
        // Threads of one app with replicated footprints measure only Mid
        // per slice; the sharing rule must still merge them.
        let mut e = engine(vec![7, 7, 8, 9], MorphConfig::paper());
        let bits = e.l2.bits;
        for i in 0..((0.42 * bits as f64) as u64) {
            let line = i * 8191;
            e.on_touched(CacheLevelId::L2, 0, 0, line);
            e.on_touched(CacheLevelId::L2, 1, 1, line);
            e.on_touched(CacheLevelId::L3, 0, 0, line);
            e.on_touched(CacheLevelId::L3, 1, 1, line);
        }
        let out = e.reconfigure(0);
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
    }

    #[test]
    fn probation_reverts_merge_that_slowed_its_group() {
        let mut e = fresh(4);
        e.note_epoch_perf(&[1.0, 1.0, 1.0, 1.0]);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        let out = e.reconfigure(0);
        assert!(out.l3_groups.contains(&vec![0, 1]), "{:?}", out.l3_groups);
        // The merged pair's cores got much slower -> the L2 merge reverts
        // first (the L3 revert is inclusion-blocked while L2 straddles),
        // then the L3 merge reverts the round after.
        e.note_epoch_perf(&[0.4, 0.4, 1.0, 1.0]);
        let out2 = e.reconfigure(1);
        assert!(out2.l2_groups.contains(&vec![0]), "{:?}", out2.l2_groups);
        e.note_epoch_perf(&[0.4, 0.4, 1.0, 1.0]);
        let out3 = e.reconfigure(2);
        assert!(out3.l3_groups.contains(&vec![0]), "{:?}", out3.l3_groups);
        assert!(out3.l3_groups.contains(&vec![1]), "{:?}", out3.l3_groups);
        // And the pair is blacklisted: the same footprint signal does not
        // immediately remake the merge.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.note_epoch_perf(&[1.0, 1.0, 1.0, 1.0]);
        let out4 = e.reconfigure(3);
        assert!(
            !out4.l2_groups.iter().any(|g| g.len() > 1),
            "blacklisted pair must not re-merge: {:?}",
            out4.l2_groups
        );
    }

    #[test]
    fn probation_keeps_merge_that_helped() {
        let mut e = fresh(4);
        e.note_epoch_perf(&[1.0, 1.0, 1.0, 1.0]);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.reconfigure(0);
        e.note_epoch_perf(&[1.4, 1.1, 1.0, 1.0]);
        // Keep the group moderately busy so the idle-split rule stays out
        // of the picture.
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.45);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.40);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.45);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.40);
        let out = e.reconfigure(1);
        assert!(out.l3_groups.contains(&vec![0, 1]), "{:?}", out.l3_groups);
    }

    #[test]
    fn streaming_polluter_excluded_from_capacity_merge() {
        let mut e = fresh(4);
        // Slice 0: genuinely pressed (high reuse). Slice 1: a streamer —
        // low reuse, enormous dead churn.
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.05);
        for i in 0..(3 * e.l3.slice_lines as u64) {
            // Never-touched lines evicted: dead churn only.
            e.on_evicted(CacheLevelId::L3, 1, 1, 1_000_000 + i * 13);
        }
        let out = e.reconfigure(0);
        assert!(
            !out.l3_groups
                .iter()
                .any(|g| g.contains(&0) && g.contains(&1)),
            "must not pool with a polluter: {:?}",
            out.l3_groups
        );
    }

    #[test]
    fn starved_churn_marks_overflowing_slice_high() {
        let mut e = fresh(2);
        // Few distinct live lines, but constant reused-line eviction:
        // capacity starvation. Touch-then-evict cycles.
        for round in 0..3u64 {
            for i in 0..(e.l2.slice_lines as u64) {
                let line = i * 509 + round;
                e.on_touched(CacheLevelId::L2, 0, 0, line);
                e.on_evicted(CacheLevelId::L2, 0, 0, line);
            }
        }
        assert!(
            e.group_utilization(CacheLevelId::L2, 0) > 0.9,
            "starved slice must classify high, got {}",
            e.group_utilization(CacheLevelId::L2, 0)
        );
    }

    /// Every move keeps both levels partitions with L2 refining L3, which
    /// is why `reconfigure` has nothing to repair: random footprints, miss
    /// counts and IPCs drive merges, splits and probation reverts in every
    /// grouping mode, with and without QoS, at 4, 8 and 16 slices.
    #[test]
    fn reconfigurations_are_partitions_with_l2_refining_l3() {
        use crate::topology::{is_partition, refines};
        let modes = [
            GroupingMode::BuddyPowerOfTwo,
            GroupingMode::ArbitraryContiguous,
            GroupingMode::NonNeighbor,
        ];
        // Merges and splits seen, per level.
        let mut seen = [[0usize; 2]; 2];
        for n in [4, 8, 16] {
            for grouping in modes {
                for qos in [false, true] {
                    for seed in 0..8 {
                        let mut rng = crate::Xoshiro256pp::seed_from_u64(seed);
                        let pairs_share = rng.gen_bool(0.5);
                        let apps = (0..n).map(|c| if pairs_share { c / 2 } else { c });
                        let mut e = engine(apps.collect(), MorphConfig { grouping, qos });
                        for round in 0..6 {
                            for level in [CacheLevelId::L2, CacheLevelId::L3] {
                                for s in 0..n {
                                    let frac = rng.range_u64(0, 11) as f64 / 10.0;
                                    fill(&mut e, level, s, s, frac);
                                }
                            }
                            let misses: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1000)).collect();
                            let ipcs: Vec<f64> =
                                (0..n).map(|_| rng.range_u64(1, 11) as f64 / 10.0).collect();
                            e.note_epoch_misses(&misses);
                            e.note_epoch_perf(&ipcs);
                            let out = e.reconfigure(round);
                            let at = format!("{n} slices, {grouping:?}, qos {qos}, seed {seed}");
                            assert!(is_partition(&out.l2_groups, n), "{at}: {out:?}");
                            assert!(is_partition(&out.l3_groups, n), "{at}: {out:?}");
                            assert!(refines(&out.l2_groups, &out.l3_groups), "{at}: {out:?}");
                            for ev in &out.events {
                                let level = usize::from(ev.level == CacheLevelId::L3);
                                seen[level][usize::from(ev.kind == ReconfigKind::Split)] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(seen.iter().flatten().all(|&k| k > 0), "{seen:?}");
    }

    /// A slice only hears from its group's cores, so a 1024-slice engine
    /// fed private traffic holds one vector per core per level, not
    /// 1024², before and after a round resets them.
    #[test]
    fn only_slice_core_pairs_with_events_hold_vectors() {
        let mut e = fresh(1024);
        for c in 0..1024 {
            let line = c as u64 * 8191;
            for level in [CacheLevelId::L2, CacheLevelId::L3] {
                e.on_touched(level, c, c, line);
                e.on_touched(level, c, c, line + 1);
                e.on_evicted(level, c, c, line);
            }
        }
        assert_eq!(e.materialized(CacheLevelId::L2), 1024);
        assert_eq!(e.materialized(CacheLevelId::L3), 1024);
        e.reconfigure(0);
        assert_eq!(e.materialized(CacheLevelId::L2), 1024);
        assert_eq!(e.materialized(CacheLevelId::L3), 1024);
        assert_eq!(e.group_utilization(CacheLevelId::L2, 5), 0.0);
    }

    #[test]
    fn evicting_from_an_absent_vector_creates_none() {
        let mut e = fresh(4);
        e.on_evicted(CacheLevelId::L2, 0, 1, 42);
        assert_eq!(e.materialized(CacheLevelId::L2), 0);
        assert_eq!((e.l2.total_churn[0], e.l2.reused_churn[0]), (1, 0));
        // Once the pair has a vector, evicting a set bit is reused churn.
        e.on_touched(CacheLevelId::L2, 0, 1, 42);
        e.on_evicted(CacheLevelId::L2, 0, 1, 42);
        assert_eq!(e.materialized(CacheLevelId::L2), 1);
        assert_eq!((e.l2.total_churn[0], e.l2.reused_churn[0]), (2, 1));
    }
}
