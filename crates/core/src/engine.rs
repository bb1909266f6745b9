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
//! * **conflicts** (Fig. 6) are arbitrated by the configured policy —
//!   merge-aggressive considers merges first (the default), the
//!   split-aggressive alternative considers splits first.
//!
//! The engine owns only abstract footprint state; the caller applies the
//! returned groupings to the actual hierarchy and interconnect.

use crate::acfv::Acfv;
use crate::config::{ConflictPolicy, GroupingMode, MorphConfig};
use crate::error::MorphError;
use crate::msat::Utilization;
use crate::topology::{self, is_partition};
use crate::CacheLevelId;

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
    /// `acfv[slice][core]` — one vector per core per slice (Fig. 4).
    acfv: Vec<Vec<Acfv>>,
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
    fn new(n: usize, bits: usize, hash: crate::hash::HashKind, slice_lines: usize) -> Self {
        Self {
            acfv: (0..n)
                .map(|_| (0..n).map(|_| Acfv::new(bits, hash)).collect())
                .collect(),
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

    /// OR of the per-core vectors of one slice: the slice's footprint.
    fn slice_footprint(&self, slice: usize) -> Acfv {
        let mut v = self.acfv[slice][0].clone();
        for core in 1..self.acfv[slice].len() {
            v.union_with(&self.acfv[slice][core]);
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
        for row in &mut self.acfv {
            for v in row {
                v.reset();
            }
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
    /// multithreaded application share an id).
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] if `n` is not a nonzero power
    /// of two or the configured ACFV/slice geometry is degenerate, and
    /// [`MorphError::Mismatch`] if `apps.len() != n`.
    pub fn new(n: usize, apps: Vec<usize>, config: MorphConfig) -> Result<Self, MorphError> {
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
        if config.acfv_bits == 0 {
            return Err(MorphError::InvalidConfig {
                field: "acfv_bits",
                value: 0,
                constraint: "must be positive",
            });
        }
        if !config.l2_slice_lines.is_power_of_two() {
            return Err(MorphError::InvalidConfig {
                field: "l2_slice_lines",
                value: config.l2_slice_lines as u64,
                constraint: "must be a nonzero power of two",
            });
        }
        if !config.l3_slice_lines.is_power_of_two() {
            return Err(MorphError::InvalidConfig {
                field: "l3_slice_lines",
                value: config.l3_slice_lines as u64,
                constraint: "must be a nonzero power of two",
            });
        }
        Ok(Self {
            n,
            apps,
            l2: LevelState::new(n, config.acfv_bits, config.hash, config.l2_slice_lines),
            l3: LevelState::new(n, config.acfv_bits, config.hash, config.l3_slice_lines),
            config,
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

    /// The active configuration.
    pub fn config(&self) -> &MorphConfig {
        &self.config
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

    /// Records a line installed into `slice` on behalf of `owner`.
    pub fn on_inserted(&mut self, level: CacheLevelId, slice: usize, owner: usize, line: u64) {
        self.level_mut(level).acfv[slice][owner].record_insert(line);
    }

    /// Records an eviction of `owner`'s line from `slice`.
    pub fn on_evicted(&mut self, level: CacheLevelId, slice: usize, owner: usize, line: u64) {
        let state = self.level_mut(level);
        state.total_churn[slice] += 1;
        if state.acfv[slice][owner].test(line) {
            state.reused_churn[slice] += 1;
        }
        state.acfv[slice][owner].record_evict(line);
    }

    /// Records an active reuse (hit) of a resident line — see the
    /// reproduction note in [`crate::acfv`].
    pub fn on_touched(&mut self, level: CacheLevelId, slice: usize, core: usize, line: u64) {
        self.level_mut(level).acfv[slice][core].record_insert(line);
    }

    fn level_mut(&mut self, level: CacheLevelId) -> &mut LevelState {
        match level {
            CacheLevelId::L2 => &mut self.l2,
            CacheLevelId::L3 => &mut self.l3,
        }
    }

    /// Utilization (ones-fraction of the juxtaposed ACFV) of the group
    /// containing `slice` at `level`. Exposed for instrumentation.
    pub fn group_utilization(&self, level: CacheLevelId, slice: usize) -> f64 {
        let state = match level {
            CacheLevelId::L2 => &self.l2,
            CacheLevelId::L3 => &self.l3,
        };
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
                        self.config.msat.throttle_up();
                    } else {
                        self.config.msat.throttle_down();
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
    /// # Errors
    ///
    /// Returns [`MorphError::Grouping`] if the round would leave either
    /// level in a non-partition state — this is a simulator bug caught
    /// before it can corrupt the hierarchy, not an expected condition. A
    /// refinement (inclusion) violation between the levels is *repaired*
    /// instead (L2 is re-derived as the meet of the two groupings), since
    /// the meet always restores inclusion without losing either level's
    /// capacity decisions.
    pub fn reconfigure(&mut self, epoch: u64) -> Result<ReconfigOutcome, MorphError> {
        let mut events = Vec::new();
        self.blacklist.retain(|(_, _, until)| *until > epoch);
        self.check_probation(epoch, &mut events);
        match self.config.policy {
            ConflictPolicy::MergeAggressive => {
                self.do_merges(CacheLevelId::L3, epoch, &mut events);
                self.do_merges(CacheLevelId::L2, epoch, &mut events);
                self.do_splits(CacheLevelId::L2, epoch, &mut events);
                self.do_splits(CacheLevelId::L3, epoch, &mut events);
            }
            ConflictPolicy::SplitAggressive => {
                self.do_splits(CacheLevelId::L2, epoch, &mut events);
                self.do_splits(CacheLevelId::L3, epoch, &mut events);
                self.do_merges(CacheLevelId::L3, epoch, &mut events);
                self.do_merges(CacheLevelId::L2, epoch, &mut events);
            }
        }
        self.merged_last_round = events.iter().any(|e| e.kind == ReconfigKind::Merge);
        self.l2.reset();
        self.l3.reset();
        if !is_partition(&self.l2.groups, self.n) {
            return Err(MorphError::Grouping(format!(
                "epoch {epoch}: L2 groups do not partition {} slices: {:?}",
                self.n, self.l2.groups
            )));
        }
        if !is_partition(&self.l3.groups, self.n) {
            return Err(MorphError::Grouping(format!(
                "epoch {epoch}: L3 groups do not partition {} slices: {:?}",
                self.n, self.l3.groups
            )));
        }
        if !topology::refines(&self.l2.groups, &self.l3.groups) {
            // Repair: the meet refines both operands, so installing it at
            // L2 restores inclusion while keeping every boundary both
            // levels asked for.
            self.l2.groups = topology::meet(&self.l2.groups, &self.l3.groups);
            sort_groups(&mut self.l2.groups);
        }
        let asymmetric = !topology::is_symmetric(&self.l2.groups, &self.l3.groups);
        self.log.extend(events.iter().cloned());
        Ok(ReconfigOutcome {
            l2_groups: self.l2.groups.clone(),
            l3_groups: self.l3.groups.clone(),
            events,
            asymmetric,
        })
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
            let state = match p.level {
                CacheLevelId::L2 => &self.l2,
                CacheLevelId::L3 => &self.l3,
            };
            // Only check groups that still exist exactly as merged.
            if !state.groups.contains(&span) {
                continue;
            }
            let post: f64 = span
                .iter()
                .map(|&c| perf.get(c).copied().unwrap_or(0.0))
                .sum();
            if post < p.pre_perf * 0.95 {
                // Revert. The L2 refinement is preserved: an L3 revert is
                // skipped if an L2 group straddles the halves.
                if p.level == CacheLevelId::L3 {
                    let straddles = self.l2.groups.iter().any(|g| {
                        g.iter().any(|s| p.half_a.contains(s))
                            && g.iter().any(|s| p.half_b.contains(s))
                    });
                    if straddles {
                        // Cannot revert yet (inclusion); re-check next
                        // epoch — the straddling L2 merge has its own
                        // probation entry and may be reverted first.
                        self.probation.push(p);
                        continue;
                    }
                }
                let state = match p.level {
                    CacheLevelId::L2 => &mut self.l2,
                    CacheLevelId::L3 => &mut self.l3,
                };
                // The `contains` check above guarantees the position
                // exists; guarded rather than unwrapped so a racing edit
                // to that check can never panic an epoch.
                let Some(gi) = state.groups.iter().position(|g| *g == span) else {
                    continue;
                };
                state.groups[gi] = p.half_a.clone();
                state.groups.push(p.half_b.clone());
                sort_groups(&mut state.groups);
                events.push(ReconfigEvent {
                    epoch,
                    level: p.level,
                    kind: ReconfigKind::Split,
                    members: span.clone(),
                    asymmetric_after: !topology::is_symmetric(&self.l2.groups, &self.l3.groups),
                });
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
        let state = match level {
            CacheLevelId::L2 => &self.l2,
            CacheLevelId::L3 => &self.l3,
        };
        let (ua, ub) = (state.utilization(a), state.utilization(b));
        let (ca, cb) = (self.config.msat.classify(ua), self.config.msat.classify(ub));
        let exactly_one_high = (ca == Utilization::High) != (cb == Utilization::High);
        let combined = (ua * a.len() as f64 + ub * b.len() as f64) / (a.len() + b.len()) as f64;
        // A polluter churns heavily while reusing almost nothing — a
        // streaming access pattern. It is excluded from capacity merges:
        // pooling with it donates capacity to dead lines.
        let polluter = |g: &[usize]| {
            state.total_churn_rate(g) > self.config.churn_pollution_threshold
                && state.acfv_utilization(g) < self.config.msat.low()
        };
        if exactly_one_high
            && combined < self.config.merge_fit_threshold
            && !polluter(a)
            && !polluter(b)
        {
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
            return corrected_overlap(&fa, &fb) > self.config.overlap_threshold;
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
        let state = match level {
            CacheLevelId::L2 => &self.l2,
            CacheLevelId::L3 => &self.l3,
        };
        let (ua, ub) = (state.utilization(a), state.utilization(b));
        let combined = (ua * a.len() as f64 + ub * b.len() as f64) / (a.len() + b.len()) as f64;
        if combined < self.config.msat.low() {
            return true;
        }
        // Lost sharing: both halves pressed, same address space, but the
        // footprints no longer overlap.
        let (ca, cb) = (self.config.msat.classify(ua), self.config.msat.classify(ub));
        if ca == Utilization::High && cb == Utilization::High && self.shares_space(a, b) {
            let fa = state.group_footprint(a);
            let fb = state.group_footprint(b);
            return corrected_overlap(&fa, &fb) <= self.config.overlap_threshold / 2.0;
        }
        false
    }

    /// Candidate pairs of group indices that the grouping mode allows to
    /// merge.
    fn merge_candidates(&self, groups: &[Vec<usize>]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..groups.len() {
            for j in i + 1..groups.len() {
                let (a, b) = (&groups[i], &groups[j]);
                let allowed = match self.config.grouping {
                    GroupingMode::BuddyPowerOfTwo => buddy_siblings(a, b),
                    GroupingMode::ArbitraryContiguous => adjacent(a, b),
                    GroupingMode::NonNeighbor => true,
                };
                if allowed {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    fn do_merges(&mut self, level: CacheLevelId, epoch: u64, events: &mut Vec<ReconfigEvent>) {
        loop {
            let groups = match level {
                CacheLevelId::L2 => self.l2.groups.clone(),
                CacheLevelId::L3 => self.l3.groups.clone(),
            };
            let candidate = self.merge_candidates(&groups).into_iter().find(|&(i, j)| {
                let mut span = groups[i].clone();
                span.extend(groups[j].iter().copied());
                span.sort_unstable();
                if self.blacklisted(level, &span) {
                    return false;
                }
                if !self.mergeable(level, &groups[i], &groups[j]) {
                    return false;
                }
                if level == CacheLevelId::L2 {
                    // Inclusion safety: the merged L2 span must be
                    // covered by one L3 group, merging L3 on demand
                    // (merge-aggressive) or requiring prior coverage
                    // (split-aggressive).
                    let mut span = groups[i].clone();
                    span.extend(&groups[j]);
                    if !covered_by_one(&span, &self.l3.groups) {
                        match self.config.policy {
                            ConflictPolicy::MergeAggressive => {
                                return self.can_cover_l3(&span);
                            }
                            ConflictPolicy::SplitAggressive => return false,
                        }
                    }
                }
                true
            });
            let Some((i, j)) = candidate else { break };
            if level == CacheLevelId::L2 {
                let mut span = groups[i].clone();
                span.extend(&groups[j]);
                if !covered_by_one(&span, &self.l3.groups) {
                    self.force_l3_cover(&span, epoch, events);
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
            let (merged, new_members) = merge_groups(&groups, i, j);
            match level {
                CacheLevelId::L2 => self.l2.groups = merged,
                CacheLevelId::L3 => self.l3.groups = merged,
            }
            events.push(ReconfigEvent {
                epoch,
                level,
                kind: ReconfigKind::Merge,
                members: new_members,
                asymmetric_after: !topology::is_symmetric(&self.l2.groups, &self.l3.groups),
            });
        }
    }

    fn do_splits(&mut self, level: CacheLevelId, epoch: u64, events: &mut Vec<ReconfigEvent>) {
        loop {
            let groups = match level {
                CacheLevelId::L2 => self.l2.groups.clone(),
                CacheLevelId::L3 => self.l3.groups.clone(),
            };
            let mut performed = false;
            for (gi, g) in groups.iter().enumerate() {
                if g.len() < 2 {
                    continue;
                }
                let (a, b) = halves(g);
                if !self.splittable(level, &a, &b) {
                    continue;
                }
                if level == CacheLevelId::L3 {
                    // Inclusion safety: no L2 group may straddle the split.
                    let straddles = self.l2.groups.iter().any(|l2g| {
                        l2g.iter().any(|s| a.contains(s)) && l2g.iter().any(|s| b.contains(s))
                    });
                    if straddles {
                        match self.config.policy {
                            // Merge-aggressive: keep the merge; skip the split.
                            ConflictPolicy::MergeAggressive => continue,
                            // Split-aggressive: split the straddling L2
                            // groups first.
                            ConflictPolicy::SplitAggressive => {
                                self.force_l2_split(&a, &b, epoch, events);
                            }
                        }
                    }
                }
                let mut new_groups = groups.clone();
                new_groups[gi] = a.clone();
                new_groups.push(b.clone());
                sort_groups(&mut new_groups);
                match level {
                    CacheLevelId::L2 => self.l2.groups = new_groups,
                    CacheLevelId::L3 => self.l3.groups = new_groups,
                }
                events.push(ReconfigEvent {
                    epoch,
                    level,
                    kind: ReconfigKind::Split,
                    members: g.clone(),
                    asymmetric_after: !topology::is_symmetric(&self.l2.groups, &self.l3.groups),
                });
                performed = true;
                break;
            }
            if !performed {
                break;
            }
        }
    }

    /// Whether the L3 groups covering `span` can be merged into one
    /// (always physically safe at the last level; checked here only for
    /// grouping-mode shape constraints).
    fn can_cover_l3(&self, _span: &[usize]) -> bool {
        // Merging at the last level is always physically safe (§2.2:
        // "Merging two neighboring slices of the last level cache (L3) is
        // always safe"); since L2 groups refine L3 in every grouping mode,
        // the covering chain always exists.
        true
    }

    /// Merges L3 groups until `span` is covered by one group, logging the
    /// merges.
    fn force_l3_cover(&mut self, span: &[usize], epoch: u64, events: &mut Vec<ReconfigEvent>) {
        while !covered_by_one(span, &self.l3.groups) {
            // Find two L3 groups both intersecting the span and merge them.
            let idx: Vec<usize> = self
                .l3
                .groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.iter().any(|s| span.contains(s)))
                .map(|(i, _)| i)
                .collect();
            // Internal invariant: an uncovered span must intersect at
            // least two groups. Guarded (not asserted) so a violation
            // cannot loop forever or panic a release build.
            if idx.len() < 2 {
                debug_assert!(false, "span not covered but only one intersecting group");
                break;
            }
            let (i, j) = (idx[0], idx[1]);
            let (merged, new_members) = merge_groups(&self.l3.groups, i, j);
            self.l3.groups = merged;
            events.push(ReconfigEvent {
                epoch,
                level: CacheLevelId::L3,
                kind: ReconfigKind::Merge,
                members: new_members,
                asymmetric_after: !topology::is_symmetric(&self.l2.groups, &self.l3.groups),
            });
        }
    }

    /// Splits every L2 group that straddles the `a`/`b` boundary (used by
    /// the split-aggressive policy before an L3 split).
    fn force_l2_split(
        &mut self,
        a: &[usize],
        b: &[usize],
        epoch: u64,
        events: &mut Vec<ReconfigEvent>,
    ) {
        loop {
            let straddler =
                self.l2.groups.iter().position(|g| {
                    g.iter().any(|s| a.contains(s)) && g.iter().any(|s| b.contains(s))
                });
            let Some(gi) = straddler else { break };
            let g = self.l2.groups[gi].clone();
            let (ga, gb): (Vec<usize>, Vec<usize>) = g.iter().partition(|s| a.contains(s));
            self.l2.groups[gi] = ga;
            self.l2.groups.push(gb);
            sort_groups(&mut self.l2.groups);
            events.push(ReconfigEvent {
                epoch,
                level: CacheLevelId::L2,
                kind: ReconfigKind::Split,
                members: g,
                asymmetric_after: !topology::is_symmetric(&self.l2.groups, &self.l3.groups),
            });
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

// The buddy-sibling and adjacency predicates moved to
// `crate::topology` so the static lattice model check (morph-analyzer)
// and the runtime engine provably use the same transition rules.
use crate::topology::{adjacent, buddy_siblings};

/// True if one group of `groups` contains every slice of `span`.
fn covered_by_one(span: &[usize], groups: &[Vec<usize>]) -> bool {
    groups.iter().any(|g| span.iter().all(|s| g.contains(s)))
}

/// Returns `groups` with groups `i` and `j` merged (sorted, canonical),
/// along with the merged group's members — so callers never have to
/// re-find (and unwrap) the group they just created.
fn merge_groups(groups: &[Vec<usize>], i: usize, j: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut out: Vec<Vec<usize>> = Vec::with_capacity(groups.len() - 1);
    let mut merged = groups[i].clone();
    merged.extend(groups[j].iter().copied());
    merged.sort_unstable();
    for (k, g) in groups.iter().enumerate() {
        if k != i && k != j {
            out.push(g.clone());
        }
    }
    out.push(merged.clone());
    sort_groups(&mut out);
    (out, merged)
}

/// Splits a group into its two halves by member order.
fn halves(g: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mid = g.len() / 2;
    (g[..mid].to_vec(), g[mid..].to_vec())
}

fn sort_groups(groups: &mut [Vec<usize>]) {
    for g in groups.iter_mut() {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MorphConfig;

    /// Feeds `frac` of a slice's ACFV bits as distinct inserted lines at
    /// both levels.
    fn fill(engine: &mut MorphEngine, level: CacheLevelId, slice: usize, owner: usize, frac: f64) {
        let bits = engine.config().acfv_bits;
        let n = (frac * bits as f64) as u64;
        for i in 0..n {
            // Use spread-out tags so the XOR hash sets ~distinct bits.
            engine.on_inserted(level, slice, owner, i * 8191 + slice as u64 * 7);
        }
    }

    /// Engine whose decision vectors are one-to-one with a 128-line
    /// slice, so `fill(frac)` lands at utilization ≈ `frac`.
    fn cfg() -> MorphConfig {
        MorphConfig::calibrated(128, 128)
    }

    fn fresh(n: usize) -> MorphEngine {
        MorphEngine::new(n, (0..n).collect(), cfg()).unwrap()
    }

    #[test]
    fn no_signal_no_reconfiguration() {
        let mut e = fresh(4);
        // Every slice mid-utilized: nothing happens.
        for s in 0..4 {
            fill(&mut e, CacheLevelId::L2, s, s, 0.40);
            fill(&mut e, CacheLevelId::L3, s, s, 0.40);
        }
        let out = e.reconfigure(0).unwrap();
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
        let out = e.reconfigure(0).unwrap();
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
        let out = e.reconfigure(0).unwrap();
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
            let bits = e.config().acfv_bits;
            for i in 0..((0.9 * bits as f64) as u64) {
                e.on_inserted(CacheLevelId::L2, s, s, i * 8191 + (s as u64) * 1_000_003);
                e.on_inserted(CacheLevelId::L3, s, s, i * 8191 + (s as u64) * 1_000_003);
            }
        }
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.40);
        fill(&mut e, CacheLevelId::L2, 3, 3, 0.40);
        fill(&mut e, CacheLevelId::L3, 2, 2, 0.40);
        fill(&mut e, CacheLevelId::L3, 3, 3, 0.40);
        let out = e.reconfigure(0).unwrap();
        assert!(out.l2_groups.contains(&vec![0]), "{:?}", out.l2_groups);
        assert!(out.l2_groups.contains(&vec![1]));
    }

    #[test]
    fn both_high_with_sharing_merges() {
        // Cores 0 and 1 run threads of the same app touching the same
        // lines.
        let mut e = MorphEngine::new(4, vec![7, 7, 8, 9], cfg()).unwrap();
        let bits = e.config().acfv_bits;
        for i in 0..((0.9 * bits as f64) as u64) {
            let line = i * 8191;
            e.on_inserted(CacheLevelId::L2, 0, 0, line);
            e.on_inserted(CacheLevelId::L2, 1, 1, line);
            e.on_inserted(CacheLevelId::L3, 0, 0, line);
            e.on_inserted(CacheLevelId::L3, 1, 1, line);
        }
        let out = e.reconfigure(0).unwrap();
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
    }

    #[test]
    fn merged_low_low_splits() {
        let mut e = fresh(4);
        // Round 1: force a merge via high/low.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        let out = e.reconfigure(0).unwrap();
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
        // Round 2: both halves now idle -> split back (L2 first, then L3).
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.05);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.05);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.05);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.05);
        let out2 = e.reconfigure(1).unwrap();
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
        e.reconfigure(0).unwrap();
        assert!(e.l2_groups().contains(&vec![0, 1]));
        // Now: L3 halves look idle (want split) but L2 halves look busy
        // enough to stay merged (one high one low keeps the L2 merged —
        // mergeable state persists, not splittable).
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.05);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.05);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.05);
        let out = e.reconfigure(1).unwrap();
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
        let out1 = e.reconfigure(0).unwrap();
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
        let out2 = e.reconfigure(1).unwrap();
        assert!(
            out2.l2_groups.contains(&vec![0, 1, 2, 3]),
            "{:?}",
            out2.l2_groups
        );
    }

    #[test]
    fn fig6_conflict_split_aggressive_splits() {
        let mut c = cfg();
        c.policy = ConflictPolicy::SplitAggressive;
        let mut e = MorphEngine::new(4, (0..4).collect(), c).unwrap();
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 2, 2, 0.9);
        e.reconfigure(0).unwrap();
        // Same Fig. 6 state; split-aggressive performs the splits first.
        for s in [0usize, 1] {
            fill(&mut e, CacheLevelId::L2, s, s, 0.95);
            fill(&mut e, CacheLevelId::L3, s, s, 0.95);
        }
        for s in [2usize, 3] {
            fill(&mut e, CacheLevelId::L2, s, s, 0.02);
            fill(&mut e, CacheLevelId::L3, s, s, 0.02);
        }
        let out = e.reconfigure(1).unwrap();
        // Split-aggressive performs the idle pair's split first, so the
        // quad merge of the merge-aggressive policy never happens: {2,3}
        // fall apart, and {0,1} (pressed) stays merged.
        assert!(out.l2_groups.contains(&vec![2]), "{:?}", out.l2_groups);
        assert!(out.l2_groups.contains(&vec![3]), "{:?}", out.l2_groups);
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
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
        let out = e.reconfigure(0).unwrap();
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
        let out = e.reconfigure(0).unwrap();
        assert!(!out
            .l2_groups
            .iter()
            .any(|g| g.contains(&1) && g.contains(&2)));
        // In arbitrary-contiguous mode the same signal merges {1,2}.
        let mut c = cfg();
        c.grouping = GroupingMode::ArbitraryContiguous;
        let mut e2 = MorphEngine::new(4, (0..4).collect(), c).unwrap();
        fill(&mut e2, CacheLevelId::L2, 1, 1, 0.9);
        fill(&mut e2, CacheLevelId::L2, 2, 2, 0.05);
        fill(&mut e2, CacheLevelId::L3, 1, 1, 0.9);
        fill(&mut e2, CacheLevelId::L3, 2, 2, 0.05);
        fill(&mut e2, CacheLevelId::L2, 0, 0, 0.40);
        fill(&mut e2, CacheLevelId::L2, 3, 3, 0.40);
        fill(&mut e2, CacheLevelId::L3, 0, 0, 0.40);
        fill(&mut e2, CacheLevelId::L3, 3, 3, 0.40);
        let out2 = e2.reconfigure(0).unwrap();
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
        let mut c = cfg();
        c.grouping = GroupingMode::NonNeighbor;
        let mut e = MorphEngine::new(4, (0..4).collect(), c).unwrap();
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L2, 3, 3, 0.05);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 3, 3, 0.05);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.40);
        fill(&mut e, CacheLevelId::L2, 2, 2, 0.40);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.40);
        fill(&mut e, CacheLevelId::L3, 2, 2, 0.40);
        let out = e.reconfigure(0).unwrap();
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
        let mut e =
            MorphEngine::new(4, (0..4).collect(), MorphConfig { qos: true, ..cfg() }).unwrap();
        let h0 = e.config().msat.high();
        // Round 1 with a merge.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.note_epoch_misses(&[100, 100, 100, 100]);
        let out = e.reconfigure(0).unwrap();
        assert!(out.events.iter().any(|ev| ev.kind == ReconfigKind::Merge));
        // Misses grew sharply for core 1 after the merge: throttle up.
        e.note_epoch_misses(&[100, 400, 100, 100]);
        assert!(e.config().msat.high() > h0);
        // A harmless epoch throttles back down.
        e.merged_last_round = true;
        e.note_epoch_misses(&[100, 100, 100, 100]);
        assert_eq!(e.config().msat.high(), h0);
    }

    #[test]
    fn event_log_accumulates() {
        let mut e = fresh(4);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.reconfigure(0).unwrap();
        assert!(!e.event_log().is_empty());
    }

    #[test]
    fn acfvs_reset_each_round() {
        let mut e = fresh(4);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.reconfigure(0).unwrap();
        // With no new events, utilization is zero everywhere.
        assert_eq!(e.group_utilization(CacheLevelId::L2, 0), 0.0);
    }

    #[test]
    fn sharing_merge_fires_for_moderate_replicated_pairs() {
        // Threads of one app with replicated footprints measure only Mid
        // per slice; the sharing rule must still merge them.
        let mut e = MorphEngine::new(4, vec![7, 7, 8, 9], cfg()).unwrap();
        let bits = e.config().acfv_bits;
        for i in 0..((0.42 * bits as f64) as u64) {
            let line = i * 8191;
            e.on_touched(CacheLevelId::L2, 0, 0, line);
            e.on_touched(CacheLevelId::L2, 1, 1, line);
            e.on_touched(CacheLevelId::L3, 0, 0, line);
            e.on_touched(CacheLevelId::L3, 1, 1, line);
        }
        let out = e.reconfigure(0).unwrap();
        assert!(out.l2_groups.contains(&vec![0, 1]), "{:?}", out.l2_groups);
    }

    #[test]
    fn probation_reverts_merge_that_slowed_its_group() {
        let mut e = fresh(4);
        e.note_epoch_perf(&[1.0, 1.0, 1.0, 1.0]);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        let out = e.reconfigure(0).unwrap();
        assert!(out.l3_groups.contains(&vec![0, 1]), "{:?}", out.l3_groups);
        // The merged pair's cores got much slower -> the L2 merge reverts
        // first (the L3 revert is inclusion-blocked while L2 straddles),
        // then the L3 merge reverts the round after.
        e.note_epoch_perf(&[0.4, 0.4, 1.0, 1.0]);
        let out2 = e.reconfigure(1).unwrap();
        assert!(out2.l2_groups.contains(&vec![0]), "{:?}", out2.l2_groups);
        e.note_epoch_perf(&[0.4, 0.4, 1.0, 1.0]);
        let out3 = e.reconfigure(2).unwrap();
        assert!(out3.l3_groups.contains(&vec![0]), "{:?}", out3.l3_groups);
        assert!(out3.l3_groups.contains(&vec![1]), "{:?}", out3.l3_groups);
        // And the pair is blacklisted: the same footprint signal does not
        // immediately remake the merge.
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        e.note_epoch_perf(&[1.0, 1.0, 1.0, 1.0]);
        let out4 = e.reconfigure(3).unwrap();
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
        e.reconfigure(0).unwrap();
        e.note_epoch_perf(&[1.4, 1.1, 1.0, 1.0]);
        // Keep the group moderately busy so the idle-split rule stays out
        // of the picture.
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.45);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.40);
        fill(&mut e, CacheLevelId::L2, 0, 0, 0.45);
        fill(&mut e, CacheLevelId::L2, 1, 1, 0.40);
        let out = e.reconfigure(1).unwrap();
        assert!(out.l3_groups.contains(&vec![0, 1]), "{:?}", out.l3_groups);
    }

    #[test]
    fn streaming_polluter_excluded_from_capacity_merge() {
        let mut e = fresh(4);
        // Slice 0: genuinely pressed (high reuse). Slice 1: a streamer —
        // low reuse, enormous dead churn.
        fill(&mut e, CacheLevelId::L3, 0, 0, 0.9);
        fill(&mut e, CacheLevelId::L3, 1, 1, 0.05);
        for i in 0..(3 * e.config().l3_slice_lines as u64) {
            // Never-touched lines evicted: dead churn only.
            e.on_evicted(CacheLevelId::L3, 1, 1, 1_000_000 + i * 13);
        }
        let out = e.reconfigure(0).unwrap();
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
            for i in 0..(e.config().l2_slice_lines as u64) {
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

    #[test]
    fn reconfigurations_are_partitions_with_l2_refining_l3() {
        use crate::topology::{is_partition, refines};
        for seed in 0..32 {
            let mut rng = crate::Xoshiro256pp::seed_from_u64(seed);
            let mut e =
                MorphEngine::new(4, (0..4).collect(), MorphConfig::calibrated(128, 128)).unwrap();
            let fills: Vec<(usize, u64)> = (0..rng.range_usize(0, 40))
                .map(|_| (rng.range_usize(0, 4), rng.range_u64(0, 120)))
                .collect();
            for r in 0..rng.range_u64(1, 4) {
                for &(slice, n) in &fills {
                    for i in 0..n {
                        e.on_touched(CacheLevelId::L2, slice, slice, i * 8191 + r);
                        e.on_touched(CacheLevelId::L3, slice, slice, i * 6367 + r);
                    }
                }
                let out = e.reconfigure(r).unwrap();
                assert!(is_partition(&out.l2_groups, 4), "seed {seed}");
                assert!(is_partition(&out.l3_groups, 4), "seed {seed}");
                assert!(refines(&out.l2_groups, &out.l3_groups), "seed {seed}");
            }
        }
    }

    #[test]
    fn buddy_sibling_predicate() {
        assert!(buddy_siblings(&[0, 1], &[2, 3]));
        assert!(buddy_siblings(&[2, 3], &[0, 1]));
        assert!(!buddy_siblings(&[1, 2], &[3, 4]), "unaligned");
        assert!(!buddy_siblings(&[0, 1], &[4, 5]), "not adjacent");
        assert!(!buddy_siblings(&[0], &[1, 2]), "size mismatch");
        assert!(buddy_siblings(&[0, 1, 2, 3], &[4, 5, 6, 7]));
        let _ = buddy_siblings(&[4, 5, 6, 7], &[8, 9, 10, 11]); // out-of-range ids must not panic
    }
}
