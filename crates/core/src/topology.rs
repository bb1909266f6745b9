//! Topology notation and partition helpers.
//!
//! The paper describes static cache topologies as `(x : y : z)`: each L2
//! slice group serves `x` cores, each L3 group spans `y` L2 groups, and
//! there are `z` L3 groups — so `x·y·z` equals the core count `n`. On an
//! `n`-core CMP the all-shared baseline is `(n:1:1)` and fully private is
//! `(1:1:n)`; the paper evaluates at `n = 16`, but every helper here is
//! generic over any power-of-two slice count (16 through 1024 and beyond).
//!
//! It is also the one home of the moves that reconfigure a level (merge
//! two groups, split one in two, and the L3 merges an L2 merge forces) and
//! of the partition check. The engine decides which moves to take, the
//! lattice model check in `morph-analyzer` enumerates all of them, and the
//! cache's `Grouping` and the interconnect's bus and arbiter validate
//! their groupings with [`check_partition`].
//!
//! The [`crate::symmetry`] module builds on these predicates: it exposes
//! the slice rotation/reflection symmetry group over buddy partitions and
//! the canonicalization layer the symmetry-reduced lattice model check
//! uses at large core counts.

use crate::config::GroupingMode;
use crate::error::MorphError;

/// A symmetric `(x : y : z)` topology for an `n`-core CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymmetricTopology {
    /// Cores per L2 slice group.
    pub x: usize,
    /// L2 groups per L3 group.
    pub y: usize,
    /// Number of L3 groups.
    pub z: usize,
}

impl SymmetricTopology {
    /// Creates `(x : y : z)` for an `n`-core CMP.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Topology`] if `x·y·z != n` or any component
    /// is zero; the message names the offending triple and the product
    /// constraint.
    pub fn new(x: usize, y: usize, z: usize, n: usize) -> Result<Self, MorphError> {
        if x == 0 || y == 0 || z == 0 {
            return Err(MorphError::Topology(format!(
                "({x}:{y}:{z}): components must be nonzero and the (x:y:z) \
                 product must equal the core count n = {n}"
            )));
        }
        match x.checked_mul(y).and_then(|xy| xy.checked_mul(z)) {
            Some(product) if product == n => Ok(Self { x, y, z }),
            Some(product) => Err(MorphError::Topology(format!(
                "({x}:{y}:{z}): x·y·z = {product}, but the (x:y:z) product \
                 must equal the core count n = {n}"
            ))),
            None => Err(MorphError::Topology(format!(
                "({x}:{y}:{z}): x·y·z overflows; the (x:y:z) product must \
                 equal the core count n = {n}"
            ))),
        }
    }

    /// Parses `"4:4:1"` (with or without parentheses) for an `n`-core CMP.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Topology`] naming the offending input string
    /// and the expected `(x:y:z)` product constraint.
    pub fn parse(s: &str, n: usize) -> Result<Self, MorphError> {
        let trimmed = s.trim().trim_start_matches('(').trim_end_matches(')');
        let parts: Vec<&str> = trimmed.split(':').collect();
        if parts.len() != 3 {
            return Err(MorphError::Topology(format!(
                "{s:?}: expected three ':'-separated components (x:y:z) \
                 with x·y·z = n = {n}"
            )));
        }
        let mut nums = [0usize; 3];
        for (slot, part) in nums.iter_mut().zip(&parts) {
            *slot = part.trim().parse::<usize>().map_err(|_| {
                MorphError::Topology(format!(
                    "{s:?}: component {part:?} is not a number; expected \
                     (x:y:z) with x·y·z = n = {n}"
                ))
            })?;
        }
        Self::new(nums[0], nums[1], nums[2], n).map_err(|e| match e {
            MorphError::Topology(msg) => MorphError::Topology(format!("{s:?}: {msg}")),
            other => other,
        })
    }

    /// The L2 grouping: contiguous groups of `x` slices.
    pub fn l2_groups(&self) -> Vec<Vec<usize>> {
        contiguous_groups(self.x * self.y * self.z, self.x)
    }

    /// The L3 grouping: contiguous groups of `x·y` slices.
    pub fn l3_groups(&self) -> Vec<Vec<usize>> {
        contiguous_groups(self.x * self.y * self.z, self.x * self.y)
    }

    /// The paper's notation, e.g. `"(4:4:1)"`.
    pub fn notation(&self) -> String {
        format!("({}:{}:{})", self.x, self.y, self.z)
    }

    /// The static comparison set for an `n`-core CMP, baseline `(n:1:1)`
    /// first: all-shared, fully private, the balanced mid-point
    /// `(2^⌊k/2⌋ : 2^⌈k/2⌉ : 1)`, the half-shared `(n/2:2:1)`, and
    /// per-core L2 under one shared L3 `(1:n:1)`. Duplicates that arise
    /// at small `n` are removed, preserving order. At `n = 16` this is
    /// bit-identical to the five static topologies the paper evaluates.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Topology`] if `n` is not a power of two of
    /// at least 2 (buddy grouping needs power-of-two slice counts).
    pub fn static_set(n: usize) -> Result<Vec<SymmetricTopology>, MorphError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(MorphError::Topology(format!(
                "static set needs a power-of-two core count >= 2, got {n}"
            )));
        }
        let k = n.trailing_zeros() as usize;
        let candidates = [
            (n, 1, 1),
            (1, 1, n),
            (1 << (k / 2), 1 << (k - k / 2), 1),
            (n / 2, 2, 1),
            (1, n, 1),
        ];
        let mut out: Vec<SymmetricTopology> = Vec::new();
        for (x, y, z) in candidates {
            let t = SymmetricTopology::new(x, y, z, n)?;
            if !out.contains(&t) {
                out.push(t);
            }
        }
        Ok(out)
    }
}

impl std::fmt::Display for SymmetricTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.notation())
    }
}

/// Contiguous groups of `size` slices covering `0..n`.
pub fn contiguous_groups(n: usize, size: usize) -> Vec<Vec<usize>> {
    (0..n)
        .step_by(size)
        .map(|s| (s..s + size).collect())
        .collect()
}

/// Checks that `groups` is a partition of `0..n`.
///
/// # Errors
///
/// Returns [`MorphError::Grouping`] naming the first defect, in group and
/// member order: an empty group, a slice out of range, a slice in two
/// groups, or (after all groups) a slice in no group.
pub fn check_partition(groups: &[Vec<usize>], n: usize) -> Result<(), MorphError> {
    let mut seen = vec![false; n];
    for g in groups {
        if g.is_empty() {
            return Err(MorphError::Grouping("empty group".into()));
        }
        for &s in g {
            if s >= n {
                return Err(MorphError::Grouping(format!(
                    "slice {s} out of range for level with {n} slices"
                )));
            }
            if std::mem::replace(&mut seen[s], true) {
                return Err(MorphError::Grouping(format!(
                    "slice {s} appears in more than one group"
                )));
            }
        }
    }
    match seen.iter().position(|&covered| !covered) {
        Some(s) => Err(MorphError::Grouping(format!("slice {s} is in no group"))),
        None => Ok(()),
    }
}

/// True if `groups` is a partition of `0..n` (see [`check_partition`]).
pub fn is_partition(groups: &[Vec<usize>], n: usize) -> bool {
    check_partition(groups, n).is_ok()
}

/// True if every group of `finer` lies within one group of `coarser`.
pub fn refines(finer: &[Vec<usize>], coarser: &[Vec<usize>]) -> bool {
    let group_of = |s: usize| coarser.iter().position(|g| g.contains(&s));
    finer.iter().all(|g| {
        let first = group_of(g[0]);
        first.is_some() && g.iter().all(|&s| group_of(s) == first)
    })
}

/// True if the combined (L2, L3) configuration is symmetric: all groups at
/// each level have equal size (the §2.4 asymmetry statistic counts the
/// complement).
pub fn is_symmetric(l2: &[Vec<usize>], l3: &[Vec<usize>]) -> bool {
    let uniform = |gs: &[Vec<usize>]| gs.iter().all(|g| g.len() == gs[0].len());
    uniform(l2) && uniform(l3)
}

/// The *meet* (common refinement) of two partitions: every nonempty
/// pairwise intersection becomes a group. Used to sequence grouping
/// transitions safely: the meet refines both inputs, so it can always be
/// installed at L2 before the L3 grouping changes.
pub fn meet(a: &[Vec<usize>], b: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for ga in a {
        for gb in b {
            let mut inter: Vec<usize> = ga.iter().copied().filter(|s| gb.contains(s)).collect();
            if !inter.is_empty() {
                inter.sort_unstable();
                out.push(inter);
            }
        }
    }
    out.sort_by_key(|g| g[0]);
    out
}

/// The smallest power-of-two contiguous span physically covering `group`
/// (the §5.5 "physical groups that are supersets of the required logical
/// groups"). Used to derive the latency penalty of relaxed groupings.
pub fn covering_pow2_span(group: &[usize]) -> usize {
    // An empty group covers no slices; span 1 matches the all-singleton
    // convention of max_covering_span. Real call sites pass groups from
    // is_partition-validated groupings, which are non-empty.
    let (min, max) = match (group.iter().min(), group.iter().max()) {
        (Some(&lo), Some(&hi)) => (lo, hi),
        _ => return 1,
    };
    (max - min + 1).next_power_of_two()
}

/// The largest covering power-of-two span over all groups of a grouping
/// (1 for all-singleton groupings). The NUCA latency model charges merged
/// hits by how far this worst span reaches across the die.
pub fn max_covering_span(groups: &[Vec<usize>]) -> usize {
    groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| covering_pow2_span(g))
        .max()
        .unwrap_or(1)
}

/// True if `a` and `b` are *buddy siblings*: equal power-of-two-sized
/// contiguous ranges that are the two halves of one aligned block twice
/// their size. Buddy-sibling merges are the only merges the
/// `BuddyPowerOfTwo` grouping mode performs, which keeps every group a
/// hardware-mappable aligned segment of the bus.
pub fn buddy_siblings(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() || !a.len().is_power_of_two() || !adjacent(a, b) {
        return false;
    }
    a[0].min(b[0]).is_multiple_of(2 * a.len())
}

/// True if `a` and `b` are adjacent contiguous ranges (either order).
pub fn adjacent(a: &[usize], b: &[usize]) -> bool {
    if !ascending_range(a) || !ascending_range(b) {
        return false;
    }
    let (lo, hi) = if a[0] < b[0] { (a, b) } else { (b, a) };
    hi[0] == lo[lo.len() - 1] + 1
}

/// True if `group` lists consecutive slices in ascending order.
fn ascending_range(group: &[usize]) -> bool {
    group.windows(2).all(|w| w[1] == w[0] + 1)
}

/// True if `group` is a *buddy block*: a contiguous ascending range of
/// power-of-two length, aligned to its own size.
pub fn is_buddy_block(group: &[usize]) -> bool {
    group.len().is_power_of_two() && ascending_range(group) && group[0].is_multiple_of(group.len())
}

/// The pairs of group indices `(i, j)`, `i < j`, that `mode` allows to
/// merge: buddy siblings, adjacent ranges, or any two groups.
pub fn merge_candidates(groups: &[Vec<usize>], mode: GroupingMode) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..groups.len() {
        for j in i + 1..groups.len() {
            let (a, b) = (&groups[i], &groups[j]);
            let allowed = match mode {
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

/// Groups `i` and `j` (`i != j`) of `groups` merged into one. Returns
/// the new grouping in canonical order (members ascending, groups sorted
/// by first member) and the merged group's members.
pub fn merge(groups: &[Vec<usize>], i: usize, j: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut merged = [groups[i].as_slice(), &groups[j]].concat();
    merged.sort_unstable();
    let mut out = groups.to_vec();
    out[i] = merged.clone();
    out.remove(j);
    (canonical(out), merged)
}

/// Group `i` of `groups` split into the parts `a` and `b`, which must
/// partition it, in canonical order. A split in halves passes
/// [`halves`]; reverting a merge passes the two groups it joined.
pub fn split(groups: &[Vec<usize>], i: usize, a: &[usize], b: &[usize]) -> Vec<Vec<usize>> {
    let mut out = groups.to_vec();
    out[i] = a.to_vec();
    out.push(b.to_vec());
    canonical(out)
}

/// A group's two halves by member order, or `None` for a group of fewer
/// than two slices, which has nothing to split.
pub fn halves(group: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
    if group.len() < 2 {
        return None;
    }
    let (a, b) = group.split_at(group.len() / 2);
    Some((a.to_vec(), b.to_vec()))
}

/// True if a group of `groups` holds slices of both `a` and `b`. An L3
/// group may not split into `a` and `b` while an L2 group straddles them:
/// that L2 group would no longer lie within one L3 group (§2.3).
pub fn straddles(groups: &[Vec<usize>], a: &[usize], b: &[usize]) -> bool {
    groups
        .iter()
        .any(|g| g.iter().any(|s| a.contains(s)) && g.iter().any(|s| b.contains(s)))
}

/// The next L3 merge that an L2 merge of `span` forces: the first two
/// groups of the partition `l3` that meet `span`, or `None` once one
/// group covers it. Merging the returned pair until `None` leaves one L3
/// group covering the span, which keeps L2 refining L3; merging at the
/// last level is always safe (§2.2).
pub fn cover_step(l3: &[Vec<usize>], span: &[usize]) -> Option<(usize, usize)> {
    let mut meeting = l3
        .iter()
        .enumerate()
        .filter(|(_, g)| g.iter().any(|s| span.contains(s)))
        .map(|(k, _)| k);
    Some((meeting.next()?, meeting.next()?))
}

/// Sorts each group's members, then the groups by first member.
fn canonical(mut groups: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);
    groups
}

/// True if `groups` is a partition of `0..n` into *buddy blocks*:
/// contiguous power-of-two-sized ranges, each aligned to its own size.
/// These are exactly the partitions reachable by buddy merges and splits,
/// and exactly the group shapes the arbiter tree can be configured for.
pub fn is_buddy_partition(groups: &[Vec<usize>], n: usize) -> bool {
    is_partition(groups, n) && groups.iter().all(|g| is_buddy_block(g))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notation_round_trip() {
        let t = SymmetricTopology::parse("(4:4:1)", 16).unwrap();
        assert_eq!(t.notation(), "(4:4:1)");
        assert_eq!(SymmetricTopology::parse("1:1:16", 16).unwrap().x, 1);
        assert!(SymmetricTopology::parse("4:4:2", 16).is_err());
        assert!(SymmetricTopology::parse("4:4", 16).is_err());
        assert!(SymmetricTopology::parse("a:b:c", 16).is_err());
    }

    #[test]
    fn parse_errors_name_the_input_and_the_product_constraint() {
        // Pinned messages: the offending string and the x·y·z = n
        // constraint must both appear, so CLI users see exactly what was
        // rejected and why.
        let err = SymmetricTopology::parse("4:4:2", 16).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid topology: \"4:4:2\": (4:4:2): x·y·z = 32, but the \
             (x:y:z) product must equal the core count n = 16"
        );
        let err = SymmetricTopology::parse("4:4", 16).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid topology: \"4:4\": expected three ':'-separated \
             components (x:y:z) with x·y·z = n = 16"
        );
        let err = SymmetricTopology::parse("a:b:c", 64).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid topology: \"a:b:c\": component \"a\" is not a number; \
             expected (x:y:z) with x·y·z = n = 64"
        );
        let err = SymmetricTopology::new(0, 4, 1, 4).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid topology: (0:4:1): components must be nonzero and the \
             (x:y:z) product must equal the core count n = 4"
        );
    }

    /// One generated `(x:y:z)` component: near `usize::MAX`, a power of
    /// two, zero, small, too large for `usize`, or not a number.
    fn fuzz_component(rng: &mut crate::Xoshiro256pp) -> String {
        match rng.range_usize(0, 6) {
            0 => (usize::MAX - rng.range_usize(0, 4)).to_string(),
            1 => (1usize << rng.range_usize(0, usize::BITS as usize)).to_string(),
            2 => "0".into(),
            3 => rng.range_usize(1, 33).to_string(),
            4 => format!("{}0", usize::MAX),
            _ => ["", " ", "-1", "x", "1.5"][rng.range_usize(0, 5)].into(),
        }
    }

    #[test]
    fn parse_never_panics_and_accepts_only_covering_triples() {
        // (2^63 + 8)·2·1 wraps around to 16 in unchecked arithmetic.
        assert!(SymmetricTopology::parse("9223372036854775816:2:1", 16).is_err());
        let mut rng = crate::Xoshiro256pp::seed_from_u64(0x7090);
        for i in 0..20_000 {
            let n = 1usize << rng.range_usize(0, 11);
            let mut parts: Vec<String> = (0..rng.range_usize(1, 5))
                .map(|_| fuzz_component(&mut rng))
                .collect();
            if i % 4 == 0 {
                // A triple whose product wraps around to exactly n:
                // (2^(BITS-k) + n/2^k) · 2^k · 1.
                let k = rng.range_usize(1, 4);
                let x = (1usize << (usize::BITS as usize - k)) + (n >> k);
                parts = vec![x.to_string(), (1usize << k).to_string(), "1".into()];
                parts.rotate_left(rng.range_usize(0, 3));
            }
            let body = parts.join(":");
            let s = match rng.range_usize(0, 4) {
                0 => body,
                1 => format!("({body})"),
                2 => format!(" ( {body} ) "),
                _ => format!("({body}"),
            };
            if let Ok(t) = SymmetricTopology::parse(&s, n) {
                let product = t.x.checked_mul(t.y).and_then(|xy| xy.checked_mul(t.z));
                assert_eq!(product, Some(n), "{s:?} accepted for n = {n}");
            }
        }
    }

    #[test]
    fn groupings_match_paper_semantics() {
        // (4:4:1): L2 groups of 4 slices, one all-shared L3.
        let t = SymmetricTopology::new(4, 4, 1, 16).unwrap();
        let l2 = t.l2_groups();
        let l3 = t.l3_groups();
        assert_eq!(l2.len(), 4);
        assert_eq!(l2[1], vec![4, 5, 6, 7]);
        assert_eq!(l3.len(), 1);
        assert_eq!(l3[0].len(), 16);
        assert!(refines(&l2, &l3));
    }

    #[test]
    fn baseline_and_private_generalize_over_n() {
        for n in [4usize, 16, 64, 256] {
            let base = SymmetricTopology::new(n, 1, 1, n).unwrap();
            assert_eq!(base.l2_groups().len(), 1, "n={n}");
            assert_eq!(base.l3_groups().len(), 1, "n={n}");
            let private = SymmetricTopology::new(1, 1, n, n).unwrap();
            assert_eq!(private.l2_groups().len(), n, "n={n}");
            assert_eq!(private.l3_groups().len(), n, "n={n}");
        }
    }

    #[test]
    fn per_core_l2_shared_l3() {
        // (1:n:1): per-core L2 slices, one shared L3.
        for n in [16usize, 64] {
            let t = SymmetricTopology::new(1, n, 1, n).unwrap();
            assert_eq!(t.l2_groups().len(), n);
            assert_eq!(t.l3_groups().len(), 1);
        }
    }

    #[test]
    fn paper_static_set_contents() {
        // At n = 16 the generic construction is the paper's five static
        // topologies, baseline first.
        let set = SymmetricTopology::static_set(16).unwrap();
        let names: Vec<String> = set.iter().map(|t| t.notation()).collect();
        assert_eq!(
            names,
            vec!["(16:1:1)", "(1:1:16)", "(4:4:1)", "(8:2:1)", "(1:16:1)"]
        );
    }

    #[test]
    fn static_set_generic() {
        let names = |n: usize| -> Vec<String> {
            SymmetricTopology::static_set(n)
                .unwrap()
                .iter()
                .map(|t| t.notation())
                .collect()
        };
        assert_eq!(
            names(64),
            vec!["(64:1:1)", "(1:1:64)", "(8:8:1)", "(32:2:1)", "(1:64:1)"]
        );
        assert_eq!(
            names(8),
            vec!["(8:1:1)", "(1:1:8)", "(2:4:1)", "(4:2:1)", "(1:8:1)"]
        );
        // Small n collapses duplicates but keeps the baseline first.
        assert_eq!(names(2), vec!["(2:1:1)", "(1:1:2)", "(1:2:1)"]);
        for n in [4usize, 64, 256, 1024] {
            for t in SymmetricTopology::static_set(n).unwrap() {
                assert_eq!(t.x * t.y * t.z, n, "n={n}");
            }
        }
        assert!(SymmetricTopology::static_set(0).is_err());
        assert!(SymmetricTopology::static_set(12).is_err());
    }

    #[test]
    fn partition_and_refinement_checks() {
        let a = contiguous_groups(8, 2);
        assert!(is_partition(&a, 8));
        assert!(!is_partition(&a, 9));
        assert!(!is_partition(&[vec![0], vec![0, 1]], 2));
        let _ = is_partition(&[vec![]], 0); // degenerate input must not panic
        let coarse = contiguous_groups(8, 4);
        assert!(refines(&a, &coarse));
        assert!(!refines(&coarse, &a));
    }

    #[test]
    fn symmetry_detection() {
        let l2 = contiguous_groups(8, 2);
        let l3 = contiguous_groups(8, 4);
        assert!(is_symmetric(&l2, &l3));
        let asym = vec![vec![0, 1, 2, 3], vec![4, 5], vec![6], vec![7]];
        assert!(!is_symmetric(&asym, &l3));
    }

    /// A seeded random buddy partition of the aligned block
    /// `lo..lo + size`, appended to `out`.
    fn random_buddy_partition(
        rng: &mut crate::Xoshiro256pp,
        lo: usize,
        size: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if size == 1 || rng.gen_bool(0.4) {
            out.push((lo..lo + size).collect());
        } else {
            random_buddy_partition(rng, lo, size / 2, out);
            random_buddy_partition(rng, lo + size / 2, size / 2, out);
        }
    }

    #[test]
    fn meet_is_common_refinement() {
        let a = contiguous_groups(8, 4);
        let b = contiguous_groups(8, 2);
        let m = meet(&a, &b);
        assert_eq!(m, contiguous_groups(8, 2));
        assert!(refines(&m, &a));
        assert!(refines(&m, &b));
        // Crossing partitions.
        let c = vec![vec![0, 1, 2], vec![3, 4, 5, 6, 7]];
        let m2 = meet(&a, &c);
        assert!(is_partition(&m2, 8));
        assert!(refines(&m2, &a));
        assert!(refines(&m2, &c));
        assert!(m2.contains(&vec![3]));
        for seed in 0..256 {
            let mut rng = crate::Xoshiro256pp::seed_from_u64(seed);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            random_buddy_partition(&mut rng, 0, 8, &mut a);
            random_buddy_partition(&mut rng, 0, 8, &mut b);
            assert!(is_buddy_partition(&a, 8) && is_buddy_partition(&b, 8));
            let m = meet(&a, &b);
            assert!(is_partition(&m, 8), "seed {seed}");
            assert!(refines(&m, &a) && refines(&m, &b), "seed {seed}");
        }
    }

    #[test]
    fn buddy_sibling_detection() {
        assert!(buddy_siblings(&[0, 1], &[2, 3]));
        assert!(buddy_siblings(&[2, 3], &[0, 1]));
        assert!(buddy_siblings(&[0, 1, 2, 3], &[4, 5, 6, 7]));
        assert!(!buddy_siblings(&[2, 3], &[4, 5])); // halves of different parents
        assert!(!buddy_siblings(&[1, 2], &[3, 4])); // unaligned
        assert!(!buddy_siblings(&[0, 1], &[4, 5])); // not adjacent
        assert!(!buddy_siblings(&[0, 1], &[2, 3, 4, 5])); // size mismatch
        assert!(!buddy_siblings(&[0], &[1, 2])); // size mismatch
        assert!(!buddy_siblings(&[0, 2], &[1, 3])); // not contiguous
        let _ = buddy_siblings(&[4, 5, 6, 7], &[8, 9, 10, 11]); // out-of-range ids must not panic
        assert!(adjacent(&[2, 3], &[4, 5]));
        assert!(!adjacent(&[0, 1], &[4, 5]));
    }

    #[test]
    fn check_partition_names_each_defect() {
        for (groups, message) in [
            (vec![vec![0, 1], vec![]], "empty group"),
            (
                vec![vec![0, 1], vec![2, 3, 9]],
                "slice 9 out of range for level with 4 slices",
            ),
            (
                vec![vec![0, 1], vec![1, 2, 3]],
                "slice 1 appears in more than one group",
            ),
            (vec![vec![0, 1], vec![3]], "slice 2 is in no group"),
        ] {
            let err = Err(MorphError::Grouping(message.into()));
            assert_eq!(check_partition(&groups, 4), err);
            assert!(!is_partition(&groups, 4));
        }
        assert_eq!(check_partition(&[vec![2, 0], vec![1, 3]], 4), Ok(()));
    }

    #[test]
    fn merge_returns_canonical_order_and_the_merged_members() {
        let groups = vec![vec![0], vec![1, 2], vec![3], vec![4]];
        let (merged, members) = merge(&groups, 3, 0);
        assert_eq!(merged, vec![vec![0, 4], vec![1, 2], vec![3]]);
        assert_eq!(members, vec![0, 4]);
        let (merged, members) = merge(&groups, 1, 2);
        assert_eq!(merged, vec![vec![0], vec![1, 2, 3], vec![4]]);
        assert_eq!(members, vec![1, 2, 3]);
    }

    #[test]
    fn split_installs_the_two_given_parts() {
        let groups = vec![vec![0, 1, 2, 3], vec![4, 5]];
        assert_eq!(halves(&groups[0]), Some((vec![0, 1], vec![2, 3])));
        assert_eq!(halves(&[7]), None);
        assert_eq!(
            split(&groups, 0, &[0, 1], &[2, 3]),
            vec![vec![0, 1], vec![2, 3], vec![4, 5]]
        );
        // A probation revert restores recorded parts, which need not be
        // positional halves.
        let nn = vec![vec![0, 2, 3], vec![1]];
        assert_eq!(
            split(&nn, 0, &[0, 3], &[2]),
            vec![vec![0, 3], vec![1], vec![2]]
        );
        // Splitting one of two merged groups undoes that merge.
        let (merged, _) = merge(&groups, 0, 1);
        assert_eq!(split(&merged, 0, &[4, 5], &[0, 1, 2, 3]), groups);
    }

    #[test]
    fn straddles_finds_a_group_holding_both_parts() {
        let l2 = vec![vec![0], vec![1, 2], vec![3]];
        assert!(straddles(&l2, &[0, 1], &[2, 3]));
        assert!(!straddles(&l2, &[0], &[1, 2, 3]));
    }

    #[test]
    fn cover_step_merges_until_one_group_covers_the_span() {
        assert_eq!(cover_step(&[vec![0, 1], vec![2, 3]], &[0, 1]), None);
        assert_eq!(
            cover_step(&[vec![0], vec![1], vec![2, 3]], &[1, 2]),
            Some((1, 2))
        );
        let mut l3: Vec<Vec<usize>> = (0..5).map(|s| vec![s]).collect();
        let span = [0, 2, 4];
        let mut steps = 0;
        while let Some((a, b)) = cover_step(&l3, &span) {
            l3 = merge(&l3, a, b).0;
            steps += 1;
        }
        assert_eq!(steps, 2);
        assert_eq!(l3, vec![vec![0, 2, 4], vec![1], vec![3]]);
    }

    #[test]
    fn merge_candidates_follow_the_grouping_mode() {
        let groups = vec![vec![0, 1], vec![2, 3], vec![4], vec![5]];
        for (mode, pairs) in [
            (GroupingMode::BuddyPowerOfTwo, vec![(0, 1), (2, 3)]),
            (
                GroupingMode::ArbitraryContiguous,
                vec![(0, 1), (1, 2), (2, 3)],
            ),
            (
                GroupingMode::NonNeighbor,
                vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            ),
        ] {
            assert_eq!(merge_candidates(&groups, mode), pairs, "{mode:?}");
        }
    }

    #[test]
    fn buddy_partition_detection() {
        assert!(is_buddy_partition(&contiguous_groups(8, 2), 8));
        assert!(is_buddy_partition(
            &[vec![0, 1, 2, 3], vec![4, 5], vec![6], vec![7]],
            8
        ));
        assert!(!is_buddy_partition(&[vec![0], vec![1, 2], vec![3]], 4)); // unaligned
        assert!(!is_buddy_partition(&[vec![0, 1, 2], vec![3]], 4)); // not pow2
        assert!(!is_buddy_partition(&[vec![0, 1], vec![2, 3]], 8)); // incomplete
    }

    #[test]
    fn covering_span() {
        assert_eq!(covering_pow2_span(&[0, 1]), 2);
        assert_eq!(covering_pow2_span(&[0, 1, 2]), 4);
        assert_eq!(covering_pow2_span(&[1, 7]), 8);
        assert_eq!(covering_pow2_span(&[5]), 1);
        assert_eq!(max_covering_span(&[vec![0, 1], vec![2, 3, 4, 5]]), 4);
        assert_eq!(max_covering_span(&[vec![0], vec![1]]), 1);
        assert_eq!(max_covering_span(&[]), 1);
        // The span is the smallest power of two covering the members'
        // extent.
        for seed in 0..256 {
            let mut rng = crate::Xoshiro256pp::seed_from_u64(seed);
            let group: std::collections::BTreeSet<usize> = (0..rng.range_usize(1, 8))
                .map(|_| rng.range_usize(0, 16))
                .collect();
            let group: Vec<usize> = group.into_iter().collect();
            let extent = group[group.len() - 1] - group[0] + 1;
            let span = covering_pow2_span(&group);
            assert!(span.is_power_of_two(), "{group:?}");
            assert!(span >= extent && span < 2 * extent, "{group:?} -> {span}");
        }
    }
}
