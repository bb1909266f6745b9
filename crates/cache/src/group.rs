//! Slice groupings: which slices of a level are merged together.
//!
//! A [`Grouping`] is a partition of the slice identifiers of one cache
//! level. Each block of the partition is a *shared group*: its member
//! slices behave as one cache whose associativity is the concatenation of
//! the members' ways (§2.2 footnote 1). The paper's five slice modes —
//! private, dual-, quad-, oct- and all-shared — plus the asymmetric
//! topologies of Fig. 3 are all expressible as groupings.

use crate::{ConfigError, SliceId};

/// A partition of `n` slices into shared groups.
///
/// Invariants (enforced by all constructors and mutators):
/// * every slice belongs to exactly one group;
/// * group member lists are sorted ascending;
/// * groups are non-empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    /// `group_of[s]` is the index into `groups` for slice `s`.
    group_of: Vec<usize>,
    /// Member slices of each group, each sorted ascending.
    groups: Vec<Vec<SliceId>>,
}

impl Grouping {
    /// All slices private: `n` singleton groups.
    pub fn private(n: usize) -> Self {
        Self {
            group_of: (0..n).collect(),
            groups: (0..n).map(|s| vec![s]).collect(),
        }
    }

    /// One group containing all `n` slices (all-shared).
    pub fn all_shared(n: usize) -> Self {
        Self {
            group_of: vec![0; n],
            groups: vec![(0..n).collect()],
        }
    }

    /// Contiguous groups of `group_size` slices each: slices
    /// `[0..g)`, `[g..2g)`, ...
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGrouping`] if `group_size` does not
    /// divide `n` or is zero.
    pub fn contiguous(n: usize, group_size: usize) -> Result<Self, ConfigError> {
        if group_size == 0 || !n.is_multiple_of(group_size) {
            return Err(ConfigError::InvalidGrouping(format!(
                "group size {group_size} does not divide slice count {n}"
            )));
        }
        let mut groups = Vec::with_capacity(n / group_size);
        let mut group_of = vec![0; n];
        for (g, start) in (0..n).step_by(group_size).enumerate() {
            let members: Vec<SliceId> = (start..start + group_size).collect();
            for &s in &members {
                group_of[s] = g;
            }
            groups.push(members);
        }
        Ok(Self { group_of, groups })
    }

    /// Builds a grouping from explicit member lists.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGrouping`] if the lists are not a
    /// partition of `0..n` or any group is empty.
    pub fn from_groups(n: usize, groups: Vec<Vec<SliceId>>) -> Result<Self, ConfigError> {
        let mut group_of = vec![usize::MAX; n];
        let mut sorted_groups = Vec::with_capacity(groups.len());
        for (g, mut members) in groups.into_iter().enumerate() {
            if members.is_empty() {
                return Err(ConfigError::InvalidGrouping("empty group".into()));
            }
            members.sort_unstable();
            for &s in &members {
                if s >= n {
                    return Err(ConfigError::SliceOutOfRange(s, n));
                }
                if group_of[s] != usize::MAX {
                    return Err(ConfigError::InvalidGrouping(format!(
                        "slice {s} appears in more than one group"
                    )));
                }
                group_of[s] = g;
            }
            sorted_groups.push(members);
        }
        if let Some(s) = group_of.iter().position(|&g| g == usize::MAX) {
            return Err(ConfigError::InvalidGrouping(format!(
                "slice {s} is in no group"
            )));
        }
        Ok(Self {
            group_of,
            groups: sorted_groups,
        })
    }

    /// Number of slices covered.
    pub fn n_slices(&self) -> usize {
        self.group_of.len()
    }

    /// Number of groups in the partition.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The group index for `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range.
    pub fn group_of(&self, slice: SliceId) -> usize {
        self.group_of[slice]
    }

    /// Members of group `g`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn members(&self, g: usize) -> &[SliceId] {
        &self.groups[g]
    }

    /// Members of the group containing `slice`.
    pub fn group_members(&self, slice: SliceId) -> &[SliceId] {
        self.members(self.group_of(slice))
    }

    /// Iterator over all groups.
    pub fn iter(&self) -> impl Iterator<Item = &[SliceId]> {
        self.groups.iter().map(|g| g.as_slice())
    }

    /// Merges the groups containing `a` and `b` into one group.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either slice is out of range, or if both
    /// already belong to the same group.
    pub fn merge_pair(&mut self, a: SliceId, b: SliceId) -> Result<(), ConfigError> {
        let n = self.n_slices();
        if a >= n {
            return Err(ConfigError::SliceOutOfRange(a, n));
        }
        if b >= n {
            return Err(ConfigError::SliceOutOfRange(b, n));
        }
        let (ga, gb) = (self.group_of[a], self.group_of[b]);
        if ga == gb {
            return Err(ConfigError::InvalidGrouping(format!(
                "slices {a} and {b} are already in the same group"
            )));
        }
        let (keep, drop) = (ga.min(gb), ga.max(gb));
        let moved = std::mem::take(&mut self.groups[drop]);
        self.groups[keep].extend(moved);
        self.groups[keep].sort_unstable();
        self.groups.remove(drop);
        self.rebuild_index();
        Ok(())
    }

    /// Splits the group containing `slice` into two groups: members `< at`
    /// and members `>= at` (by slice id).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGrouping`] if the split would leave an
    /// empty side (e.g. splitting a singleton group).
    pub fn split_at(&mut self, slice: SliceId, at: SliceId) -> Result<(), ConfigError> {
        let n = self.n_slices();
        if slice >= n {
            return Err(ConfigError::SliceOutOfRange(slice, n));
        }
        let g = self.group_of[slice];
        let (low, high): (Vec<_>, Vec<_>) = self.groups[g].iter().partition(|&&s| s < at);
        if low.is_empty() || high.is_empty() {
            return Err(ConfigError::InvalidGrouping(format!(
                "split at {at} leaves an empty side"
            )));
        }
        self.groups[g] = low;
        self.groups.push(high);
        self.rebuild_index();
        Ok(())
    }

    /// True if every group of `self` is contained in a single group of
    /// `coarser` — i.e. `self` refines `coarser`. The hierarchy requires
    /// the L2 grouping to refine the L3 grouping (inclusion safety,
    /// §2.2–2.3).
    pub fn refines(&self, coarser: &Grouping) -> bool {
        if self.n_slices() != coarser.n_slices() {
            return false;
        }
        self.groups.iter().all(|members| {
            let g0 = coarser.group_of(members[0]);
            members.iter().all(|&s| coarser.group_of(s) == g0)
        })
    }

    /// True if every group is an aligned power-of-two range of consecutive
    /// slices — the "buddy" restriction of the default MorphCache design
    /// (neighbor-only sharing among 2/4/8/16 slices, relaxed in §5.5).
    pub fn is_buddy_aligned(&self) -> bool {
        self.groups.iter().all(|members| {
            let len = members.len();
            len.is_power_of_two()
                && members[0] % len == 0
                && members.windows(2).all(|w| w[1] == w[0] + 1)
        })
    }

    /// True if every group consists of consecutive slices (no alignment or
    /// power-of-two requirement) — the "arbitrary neighboring group sizes"
    /// extension of §5.5.
    pub fn is_contiguous(&self) -> bool {
        self.groups
            .iter()
            .all(|members| members.windows(2).all(|w| w[1] == w[0] + 1))
    }

    /// A canonical string such as `[0-3][4-5][6][7]` describing the
    /// partition, with non-contiguous groups listed element-wise.
    pub fn describe(&self) -> String {
        let mut groups: Vec<&Vec<SliceId>> = self.groups.iter().collect();
        groups.sort_by_key(|g| g[0]);
        let mut out = String::new();
        for g in groups {
            let contiguous = g.windows(2).all(|w| w[1] == w[0] + 1);
            if contiguous && g.len() > 1 {
                out.push_str(&format!("[{}-{}]", g[0], g[g.len() - 1]));
            } else if g.len() == 1 {
                out.push_str(&format!("[{}]", g[0]));
            } else {
                let items: Vec<String> = g.iter().map(|s| s.to_string()).collect();
                out.push_str(&format!("[{}]", items.join(",")));
            }
        }
        out
    }

    fn rebuild_index(&mut self) {
        for (g, members) in self.groups.iter().enumerate() {
            for &s in members {
                self.group_of[s] = g;
            }
        }
    }
}

impl std::fmt::Display for Grouping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_is_singletons() {
        let g = Grouping::private(4);
        assert_eq!(g.n_groups(), 4);
        assert!(g.is_buddy_aligned());
        for s in 0..4 {
            assert_eq!(g.group_members(s), &[s]);
        }
    }

    #[test]
    fn all_shared_is_one_group() {
        let g = Grouping::all_shared(16);
        assert_eq!(g.n_groups(), 1);
        assert_eq!(g.members(0).len(), 16);
        assert!(g.is_buddy_aligned());
    }

    #[test]
    fn contiguous_grouping() {
        let g = Grouping::contiguous(16, 4).unwrap();
        assert_eq!(g.n_groups(), 4);
        assert_eq!(g.group_members(5), &[4, 5, 6, 7]);
        assert!(g.is_buddy_aligned());
        assert!(Grouping::contiguous(16, 3).is_err());
        assert!(Grouping::contiguous(16, 0).is_err());
    }

    #[test]
    fn from_groups_validates_partition() {
        assert!(Grouping::from_groups(4, vec![vec![0, 1], vec![2, 3]]).is_ok());
        assert!(Grouping::from_groups(4, vec![vec![0, 1], vec![1, 2, 3]]).is_err());
        assert!(Grouping::from_groups(4, vec![vec![0, 1], vec![3]]).is_err());
        assert!(Grouping::from_groups(4, vec![vec![0, 1, 2, 3], vec![]]).is_err());
        assert!(Grouping::from_groups(4, vec![vec![0, 1, 2, 4]]).is_err());
    }

    #[test]
    fn merge_pair_combines_groups() {
        let mut g = Grouping::private(8);
        g.merge_pair(2, 3).unwrap();
        assert_eq!(g.group_members(2), &[2, 3]);
        assert_eq!(g.n_groups(), 7);
        // Merging already-merged slices fails.
        assert!(g.merge_pair(2, 3).is_err());
        // Merge the dual with another dual -> quad.
        g.merge_pair(0, 1).unwrap();
        g.merge_pair(0, 2).unwrap();
        assert_eq!(g.group_members(1), &[0, 1, 2, 3]);
        assert!(g.is_buddy_aligned());
    }

    #[test]
    fn split_at_divides_group() {
        let mut g = Grouping::all_shared(8);
        g.split_at(0, 4).unwrap();
        assert_eq!(g.group_members(0), &[0, 1, 2, 3]);
        assert_eq!(g.group_members(5), &[4, 5, 6, 7]);
        assert!(g.split_at(6, 4).is_err(), "empty side split must fail");
        assert!(g.is_buddy_aligned());
    }

    #[test]
    fn refinement_relation() {
        let l3 = Grouping::contiguous(8, 4).unwrap();
        let l2 = Grouping::contiguous(8, 2).unwrap();
        assert!(l2.refines(&l3));
        assert!(!l3.refines(&l2));
        let private = Grouping::private(8);
        assert!(private.refines(&l3));
        assert!(private.refines(&l2));
        // Every grouping refines itself.
        assert!(l3.refines(&l3));
        // A straddling group does not refine.
        let straddle =
            Grouping::from_groups(8, vec![vec![3, 4], vec![0, 1, 2], vec![5, 6, 7]]).unwrap();
        assert!(!straddle.refines(&l3));
    }

    #[test]
    fn buddy_alignment_detection() {
        let ok = Grouping::from_groups(8, vec![vec![0, 1], vec![2, 3], vec![4, 5, 6, 7]]).unwrap();
        assert!(ok.is_buddy_aligned());
        // Size 2 group at odd offset is not buddy aligned.
        let bad =
            Grouping::from_groups(8, vec![vec![0], vec![1, 2], vec![3], vec![4, 5, 6, 7]]).unwrap();
        assert!(!bad.is_buddy_aligned());
        assert!(bad.is_contiguous());
        // Non-neighbor group (§5.5 relaxation) is neither.
        let nn = Grouping::from_groups(4, vec![vec![0, 2], vec![1], vec![3]]).unwrap();
        assert!(!nn.is_buddy_aligned());
        assert!(!nn.is_contiguous());
    }

    #[test]
    fn merges_keep_a_partition() {
        for seed in 0..256 {
            let mut rng = morphcache::Xoshiro256pp::seed_from_u64(seed);
            let mut g = Grouping::private(8);
            for _ in 0..rng.range_usize(0, 10) {
                // A merge may legitimately fail; the partition must hold
                // either way.
                let _ = g.merge_pair(rng.range_usize(0, 8), rng.range_usize(0, 8));
                let groups: Vec<Vec<usize>> = g.iter().map(|m| m.to_vec()).collect();
                assert!(
                    morphcache::topology::is_partition(&groups, 8),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn describe_is_canonical() {
        let g =
            Grouping::from_groups(8, vec![vec![4, 5, 6, 7], vec![0, 1], vec![2], vec![3]]).unwrap();
        assert_eq!(g.describe(), "[0-1][2][3][4-7]");
        let nn = Grouping::from_groups(4, vec![vec![0, 2], vec![1], vec![3]]).unwrap();
        assert_eq!(nn.describe(), "[0,2][1][3]");
    }
}
