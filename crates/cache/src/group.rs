//! Slice groupings: which slices of a level are merged together.
//!
//! A [`Grouping`] is a partition of the slice identifiers of one cache
//! level. Each block of the partition is a *shared group*: its member
//! slices behave as one cache whose associativity is the concatenation of
//! the members' ways (§2.2 footnote 1). The paper's five slice modes —
//! private, dual-, quad-, oct- and all-shared — plus the asymmetric
//! topologies of Fig. 3 are all expressible as groupings.

use crate::SliceId;
use morphcache::topology::{check_partition, contiguous_groups};
use morphcache::MorphError;

/// A partition of `n` slices into shared groups.
///
/// Invariants (enforced by all constructors):
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
    /// Returns [`MorphError::Grouping`] if `group_size` does not divide
    /// `n` or is zero.
    pub fn contiguous(n: usize, group_size: usize) -> Result<Self, MorphError> {
        if group_size == 0 || !n.is_multiple_of(group_size) {
            return Err(MorphError::Grouping(format!(
                "group size {group_size} does not divide slice count {n}"
            )));
        }
        Self::from_groups(n, contiguous_groups(n, group_size))
    }

    /// Builds a grouping from explicit member lists.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Grouping`] if the lists are not a partition
    /// of `0..n` (see [`check_partition`]).
    pub fn from_groups(n: usize, mut groups: Vec<Vec<SliceId>>) -> Result<Self, MorphError> {
        check_partition(&groups, n)?;
        let mut group_of = vec![0; n];
        for (g, members) in groups.iter_mut().enumerate() {
            members.sort_unstable();
            for &s in members.iter() {
                group_of[s] = g;
            }
        }
        Ok(Self { group_of, groups })
    }

    /// Number of slices covered.
    pub fn n_slices(&self) -> usize {
        self.group_of.len()
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

    /// Whether each slice's group loses a member when `self` is replaced
    /// by `next`, indexed by slice. A group of `self` whose members all
    /// land in one group of `next` grows or stays; one split across
    /// several groups of `next` shrinks for every member. Only a slice
    /// whose group shrank can stop reaching a line it reached before.
    ///
    /// # Panics
    ///
    /// Panics if `next` covers fewer slices than `self`.
    pub(crate) fn shrinks_into(&self, next: &Grouping) -> Vec<bool> {
        let mut shrunk = vec![false; self.n_slices()];
        for members in &self.groups {
            let g0 = next.group_of(members[0]);
            if members.iter().any(|&s| next.group_of(s) != g0) {
                for &s in members {
                    shrunk[s] = true;
                }
            }
        }
        shrunk
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
        assert_eq!(g.iter().count(), 4);
        for s in 0..4 {
            assert_eq!(g.group_members(s), &[s]);
        }
    }

    #[test]
    fn all_shared_is_one_group() {
        let g = Grouping::all_shared(16);
        assert_eq!(g.iter().count(), 1);
        assert_eq!(g.members(0).len(), 16);
    }

    #[test]
    fn contiguous_grouping() {
        let g = Grouping::contiguous(16, 4).unwrap();
        assert_eq!(g.iter().count(), 4);
        assert_eq!(g.group_members(5), &[4, 5, 6, 7]);
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
    fn shrinking_groups_are_the_split_ones() {
        let quads = Grouping::contiguous(8, 4).unwrap();
        let pairs = Grouping::contiguous(8, 2).unwrap();
        // Merging shrinks nothing; splitting shrinks every member.
        assert_eq!(pairs.shrinks_into(&quads), vec![false; 8]);
        assert_eq!(quads.shrinks_into(&pairs), vec![true; 8]);
        // Splitting one quad leaves the other's slices alone.
        let half =
            Grouping::from_groups(8, vec![vec![0, 1], vec![2, 3], vec![4, 5, 6, 7]]).unwrap();
        let want = [true, true, true, true, false, false, false, false];
        assert_eq!(quads.shrinks_into(&half), want);
        // A group that trades members shrinks even at equal size.
        let swap = Grouping::from_groups(8, vec![vec![0, 1, 2, 4], vec![3, 5, 6, 7]]).unwrap();
        assert_eq!(quads.shrinks_into(&swap), vec![true; 8]);
        // No slice shrinks exactly when the old grouping refines the new.
        for (a, b) in [(&pairs, &quads), (&quads, &half), (&half, &pairs)] {
            assert_eq!(a.refines(b), !a.shrinks_into(b).contains(&true));
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
