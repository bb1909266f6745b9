//! The generalized tree pseudo-LRU of Robinson \[24\] that the paper
//! discusses when merging slices (§2.2), as a standalone model.
//!
//! The caches themselves use exact LRU via monotonic stamps, the policy the
//! paper uses for all MorphCache experiments ("MorphCache uses the LRU
//! replacement policy for all applications", §6). Tree-PLRU is modeled
//! because §2.2 argues that merged tree-PLRU slices converge after a
//! merge; [`TreePlru::merge`] implements the "merge the trees in any
//! order" operation so that claim can be tested.

/// A binary-tree pseudo-LRU state machine for one cache set.
///
/// The tree has `ways - 1` internal nodes stored in heap order; a `false`
/// bit means "the LRU side is the left subtree", `true` means right. On an
/// access to way `w`, every node on the root-to-leaf path is pointed *away*
/// from `w`; the victim is found by following the bits from the root.
///
/// `ways` must be a power of two (guaranteed by
/// [`CacheParams`](crate::CacheParams) validation upstream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlru {
    bits: Vec<bool>,
    ways: usize,
}

impl TreePlru {
    /// Creates a PLRU tree for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or not a power of two.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways.is_power_of_two() && ways > 0,
            "ways must be a power of two"
        );
        Self {
            bits: vec![false; ways.saturating_sub(1)],
            ways,
        }
    }

    /// Number of ways this tree covers.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Records an access to `way`, making it the protected (MRU-side) leaf.
    ///
    /// # Panics
    ///
    /// Panics if `way >= self.ways()`.
    pub fn touch(&mut self, way: usize) {
        assert!(way < self.ways, "way {way} out of range");
        if self.ways == 1 {
            return;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed way is on the left; point the LRU bit right.
                self.bits[node] = true;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.bits[node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// Returns the pseudo-LRU victim way without modifying state.
    pub fn victim(&self) -> usize {
        if self.ways == 1 {
            return 0;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    /// Merges two equally sized trees into one tree over the concatenated
    /// ways, as done when two cache slices merge (§2.2): the two source
    /// trees become the subtrees of a fresh root whose bit is arbitrary
    /// ("we can merge the trees ... in any order and the future accesses
    /// will quickly determine a new LRU sub-tree").
    ///
    /// # Panics
    ///
    /// Panics if the two trees cover different way counts.
    pub fn merge(left: &TreePlru, right: &TreePlru) -> TreePlru {
        assert_eq!(
            left.ways, right.ways,
            "can only merge equally sized PLRU trees"
        );
        let ways = left.ways * 2;
        let mut merged = TreePlru::new(ways);
        // Heap layout: node 0 = new root; left subtree occupies the odd
        // chain, right the even. Copy level by level.
        // Source tree level l (2^l nodes starting at 2^l - 1) maps to the
        // merged tree level l+1.
        let mut level = 0usize;
        loop {
            let count = 1usize << level;
            let src_base = count - 1;
            if src_base >= left.bits.len() && left.bits.is_empty() && level > 0 {
                break;
            }
            if src_base >= left.bits.len() {
                break;
            }
            let dst_base = 2 * count - 1;
            for i in 0..count {
                merged.bits[dst_base + i] = left.bits[src_base + i];
                merged.bits[dst_base + count + i] = right.bits[src_base + i];
            }
            level += 1;
        }
        merged
    }

    /// Splits a tree over `2n` ways into the two `n`-way subtrees,
    /// the inverse of [`TreePlru::merge`].
    ///
    /// # Panics
    ///
    /// Panics if the tree covers fewer than 2 ways.
    pub fn split(&self) -> (TreePlru, TreePlru) {
        assert!(self.ways >= 2, "cannot split a 1-way tree");
        let half = self.ways / 2;
        let mut left = TreePlru::new(half);
        let mut right = TreePlru::new(half);
        let mut level = 0usize;
        loop {
            let count = 1usize << level;
            let dst_base = count - 1;
            if dst_base >= left.bits.len() {
                break;
            }
            let src_base = 2 * count - 1;
            for i in 0..count {
                left.bits[dst_base + i] = self.bits[src_base + i];
                right.bits[dst_base + i] = self.bits[src_base + count + i];
            }
            level += 1;
        }
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_way_is_trivial() {
        let mut t = TreePlru::new(1);
        t.touch(0);
        assert_eq!(t.victim(), 0);
    }

    #[test]
    fn victim_is_never_most_recent() {
        let mut t = TreePlru::new(8);
        for w in [3, 7, 0, 5, 2, 6, 1, 4, 4, 0] {
            t.touch(w);
            assert_ne!(t.victim(), w, "PLRU victim must differ from the MRU way");
        }
    }

    #[test]
    fn sequential_touches_leave_first_as_victim_for_two_ways() {
        let mut t = TreePlru::new(2);
        t.touch(0);
        assert_eq!(t.victim(), 1);
        t.touch(1);
        assert_eq!(t.victim(), 0);
    }

    #[test]
    fn filling_all_ways_cycles_like_lru() {
        // For a freshly-reset tree, touching ways 0..n in order leaves way 0
        // as... the PLRU approximation; at minimum, touching every way once
        // means the victim is one of the earliest-touched half.
        let mut t = TreePlru::new(4);
        for w in 0..4 {
            t.touch(w);
        }
        assert!(t.victim() < 2, "victim should be in the older half");
    }

    #[test]
    fn merge_then_split_round_trips() {
        let mut a = TreePlru::new(4);
        let mut b = TreePlru::new(4);
        a.touch(1);
        a.touch(3);
        b.touch(0);
        b.touch(2);
        let merged = TreePlru::merge(&a, &b);
        assert_eq!(merged.ways(), 8);
        let (a2, b2) = merged.split();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn merged_tree_victim_respects_subtree_state() {
        let mut a = TreePlru::new(2);
        a.touch(0); // a's victim: way 1
        let b = TreePlru::new(2); // b's victim: way 0 (default)
        let merged = TreePlru::merge(&a, &b);
        // New root bit defaults to false -> left subtree (= a). a's victim
        // is its way 1, i.e. merged way 1.
        assert_eq!(merged.victim(), 1);
    }

    #[test]
    fn touch_in_merged_tree_redirects_root() {
        let a = TreePlru::new(2);
        let b = TreePlru::new(2);
        let mut merged = TreePlru::merge(&a, &b);
        merged.touch(0); // left side accessed -> victim must be on right
        assert!(merged.victim() >= 2);
        merged.touch(3); // right side accessed -> victim back on left
        assert!(merged.victim() < 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touch_out_of_range_panics() {
        TreePlru::new(4).touch(4);
    }
}
