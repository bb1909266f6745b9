//! Hierarchical round-robin arbitration (paper §3.2, Figs. 9–11).
//!
//! The segmented bus is arbitrated by a tree of identical two-input
//! arbiters. An arbiter at level *n* produces two grant signals, each
//! covering the 2^(n−1) cache slices beneath it, and forwards the OR of its
//! requests upward when its `Fwdreq` input is set — `Fwdreq` "is a function
//! of the sharing degree of the cache": arbiters above the root of a
//! sharing group do not participate. A slice acquires the bus (`BusAcq`)
//! only when every arbiter it is configured to share (Fig. 11) grants it.

use morphcache::topology::{check_partition, is_buddy_block};
use morphcache::MorphError;

/// The two-input round-robin arbiter cell of Fig. 10.
///
/// `last_grant` plays the role of the `Lastgnt` register: under contention
/// the side *not* granted last time wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    last_grant: bool, // false = side 0 was granted last, true = side 1
}

impl RoundRobinArbiter {
    /// Creates an arbiter whose first contested grant goes to side 0.
    pub fn new() -> Self {
        Self { last_grant: true }
    }

    /// Combinationally computes the grant pair for a request pair, updating
    /// the round-robin state when a grant is issued.
    pub fn arbitrate(&mut self, req0: bool, req1: bool) -> (bool, bool) {
        match (req0, req1) {
            (false, false) => (false, false),
            (true, false) => {
                self.last_grant = false;
                (true, false)
            }
            (false, true) => {
                self.last_grant = true;
                (false, true)
            }
            (true, true) => {
                // Grant the side not granted last time.
                let grant1 = !self.last_grant;
                self.last_grant = grant1;
                (!grant1, grant1)
            }
        }
    }

    /// Computes the grant pair *without* updating round-robin state.
    pub fn peek(&self, req0: bool, req1: bool) -> (bool, bool) {
        match (req0, req1) {
            (false, false) => (false, false),
            (true, false) => (true, false),
            (false, true) => (false, true),
            (true, true) => {
                let grant1 = !self.last_grant;
                (!grant1, grant1)
            }
        }
    }

    /// Commits a grant to `side` (0 or 1), advancing the round-robin state.
    /// Called only for arbiters on a winning `BusAcq` path, which is what
    /// keeps hierarchical arbitration fair.
    pub fn commit(&mut self, side: usize) {
        self.last_grant = side == 1;
    }

    /// The `Reqout` signal: forwarded OR of the incoming requests.
    pub fn forward(req0: bool, req1: bool) -> bool {
        req0 || req1
    }
}

/// A full arbiter tree over `n` leaves (`n` a power of two), configurable
/// for any buddy-aligned partition of the leaves into sharing groups.
///
/// Leaves in a group of size 2^k participate in arbitration levels `1..=k`;
/// higher-level arbiters have their `Fwdreq` masked for that subtree, so
/// disjoint groups arbitrate in parallel (the parallel-transaction property
/// of the segmented bus).
#[derive(Debug, Clone)]
pub struct ArbiterTree {
    n: usize,
    levels: usize,
    /// `arbiters[l][i]` is the i-th arbiter at level `l+1`.
    arbiters: Vec<Vec<RoundRobinArbiter>>,
    /// Number of levels each leaf participates in (log2 of its group size).
    active_levels: Vec<usize>,
}

impl ArbiterTree {
    /// Creates a tree over `n` leaves with all leaves private (no bus
    /// sharing: every `BusAcq` is immediate).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "leaf count must be a power of two"
        );
        let levels = n.trailing_zeros() as usize;
        let arbiters = (0..levels)
            .map(|l| vec![RoundRobinArbiter::new(); n >> (l + 1)])
            .collect();
        Self {
            n,
            levels,
            arbiters,
            active_levels: vec![0; n],
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n
    }

    /// Total number of arbiter cells (`n - 1`).
    pub fn n_arbiters(&self) -> usize {
        self.n - 1
    }

    /// Configures sharing groups. Each group must be a buddy-aligned
    /// power-of-two range of consecutive leaves, listed in ascending
    /// order, and the groups must partition `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Grouping`] if the groups are not a partition
    /// (see [`check_partition`]) or a group is not such a range; the
    /// configuration is then unchanged.
    pub fn configure_groups(&mut self, groups: &[Vec<usize>]) -> Result<(), MorphError> {
        check_partition(groups, self.n)?;
        if let Some(g) = groups.iter().find(|g| !is_buddy_block(g)) {
            return Err(MorphError::Grouping(format!(
                "group {g:?} is not a buddy-aligned ascending range"
            )));
        }
        let mut active = vec![0usize; self.n];
        for g in groups {
            for &leaf in g {
                active[leaf] = g.len().trailing_zeros() as usize;
            }
        }
        self.active_levels = active;
        Ok(())
    }

    /// One arbitration cycle: takes per-leaf bus requests and returns the
    /// per-leaf `BusAcq` signals.
    ///
    /// Leaves whose group size is 1 (private slices) are granted
    /// unconditionally — a private slice never competes for a shared
    /// segment. Within each group exactly one requester is granted.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.n_leaves()`.
    pub fn cycle(&mut self, requests: &[bool]) -> Vec<bool> {
        assert_eq!(requests.len(), self.n, "one request line per leaf");
        // Propagate requests upward. up[l][i]: request visible at level l
        // (l = 0 is the leaves).
        let mut up: Vec<Vec<bool>> = Vec::with_capacity(self.levels + 1);
        up.push(requests.to_vec());
        for l in 1..=self.levels {
            let width = self.n >> l;
            let mut row = vec![false; width];
            for (i, slot) in row.iter_mut().enumerate() {
                // A child's request is forwarded to level l only if some
                // leaf beneath it participates at level l (Fwdreq).
                let c0 = self.child_forwards(l, 2 * i, &up[l - 1]);
                let c1 = self.child_forwards(l, 2 * i + 1, &up[l - 1]);
                *slot = RoundRobinArbiter::forward(c0, c1);
            }
            up.push(row);
        }
        // Each arbiter grants combinationally (peek: state not yet
        // advanced).
        // grants[l][i] = (g0, g1) of arbiter i at level l+1.
        let mut grants: Vec<Vec<(bool, bool)>> = Vec::with_capacity(self.levels);
        for l in 1..=self.levels {
            let width = self.n >> l;
            let mut row = Vec::with_capacity(width);
            for i in 0..width {
                let c0 = self.child_forwards(l, 2 * i, &up[l - 1]);
                let c1 = self.child_forwards(l, 2 * i + 1, &up[l - 1]);
                row.push(self.arbiters[l - 1][i].peek(c0, c1));
            }
            grants.push(row);
        }
        // BusAcq: a requesting leaf wins if every active level grants its
        // direction (Fig. 11: AND of per-level Gnt gated by Share).
        let acq: Vec<bool> = (0..self.n)
            .map(|leaf| {
                if !requests[leaf] {
                    return false;
                }
                let k = self.active_levels[leaf];
                (1..=k).all(|l| {
                    let idx = leaf >> l;
                    let side = (leaf >> (l - 1)) & 1;
                    let (g0, g1) = grants[l - 1][idx];
                    if side == 0 {
                        g0
                    } else {
                        g1
                    }
                })
            })
            .collect();
        // Advance round-robin state only along winning paths, so that a
        // leaf denied at a higher level does not lose its turn at a lower
        // one (hierarchical fairness).
        for (leaf, &won) in acq.iter().enumerate() {
            if won {
                for l in 1..=self.active_levels[leaf] {
                    let idx = leaf >> l;
                    let side = (leaf >> (l - 1)) & 1;
                    self.arbiters[l - 1][idx].commit(side);
                }
            }
        }
        acq
    }

    /// Whether the subtree rooted at `(level-1, index)` forwards a request
    /// into level `level`: true if any participating leaf below requested.
    fn child_forwards(&self, level: usize, index: usize, lower: &[bool]) -> bool {
        if level == 1 {
            // `lower` is the leaves themselves.
            let leaf = index;
            return lower[leaf] && self.active_levels[leaf] >= 1;
        }
        // `lower` is the OR-tree at level-1 granularity; the subtree
        // participates if any leaf under it has active_levels >= level.
        let span = 1usize << (level - 1);
        let base = index * span;
        if (base..base + span).any(|leaf| self.active_levels[leaf] >= level) {
            lower[index]
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_wins() {
        let mut a = RoundRobinArbiter::new();
        assert_eq!(a.arbitrate(true, false), (true, false));
        assert_eq!(a.arbitrate(false, true), (false, true));
        assert_eq!(a.arbitrate(false, false), (false, false));
    }

    #[test]
    fn contention_alternates_round_robin() {
        let mut a = RoundRobinArbiter::new();
        let first = a.arbitrate(true, true);
        let second = a.arbitrate(true, true);
        let third = a.arbitrate(true, true);
        assert_ne!(first, second);
        assert_eq!(first, third);
        // Exactly one grant under contention.
        for g in [first, second, third] {
            assert!(g.0 ^ g.1);
        }
    }

    #[test]
    fn tree_grants_one_winner_per_group() {
        let mut t = ArbiterTree::new(8);
        t.configure_groups(&[vec![0, 1, 2, 3], vec![4, 5], vec![6, 7]])
            .unwrap();
        let acq = t.cycle(&[true, true, true, true, true, true, true, true]);
        // One winner in [0..4), one in [4..6), one in [6..8).
        assert_eq!(acq[0..4].iter().filter(|&&b| b).count(), 1);
        assert_eq!(acq[4..6].iter().filter(|&&b| b).count(), 1);
        assert_eq!(acq[6..8].iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn private_leaves_granted_unconditionally_none() {
        let mut t = ArbiterTree::new(4);
        t.configure_groups(&[vec![0], vec![1], vec![2], vec![3]])
            .unwrap();
        // Private slices never assert bus requests in practice; if they do,
        // no shared grant path exists, and the leaf wins trivially (all of
        // zero levels grant).
        let acq = t.cycle(&[true, false, true, false]);
        assert_eq!(acq, vec![true, false, true, false]);
    }

    #[test]
    fn round_robin_fairness_over_many_cycles() {
        let mut t = ArbiterTree::new(4);
        t.configure_groups(&[vec![0, 1, 2, 3]]).unwrap();
        let mut wins = [0u32; 4];
        for _ in 0..400 {
            let acq = t.cycle(&[true, true, true, true]);
            assert_eq!(acq.iter().filter(|&&b| b).count(), 1);
            for (i, &w) in acq.iter().enumerate() {
                if w {
                    wins[i] += 1;
                }
            }
        }
        // Hierarchical round-robin is fair across subtrees: each leaf wins
        // 100 ± 0 times in a saturated steady state.
        for &w in &wins {
            assert_eq!(w, 100, "wins: {wins:?}");
        }
    }

    #[test]
    fn disjoint_groups_do_not_interfere() {
        let mut t = ArbiterTree::new(8);
        t.configure_groups(&[vec![0, 1], vec![2, 3], vec![4, 5, 6, 7]])
            .unwrap();
        // Requests in groups {0,1} and {4..8} only.
        let acq = t.cycle(&[true, false, false, false, false, true, false, false]);
        assert!(acq[0], "leaf 0 uncontested in its group");
        assert!(acq[5], "leaf 5 uncontested in its group");
    }

    #[test]
    fn misaligned_groups_rejected() {
        let mut t = ArbiterTree::new(8);
        for (groups, why) in [
            (
                vec![vec![1, 2], vec![0], vec![3], vec![4, 5, 6, 7]],
                "misaligned",
            ),
            (
                vec![vec![0, 1, 2], vec![3], vec![4, 5, 6, 7]],
                "not a power of two",
            ),
            (vec![vec![1, 0], vec![2, 3], vec![4, 5, 6, 7]], "descending"),
            (vec![vec![0, 1]], "must cover all leaves"),
            (vec![vec![0, 1], vec![1, 2, 3], vec![4, 5, 6, 7]], "overlap"),
            (vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![]], "empty"),
            (vec![vec![0, 1, 2, 3], vec![4, 5, 6, 8]], "out of range"),
        ] {
            let err = t.configure_groups(&groups);
            assert!(
                matches!(err, Err(MorphError::Grouping(_))),
                "{why}: {err:?}"
            );
        }
    }

    #[test]
    fn arbiter_count_matches_paper() {
        // Paper Table 2: L2 segmented bus (8 slices per side, 3 levels) has
        // 7 arbiters per side; L3 (16 slices, 4 levels) has 15.
        assert_eq!(ArbiterTree::new(8).n_arbiters(), 7);
        assert_eq!(ArbiterTree::new(16).n_arbiters(), 15);
    }
}
