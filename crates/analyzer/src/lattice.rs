//! Static model check of the MorphCache reconfiguration lattice.
//!
//! The paper's merge/split engine (§3) moves the hierarchy between
//! *buddy* topologies: every L2 and L3 group is a contiguous
//! power-of-two-sized slice range aligned to its own size, and the L2
//! grouping always refines the L3 grouping (inclusion). Rather than hope
//! the runtime watchdog catches a bad reconfiguration, this module
//! enumerates the **entire reachable state space** by breadth-first
//! search over the same transition rules the engine implements, and
//! proves four invariants for every reachable state:
//!
//! 1. **Valid core partition** — both levels are buddy partitions of the
//!    slice set ([`morphcache::topology::is_buddy_partition`]).
//! 2. **Inclusion capacity** — L2 refines L3, so every L2 group's lines
//!    can be inclusively cached by the L3 group above it, and each level
//!    covers all `n` slices (no capacity lost or aliased).
//! 3. **Arbitration graph connected and cycle-free** — for each level,
//!    the real [`morph_interconnect::ArbiterTree`] accepts the grouping
//!    and the induced arbitration graph of every group is a spanning
//!    tree (checked by union-find: `size − 1` arbiter edges, one
//!    component, zero cycles). The segmented bus likewise accepts the
//!    grouping as a switch configuration.
//! 4. **Reversibility (no dead ends)** — every merge transition has a
//!    reversing split path (checked constructively for each edge), and
//!    every non-base state has at least one legal split, so every state
//!    drains back to the all-private base topology.
//!
//! The transitions are the engine's own moves from
//! [`morphcache::topology`], in the `BuddyPowerOfTwo` grouping mode, so a
//! change to them changes what this check enumerates:
//!
//! * *L3 merge* of two merge candidates at L3 (L2 unchanged).
//! * *L2 merge* of two merge candidates at L2, followed by the L3 merges
//!   its [`cover_step`]s force in the same transition (in a buddy state
//!   at most one: the two L3 groups holding the halves).
//! * *L2 split* of any non-singleton L2 group into its halves.
//! * *L3 split* of a non-singleton L3 group into its halves, legal only
//!   when no L2 group [`straddles`] the two halves (a split-first policy
//!   that forced the L2 split first would land in a state this model
//!   also reaches via L2-split then L3-split, so the engine's merge-first
//!   rule set spans both policies' reachable sets).
//!
//! [`cover_step`]: morphcache::topology::cover_step
//! [`straddles`]: morphcache::topology::straddles
//!
//! # Closed-form cross-check
//!
//! Buddy partitions of an aligned block of `m` slices satisfy
//! `B(1) = 1`, `B(m) = 1 + B(m/2)²` (either the block is one group, or
//! each half is independently partitioned). Refining (L2, L3) pairs
//! satisfy `R(1) = 1`, `R(m) = B(m) + R(m/2)²` (either L3 is the whole
//! block — any of the `B(m)` L2 partitions refines it — or L3 splits and
//! the halves are independent). For 16 slices: `B(16) = 677` and
//! `R(16) = 49961`. The BFS count equaling `R(n)` proves the enumeration
//! is complete *and* that every refining buddy pair is reachable from
//! the base — merges alone suffice, so reachability is not policy-
//! dependent.

use morph_interconnect::{ArbiterTree, SegmentedBus};
use morphcache::symmetry::SymmetryGroup;
use morphcache::topology::{self, is_buddy_partition, is_partition, refines};
use morphcache::{CacheLevelId, GroupingMode, SymmetricTopology, Xoshiro256pp};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A lattice state: the L2 and L3 buddy partitions, encoded as the sizes
/// of their contiguous blocks in slice order (`[4, 4, 8]` means groups
/// `{0..4}, {4..8}, {8..16}`). The encoding is unique per state, so it
/// doubles as the BFS visited-set key; `u16` block sizes cover the
/// 64–1024-slice geometries the reduced check handles.
type State = (Vec<u16>, Vec<u16>);

/// A state's L2 and L3 groupings spelled out as slice lists, the form the
/// engine's moves take.
type Groups = (Vec<Vec<usize>>, Vec<Vec<usize>>);

/// Expands a block-size encoding into explicit slice groups.
fn expand(sizes: &[u16]) -> Vec<Vec<usize>> {
    let mut groups = Vec::with_capacity(sizes.len());
    let mut start = 0usize;
    for &s in sizes {
        groups.push((start..start + s as usize).collect());
        start += s as usize;
    }
    groups
}

/// Encodes explicit groups, listed in slice order as the engine's moves
/// return them, back into the block-size encoding.
///
/// Returns `None` if the groups are not contiguous blocks in slice order
/// — which would itself be an invariant violation.
fn encode(groups: &[Vec<usize>]) -> Option<Vec<u16>> {
    let mut sizes = Vec::with_capacity(groups.len());
    let mut next = 0usize;
    for g in groups {
        if g.first().copied()? != next || g.windows(2).any(|w| w[1] != w[0] + 1) {
            return None;
        }
        sizes.push(u16::try_from(g.len()).ok()?);
        next += g.len();
    }
    Some(sizes)
}

/// One invariant violation found by the model check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed (1–4, as documented on the module).
    pub invariant: u8,
    /// The offending state, as `(l2 sizes, l3 sizes)`.
    pub state: State,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant {} violated at L2={:?} L3={:?}: {}",
            self.invariant, self.state.0, self.state.1, self.message
        )
    }
}

/// Result of an exhaustive lattice enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeReport {
    /// Slice count the lattice was enumerated for.
    pub cores: usize,
    /// Number of distinct reachable `(L2, L3)` states.
    pub reachable_states: u64,
    /// Closed-form prediction `R(cores)` for the state count.
    pub predicted_states: u64,
    /// Distinct L3 partitions observed across all states.
    pub l3_partitions: u64,
    /// Closed-form prediction `B(cores)` for the L3 partition count.
    pub predicted_l3_partitions: u64,
    /// Directed transitions explored (merges and splits).
    pub transitions: u64,
    /// Merge transitions that needed the engine's forced L3 cover.
    pub forced_covers: u64,
    /// Invariant violations (empty iff the model check passes).
    pub violations: Vec<Violation>,
}

impl LatticeReport {
    /// True iff every reachable state satisfied all four invariants.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
            && self.reachable_states == self.predicted_states
            && self.l3_partitions == self.predicted_l3_partitions
    }
}

/// Closed-form count of buddy partitions of an aligned block of `m`.
pub fn buddy_partition_count(m: usize) -> u64 {
    if m <= 1 {
        1
    } else {
        let half = buddy_partition_count(m / 2);
        1 + half * half
    }
}

/// Closed-form count of refining `(L2, L3)` buddy-partition pairs.
pub fn refining_pair_count(m: usize) -> u64 {
    if m <= 1 {
        1
    } else {
        let half = refining_pair_count(m / 2);
        buddy_partition_count(m) + half * half
    }
}

/// The exhaustive model check.
pub struct Lattice {
    n: usize,
}

impl Lattice {
    /// Prepares a lattice over `n` slices.
    ///
    /// # Errors
    ///
    /// `n` must be a power of two in `2..=16`: the state space explodes
    /// combinatorially past 16 (`R(32) > 2·10⁹`), so larger slice counts
    /// go through the symmetry-reduced [`ReducedLattice`] instead.
    pub fn new(n: usize) -> Result<Self, String> {
        if !n.is_power_of_two() || !(2..=16).contains(&n) {
            return Err(format!(
                "full lattice enumeration needs a power of two in 2..=16, got {n} \
                 (use the symmetry-reduced check for larger slice counts)"
            ));
        }
        Ok(Self { n })
    }

    /// The base state: fully private `(1:1:n)` — every slice its own L2
    /// and L3 group. This is what the engine boots into before the first
    /// epoch and what invariant 4 requires every state to drain back to.
    fn base(&self) -> State {
        (vec![1u16; self.n], vec![1u16; self.n])
    }

    /// All successor states of `state`, with per-edge bookkeeping: every
    /// move the engine can take from it in `BuddyPowerOfTwo` mode.
    ///
    /// For merge edges, `reversible` records whether the constructive
    /// reversing split path (one split in halves for a pure merge; split
    /// L2 then split L3 for a forced-cover merge) is legal and lands back
    /// on `state` — invariant 4a.
    fn successors(&self, state: &State) -> Vec<Edge> {
        let here: Groups = (expand(&state.0), expand(&state.1));
        let (l2, l3) = &here;
        let mode = GroupingMode::BuddyPowerOfTwo;
        let mut out = Vec::new();
        let mut push = |next: Groups, is_merge: bool, forced: bool, reversible: bool| {
            if let (Some(n2), Some(n3)) = (encode(&next.0), encode(&next.1)) {
                out.push(Edge {
                    next: (n2, n3),
                    is_merge,
                    forced,
                    reversible,
                });
            }
        };
        // The state after splitting the `level` group holding `slice`.
        let undo = |from: &Groups, level: CacheLevelId, slice: usize| {
            let groups = match level {
                CacheLevelId::L2 => &from.0,
                CacheLevelId::L3 => &from.1,
            };
            let i = groups.iter().position(|g| g.contains(&slice))?;
            split_in_halves(from, level, i)
        };

        // L3 merges (L2 unchanged: merging the coarser level can never
        // break refinement). Reverse: split the merged L3 group.
        for (i, j) in topology::merge_candidates(l3, mode) {
            let (next_l3, members) = topology::merge(l3, i, j);
            let next = (l2.clone(), next_l3);
            let reversible = undo(&next, CacheLevelId::L3, members[0]).as_ref() == Some(&here);
            push(next, true, false, reversible);
        }

        // L2 merges, each with the L3 merges its cover forces. Reverse:
        // split the merged L2 group, then, after a forced cover, the
        // merged L3 group, which no L2 group straddles any more.
        for (i, j) in topology::merge_candidates(l2, mode) {
            let (next_l2, span) = topology::merge(l2, i, j);
            let mut next_l3 = l3.clone();
            let mut forced = false;
            while let Some((a, b)) = topology::cover_step(&next_l3, &span) {
                next_l3 = topology::merge(&next_l3, a, b).0;
                forced = true;
            }
            let next = (next_l2, next_l3);
            let mut back = undo(&next, CacheLevelId::L2, span[0]);
            if forced {
                back = back.and_then(|mid| undo(&mid, CacheLevelId::L3, span[0]));
            }
            let reversible = back.as_ref() == Some(&here);
            push(next, true, forced, reversible);
        }

        // Splits in halves: always legal at L2 (a finer L2 still refines
        // L3), at L3 only when no L2 group straddles the halves.
        for (level, n_groups) in [(CacheLevelId::L2, l2.len()), (CacheLevelId::L3, l3.len())] {
            for i in 0..n_groups {
                if let Some(next) = split_in_halves(&here, level, i) {
                    push(next, false, false, true);
                }
            }
        }
        out
    }

    /// Runs the breadth-first enumeration and all invariant checks.
    pub fn check(&self) -> LatticeReport {
        let mut report = LatticeReport {
            cores: self.n,
            reachable_states: 0,
            predicted_states: refining_pair_count(self.n),
            l3_partitions: 0,
            predicted_l3_partitions: buddy_partition_count(self.n),
            transitions: 0,
            forced_covers: 0,
            violations: Vec::new(),
        };
        let base = self.base();
        let mut visited: BTreeSet<State> = BTreeSet::new();
        let mut l3_seen: BTreeSet<Vec<u16>> = BTreeSet::new();
        let mut queue: VecDeque<State> = VecDeque::new();
        visited.insert(base.clone());
        queue.push_back(base.clone());

        while let Some(state) = queue.pop_front() {
            l3_seen.insert(state.1.clone());
            let edges = self.visit(&state, &base, &mut report.violations);
            report.transitions += edges.len() as u64;
            report.forced_covers += edges.iter().filter(|e| e.forced).count() as u64;
            for edge in edges {
                if visited.insert(edge.next.clone()) {
                    queue.push_back(edge.next);
                }
            }
        }
        report.reachable_states = visited.len() as u64;
        report.l3_partitions = l3_seen.len() as u64;
        report
    }

    /// Checks one reachable state, invariants 1–3 on the state and 4 on
    /// its edges, and returns the edges.
    fn visit(&self, state: &State, base: &State, violations: &mut Vec<Violation>) -> Vec<Edge> {
        self.check_state_invariants(state, violations);
        let edges = self.successors(state);
        // Invariant 4a: every merge is reversible by splits alone.
        for edge in edges.iter().filter(|e| e.is_merge && !e.reversible) {
            violations.push(Violation {
                invariant: 4,
                state: edge.next.clone(),
                message: format!(
                    "merge from L2={:?} L3={:?} has no reversing split path",
                    state.0, state.1
                ),
            });
        }
        // Invariant 4b: every non-base state has a legal split. Each split
        // strictly increases the total group count, which is bounded by
        // 2n, so by induction every reachable state drains to the
        // all-private base in finitely many splits.
        if state != base && edges.iter().all(|e| e.is_merge) {
            violations.push(Violation {
                invariant: 4,
                state: state.clone(),
                message: "non-base state with no legal split (dead end)".into(),
            });
        }
        edges
    }

    /// Invariants 1–3 for one state.
    fn check_state_invariants(&self, state: &State, violations: &mut Vec<Violation>) {
        let l2 = expand(&state.0);
        let l3 = expand(&state.1);
        let mut fail = |invariant: u8, message: String| {
            violations.push(Violation {
                invariant,
                state: state.clone(),
                message,
            });
        };

        // 1: both levels are buddy partitions of 0..n.
        if !is_buddy_partition(&l2, self.n) {
            fail(1, "L2 grouping is not a buddy partition".into());
        }
        if !is_buddy_partition(&l3, self.n) {
            fail(1, "L3 grouping is not a buddy partition".into());
        }

        // 2: inclusion capacity — L2 refines L3 and each level covers
        // every slice exactly once (is_partition already rules out
        // aliasing; the size sums make the capacity argument explicit).
        if !refines(&l2, &l3) {
            fail(2, "L2 does not refine L3 (inclusion violated)".into());
        }
        for (name, groups) in [("L2", &l2), ("L3", &l3)] {
            let total: usize = groups.iter().map(Vec::len).sum();
            if total != self.n || !is_partition(groups, self.n) {
                fail(2, format!("{name} covers {total} of {} slices", self.n));
            }
        }

        // 3: the real arbiter tree and segmented bus accept both
        // groupings, and each group's arbitration graph is a spanning
        // tree.
        for (name, groups) in [("L2", &l2), ("L3", &l3)] {
            let mut tree = ArbiterTree::new(self.n);
            if let Err(e) = tree.configure_groups(groups) {
                fail(3, format!("ArbiterTree rejects {name} grouping: {e}"));
            }
            let mut bus = SegmentedBus::new(self.n);
            if let Err(e) = bus.configure(groups) {
                fail(3, format!("SegmentedBus rejects {name} grouping: {e}"));
            }
            if bus.n_segments() != groups.len() {
                fail(
                    3,
                    format!(
                        "{name}: bus reports {} segments for {} groups",
                        bus.n_segments(),
                        groups.len()
                    ),
                );
            }
            for g in groups.iter() {
                if !arbitration_graph_is_tree(g) {
                    fail(
                        3,
                        format!("{name} group {g:?}: arbitration graph is not a spanning tree"),
                    );
                }
            }
        }
    }
}

/// One directed transition explored by the BFS.
struct Edge {
    next: State,
    is_merge: bool,
    forced: bool,
    /// For merges: the constructive reversing split path exists.
    reversible: bool,
}

/// The engine's split of group `i` at `level` into its halves, or `None`
/// if the group is a singleton or, at L3, an L2 group straddles the
/// halves.
fn split_in_halves((l2, l3): &Groups, level: CacheLevelId, i: usize) -> Option<Groups> {
    let groups = match level {
        CacheLevelId::L2 => l2,
        CacheLevelId::L3 => l3,
    };
    let (a, b) = topology::halves(groups.get(i)?)?;
    if level == CacheLevelId::L3 && topology::straddles(l2, &a, &b) {
        return None;
    }
    let next = topology::split(groups, i, &a, &b);
    Some(match level {
        CacheLevelId::L2 => (next, l3.clone()),
        CacheLevelId::L3 => (l2.clone(), next),
    })
}

/// Union-find check that the buddy arbitration edges of one group form a
/// spanning tree: a group of size `2^k` is served by `2^k − 1` two-input
/// arbiter cells (levels `1..=k`), each joining two previously disjoint
/// subtrees — `size − 1` edges, no cycles, one component.
fn arbitration_graph_is_tree(group: &[usize]) -> bool {
    let size = group.len();
    if !size.is_power_of_two() {
        return false;
    }
    let base = group[0];
    let mut parent: Vec<usize> = (0..size).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut edges = 0usize;
    let levels = size.trailing_zeros() as usize;
    for level in 1..=levels {
        let block = 1usize << level;
        let mut start = 0;
        while start + block <= size {
            // The level-`level` arbiter joins the two half-blocks. Use
            // representative leaves; the absolute slice indices must be
            // buddy-aligned for the cell to exist in the hardware tree.
            let left = start;
            let right = start + block / 2;
            if !(base + start).is_multiple_of(block) {
                return false;
            }
            let (ra, rb) = (find(&mut parent, left), find(&mut parent, right));
            if ra == rb {
                return false; // cycle
            }
            parent[ra] = rb;
            edges += 1;
            start += block;
        }
    }
    edges == size - 1 && (0..size).all(|x| find(&mut parent, x) == find(&mut parent, 0))
}

// ---------------------------------------------------------------------------
// Symmetry-reduced verification at scale (64–1024 slices)
// ---------------------------------------------------------------------------

/// Closed-form buddy-partition count in checked `u128` (`None` once the
/// count overflows — `B(256) > 10⁴⁴` already exceeds `u128`).
pub fn buddy_partition_count_checked(m: usize) -> Option<u128> {
    if m <= 1 {
        Some(1)
    } else {
        let half = buddy_partition_count_checked(m / 2)?;
        half.checked_mul(half)?.checked_add(1)
    }
}

/// Closed-form refining-pair count in checked `u128` (`None` once the
/// count overflows; `R(128) ≈ 3.9·10³⁷` still fits, `R(256)` does not).
pub fn refining_pair_count_checked(m: usize) -> Option<u128> {
    if m <= 1 {
        Some(1)
    } else {
        let half = refining_pair_count_checked(m / 2)?;
        half.checked_mul(half)?
            .checked_add(buddy_partition_count_checked(m)?)
    }
}

/// Result of a symmetry-reduced lattice verification.
///
/// The exhaustive part runs at `base_slices = min(slices, 16)` over
/// canonical forms only; `expanded_states` (the sum of orbit sizes over
/// the enumerated orbits) must equal the closed-form `R(base)` — the
/// same total the full enumeration produces, which is how the reduction
/// is cross-checked. Above the base, verification is compositional:
/// seam-decomposition and die-embedding checks run the engine's own
/// merge and split moves and the *real* arbiter/bus on representative and
/// seeded-random states at every doubling size up to `slices`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedReport {
    /// Slice count the verification covers.
    pub slices: usize,
    /// Size of the exhaustively enumerated base lattice (`min(n, 16)`).
    pub base_slices: usize,
    /// Canonical (orbit-representative) states enumerated at the base.
    pub canonical_states: u64,
    /// Sum of orbit sizes over those states — must equal `R(base)`.
    pub expanded_states: u64,
    /// Closed-form `R(base)`.
    pub predicted_base_states: u64,
    /// Canonical L3-partition orbits observed at the base.
    pub canonical_l3_partitions: u64,
    /// Sum of L3-partition orbit sizes — must equal `B(base)`.
    pub expanded_l3_partitions: u64,
    /// Closed-form `B(base)`.
    pub predicted_base_l3_partitions: u64,
    /// Closed-form `R(slices)` for the full geometry (`None` once the
    /// count overflows `u128`, past 128 slices).
    pub predicted_states_full: Option<u128>,
    /// Closed-form `B(slices)` for the full geometry.
    pub predicted_l3_partitions_full: Option<u128>,
    /// Directed transitions explored from canonical states.
    pub transitions: u64,
    /// Merge transitions that needed the engine's forced L3 cover.
    pub forced_covers: u64,
    /// Seam-decomposition checks run at doubling sizes above the base.
    pub seam_checks: u64,
    /// Die-embedding checks run at the full slice count.
    pub embedding_checks: u64,
    /// Aligned-block and static-topology acceptance checks against the
    /// real arbiter tree and segmented bus at the full slice count.
    pub acceptance_checks: u64,
    /// Invariant violations (empty iff the verification passes).
    pub violations: Vec<Violation>,
}

impl ReducedReport {
    /// True iff every check passed and the orbit accounting reproduces
    /// the closed-form totals exactly.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
            && self.expanded_states == self.predicted_base_states
            && self.expanded_l3_partitions == self.predicted_base_l3_partitions
            && self.canonical_states <= self.expanded_states
    }
}

/// The symmetry-reduced model check for 2–1024 slices.
///
/// # Why not a plain BFS with a bigger visited set?
///
/// The rotation/reflection group of the buddy lattice has order 4, so
/// canonicalization shrinks the state space by at most 4× — but
/// `R(32) ≈ 2.5·10⁹` and `R(64) ≈ 6.2·10¹⁸`, so **no** symmetry group
/// makes explicit enumeration feasible past 16 slices. Instead the
/// check is layered:
///
/// 1. **Canonical BFS at the base** (`min(n, 16)` slices): breadth-first
///    search over canonical forms only, invariants 1–4 checked once per
///    orbit, orbit sizes summed to reproduce the full-enumeration totals
///    (`R(base)`, `B(base)`) exactly.
/// 2. **Seam decomposition at each doubling size** `2·base ‥ n`: every
///    buddy state of an aligned block is either an *apex* (L3 is the
///    whole block) or the product of two independent half-block states,
///    and the only cross-seam transitions are the L3 merge of two
///    fully-merged halves and the L2 merge of two L2-whole halves (with
///    forced L3 cover). The check verifies this decomposition *against
///    the engine's moves*, hand-building the seam edges as the oracle:
///    for corner and seeded-random half
///    states, the successor set of the composed state must equal the
///    union of embedded left-half edges, embedded right-half edges, and
///    the two seam edges — nothing more, nothing less.
/// 3. **Die embedding at the full size**: composed and apex states are
///    embedded into the `n`-slice die (remaining slices private, at
///    offset 0 and at a seeded-random aligned offset) and the real
///    `n`-slice transition code must agree edge-for-edge with the
///    block-local code, with no edge straddling the block boundary;
///    invariants 1–3 run on the embedded states against the real
///    `n`-leaf [`ArbiterTree`] and [`SegmentedBus`].
/// 4. **Acceptance sweep**: all `2n − 1` aligned blocks and every
///    `static_set(n)` topology are configured on the real `n`-slice
///    arbiter tree and segmented bus.
///
/// Together with the closed-form recurrences (`B`/`R` in checked
/// `u128`), stages 2–4 give an inductive argument grounded at the
/// exhaustive base: transitions never leave the buddy family, never
/// cross block seams except through the two verified edges, and every
/// group shape the engine can form is accepted by the hardware models.
pub struct ReducedLattice {
    n: usize,
}

impl ReducedLattice {
    /// Prepares a reduced check over `n` slices.
    ///
    /// # Errors
    ///
    /// `n` must be a power of two in `2..=1024` (the supported preset
    /// range; the state encoding itself scales further).
    pub fn new(n: usize) -> Result<Self, String> {
        if !n.is_power_of_two() || !(2..=1024).contains(&n) {
            return Err(format!(
                "reduced lattice slice count must be a power of two in 2..=1024, got {n}"
            ));
        }
        Ok(Self { n })
    }

    /// Runs the layered verification.
    pub fn check(&self) -> ReducedReport {
        let base = self.n.min(16);
        // morph-lint: allow(no-panic-in-lib, reason = "base is a power of two in 2..=16 by construction, which SymmetryGroup::new accepts")
        let group = SymmetryGroup::new(base).expect("base slice count is a valid group size");
        let machine = Lattice { n: base };
        let mut report = ReducedReport {
            slices: self.n,
            base_slices: base,
            canonical_states: 0,
            expanded_states: 0,
            predicted_base_states: refining_pair_count(base),
            canonical_l3_partitions: 0,
            expanded_l3_partitions: 0,
            predicted_base_l3_partitions: buddy_partition_count(base),
            predicted_states_full: refining_pair_count_checked(self.n),
            predicted_l3_partitions_full: buddy_partition_count_checked(self.n),
            transitions: 0,
            forced_covers: 0,
            seam_checks: 0,
            embedding_checks: 0,
            acceptance_checks: 0,
            violations: Vec::new(),
        };

        // Stage 1: canonical BFS at the base, orbit-size weighted.
        let base_state = machine.base();
        let (canon_base, base_orbit) = group.canonical_pair(&base_state.0, &base_state.1);
        let mut visited: BTreeMap<State, u64> = BTreeMap::new();
        let mut l3_orbits: BTreeMap<Vec<u16>, u64> = BTreeMap::new();
        let mut queue: VecDeque<State> = VecDeque::new();
        visited.insert(canon_base.clone(), base_orbit as u64);
        queue.push_back(canon_base.clone());
        while let Some(state) = queue.pop_front() {
            let (l3_rep, l3_orbit) = group.canonical_partition(&state.1);
            l3_orbits.insert(l3_rep, l3_orbit as u64);
            let edges = machine.visit(&state, &canon_base, &mut report.violations);
            report.transitions += edges.len() as u64;
            report.forced_covers += edges.iter().filter(|e| e.forced).count() as u64;
            for edge in edges {
                let (canon, orbit) = group.canonical_pair(&edge.next.0, &edge.next.1);
                if visited.insert(canon.clone(), orbit as u64).is_none() {
                    queue.push_back(canon);
                }
            }
        }
        report.canonical_states = visited.len() as u64;
        report.expanded_states = visited.values().sum();
        report.canonical_l3_partitions = l3_orbits.len() as u64;
        report.expanded_l3_partitions = l3_orbits.values().sum();

        // Stages 2–3: seam decomposition and die embedding at every
        // doubling size above the base, on corner and seeded-random
        // states. Fully deterministic: fixed seed, vendored PRNG.
        let mut rng = Xoshiro256pp::seed_from_u64(0x004C_A771_CE5C_A1E5);
        let mut m = base * 2;
        while m <= self.n {
            self.check_doubling(m, &mut rng, &mut report);
            m *= 2;
        }

        // Stage 4: acceptance sweep at the full slice count.
        if self.n > base {
            self.check_acceptance(&mut report);
        }
        report
    }

    /// Seam-decomposition and embedding checks for one doubling size.
    fn check_doubling(&self, m: usize, rng: &mut Xoshiro256pp, report: &mut ReducedReport) {
        let h = (m / 2) as u16;
        let whole: State = (vec![h], vec![h]);
        let private: State = (vec![1u16; h as usize], vec![1u16; h as usize]);
        let mut pairs: Vec<(State, State)> = vec![
            (whole.clone(), whole.clone()),
            (private.clone(), private.clone()),
            (whole.clone(), private.clone()),
            (private.clone(), whole.clone()),
        ];
        for _ in 0..4 {
            pairs.push((random_state(rng, h), random_state(rng, h)));
        }
        for (lh, rh) in &pairs {
            self.check_seam(m, lh, rh, report);
            let composed = compose(lh, rh);
            self.check_embedding(m, 0, &composed, report);
            let offset = m * rng.bounded_u64((self.n / m) as u64) as usize;
            if offset != 0 {
                self.check_embedding(m, offset, &composed, report);
            }
        }
        // Apex states (L3 = the whole block) are not products of halves;
        // embed a deterministic and a random selection of them directly.
        let apexes: Vec<State> = vec![
            (vec![m as u16], vec![m as u16]),
            (vec![1u16; m], vec![m as u16]),
            (random_partition(rng, m as u16), vec![m as u16]),
            (random_partition(rng, m as u16), vec![m as u16]),
        ];
        for apex in &apexes {
            self.check_embedding(m, 0, apex, report);
        }
    }

    /// Verifies that the successor set of `lh ++ rh` at size `m` equals
    /// embedded-left edges ∪ embedded-right edges ∪ the two seam edges —
    /// the compositionality the doubling induction rests on — using the
    /// real transition code on both sides of the equation.
    fn check_seam(&self, m: usize, lh: &State, rh: &State, report: &mut ReducedReport) {
        let h = (m / 2) as u16;
        let half_machine = Lattice { n: m / 2 };
        let full_machine = Lattice { n: m };
        let composed = compose(lh, rh);

        let mut expected: BTreeSet<(State, bool, bool)> = BTreeSet::new();
        for edge in half_machine.successors(lh) {
            expected.insert((compose(&edge.next, rh), edge.is_merge, edge.forced));
        }
        for edge in half_machine.successors(rh) {
            expected.insert((compose(lh, &edge.next), edge.is_merge, edge.forced));
        }
        // Seam edge 1: L3 merge of two fully-merged halves.
        if lh.1 == vec![h] && rh.1 == vec![h] {
            let mut l2 = lh.0.clone();
            l2.extend_from_slice(&rh.0);
            expected.insert(((l2, vec![m as u16]), true, false));
        }
        // Seam edge 2: L2 merge of two L2-whole halves, forcing the L3
        // cover (L2-whole implies L3-whole by refinement).
        if lh.0 == vec![h] && rh.0 == vec![h] {
            expected.insert(((vec![m as u16], vec![m as u16]), true, true));
        }

        let mut actual: BTreeSet<(State, bool, bool)> = BTreeSet::new();
        for edge in full_machine.successors(&composed) {
            if edge.is_merge && !edge.reversible {
                report.violations.push(Violation {
                    invariant: 4,
                    state: edge.next.clone(),
                    message: format!("irreversible merge at doubling size {m}"),
                });
            }
            actual.insert((edge.next, edge.is_merge, edge.forced));
        }
        if actual != expected {
            report.violations.push(Violation {
                invariant: 4,
                state: composed,
                message: format!(
                    "seam decomposition mismatch at size {m}: {} actual vs {} expected edges",
                    actual.len(),
                    expected.len()
                ),
            });
        }
        report.seam_checks += 1;
    }

    /// Embeds a size-`m` block state into the full `n`-slice die at
    /// `offset` (all other slices private) and verifies that the real
    /// `n`-slice transition code agrees edge-for-edge with the
    /// block-local code, that no edge straddles the block boundary, and
    /// that invariants 1–3 hold on the embedded states against the real
    /// `n`-leaf arbiter tree and segmented bus.
    fn check_embedding(
        &self,
        m: usize,
        offset: usize,
        state_m: &State,
        report: &mut ReducedReport,
    ) {
        let n = self.n;
        let block_machine = Lattice { n: m };
        let die_machine = Lattice { n };
        let embedded = embed(state_m, offset, m, n);
        die_machine.check_state_invariants(&embedded, &mut report.violations);

        let expected: BTreeSet<(State, bool, bool)> = block_machine
            .successors(state_m)
            .into_iter()
            .map(|e| (e.next, e.is_merge, e.forced))
            .collect();
        let mut actual: BTreeSet<(State, bool, bool)> = BTreeSet::new();
        let mut checked_successors = 0usize;
        for edge in die_machine.successors(&embedded) {
            let inside = (
                restrict(&edge.next.0, offset, offset + m),
                restrict(&edge.next.1, offset, offset + m),
            );
            let (Some(in2), Some(in3)) = inside else {
                report.violations.push(Violation {
                    invariant: 4,
                    state: edge.next.clone(),
                    message: format!(
                        "edge straddles the [{offset}, {}) block boundary",
                        offset + m
                    ),
                });
                continue;
            };
            let outside_private = outside_is_private(&edge.next.0, offset, m, n)
                && outside_is_private(&edge.next.1, offset, m, n);
            let inside_changed = (&in2, &in3) != (&state_m.0, &state_m.1);
            if inside_changed && !outside_private {
                report.violations.push(Violation {
                    invariant: 4,
                    state: edge.next.clone(),
                    message: format!("edge leaks across the size-{m} block seam"),
                });
            } else if inside_changed {
                if checked_successors < 8 {
                    die_machine.check_state_invariants(&edge.next, &mut report.violations);
                    checked_successors += 1;
                }
                actual.insert(((in2, in3), edge.is_merge, edge.forced));
            }
            // Edges purely among the outside singletons are the rest of
            // the die doing its own (already verified) transitions.
        }
        if actual != expected {
            report.violations.push(Violation {
                invariant: 4,
                state: embedded,
                message: format!(
                    "embedded transitions at offset {offset} disagree with the block-local \
                     lattice at size {m}: {} actual vs {} expected edges",
                    actual.len(),
                    expected.len()
                ),
            });
        }
        report.embedding_checks += 1;
    }

    /// Configures every aligned block (as a group among singletons) and
    /// every `static_set(n)` topology on the real `n`-leaf arbiter tree
    /// and segmented bus.
    fn check_acceptance(&self, report: &mut ReducedReport) {
        let n = self.n;
        let accept = |groups: &[Vec<usize>], what: &str, report: &mut ReducedReport| {
            let mut tree = ArbiterTree::new(n);
            if let Err(e) = tree.configure_groups(groups) {
                report.violations.push(Violation {
                    invariant: 3,
                    state: (Vec::new(), Vec::new()),
                    message: format!("ArbiterTree rejects {what}: {e}"),
                });
            }
            let mut bus = SegmentedBus::new(n);
            if let Err(e) = bus.configure(groups) {
                report.violations.push(Violation {
                    invariant: 3,
                    state: (Vec::new(), Vec::new()),
                    message: format!("SegmentedBus rejects {what}: {e}"),
                });
            }
            report.acceptance_checks += 1;
        };
        let mut size = 1usize;
        while size <= n {
            for off in (0..n).step_by(size) {
                let mut groups: Vec<Vec<usize>> = (0..off).map(|i| vec![i]).collect();
                groups.push((off..off + size).collect());
                groups.extend((off + size..n).map(|i| vec![i]));
                if !arbitration_graph_is_tree(&groups[off]) {
                    report.violations.push(Violation {
                        invariant: 3,
                        state: (Vec::new(), Vec::new()),
                        message: format!(
                            "aligned block [{off}, {}): arbitration graph is not a spanning tree",
                            off + size
                        ),
                    });
                }
                accept(
                    &groups,
                    &format!("aligned block [{off}, {})", off + size),
                    report,
                );
            }
            size *= 2;
        }
        if let Ok(set) = SymmetricTopology::static_set(n) {
            for t in set {
                accept(
                    &t.l2_groups(),
                    &format!("{} L2 grouping", t.notation()),
                    report,
                );
                accept(
                    &t.l3_groups(),
                    &format!("{} L3 grouping", t.notation()),
                    report,
                );
            }
        } else {
            report.violations.push(Violation {
                invariant: 3,
                state: (Vec::new(), Vec::new()),
                message: format!("static_set({n}) is not constructible"),
            });
        }
    }
}

/// Concatenates two adjacent half-block states into the size-`m` state.
fn compose(lh: &State, rh: &State) -> State {
    let mut l2 = lh.0.clone();
    l2.extend_from_slice(&rh.0);
    let mut l3 = lh.1.clone();
    l3.extend_from_slice(&rh.1);
    (l2, l3)
}

/// Embeds a size-`m` block state at `offset` into `n` slices, all other
/// slices private.
fn embed(state_m: &State, offset: usize, m: usize, n: usize) -> State {
    let pad = |sizes: &[u16]| -> Vec<u16> {
        let mut out = vec![1u16; offset];
        out.extend_from_slice(sizes);
        out.extend(std::iter::repeat_n(1u16, n - offset - m));
        out
    };
    (pad(&state_m.0), pad(&state_m.1))
}

/// The blocks of an encoding lying fully inside `[lo, hi)`, or `None` if
/// any block straddles either boundary.
fn restrict(sizes: &[u16], lo: usize, hi: usize) -> Option<Vec<u16>> {
    let mut out = Vec::new();
    let mut off = 0usize;
    for &s in sizes {
        let end = off + s as usize;
        if end > lo && off < hi {
            if off < lo || end > hi {
                return None;
            }
            out.push(s);
        }
        off = end;
    }
    Some(out)
}

/// True if every block outside `[offset, offset + m)` is a singleton.
fn outside_is_private(sizes: &[u16], offset: usize, m: usize, n: usize) -> bool {
    restrict(sizes, 0, offset) == Some(vec![1u16; offset])
        && restrict(sizes, offset + m, n) == Some(vec![1u16; n - offset - m])
}

/// A seeded random buddy partition of an aligned block of `m` slices.
fn random_partition(rng: &mut Xoshiro256pp, m: u16) -> Vec<u16> {
    if m == 1 || rng.gen_bool(0.4) {
        vec![m]
    } else {
        let mut v = random_partition(rng, m / 2);
        v.extend(random_partition(rng, m / 2));
        v
    }
}

/// A seeded random (L2, L3) block state: random L3, then a random buddy
/// refinement of each L3 block.
fn random_state(rng: &mut Xoshiro256pp, m: u16) -> State {
    let l3 = random_partition(rng, m);
    let mut l2 = Vec::new();
    for &block in &l3 {
        l2.extend(random_partition(rng, block));
    }
    (l2, l3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_counts() {
        assert_eq!(buddy_partition_count(1), 1);
        assert_eq!(buddy_partition_count(2), 2);
        assert_eq!(buddy_partition_count(4), 5);
        assert_eq!(buddy_partition_count(8), 26);
        assert_eq!(buddy_partition_count(16), 677);
        assert_eq!(refining_pair_count(2), 3);
        assert_eq!(refining_pair_count(4), 14);
        assert_eq!(refining_pair_count(8), 222);
        assert_eq!(refining_pair_count(16), 49961);
    }

    #[test]
    fn tiny_lattices_hold() {
        for n in [2usize, 4, 8] {
            let report = Lattice::new(n).unwrap().check();
            assert!(report.holds(), "n={n}: {:?}", report.violations.first());
            assert_eq!(report.reachable_states, refining_pair_count(n));
        }
    }

    #[test]
    fn four_slice_lattice_exact() {
        let report = Lattice::new(4).unwrap().check();
        assert_eq!(report.reachable_states, 14);
        assert_eq!(report.l3_partitions, 5);
        assert!(report.forced_covers > 0, "forced covers must be exercised");
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(Lattice::new(0).is_err());
        assert!(Lattice::new(3).is_err());
        assert!(Lattice::new(32).is_err());
    }

    #[test]
    fn encode_round_trips() {
        let sizes = vec![4u16, 2, 2, 8];
        assert_eq!(encode(&expand(&sizes)), Some(sizes));
        // Non-contiguous groups fail to encode.
        assert_eq!(encode(&[vec![0, 2], vec![1, 3]]), None);
    }

    #[test]
    fn arbitration_tree_shapes() {
        assert!(arbitration_graph_is_tree(&[0, 1, 2, 3]));
        assert!(arbitration_graph_is_tree(&[4, 5, 6, 7]));
        assert!(arbitration_graph_is_tree(&[5])); // singleton: 0 edges
        assert!(!arbitration_graph_is_tree(&[2, 3, 4, 5])); // misaligned
        assert!(!arbitration_graph_is_tree(&[0, 1, 2])); // not a power of two
    }

    #[test]
    fn checked_closed_forms() {
        assert_eq!(buddy_partition_count_checked(16), Some(677));
        assert_eq!(refining_pair_count_checked(16), Some(49_961));
        assert_eq!(refining_pair_count_checked(32), Some(2_496_559_851));
        // R(64) still fits in u64 land; R(128) needs u128; R(256)
        // overflows even u128 and must report None, not wrap.
        assert!(refining_pair_count_checked(64).is_some());
        assert!(refining_pair_count_checked(128).is_some());
        assert_eq!(refining_pair_count_checked(256), None);
        assert_eq!(buddy_partition_count_checked(256), None);
    }

    #[test]
    fn reduced_check_matches_full_enumeration_at_16() {
        let full = Lattice::new(16).unwrap().check();
        let reduced = ReducedLattice::new(16).unwrap().check();
        assert!(full.holds());
        assert!(reduced.holds(), "{:?}", reduced.violations.first());
        // Same verdicts, same totals: orbit sizes must expand to the
        // exact 49,961-state full enumeration and its 677 L3 partitions.
        assert_eq!(reduced.expanded_states, full.reachable_states);
        assert_eq!(reduced.expanded_states, 49_961);
        assert_eq!(reduced.expanded_l3_partitions, full.l3_partitions);
        assert_eq!(reduced.expanded_l3_partitions, 677);
        // The reduction is genuine: the Klein four-group cannot shrink
        // below a quarter, and most orbits are full-size.
        assert!(reduced.canonical_states >= 49_961 / 4);
        assert!(reduced.canonical_states < 49_961 / 3);
        // No doubling stages at the base size.
        assert_eq!(reduced.seam_checks, 0);
        assert_eq!(reduced.embedding_checks, 0);
    }

    #[test]
    fn reduced_check_verifies_64_slices() {
        let report = ReducedLattice::new(64).unwrap().check();
        assert!(report.holds(), "{:?}", report.violations.first());
        assert_eq!(report.base_slices, 16);
        assert_eq!(report.slices, 64);
        // Doubling stages at 32 and 64 actually ran.
        assert!(report.seam_checks >= 16);
        assert!(report.embedding_checks >= 16);
        // 2n − 1 aligned blocks plus the static-set groupings.
        assert!(report.acceptance_checks >= 127);
        assert_eq!(
            report.predicted_states_full,
            refining_pair_count_checked(64)
        );
    }

    #[test]
    fn reduced_check_handles_small_sizes() {
        for n in [2usize, 4, 8] {
            let full = Lattice::new(n).unwrap().check();
            let reduced = ReducedLattice::new(n).unwrap().check();
            assert!(reduced.holds(), "n={n}");
            assert_eq!(reduced.expanded_states, full.reachable_states, "n={n}");
        }
        assert!(ReducedLattice::new(0).is_err());
        assert!(ReducedLattice::new(48).is_err());
        assert!(ReducedLattice::new(2048).is_err());
    }

    #[test]
    fn restrict_and_embed_round_trip() {
        let state: State = (vec![2, 2, 4], vec![4, 4]);
        let embedded = embed(&state, 8, 8, 32);
        assert_eq!(restrict(&embedded.0, 8, 16), Some(vec![2, 2, 4]));
        assert_eq!(restrict(&embedded.1, 8, 16), Some(vec![4, 4]));
        assert!(outside_is_private(&embedded.0, 8, 8, 32));
        // A block straddling the window boundary fails to restrict.
        assert_eq!(restrict(&[4u16, 4], 2, 6), None);
    }

    #[test]
    fn forced_cover_merges_l3_buddies() {
        // From L2=[2,2] L3=[2,2] on 4 slices, merging the L2 pair forces
        // the L3 cover, landing in L2=[4] L3=[4].
        let lattice = Lattice::new(4).unwrap();
        let state: State = (vec![2, 2], vec![2, 2]);
        let succs = lattice.successors(&state);
        assert!(succs
            .iter()
            .any(|e| e.is_merge && e.forced && e.reversible && e.next == (vec![4u16], vec![4u16])));
    }
}
