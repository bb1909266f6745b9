//! # morph-interconnect
//!
//! The MorphCache interconnect (paper §3): a **segmented bus** whose
//! adjacent segments can be dynamically connected or isolated by switches,
//! with hierarchical **round-robin arbitration** performed by a tree of
//! two-input arbiters (Figs. 7–11), plus an analytic **floorplan model**
//! that recomputes the area and delay figures of Tables 1–2 from the
//! published 45 nm technology constants and the Fig. 12 floorplan.
//!
//! Four layers are provided:
//!
//! * [`arbiter`] — the structural model: [`arbiter::RoundRobinArbiter`]
//!   (the Fig. 10 two-input round-robin cell) and
//!   [`arbiter::ArbiterTree`] (the Fig. 9 hierarchy with `Fwdreq`
//!   masking and Fig. 11 `BusAcq` generation).
//! * [`bus`] — the switch model: [`bus::SegmentedBus`] accepts a grouping
//!   as a segment configuration only if it partitions the components
//!   into contiguous segments. The lattice model check uses it to
//!   confirm that every reachable grouping is a valid bus segmentation;
//!   [`arbiter::ArbiterTree::cycle`] models the parallel grants in
//!   disjoint segments. The system simulator models no bus queueing: a
//!   merged hit pays a fixed pipelined-bus overhead (10 core cycles, from
//!   the [`floorplan`] model) plus the [`nuca`] hops.
//! * [`floorplan`] — the analytic model behind Table 2 and the 15-cycle
//!   merged-access overhead, generalized past the paper's 16-tile die
//!   via [`Floorplan::for_cores`].
//! * [`nuca`] — the distance-aware (NUCA-style) hop-latency model for
//!   merged groups that span more tiles than the paper's die: zero extra
//!   cycles at or below the 16-tile threshold, one bus hop per further
//!   doubling of the covering span.
//!
//! Errors are the workspace's [`morphcache::MorphError`]. The bus and the
//! arbiter tree check a grouping with
//! [`morphcache::topology::check_partition`], the check every grouping in
//! the workspace goes through, and add only their own shape rule; the
//! floorplan reports an unrealizable core count as `InvalidConfig`.
//!
//! # Example
//!
//! ```
//! use morph_interconnect::bus::SegmentedBus;
//!
//! // 8 components in a (4,2,2) segment formation (Fig. 7).
//! let mut bus = SegmentedBus::new(8);
//! bus.configure(&[vec![0, 1, 2, 3], vec![4, 5], vec![6, 7]]).unwrap();
//! assert_eq!(bus.n_segments(), 3);
//! // Switches join only adjacent components: {0, 2} is no segment.
//! assert!(bus.configure(&[vec![0, 2], vec![1, 3], vec![4, 5, 6, 7]]).is_err());
//! assert_eq!(bus.n_segments(), 3);
//! ```

pub mod arbiter;
pub mod bus;
pub mod floorplan;
pub mod nuca;

pub use arbiter::{ArbiterTree, RoundRobinArbiter};
pub use bus::SegmentedBus;
pub use floorplan::{ArbiterHierarchyModel, Floorplan, SynthesisParams};
pub use nuca::NucaModel;
