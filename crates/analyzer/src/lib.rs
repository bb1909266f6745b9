//! # morph-analyzer
//!
//! Dependency-free static analysis for the MorphCache workspace, in two
//! halves:
//!
//! * [`lint`] — source-level determinism/robustness lints over all
//!   library crates ([`lexer`] provides the hand-rolled token stream;
//!   no `syn`, no external dependencies, the workspace builds offline).
//! * [`lattice`] — a model check of the merge/split reconfiguration
//!   lattice over the engine's own moves from `morphcache::topology`:
//!   every reachable `(L2, L3)` topology state is proved to be
//!   a valid buddy partition, preserve inclusion capacity, keep the
//!   arbitration graph a spanning tree, and remain reversible back to
//!   the all-private base. Up to 16 slices the check is an exhaustive
//!   enumeration ([`lattice::Lattice`]); at 64–1024 slices the
//!   symmetry-reduced [`lattice::ReducedLattice`] enumerates canonical
//!   forms at the 16-slice base (cross-checked against the full
//!   enumeration) and verifies the larger geometry compositionally.
//!
//! The `morph-lint` binary exposes both:
//!
//! ```text
//! morph-lint lint [--json] [--root PATH]     # exit 1 on findings
//! morph-lint lattice [--json] [--slices N]   # exit 1 on violations
//! ```
//!
//! [`json`] writes the `--format json` findings report and reads it back
//! with the workspace codec, `morph_metrics::Json`.

pub mod callgraph;
pub mod crashpoints;
pub mod json;
pub mod lattice;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod passes;
pub mod protocol;
pub mod sarif;

pub use lattice::{Lattice, LatticeReport, ReducedLattice, ReducedReport};
pub use lint::Finding;
pub use model::{build_workspace, Workspace};
pub use passes::{AnalysisReport, PassManager, PASS_NAMES};
