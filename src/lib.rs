//! Umbrella crate for the MorphCache reproduction: re-exports the
//! workspace crates under one name for the examples and tests, and holds
//! the generators of the paper's tables and figures ([`figures`], run by
//! `morph figures`). See README.md for the tour.

pub mod figures;

pub use morph_baselines as baselines;
pub use morph_cache as cache;
pub use morph_cpu as cpu;
pub use morph_interconnect as interconnect;
pub use morph_metrics as metrics;
pub use morph_system as system;
pub use morph_trace as trace;
pub use morphcache as core_engine;
