//! # morph-metrics
//!
//! Performance metrics and small statistics utilities used throughout the
//! MorphCache reproduction:
//!
//! * **throughput** — sum of per-core IPCs (the paper's primary metric);
//! * **weighted speedup** (WS) — `Σ IPC_i / IPC_alone_i`, "gives equal
//!   weight to the relative performance of each application" (§5.1);
//! * **fair speedup** (FS) — the harmonic mean of per-application
//!   speedups, which "balances both fairness and performance" \[25\];
//! * **Pearson correlation** — used by the Fig. 5 ACFV-vs-oracle study;
//! * fixed-width table rendering for the figure reports;
//! * the workspace's JSON codec ([`Json`]);
//! * wall-clock accounting ([`MatrixTiming`]) for the parallel
//!   experiment matrix (cells/sec, speedup over a serial schedule).

pub mod bench;
pub mod json;
pub mod speedup;
pub mod stats;
pub mod table;
pub mod timing;

pub use bench::{BenchBackend, BenchBaseline, BenchError, BenchReport, BENCH_SCHEMA};
pub use json::Json;
pub use speedup::{fair_speedup, throughput, weighted_speedup};
pub use stats::{geometric_mean, mean, pearson, std_dev};
pub use table::Table;
pub use timing::MatrixTiming;
