//! # morph-system
//!
//! The system-level simulator of the MorphCache reproduction: wires the
//! trace-driven cores (`morph-cpu`), synthetic workloads (`morph-trace`),
//! the inclusive cache hierarchy (`morph-cache`), the segmented-bus timing
//! constants (`morph-interconnect`) and a topology policy — static
//! `(x:y:z)`, the adaptive MorphCache engine (`morphcache`), or the
//! PIPP/DSR baselines (`morph-baselines`) — into epoch-driven runs that
//! produce the numbers behind every table and figure of the paper. The
//! ideal offline scheme of §5.1 is not a policy: it is composed from the
//! static runs of one workload.
//!
//! * [`config`] — [`config::SystemConfig`]: geometry, epochs, seeds;
//! * [`workload`] — [`workload::Workload`]: a Table 5 mix, an arbitrary
//!   application list, or a 16-thread PARSEC application;
//! * [`policy`] — [`policy::Policy`] and the [`policy::MemoryBackend`]
//!   trait every scheme runs through (a `MemorySubsystem` plus the
//!   epoch hooks);
//! * [`backend`] — the four backend implementations and
//!   [`backend::from_policy`];
//! * [`sim`] — [`sim::SystemSim`]: the simulator shell and the one way
//!   to build a run (`new` or `with_backend`, then optionally
//!   `with_faults` / `with_cancel`); the epoch protocol itself, for
//!   simulated and sampling-skipped epochs alike, lives in a private
//!   `epoch` module;
//! * [`probes`] — event-sink probes (the engine sink, oracle footprints,
//!   ACFV sweeps for Fig. 5);
//! * [`sampling`] — representative-interval sampling: simulate one
//!   epoch per detected phase, fast-forward the rest, extrapolate
//!   ([`sampling::run_sampled`]);
//! * [`faults`] — deterministic fault injection into the simulated
//!   machine ([`faults::FaultPlan`]) behind the
//!   [`faults::FaultInjector`] trait;
//! * [`experiment`] — the one-call runner [`experiment::run_workload`],
//!   the parallel matrix ([`experiment::run_cells`]) and the ideal
//!   offline scheme composed from static runs
//!   ([`experiment::ideal_offline_throughput`]);
//! * [`supervisor`] — supervised matrix execution: panic isolation,
//!   per-cell deadlines, retry with deterministic backoff, graceful
//!   shutdown ([`supervisor::Supervisor`]), and the execution-level
//!   chaos schedule that tests them ([`supervisor::ChaosPlan`]);
//! * [`journal`] — the checkpoint journal supervised runs record to and
//!   resume from ([`journal::RunJournal`]).
//!
//! All public driver APIs return `Result<_, MorphError>`: configuration
//! problems surface as [`morphcache::MorphError::InvalidConfig`] before a
//! run starts, and a core that stops retiring instructions mid-run trips
//! the forward-progress watchdog as [`morphcache::MorphError::Stalled`]
//! instead of hanging.
//!
//! # Example
//!
//! ```
//! use morph_system::prelude::*;
//!
//! let cfg = SystemConfig::quick_test(4);
//! let apps = ["gcc", "hmmer", "mcf", "libquantum"];
//! let run = run_workload(&cfg, &Workload::named_apps(&apps).unwrap(), &Policy::morph(&cfg))
//!     .expect("quick-test run completes");
//! assert!(run.mean_throughput() > 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod backend;
pub mod config;
mod epoch;
pub mod experiment;
pub mod faults;
pub mod journal;
pub mod policy;
pub mod probes;
pub mod sampling;
pub mod sim;
pub mod supervisor;
pub mod workload;

/// Convenient glob-import surface for examples, figures and tests.
pub mod prelude {
    pub use crate::backend::from_policy;
    pub use crate::config::SystemConfig;
    pub use crate::experiment::{
        default_jobs, ideal_offline_throughput, run_cells, run_workload, ExperimentMatrix,
        MatrixCell, RunResult,
    };
    pub use crate::faults::{FaultInjector, FaultKind, FaultPlan, NoFaults};
    pub use crate::journal::RunJournal;
    pub use crate::policy::{BoundaryReport, EpochCtx, MemoryBackend, Policy};
    pub use crate::sampling::{run_sampled, LevelExtrapolation, SampledRun, SamplingConfig};
    pub use crate::sim::{EpochResult, SystemSim};
    pub use crate::supervisor::{
        CancelToken, CellFailure, CellReport, CellStatus, ChaosAction, ChaosPlan, ShutdownFlag,
        SuperviseOptions, SupervisedMatrix, Supervisor,
    };
    pub use crate::workload::Workload;
    pub use morph_metrics::MatrixTiming;
    pub use morphcache::{MorphError, StallDiagnostic, SymmetricTopology};
}
