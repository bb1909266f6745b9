//! Supervised execution of the experiment matrix: panic isolation,
//! per-cell deadlines, bounded retry with deterministic backoff,
//! checkpoint/resume, and graceful shutdown.
//!
//! [`crate::experiment::run_cells`] is the strict view of the same
//! queue: no retries, no deadline, and the first failed cell fails the
//! matrix. The [`Supervisor`] runs scoped workers pulling from an atomic
//! counter (so results are bit-identical for any `jobs` value), wraps
//! every attempt in [`catch_unwind`] and classifies what went wrong as a
//! typed [`CellFailure`]:
//!
//! * a **panic** on the worker is caught and retried — it never takes the
//!   other cells down;
//! * a **deadline** ([`SuperviseOptions::cell_timeout_seconds`]) travels
//!   in the attempt's [`CancelToken`]; the simulator polls the token at
//!   every epoch boundary and aborts with [`MorphError::Cancelled`] once
//!   the deadline has passed — no thread is ever killed mid-epoch;
//! * a **typed error** is retried like a panic (faults and topology
//!   errors are usually deterministic, but retrying is harmless — the
//!   cell is a pure function of its inputs);
//! * retries are separated by **bounded deterministic backoff**
//!   (`min(1 s, 0.05 s·2^(attempt-1))` — no RNG, no unbounded growth);
//! * after the retry budget the cell is marked
//!   [`Degraded`](CellStatus::Degraded) and the matrix *keeps going*: a
//!   supervised run always completes and reports per-cell status
//!   ([`SupervisedMatrix`]).
//!
//! With a [`RunJournal`] attached, every completed cell is checkpointed
//! as soon as it finishes; a [`ShutdownFlag`] (set programmatically or by
//! SIGINT) interrupts the run gracefully — every attempt's token observes
//! the flag, so in-flight cells are cancelled at their next epoch
//! boundary, the journal stays consistent, and a resumed run loads the
//! recorded cells back bit-identically as [`Cached`](CellStatus::Cached).
//!
//! This module (with `experiment.rs`) is the audited home of thread
//! machinery in the workspace — see the `no-unapproved-thread-state`
//! rule of `morph-lint`. Determinism is preserved because supervision
//! only decides *whether and when* a cell runs, never *what it computes*.

use crate::config::SystemConfig;
use crate::experiment::{ExperimentMatrix, MatrixCell, RunResult};
use crate::journal::RunJournal;
use crate::sim::SystemSim;
use morph_metrics::timing::{sleep_seconds, Stopwatch};
use morph_metrics::MatrixTiming;
use morphcache::{MorphError, Xoshiro256pp};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Seconds per slice of an interruptible sleep (backoff, chaos stalls):
/// short enough that cancellation and shutdown are honored promptly.
const SLEEP_SLICE_SECONDS: f64 = 0.002;

/// The first retry's backoff in seconds; it doubles per further attempt.
const BACKOFF_BASE_SECONDS: f64 = 0.05;

/// Upper bound on any single backoff sleep, in seconds.
const BACKOFF_CAP_SECONDS: f64 = 1.0;

/// The deterministic backoff before attempt `attempt` (1-based for
/// retries): `min(cap, base·2^(attempt-1))`.
fn backoff_seconds(attempt: u32) -> f64 {
    if attempt == 0 {
        return 0.0;
    }
    let exp = 2f64.powi((attempt - 1).min(30) as i32);
    (BACKOFF_BASE_SECONDS * exp).min(BACKOFF_CAP_SECONDS)
}

/// A cooperative cancellation token for one cell attempt: it fires once
/// the attempt's wall-clock limit has elapsed or a shutdown is requested.
/// The simulator polls it at every epoch boundary (see `epoch.rs`) and
/// aborts the run with [`MorphError::Cancelled`] without killing the
/// thread.
#[derive(Debug, Clone)]
pub struct CancelToken {
    started: Stopwatch,
    limit_seconds: Option<f64>,
    shutdown: ShutdownFlag,
}

impl CancelToken {
    /// A token that fires `limit_seconds` of wall time from now (never,
    /// if `None`) or as soon as `shutdown` is requested.
    pub fn new(limit_seconds: Option<f64>, shutdown: ShutdownFlag) -> Self {
        Self {
            started: Stopwatch::start(),
            limit_seconds,
            shutdown,
        }
    }

    /// Whether the limit has elapsed or a shutdown has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.shutdown.is_requested()
            || self
                .limit_seconds
                .is_some_and(|limit| self.started.has_elapsed(limit))
    }
}

/// SIGINT lands here; process-global by the nature of signal handlers.
static SIGINT_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn handle_sigint(_signum: i32) {
    // Only async-signal-safe work: set the flag and return. The run
    // notices at its next shutdown poll and winds down gracefully.
    SIGINT_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigint_handler() {
    // libc's `signal` is already linked by std; binding it directly keeps
    // the workspace dependency-free. SIGINT is 2 on every unix.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `handle_sigint` is an `extern "C" fn(i32)` that only
    // performs an atomic store, which is async-signal-safe.
    let handler: extern "C" fn(i32) = handle_sigint;
    unsafe {
        signal(SIGINT, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// A graceful-shutdown request: set programmatically ([`request`]) or by
/// SIGINT when armed with [`with_sigint`]. The supervisor stops handing
/// out new cells, and every in-flight attempt's [`CancelToken`] fires at
/// its next epoch boundary.
///
/// [`request`]: ShutdownFlag::request
/// [`with_sigint`]: ShutdownFlag::with_sigint
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    local: Arc<AtomicBool>,
    sigint: bool,
}

impl ShutdownFlag {
    /// A flag that only [`request`](ShutdownFlag::request) can set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A flag that SIGINT (ctrl-C) also sets: installs the process-wide
    /// handler and observes it alongside the local flag.
    pub fn with_sigint() -> Self {
        install_sigint_handler();
        Self {
            local: Arc::default(),
            sigint: true,
        }
    }

    /// Requests a graceful shutdown.
    pub fn request(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (locally or, if armed, by
    /// SIGINT).
    pub fn is_requested(&self) -> bool {
        self.local.load(Ordering::SeqCst)
            || (self.sigint && SIGINT_REQUESTED.load(Ordering::SeqCst))
    }
}

/// The final status of one matrix cell under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Completed on the first attempt.
    Completed,
    /// Completed after at least one failed attempt (panic, typed error,
    /// or deadline expiry) — the retry policy saved it.
    Recovered,
    /// Skipped entirely: a bit-identical result was loaded from the
    /// checkpoint journal of a previous run.
    Cached,
    /// Every attempt failed; the cell has no result but did not take the
    /// rest of the matrix down with it.
    Degraded,
    /// A graceful shutdown was requested before the cell could finish;
    /// resuming from the journal will run it.
    Interrupted,
}

impl CellStatus {
    /// Whether the cell ended with a usable result.
    pub fn has_result(self) -> bool {
        matches!(
            self,
            CellStatus::Completed | CellStatus::Recovered | CellStatus::Cached
        )
    }

    /// Short lowercase label for CLI tables (`ok`, `recovered`, ...).
    pub fn label(self) -> &'static str {
        match self {
            CellStatus::Completed => "ok",
            CellStatus::Recovered => "recovered",
            CellStatus::Cached => "cached",
            CellStatus::Degraded => "degraded",
            CellStatus::Interrupted => "interrupted",
        }
    }
}

impl fmt::Display for CellStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One failed attempt of one cell, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFailure {
    /// The attempt panicked on the worker thread; the payload's message
    /// is preserved for the report.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The attempt returned a typed error.
    Error(MorphError),
    /// The attempt ran past the per-cell deadline and was cancelled at
    /// an epoch boundary.
    DeadlineExpired {
        /// The deadline that expired, in wall seconds.
        limit_seconds: f64,
        /// Epoch at which the cancellation was observed.
        epoch: u64,
    },
    /// A graceful shutdown arrived before (or while) the attempt ran;
    /// the cell is left for a resumed run.
    Interrupted,
}

impl CellFailure {
    /// Whether this failure counts against the retry budget (shutdown
    /// does not — the cell is not broken, the run is over).
    fn counts_as_retry(&self) -> bool {
        !matches!(self, CellFailure::Interrupted)
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Panicked { message } => write!(f, "panicked: {message}"),
            CellFailure::Error(e) => write!(f, "{e}"),
            CellFailure::DeadlineExpired {
                limit_seconds,
                epoch,
            } => write!(f, "deadline of {limit_seconds}s expired at epoch {epoch}"),
            CellFailure::Interrupted => write!(f, "interrupted by shutdown"),
        }
    }
}

/// The full supervision record of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's input-order index.
    pub index: usize,
    /// Final status.
    pub status: CellStatus,
    /// Failed attempts (excluding a shutdown interruption).
    pub retries: u32,
    /// Every failure, in attempt order.
    pub failures: Vec<CellFailure>,
    /// Wall seconds the cell occupied its worker (all attempts plus
    /// backoff); for a cached cell, the original run's recorded seconds.
    pub seconds: f64,
}

impl CellReport {
    /// The error a caller that cannot tolerate failed cells should
    /// report for this cell — [`run_cells`](crate::experiment::run_cells)
    /// semantics: a panic maps to the legacy [`MorphError::Workload`]
    /// message, everything else to its own variant.
    pub fn first_error(&self) -> MorphError {
        match self.failures.first() {
            Some(CellFailure::Error(e)) => e.clone(),
            Some(CellFailure::Panicked { .. }) => MorphError::Workload(format!(
                "experiment thread for cell {} panicked",
                self.index
            )),
            Some(CellFailure::DeadlineExpired { epoch, .. }) => {
                MorphError::Cancelled { epoch: *epoch }
            }
            Some(CellFailure::Interrupted) | None => MorphError::Cancelled { epoch: 0 },
        }
    }
}

/// Supervision policy for one matrix run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseOptions {
    /// Worker threads (clamped to the cell count, minimum 1).
    pub jobs: usize,
    /// Per-attempt wall-clock deadline; `None` sets none (shutdown
    /// cancellation still works).
    pub cell_timeout_seconds: Option<f64>,
    /// Failed attempts to retry before marking a cell degraded.
    pub retries: u32,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        Self {
            jobs: crate::experiment::default_jobs(),
            cell_timeout_seconds: None,
            retries: 2,
        }
    }
}

/// The outcome of a supervised matrix run. Unlike
/// [`ExperimentMatrix`], it always exists — failed cells surface as
/// `None` results with a [`CellReport`] explaining why.
#[derive(Debug)]
pub struct SupervisedMatrix {
    /// Per-cell results in input order; `None` for degraded or
    /// interrupted cells.
    pub results: Vec<Option<RunResult>>,
    /// Per-cell supervision records, in input order.
    pub reports: Vec<CellReport>,
    /// Wall-clock and per-cell timing of the run.
    pub timing: MatrixTiming,
    /// Worker threads the matrix ran on.
    pub jobs: usize,
}

impl SupervisedMatrix {
    /// Number of cells that ended with `status`.
    pub fn count(&self, status: CellStatus) -> usize {
        self.reports.iter().filter(|r| r.status == status).count()
    }

    /// One-line summary for run reports, e.g.
    /// `"8 cells: 5 ok, 1 recovered, 2 cached; 3 retries"`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = [
            CellStatus::Completed,
            CellStatus::Recovered,
            CellStatus::Cached,
            CellStatus::Degraded,
            CellStatus::Interrupted,
        ]
        .into_iter()
        .map(|status| (self.count(status), status))
        .filter(|&(n, _)| n > 0)
        .map(|(n, status)| format!("{n} {status}"))
        .collect();
        let retries: u64 = self.reports.iter().map(|r| u64::from(r.retries)).sum();
        format!(
            "{} cells: {}; {retries} retries",
            self.reports.len(),
            if parts.is_empty() {
                "empty".to_string()
            } else {
                parts.join(", ")
            }
        )
    }

    /// Whether every cell ended with a usable result.
    pub fn is_complete(&self) -> bool {
        self.reports.iter().all(|r| r.status.has_result())
    }

    /// Whether the run was cut short by a shutdown request.
    pub fn was_interrupted(&self) -> bool {
        self.reports
            .iter()
            .any(|r| r.status == CellStatus::Interrupted)
    }

    /// Converts to the strict [`ExperimentMatrix`], failing with the
    /// first result-less cell's error in input order (the historical
    /// [`run_cells`](crate::experiment::run_cells) contract).
    ///
    /// # Errors
    ///
    /// Returns [`CellReport::first_error`] of the first cell without a
    /// result.
    pub fn into_matrix(self) -> Result<ExperimentMatrix, MorphError> {
        let mut results = Vec::with_capacity(self.results.len());
        for (slot, report) in self.results.into_iter().zip(&self.reports) {
            match slot {
                Some(r) => results.push(r),
                None => return Err(report.first_error()),
            }
        }
        Ok(ExperimentMatrix {
            results,
            timing: self.timing,
            jobs: self.jobs,
        })
    }
}

/// What the chaos harness does to one (cell, attempt) execution of the
/// supervised experiment matrix.
///
/// Unlike [`FaultKind`](crate::faults::FaultKind), which perturbs the
/// *simulated machine* (and so changes the cell's statistics), chaos
/// actions attack the *execution harness* — worker panics, wall-clock
/// stalls, mid-run kills — and must never change what a surviving cell
/// computes: the supervised run's results converge bit-identically to
/// an unfaulted run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosAction {
    /// Run the attempt normally.
    None,
    /// Panic on the worker thread before the cell runs (exercises
    /// panic isolation and retry).
    Panic,
    /// Hold the worker for `seconds` of wall time before the cell runs
    /// (exercises the per-cell deadline and the cancel token).
    Stall {
        /// Wall-clock seconds to stall.
        seconds: f64,
    },
}

/// A deterministic chaos schedule over (cell, attempt) pairs, which the
/// supervisor consults before running each cell attempt.
///
/// Built explicitly ([`with_panic`] / [`with_stall`] / [`with_kill_after`]),
/// parsed from a `--chaos` spec string ([`parse`]), or drawn from a seed
/// as a randomized campaign ([`campaign`]). Like
/// [`FaultPlan`](crate::faults::FaultPlan), the same
/// inputs produce byte-identical schedules.
///
/// [`with_panic`]: ChaosPlan::with_panic
/// [`with_stall`]: ChaosPlan::with_stall
/// [`with_kill_after`]: ChaosPlan::with_kill_after
/// [`parse`]: ChaosPlan::parse
/// [`campaign`]: ChaosPlan::campaign
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    panics: Vec<(usize, u32)>,
    stalls: Vec<(usize, u32, f64)>,
    kill_after: Option<usize>,
}

impl ChaosPlan {
    /// An empty (no-op) schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics attempt `attempt` of cell `cell`.
    #[must_use]
    pub fn with_panic(mut self, cell: usize, attempt: u32) -> Self {
        self.panics.push((cell, attempt));
        self
    }

    /// Stalls attempt `attempt` of cell `cell` for `seconds` wall time.
    #[must_use]
    pub fn with_stall(mut self, cell: usize, attempt: u32, seconds: f64) -> Self {
        self.stalls.push((cell, attempt, seconds));
        self
    }

    /// Requests a graceful shutdown after `k` completed cells.
    #[must_use]
    pub fn with_kill_after(mut self, k: usize) -> Self {
        self.kill_after = Some(k);
        self
    }

    /// Whether this schedule injects nothing.
    pub fn is_noop(&self) -> bool {
        self.panics.is_empty() && self.stalls.is_empty() && self.kill_after.is_none()
    }

    /// Parses a `--chaos` spec string.
    ///
    /// Grammar: semicolon-separated clauses, each one of
    ///
    /// * `panic=CELL@ATTEMPT` — panic that attempt of that cell;
    /// * `stall=CELL:SECS@ATTEMPT` — hold the worker `SECS` wall seconds;
    /// * `kill=K` — request graceful shutdown after `K` completed cells.
    ///
    /// Example: `panic=0@0;stall=2:0.2@0;kill=3`.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::FaultSpec`] on any unrecognized or
    /// malformed clause.
    pub fn parse(spec: &str) -> Result<Self, MorphError> {
        let bad = |clause: &str, why: &str| {
            Err(MorphError::FaultSpec(format!("clause `{clause}`: {why}")))
        };
        let int = |s: &str, clause: &str| {
            s.parse::<u64>().map_err(|_| {
                MorphError::FaultSpec(format!("clause `{clause}`: `{s}` is not an integer"))
            })
        };
        let mut plan = Self::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(k) = clause.strip_prefix("kill=") {
                plan.kill_after = Some(int(k, clause)? as usize);
                continue;
            }
            let Some((head, at)) = clause.split_once('@') else {
                return bad(clause, "expected `kind=...@attempt` or `kill=K`");
            };
            let attempt = u32::try_from(int(at, clause)?).map_err(|_| {
                MorphError::FaultSpec(format!(
                    "clause `{clause}`: attempt `{at}` exceeds {}",
                    u32::MAX
                ))
            })?;
            match head.split_once('=') {
                Some(("panic", cell)) => {
                    plan.panics.push((int(cell, clause)? as usize, attempt));
                }
                Some(("stall", rest)) => {
                    let Some((cell, secs)) = rest.split_once(':') else {
                        return bad(clause, "expected `stall=CELL:SECS@ATTEMPT`");
                    };
                    let seconds = secs.parse::<f64>().map_err(|_| {
                        MorphError::FaultSpec(format!(
                            "clause `{clause}`: `{secs}` is not a number"
                        ))
                    })?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return bad(clause, "stall seconds must be positive and finite");
                    }
                    plan.stalls
                        .push((int(cell, clause)? as usize, attempt, seconds));
                }
                _ => return bad(clause, "unknown chaos kind"),
            }
        }
        Ok(plan)
    }

    /// A seed-derived randomized campaign over `n_cells` cells: roughly a
    /// quarter of the cells panic on their first attempt, a quarter stall
    /// for `stall_seconds`, a quarter panic *and then* stall (recovering
    /// needs two retries), and the rest run clean. Deterministic per seed.
    pub fn campaign(seed: u64, n_cells: usize, stall_seconds: f64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut plan = Self::new();
        for cell in 0..n_cells {
            match rng.next_u64() % 4 {
                0 => plan.panics.push((cell, 0)),
                1 => plan.stalls.push((cell, 0, stall_seconds)),
                2 => {
                    plan.panics.push((cell, 0));
                    plan.stalls.push((cell, 1, stall_seconds));
                }
                _ => {}
            }
        }
        plan
    }

    /// Validates the schedule against the matrix it is about to attack.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::FaultSpec`] for clauses that reference cells
    /// the matrix does not have.
    pub fn validate(&self, n_cells: usize) -> Result<(), MorphError> {
        let check = |cell: usize, what: &str| {
            if cell >= n_cells {
                Err(MorphError::FaultSpec(format!(
                    "{what} references cell {cell} of a {n_cells}-cell matrix"
                )))
            } else {
                Ok(())
            }
        };
        for &(cell, attempt) in &self.panics {
            check(cell, &format!("panic={cell}@{attempt}"))?;
        }
        for &(cell, attempt, _) in &self.stalls {
            check(cell, &format!("stall={cell}@{attempt}"))?;
        }
        Ok(())
    }

    /// The action for attempt `attempt` (0-based) of cell `cell`.
    pub fn action(&self, cell: usize, attempt: u32) -> ChaosAction {
        // Panic wins over stall for the same (cell, attempt): a panicking
        // worker never reaches the stall.
        if self.panics.iter().any(|&(c, a)| c == cell && a == attempt) {
            return ChaosAction::Panic;
        }
        if let Some(&(_, _, seconds)) = self
            .stalls
            .iter()
            .find(|&&(c, a, _)| c == cell && a == attempt)
        {
            return ChaosAction::Stall { seconds };
        }
        ChaosAction::None
    }

    /// If `Some(k)`, a graceful shutdown is requested once `k` cells have
    /// completed — simulating an operator kill mid-run, for the
    /// checkpoint/resume path.
    pub fn kill_after(&self) -> Option<usize> {
        self.kill_after
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Supervised runner for the experiment matrix. Build with
/// [`Supervisor::new`], attach a journal / chaos schedule / shutdown
/// flag, then [`run`](Supervisor::run).
pub struct Supervisor<'a> {
    options: SuperviseOptions,
    journal: Option<RunJournal>,
    chaos: Option<&'a ChaosPlan>,
    shutdown: ShutdownFlag,
}

impl<'a> Supervisor<'a> {
    /// A supervisor with the given policy and no journal, chaos, or
    /// external shutdown flag.
    pub fn new(options: SuperviseOptions) -> Self {
        Self {
            options,
            journal: None,
            chaos: None,
            shutdown: ShutdownFlag::new(),
        }
    }

    /// Attaches a checkpoint journal: completed cells are recorded as
    /// they finish, and cells the journal already holds run as
    /// [`Cached`](CellStatus::Cached).
    #[must_use]
    pub fn with_journal(mut self, journal: RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a chaos schedule (test harness only — see
    /// [`ChaosPlan`]).
    #[must_use]
    pub fn with_chaos(mut self, chaos: &'a ChaosPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Observes (and lets the run trip) an external shutdown flag.
    #[must_use]
    pub fn with_shutdown(mut self, shutdown: ShutdownFlag) -> Self {
        self.shutdown = shutdown;
        self
    }

    /// Runs the matrix under supervision. Always returns a
    /// [`SupervisedMatrix`] unless the configuration itself is invalid —
    /// cell failures are *reported*, not propagated.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] if `cfg` fails validation
    /// (nothing would be runnable), and [`MorphError::FaultSpec`] if the
    /// attached chaos schedule references cells the matrix lacks.
    pub fn run(
        &self,
        cfg: &SystemConfig,
        cells: &[MatrixCell],
    ) -> Result<SupervisedMatrix, MorphError> {
        cfg.validate()?;
        if let Some(chaos) = self.chaos {
            chaos.validate(cells.len())?;
        }
        let wall = Stopwatch::start();
        let workers = self.options.jobs.max(1).min(cells.len().max(1));
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let mut slots: Vec<Option<(Option<RunResult>, CellReport)>> = Vec::new();
        slots.resize_with(cells.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| self.worker_loop(cfg, cells, &next, &completed)))
                .collect();
            for h in handles {
                if let Ok(mine) = h.join() {
                    for (i, result, report) in mine {
                        slots[i] = Some((result, report));
                    }
                }
            }
        });
        let mut results = Vec::with_capacity(cells.len());
        let mut reports = Vec::with_capacity(cells.len());
        let mut cell_seconds = Vec::with_capacity(cells.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let (result, report) = slot.unwrap_or_else(|| {
                // The queue handed the index out but no worker reported
                // back (a shutdown raced the handoff): interrupted.
                (
                    None,
                    CellReport {
                        index: i,
                        status: CellStatus::Interrupted,
                        retries: 0,
                        failures: vec![CellFailure::Interrupted],
                        seconds: 0.0,
                    },
                )
            });
            // A cached cell cost this run no compute; its report keeps the
            // original run's seconds, but the timing must not count them.
            cell_seconds.push(if report.status == CellStatus::Cached {
                0.0
            } else {
                report.seconds
            });
            results.push(result);
            reports.push(report);
        }
        Ok(SupervisedMatrix {
            results,
            reports,
            timing: MatrixTiming {
                wall_seconds: wall.elapsed_seconds(),
                cell_seconds,
            },
            jobs: workers,
        })
    }

    /// One worker: pull cells off the queue until it drains, supervising
    /// each attempt. Returns this worker's outcomes for input-order
    /// reassembly.
    fn worker_loop(
        &self,
        cfg: &SystemConfig,
        cells: &[MatrixCell],
        next: &AtomicUsize,
        completed: &AtomicUsize,
    ) -> Vec<(usize, Option<RunResult>, CellReport)> {
        let kill_after = self.chaos.and_then(ChaosPlan::kill_after);
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else { break };
            let cached = self
                .journal
                .as_ref()
                .and_then(|j| j.cached().get(i).cloned().flatten());
            if let Some((result, seconds)) = cached {
                // Cached cells do not advance the completion counter: a
                // chaos `kill_after` counts fresh completions, so a
                // resumed run is not re-killed by its own checkpoint.
                mine.push((
                    i,
                    Some(result),
                    CellReport {
                        index: i,
                        status: CellStatus::Cached,
                        retries: 0,
                        failures: Vec::new(),
                        seconds,
                    },
                ));
                continue;
            }
            let (result, mut report) = self.supervise_cell(i, cfg, cell);
            if let Some(r) = &result {
                if let Some(journal) = &self.journal {
                    // A journal write failure degrades durability, not
                    // the run: the result stands, the failure is logged
                    // on the report.
                    if let Err(e) = journal.record(i, r, report.seconds) {
                        report.failures.push(CellFailure::Error(e));
                    }
                }
                let finished = completed.fetch_add(1, Ordering::SeqCst) + 1;
                if kill_after.is_some_and(|k| finished >= k) {
                    self.shutdown.request();
                }
            }
            mine.push((i, result, report));
        }
        mine
    }

    /// Supervises all attempts of one cell.
    fn supervise_cell(
        &self,
        index: usize,
        cfg: &SystemConfig,
        cell: &MatrixCell,
    ) -> (Option<RunResult>, CellReport) {
        let watch = Stopwatch::start();
        let mut failures: Vec<CellFailure> = Vec::new();
        let mut result = None;
        let mut status = CellStatus::Degraded;
        let mut attempt: u32 = 0;
        loop {
            self.interruptible_sleep(backoff_seconds(attempt));
            if self.shutdown.is_requested() {
                status = CellStatus::Interrupted;
                failures.push(CellFailure::Interrupted);
                break;
            }
            let token = CancelToken::new(self.options.cell_timeout_seconds, self.shutdown.clone());
            let chaos_action = self
                .chaos
                .map_or(ChaosAction::None, |c| c.action(index, attempt));
            let run = catch_unwind(AssertUnwindSafe(|| {
                attempt_cell(cfg, cell, &token, chaos_action)
            }));
            match run {
                Ok(Ok(r)) => {
                    status = if attempt == 0 {
                        CellStatus::Completed
                    } else {
                        CellStatus::Recovered
                    };
                    result = Some(r);
                    break;
                }
                Ok(Err(MorphError::Cancelled { epoch })) => {
                    if self.shutdown.is_requested() {
                        status = CellStatus::Interrupted;
                        failures.push(CellFailure::Interrupted);
                        break;
                    }
                    failures.push(CellFailure::DeadlineExpired {
                        limit_seconds: self.options.cell_timeout_seconds.unwrap_or(f64::INFINITY),
                        epoch,
                    });
                }
                Ok(Err(e)) => failures.push(CellFailure::Error(e)),
                Err(payload) => failures.push(CellFailure::Panicked {
                    message: panic_message(payload),
                }),
            }
            if attempt >= self.options.retries {
                // `status` keeps its Degraded initialization.
                break;
            }
            attempt += 1;
        }
        let retries = failures.iter().filter(|f| f.counts_as_retry()).count() as u32;
        (
            result,
            CellReport {
                index,
                status,
                retries,
                failures,
                seconds: watch.elapsed_seconds(),
            },
        )
    }

    /// Sleeps `seconds` in short slices, returning early on shutdown.
    fn interruptible_sleep(&self, seconds: f64) {
        let mut remaining = seconds;
        while remaining > 0.0 && !self.shutdown.is_requested() {
            let slice = remaining.min(SLEEP_SLICE_SECONDS);
            sleep_seconds(slice);
            remaining -= slice;
        }
    }
}

/// One attempt: apply the chaos action (if any), then run the cell with
/// the cancel token installed.
fn attempt_cell(
    cfg: &SystemConfig,
    cell: &MatrixCell,
    token: &CancelToken,
    chaos: ChaosAction,
) -> Result<RunResult, MorphError> {
    match chaos {
        ChaosAction::Panic => {
            // morph-lint: allow(no-panic-in-lib, reason = "chaos injection: deliberately panics inside the supervisor's catch_unwind to prove isolation")
            panic!("chaos: injected panic");
        }
        ChaosAction::Stall { seconds } => {
            // Simulate a hang the deadline must break: hold the worker
            // until the stall elapses or the token fires.
            let sw = Stopwatch::start();
            while !sw.has_elapsed(seconds) {
                if token.is_cancelled() {
                    return Err(MorphError::Cancelled { epoch: 0 });
                }
                sleep_seconds(SLEEP_SLICE_SECONDS);
            }
        }
        ChaosAction::None => {}
    }
    let epochs = SystemSim::new(cfg.with_seed(cell.seed), &cell.workload, &cell.policy)?
        .with_cancel(token.clone())
        .run()?;
    Ok(RunResult {
        policy_name: cell.policy.name(),
        workload_name: cell.workload.name(),
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::workload::Workload;

    fn small_cells(n: usize) -> (SystemConfig, Vec<MatrixCell>) {
        let cfg = SystemConfig::quick_test(4).with_epochs(2);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let cells = (0..n)
            .map(|i| MatrixCell::new(w.clone(), Policy::baseline(4), i as u64))
            .collect();
        (cfg, cells)
    }

    fn quick_options(jobs: usize) -> SuperviseOptions {
        SuperviseOptions {
            jobs,
            ..SuperviseOptions::default()
        }
    }

    /// A matrix with one result-less cell per `(status, retries)` pair.
    fn matrix_of(cells: &[(CellStatus, u32)]) -> SupervisedMatrix {
        SupervisedMatrix {
            results: vec![None; cells.len()],
            reports: cells
                .iter()
                .enumerate()
                .map(|(index, &(status, retries))| CellReport {
                    index,
                    status,
                    retries,
                    failures: Vec::new(),
                    seconds: 0.0,
                })
                .collect(),
            timing: MatrixTiming::default(),
            jobs: 1,
        }
    }

    #[test]
    fn cancel_token_fires_on_an_elapsed_limit_or_a_shutdown() {
        let shutdown = ShutdownFlag::new();
        let unlimited = CancelToken::new(None, shutdown.clone());
        let distant = CancelToken::new(Some(3600.0), shutdown.clone());
        assert!(!unlimited.is_cancelled());
        assert!(!distant.is_cancelled());
        let elapsed = CancelToken::new(Some(0.0), ShutdownFlag::new());
        assert!(elapsed.is_cancelled(), "an elapsed limit fires");
        shutdown.clone().request();
        assert!(unlimited.is_cancelled(), "clones share the shutdown flag");
        assert!(distant.is_cancelled());
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        assert_eq!(backoff_seconds(0), 0.0);
        assert_eq!(backoff_seconds(1), 0.05);
        assert_eq!(backoff_seconds(2), 0.1);
        assert_eq!(backoff_seconds(5), 0.8);
        assert_eq!(backoff_seconds(6), 1.0, "capped");
        assert_eq!(backoff_seconds(100), 1.0, "still capped, no overflow");
    }

    #[test]
    fn status_classification() {
        assert!(CellStatus::Completed.has_result());
        assert!(CellStatus::Recovered.has_result());
        assert!(CellStatus::Cached.has_result());
        assert!(!CellStatus::Degraded.has_result());
        assert!(!CellStatus::Interrupted.has_result());
        assert_eq!(CellStatus::Completed.label(), "ok");
        assert_eq!(CellStatus::Recovered.to_string(), "recovered");
    }

    #[test]
    fn all_completed_matrix_summary() {
        let m = matrix_of(&[(CellStatus::Completed, 0); 3]);
        assert!(m.is_complete());
        assert!(!m.was_interrupted());
        assert_eq!(m.summary(), "3 cells: 3 ok; 0 retries");
    }

    #[test]
    fn mixed_matrix_counts_and_summary() {
        let m = matrix_of(&[
            (CellStatus::Completed, 0),
            (CellStatus::Recovered, 2),
            (CellStatus::Cached, 0),
            (CellStatus::Degraded, 3),
            (CellStatus::Interrupted, 1),
        ]);
        assert!(!m.is_complete());
        assert!(m.was_interrupted());
        assert_eq!(m.count(CellStatus::Degraded), 1);
        assert_eq!(
            m.summary(),
            "5 cells: 1 ok, 1 recovered, 1 cached, 1 degraded, 1 interrupted; 6 retries"
        );
    }

    #[test]
    fn empty_matrix_summary() {
        let m = matrix_of(&[]);
        assert!(m.is_complete(), "vacuously complete");
        assert_eq!(m.summary(), "0 cells: empty; 0 retries");
    }

    #[test]
    fn clean_run_reports_all_completed() {
        let (cfg, cells) = small_cells(3);
        let sup = Supervisor::new(quick_options(2));
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.is_complete());
        assert!(!m.was_interrupted());
        assert_eq!(m.count(CellStatus::Completed), 3);
        assert_eq!(m.summary(), "3 cells: 3 ok; 0 retries");
        let matrix = m.into_matrix().unwrap();
        assert_eq!(matrix.results.len(), 3);
    }

    #[test]
    fn chaos_panic_recovers_via_retry() {
        let (cfg, cells) = small_cells(3);
        let chaos = ChaosPlan::new().with_panic(1, 0);
        let sup = Supervisor::new(quick_options(2)).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.is_complete());
        assert_eq!(m.reports[1].status, CellStatus::Recovered);
        assert_eq!(m.reports[1].retries, 1);
        assert!(matches!(
            m.reports[1].failures[0],
            CellFailure::Panicked { .. }
        ));
        // The recovered result equals an unsupervised run of the cell.
        let clean = Supervisor::new(quick_options(1)).run(&cfg, &cells).unwrap();
        assert_eq!(m.results[1], clean.results[1]);
    }

    #[test]
    fn exhausted_retries_degrade_without_stopping_the_matrix() {
        let (cfg, cells) = small_cells(3);
        // Panic every attempt of cell 0 (retries default 2 → 3 attempts).
        let chaos = ChaosPlan::new()
            .with_panic(0, 0)
            .with_panic(0, 1)
            .with_panic(0, 2)
            .with_panic(0, 3);
        let sup = Supervisor::new(quick_options(2)).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(!m.is_complete());
        assert_eq!(m.reports[0].status, CellStatus::Degraded);
        assert_eq!(m.reports[0].retries, 3);
        assert!(m.results[1].is_some() && m.results[2].is_some());
        // The strict view surfaces the legacy panic error message.
        let err = m.into_matrix().unwrap_err();
        assert_eq!(
            err,
            MorphError::Workload("experiment thread for cell 0 panicked".into())
        );
    }

    #[test]
    fn deadline_cancels_a_stalled_cell_and_retry_recovers() {
        let (cfg, cells) = small_cells(2);
        // Cell 1 stalls 30s on its first attempt; a 2s deadline breaks
        // it and the retry (no stall at attempt 1) completes well inside
        // the limit — a quick-test cell finishes in well under a second.
        let chaos = ChaosPlan::new().with_stall(1, 0, 30.0);
        let options = SuperviseOptions {
            cell_timeout_seconds: Some(2.0),
            ..quick_options(2)
        };
        let sup = Supervisor::new(options).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.is_complete(), "{:?}", m.reports);
        assert_eq!(m.reports[1].status, CellStatus::Recovered);
        assert!(matches!(
            m.reports[1].failures[0],
            CellFailure::DeadlineExpired { .. }
        ));
    }

    #[test]
    fn kill_after_interrupts_remaining_cells() {
        let (cfg, cells) = small_cells(4);
        let chaos = ChaosPlan::new().with_kill_after(1);
        let sup = Supervisor::new(quick_options(1)).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.was_interrupted());
        assert_eq!(m.count(CellStatus::Completed), 1, "{}", m.summary());
        assert_eq!(m.count(CellStatus::Interrupted), 3, "{}", m.summary());
    }

    #[test]
    fn chaos_parse_and_lookup() {
        let plan = ChaosPlan::parse("panic=0@0;stall=2:0.25@1;kill=3").unwrap();
        assert_eq!(plan.action(0, 0), ChaosAction::Panic);
        assert_eq!(plan.action(0, 1), ChaosAction::None);
        assert_eq!(plan.action(2, 1), ChaosAction::Stall { seconds: 0.25 });
        assert_eq!(plan.kill_after(), Some(3));
        assert!(!plan.is_noop());
        assert!(ChaosPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn chaos_parse_rejects_malformed_clauses() {
        for bad in [
            "panic=0",
            "panic=x@0",
            "stall=1@0",
            "stall=1:-2@0",
            "stall=1:nan@0",
            "boom=1@0",
            "kill=x",
            "panic=0@4294967296",
        ] {
            let e = ChaosPlan::parse(bad).unwrap_err();
            assert!(matches!(e, MorphError::FaultSpec(_)), "{bad}: {e}");
        }
    }

    #[test]
    fn chaos_panic_wins_over_stall_same_slot() {
        let plan = ChaosPlan::new()
            .with_panic(1, 0)
            .with_stall(1, 0, 0.5)
            .with_stall(1, 1, 0.5);
        assert_eq!(plan.action(1, 0), ChaosAction::Panic);
        assert_eq!(plan.action(1, 1), ChaosAction::Stall { seconds: 0.5 });
    }

    #[test]
    fn chaos_campaign_is_deterministic_and_validates() {
        let a = ChaosPlan::campaign(7, 12, 0.1);
        let b = ChaosPlan::campaign(7, 12, 0.1);
        assert_eq!(a, b);
        assert_ne!(a, ChaosPlan::campaign(8, 12, 0.1));
        assert!(!a.is_noop(), "12 cells at seed 7 should draw some chaos");
        assert!(a.validate(12).is_ok());
        // Referencing a cell past the matrix is rejected up front.
        let bad = ChaosPlan::new().with_panic(5, 0);
        assert!(bad.validate(4).is_err());
        assert!(bad.validate(6).is_ok());
    }

    #[test]
    fn run_rejects_chaos_for_cells_the_matrix_lacks() {
        let (cfg, cells) = small_cells(2);
        let chaos = ChaosPlan::new().with_panic(5, 0);
        let err = Supervisor::new(quick_options(1))
            .with_chaos(&chaos)
            .run(&cfg, &cells)
            .unwrap_err();
        assert!(matches!(err, MorphError::FaultSpec(_)), "{err}");
    }
}
