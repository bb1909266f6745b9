//! One-call experiment runners used by the CLI, the figure generators,
//! examples and tests, including the parallel experiment matrix, and the
//! §5.1 ideal offline scheme composed from static runs.
//!
//! The matrix fans independent (workload, policy) cells out over scoped
//! worker threads ([`run_cells`]). Every cell carries its own seed
//! ([`MatrixCell::seed`]), so a cell's run is a pure function of the cell
//! — results are bit-identical whether the matrix runs on 1 thread or 16,
//! and in the same input order regardless of completion order.

use crate::config::SystemConfig;
use crate::policy::Policy;
use crate::sim::{EpochResult, SystemSim};
use crate::supervisor::{SuperviseOptions, Supervisor};
use crate::workload::Workload;
use morph_metrics::MatrixTiming;
use morphcache::MorphError;

/// The full result of one policy × workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Display name of the policy.
    pub policy_name: String,
    /// Display name of the workload.
    pub workload_name: String,
    /// Per-epoch results, in order.
    pub epochs: Vec<EpochResult>,
}

impl RunResult {
    /// Mean (over epochs) of the per-epoch throughput (Σ IPC).
    pub fn mean_throughput(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.throughput()).sum::<f64>() / self.epochs.len() as f64
    }

    /// Per-core mean IPCs over all epochs.
    pub fn mean_ipcs(&self) -> Vec<f64> {
        if self.epochs.is_empty() {
            return Vec::new();
        }
        let n = self.epochs[0].ipcs.len();
        let mut acc = vec![0.0; n];
        for e in &self.epochs {
            for (a, &i) in acc.iter_mut().zip(e.ipcs.iter()) {
                *a += i;
            }
        }
        acc.iter().map(|a| a / self.epochs.len() as f64).collect()
    }

    /// Per-epoch throughput series (for the Fig. 2(a) time plot).
    pub fn throughput_series(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.throughput()).collect()
    }

    /// Total reconfigurations performed (§2.4 statistic).
    pub fn total_reconfigs(&self) -> usize {
        self.epochs.iter().map(|e| e.reconfig_events).sum()
    }

    /// Fraction of reconfigurations that left an asymmetric configuration
    /// (§2.4 statistic); 0 if no reconfigurations happened.
    pub fn asymmetric_fraction(&self) -> f64 {
        let total = self.total_reconfigs();
        if total == 0 {
            return 0.0;
        }
        let asym: usize = self.epochs.iter().map(|e| e.asymmetric_events).sum();
        asym as f64 / total as f64
    }

    /// Total memory accesses issued over all measured epochs (the
    /// numerator of the bench harness's accesses/sec metric).
    pub fn total_accesses(&self) -> u64 {
        self.epochs.iter().map(|e| e.accesses).sum()
    }
}

/// The §5.1 ideal offline scheme's throughput: the mean over epochs of
/// each epoch's best throughput among `statics`, as if the machine
/// switched to that epoch's best static topology for free.
///
/// `statics` are runs of one workload, seed and configuration under
/// different static topologies, so their epochs line up; the result is
/// at least every run's [`mean_throughput`](RunResult::mean_throughput).
/// Epochs past the shortest run are ignored, and no runs give 0.
/// DESIGN.md §7.8 says why this, not the literal snapshot-trial-restore
/// scheme, is the bound: trialling one epoch at a time is greedy.
pub fn ideal_offline_throughput(statics: &[&RunResult]) -> f64 {
    let epochs = statics.iter().map(|r| r.epochs.len()).min().unwrap_or(0);
    if epochs == 0 {
        return 0.0;
    }
    let best = |i: usize| {
        let throughputs = statics.iter().map(|r| r.epochs[i].throughput());
        throughputs.fold(f64::MIN, f64::max)
    };
    (0..epochs).map(best).sum::<f64>() / epochs as f64
}

/// Runs `workload` under `policy` for the configured number of epochs.
/// A faulted or cancellable run builds its simulator instead:
/// [`SystemSim::new`], then [`with_faults`](SystemSim::with_faults) or
/// [`with_cancel`](SystemSim::with_cancel), then [`SystemSim::run`].
///
/// # Errors
///
/// Returns a [`MorphError`] if the configuration fails validation, the
/// policy is incompatible with the configuration (e.g. a topology for the
/// wrong core count), or the forward-progress watchdog fires during the
/// run.
pub fn run_workload(
    cfg: &SystemConfig,
    workload: &Workload,
    policy: &Policy,
) -> Result<RunResult, MorphError> {
    let epochs = SystemSim::new(*cfg, workload, policy)?.run()?;
    Ok(RunResult {
        policy_name: policy.name(),
        workload_name: workload.name(),
        epochs,
    })
}

/// One cell of the experiment matrix: a (workload, policy) pair with the
/// workload RNG seed pinned at construction, so the cell's result does
/// not depend on which thread runs it or in what order.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// The workload the cell runs.
    pub workload: Workload,
    /// The policy the cell runs it under.
    pub policy: Policy,
    /// The workload RNG seed for this cell.
    pub seed: u64,
}

impl MatrixCell {
    /// A cell running `workload` under `policy` with `seed`.
    pub fn new(workload: Workload, policy: Policy, seed: u64) -> Self {
        Self {
            workload,
            policy,
            seed,
        }
    }
}

/// The results of a parallel matrix run, with per-cell wall-clock timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentMatrix {
    /// Per-cell results, in input order.
    pub results: Vec<RunResult>,
    /// Wall-clock and per-cell timing of the run.
    pub timing: MatrixTiming,
    /// Worker threads the matrix ran on.
    pub jobs: usize,
}

/// The default worker count for [`run_cells`]: the host's available
/// parallelism (or 4 if the host will not say).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs every cell of the matrix on `jobs` scoped worker threads,
/// preserving input order in the results.
///
/// Each cell runs `cfg` re-seeded with [`MatrixCell::seed`], so results
/// are byte-identical for any `jobs` value — worker assignment only
/// changes which thread computes a cell, never what the cell computes.
/// Workers pull cells from a shared queue, so a slow cell does not
/// serialize the rest of its "chunk".
///
/// This is the strict, no-retry entry point — a thin wrapper over
/// [`Supervisor`] with retries disabled
/// and no deadline; use the supervisor directly for retry, timeout,
/// checkpoint/resume and graceful shutdown.
///
/// # Errors
///
/// Returns the first failing cell's [`MorphError`] (in input order);
/// results of the other cells are discarded. A panicking cell is reported
/// as [`MorphError::Workload`] without poisoning the others.
pub fn run_cells(
    cfg: &SystemConfig,
    cells: &[MatrixCell],
    jobs: usize,
) -> Result<ExperimentMatrix, MorphError> {
    let options = SuperviseOptions {
        jobs,
        cell_timeout_seconds: None,
        retries: 0,
    };
    Supervisor::new(options).run(cfg, cells)?.into_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_result_aggregations() {
        let cfg = SystemConfig::quick_test(4).with_epochs(4);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let r = run_workload(&cfg, &w, &Policy::baseline(4)).unwrap();
        assert_eq!(r.epochs.len(), 4);
        assert_eq!(r.mean_ipcs().len(), 4);
        assert!(r.mean_throughput() > 0.0);
        assert_eq!(r.throughput_series().len(), 4);
        assert_eq!(r.policy_name, "(4:1:1)");
    }

    /// A run whose epochs have the given throughputs, on one core.
    fn series(throughputs: &[f64]) -> RunResult {
        let epoch = |(i, &t): (usize, &f64)| EpochResult {
            epoch: i as u64,
            ipcs: vec![t],
            misses_by_core: vec![0],
            accesses: 0,
            accesses_by_core: vec![0],
            reconfig_events: 0,
            asymmetric_events: 0,
            asymmetric: false,
            l2_grouping: "[0]".into(),
            l3_grouping: "[0]".into(),
            chosen_topology: None,
        };
        RunResult {
            policy_name: "static".into(),
            workload_name: "w".into(),
            epochs: throughputs.iter().enumerate().map(epoch).collect(),
        }
    }

    #[test]
    fn ideal_offline_takes_each_epochs_best_static() {
        let (a, b) = (series(&[1.0, 3.0]), series(&[2.0, 2.0]));
        // Epoch 0 takes b's 2, epoch 1 takes a's 3: above either run.
        assert_eq!(ideal_offline_throughput(&[&a, &b]), 2.5);
        assert_eq!(a.mean_throughput().max(b.mean_throughput()), 2.0);
        // One static alone is its own mean, bit for bit.
        let c = series(&[0.3, 0.7, 0.1]);
        assert_eq!(ideal_offline_throughput(&[&c]), c.mean_throughput());
        assert_eq!(ideal_offline_throughput(&[]), 0.0);
    }

    #[test]
    fn matrix_preserves_order_and_matches_serial() {
        let cfg = SystemConfig::quick_test(4).with_epochs(2);
        let w1 = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let w2 = Workload::named_apps(&["astar", "milc", "lbm", "sjeng"]).unwrap();
        let private = Policy::Static(morphcache::SymmetricTopology::parse("1:1:4", 4).unwrap());
        let cells = vec![
            MatrixCell::new(w1.clone(), Policy::baseline(4), cfg.seed),
            MatrixCell::new(w2.clone(), private.clone(), cfg.seed),
        ];
        let par = run_cells(&cfg, &cells, 2).unwrap().results;
        let ser = [
            run_workload(&cfg, &w1, &Policy::baseline(4)).unwrap(),
            run_workload(&cfg, &w2, &private).unwrap(),
        ];
        assert_eq!(par[0], ser[0]);
        assert_eq!(par[1], ser[1]);
    }

    #[test]
    fn run_cells_records_timing_per_cell() {
        let cfg = SystemConfig::quick_test(4).with_epochs(2);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let cells = vec![
            MatrixCell::new(w.clone(), Policy::baseline(4), 1),
            MatrixCell::new(w.clone(), Policy::Pipp, 2),
            MatrixCell::new(w, Policy::Dsr, 3),
        ];
        let m = run_cells(&cfg, &cells, 2).unwrap();
        assert_eq!(m.results.len(), 3);
        assert_eq!(m.timing.cells(), 3);
        assert_eq!(m.jobs, 2);
        assert!(m.timing.wall_seconds > 0.0);
        assert!(m.timing.cell_seconds.iter().all(|&s| s > 0.0));
        assert!(m.timing.cells_per_sec() > 0.0);
    }

    #[test]
    fn run_cells_distinct_seeds_give_distinct_runs() {
        let cfg = SystemConfig::quick_test(4).with_epochs(2);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let cells = vec![
            MatrixCell::new(w.clone(), Policy::baseline(4), 7),
            MatrixCell::new(w, Policy::baseline(4), 8),
        ];
        let m = run_cells(&cfg, &cells, 2).unwrap();
        assert_ne!(m.results[0].epochs, m.results[1].epochs);
    }

    #[test]
    fn run_cells_reports_first_error_in_input_order() {
        let cfg = SystemConfig::quick_test(4).with_epochs(2);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        // Cell 1 has a topology for the wrong core count.
        let bad = Policy::Static(morphcache::SymmetricTopology::new(4, 4, 1, 16).unwrap());
        let cells = vec![
            MatrixCell::new(w.clone(), Policy::baseline(4), 0),
            MatrixCell::new(w.clone(), bad, 0),
            MatrixCell::new(w, Policy::Pipp, 0),
        ];
        let err = run_cells(&cfg, &cells, 4).unwrap_err();
        assert!(matches!(err, MorphError::Topology(_)), "{err}");
    }
}
