//! Resilience-layer integration tests: typed configuration errors, fault
//! injection, and the forward-progress watchdog, all through the public
//! driver API. The contract under test: every injected fault ends in a
//! completed run with finite degraded statistics or in a structured
//! `MorphError` — never a panic, never a hang.

use std::path::PathBuf;

use morph_system::experiment::{run_cells, run_workload};
use morph_system::prelude::*;

fn cfg() -> SystemConfig {
    SystemConfig::quick_test(4).with_epochs(4)
}

fn workload() -> Workload {
    Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).expect("known benchmarks")
}

/// The quick workload under MorphCache with the faults of `spec`.
fn run_faulted(spec: &str) -> Result<Vec<EpochResult>, MorphError> {
    let cfg = cfg();
    let plan = FaultPlan::parse(spec)?;
    SystemSim::new(cfg, &workload(), &Policy::morph(&cfg))?
        .with_faults(Box::new(plan))?
        .run()
}

#[test]
fn invalid_configs_are_rejected_with_typed_errors() {
    let w = workload();
    type Breaker = Box<dyn Fn(&mut SystemConfig)>;
    let cases: Vec<(&str, Breaker)> = vec![
        ("epoch_cycles", Box::new(|c| c.epoch_cycles = 0)),
        ("quantum", Box::new(|c| c.quantum = 0)),
        ("quantum", Box::new(|c| c.quantum = c.epoch_cycles * 2)),
        ("n_epochs", Box::new(|c| c.n_epochs = 0)),
        ("n_cores", Box::new(|c| c.hierarchy.n_cores = 6)),
    ];
    for (field, break_it) in cases {
        let mut bad = cfg();
        break_it(&mut bad);
        match run_workload(&bad, &w, &Policy::baseline(4)) {
            Err(MorphError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn every_fault_class_completes_or_errors_structurally() {
    let cfg = cfg();
    let specs = [
        "seed=1;acfv@1;acfv@3",
        "seed=2;drop=5000@1;drop=20000@3",
        "seed=3;merge@2",
        "seed=4;split@2",
        "seed=5;acfv@1;drop=5000@2;merge@3;split@4",
        "seed=6;pin=2@3",
    ];
    for spec in specs {
        match run_faulted(spec) {
            Ok(epochs) => {
                assert_eq!(epochs.len(), cfg.n_epochs, "{spec}");
                assert!(
                    epochs
                        .iter()
                        .all(|e| e.throughput().is_finite() && e.throughput() > 0.0),
                    "{spec}: degraded stats must stay valid"
                );
            }
            Err(MorphError::Stalled { diagnostic, .. }) => {
                // Only the MSHR pin may starve a core, and it must carry
                // its diagnostic rather than hang.
                assert!(spec.contains("pin="), "{spec}: unexpected stall");
                assert_eq!(diagnostic.mshr_outstanding.len(), 4, "{spec}");
            }
            Err(other) => panic!("{spec}: unexpected error {other}"),
        }
    }
}

#[test]
fn pinned_mshr_yields_stalled_error_with_diagnostics() {
    let cfg = cfg();
    match run_faulted("pin=0@2") {
        Err(MorphError::Stalled {
            epoch,
            core,
            diagnostic,
        }) => {
            assert_eq!((epoch, core), (2, 0));
            assert!(diagnostic.mshr_outstanding[0] > 0);
            assert!(diagnostic.retired < 16u64.max(cfg.epoch_cycles / 10_000));
            // The error formats into a human-readable diagnostic.
            let msg = MorphError::Stalled {
                epoch,
                core,
                diagnostic,
            }
            .to_string();
            assert!(msg.contains("stalled"), "{msg}");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// A `u64::MAX`-cycle outage, alone or on a pinned core, saturates the
/// fault arithmetic: the run stalls with its diagnostic (or completes),
/// and never panics on an overflow.
#[test]
fn extreme_drop_windows_end_in_a_stall_not_an_overflow() {
    for spec in [
        "drop=18446744073709551615@0",
        "drop=18446744073709551615@0;pin=0@0",
    ] {
        match run_faulted(spec) {
            Ok(_) => {}
            Err(MorphError::Stalled { diagnostic, .. }) => {
                assert_eq!(diagnostic.mshr_outstanding.len(), 4, "{spec}");
                assert_eq!(diagnostic.bus_pending, vec![1; 4], "{spec}");
            }
            Err(other) => panic!("{spec}: unexpected error {other}"),
        }
    }
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let run = |seed: u64| run_faulted(&format!("seed={seed};acfv@1;drop=8000@2;merge@3")).unwrap();
    assert_eq!(run(42), run(42), "same fault seed, same results");
}

#[test]
fn clean_and_nofault_runs_agree() {
    // An installed-but-empty fault plan must not perturb the simulation.
    let cfg = cfg();
    let clean = run_workload(&cfg, &workload(), &Policy::morph(&cfg)).unwrap();
    assert_eq!(clean.epochs, run_faulted("seed=7").unwrap());
}

// ---- supervised execution --------------------------------------------

/// A small matrix: the same quick workload under `n` distinct seeds.
fn small_matrix(n: usize) -> (SystemConfig, Vec<MatrixCell>) {
    let cfg = SystemConfig::quick_test(4).with_epochs(2);
    let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).expect("known benchmarks");
    let cells = (0..n)
        .map(|i| MatrixCell::new(w.clone(), Policy::baseline(4), i as u64))
        .collect();
    (cfg, cells)
}

/// Supervision options with `jobs` workers and the default retries.
fn quick_supervision(jobs: usize) -> SuperviseOptions {
    SuperviseOptions {
        jobs,
        ..SuperviseOptions::default()
    }
}

/// A scratch journal directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morph-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn panicking_cell_is_isolated_and_the_matrix_completes_around_it() {
    let (cfg, cells) = small_matrix(4);
    // Cell 2 panics on every attempt; with zero retries it degrades
    // immediately — and every other cell still completes.
    let chaos = ChaosPlan::new().with_panic(2, 0);
    let options = SuperviseOptions {
        retries: 0,
        ..quick_supervision(2)
    };
    let m = Supervisor::new(options)
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    assert!(!m.is_complete());
    assert!(!m.was_interrupted());
    assert_eq!(m.count(CellStatus::Completed), 3, "{}", m.summary());
    assert_eq!(m.count(CellStatus::Degraded), 1, "{}", m.summary());
    assert!(m.results[2].is_none());
    assert!(matches!(
        m.reports[2].failures[0],
        CellFailure::Panicked { .. }
    ));
    // The strict view preserves the historical panic contract.
    let err = m.into_matrix().unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid workload: experiment thread for cell 2 panicked"
    );
}

#[test]
fn deadline_expiry_is_retried_to_success() {
    let (cfg, cells) = small_matrix(2);
    // Cell 0 stalls far past the deadline on its first attempt only; the
    // supervisor cancels it at an epoch boundary and the retry succeeds.
    let chaos = ChaosPlan::new().with_stall(0, 0, 30.0);
    let options = SuperviseOptions {
        cell_timeout_seconds: Some(2.0),
        retries: 1,
        ..quick_supervision(2)
    };
    let m = Supervisor::new(options)
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    assert!(m.is_complete(), "{:?}", m.reports);
    assert_eq!(m.reports[0].status, CellStatus::Recovered);
    assert_eq!(m.reports[0].retries, 1);
    assert!(matches!(
        m.reports[0].failures[0],
        CellFailure::DeadlineExpired { .. }
    ));
}

#[test]
fn interrupted_run_resumes_from_the_journal_bit_identically() {
    let (cfg, cells) = small_matrix(4);
    let golden = run_cells(&cfg, &cells, 1).unwrap();
    let dir = scratch_dir("resilience-resume");

    // Round 1: an injected kill after two completions interrupts the run.
    let chaos = ChaosPlan::new().with_kill_after(2);
    let journal = RunJournal::open(&dir, &cfg, &cells).unwrap();
    let m = Supervisor::new(quick_supervision(1))
        .with_journal(journal)
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    assert!(m.was_interrupted());
    assert_eq!(m.count(CellStatus::Completed), 2);

    // Round 2: resume — completed cells come back from the journal, the
    // rest run fresh, and the whole matrix matches the unfaulted run.
    let journal = RunJournal::open(&dir, &cfg, &cells).unwrap();
    assert_eq!(journal.cached_cells(), 2);
    let m = Supervisor::new(quick_supervision(1))
        .with_journal(journal)
        .run(&cfg, &cells)
        .unwrap();
    assert!(m.is_complete());
    assert_eq!(m.count(CellStatus::Cached), 2);
    // A cached cell reports its recorded seconds but cost this run none.
    for (report, &seconds) in m.reports.iter().zip(&m.timing.cell_seconds) {
        let cached = report.status == CellStatus::Cached;
        assert!(report.seconds > 0.0, "{report:?}");
        assert_eq!(seconds == 0.0, cached, "{report:?}");
    }
    let resumed: Vec<RunResult> = m.results.into_iter().map(Option::unwrap).collect();
    assert_eq!(resumed, golden.results, "resume must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampling_with_faults_is_a_typed_conflict_with_a_pinned_message() {
    let cfg = cfg();
    let w = workload();
    let plan = FaultPlan::parse("seed=9;acfv@1").unwrap();
    let mut sim = SystemSim::new(cfg, &w, &Policy::morph(&cfg))
        .and_then(|s| s.with_faults(Box::new(plan)))
        .unwrap();
    let err = run_sampled(&mut sim, &SamplingConfig::default()).unwrap_err();
    assert!(matches!(err, MorphError::FeatureConflict { .. }));
    assert_eq!(
        err.to_string(),
        "cannot combine --sampling with --faults: skipped epochs bypass the fault injector"
    );
}
