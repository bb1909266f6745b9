//! Chaos-test harness for the supervised matrix: inject panics, stalls
//! and mid-run kills into a journalled matrix run and assert that
//! resuming the journal always converges to the exact results of an
//! unfaulted serial run. The contract under test: supervision changes
//! *when* cells run, never *what* they compute — zero lost cells,
//! bit-identical output.

use std::path::PathBuf;

use morph_system::experiment::run_cells;
use morph_system::prelude::*;

/// A small matrix: one quick workload under `n` distinct seeds.
fn small_matrix(n: usize) -> (SystemConfig, Vec<MatrixCell>) {
    let cfg = SystemConfig::quick_test(4).with_epochs(2);
    let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).expect("known benchmarks");
    let cells = (0..n)
        .map(|i| MatrixCell::new(w.clone(), Policy::baseline(4), i as u64))
        .collect();
    (cfg, cells)
}

/// Supervision options for chaos runs: a deadline generous enough for a
/// clean quick-test cell, tight enough to break an injected stall fast.
fn chaos_supervision(jobs: usize) -> SuperviseOptions {
    SuperviseOptions {
        jobs,
        cell_timeout_seconds: Some(2.0),
    }
}

/// A scratch journal directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morph-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn chaos_campaign_converges_to_the_golden_results() {
    let (cfg, cells) = small_matrix(6);
    let golden = run_cells(&cfg, &cells, 1).unwrap();
    let dir = scratch_dir("chaos-campaign");

    // A seeded campaign assigns each cell a panic, a stall past the
    // deadline, or nothing; the panicked and stalled cells degrade.
    let chaos = ChaosPlan::campaign(0xC4A05, cells.len(), 30.0);
    chaos.validate(cells.len()).unwrap();
    assert_ne!(chaos, ChaosPlan::new(), "campaign seed produced no faults");
    let m = Supervisor::new(chaos_supervision(4))
        .with_journal(RunJournal::open(&dir, &cfg, &cells).unwrap())
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    let degraded = m.count(CellStatus::Degraded);
    assert!(degraded > 0, "no cell degraded: {}", m.summary());
    assert_eq!(m.count(CellStatus::Completed), cells.len() - degraded);

    // Resuming without the chaos runs exactly the degraded cells.
    let m = Supervisor::new(chaos_supervision(4))
        .with_journal(RunJournal::resume(&dir, &cfg, &cells).unwrap())
        .run(&cfg, &cells)
        .unwrap();
    assert_eq!(m.count(CellStatus::Completed), degraded, "{}", m.summary());
    assert_eq!(m.count(CellStatus::Cached), cells.len() - degraded);
    let resumed: Vec<RunResult> = m.results.into_iter().map(Option::unwrap).collect();
    assert_eq!(resumed, golden.results, "chaos must not change results");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_kills_with_resume_lose_no_cells() {
    let (cfg, cells) = small_matrix(5);
    let golden = run_cells(&cfg, &cells, 1).unwrap();
    let dir = scratch_dir("chaos-kill-resume");

    // Kill the run after every single fresh completion; resuming from
    // the journal must finish the matrix in a bounded number of rounds
    // because cached cells do not re-arm the kill counter.
    let chaos = ChaosPlan::new().with_kill_after(1);
    let mut rounds = 0;
    let finished = loop {
        rounds += 1;
        assert!(rounds <= cells.len() + 1, "resume loop failed to converge");
        let journal = RunJournal::open(&dir, &cfg, &cells).unwrap();
        let m = Supervisor::new(chaos_supervision(1))
            .with_journal(journal)
            .with_chaos(&chaos)
            .run(&cfg, &cells)
            .unwrap();
        if !m.was_interrupted() {
            break m;
        }
    };
    assert_eq!(rounds, cells.len(), "one fresh cell per round");
    assert!(finished.is_complete());
    let resumed: Vec<RunResult> = finished.results.into_iter().map(Option::unwrap).collect();
    assert_eq!(resumed, golden.results, "kill/resume must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_refuses_a_mismatched_matrix() {
    let (cfg, cells) = small_matrix(2);
    let dir = scratch_dir("chaos-journal-mismatch");
    drop(RunJournal::open(&dir, &cfg, &cells).unwrap());

    // Same directory, different configuration: the manifest fingerprint
    // must reject the resume instead of silently mixing results.
    let other = cfg.with_seed(999);
    let err = RunJournal::open(&dir, &other, &cells).unwrap_err();
    assert!(matches!(err, MorphError::Journal(_)), "{err}");
    assert!(err.to_string().contains("manifest mismatch"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_view_reports_the_first_failed_cell_in_input_order() {
    let (cfg, cells) = small_matrix(4);
    // Cells 3 and 1 both panic; the strict view must surface cell 1 —
    // input order, not completion order.
    let chaos = ChaosPlan::new().with_panic(3).with_panic(1);
    let m = Supervisor::new(chaos_supervision(4))
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    assert_eq!(m.count(CellStatus::Degraded), 2);
    let err = m.into_matrix().unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid workload: experiment thread for cell 1 panicked"
    );
}
