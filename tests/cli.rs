//! The `morph` binary's argument handling: each subcommand rejects the
//! options it does not read (exit 2) instead of silently ignoring them,
//! `compare` is gone in favour of `matrix`, `matrix` rows report
//! throughput relative to the first cell, `--resume` needs a journal
//! recorded for the same cells and re-runs a degraded cell, a journal
//! write that fails is reported, a topology string never panics, a
//! fault-injected `run` stalls or completes as its spec says, a forced
//! merge lasts one epoch and is not counted, and a reader that stops
//! early ends `morph` quietly.

use std::io::BufRead;
use std::process::{Child, Command, Output, Stdio};

/// A 4-core, one-epoch workload small enough for a debug build.
const QUICK: [&str; 8] = [
    "--mix", "1", "--cores", "4", "--epochs", "1", "--cycles", "100000",
];

fn morph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_morph"))
        .args(args)
        .output()
        .expect("the morph binary runs")
}

fn quick(command: &str, extra: &[&str]) -> Output {
    let mut args = vec![command];
    args.extend(QUICK);
    args.extend(extra);
    morph(&args)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The number after `throughput ` in a `matrix` row.
fn throughput(row: &str) -> f64 {
    let rest = row.split("throughput ").nth(1).expect("a throughput row");
    let number = rest.split_whitespace().next().expect("a number");
    number.parse().expect("a throughput value")
}

#[test]
fn options_a_subcommand_does_not_read_are_usage_errors() {
    let matrix = quick("matrix", &["--policies", "4:1:1", "--faults", "pin=0@0"]);
    let err = stderr(&matrix);
    assert_eq!(matrix.status.code(), Some(2), "{err}");
    assert!(
        err.contains("matrix takes only") && err.contains("not --faults"),
        "{err}"
    );

    let run = quick("run", &["--cell-timeout", "1"]);
    let err = stderr(&run);
    assert_eq!(run.status.code(), Some(2), "{err}");
    assert!(
        err.contains("run takes only") && err.contains("not --cell-timeout"),
        "{err}"
    );
}

#[test]
fn compare_is_gone() {
    assert_eq!(morph(&["compare", "--mix", "1"]).status.code(), Some(2));
}

#[test]
fn validate_only_still_succeeds() {
    let out = quick("run", &["--validate-only"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("configuration OK"));
}

#[test]
fn matrix_rows_are_relative_to_the_first_cell() {
    let out = quick("matrix", &["--policies", "4:1:1,1:1:4", "--jobs", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "rows, ideal, summary:\n{stdout}");
    assert!(lines[0].contains("(1.000x baseline)"), "{stdout}");
    assert!(lines[1].contains("x baseline)"), "{stdout}");
    // Both cells are statics, so the ideal offline scheme follows them:
    // each epoch's better static, at least either static's mean.
    assert!(
        lines[2].contains("ideal offline") && lines[2].contains("x baseline)"),
        "{stdout}"
    );
    let ideal = throughput(lines[2]);
    assert!(ideal >= throughput(lines[0]) && ideal >= throughput(lines[1]));
    assert!(
        lines[3].contains("cells/s") && lines[3].contains("x vs serial"),
        "{stdout}"
    );
}

#[test]
fn resume_needs_an_existing_journal() {
    let dir = std::env::temp_dir().join(format!("morph-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("a UTF-8 temp path");
    let out = quick("matrix", &["--policies", "4:1:1", "--resume", path]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("journal error: nothing to resume"), "{err}");
    assert!(out.stdout.is_empty(), "no cell ran");
    assert!(!dir.exists(), "a failed resume creates nothing");
}

#[test]
fn resume_refuses_another_app_list_of_the_same_length() {
    let dir = std::env::temp_dir().join(format!("morph-cli-apps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("a UTF-8 temp path");
    let matrix = |apps: &str, journal: &str| {
        morph(&[
            "matrix",
            "--apps",
            apps,
            "--cores",
            "4",
            "--epochs",
            "1",
            "--cycles",
            "100000",
            "--jobs",
            "1",
            "--policies",
            "4:1:1,1:1:4",
            journal,
            path,
        ])
    };
    let first = matrix("gcc,mcf,hmmer,libquantum", "--run-dir");
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));
    // Both lists are "4 apps"; the journal must still tell them apart.
    let second = matrix("lbm,milc,astar,sjeng", "--resume");
    let err = stderr(&second);
    assert_eq!(second.status.code(), Some(2), "{err}");
    assert!(err.contains("manifest mismatch"), "{err}");
    assert!(second.stdout.is_empty(), "no cell is cached or run");
    std::fs::remove_dir_all(&dir).expect("the run directory is removable");
}

/// The status column of a `matrix` row.
fn status(row: &str) -> &str {
    row.split_whitespace().nth(1).expect("a status")
}

#[test]
fn a_degraded_cell_is_recovered_by_resume() {
    let dir = std::env::temp_dir().join(format!("morph-cli-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("a UTF-8 temp path");
    let matrix = |extra: &[&str]| {
        let out = quick(
            "matrix",
            &[&["--policies", "4:1:1,1:1:4,2:2:1"], extra].concat(),
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout)
    };
    let (code, clean) = matrix(&[]);
    assert_eq!(code, Some(0), "{clean}");
    let (code, faulted) = matrix(&["--chaos", "panic=0", "--run-dir", path]);
    assert_eq!(code, Some(1), "{faulted}");
    assert_eq!(status(&faulted), "degraded", "{faulted}");

    let (code, resumed) = matrix(&["--resume", path]);
    assert_eq!(code, Some(0), "{resumed}");
    let lines: Vec<&str> = resumed.lines().collect();
    assert!(lines[0].contains("2 of 3 cells cached"), "{resumed}");
    let statuses: Vec<&str> = lines[1..4].iter().map(|r| status(r)).collect();
    assert_eq!(statuses, ["ok", "cached", "cached"], "{resumed}");
    // Every cell row and the ideal offline row read as in the clean run.
    for (row, clean_row) in lines[1..5].iter().zip(clean.lines()) {
        assert_eq!(throughput(row), throughput(clean_row), "{resumed}");
    }
    std::fs::remove_dir_all(&dir).expect("the run directory is removable");
}

#[test]
fn a_failed_journal_write_is_reported_on_the_cell_row() {
    let dir = std::env::temp_dir().join(format!("morph-cli-unjournalled-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A directory where cell 0's temporary file goes fails its write.
    std::fs::create_dir_all(dir.join("cell_0.json.tmp")).expect("a scratch directory");
    let path = dir.to_str().expect("a UTF-8 temp path");
    let out = quick("matrix", &["--policies", "4:1:1,1:1:4", "--run-dir", path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The cell's result stands; only its checkpoint is missing.
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(status(lines[0]), "ok", "{stdout}");
    assert!(lines[0].contains("not journalled: journal error: writing"));
    assert!(!lines[1].contains("not journalled"), "{stdout}");
    assert!(!dir.join("cell_0.json").exists() && dir.join("cell_1.json").exists());
    std::fs::remove_dir_all(&dir).expect("the run directory is removable");
}

#[test]
fn an_overflowing_topology_is_a_usage_error() {
    // (2^63 + 8)·2·1 wraps around to the 16 cores in unchecked arithmetic.
    let out = morph(&[
        "run",
        "--mix",
        "1",
        "--policy",
        "9223372036854775816:2:1",
        "--validate-only",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("invalid topology"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn a_faulted_run_stalls_on_a_pinned_core_and_completes_otherwise() {
    let faulted = |spec: &str| {
        morph(&[
            "run", "--mix", "1", "--cores", "4", "--epochs", "4", "--cycles", "100000", "--faults",
            spec,
        ])
    };
    let pinned = faulted("pin=1@0");
    let err = stderr(&pinned);
    assert_eq!(pinned.status.code(), Some(1), "{err}");
    assert!(
        err.contains("stalled at epoch 0 on core 1")
            && err.contains("mshr outstanding [1, 16, 1, 1]; bus pending [0, 0, 0, 0]"),
        "{err}"
    );
    let every_other_class = faulted("seed=5;acfv@1;drop=5000@2;merge@3;split@4");
    let err = stderr(&every_other_class);
    assert_eq!(every_other_class.status.code(), Some(0), "{err}");
    assert!(err.is_empty(), "{err}");
}

/// A forced `merge@E` is a one-epoch perturbation of the installed
/// grouping, not an engine decision (DESIGN §8): no epoch counts it as
/// an event, the run counts no reconfiguration, and the engine's next
/// boundary installs its own grouping again.
#[test]
fn a_forced_merge_lasts_one_epoch_and_is_not_counted() {
    let out = morph(&[
        "run", "--mix", "5", "--epochs", "4", "--cycles", "300000", "--faults", "merge@2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let epochs: Vec<(u64, &str)> = stdout
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("epoch "))
        .map(|l| {
            assert!(l.contains("  events 0  "), "{l}");
            let (epoch, rest) = l.split_once(':').expect("an epoch row");
            let l3 = rest.split("  L3 ").nth(1).expect("an L3 label");
            (epoch.trim().parse().expect("an epoch index"), l3)
        })
        .collect();
    let private: String = (0..16).map(|s| format!("[{s}]")).collect();
    let forced = format!("[0-1]{}", &private["[0][1]".len()..]);
    let want: Vec<(u64, &str)> = vec![(2, &forced), (3, &private), (4, &private), (5, &private)];
    assert_eq!(epochs, want, "{stdout}");
    assert!(
        stdout.contains("; 0 reconfigurations, 0% asymmetric"),
        "{stdout}"
    );
}

/// Starts `morph` with standard output and standard error piped.
fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_morph"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the morph binary starts")
}

/// Waits for `child` after its reader has gone: it must exit 0 and not
/// panic on the closed pipe.
fn assert_quiet_exit(child: Child) {
    let out = child.wait_with_output().expect("morph exits");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

#[test]
fn a_closed_stdout_ends_morph_quietly() {
    // `morph list | head -1`: one line read, then the pipe is dropped.
    let mut list = spawn(&["list"]);
    let mut first = String::new();
    std::io::BufReader::new(list.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("a first line");
    assert!(first.starts_with("multiprogrammed mixes"), "{first}");
    assert_quiet_exit(list);
    // A run prints only after it simulates, so every one of its writes
    // meets the closed pipe.
    let mut args = vec!["run"];
    args.extend(QUICK);
    let mut run = spawn(&args);
    drop(run.stdout.take());
    assert_quiet_exit(run);
}
