//! The `morph` binary's argument handling: each subcommand rejects the
//! options it does not read (exit 2) instead of silently ignoring them,
//! `compare` is gone in favour of `matrix`, `matrix` rows report
//! throughput relative to the first cell, and `--resume` needs a journal
//! to resume.

use std::process::{Command, Output};

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

    let run = quick("run", &["--retries", "1"]);
    let err = stderr(&run);
    assert_eq!(run.status.code(), Some(2), "{err}");
    assert!(
        err.contains("run takes only") && err.contains("not --retries"),
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
