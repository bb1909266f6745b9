//! The `morph` binary's argument handling: each subcommand rejects the
//! options it does not read (exit 2) instead of silently ignoring them,
//! `compare` is gone in favour of `matrix`, and `matrix` rows report
//! throughput relative to the first cell.

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
    assert_eq!(lines.len(), 3, "two rows and a summary:\n{stdout}");
    assert!(lines[0].contains("(1.000x baseline)"), "{stdout}");
    assert!(lines[1].contains("x baseline)"), "{stdout}");
    assert!(
        lines[2].contains("cells/s") && lines[2].contains("x vs serial"),
        "{stdout}"
    );
}
