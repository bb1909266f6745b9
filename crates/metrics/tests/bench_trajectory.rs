//! The `BENCH_*.json` trajectory chain: each checkpoint's embedded
//! `baseline` block must be bit-for-bit the `total` block of the
//! previous checkpoint, so the files form a verifiable linked list of
//! performance points (README "Benchmark trajectory"). A regressed or
//! hand-edited checkpoint breaks the chain here, not in review.

use morph_metrics::{BenchReport, Json};

fn workspace_root() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("metrics crate lives two levels below the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file());
    root
}

fn bench_files() -> Vec<(usize, String)> {
    let root = workspace_root();
    let mut out = Vec::new();
    for n in 1.. {
        let path = root.join(format!("BENCH_{n}.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            break;
        };
        out.push((n, text));
    }
    assert!(
        out.len() >= 4,
        "expected the BENCH_1..=BENCH_4 trajectory to exist"
    );
    out
}

fn total_metric(text: &str, key: &str) -> f64 {
    Json::parse(text)
        .expect("checkpoint parses")
        .get("total")
        .and_then(|t| t.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("total.{key} missing"))
}

/// Every checkpoint parses under the full schema validator.
#[test]
fn all_checkpoints_parse_as_bench_reports() {
    for (n, text) in bench_files() {
        let report = BenchReport::from_json(&text)
            .unwrap_or_else(|e| panic!("BENCH_{n}.json does not validate: {e:?}"));
        assert!(!report.backends.is_empty(), "BENCH_{n}.json has no rows");
    }
}

/// `BENCH_{n+1}.baseline` equals `BENCH_n.total` exactly — the chain
/// property. Floats compare bit-for-bit: both sides round-trip through
/// the same shortest-representation formatter.
#[test]
fn each_baseline_references_the_previous_total() {
    let files = bench_files();
    for pair in files.windows(2) {
        let (prev_n, prev_text) = &pair[0];
        let (next_n, next_text) = &pair[1];
        let report = BenchReport::from_json(next_text)
            .unwrap_or_else(|e| panic!("BENCH_{next_n}.json: {e:?}"));
        let baseline = report.baseline.unwrap_or_else(|| {
            panic!("BENCH_{next_n}.json has no embedded baseline; the chain is broken")
        });
        assert_eq!(
            baseline.accesses_per_sec.to_bits(),
            total_metric(prev_text, "accesses_per_sec").to_bits(),
            "BENCH_{next_n}.baseline.accesses_per_sec != BENCH_{prev_n}.total.accesses_per_sec"
        );
        assert_eq!(
            baseline.cells_per_sec.to_bits(),
            total_metric(prev_text, "cells_per_sec").to_bits(),
            "BENCH_{next_n}.baseline.cells_per_sec != BENCH_{prev_n}.total.cells_per_sec"
        );
    }
}

/// The latest checkpoint's baseline values are pinned literally, so a
/// regenerated BENCH_4 silently pointing elsewhere fails loudly.
#[test]
fn latest_baseline_is_pinned() {
    let files = bench_files();
    let (n, text) = files.last().expect("at least one checkpoint");
    assert_eq!(*n, 4, "new checkpoint added: extend the pinned values");
    let report = BenchReport::from_json(text).expect("BENCH_4 validates");
    let baseline = report.baseline.expect("BENCH_4 embeds a baseline");
    assert_eq!(baseline.label, "BENCH_3.json");
    assert_eq!(baseline.accesses_per_sec, 4062097.6393434573);
    assert_eq!(baseline.cells_per_sec, 5.708148026489332);
}
