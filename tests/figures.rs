//! Every figure of `morph figures` at a tiny scale (1 measured epoch of
//! 20,000 cycles, the CLI's configuration otherwise): each report has one
//! row of numbers per workload, and an AVG row that averages every
//! column where the figure has one.

use morph_system::prelude::*;
use morph_trace::{mixes, parsec, spec};
use morphcache_repro::figures::FIGURES;

fn report(id: &str) -> String {
    let cfg = SystemConfig::preset(16)
        .with_epochs(1)
        .with_epoch_cycles(20_000);
    let (_, figure) = FIGURES
        .iter()
        .find(|(name, _)| *name == id)
        .expect("known figure");
    figure(&cfg, 2).unwrap_or_else(|e| panic!("{id} failed: {e}"))
}

/// The cells of every row of `report` labelled `label`, as numbers (NaN
/// where a cell is not one).
fn rows_labelled(report: &str, label: &str) -> Vec<Vec<f64>> {
    let rows = report.lines().filter_map(|line| line.strip_prefix(label));
    rows.filter(|rest| rest.starts_with("  "))
        .map(|rest| {
            let cells = rest.split_whitespace();
            cells.map(|c| c.parse().unwrap_or(f64::NAN)).collect()
        })
        .collect()
}

/// Runs figure `id` and checks that it has one row per label, each of
/// `width` finite numbers, and with `average`, an AVG row holding the
/// column means (to the printed 3 decimals). Returns the labelled rows.
fn check(id: &str, labels: &[String], width: usize, average: bool) -> Vec<Vec<f64>> {
    let report = report(id);
    let rows: Vec<Vec<f64>> = labels
        .iter()
        .map(|label| {
            let rows = rows_labelled(&report, label);
            assert_eq!(rows.len(), 1, "{id}: one {label:?} row in\n{report}");
            assert_eq!(rows[0].len(), width, "{id}: {label:?} row in\n{report}");
            assert!(rows[0].iter().all(|v| v.is_finite()), "{id}: {rows:?}");
            rows[0].clone()
        })
        .collect();
    let avg = rows_labelled(&report, "AVG");
    assert_eq!(
        avg.len(),
        usize::from(average),
        "{id}: AVG rows in\n{report}"
    );
    for (i, a) in avg.iter().flatten().enumerate() {
        let mean = rows.iter().map(|r| r[i]).sum::<f64>() / rows.len() as f64;
        assert!(
            (a - mean).abs() < 1e-3,
            "{id}: AVG column {i}: {a} vs {mean}"
        );
    }
    rows
}

fn mixes_named(ids: impl IntoIterator<Item = usize>) -> Vec<String> {
    let mix = |id| mixes::mix(id).expect("Table 5 mix").name();
    ids.into_iter().map(mix).collect()
}

fn labels(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn parsec_apps() -> Vec<String> {
    let names = parsec::PARSEC_PROFILES.map(|p| p.name);
    labels(&names)
}

#[test]
fn every_figure_is_listed_once_in_run_order() {
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids,
        [
            "fig02", "fig05", "table02", "table04", "fig13", "fig14", "fig15", "fig16", "fig17",
            "sec24", "sec53", "sec54", "sec55"
        ]
    );
}

#[test]
fn fig02_has_each_topology_in_both_panels() {
    let report = report("fig02");
    for label in ["(1:1:16)", "(4:4:1)", "(8:2:1)", "(1:16:1)"] {
        let widths: Vec<usize> = rows_labelled(&report, label).iter().map(Vec::len).collect();
        assert_eq!(widths, [1, 2], "{label}: one epoch in (a), two apps in (b)");
    }
}

#[test]
fn fig05_has_both_hashes() {
    check("fig05", &labels(&["XOR", "modulo"]), 5, false);
}

#[test]
fn table02_has_every_arbiter_row() {
    let report = report("table02");
    let rows = [
        "arbiters",
        "area um^2",
        "req wire ns",
        "req logic ns",
        "gnt logic ns",
        "gnt wire ns",
    ];
    for label in rows {
        assert_eq!(rows_labelled(&report, label).len(), 1, "{label}");
    }
}

#[test]
fn table04_has_every_benchmark() {
    let mut benchmarks = labels(&spec::SPEC_PROFILES.map(|p| p.name));
    benchmarks.extend(parsec_apps());
    check("table04", &benchmarks, 8, false);
}

#[test]
fn fig13_has_every_mix() {
    check("fig13", &mixes_named(1..=12), 5, true);
}

#[test]
fn fig14_has_every_mix() {
    check("fig14", &mixes_named(1..=12), 4, true);
}

#[test]
fn fig15_has_every_mix() {
    // MorphCache, best static, Ideal offline, morph/ideal.
    for row in check("fig15", &mixes_named(1..=12), 4, true) {
        assert!(row[2] >= row[1], "ideal below the best static: {row:?}");
        assert!(row[1] >= 1.0, "best static below the baseline: {row:?}");
    }
}

#[test]
fn fig16_has_every_parsec_app() {
    check("fig16", &parsec_apps(), 5, true);
}

#[test]
fn fig17_has_every_mix() {
    check("fig17", &mixes_named(1..=12), 3, true);
}

#[test]
fn sec24_has_both_workload_classes() {
    let rows = rows_labelled(&report("sec24"), "reconfigs");
    let widths: Vec<usize> = rows.iter().map(Vec::len).collect();
    assert_eq!(widths, [4, 4], "mixes, then PARSEC: {rows:?}");
}

#[test]
fn sec53_has_six_mixes() {
    check("sec53", &mixes_named(1..=6), 4, true);
}

#[test]
fn sec54_has_every_variant() {
    let variants = labels(&[
        "default (256KB L2 / 1MB L3, 16 cores)",
        "512KB L2 slices",
        "2MB L3 slices",
        "2x associativity",
        "8 cores",
    ]);
    check("sec54", &variants, 1, false);
}

#[test]
fn sec55_has_four_mixes() {
    check("sec55", &mixes_named([1, 2, 3, 5]), 2, true);
}
