//! End-to-end system tests: full policy runs on the public API, checking
//! the invariants the paper's evaluation relies on.

use morph_system::experiment::{run_cells, run_workload};
use morph_system::prelude::*;

fn cfg() -> SystemConfig {
    SystemConfig::quick_test(8).with_epochs(4)
}

fn mixed_workload() -> Workload {
    Workload::named_apps(&[
        "cactus", "libq", "gobmk", "perl", "wrf", "gamess", "gcc", "lbm",
    ])
    .expect("known benchmarks")
}

#[test]
fn every_policy_completes_and_reports() {
    let cfg = cfg();
    let w = mixed_workload();
    let policies = vec![
        Policy::baseline(8),
        Policy::static_topology("1:1:8", 8),
        Policy::static_topology("2:2:2", 8),
        Policy::morph(&cfg),
        Policy::morph_qos(&cfg),
        Policy::Pipp,
        Policy::Dsr,
    ];
    for p in policies {
        let r = run_workload(&cfg, &w, &p).unwrap();
        assert_eq!(r.epochs.len(), cfg.n_epochs, "{}", r.policy_name);
        assert!(r.mean_throughput() > 0.0, "{}", r.policy_name);
        assert!(
            r.mean_ipcs().iter().all(|&i| i > 0.0),
            "{}: every app must make progress",
            r.policy_name
        );
    }
}

#[test]
fn morph_groupings_always_valid_partitions() {
    let cfg = cfg();
    let r = run_workload(&cfg, &mixed_workload(), &Policy::morph(&cfg)).unwrap();
    for e in &r.epochs {
        // Every slice id appears exactly once in the canonical description.
        for level in [&e.l2_grouping, &e.l3_grouping] {
            let mut seen = [false; 8];
            for part in level.trim_matches(['[', ']']).split("][") {
                if let Some((a, b)) = part.split_once('-') {
                    let (a, b): (usize, usize) = (a.parse().unwrap(), b.parse().unwrap());
                    for (s, slot) in seen.iter_mut().enumerate().take(b + 1).skip(a) {
                        assert!(!*slot, "slice {s} twice in {level}");
                        *slot = true;
                    }
                } else {
                    for sstr in part.split(',') {
                        let s: usize = sstr.parse().unwrap();
                        assert!(!seen[s], "slice {s} twice in {level}");
                        seen[s] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&b| b), "not a partition: {level}");
        }
    }
}

#[test]
fn runs_are_reproducible() {
    let cfg = cfg();
    let w = mixed_workload();
    let a = run_workload(&cfg, &w, &Policy::morph(&cfg)).unwrap();
    let b = run_workload(&cfg, &w, &Policy::morph(&cfg)).unwrap();
    assert_eq!(a.throughput_series(), b.throughput_series());
    assert_eq!(a.total_reconfigs(), b.total_reconfigs());
}

#[test]
fn seeds_change_results() {
    let cfg = cfg();
    let w = mixed_workload();
    let a = run_workload(&cfg, &w, &Policy::baseline(8)).unwrap();
    let b = run_workload(&cfg.with_seed(999), &w, &Policy::baseline(8)).unwrap();
    assert_ne!(a.throughput_series(), b.throughput_series());
}

#[test]
fn matrix_runner_matches_serial_runner() {
    let cfg = cfg();
    let w = mixed_workload();
    let cells = vec![
        MatrixCell::new(w.clone(), Policy::baseline(8), cfg.seed),
        MatrixCell::new(w.clone(), Policy::Dsr, cfg.seed),
    ];
    let par = run_cells(&cfg, &cells, default_jobs()).unwrap().results;
    assert_eq!(
        par[0].mean_throughput(),
        run_workload(&cfg, &w, &Policy::baseline(8))
            .unwrap()
            .mean_throughput()
    );
    assert_eq!(
        par[1].mean_throughput(),
        run_workload(&cfg, &w, &Policy::Dsr)
            .unwrap()
            .mean_throughput()
    );
}

#[test]
fn multithreaded_workload_runs_under_morph() {
    let cfg = cfg();
    let w = Workload::parsec("dedup").expect("dedup profile");
    let r = run_workload(&cfg, &w, &Policy::morph(&cfg)).unwrap();
    assert!(r.mean_throughput() > 0.0);
    // Threads share an address space, so sharing-driven merges are legal;
    // whatever happened, groupings stayed canonical.
    assert!(r.epochs.iter().all(|e| !e.l2_grouping.is_empty()));
}

/// Per-policy goldens captured from the enum-based simulator immediately
/// before the `MemoryBackend` refactor: per-epoch throughput bit
/// patterns (`f64::to_bits`), per-epoch total misses, and final (L2, L3)
/// grouping labels. Config: `quick_test(4).with_epochs(3)`, workload
/// cactus/libq/gobmk/perl. Bit-exact equality is the point — the trait
/// dispatch must be observationally invisible.
#[test]
fn trait_backends_match_pre_refactor_goldens() {
    let cfg = SystemConfig::quick_test(4).with_epochs(3);
    let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).unwrap();
    let goldens = [
        (
            "baseline",
            Policy::baseline(4),
            [
                4601677429153074652,
                4600826289709145094,
                4600793158619760335,
            ],
            [16150, 16682, 17180],
            "[0-3]",
            "[0-3]",
        ),
        (
            "static 1:1:4",
            Policy::static_topology("1:1:4", 4),
            [
                4601521613751850304,
                4601228350122805318,
                4601070496798045144,
            ],
            [17164, 17492, 17292],
            "[0][1][2][3]",
            "[0][1][2][3]",
        ),
        (
            "morph",
            Policy::morph(&cfg),
            [
                4601521613751850304,
                4601228350122805318,
                4601031889553890658,
            ],
            [17164, 17492, 17215],
            "[0][1][2][3]",
            "[0][1][2][3]",
        ),
        (
            "pipp",
            Policy::Pipp,
            [
                4600852994169679026,
                4599520767897663633,
                4599061109692296170,
            ],
            [3368, 3958, 4148],
            "PIPP shared",
            "PIPP shared",
        ),
        (
            "dsr",
            Policy::Dsr,
            [
                4600804201914628251,
                4600200747713500614,
                4600512643086532500,
            ],
            [3506, 3677, 3352],
            "DSR private",
            "DSR private",
        ),
    ];
    for (name, policy, tp_bits, misses, l2, l3) in goldens {
        let r = run_workload(&cfg, &w, &policy).unwrap();
        let got_bits: Vec<u64> = r.epochs.iter().map(|e| e.throughput().to_bits()).collect();
        assert_eq!(got_bits, tp_bits, "{name}: throughput bits");
        let got_misses: Vec<u64> = r
            .epochs
            .iter()
            .map(|e| e.misses_by_core.iter().sum())
            .collect();
        assert_eq!(got_misses, misses, "{name}: total misses");
        let last = r.epochs.last().unwrap();
        assert_eq!(last.l2_grouping, l2, "{name}: L2 grouping");
        assert_eq!(last.l3_grouping, l3, "{name}: L3 grouping");
    }
}

/// The faulted path, same capture: identical fault plan, identical bits.
#[test]
fn faulted_morph_matches_pre_refactor_golden() {
    let cfg = SystemConfig::quick_test(4).with_epochs(4);
    let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).unwrap();
    let plan = FaultPlan::parse("seed=9;acfv@1;drop=5000@2;merge@3;split@4").unwrap();
    let epochs = SystemSim::new(cfg, &w, &Policy::morph(&cfg))
        .unwrap()
        .with_faults(Box::new(plan))
        .unwrap()
        .run()
        .unwrap();
    let got_bits: Vec<u64> = epochs.iter().map(|e| e.throughput().to_bits()).collect();
    assert_eq!(
        got_bits,
        [
            4601521613751850304,
            4601148971680807002,
            4600540569520959534,
            4600472386604939648,
        ]
    );
}

#[test]
fn parallel_matrix_is_bit_identical_to_sequential() {
    let cfg = SystemConfig::quick_test(4).with_epochs(3);
    let w4 = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).unwrap();
    // Distinct per-cell seeds: worker assignment must not leak into
    // results, and each cell must honor its own seed.
    let cells = vec![
        MatrixCell::new(w4.clone(), Policy::baseline(4), 11),
        MatrixCell::new(w4.clone(), Policy::morph(&cfg), 22),
        MatrixCell::new(w4.clone(), Policy::Pipp, 33),
        MatrixCell::new(w4.clone(), Policy::Dsr, 44),
        MatrixCell::new(w4, Policy::static_topology("2:2:1", 4), 55),
    ];
    let seq = run_cells(&cfg, &cells, 1).unwrap();
    let par = run_cells(&cfg, &cells, 4).unwrap();
    assert_eq!(seq.results, par.results, "jobs=4 must be bit-identical");
    assert_eq!(seq.jobs, 1);
    assert_eq!(par.jobs, 4);
    assert_eq!(par.timing.cells(), 5);
}
