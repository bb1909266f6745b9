//! 64-core scale tests: past the paper's 16-core die the full policy
//! matrix must still run end-to-end, deterministically (worker count
//! must never leak into results), and the NUCA hop model must charge
//! wide merged groups while leaving every ≤16-core configuration on the
//! paper's flat latencies.

use morph_system::experiment::{run_cells, MatrixCell};
use morph_system::prelude::*;

/// A small-but-real 64-core configuration: 1/8-scale caches, short
/// epochs, so the whole matrix finishes quickly even unoptimized.
fn cfg64() -> SystemConfig {
    let mut cfg = SystemConfig::quick_test(64).with_epochs(2);
    cfg.epoch_cycles = 60_000;
    cfg.quantum = 1_000;
    cfg.warmup_epochs = 1;
    cfg
}

/// The 64-core matrix policy set: `static_set(64)` plus the dynamic
/// policies, mirroring the CLI's `matrix_policies(64)`.
fn policy_names() -> Vec<String> {
    let mut names: Vec<String> = SymmetricTopology::static_set(64)
        .unwrap()
        .iter()
        .map(|t| format!("{}:{}:{}", t.x, t.y, t.z))
        .collect();
    names.extend(["morph", "pipp", "dsr"].map(String::from));
    names
}

fn policy(name: &str, cfg: &SystemConfig) -> Policy {
    match name {
        "morph" => Policy::morph(cfg),
        "pipp" => Policy::Pipp,
        "dsr" => Policy::Dsr,
        topo => Policy::Static(SymmetricTopology::parse(topo, cfg.n_cores()).unwrap()),
    }
}

#[test]
fn sixty_four_core_matrix_is_deterministic_across_jobs() {
    let cfg = cfg64();
    let w = Workload::mix(1).unwrap();
    let names = policy_names();
    assert_eq!(names.len(), 8, "static_set(64) + morph/pipp/dsr");
    let cells: Vec<MatrixCell> = names
        .iter()
        .map(|n| MatrixCell::new(w.clone(), policy(n, &cfg), cfg.seed))
        .collect();
    let seq = run_cells(&cfg, &cells, 1).unwrap();
    let par = run_cells(&cfg, &cells, 4).unwrap();
    assert_eq!(
        seq.results, par.results,
        "64-core matrix must be bit-identical for jobs=1 vs jobs=4"
    );
    for r in &seq.results {
        assert!(
            r.mean_throughput() > 0.0,
            "{} made no progress",
            r.policy_name
        );
        assert_eq!(r.epochs.len(), 2, "{}", r.policy_name);
    }
}

#[test]
fn nuca_latencies_charge_wide_groups_and_spare_the_paper_die() {
    let w16 = Workload::mix(1).unwrap();
    // 16 cores: the widest possible group spans exactly one die, so the
    // static backend keeps the §4 flat-latency assumption untouched.
    let cfg = SystemConfig::quick_test(16);
    let b = from_policy(&cfg, &w16, &policy("16:1:1", &cfg)).unwrap();
    let lat = b.as_hierarchy().unwrap().params().latency;
    assert_eq!(lat.l2_merged, lat.l2_local, "flat at 16 cores");
    assert_eq!(lat.l3_merged, lat.l3_local, "flat at 16 cores");

    // 64 cores, all-shared: the covering span is 64 tiles = two
    // doublings past the die, i.e. 2 bus hops = 10 core cycles on each
    // merged path.
    let cfg = cfg64();
    let b = from_policy(&cfg, &w16, &policy("64:1:1", &cfg)).unwrap();
    let lat = b.as_hierarchy().unwrap().params().latency;
    assert_eq!(lat.l2_merged, lat.l2_local + 10);
    assert_eq!(lat.l3_merged, lat.l3_local + 10);

    // 64 cores, groups of 16: every group still fits one die, so no
    // hops are charged even though the machine is 4 dies wide.
    let b = from_policy(&cfg, &w16, &policy("16:1:4", &cfg)).unwrap();
    let lat = b.as_hierarchy().unwrap().params().latency;
    assert_eq!(lat.l2_merged, lat.l2_local, "16-wide groups pay no hops");
    assert_eq!(lat.l3_merged, lat.l3_local);
}
