//! Cross-crate integration tests: the cache hierarchy driven by real
//! synthetic workloads through the core timing model, with inclusion and
//! grouping invariants checked end to end.

use morph_cache::{Grouping, Hierarchy, HierarchyParams, MemorySubsystem, NoopSink};
use morph_cpu::{Core, CoreParams, QuantumScheduler};
use morph_trace::spec;
use morph_trace::stream::{AccessStream, StreamConfig, SyntheticStream};

fn streams(names: &[&str], seed: u64) -> Vec<SyntheticStream> {
    names
        .iter()
        .enumerate()
        .map(|(c, n)| {
            let cfg = StreamConfig::single_threaded(c, seed).with_slice_lines(512, 2048);
            SyntheticStream::new(spec::profile(n).expect("known benchmark"), cfg)
        })
        .collect()
}

#[test]
fn inclusion_holds_across_workload_and_regrouping() {
    let mut h = Hierarchy::new(HierarchyParams::scaled_down(4));
    let mut cores: Vec<Core> = (0..4).map(|c| Core::new(c, CoreParams::paper())).collect();
    let mut ss = streams(&["gcc", "libq", "cactus", "hmmer"], 11);
    let sched = QuantumScheduler::new(500);
    let mut sink = NoopSink;
    let shapes: [Vec<Vec<usize>>; 4] = [
        vec![vec![0, 1], vec![2, 3]],
        vec![vec![0, 1, 2, 3]],
        vec![vec![0], vec![1], vec![2], vec![3]],
        vec![vec![0, 1], vec![2], vec![3]],
    ];
    for (i, shape) in shapes.iter().enumerate() {
        // L3 merges before L2 follows (inclusion-safe order).
        h.set_l2_grouping(Grouping::private(4)).unwrap();
        h.set_l3_grouping(Grouping::from_groups(4, shape.clone()).unwrap())
            .unwrap();
        h.set_l2_grouping(Grouping::from_groups(4, shape.clone()).unwrap())
            .unwrap();
        sched.run_epoch(&mut cores, &mut ss, &mut h, &mut sink, 20_000);
        h.check_inclusion()
            .unwrap_or_else(|e| panic!("phase {i}: {e}"));
        for s in &mut ss {
            s.advance_epoch();
        }
    }
}

#[test]
fn merged_hierarchy_shares_capacity_end_to_end() {
    // A thrashing app paired with an idle one: merging the pair's slices
    // must strictly reduce the thrasher's L2+L3 misses.
    let run = |merged: bool| -> u64 {
        let mut h = Hierarchy::new(HierarchyParams::scaled_down(2));
        if merged {
            h.set_l3_grouping(Grouping::all_shared(2)).unwrap();
            h.set_l2_grouping(Grouping::all_shared(2)).unwrap();
        }
        let mut cores: Vec<Core> = (0..2).map(|c| Core::new(c, CoreParams::paper())).collect();
        // cactusADM overflows its L2 slice; libquantum barely uses its own.
        let mut ss = streams(&["cactus", "gamess"], 3);
        let sched = QuantumScheduler::new(500);
        let mut sink = NoopSink;
        for _ in 0..4 {
            sched.run_epoch(&mut cores, &mut ss, &mut h, &mut sink, 100_000);
            for s in &mut ss {
                s.advance_epoch();
            }
        }
        h.l2().stats.misses_by_core[0] + h.l3().stats.misses_by_core[0]
    };
    let private = run(false);
    let merged = run(true);
    assert!(
        merged < private,
        "merging must reduce the overflowing app's misses: merged {merged} vs private {private}"
    );
}

#[test]
fn identical_traces_reach_all_memory_systems() {
    // The same deterministic stream drives the LRU hierarchy and both
    // baseline systems without panics, and every system makes progress.
    use morph_baselines::{DsrSystem, PippSystem};
    let p = HierarchyParams::scaled_down(4);
    let mut systems: Vec<Box<dyn MemorySubsystem>> = vec![
        Box::new(Hierarchy::new(p)),
        Box::new(PippSystem::new(4, p.l1, p.l2_slice, p.l3_slice, p.latency)),
        Box::new(DsrSystem::new(4, p.l1, p.l2_slice, p.l3_slice, p.latency)),
    ];
    for sys in &mut systems {
        let mut ss = streams(&["gcc", "mcf", "astar", "milc"], 5);
        let mut sink = NoopSink;
        let mut total = 0u64;
        for (c, stream) in ss.iter_mut().enumerate() {
            for _ in 0..5_000 {
                let a = stream.next_access();
                total += sys.access(c, a.line, a.is_write, &mut sink);
            }
        }
        assert!(total > 0);
    }
}
