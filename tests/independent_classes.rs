//! A static topology runs its L3 groups through each epoch one after
//! another, and that changes no result. Every `static_set(16)` and
//! `static_set(64)` topology with more than one L3 group, and the shared
//! 16-core topologies (4:1:4), (2:2:4) and (1:4:4), run on MIX 01 and
//! canneal, in full detail and sampled: once through the static
//! backend's own classes and once through a wrapper that keeps the
//! default single class of every core. Epoch results, per-core
//! footprints and cache contents must agree. Contents compare by (line,
//! owner, dirty) way by way; raw recency stamps may differ, because each
//! level's per-set clock is shared by every slice.

use morph_cache::{CacheEventSink, CoreId, Hierarchy, Line, MemorySubsystem};
use morph_system::prelude::*;
use morph_system::probes::FootprintProbe;

/// Forwards everything to the backend it wraps but keeps the trait's
/// default single class, so every core interleaves quantum by quantum.
struct OneClass(Box<dyn MemoryBackend>);

impl MemorySubsystem for OneClass {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        sink: &mut dyn CacheEventSink,
    ) -> u64 {
        self.0.access(core, line, is_write, sink)
    }

    fn n_cores(&self) -> usize {
        self.0.n_cores()
    }
}

impl MemoryBackend for OneClass {
    fn begin_epoch(&mut self, ctx: &mut EpochCtx<'_>) -> Result<(), MorphError> {
        self.0.begin_epoch(ctx)
    }

    fn epoch_boundary(
        &mut self,
        ctx: &mut EpochCtx<'_>,
        ipcs: &[f64],
        misses: &[u64],
    ) -> Result<BoundaryReport, MorphError> {
        self.0.epoch_boundary(ctx, ipcs, misses)
    }

    fn misses_by_core(&self) -> Vec<u64> {
        self.0.misses_by_core()
    }

    fn grouping_labels(&self) -> (String, String) {
        self.0.grouping_labels()
    }

    fn as_hierarchy(&self) -> Option<&Hierarchy> {
        self.0.as_hierarchy()
    }
}

/// Every valid way's (line, owner, dirty), one list per L1, L2 slice and
/// L3 slice, each in (set, way) order.
type Contents = Vec<Vec<(Line, CoreId, bool)>>;

fn contents(h: &Hierarchy) -> Contents {
    let n = h.params().n_cores;
    let l1 = (0..n).map(|c| h.l1(c).iter_entries().collect::<Vec<_>>());
    let l2 = (0..n).map(|s| h.l2().iter_slice_entries(s).collect());
    let l3 = (0..n).map(|s| h.l3().iter_slice_entries(s).collect());
    l1.chain(l2)
        .chain(l3)
        .map(|ways| ways.iter().map(|e| (e.line, e.owner, e.dirty)).collect())
        .collect()
}

fn sim(cfg: SystemConfig, w: &Workload, t: SymmetricTopology, one_class: bool) -> SystemSim {
    let backend = from_policy(&cfg, w, &Policy::Static(t)).unwrap();
    assert_eq!(backend.independent_core_classes().len(), t.z, "{t}");
    let backend: Box<dyn MemoryBackend> = if one_class {
        Box::new(OneClass(backend))
    } else {
        backend
    };
    SystemSim::with_backend(cfg, w, backend).unwrap()
}

type Footprints = Vec<(Vec<f64>, Vec<f64>)>;

/// Every epoch, warm-up included, with the probe's per-core footprints.
fn full(
    cfg: SystemConfig,
    w: &Workload,
    t: SymmetricTopology,
    one_class: bool,
) -> (Vec<EpochResult>, Footprints, Contents) {
    let mut sim = sim(cfg, w, t, one_class);
    let mut probe = FootprintProbe::new(cfg.n_cores());
    let mut epochs = Vec::new();
    let mut footprints = Vec::new();
    for _ in 0..cfg.warmup_epochs + cfg.n_epochs {
        epochs.push(sim.run_epoch_probed(&mut probe).unwrap());
        footprints.push(probe.take_epoch(cfg.l2_slice_lines(), cfg.l3_slice_lines()));
    }
    (epochs, footprints, contents(sim.hierarchy().unwrap()))
}

fn sampled(
    cfg: SystemConfig,
    w: &Workload,
    t: SymmetricTopology,
    one_class: bool,
) -> (SampledRun, Contents) {
    let mut sim = sim(cfg, w, t, one_class);
    let run = run_sampled(&mut sim, &SamplingConfig::default()).unwrap();
    (run, contents(sim.hierarchy().unwrap()))
}

/// Runs each topology both ways on MIX 01 and canneal and returns how
/// many sampled runs skipped an epoch.
fn check(cfg: SystemConfig, topologies: &[SymmetricTopology]) -> usize {
    let n = cfg.n_cores();
    let mut skipping = 0;
    for w in [
        Workload::mix(1).unwrap(),
        Workload::parsec("canneal").unwrap(),
    ] {
        for &t in topologies {
            let case = format!("{n} cores, {t}, {}", w.name());
            let (epochs, footprints, cache) = full(cfg, &w, t, false);
            let one = full(cfg, &w, t, true);
            assert!(epochs.iter().all(|e| e.throughput() > 0.0), "{case}");
            assert_eq!(epochs, one.0, "{case}: epoch results");
            assert!(footprints == one.1, "{case}: footprints differ");
            assert!(cache == one.2, "{case}: cache contents differ");
            let (run, cache) = sampled(cfg, &w, t, false);
            let one = sampled(cfg, &w, t, true);
            skipping += usize::from(run.simulated.contains(&false));
            assert_eq!(run, one.0, "{case}: sampled run");
            assert!(
                cache == one.1,
                "{case}: cache contents differ after the sampled run"
            );
        }
    }
    skipping
}

/// The topologies of `static_set(n)` with more than one L3 group. With
/// one group the static backend's one class is the default's, so both
/// sides would run the same code.
fn multi_group(n: usize) -> Vec<SymmetricTopology> {
    let set = SymmetricTopology::static_set(n).unwrap();
    set.into_iter().filter(|t| t.z > 1).collect()
}

#[test]
fn sixteen_core_static_topologies_run_the_same_by_class() {
    let mut cfg = SystemConfig::quick_test(16).with_epochs(4);
    cfg.epoch_cycles = 100_000;
    let mut topologies = multi_group(16);
    for (x, y, z) in [(4, 1, 4), (2, 2, 4), (1, 4, 4)] {
        topologies.push(SymmetricTopology::new(x, y, z, 16).unwrap());
    }
    let skipping = check(cfg, &topologies);
    assert!(skipping > 0, "no sampled run skipped an epoch");
}

#[test]
fn sixty_four_core_static_topologies_run_the_same_by_class() {
    let mut cfg = SystemConfig::quick_test(64).with_epochs(4);
    cfg.epoch_cycles = 40_000;
    // Only (1:1:64) has more than one L3 group here, and its 64 private
    // signatures never all find a leader in a run this short, so the
    // 16-core test covers the skipped epochs.
    check(cfg, &multi_group(64));
}
