//! The four [`MemoryBackend`] implementations, one file per backend:
//!
//! * [`StaticBackend`] — an LRU hierarchy pinned to one `(x:y:z)`
//!   topology with the paper's static-latency assumption;
//! * [`MorphBackend`] — the hierarchy managed by the MorphCache engine;
//! * `PippSystem` / `DsrSystem` from `morph-baselines`, which already
//!   serve accesses as [`MemorySubsystem`](morph_cache::MemorySubsystem)s
//!   and implement [`MemoryBackend`]'s epoch hooks directly (`pipp.rs` /
//!   `dsr.rs` here hold the impls: the trait lives in this crate, and
//!   this crate already depends on `morph-baselines`, so the orphan rule
//!   puts them here).
//!
//! [`from_policy`] maps a [`Policy`] onto a boxed backend; external
//! policies can skip it entirely and hand
//! [`SystemSim::with_backend`](crate::sim::SystemSim::with_backend) any
//! other [`MemoryBackend`] implementation. The §5.1 ideal offline scheme
//! is not a backend: it is composed from static runs by
//! [`ideal_offline_throughput`](crate::experiment::ideal_offline_throughput).

mod dsr;
mod morph;
mod pipp;
mod static_topo;

pub use morph::MorphBackend;
pub use static_topo::StaticBackend;

use crate::config::SystemConfig;
use crate::policy::{MemoryBackend, Policy};
use crate::workload::Workload;
use morph_baselines::{DsrSystem, PippSystem};
use morph_cache::{Hierarchy, LatencyParams};
use morph_interconnect::NucaModel;
use morphcache::topology::max_covering_span;
use morphcache::MorphError;

/// Builds the backend a [`Policy`] describes.
///
/// # Errors
///
/// Returns [`MorphError::Topology`] / [`MorphError::Grouping`] if the
/// policy does not fit the configured core count.
pub fn from_policy(
    cfg: &SystemConfig,
    workload: &Workload,
    policy: &Policy,
) -> Result<Box<dyn MemoryBackend>, MorphError> {
    let n = cfg.n_cores();
    Ok(match policy {
        Policy::Static(t) => Box::new(StaticBackend::new(cfg, *t)?),
        Policy::Morph(mc) => Box::new(MorphBackend::new(cfg, workload.app_ids(n), *mc)?),
        Policy::Pipp => Box::new(PippSystem::new(
            n,
            cfg.hierarchy.l1,
            cfg.hierarchy.l2_slice,
            cfg.hierarchy.l3_slice,
            cfg.hierarchy.latency,
        )),
        Policy::Dsr => Box::new(DsrSystem::new(
            n,
            cfg.hierarchy.l1,
            cfg.hierarchy.l2_slice,
            cfg.hierarchy.l3_slice,
            cfg.hierarchy.latency,
        )),
    })
}

/// Sets the hierarchy's merged latencies for the installed groups, per
/// level: the local latency, plus `base`'s merged overhead scaled by the
/// §5.5 span factor (relaxed groupings pay for distant members; 1.0 for
/// buddy-aligned groups), plus the NUCA hop distance for the widest
/// group — zero at or below the paper's 16-tile die, one bus hop (5
/// core cycles at the paper clocks) per further doubling of the
/// covering span.
pub(crate) fn apply_merged_latencies(
    hier: &mut Hierarchy,
    base: LatencyParams,
    l2_groups: &[Vec<usize>],
    l3_groups: &[Vec<usize>],
) {
    let nuca = NucaModel::paper();
    let merged = |local: u64, merged: u64, groups: &[Vec<usize>]| {
        let overhead = ((merged - local) as f64 * Hierarchy::span_factor(groups)) as u64;
        local + overhead + nuca.extra_merged_cycles(max_covering_span(groups))
    };
    hier.set_merged_latencies(
        merged(base.l2_local, base.l2_merged, l2_groups),
        merged(base.l3_local, base.l3_merged, l3_groups),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphcache::SymmetricTopology;

    #[test]
    fn from_policy_covers_every_policy() {
        let cfg = SystemConfig::quick_test(4);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        for p in [
            Policy::baseline(4),
            Policy::morph(&cfg),
            Policy::Pipp,
            Policy::Dsr,
        ] {
            let b = from_policy(&cfg, &w, &p).unwrap();
            assert_eq!(b.n_cores(), 4, "{}", p.name());
            assert_eq!(b.misses_by_core().len(), 4, "{}", p.name());
        }
    }

    /// The engine's utilization denominators are the run's slice line
    /// counts: on `quick_test(4)`'s 512-line L2 slices, 128 distinct
    /// lines reused by core 0 read back as a quarter of its slice.
    #[test]
    fn morph_engine_takes_the_runs_slice_geometry() {
        use morph_cache::{MemorySubsystem, NoopSink};
        use morphcache::{CacheLevelId, MorphConfig};
        let cfg = SystemConfig::quick_test(4);
        assert_eq!(cfg.l2_slice_lines(), 512);
        let mut b = MorphBackend::new(&cfg, vec![0, 1, 2, 3], MorphConfig::paper()).unwrap();
        // The first pass fills L2; the second misses the 64-line L1
        // every time and hits L2, which is what sets ACFV bits.
        for i in (0..128).chain(0..128) {
            b.access(0, i * 7919, false, &mut NoopSink);
        }
        let engine = b.engine().unwrap();
        let u = engine.group_utilization(CacheLevelId::L2, 0);
        assert!((u - 0.25).abs() < 0.02, "L2 utilization {u}");
    }

    #[test]
    fn an_overflowing_topology_literal_is_a_typed_error() {
        // (2^(BITS-1) + 2)·2·1 wraps around to 4 in unchecked arithmetic.
        let t = SymmetricTopology {
            x: usize::MAX / 2 + 3,
            y: 2,
            z: 1,
        };
        let err = StaticBackend::new(&SystemConfig::quick_test(4), t).err();
        assert!(matches!(err, Some(MorphError::Topology(_))), "{err:?}");
    }

    #[test]
    fn backends_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<StaticBackend>();
        assert_send::<MorphBackend>();
        assert_send::<dyn MemoryBackend>();
    }
}
