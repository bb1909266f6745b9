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
use morph_cache::{Grouping, Hierarchy, LatencyParams};
use morph_interconnect::NucaModel;
use morphcache::topology::{max_covering_span, meet};
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

/// Installs a target (L2, L3) grouping pair on the hierarchy in an
/// inclusion-safe order: first the meet of the target L2 with the current
/// L3 (always a legal L2), then the target L3, then the target L2.
pub fn apply_groups(
    hier: &mut Hierarchy,
    l2_groups: &[Vec<usize>],
    l3_groups: &[Vec<usize>],
) -> Result<(), String> {
    let n = hier.params().n_cores;
    let current_l3: Vec<Vec<usize>> = hier.l3().grouping().iter().map(|g| g.to_vec()).collect();
    let intermediate = meet(l2_groups, &current_l3);
    let to_grouping =
        |gs: &[Vec<usize>]| Grouping::from_groups(n, gs.to_vec()).map_err(|e| e.to_string());
    hier.set_l2_grouping(to_grouping(&intermediate)?)
        .map_err(|e| e.to_string())?;
    hier.set_l3_grouping(to_grouping(l3_groups)?)
        .map_err(|e| e.to_string())?;
    hier.set_l2_grouping(to_grouping(l2_groups)?)
        .map_err(|e| e.to_string())?;
    Ok(())
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
    fn apply_groups_handles_arbitrary_transitions() {
        let mut h = Hierarchy::new(morph_cache::HierarchyParams::scaled_down(8));
        let t1 = SymmetricTopology::new(2, 2, 2, 8).unwrap();
        apply_groups(&mut h, &t1.l2_groups(), &t1.l3_groups()).unwrap();
        assert_eq!(h.l2().grouping().describe(), "[0-1][2-3][4-5][6-7]");
        // Jump straight to a conflicting shape.
        let t2 = SymmetricTopology::new(4, 1, 2, 8).unwrap();
        apply_groups(&mut h, &t2.l2_groups(), &t2.l3_groups()).unwrap();
        assert_eq!(h.l2().grouping().describe(), "[0-3][4-7]");
        // And back to private.
        let t3 = SymmetricTopology::new(1, 1, 8, 8).unwrap();
        apply_groups(&mut h, &t3.l2_groups(), &t3.l3_groups()).unwrap();
        assert_eq!(h.l3().grouping().describe(), "[0][1][2][3][4][5][6][7]");
        h.check_inclusion().unwrap();
    }

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

    #[test]
    fn backends_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<StaticBackend>();
        assert_send::<MorphBackend>();
        assert_send::<dyn MemoryBackend>();
    }
}
