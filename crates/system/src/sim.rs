//! The epoch-driven system simulator shell: cores + streams + a
//! [`MemoryBackend`] + fault injection. The per-epoch protocol itself
//! lives in `epoch.rs`; the backends in [`crate::backend`].

use crate::backend::from_policy;
use crate::config::SystemConfig;
use crate::epoch;
use crate::faults::{FaultInjector, NoFaults};
use crate::policy::{MemoryBackend, Policy};
use crate::supervisor::CancelToken;
use crate::workload::Workload;
use morph_cache::{CacheEventSink, Hierarchy, NoopSink};
use morph_cpu::{Core, QuantumScheduler};
use morph_trace::stream::SyntheticStream;
use morphcache::{MorphEngine, MorphError};

/// Results of one simulated epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochResult {
    /// 0-based epoch index.
    pub epoch: u64,
    /// Per-core IPC over the epoch.
    pub ipcs: Vec<f64>,
    /// Per-core L2+L3 misses during the epoch.
    pub misses_by_core: Vec<u64>,
    /// Total memory accesses issued by all cores during the epoch.
    pub accesses: u64,
    /// Per-core memory accesses issued during the epoch (the draw counts
    /// representative-interval sampling replays for a skipped epoch).
    pub accesses_by_core: Vec<u64>,
    /// Reconfigurations (merges + splits) performed at the epoch boundary.
    pub reconfig_events: usize,
    /// How many of those reconfigurations left an asymmetric
    /// configuration (§2.4 statistic).
    pub asymmetric_events: usize,
    /// Whether the configuration after this epoch is asymmetric.
    pub asymmetric: bool,
    /// Canonical description of the L2 grouping after the epoch.
    pub l2_grouping: String,
    /// Canonical description of the L3 grouping after the epoch.
    pub l3_grouping: String,
    /// The topology the backend chose for this epoch; every library
    /// backend leaves it `None`. It stays because the repository
    /// benchmark builds and hashes it, so removing it is a change to the
    /// benchmark.
    pub chosen_topology: Option<String>,
}

impl EpochResult {
    /// Sum of per-core IPCs (the paper's throughput metric).
    pub fn throughput(&self) -> f64 {
        self.ipcs.iter().sum()
    }
}

/// A complete simulated CMP: cores + streams + memory backend + faults.
pub struct SystemSim {
    pub(crate) cfg: SystemConfig,
    pub(crate) backend: Box<dyn MemoryBackend>,
    pub(crate) cores: Vec<Core>,
    pub(crate) streams: Vec<SyntheticStream>,
    pub(crate) scheduler: QuantumScheduler,
    pub(crate) epoch: u64,
    pub(crate) faults: Box<dyn FaultInjector>,
    pub(crate) cancel: Option<CancelToken>,
}

impl SystemSim {
    /// Builds a simulator for `workload` under `policy`.
    ///
    /// Static topologies use the paper's static-latency assumption —
    /// fixed 10/30-cycle L2/L3 hits; the MorphCache hierarchy pays the
    /// segmented-bus overhead on merged (remote-slice) hits.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] if `cfg` fails validation,
    /// and [`MorphError::Topology`] / [`MorphError::Grouping`] if the
    /// policy does not fit the core count.
    pub fn new(
        cfg: SystemConfig,
        workload: &Workload,
        policy: &Policy,
    ) -> Result<Self, MorphError> {
        cfg.validate()?;
        let backend = from_policy(&cfg, workload, policy)?;
        Self::with_backend(cfg, workload, backend)
    }

    /// Builds a simulator around an externally constructed backend —
    /// the plug-in entry point for policies [`Policy`] does not name.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] if `cfg` fails validation or
    /// the backend serves a different number of cores than `cfg` has.
    pub fn with_backend(
        cfg: SystemConfig,
        workload: &Workload,
        backend: Box<dyn MemoryBackend>,
    ) -> Result<Self, MorphError> {
        cfg.validate()?;
        if backend.n_cores() != cfg.n_cores() {
            return Err(MorphError::InvalidConfig {
                field: "n_cores",
                value: cfg.n_cores() as u64,
                constraint: "must equal the backend's core count",
            });
        }
        let streams = workload.streams(&cfg);
        let cores = (0..cfg.n_cores()).map(|c| Core::new(c, cfg.core)).collect();
        Ok(Self {
            backend,
            cores,
            streams,
            scheduler: QuantumScheduler::new(cfg.quantum),
            epoch: 0,
            cfg,
            faults: Box::new(NoFaults),
            cancel: None,
        })
    }

    /// Installs a fault injector (see [`crate::faults`]).
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::FaultSpec`] if the plan references cores this
    /// machine does not have (or is otherwise unrunnable).
    pub fn with_faults(mut self, injector: Box<dyn FaultInjector>) -> Result<Self, MorphError> {
        injector.validate(self.cfg.n_cores())?;
        self.faults = injector;
        Ok(self)
    }

    /// Installs a cooperative cancellation token (see
    /// [`crate::supervisor`]). The epoch loop polls the token at every
    /// epoch boundary and aborts the run with [`MorphError::Cancelled`]
    /// once it fires — this is how the supervisor enforces per-cell
    /// deadlines and graceful shutdown without killing threads mid-epoch.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The backend in use.
    pub fn backend(&self) -> &dyn MemoryBackend {
        self.backend.as_ref()
    }

    /// The MorphCache engine, if this simulator runs one.
    pub fn engine(&self) -> Option<&MorphEngine> {
        self.backend.engine()
    }

    /// The LRU hierarchy, if this backend has one.
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        self.backend.as_hierarchy()
    }

    /// Runs one epoch with no external probe.
    ///
    /// # Errors
    ///
    /// See [`run_epoch_probed`](Self::run_epoch_probed).
    pub fn run_epoch(&mut self) -> Result<EpochResult, MorphError> {
        let mut noop = NoopSink;
        self.run_epoch_probed(&mut noop)
    }

    /// Runs one epoch, duplicating all cache events into `probe`.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Stalled`] if the forward-progress watchdog
    /// detects a core below the per-epoch retirement floor, and
    /// [`MorphError::Grouping`] / [`MorphError::Topology`] if a
    /// reconfiguration produces a topology that cannot be repaired.
    pub fn run_epoch_probed(
        &mut self,
        probe: &mut dyn CacheEventSink,
    ) -> Result<EpochResult, MorphError> {
        epoch::run_epoch(self, probe)
    }

    /// Runs the configured warm-up epochs (discarded) followed by the
    /// measured epochs.
    ///
    /// # Errors
    ///
    /// Fails fast on the first epoch error (the watchdog applies during
    /// warm-up too); see [`run_epoch_probed`](Self::run_epoch_probed).
    pub fn run(&mut self) -> Result<Vec<EpochResult>, MorphError> {
        for _ in 0..self.cfg.warmup_epochs {
            self.run_epoch()?;
        }
        (0..self.cfg.n_epochs).map(|_| self.run_epoch()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use morphcache::SymmetricTopology;

    fn quick(n: usize) -> SystemConfig {
        SystemConfig::quick_test(n)
    }

    #[test]
    fn static_run_produces_epochs() {
        let cfg = quick(4);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let mut sim = SystemSim::new(cfg, &w, &Policy::baseline(4)).unwrap();
        let epochs = sim.run().unwrap();
        assert_eq!(epochs.len(), cfg.n_epochs);
        for e in &epochs {
            assert_eq!(e.ipcs.len(), 4);
            assert!(e.throughput() > 0.0);
            assert_eq!(e.reconfig_events, 0);
        }
        // Baseline = all shared.
        assert_eq!(epochs[0].l3_grouping, "[0-3]");
    }

    #[test]
    fn morph_run_reconfigures() {
        let cfg = quick(4);
        // A capacity-imbalanced workload: two heavy, two light.
        let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).unwrap();
        let mut sim = SystemSim::new(cfg, &w, &Policy::morph(&cfg)).unwrap();
        sim.run().unwrap();
        // Reconfigurations may land in the warm-up epoch, so check the
        // engine's persistent log rather than the measured epochs.
        assert!(
            !sim.engine().unwrap().event_log().is_empty(),
            "morph should reconfigure on imbalance"
        );
        // Inclusion always holds after reconfigurations.
        sim.hierarchy().unwrap().check_inclusion().unwrap();
    }

    #[test]
    fn topology_mismatch_rejected() {
        let cfg = quick(4);
        let w = Workload::named_apps(&["gcc", "gcc", "gcc", "gcc"]).unwrap();
        let t16 = SymmetricTopology::new(4, 4, 1, 16).unwrap();
        let err = SystemSim::new(cfg, &w, &Policy::Static(t16)).err().unwrap();
        assert!(matches!(err, MorphError::Topology(_)), "{err}");
    }

    #[test]
    fn pipp_and_dsr_backends_run() {
        let cfg = quick(4);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        for p in [Policy::Pipp, Policy::Dsr] {
            let mut sim = SystemSim::new(cfg, &w, &p).unwrap();
            let epochs = sim.run().unwrap();
            assert!(epochs.iter().all(|e| e.throughput() > 0.0), "{}", p.name());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        // Every backend must be bit-reproducible run-to-run: same config,
        // same workload, same seed → identical throughput sequences.
        let cfg = quick(4).with_epochs(2);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        for policy in [
            Policy::baseline(4),
            Policy::morph(&cfg),
            Policy::Pipp,
            Policy::Dsr,
        ] {
            let run = || {
                let mut sim = SystemSim::new(cfg, &w, &policy).unwrap();
                sim.run()
                    .unwrap()
                    .iter()
                    .map(|e| e.throughput().to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(), run(), "{} not deterministic", policy.name());
        }
    }

    #[test]
    fn with_backend_accepts_external_implementations() {
        // A minimal external policy: route everything through a
        // StaticBackend built by hand, without going through Policy.
        let cfg = quick(4);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let t = SymmetricTopology::new(2, 2, 1, 4).unwrap();
        let backend = crate::backend::StaticBackend::new(&cfg, t).unwrap();
        let mut sim = SystemSim::with_backend(cfg, &w, Box::new(backend)).unwrap();
        let epochs = sim.run().unwrap();
        assert!(epochs.iter().all(|e| e.throughput() > 0.0));
        assert_eq!(epochs[0].l2_grouping, "[0-1][2-3]");
    }

    #[test]
    fn with_backend_rejects_a_core_count_mismatch() {
        // A 2-core backend under a 4-core config would index past its
        // groupings on core 2's first access.
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let t = SymmetricTopology::new(2, 1, 1, 2).unwrap();
        let backend = crate::backend::StaticBackend::new(&quick(2), t).unwrap();
        match SystemSim::with_backend(quick(4), &w, Box::new(backend)) {
            Err(MorphError::InvalidConfig { field, .. }) => assert_eq!(field, "n_cores"),
            other => panic!("expected InvalidConfig, got {:?}", other.err()),
        }
    }

    #[test]
    fn faulted_morph_run_completes_with_degraded_stats() {
        let cfg = quick(4).with_epochs(4);
        let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).unwrap();
        let plan = FaultPlan::seeded(9)
            .with_fault(FaultKind::AcfvCorrupt { epoch: 1 })
            .with_fault(FaultKind::DropGrants {
                epoch: 2,
                cycles: 5_000,
            })
            .with_fault(FaultKind::ForceMerge { epoch: 3 })
            .with_fault(FaultKind::ForceSplit { epoch: 4 });
        let mut sim = SystemSim::new(cfg, &w, &Policy::morph(&cfg))
            .unwrap()
            .with_faults(Box::new(plan))
            .unwrap();
        let epochs = sim.run().unwrap();
        assert_eq!(epochs.len(), cfg.n_epochs);
        assert!(epochs
            .iter()
            .all(|e| e.throughput() > 0.0 && e.throughput().is_finite()));
        sim.hierarchy().unwrap().check_inclusion().unwrap();
    }

    #[test]
    fn pinned_mshr_trips_watchdog_instead_of_hanging() {
        let cfg = quick(4).with_epochs(4);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let plan = FaultPlan::seeded(0).with_fault(FaultKind::PinMshr { epoch: 2, core: 1 });
        let mut sim = SystemSim::new(cfg, &w, &Policy::morph(&cfg))
            .unwrap()
            .with_faults(Box::new(plan))
            .unwrap();
        match sim.run() {
            Err(MorphError::Stalled {
                epoch,
                core,
                diagnostic,
            }) => {
                assert_eq!(epoch, 2);
                assert_eq!(core, 1);
                assert_eq!(diagnostic.mshr_outstanding.len(), 4);
                assert!(diagnostic.mshr_outstanding[1] > 0, "{diagnostic}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_out_of_range_core_rejected_up_front() {
        let cfg = quick(4);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let plan = FaultPlan::seeded(0).with_fault(FaultKind::PinMshr { epoch: 0, core: 7 });
        let err = SystemSim::new(cfg, &w, &Policy::baseline(4))
            .unwrap()
            .with_faults(Box::new(plan))
            .err()
            .unwrap();
        assert!(matches!(err, MorphError::FaultSpec(_)), "{err}");
    }
}
