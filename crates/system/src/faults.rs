//! Deterministic, seed-driven fault injection.
//!
//! The resilience layer treats the simulator as a system under test: a
//! [`FaultPlan`] schedules faults at chosen epochs — ACFV sample
//! corruption, denied bus grants, a pinned core, forced merge/split
//! decisions — and threads them through [`crate::sim::SystemSim`] behind
//! the [`FaultInjector`] trait. The no-op default ([`NoFaults`]) costs a
//! single virtual call per epoch on the normal path; the faulted path
//! wraps the memory subsystem in [`FaultedMemory`], and the MorphCache
//! backend scrambles its engine's footprint samples with the injector's
//! [`corrupt_mask`](FaultInjector::corrupt_mask).
//!
//! Every injected fault must leave the simulation in one of two states:
//! a completed run with valid (degraded) statistics, or a structured
//! [`MorphError`] — never a panic, never a hang. The forward-progress
//! watchdog in the epoch loop (see `epoch.rs`) converts the
//! otherwise-silent stalls (a pinned core starving) into
//! [`MorphError::Stalled`] diagnostics. All fault arithmetic saturates,
//! so even a `drop=` window of `u64::MAX` cycles ends in such a stall.
//!
//! Epoch indices in fault specs count *all* simulated epochs, warm-up
//! included (warm-up epoch 0 is the first epoch a fault can hit).

use morph_cache::{CacheEventSink, CoreId, Line, MemorySubsystem};
use morphcache::{MorphError, Xoshiro256pp};

/// The MSHR occupancy the stall diagnostic reports for a pinned core:
/// every entry of its 16-entry file is held.
const PINNED_MSHR_ENTRIES: usize = 16;

/// A pinned core's per-access stall, in epochs: large enough that the
/// core's retirement this epoch collapses to a single access's worth of
/// instructions, which is below the watchdog's floor.
const PIN_STALL_EPOCHS: u64 = 64;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// During `epoch`, line addresses reported to the footprint sink are
    /// XOR-scrambled with a seed-derived mask, corrupting ACFV samples.
    AcfvCorrupt {
        /// Epoch the corruption is active in.
        epoch: u64,
    },
    /// Deny bus grants for the first `cycles` cycles of `epoch`: every
    /// access issued before that point stalls until the window ends.
    DropGrants {
        /// Epoch the outage occurs in.
        epoch: u64,
        /// Length of the denied-grant window in cycles.
        cycles: u64,
    },
    /// Pin every MSHR entry of `core` during `epoch`: each of its
    /// accesses stalls for 64 epochs, so the core stops making forward
    /// progress.
    PinMshr {
        /// Epoch the pin is active in.
        epoch: u64,
        /// The core whose MSHR file is pinned.
        core: usize,
    },
    /// Force a merge into the engine's reconfiguration outcome at `epoch`
    /// (the first two L3 groups are combined).
    ForceMerge {
        /// Epoch the merge is forced at.
        epoch: u64,
    },
    /// Force an L3-only split at `epoch` — deliberately inclusion-hostile,
    /// exercising the post-reconfigure repair path.
    ForceSplit {
        /// Epoch the split is forced at.
        epoch: u64,
    },
}

/// Hooks the simulator calls around every epoch and access.
///
/// All methods default to the no-op behavior, so an implementation only
/// overrides what it injects. The simulator consults [`is_noop`] once per
/// epoch and skips all wrapping when it returns `true`, keeping the
/// normal path free of fault-injection overhead.
///
/// `Send` is a supertrait so a faulted simulator can run as a cell of
/// the parallel experiment matrix like any clean one.
///
/// [`is_noop`]: FaultInjector::is_noop
pub trait FaultInjector: Send {
    /// Whether this injector never does anything (enables the fast path).
    fn is_noop(&self) -> bool {
        true
    }

    /// Validates the plan against the machine it is about to run on.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::FaultSpec`] for plans that reference
    /// out-of-range cores or zero-length windows.
    fn validate(&self, _n_cores: usize) -> Result<(), MorphError> {
        Ok(())
    }

    /// Called at the start of every simulated epoch (warm-up included).
    fn begin_epoch(&mut self, _epoch: u64, _epoch_cycles: u64, _n_cores: usize) {}

    /// Extra stall cycles charged to `core`'s access on top of the memory
    /// system's own latency. Called once per access on the faulted path.
    fn access_overhead(&mut self, _core: CoreId, _inner_latency: u64) -> u64 {
        0
    }

    /// XOR mask to scramble lines reported to the footprint sink with
    /// this epoch, or `None` when ACFV corruption is inactive.
    fn corrupt_mask(&self) -> Option<u64> {
        None
    }

    /// Whether a merge is forced into this epoch's reconfiguration.
    fn force_merge(&self) -> bool {
        false
    }

    /// Whether an (inclusion-hostile) L3 split is forced this epoch.
    fn force_split(&self) -> bool {
        false
    }

    /// Outstanding MSHR entries per core, for stall diagnostics.
    fn mshr_outstanding(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Pending (denied) bus grants per core, for stall diagnostics.
    fn bus_pending(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// The default injector: injects nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// A deterministic, seed-driven schedule of faults.
///
/// Two plans with the same seed and fault list inject byte-identical
/// faults, so a faulted run is exactly as reproducible as a clean one.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    faults: Vec<FaultKind>,
    rng: Xoshiro256pp,
    // Per-epoch derived state.
    drop_window: u64,
    pinned_core: Option<usize>,
    pin_stall: u64,
    mask: Option<u64>,
    forced_merge: bool,
    forced_split: bool,
    // Per-core state for the current epoch.
    elapsed: Vec<u64>,
    pending: Vec<usize>,
    issued: Vec<bool>,
}

impl FaultPlan {
    /// An empty plan with the given seed; add faults with [`with_fault`].
    ///
    /// [`with_fault`]: FaultPlan::with_fault
    pub fn seeded(seed: u64) -> Self {
        Self {
            faults: Vec::new(),
            rng: Xoshiro256pp::seed_from_u64(seed),
            drop_window: 0,
            pinned_core: None,
            pin_stall: 0,
            mask: None,
            forced_merge: false,
            forced_split: false,
            elapsed: Vec::new(),
            pending: Vec::new(),
            issued: Vec::new(),
        }
    }

    /// Adds one fault to the schedule.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Parses a `--faults` spec string.
    ///
    /// Grammar: semicolon-separated clauses, each one of
    ///
    /// * `seed=N` — RNG seed for mask derivation (default 0);
    /// * `acfv@E` — corrupt ACFV samples during epoch `E`;
    /// * `drop=K@E` — deny bus grants for the first `K` cycles of `E`;
    /// * `pin=C@E` — pin core `C`'s MSHR entries during epoch `E`;
    /// * `merge@E` — force a merge into epoch `E`'s reconfiguration;
    /// * `split@E` — force an inclusion-hostile L3 split at epoch `E`.
    ///
    /// Example: `seed=42;acfv@1;drop=5000@2;pin=0@3;merge@4;split@5`.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::FaultSpec`] on any unrecognized or
    /// malformed clause.
    pub fn parse(spec: &str) -> Result<Self, MorphError> {
        let bad = |clause: &str, why: &str| {
            Err(MorphError::FaultSpec(format!("clause `{clause}`: {why}")))
        };
        let int = |s: &str, clause: &str| {
            s.parse::<u64>().map_err(|_| {
                MorphError::FaultSpec(format!("clause `{clause}`: `{s}` is not an integer"))
            })
        };
        let mut seed = 0;
        let mut faults = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(v) = clause.strip_prefix("seed=") {
                seed = int(v, clause)?;
                continue;
            }
            let Some((head, at)) = clause.split_once('@') else {
                return bad(clause, "expected `kind@epoch` or `seed=N`");
            };
            let epoch = int(at, clause)?;
            match head.split_once('=') {
                None if head == "acfv" => faults.push(FaultKind::AcfvCorrupt { epoch }),
                None if head == "merge" => faults.push(FaultKind::ForceMerge { epoch }),
                None if head == "split" => faults.push(FaultKind::ForceSplit { epoch }),
                Some(("drop", k)) => faults.push(FaultKind::DropGrants {
                    epoch,
                    cycles: int(k, clause)?,
                }),
                Some(("pin", c)) => faults.push(FaultKind::PinMshr {
                    epoch,
                    core: int(c, clause)? as usize,
                }),
                _ => return bad(clause, "unknown fault kind"),
            }
        }
        let mut plan = Self::seeded(seed);
        plan.faults = faults;
        Ok(plan)
    }
}

impl FaultInjector for FaultPlan {
    fn is_noop(&self) -> bool {
        self.faults.is_empty()
    }

    fn validate(&self, n_cores: usize) -> Result<(), MorphError> {
        for f in &self.faults {
            match *f {
                FaultKind::PinMshr { core, epoch } if core >= n_cores => {
                    return Err(MorphError::FaultSpec(format!(
                        "pin={core}@{epoch} references core {core} on a {n_cores}-core machine"
                    )));
                }
                FaultKind::DropGrants { cycles: 0, epoch } => {
                    return Err(MorphError::FaultSpec(format!(
                        "drop=0@{epoch} is a zero-length outage"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn begin_epoch(&mut self, epoch: u64, epoch_cycles: u64, n_cores: usize) {
        self.elapsed = vec![0; n_cores];
        self.pending = vec![0; n_cores];
        self.issued = vec![false; n_cores];
        self.drop_window = 0;
        self.pinned_core = None;
        self.pin_stall = epoch_cycles.saturating_mul(PIN_STALL_EPOCHS);
        self.mask = None;
        self.forced_merge = false;
        self.forced_split = false;
        for f in &self.faults {
            match *f {
                FaultKind::AcfvCorrupt { epoch: e } if e == epoch => {
                    // Nonzero seed-derived mask; drawing only on corrupt
                    // epochs keeps the sequence deterministic per seed.
                    self.mask = Some(self.rng.next_u64() | 1);
                }
                FaultKind::DropGrants { epoch: e, cycles } if e == epoch => {
                    self.drop_window = self.drop_window.max(cycles);
                }
                FaultKind::PinMshr { epoch: e, core } if e == epoch => {
                    self.pinned_core = Some(core);
                }
                FaultKind::ForceMerge { epoch: e } if e == epoch => self.forced_merge = true,
                FaultKind::ForceSplit { epoch: e } if e == epoch => self.forced_split = true,
                _ => {}
            }
        }
    }

    fn access_overhead(&mut self, core: CoreId, inner_latency: u64) -> u64 {
        let now = self.elapsed[core];
        let mut extra = 0;
        if now < self.drop_window {
            // The bus arbiter denies the grant; the access waits out the
            // remainder of the outage window.
            extra = self.drop_window - now;
            self.pending[core] += 1;
        }
        if self.pinned_core == Some(core) {
            // Every miss needs an MSHR entry; with all entries pinned the
            // access stalls far past the epoch boundary.
            extra = extra.saturating_add(self.pin_stall);
        }
        self.issued[core] = true;
        self.elapsed[core] = now.saturating_add(inner_latency).saturating_add(extra);
        extra
    }

    fn corrupt_mask(&self) -> Option<u64> {
        self.mask
    }

    fn force_merge(&self) -> bool {
        self.forced_merge
    }

    fn force_split(&self) -> bool {
        self.forced_split
    }

    fn mshr_outstanding(&self) -> Vec<usize> {
        // All entries on a pinned core; elsewhere the miss of the core's
        // last access, if it issued one this epoch (each access's entry
        // drains at the next one).
        let entries = |(c, &issued): (usize, &bool)| {
            if self.pinned_core == Some(c) {
                PINNED_MSHR_ENTRIES
            } else {
                usize::from(issued)
            }
        };
        self.issued.iter().enumerate().map(entries).collect()
    }

    fn bus_pending(&self) -> Vec<usize> {
        self.pending.clone()
    }
}

/// Memory-subsystem wrapper applying an injector's access-level faults.
pub struct FaultedMemory<'a> {
    inner: &'a mut dyn MemorySubsystem,
    injector: &'a mut dyn FaultInjector,
}

impl<'a> FaultedMemory<'a> {
    /// Wraps `inner`, charging `injector`'s overhead on every access.
    pub fn new(inner: &'a mut dyn MemorySubsystem, injector: &'a mut dyn FaultInjector) -> Self {
        Self { inner, injector }
    }
}

impl MemorySubsystem for FaultedMemory<'_> {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        sink: &mut dyn CacheEventSink,
    ) -> u64 {
        let lat = self.inner.access(core, line, is_write, sink);
        lat.saturating_add(self.injector.access_overhead(core, lat))
    }

    fn n_cores(&self) -> usize {
        self.inner.n_cores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("seed=42;acfv@1;drop=5000@2;pin=0@3;merge@4;split@5").unwrap();
        assert_eq!(
            plan.faults(),
            &[
                FaultKind::AcfvCorrupt { epoch: 1 },
                FaultKind::DropGrants {
                    epoch: 2,
                    cycles: 5000
                },
                FaultKind::PinMshr { epoch: 3, core: 0 },
                FaultKind::ForceMerge { epoch: 4 },
                FaultKind::ForceSplit { epoch: 5 },
            ]
        );
        assert!(!plan.is_noop());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "acfv",
            "drop=5000",
            "warp@3",
            "pin=x@1",
            "drop=@1",
            "acfv@x",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert!(matches!(e, MorphError::FaultSpec(_)), "{bad}: {e}");
        }
    }

    #[test]
    fn empty_spec_is_noop() {
        assert!(FaultPlan::parse("").unwrap().is_noop());
        assert!(FaultPlan::parse("seed=7").unwrap().is_noop());
        assert!(NoFaults.is_noop());
    }

    #[test]
    fn validate_rejects_out_of_range_pin_and_zero_drop() {
        let plan = FaultPlan::parse("pin=8@1").unwrap();
        assert!(plan.validate(4).is_err());
        assert!(plan.validate(16).is_ok());
        let plan = FaultPlan::parse("drop=0@1").unwrap();
        assert!(plan.validate(4).is_err());
    }

    #[test]
    fn masks_are_deterministic_per_seed() {
        let mask_of = |seed: u64| {
            let mut p = FaultPlan::seeded(seed).with_fault(FaultKind::AcfvCorrupt { epoch: 0 });
            p.begin_epoch(0, 1000, 4);
            p.corrupt_mask().unwrap()
        };
        assert_eq!(mask_of(42), mask_of(42));
        assert_ne!(mask_of(42), mask_of(43));
    }

    #[test]
    fn drop_window_stalls_early_accesses_only() {
        let mut p = FaultPlan::seeded(0).with_fault(FaultKind::DropGrants {
            epoch: 0,
            cycles: 100,
        });
        p.begin_epoch(0, 1000, 2);
        // First access at elapsed 0 waits out the outage.
        let extra = p.access_overhead(0, 10);
        assert_eq!(extra, 100);
        // The same core is now past the window.
        assert_eq!(p.access_overhead(0, 10), 0);
        // The other core has its own clock.
        assert_eq!(p.access_overhead(1, 10), 100);
        assert_eq!(p.bus_pending(), vec![1, 1]);
        // Next epoch: no outage scheduled.
        p.begin_epoch(1, 1000, 2);
        assert_eq!(p.access_overhead(0, 10), 0);
    }

    #[test]
    fn pinned_core_stalls_past_epoch_and_reports_occupancy() {
        let mut p = FaultPlan::seeded(0).with_fault(FaultKind::PinMshr { epoch: 2, core: 1 });
        p.begin_epoch(2, 1000, 2);
        assert!(p.access_overhead(1, 10) >= 64 * 1000);
        assert_eq!(p.access_overhead(0, 10), 0, "other cores unaffected");
        assert_eq!(p.mshr_outstanding(), vec![1, PINNED_MSHR_ENTRIES]);
    }

    #[test]
    fn occupancy_reads_one_per_core_that_issued_and_sixteen_when_pinned() {
        let mut p = FaultPlan::seeded(0).with_fault(FaultKind::PinMshr { epoch: 1, core: 2 });
        p.begin_epoch(0, 1000, 3);
        assert_eq!(p.mshr_outstanding(), vec![0, 0, 0]);
        p.access_overhead(1, 0);
        p.access_overhead(1, 300);
        assert_eq!(p.mshr_outstanding(), vec![0, 1, 0]);
        p.begin_epoch(1, 1000, 3);
        assert_eq!(p.mshr_outstanding(), vec![0, 0, PINNED_MSHR_ENTRIES]);
    }

    #[test]
    fn extreme_windows_saturate() {
        let mut p = FaultPlan::parse("drop=18446744073709551615@0;pin=0@0").unwrap();
        p.begin_epoch(0, u64::MAX, 2);
        assert_eq!(p.access_overhead(0, 10), u64::MAX);
        assert_eq!(
            p.access_overhead(0, 10),
            u64::MAX,
            "a pinned core stays pinned"
        );
        assert_eq!(p.access_overhead(1, 10), u64::MAX);
        assert_eq!(
            p.access_overhead(1, 10),
            0,
            "the clock saturates past the window"
        );
        assert_eq!(p.bus_pending(), vec![1, 1]);
    }
}
