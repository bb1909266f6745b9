//! Representative-interval sampling: simulate one epoch per program
//! phase, fast-forward the rest, and extrapolate the run's statistics.
//!
//! The paper's adaptation interval (one epoch) is also the natural
//! sampling unit: workloads move through *phases* — stretches of epochs
//! with near-identical active footprints — and the detailed simulator
//! produces near-identical IPCs and miss rates for every epoch of a
//! phase. Sampling exploits that redundancy:
//!
//! 1. **Phase detection.** At each epoch boundary the per-core streams
//!    expose their active footprints ([`SyntheticStream::hot_footprint`]
//!    / [`warm_footprint`]) — exactly the quantity the hardware ACFVs
//!    estimate — *before* the epoch is simulated, because the streams
//!    are deterministic and independent of cache state. The per-core
//!    log-footprint vector is the epoch's phase signature.
//! 2. **Per-core leader matching.** Each core matches phases
//!    independently: a core is *covered* when some already-simulated
//!    epoch (a *leader*) has that core's `(ln hot, ln warm)` pair
//!    within [`SamplingConfig::threshold`] (max metric, log space) —
//!    core 0 may reuse epoch 2's measurements while core 1 reuses
//!    epoch 5's. An epoch is skipped only when every core is covered;
//!    otherwise it is simulated in full detail and becomes a new
//!    leader. The first measured epoch is always simulated.
//! 3. **Fast-forward with functional warm-up.** A skipped epoch must
//!    leave the streams where full simulation would have: every stream
//!    draws its nearest leader's access count for that core (the RNG
//!    advance is what keeps later epochs comparable), and the trailing
//!    [`SamplingConfig::warmup_fraction`] of each core's draws is
//!    replayed through the memory backend — no core timing, no event
//!    probes — so the cache contents track the drifting working set and
//!    the next leader starts warm.
//! 4. **Per-core extrapolation.** A skipped epoch estimates each core's
//!    IPC, miss count and per-level hit/miss contribution as the
//!    inverse-distance-weighted blend of that core's nearest in-range
//!    leaders' per-core measurements; the per-level contributions are
//!    summed across cores and epochs into whole-run
//!    [`LevelExtrapolation`]s.
//!
//! Determinism: sampling adds no randomness of its own — the only RNG
//! in the loop is the workload streams' vendored `Xoshiro256pp`, keyed
//! by the configured seed, and phase signatures/thresholds are pure
//! functions of stream state — so a sampled run is bit-reproducible,
//! and with `threshold = 0.0` it degenerates to the full simulation,
//! epoch for epoch.
//!
//! Scope: adaptive backends reconfigure only at simulated (leader)
//! epoch boundaries — a skipped epoch freezes the current grouping —
//! and fault injection is incompatible with skipping (the run driver
//! rejects the combination).
//!
//! [`SyntheticStream::hot_footprint`]: morph_trace::stream::SyntheticStream::hot_footprint
//! [`warm_footprint`]: morph_trace::stream::SyntheticStream::warm_footprint

use crate::epoch::fast_forward;
use crate::sim::{EpochResult, SystemSim};
use morph_cache::Hierarchy;
use morph_trace::stream::SyntheticStream;
use morphcache::MorphError;

/// Tuning knobs for [`run_sampled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Maximum distance between a core's `(ln hot, ln warm)` footprint
    /// pair and a leader's (max metric, log space) for the core to
    /// reuse that leader. An epoch is skipped only when *every* core
    /// has a leader within this distance. `0.2` groups footprints that
    /// agree within ~22%; `0.0` disables skipping entirely.
    pub threshold: f64,
    /// Trailing fraction of each core's fast-forwarded accesses that is
    /// replayed through the cache hierarchy (functional warm-up) during
    /// a skipped epoch.
    pub warmup_fraction: f64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            threshold: 0.2,
            warmup_fraction: 0.5,
        }
    }
}

impl SamplingConfig {
    /// Rejects configurations the sampler cannot run.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] if `threshold` is negative
    /// or not finite, or `warmup_fraction` is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), MorphError> {
        if !self.threshold.is_finite() || self.threshold < 0.0 {
            return Err(MorphError::InvalidConfig {
                field: "sampling.threshold",
                value: self.threshold as u64,
                constraint: "must be finite and non-negative",
            });
        }
        if !(0.0..=1.0).contains(&self.warmup_fraction) {
            return Err(MorphError::InvalidConfig {
                field: "sampling.warmup_fraction",
                value: self.warmup_fraction as u64,
                constraint: "must lie in [0, 1]",
            });
        }
        Ok(())
    }
}

/// Whole-run hit/miss counts for one cache level, extrapolated from the
/// leader epochs' measured deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelExtrapolation {
    /// Extrapolated lookups at the level.
    pub accesses: u64,
    /// Extrapolated whole-group misses.
    pub misses: u64,
}

impl LevelExtrapolation {
    /// Extrapolated miss rate; zero when no accesses were recorded.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The result of a sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRun {
    /// One result per measured epoch: leaders carry their detailed
    /// simulation, skipped epochs their leader's statistics under the
    /// skipped epoch's index.
    pub epochs: Vec<EpochResult>,
    /// `simulated[e]` says whether measured epoch `e` ran in full
    /// detail (`true`) or was extrapolated from its phase leader.
    pub simulated: Vec<bool>,
    /// Distinct phases detected (== number of leader epochs).
    pub phases: usize,
    /// Per-level (L1, L2, L3) extrapolated hit/miss totals over the
    /// measured region; `None` when the backend exposes no
    /// [`Hierarchy`] (externally modeled memory systems).
    pub extrapolated: Option<[LevelExtrapolation; 3]>,
}

impl SampledRun {
    /// Mean (over measured epochs) of the per-epoch throughput (Σ IPC).
    pub fn mean_throughput(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.throughput()).sum::<f64>() / self.epochs.len() as f64
    }

    /// How many measured epochs ran in full detail.
    pub fn simulated_epochs(&self) -> usize {
        self.simulated.iter().filter(|&&s| s).count()
    }
}

/// What one detailed epoch measured for one core: the per-core slice of
/// the leader's statistics, reusable independently of the other cores.
#[derive(Debug, Clone, Copy, Default)]
struct CoreSample {
    ipc: f64,
    misses: f64,
    accesses: u64,
    /// Per-level (accesses, misses) issued by this core, when the
    /// backend exposes a hierarchy.
    levels: [(f64, f64); 3],
}

/// One simulated phase leader.
struct Leader {
    /// `signature[c]` is core `c`'s `(ln hot, ln warm)` footprint pair.
    signature: Vec<[f64; 2]>,
    per_core: Vec<CoreSample>,
    result: EpochResult,
}

/// The epoch's phase signature: per-core `(ln hot, ln warm)` footprints
/// read from the streams *before* the epoch is simulated.
fn signature(streams: &[SyntheticStream]) -> Vec<[f64; 2]> {
    streams
        .iter()
        .map(|s| {
            [
                (s.hot_footprint() as f64).ln(),
                (s.warm_footprint() as f64).ln(),
            ]
        })
        .collect()
}

/// Distance between two cores' footprint pairs (max metric, log space).
fn core_distance(a: [f64; 2], b: [f64; 2]) -> f64 {
    (a[0] - b[0]).abs().max((a[1] - b[1]).abs())
}

/// The in-range leaders for core `c` — every leader whose core-`c`
/// footprint lies within `threshold` — nearest first, capped at
/// [`BLEND_K`]; ties broken toward the earlier leader.
fn in_range_for_core(
    leaders: &[Leader],
    c: usize,
    sig: [f64; 2],
    threshold: f64,
) -> Vec<(usize, f64)> {
    let mut hits: Vec<(usize, f64)> = leaders
        .iter()
        .enumerate()
        .filter_map(|(i, l)| {
            let d = core_distance(l.signature[c], sig);
            (d <= threshold).then_some((i, d))
        })
        .collect();
    hits.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    hits.truncate(BLEND_K);
    hits
}

/// Index of the leader nearest to `sig` under the whole-machine metric
/// (max over cores of the per-core distance). Used only for the
/// topology metadata a skipped epoch inherits.
fn global_nearest(leaders: &[Leader], sig: &[[f64; 2]]) -> usize {
    let dist = |l: &Leader| {
        l.signature
            .iter()
            .zip(sig)
            .map(|(a, b)| core_distance(*a, *b))
            .fold(0.0f64, f64::max)
    };
    leaders
        .iter()
        .enumerate()
        .min_by(|a, b| {
            dist(a.1)
                .partial_cmp(&dist(b.1))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Inverse-distance weights over a core's nearest leaders. An exact
/// match still gets finite weight (the `+ 0.01` floor), so coincident
/// leaders share the estimate instead of producing a 0/0.
fn blend_weights(hits: &[(usize, f64)]) -> Vec<f64> {
    let raw: Vec<f64> = hits.iter().map(|&(_, d)| 1.0 / (d + 0.01)).collect();
    let sum: f64 = raw.iter().sum();
    raw.iter().map(|w| w / sum).collect()
}

/// Leaders a skipped epoch blends per core: enough for the estimate to
/// average out single-leader noise, few enough to stay local in
/// footprint space.
const BLEND_K: usize = 3;

/// Per-level per-core (accesses, misses) for core `c`.
fn core_level_counts(h: &Hierarchy, c: usize) -> [(u64, u64); 3] {
    [
        (h.l1_stats.accesses_by_core[c], h.l1_stats.misses_by_core[c]),
        (
            h.l2().stats.accesses_by_core[c],
            h.l2().stats.misses_by_core[c],
        ),
        (
            h.l3().stats.accesses_by_core[c],
            h.l3().stats.misses_by_core[c],
        ),
    ]
}

/// Per-level whole-machine (accesses, misses) snapshot.
fn level_counts(h: &Hierarchy) -> [(u64, u64); 3] {
    [
        (h.l1_stats.accesses, h.l1_stats.misses),
        (h.l2().stats.accesses, h.l2().stats.misses),
        (h.l3().stats.accesses, h.l3().stats.misses),
    ]
}

/// Runs `sim`'s configured warm-up epochs in full detail, then samples
/// the measured region: phase leaders are simulated, repeats are
/// fast-forwarded and extrapolated (see the module docs).
///
/// # Errors
///
/// Returns [`MorphError::InvalidConfig`] for an invalid `scfg`, and
/// whatever a detailed epoch returns ([`MorphError::Stalled`],
/// [`MorphError::Grouping`], ...) — skipped epochs cannot fail.
pub fn run_sampled(sim: &mut SystemSim, scfg: &SamplingConfig) -> Result<SampledRun, MorphError> {
    scfg.validate()?;
    if !sim.faults.is_noop() {
        // A skipped epoch never consults the injector, so its scheduled
        // faults would silently not fire; refuse the combination rather
        // than deliver results that look faulted but are not.
        return Err(MorphError::FeatureConflict {
            a: "--sampling",
            b: "--faults",
            why: "skipped epochs bypass the fault injector",
        });
    }
    for _ in 0..sim.config().warmup_epochs {
        sim.run_epoch()?;
    }
    let n_epochs = sim.config().n_epochs;
    let mut leaders: Vec<Leader> = Vec::new();
    // Grown as epochs run, as the full-detail path does: `n_epochs` is
    // only bounded by `usize`, so reserving it up front can abort.
    let mut epochs = Vec::new();
    let mut simulated = Vec::new();
    let mut extrapolated = sim.hierarchy().map(|_| [LevelExtrapolation::default(); 3]);
    let n_cores = sim.config().n_cores();
    for _ in 0..n_epochs {
        let sig = signature(&sim.streams);
        // Skip the epoch only when EVERY core has a leader within the
        // threshold of its own footprint pair: cores match phases
        // independently — core 0 may reuse epoch 2 while core 1 reuses
        // epoch 5 — which clusters far more epochs than requiring one
        // leader to match the whole machine at once.
        let skip = !leaders.is_empty()
            && (0..n_cores).all(|c| {
                leaders
                    .iter()
                    .map(|l| core_distance(l.signature[c], sig[c]))
                    .fold(f64::INFINITY, f64::min)
                    <= scfg.threshold
            });
        if !skip {
            let result = sim.run_epoch()?;
            // `begin_epoch` reset the hierarchy stats at the top of the
            // epoch, so the post-epoch counters ARE the epoch's counts.
            let deltas = sim.hierarchy().map(level_counts);
            if let (Some(acc), Some(d)) = (&mut extrapolated, deltas) {
                for (a, (da, dm)) in acc.iter_mut().zip(d) {
                    a.accesses += da;
                    a.misses += dm;
                }
            }
            let per_core = (0..n_cores)
                .map(|c| CoreSample {
                    ipc: result.ipcs[c],
                    misses: result.misses_by_core[c] as f64,
                    accesses: result.accesses_by_core[c],
                    levels: sim
                        .hierarchy()
                        .map(|h| core_level_counts(h, c).map(|(a, m)| (a as f64, m as f64)))
                        .unwrap_or_default(),
                })
                .collect();
            leaders.push(Leader {
                signature: sig,
                per_core,
                result: result.clone(),
            });
            epochs.push(result);
            simulated.push(true);
        } else {
            // Skip: estimate each core independently as the
            // inverse-distance-weighted blend of its own in-range
            // leaders, and fast-forward each stream by its nearest
            // leader's draw count for that core.
            let mut ipcs = vec![0.0; n_cores];
            let mut misses = vec![0.0f64; n_cores];
            let mut draws = vec![0u64; n_cores];
            let mut accesses = 0.0;
            let mut deltas = [(0.0f64, 0.0f64); 3];
            for c in 0..n_cores {
                let hits = in_range_for_core(&leaders, c, sig[c], scfg.threshold);
                let w = blend_weights(&hits);
                for (&(i, _), &wi) in hits.iter().zip(&w) {
                    let s = &leaders[i].per_core[c];
                    ipcs[c] += wi * s.ipc;
                    misses[c] += wi * s.misses;
                    accesses += wi * s.accesses as f64;
                    for (slot, (da, dm)) in deltas.iter_mut().zip(s.levels) {
                        slot.0 += wi * da;
                        slot.1 += wi * dm;
                    }
                }
                draws[c] = leaders[hits[0].0].per_core[c].accesses;
            }
            let epoch = sim.epoch;
            let (l2_grouping, l3_grouping) = fast_forward(sim, &draws, scfg.warmup_fraction);
            let nearest = &leaders[global_nearest(&leaders, &sig)];
            epochs.push(EpochResult {
                epoch,
                ipcs,
                misses_by_core: misses.iter().map(|&m| m.round() as u64).collect(),
                accesses: accesses.round() as u64,
                accesses_by_core: draws,
                // The grouping is frozen across a skipped epoch.
                reconfig_events: 0,
                asymmetric_events: 0,
                asymmetric: nearest.result.asymmetric,
                l2_grouping,
                l3_grouping,
                chosen_topology: nearest.result.chosen_topology.clone(),
            });
            simulated.push(false);
            if let Some(acc) = &mut extrapolated {
                for (a, (da, dm)) in acc.iter_mut().zip(deltas) {
                    a.accesses += da.round() as u64;
                    a.misses += dm.round() as u64;
                }
            }
        }
    }
    Ok(SampledRun {
        epochs,
        simulated,
        phases: leaders.len(),
        extrapolated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::policy::Policy;
    use crate::supervisor::{CancelToken, ShutdownFlag};
    use crate::workload::Workload;

    fn workload() -> Workload {
        Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap()
    }

    /// Full-detail reference: runs the same epochs manually, recording
    /// per-level deltas over the measured region for comparison.
    fn full_reference(
        cfg: &SystemConfig,
        policy: &Policy,
    ) -> (Vec<EpochResult>, [LevelExtrapolation; 3]) {
        let mut sim = SystemSim::new(*cfg, &workload(), policy).unwrap();
        for _ in 0..cfg.warmup_epochs {
            sim.run_epoch().unwrap();
        }
        // begin_epoch resets the level stats, so the post-epoch counters
        // are per-epoch counts; accumulate them across the run.
        let mut levels = [LevelExtrapolation::default(); 3];
        let epochs: Vec<EpochResult> = (0..cfg.n_epochs)
            .map(|_| {
                let r = sim.run_epoch().unwrap();
                let c = level_counts(sim.hierarchy().unwrap());
                for (l, (a, m)) in levels.iter_mut().zip(c) {
                    l.accesses += a;
                    l.misses += m;
                }
                r
            })
            .collect();
        (epochs, levels)
    }

    #[test]
    fn zero_threshold_reproduces_full_simulation_exactly() {
        let cfg = SystemConfig::quick_test(4).with_epochs(6);
        let policy = Policy::baseline(4);
        let (full, _) = full_reference(&cfg, &policy);
        let mut sim = SystemSim::new(cfg, &workload(), &policy).unwrap();
        let sampled = run_sampled(
            &mut sim,
            &SamplingConfig {
                threshold: 0.0,
                ..SamplingConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sampled.simulated_epochs(), 6);
        assert_eq!(sampled.phases, 6);
        assert_eq!(sampled.epochs, full);
    }

    /// An epoch count no run reaches reserves nothing: cancelled before
    /// its first epoch, the run returns the typed error instead of
    /// aborting on a huge allocation.
    #[test]
    fn an_unreachable_epoch_count_allocates_nothing_up_front() {
        let mut cfg = SystemConfig::quick_test(4);
        cfg.n_epochs = usize::MAX;
        cfg.warmup_epochs = 0;
        let elapsed = CancelToken::new(Some(0.0), ShutdownFlag::new());
        let mut sim = SystemSim::new(cfg, &workload(), &Policy::baseline(4))
            .unwrap()
            .with_cancel(elapsed);
        let err = run_sampled(&mut sim, &SamplingConfig::default()).unwrap_err();
        assert_eq!(err, MorphError::Cancelled { epoch: 0 });
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let cfg = SystemConfig::quick_test(4).with_epochs(8);
        let policy = Policy::baseline(4);
        let run = || {
            let mut sim = SystemSim::new(cfg, &workload(), &policy).unwrap();
            run_sampled(&mut sim, &SamplingConfig::default()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sampling_skips_epochs_and_stays_within_error_bound() {
        // Figure-level statistics from a sampled run must stay within
        // 3% of full simulation. Paper-length epochs (1.5M cycles):
        // sampling targets long runs, where per-epoch variance — which
        // bounds how well ANY epoch-granular estimator can do — is
        // small relative to the phase signal.
        let mut cfg = SystemConfig::quick_test(4).with_epochs(16);
        cfg.epoch_cycles = 1_500_000;
        for policy in [
            Policy::baseline(4),
            Policy::Static(morphcache::SymmetricTopology::parse("1:1:4", 4).unwrap()),
        ] {
            let (full, full_levels) = full_reference(&cfg, &policy);
            let mut sim = SystemSim::new(cfg, &workload(), &policy).unwrap();
            let sampled = run_sampled(&mut sim, &SamplingConfig::default()).unwrap();
            assert_eq!(sampled.epochs.len(), full.len());
            assert!(
                sampled.simulated_epochs() < full.len(),
                "{}: sampling must skip at least one epoch (simulated {}/{})",
                policy.name(),
                sampled.simulated_epochs(),
                full.len()
            );
            let full_tp = full.iter().map(|e| e.throughput()).sum::<f64>() / full.len() as f64;
            let rel = (sampled.mean_throughput() - full_tp).abs() / full_tp;
            assert!(
                rel <= 0.03,
                "{}: sampled throughput {:.4} vs full {:.4} ({:.1}% off)",
                policy.name(),
                sampled.mean_throughput(),
                full_tp,
                rel * 100.0
            );
            let extra = sampled.extrapolated.unwrap();
            for (lvl, (s, f)) in extra.iter().zip(full_levels).enumerate() {
                let d = (s.miss_rate() - f.miss_rate()).abs();
                assert!(
                    d <= 0.03,
                    "{}: L{} miss rate {:.4} vs full {:.4}",
                    policy.name(),
                    lvl + 1,
                    s.miss_rate(),
                    f.miss_rate()
                );
            }
        }
    }

    #[test]
    fn adaptive_backend_samples_without_reconfiguring_mid_phase() {
        let cfg = SystemConfig::quick_test(4).with_epochs(8);
        let policy = Policy::morph(&cfg);
        let mut sim = SystemSim::new(cfg, &workload(), &policy).unwrap();
        let sampled = run_sampled(&mut sim, &SamplingConfig::default()).unwrap();
        assert_eq!(sampled.epochs.len(), 8);
        // Skipped epochs freeze the grouping: no reconfiguration events.
        for (e, &simd) in sampled.epochs.iter().zip(&sampled.simulated) {
            if !simd {
                assert_eq!(e.reconfig_events, 0);
            }
        }
        sim.hierarchy().unwrap().check_inclusion().unwrap();
    }

    #[test]
    fn invalid_sampling_config_rejected() {
        let bad = SamplingConfig {
            threshold: -1.0,
            ..SamplingConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SamplingConfig {
            warmup_fraction: 1.5,
            ..SamplingConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(SamplingConfig::default().validate().is_ok());
    }
}
