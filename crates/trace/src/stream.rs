//! Phased working-set address stream generator.
//!
//! Each benchmark thread is modeled as a mixture over three regions:
//!
//! * a **hot** region of `W2` lines — the L2-level active footprint, sized
//!   so that a private 256 KB slice measures the Table 4 L2 ACF;
//! * a **warm** region of `W3 ⊇ W2` lines — the L3-level footprint,
//!   calibrated to the Table 4 L3 ACF;
//! * a **cold** stream — sequential compulsory misses.
//!
//! Per-epoch *temporal phases* rescale the region sizes with a normal
//! factor whose deviation reproduces the published σ_t, and shift the hot
//! window (25% turnover per epoch) so stale data ages out — the mechanism
//! the paper's ACFV reset is designed to track. For multithreaded
//! (PARSEC) profiles, a fixed per-thread *spatial factor* reproduces σ_s,
//! and a `sharing` fraction of accesses target a region common to all
//! threads of the application, which is what makes slice merging pay off
//! for the high-sharing benchmarks (§2.2 merge condition (ii)).
//!
//! Streams are deterministic per seed and independent of cache state, so
//! every topology under comparison observes the identical trace.

use crate::profile::BenchmarkProfile;
use morphcache::Xoshiro256pp;

/// One memory reference (line-granular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cache-line address.
    pub line: u64,
    /// Whether this is a store.
    pub is_write: bool,
}

/// A source of memory references.
pub trait AccessStream {
    /// Produces the next reference.
    fn next_access(&mut self) -> Access;

    /// Advances to the next epoch (phase change).
    fn advance_epoch(&mut self);

    /// The profile driving this stream.
    fn profile(&self) -> &BenchmarkProfile;
}

/// Placement and calibration parameters for one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Address-space identifier: distinct per application, shared by the
    /// threads of one multithreaded application.
    pub app_id: usize,
    /// Thread index within the application (0 for single-threaded).
    pub thread: usize,
    /// Total threads in the application (1 for single-threaded).
    pub n_threads: usize,
    /// RNG seed (combined with `app_id` and `thread`).
    pub seed: u64,
    /// Lines per L2 slice used as the ACF calibration basis
    /// (4096 for the paper's 256 KB slices).
    pub l2_slice_lines: u64,
    /// Lines per L3 slice used as the ACF calibration basis
    /// (16384 for the paper's 1 MB slices).
    pub l3_slice_lines: u64,
}

impl StreamConfig {
    /// Configuration for a single-threaded benchmark pinned to `core`,
    /// with the paper's slice geometry.
    pub fn single_threaded(core: usize, seed: u64) -> Self {
        Self {
            app_id: core,
            thread: 0,
            n_threads: 1,
            seed,
            l2_slice_lines: 4096,
            l3_slice_lines: 16384,
        }
    }

    /// Configuration for thread `thread` of a 16-thread (or `n_threads`)
    /// multithreaded application.
    pub fn thread_of(app_id: usize, thread: usize, n_threads: usize, seed: u64) -> Self {
        Self {
            app_id,
            thread,
            n_threads,
            seed,
            l2_slice_lines: 4096,
            l3_slice_lines: 16384,
        }
    }

    /// Rescales the calibration basis for a scaled-down hierarchy.
    pub fn with_slice_lines(mut self, l2: u64, l3: u64) -> Self {
        self.l2_slice_lines = l2;
        self.l3_slice_lines = l3;
        self
    }
}

/// Fraction of references to the warm (L3) region.
const P_WARM: f64 = 0.25;
/// Base fraction of cold streaming references.
const P_COLD_BASE: f64 = 0.02;
/// Additional streaming per unit of missing L3 reuse (low-L3-ACF
/// benchmarks — lbm, libquantum, GemsFDTD-style codes — are the suite's
/// streamers; their pollution is what makes fully shared caches lose to
/// partitioned ones on mixed workloads).
const P_COLD_SLOPE: f64 = 0.25;
/// Fraction of hot references that target the hot *core* (the first
/// eighth of the hot window). Real working sets have skewed locality;
/// two tiers give short stack distances for the core and long ones for
/// the tail.
const P_CORE_OF_HOT: f64 = 0.5;
/// Per-epoch hot-window turnover (fraction of `W2` that shifts).
const HOT_TURNOVER: f64 = 0.25;
/// AR(1) persistence of the temporal phase factors. Program phases span
/// several reconfiguration intervals (Fig. 2(a) shows topology rankings
/// persisting for stretches of epochs); with persistent phases, a
/// decision learned from the last epoch's footprints is still valid in
/// the next one — the premise of epoch-based adaptation.
const PHASE_RHO: f64 = 0.7;
/// Per-epoch warm-window turnover (fraction of `W3`).
const WARM_TURNOVER: f64 = 0.125;
/// Ring size multiplier over the L3 slice size for private address spaces.
const RING_FACTOR: u64 = 8;

/// A divisor that stays fixed while many remainders are taken by it,
/// with the multiplier that takes them without a hardware division: the
/// direct remainder of Lemire, Kaser and Kurz ("Faster Remainder by
/// Direct Computation", 2019), `((M·a mod 2^64)·d) >> 64` with
/// `M = ⌊(2^64 − 1)/d⌋ + 1`. The formula is exact while `a` and `d` are
/// below 2^32; larger operands take the hardware remainder.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    m: u64,
}

impl Divisor {
    /// Precomputes the multiplier of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    fn new(d: u64) -> Self {
        Self {
            d,
            m: (u64::MAX / d).wrapping_add(1),
        }
    }

    /// `a % d`.
    #[inline]
    fn rem(self, a: u64) -> u64 {
        if (a | self.d) >> 32 == 0 {
            let low = self.m.wrapping_mul(a);
            ((u128::from(low) * u128::from(self.d)) >> 64) as u64
        } else {
            a % self.d
        }
    }
}

/// The synthetic phased working-set stream. See the module docs.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    profile: BenchmarkProfile,
    config: StreamConfig,
    rng: Xoshiro256pp,
    // Address bases (line-granular).
    private_base: u64,
    shared_base: u64,
    stream_base: u64,
    ring: Divisor,
    // Spatial (per-thread, fixed) factors.
    fs2: f64,
    fs3: f64,
    // Temporal phase factors (AR(1) state).
    ft2: f64,
    ft3: f64,
    // Current-epoch region geometry (private). Each size `next_access`
    // takes a remainder by is a `Divisor`, replaced whenever it changes.
    hot_size: Divisor,
    /// The hot core: the first eighth of the hot window.
    hot_core: Divisor,
    warm_size: Divisor,
    hot_off: u64,
    warm_off: u64,
    // Shared region geometry (constant; common to all threads of the app).
    shared_hot: Divisor,
    /// The first eighth of the shared hot region.
    shared_core: Divisor,
    shared_warm: Divisor,
    sharing_p8: u64,
    stream_ptr: u64,
    warm_ptr: u64,
    epoch: u64,
    // Selector thresholds in 16-bit fixed point: [0, hot_core) -> core,
    // [hot_core, hot) -> hot tail, [hot, hot+warm) -> warm, rest cold.
    p16_hot_core: u64,
    p16_hot: u64,
    p16_warm_end: u64,
}

impl SyntheticStream {
    /// Creates a stream for `profile` with the given placement.
    pub fn new(profile: BenchmarkProfile, config: StreamConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(
            config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((config.app_id as u64) << 20)
                .wrapping_add(config.thread as u64),
        );
        // Spatial factors: fixed per thread, unit mean, σ_s/acf relative
        // deviation so the measured per-thread ACFs spread by σ_s.
        let (fs2, fs3) = if config.n_threads > 1 {
            (
                phase_factor(&mut rng, profile.l2_sigma_s / profile.l2_acf),
                phase_factor(&mut rng, profile.l3_sigma_s / profile.l3_acf),
            )
        } else {
            (1.0, 1.0)
        };
        let ring = Divisor::new(RING_FACTOR * config.l3_slice_lines);
        let shared_hot = sized(
            profile.sharing
                * if profile.l2_high() {
                    config.l2_slice_lines as f64 / profile.l2_acf
                } else {
                    profile.l2_acf * config.l2_slice_lines as f64
                },
        );
        let shared_warm = sized(
            profile.sharing
                * if profile.l3_high() {
                    config.l3_slice_lines as f64 / profile.l3_acf
                } else {
                    profile.l3_acf * config.l3_slice_lines as f64
                },
        );
        let app = (config.app_id as u64 + 1) << 40;
        let mut s = Self {
            profile,
            config,
            rng,
            private_base: app | ((config.thread as u64 + 1) << 28),
            shared_base: app | (0xFF << 28),
            stream_base: app | ((config.thread as u64 + 1) << 28) | (1 << 27),
            ring,
            fs2,
            fs3,
            ft2: 1.0,
            ft3: 1.0,
            // Placeholders until `redraw_regions` below.
            hot_size: Divisor::new(1),
            hot_core: Divisor::new(1),
            warm_size: Divisor::new(1),
            hot_off: 0,
            warm_off: 0,
            shared_hot: Divisor::new(shared_hot),
            shared_core: Divisor::new((shared_hot / 8).max(1)),
            shared_warm: Divisor::new(shared_warm),
            sharing_p8: (profile.sharing * 256.0) as u64,
            stream_ptr: 0,
            warm_ptr: 0,
            epoch: 0,
            p16_hot_core: 0,
            p16_hot: 0,
            p16_warm_end: 0,
        };
        let cold = P_COLD_BASE + P_COLD_SLOPE * (0.5 - profile.l3_acf).max(0.0);
        let hot = 1.0 - P_WARM - cold;
        s.p16_hot_core = (hot * P_CORE_OF_HOT * 65536.0) as u64;
        s.p16_hot = (hot * 65536.0) as u64;
        s.p16_warm_end = ((hot + P_WARM) * 65536.0) as u64;
        s.redraw_regions();
        s
    }

    /// Current hot (L2-level) footprint in lines, including the shared
    /// portion. Exposed for calibration tests.
    pub fn hot_footprint(&self) -> u64 {
        self.hot_size.d + self.shared_hot.d
    }

    /// Current warm (L3-level) footprint in lines, including the shared
    /// portion.
    pub fn warm_footprint(&self) -> u64 {
        self.warm_size.d + self.shared_warm.d
    }

    fn redraw_regions(&mut self) {
        let p = &self.profile;
        // Temporal factors: unit-mean AR(1) processes whose stationary
        // deviation matches the published σ_t (relative to the mean ACF).
        let step = |state: f64, rel_sigma: f64, rng: &mut Xoshiro256pp| -> f64 {
            let innovation = rel_sigma * (1.0 - PHASE_RHO * PHASE_RHO).sqrt();
            (1.0 + PHASE_RHO * (state - 1.0) + innovation * standard_normal(rng)).max(0.2)
        };
        self.ft2 = step(self.ft2, p.l2_sigma_t / p.l2_acf, &mut self.rng);
        self.ft3 = step(self.ft3, p.l3_sigma_t / p.l3_acf, &mut self.rng);
        let (ft2, ft3) = (self.ft2, self.ft3);
        // ACF-to-footprint inversion. The measured active footprint of a
        // region of W lines in a slice of C lines is ≈ min(W, C·C/W)/C:
        // a fitting region is fully active, an overflowing one thrashes
        // and only the C/W resident-and-reused fraction is active. The
        // paper's class labels resolve the ambiguity (classes 2/3 are
        // "high L2", classes 1/3 "high L3"): a *high* ACF `a` comes from
        // an overflowing region of C/a lines, a *low* one from a fitting
        // region of a·C lines. Overflow is what makes capacity sharing
        // (and therefore topology choice) matter.
        let demand = |acf: f64, high: bool, slice_lines: u64| -> f64 {
            if high {
                slice_lines as f64 / acf
            } else {
                acf * slice_lines as f64
            }
        };
        let d2 = demand(p.l2_acf, p.l2_high(), self.config.l2_slice_lines);
        // Streamers walk an overflow-sized L3 region regardless of their
        // (low) published L3 ACF: the ACF is the active fraction of a
        // far larger footprint (see `BenchmarkProfile::streamer`).
        let d3 = demand(
            p.l3_acf,
            p.l3_high() || p.streamer,
            self.config.l3_slice_lines,
        );
        let private2 = (1.0 - p.sharing) * d2 * self.fs2 * ft2;
        let private3 = (1.0 - p.sharing) * d3 * self.fs3 * ft3;
        let hot = sized(private2);
        let warm = sized(private3).max(hot + hot / 4);
        self.hot_size = Divisor::new(hot);
        self.hot_core = Divisor::new((hot / 8).max(1));
        self.warm_size = Divisor::new(warm);
        // Windows drift so prior-epoch data goes stale.
        self.hot_off = (self.hot_off + (HOT_TURNOVER * hot as f64) as u64) % self.ring.d;
        self.warm_off = (self.warm_off + (WARM_TURNOVER * warm as f64) as u64) % self.ring.d;
    }
}

/// Draws `max(0.2, 1 + relative_sigma * z)` with `z ~ N(0,1)`.
fn phase_factor(rng: &mut Xoshiro256pp, relative_sigma: f64) -> f64 {
    (1.0 + relative_sigma * standard_normal(rng)).max(0.2)
}

/// Box–Muller standard normal from two uniform draws.
fn standard_normal(rng: &mut Xoshiro256pp) -> f64 {
    let u1 = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn sized(lines: f64) -> u64 {
    (lines.max(1.0)) as u64
}

impl AccessStream for SyntheticStream {
    fn next_access(&mut self) -> Access {
        let v = self.rng.next_u64();
        let sel = v & 0xFFFF;
        let is_write = ((v >> 16) & 0b11) == 0; // 25% stores
        let to_shared = ((v >> 18) & 0xFF) < self.sharing_p8;
        let off = v >> 32;
        let line = if sel < self.p16_hot {
            // Skewed locality: part of the hot draws go to the hot core.
            let core = sel < self.p16_hot_core;
            if to_shared {
                let span = if core {
                    self.shared_core
                } else {
                    self.shared_hot
                };
                self.shared_base + span.rem(off)
            } else {
                let span = if core { self.hot_core } else { self.hot_size };
                self.private_base + self.ring.rem(self.warm_off + self.hot_off + span.rem(off))
            }
        } else if sel < self.p16_warm_end {
            if to_shared {
                self.shared_base + self.shared_warm.rem(off)
            } else {
                // The warm (L3-level) region alternates between a cyclic
                // walk and uniform re-draws. The walk gives the region a
                // long reuse distance (no L2-level reuse — the
                // low-L2/high-L3 signature of Table 4) and LRU-hostile
                // pressure when the region overflows; the uniform half
                // smooths the hit-rate-vs-capacity curve so partial
                // capacity yields partial reuse, as real miss-rate curves
                // do.
                let walk = (v >> 26) & 1 == 0;
                let idx = if walk {
                    self.warm_ptr = self.warm_size.rem(self.warm_ptr + 1);
                    self.warm_ptr
                } else {
                    self.warm_size.rem(off)
                };
                self.private_base + self.ring.rem(self.warm_off + idx)
            }
        } else {
            self.stream_ptr += 1;
            self.stream_base + self.stream_ptr
        };
        Access { line, is_write }
    }

    fn advance_epoch(&mut self) {
        self.epoch += 1;
        self.redraw_regions();
    }

    fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsec;
    use crate::spec;
    use std::collections::BTreeSet;

    fn unique_lines(s: &mut SyntheticStream, n: usize) -> BTreeSet<u64> {
        (0..n).map(|_| s.next_access().line).collect()
    }

    #[test]
    fn direct_remainder_equals_the_hardware_remainder() {
        let check = |a: u64, d: u64| assert_eq!(Divisor::new(d).rem(a), a % d, "{a} % {d}");
        // The edges of the exact range, and operands past it (the
        // hardware fallback).
        let big = [1 << 32, (1 << 32) + 1, 1 << 63, u64::MAX];
        for d in [1, 2, 3, 7, 1 << 31, (1 << 32) - 1].into_iter().chain(big) {
            for a in [0, 1, d - 1, d, (1 << 32) - 1].into_iter().chain(big) {
                check(a, d);
            }
        }
        // Random pairs at every operand width.
        let mut rng = morphcache::Xoshiro256pp::seed_from_u64(0xD1_5011);
        for _ in 0..200_000 {
            let d = (rng.next_u64() >> rng.range_u32(0, 64)).max(1);
            let a = rng.next_u64() >> rng.range_u32(0, 64);
            check(a, d);
            check(a >> 32, (d >> 32) | 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = spec::profile("gcc").unwrap();
        let mut a = SyntheticStream::new(p, StreamConfig::single_threaded(0, 1));
        let mut b = SyntheticStream::new(p, StreamConfig::single_threaded(0, 1));
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = spec::profile("gcc").unwrap();
        let mut a = SyntheticStream::new(p, StreamConfig::single_threaded(0, 1));
        let mut b = SyntheticStream::new(p, StreamConfig::single_threaded(0, 2));
        let same = (0..100)
            .filter(|_| a.next_access() == b.next_access())
            .count();
        assert!(same < 10);
    }

    #[test]
    fn footprint_follows_acf_branch() {
        // Low-L2-ACF benchmarks get fitting hot regions (acf * C); high
        // ones get overflowing regions (C / acf) so capacity sharing
        // matters (see redraw_regions).
        for (name, lo, hi) in [
            ("hmmer", 0.31 * 4096.0 * 0.4, 0.31 * 4096.0 * 2.0), // fitting
            ("libquantum", 0.26 * 4096.0 * 0.4, 0.26 * 4096.0 * 2.0), // fitting
            ("cactusADM", 4096.0, 4096.0 / 0.74 * 2.0),          // overflow
        ] {
            let p = spec::profile(name).unwrap();
            let s = SyntheticStream::new(p, StreamConfig::single_threaded(0, 7));
            let hot = s.hot_footprint() as f64;
            assert!(
                hot > lo && hot < hi,
                "{name}: hot {hot} not in ({lo}, {hi})"
            );
        }
    }

    #[test]
    fn warm_footprint_exceeds_hot() {
        for p in spec::SPEC_PROFILES {
            let s = SyntheticStream::new(p, StreamConfig::single_threaded(0, 3));
            assert!(s.warm_footprint() > s.hot_footprint() / 2, "{}", p.name);
        }
    }

    #[test]
    fn address_spaces_are_disjoint_across_apps() {
        let p = spec::profile("mcf").unwrap();
        let mut a = SyntheticStream::new(p, StreamConfig::single_threaded(0, 5));
        let mut b = SyntheticStream::new(p, StreamConfig::single_threaded(1, 5));
        let la = unique_lines(&mut a, 5000);
        let lb = unique_lines(&mut b, 5000);
        assert!(la.is_disjoint(&lb));
    }

    #[test]
    fn threads_of_one_app_share_lines() {
        let p = parsec::profile("dedup").unwrap();
        let mut t0 = SyntheticStream::new(p, StreamConfig::thread_of(0, 0, 16, 5));
        let mut t1 = SyntheticStream::new(p, StreamConfig::thread_of(0, 1, 16, 5));
        let l0 = unique_lines(&mut t0, 20_000);
        let l1 = unique_lines(&mut t1, 20_000);
        let common = l0.intersection(&l1).count();
        assert!(
            common > 100,
            "dedup threads must share data, common={common}"
        );
        // Low-sharing benchmark shares much less.
        let p2 = parsec::profile("blackscholes").unwrap();
        let mut u0 = SyntheticStream::new(p2, StreamConfig::thread_of(1, 0, 16, 5));
        let mut u1 = SyntheticStream::new(p2, StreamConfig::thread_of(1, 1, 16, 5));
        let m0 = unique_lines(&mut u0, 20_000);
        let m1 = unique_lines(&mut u1, 20_000);
        let common2 = m0.intersection(&m1).count();
        assert!(common2 < common, "blackscholes {common2} vs dedup {common}");
    }

    #[test]
    fn epochs_shift_the_working_set() {
        let p = spec::profile("bzip2").unwrap();
        let mut s = SyntheticStream::new(p, StreamConfig::single_threaded(0, 11));
        let before = unique_lines(&mut s, 30_000);
        for _ in 0..8 {
            s.advance_epoch();
        }
        let after = unique_lines(&mut s, 30_000);
        let overlap = before.intersection(&after).count() as f64 / after.len() as f64;
        assert!(overlap < 0.9, "working set must drift, overlap={overlap}");
    }

    #[test]
    fn temporal_variation_scales_with_sigma_t() {
        // bzip2 (σ_t = 0.18) must show more epoch-to-epoch footprint
        // variance than calculix (σ_t = 0.02).
        let spread = |name: &str| {
            let p = spec::profile(name).unwrap();
            let mut s = SyntheticStream::new(p, StreamConfig::single_threaded(0, 13));
            let mut sizes = Vec::new();
            for _ in 0..40 {
                sizes.push(s.hot_footprint() as f64);
                s.advance_epoch();
            }
            let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
            (sizes.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / sizes.len() as f64).sqrt()
                / mean
        };
        assert!(spread("bzip2") > spread("calculix"));
    }

    #[test]
    fn phases_are_persistent_not_white_noise() {
        // AR(1) phases: consecutive epochs' footprints correlate much more
        // strongly than epochs far apart — the property that makes
        // epoch-based adaptation worthwhile.
        let p = spec::profile("bzip2").unwrap(); // high sigma_t
        let mut s = SyntheticStream::new(p, StreamConfig::single_threaded(0, 21));
        let mut sizes = Vec::new();
        for _ in 0..200 {
            sizes.push(s.hot_footprint() as f64);
            s.advance_epoch();
        }
        let corr_at = |lag: usize| {
            let a: Vec<f64> = sizes[..sizes.len() - lag].to_vec();
            let b: Vec<f64> = sizes[lag..].to_vec();
            let ma = a.iter().sum::<f64>() / a.len() as f64;
            let mb = b.iter().sum::<f64>() / b.len() as f64;
            let num: f64 = a.iter().zip(&b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let da: f64 = a.iter().map(|x| (x - ma).powi(2)).sum::<f64>().sqrt();
            let db: f64 = b.iter().map(|y| (y - mb).powi(2)).sum::<f64>().sqrt();
            num / (da * db)
        };
        assert!(corr_at(1) > 0.4, "lag-1 autocorrelation {}", corr_at(1));
        assert!(corr_at(1) > corr_at(8) + 0.2, "phases must decay with lag");
    }

    #[test]
    fn streamers_get_overflow_warm_regions() {
        let libq = spec::profile("libquantum").unwrap();
        assert!(libq.streamer);
        let s = SyntheticStream::new(libq, StreamConfig::single_threaded(0, 9));
        // Warm footprint of a streamer exceeds one L3 slice by far.
        assert!(
            s.warm_footprint() > 16384,
            "streamer warm = {}",
            s.warm_footprint()
        );
        // A non-streamer low-L3 benchmark stays within its slice.
        let perl = spec::profile("perlbench").unwrap();
        assert!(!perl.streamer);
        let s2 = SyntheticStream::new(perl, StreamConfig::single_threaded(0, 9));
        assert!(
            s2.warm_footprint() < 16384,
            "fitting warm = {}",
            s2.warm_footprint()
        );
    }

    #[test]
    fn write_fraction_near_quarter() {
        let p = spec::profile("astar").unwrap();
        let mut s = SyntheticStream::new(p, StreamConfig::single_threaded(0, 17));
        let writes = (0..40_000).filter(|_| s.next_access().is_write).count();
        let frac = writes as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn cold_stream_is_sequential_and_fresh() {
        let p = spec::profile("libquantum").unwrap();
        let mut s = SyntheticStream::new(p, StreamConfig::single_threaded(0, 19));
        let mut seen = BTreeSet::new();
        let mut cold = Vec::new();
        for _ in 0..100_000 {
            let a = s.next_access();
            if a.line & (1 << 27) != 0 {
                cold.push(a.line);
            }
            seen.insert(a.line);
        }
        assert!(!cold.is_empty());
        // Cold lines strictly increase (sequential compulsory stream).
        assert!(cold.windows(2).all(|w| w[1] > w[0]));
    }
}
