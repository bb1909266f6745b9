//! System-level run configuration.

use morph_cache::{HierarchyParams, MAX_CORES};
use morph_cpu::CoreParams;
use morphcache::MorphError;

/// Everything needed to construct and drive one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Cache hierarchy geometry and latencies.
    pub hierarchy: HierarchyParams,
    /// Core timing parameters.
    pub core: CoreParams,
    /// Cycles per epoch (the paper's reconfiguration interval is 300 M
    /// cycles; runs here scale it down, which changes noise, not the
    /// normalized results — see DESIGN.md).
    pub epoch_cycles: u64,
    /// Number of epochs (the paper's region of interest is 20 intervals).
    pub n_epochs: usize,
    /// Scheduler interleaving quantum in cycles.
    pub quantum: u64,
    /// Warm-up epochs run (and reconfigured on) before measurement starts
    /// — the paper measures a "region of interest in a warmed up cache".
    pub warmup_epochs: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's configuration for `n_cores` cores: full Table 3 cache
    /// geometry and 20 measured epochs of 4 M cycles (the paper's 300 M
    /// cycles scaled down 75×) after 2 warm-up epochs.
    pub fn paper(n_cores: usize) -> Self {
        Self {
            hierarchy: HierarchyParams::paper(n_cores),
            core: CoreParams::paper(),
            epoch_cycles: 4_000_000,
            n_epochs: 20,
            quantum: 2_000,
            warmup_epochs: 2,
            seed: 0xC0FFEE,
        }
    }

    /// The CLI experiment preset behind `--cores {16, 64, 256, 1024}`:
    /// the paper geometry at `n_cores` with the epoch length scaled
    /// inversely with the core count, so the per-epoch work (cores ×
    /// cycles) — and hence a full policy matrix — stays tractable at
    /// 1024 cores. At 16 cores this is the CLI's historical default
    /// (1.5 M-cycle epochs) exactly; per-core stream/seed derivation is
    /// untouched at every scale.
    pub fn preset(n_cores: usize) -> Self {
        let scale = (n_cores / 16).max(1) as u64;
        let mut cfg = Self::paper(n_cores);
        cfg.epoch_cycles = (1_500_000 / scale).max(4 * cfg.quantum);
        cfg
    }

    /// A fast small configuration for unit/integration tests: 1/8-scale
    /// caches, short epochs.
    pub fn quick_test(n_cores: usize) -> Self {
        Self {
            hierarchy: HierarchyParams::scaled_down(n_cores),
            core: CoreParams::paper(),
            epoch_cycles: 400_000,
            n_epochs: 4,
            quantum: 1_000,
            warmup_epochs: 1,
            seed: 0xC0FFEE,
        }
    }

    /// Number of cores (== slices per level).
    pub fn n_cores(&self) -> usize {
        self.hierarchy.n_cores
    }

    /// Lines per L2 slice (the ACF calibration basis for streams and the
    /// decision-ACFV sizing).
    pub fn l2_slice_lines(&self) -> usize {
        self.hierarchy.l2_slice.lines()
    }

    /// Lines per L3 slice.
    pub fn l3_slice_lines(&self) -> usize {
        self.hierarchy.l3_slice.lines()
    }

    /// Returns a copy with a different seed (for replicated runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different epoch count.
    pub fn with_epochs(mut self, n: usize) -> Self {
        self.n_epochs = n;
        self
    }

    /// Returns a copy with a different epoch length in cycles.
    pub fn with_epoch_cycles(mut self, cycles: u64) -> Self {
        self.epoch_cycles = cycles;
        self
    }

    /// Rejects configurations the simulator cannot run: a zero-length
    /// epoch, a zero or epoch-exceeding scheduler quantum, no measured
    /// epochs, a core/slice count that is zero, not a power of two
    /// (buddy merging needs power-of-two groups) or above [`MAX_CORES`]
    /// (caches store owners as 2-byte core ids), or cache geometry whose
    /// sets/ways/block size fail the power-of-two indexing invariants.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] naming the offending field
    /// and the violated constraint.
    pub fn validate(&self) -> Result<(), MorphError> {
        let field = |field, value: u64, constraint| {
            Err(MorphError::InvalidConfig {
                field,
                value,
                constraint,
            })
        };
        if self.epoch_cycles == 0 {
            return field("epoch_cycles", 0, "must be nonzero");
        }
        if self.quantum == 0 {
            return field("quantum", 0, "must be nonzero");
        }
        if self.quantum > self.epoch_cycles {
            return field("quantum", self.quantum, "must not exceed epoch_cycles");
        }
        if self.n_epochs == 0 {
            return field("n_epochs", 0, "must be nonzero");
        }
        let n = self.hierarchy.n_cores;
        if n == 0 || !n.is_power_of_two() {
            return field("n_cores", n as u64, "must be a nonzero power of two");
        }
        if n > MAX_CORES {
            return field("n_cores", n as u64, "must not exceed 65536");
        }
        self.hierarchy.l1.validate("l1")?;
        self.hierarchy.l2_slice.validate("l2_slice")?;
        self.hierarchy.l3_slice.validate("l3_slice")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let c = SystemConfig::paper(16);
        assert_eq!(c.n_cores(), 16);
        assert_eq!(c.l2_slice_lines(), 4096);
        assert_eq!(c.l3_slice_lines(), 16384);
        assert_eq!(c.n_epochs, 20);
        assert_eq!(c.warmup_epochs, 2);
    }

    #[test]
    fn builders() {
        let c = SystemConfig::quick_test(4).with_seed(9).with_epochs(3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.n_epochs, 3);
    }

    #[test]
    fn validate_accepts_stock_configs() {
        assert!(SystemConfig::paper(16).validate().is_ok());
        assert!(SystemConfig::quick_test(4).validate().is_ok());
    }

    #[test]
    fn presets_scale_epoch_length_with_core_count() {
        // 16 cores: the CLI's historical 1.5 M-cycle default.
        let c16 = SystemConfig::preset(16);
        assert_eq!(c16.epoch_cycles, 1_500_000);
        for n in [64usize, 256, 1024] {
            let c = SystemConfig::preset(n);
            assert_eq!(c.n_cores(), n);
            assert_eq!(c.epoch_cycles, 1_500_000 * 16 / n as u64);
            assert!(c.validate().is_ok(), "preset({n}) must validate");
        }
        // Per-epoch work (cores × cycles) stays within one quantum of
        // constant across the scale sweep (integer division rounds down).
        let w16 = 16 * c16.epoch_cycles;
        let w1024 = 1024 * SystemConfig::preset(1024).epoch_cycles;
        assert!(w16 - w1024 < 1024 * 2_000, "w16={w16} w1024={w1024}");
    }

    #[test]
    fn validate_rejects_impossible_configs() {
        let reject = |f: &dyn Fn(&mut SystemConfig), expect_field: &str| {
            let mut c = SystemConfig::quick_test(4);
            f(&mut c);
            match c.validate() {
                Err(MorphError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, expect_field);
                }
                other => panic!("expected InvalidConfig({expect_field}), got {other:?}"),
            }
        };
        reject(&|c| c.epoch_cycles = 0, "epoch_cycles");
        reject(&|c| c.quantum = 0, "quantum");
        reject(&|c| c.quantum = c.epoch_cycles + 1, "quantum");
        reject(&|c| c.n_epochs = 0, "n_epochs");
        reject(&|c| c.hierarchy.n_cores = 0, "n_cores");
        reject(&|c| c.hierarchy.n_cores = 3, "n_cores");
        reject(&|c| c.hierarchy.n_cores = MAX_CORES * 2, "n_cores");
    }
}
