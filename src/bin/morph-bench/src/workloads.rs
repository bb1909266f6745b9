//! The four pinned 16-core workloads.
//!
//! All run the paper's Table 3 geometry at the CLI's 16-core preset
//! (`SystemConfig::preset(16)`: 1.5 M-cycle epochs, 2 warm-up + 20
//! measured epochs). The epoch length is the one `morph run` and
//! `morph matrix` use at 16 cores, and it is short enough that a run takes
//! 1-4 s, so one `--seconds 30` measurement holds at least five fresh
//! runs of every workload.

use morph_system::prelude::*;
use morphcache::rng::splitmix64;

/// The seed every workload uses unless `--seed` overrides it.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The workload seed of run `i` of a measurement at `seed`: `seed`
/// itself for the first run, then a SplitMix64 sequence started from it.
///
/// The seed moves a MorphCache run's merge decisions, and a sampled
/// run's skip count, and with them its speed by up to ±25%; giving every
/// run its own input keeps one seed's luck out of a measurement's median.
pub fn input(seed: u64, i: usize) -> u64 {
    let mut state = seed;
    (0..i).fold(seed, |_, _| splitmix64(&mut state))
}

/// How a workload is driven through the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `SystemSim::run`: every epoch in full detail.
    Full,
    /// `run_sampled` with `SamplingConfig::default()`.
    Sampled,
}

/// One pinned workload.
pub struct Pinned {
    pub name: &'static str,
    pub why: &'static str,
    pub drive: Drive,
    /// FNV-1a digest of the run's results at [`DEFAULT_SEED`] (see
    /// `run::digest`). A simulator change that moves any result moves it.
    pub digest: u64,
    workload: fn() -> Result<Workload, String>,
    policy: fn(&SystemConfig) -> Result<Policy, String>,
}

/// A workload resolved at one seed: everything that determines the run.
pub struct Spec {
    pub pinned: &'static Pinned,
    pub cfg: SystemConfig,
    pub workload: Workload,
    pub policy: Policy,
}

fn morph(cfg: &SystemConfig) -> Result<Policy, String> {
    Ok(Policy::morph(cfg))
}

pub const WORKLOADS: &[Pinned] = &[
    Pinned {
        name: "mp16_morph",
        why: "Table 5 MIX 01 under MorphCache: merges, reconfigurations and ACFV events on every hit and evict",
        drive: Drive::Full,
        digest: 0xfc43_6203_757d_119e,
        workload: || Workload::mix(1),
        policy: morph,
    },
    Pinned {
        name: "mp16_private",
        why: "MIX 01 on static (1:1:16): no merged group, index, engine or reconfiguration; the control",
        drive: Drive::Full,
        digest: 0x1c14_9f50_e0b8_ff8d,
        workload: || Workload::mix(1),
        policy: |_| {
            SymmetricTopology::parse("1:1:16", 16)
                .map(Policy::Static)
                .map_err(|e| e.to_string())
        },
    },
    Pinned {
        name: "parsec16_morph",
        why: "16-thread PARSEC canneal under MorphCache: heavy sharing, remote hits, frequent regrouping",
        drive: Drive::Full,
        digest: 0x44ee_9337_3ce2_29ba,
        workload: || Workload::parsec("canneal"),
        policy: morph,
    },
    Pinned {
        name: "mp16_sampled",
        why: "MIX 01 under MorphCache through run_sampled: phase skipping and fast-forward warm-up",
        drive: Drive::Sampled,
        digest: 0xad4a_3d67_af17_4685,
        workload: || Workload::mix(1),
        policy: morph,
    },
];

/// The pinned workload called `name`.
pub fn find(name: &str) -> Option<&'static Pinned> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Pinned {
    /// Resolves the workload at `seed`.
    pub fn spec(&'static self, seed: u64) -> Result<Spec, String> {
        let cfg = SystemConfig::preset(16).with_seed(seed);
        Ok(Spec {
            pinned: self,
            cfg,
            workload: (self.workload)()?,
            policy: (self.policy)(&cfg)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_start_at_the_seed_and_repeat_per_seed() {
        assert_eq!(input(7, 0), 7);
        let run: Vec<u64> = (0..8).map(|i| input(7, i)).collect();
        assert_eq!(run, (0..8).map(|i| input(7, i)).collect::<Vec<_>>());
        let mut distinct = run.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), run.len());
        assert_ne!(input(8, 1), input(7, 1));
    }

    #[test]
    fn every_workload_resolves_on_the_paper_die() {
        for w in WORKLOADS {
            let spec = w.spec(DEFAULT_SEED).unwrap();
            assert_eq!(spec.cfg.n_cores(), 16, "{}", w.name);
            assert_eq!((spec.cfg.warmup_epochs, spec.cfg.n_epochs), (2, 20));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
