//! One untraced run of a pinned workload through the simulator's own
//! entry points (`SystemSim::new`, then `SystemSim::run` or
//! `run_sampled`), and the result digest every run is checked by.

use crate::workloads::{Drive, Spec};
use morph_metrics::timing::Stopwatch;
use morph_system::prelude::*;

/// What one run returned, plus how long it took.
pub struct Outcome {
    /// The measured epochs the entry point returned.
    pub epochs: Vec<EpochResult>,
    /// Per measured epoch: simulated in full detail (always true for a
    /// full run).
    pub simulated: Vec<bool>,
    /// Phase leaders of a sampled run; the measured epoch count otherwise.
    pub phases: usize,
    pub setup_s: f64,
    pub run_s: f64,
}

impl Outcome {
    /// FNV-1a digest of the results (see [`digest`]).
    pub fn digest(&self) -> u64 {
        digest(&self.epochs, &self.simulated)
    }

    /// Σ accesses over the returned epochs (skipped epochs of a sampled
    /// run count their extrapolated accesses).
    pub fn accesses(&self) -> u64 {
        self.epochs.iter().map(|e| e.accesses).sum()
    }
}

/// Builds and runs `spec`, timing set-up and the run separately.
pub fn run(spec: &Spec) -> Result<Outcome, String> {
    let sw = Stopwatch::start();
    let mut sim =
        SystemSim::new(spec.cfg, &spec.workload, &spec.policy).map_err(|e| e.to_string())?;
    let setup_s = sw.elapsed_seconds();
    let sw = Stopwatch::start();
    let (epochs, simulated, phases) = match spec.pinned.drive {
        Drive::Full => {
            let epochs = sim.run().map_err(|e| e.to_string())?;
            let n = epochs.len();
            (epochs, vec![true; n], n)
        }
        Drive::Sampled => {
            let s = run_sampled(&mut sim, &SamplingConfig::default()).map_err(|e| e.to_string())?;
            (s.epochs, s.simulated, s.phases)
        }
    };
    let run_s = sw.elapsed_seconds();
    if let Some(h) = sim.hierarchy() {
        h.check_inclusion()?;
    }
    Ok(Outcome {
        epochs,
        simulated,
        phases,
        setup_s,
        run_s,
    })
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// FNV-1a over every field of every epoch result (floats by their bit
/// patterns, variable-length fields length-prefixed) and the sampled
/// flags. Identical results give identical digests on any host.
pub fn digest(epochs: &[EpochResult], simulated: &[bool]) -> u64 {
    let mut h = Fnv::new();
    h.u64(epochs.len() as u64);
    for e in epochs {
        h.u64(e.epoch);
        h.u64(e.ipcs.len() as u64);
        e.ipcs.iter().for_each(|x| h.u64(x.to_bits()));
        h.u64(e.misses_by_core.len() as u64);
        e.misses_by_core.iter().for_each(|&m| h.u64(m));
        h.u64(e.accesses);
        h.u64(e.accesses_by_core.len() as u64);
        e.accesses_by_core.iter().for_each(|&a| h.u64(a));
        h.u64(e.reconfig_events as u64);
        h.u64(e.asymmetric_events as u64);
        h.u64(u64::from(e.asymmetric));
        h.str(&e.l2_grouping);
        h.str(&e.l3_grouping);
        match &e.chosen_topology {
            Some(t) => {
                h.u64(1);
                h.str(t);
            }
            None => h.u64(0),
        }
    }
    h.u64(simulated.len() as u64);
    simulated.iter().for_each(|&s| h.u64(u64::from(s)));
    h.0
}

/// The process's peak resident set (`VmHWM`) in KiB; `None` where
/// `/proc` is unavailable.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch() -> EpochResult {
        EpochResult {
            epoch: 3,
            ipcs: vec![1.25, 0.5],
            misses_by_core: vec![10, 20],
            accesses: 300,
            accesses_by_core: vec![100, 200],
            reconfig_events: 2,
            asymmetric_events: 1,
            asymmetric: true,
            l2_grouping: "[0][1]".into(),
            l3_grouping: "[0-1]".into(),
            chosen_topology: None,
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_and_covers_every_field() {
        let base = digest(&[epoch()], &[true]);
        assert_eq!(base, digest(&[epoch()], &[true]), "deterministic");
        assert_eq!(
            base, 0x83ff_f992_7616_653c,
            "the digest function changed: re-pin the workload digests too"
        );
        let tweaks: [fn(&mut EpochResult); 11] = [
            |e| e.epoch += 1,
            |e| e.ipcs[0] = f64::from_bits(e.ipcs[0].to_bits() + 1),
            |e| e.misses_by_core[1] += 1,
            |e| e.accesses += 1,
            |e| e.accesses_by_core.swap(0, 1),
            |e| e.reconfig_events += 1,
            |e| e.asymmetric_events += 1,
            |e| e.asymmetric = false,
            |e| e.l2_grouping.push('x'),
            |e| e.l3_grouping.clear(),
            |e| e.chosen_topology = Some("(16:1:1)".into()),
        ];
        for (i, tweak) in tweaks.iter().enumerate() {
            let mut e = epoch();
            tweak(&mut e);
            assert_ne!(digest(&[e], &[true]), base, "field tweak {i} not covered");
        }
        assert_ne!(digest(&[epoch()], &[false]), base, "sampled flags covered");
        // Moving a grouping boundary between the two labels must change
        // the digest even though the concatenated text is the same.
        let mut e = epoch();
        e.l2_grouping = "[0][1][0".into();
        e.l3_grouping = "-1]".into();
        assert_ne!(digest(&[e], &[true]), base);
    }
}
