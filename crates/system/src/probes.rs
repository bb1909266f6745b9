//! Cache-event probes: the engine adapter plus measurement sinks used by
//! the Table 4 and Fig. 5 experiments.

use morph_cache::{CacheEventSink, CoreId, Level, Line, SliceId};
use morphcache::{Acfv, CacheLevelId, ExactFootprint, HashKind, MorphEngine};

fn map_level(level: Level) -> Option<CacheLevelId> {
    match level {
        Level::L1 => None,
        Level::L2 => Some(CacheLevelId::L2),
        Level::L3 => Some(CacheLevelId::L3),
    }
}

/// Routes hierarchy events into a [`MorphEngine`]'s ACFVs, then on to
/// an external probe.
///
/// The engine sees every line XOR-ed with `mask` — the ACFV-corruption
/// fault of [`crate::faults`]; a mask of 0 is the identity — while the
/// probe always sees the clean line. The engine is fed first.
pub struct EngineSink<'a> {
    engine: &'a mut MorphEngine,
    mask: u64,
    probe: &'a mut dyn CacheEventSink,
}

impl<'a> EngineSink<'a> {
    /// Feeds `engine` (lines XOR-ed with `mask`) and `probe` (clean
    /// lines) for the duration of an access.
    pub fn new(engine: &'a mut MorphEngine, mask: u64, probe: &'a mut dyn CacheEventSink) -> Self {
        Self {
            engine,
            mask,
            probe,
        }
    }
}

impl CacheEventSink for EngineSink<'_> {
    fn inserted(&mut self, level: Level, slice: SliceId, owner: CoreId, line: Line) {
        // One-shot fills are not "active use": a bit is set only when a
        // resident line is *hit* (touched) and cleared on eviction, so the
        // ACFV tracks the actively reused footprint — the paper's stated
        // intent for the per-interval reset ("the data that is actively
        // being used", §2.1). Counting fills as well would saturate every
        // L2 vector with flow-through traffic bound for larger L3
        // footprints. So fills reach the probe only.
        self.probe.inserted(level, slice, owner, line);
    }

    fn evicted(&mut self, level: Level, slice: SliceId, owner: CoreId, line: Line) {
        if let Some(l) = map_level(level) {
            self.engine.on_evicted(l, slice, owner, line ^ self.mask);
        }
        self.probe.evicted(level, slice, owner, line);
    }

    fn touched(&mut self, level: Level, slice: SliceId, core: CoreId, line: Line) {
        if let Some(l) = map_level(level) {
            self.engine.on_touched(l, slice, core, line ^ self.mask);
        }
        self.probe.touched(level, slice, core, line);
    }
}

/// Oracle footprint probe: exact per-core distinct-line sets at L2 and L3
/// (ignoring which slice served them), reset per epoch. A line is counted
/// when it is *hit* at the level (actively reused) and dropped when
/// evicted, matching the engine's ACFV semantics. This regenerates the
/// Table 4 characterization.
#[derive(Debug, Clone)]
pub struct FootprintProbe {
    l2: Vec<ExactFootprint>,
    l3: Vec<ExactFootprint>,
}

impl FootprintProbe {
    /// Creates a probe for `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        Self {
            l2: (0..n_cores).map(|_| ExactFootprint::new()).collect(),
            l3: (0..n_cores).map(|_| ExactFootprint::new()).collect(),
        }
    }

    /// Takes the per-core footprints as ACF fractions of one slice, then
    /// resets for the next epoch. `l2_lines`/`l3_lines` are the lines per
    /// slice at each level.
    pub fn take_epoch(&mut self, l2_lines: usize, l3_lines: usize) -> (Vec<f64>, Vec<f64>) {
        let l2: Vec<f64> = self
            .l2
            .iter()
            .map(|f| f.len() as f64 / l2_lines as f64)
            .collect();
        let l3: Vec<f64> = self
            .l3
            .iter()
            .map(|f| f.len() as f64 / l3_lines as f64)
            .collect();
        for f in self.l2.iter_mut().chain(self.l3.iter_mut()) {
            f.reset();
        }
        (l2, l3)
    }
}

impl CacheEventSink for FootprintProbe {
    fn inserted(&mut self, _level: Level, _slice: SliceId, _owner: CoreId, _line: Line) {}

    fn evicted(&mut self, level: Level, _slice: SliceId, owner: CoreId, line: Line) {
        match level {
            Level::L2 => self.l2[owner].record_evict(line),
            Level::L3 => self.l3[owner].record_evict(line),
            Level::L1 => {}
        }
    }

    fn touched(&mut self, level: Level, _slice: SliceId, core: CoreId, line: Line) {
        match level {
            Level::L2 => self.l2[core].record_insert(line),
            Level::L3 => self.l3[core].record_insert(line),
            Level::L1 => {}
        }
    }
}

/// Fig. 5 probe: feeds the L2 events of one core through ACFVs of several
/// lengths (and both hash functions) alongside the oracle, collecting one
/// sample per epoch.
#[derive(Debug, Clone)]
pub struct AcfvSweepProbe {
    core: CoreId,
    /// `(bits, hash, vector)` under test.
    vectors: Vec<(usize, HashKind, Acfv)>,
    oracle: ExactFootprint,
    /// Per-epoch estimates: `samples[i][e]` is vector `i`'s popcount at
    /// the end of epoch `e`.
    pub samples: Vec<Vec<f64>>,
    /// Per-epoch oracle footprints.
    pub oracle_samples: Vec<f64>,
}

impl AcfvSweepProbe {
    /// Creates a sweep over `bit_lengths × hashes` for `core`'s L2 events.
    pub fn new(core: CoreId, bit_lengths: &[usize], hashes: &[HashKind]) -> Self {
        let mut vectors = Vec::new();
        for &h in hashes {
            for &b in bit_lengths {
                vectors.push((b, h, Acfv::new(b, h)));
            }
        }
        let n = vectors.len();
        Self {
            core,
            vectors,
            oracle: ExactFootprint::new(),
            samples: vec![Vec::new(); n],
            oracle_samples: Vec::new(),
        }
    }

    /// The `(bits, hash)` identity of each tracked vector, in sample
    /// order.
    pub fn labels(&self) -> Vec<(usize, HashKind)> {
        self.vectors.iter().map(|&(b, h, _)| (b, h)).collect()
    }

    /// Closes an epoch: records one sample per vector and resets.
    pub fn end_epoch(&mut self) {
        for (i, (_, _, v)) in self.vectors.iter_mut().enumerate() {
            self.samples[i].push(v.popcount() as f64);
            v.reset();
        }
        self.oracle_samples.push(self.oracle.len() as f64);
        self.oracle.reset();
    }
}

impl CacheEventSink for AcfvSweepProbe {
    fn inserted(&mut self, _level: Level, _slice: SliceId, _owner: CoreId, _line: Line) {}

    fn evicted(&mut self, level: Level, _slice: SliceId, owner: CoreId, line: Line) {
        if level == Level::L2 && owner == self.core {
            for (_, _, v) in &mut self.vectors {
                v.record_evict(line);
            }
            self.oracle.record_evict(line);
        }
    }

    fn touched(&mut self, level: Level, _slice: SliceId, core: CoreId, line: Line) {
        if level == Level::L2 && core == self.core {
            for (_, _, v) in &mut self.vectors {
                v.record_insert(line);
            }
            self.oracle.record_insert(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_cache::events::RecordingSink;
    use morph_cache::NoopSink;
    use morphcache::MorphConfig;

    fn engine() -> MorphEngine {
        MorphEngine::new(4, (0..4).collect(), 128, 128, MorphConfig::paper()).unwrap()
    }

    #[test]
    fn engine_sink_routes_events() {
        let mut engine = engine();
        let mut noop = NoopSink;
        {
            let mut sink = EngineSink::new(&mut engine, 0, &mut noop);
            for i in 0..100u64 {
                sink.touched(Level::L2, 0, 0, i * 8191);
            }
            sink.touched(Level::L1, 0, 0, 1); // ignored
            sink.inserted(Level::L2, 0, 0, 77); // fills are ignored too
        }
        assert!(engine.group_utilization(CacheLevelId::L2, 0) > 0.3);
        assert_eq!(engine.group_utilization(CacheLevelId::L3, 0), 0.0);
    }

    #[test]
    fn footprint_probe_counts_distinct_lines() {
        let mut p = FootprintProbe::new(2);
        for i in 0..50u64 {
            p.touched(Level::L2, 0, 0, i);
            p.touched(Level::L2, 0, 0, i); // duplicates don't double-count
        }
        p.inserted(Level::L2, 0, 0, 99); // fills are not active use
        p.evicted(Level::L2, 0, 0, 0);
        let (l2, l3) = p.take_epoch(100, 100);
        assert!((l2[0] - 0.49).abs() < 1e-9);
        assert_eq!(l2[1], 0.0);
        assert_eq!(l3[0], 0.0);
        // Reset after take.
        let (l2b, _) = p.take_epoch(100, 100);
        assert_eq!(l2b[0], 0.0);
    }

    #[test]
    fn sweep_probe_tracks_multiple_lengths() {
        let mut p = AcfvSweepProbe::new(0, &[8, 128], &[HashKind::Xor, HashKind::Modulo]);
        assert_eq!(p.labels().len(), 4);
        for i in 0..60u64 {
            p.touched(Level::L2, 0, 0, i * 977);
        }
        // Another core's events are ignored.
        p.touched(Level::L2, 1, 1, 1234);
        p.end_epoch();
        assert_eq!(p.oracle_samples, vec![60.0]);
        // The 8-bit vector saturates at 8; the 128-bit one tracks better.
        let labels = p.labels();
        for (i, (bits, _)) in labels.iter().enumerate() {
            assert!(p.samples[i][0] <= *bits as f64);
        }
    }

    #[test]
    fn engine_sink_masks_engine_lines_and_passes_clean_lines_to_probe() {
        let mask = 0x5a5a;
        let lines: Vec<Line> = (0..64u64).map(|i| i * 977).collect();
        let (mut masked, mut direct, mut clean) = (engine(), engine(), engine());
        let mut probe = RecordingSink::default();
        {
            let mut sink = EngineSink::new(&mut masked, mask, &mut probe);
            for &line in &lines {
                sink.inserted(Level::L2, 0, 0, line);
                sink.touched(Level::L2, 0, 0, line);
                sink.evicted(Level::L3, 1, 1, line);
            }
        }
        for &line in &lines {
            direct.on_touched(CacheLevelId::L2, 0, 0, line ^ mask);
            direct.on_evicted(CacheLevelId::L3, 1, 1, line ^ mask);
            clean.on_touched(CacheLevelId::L2, 0, 0, line);
            clean.on_evicted(CacheLevelId::L3, 1, 1, line);
        }
        assert_eq!(format!("{masked:?}"), format!("{direct:?}"));
        assert_ne!(format!("{masked:?}"), format!("{clean:?}"));
        for events in [&probe.inserted, &probe.touched, &probe.evicted] {
            assert_eq!(events.iter().map(|e| e.3).collect::<Vec<_>>(), lines);
        }
    }
}
