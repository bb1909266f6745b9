//! The traced run: the epoch loop rebuilt from the simulator's public
//! layer APIs, timed layer by layer from outside.
//!
//! A traced run first runs the workload untraced through its real entry
//! point (the reference), then drives a second copy epoch by epoch:
//! `backend::from_policy`, `Workload::streams`, `Core`,
//! `QuantumScheduler::run_epoch` with a recording `MemorySubsystem`,
//! `take_epoch_progress`, `epoch_boundary` and `advance_epoch`. Every
//! epoch result must equal the reference bit for bit. Epochs the
//! reference's sampler skipped are fast-forwarded the way `run_sampled`
//! does it: each stream draws its count, and the trailing warm-up share
//! goes straight to `MemoryBackend::access`.
//!
//! Each epoch's access buffer is replayed, then discarded, through
//!
//! * the streams alone (cloned at the epoch start), drawing the recorded
//!   per-core counts;
//! * a shadow `from_policy` backend kept in lockstep, followed by its
//!   epoch boundary;
//! * a clone of the shadow's `Hierarchy` with a `NoopSink`, so no engine
//!   or probe sees the events;
//! * the scheduler and cores (cloned at the epoch start), fed the
//!   recorded lines and latencies.
//!
//! Every replay asserts identical lines, latencies, misses and core
//! progress. No clock is read per access: each replay is one timed loop.

use crate::run::{self, Outcome};
use crate::workloads::Spec;
use morph_cache::{
    CacheEventSink, CoreId, Hierarchy, Level, Line, MemorySubsystem, NoopSink, SliceId,
};
use morph_cpu::{epoch_ipcs, take_epoch_progress, Core, CoreProgress, QuantumScheduler};
use morph_metrics::timing::Stopwatch;
use morph_system::prelude::*;
use morph_trace::stream::{Access, AccessStream, SyntheticStream};
use morph_trace::BenchmarkProfile;
use std::hint::black_box;

/// Metric values by name.
pub type Values = Vec<(&'static str, f64)>;

/// One access of the live epoch, as the backend served it.
#[derive(Debug, Clone, Copy)]
struct Rec {
    core: CoreId,
    line: Line,
    is_write: bool,
    latency: u64,
}

/// Latency a replayed memory returns once the replay has diverged; large,
/// so the diverged cores reach the end of the epoch quickly.
const DIVERGED_LATENCY: u64 = 1 << 20;

/// Forwards to the live backend and records every access.
struct Recorder<'a> {
    backend: &'a mut dyn MemoryBackend,
    n_cores: usize,
    log: &'a mut Vec<Rec>,
}

impl MemorySubsystem for Recorder<'_> {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        sink: &mut dyn CacheEventSink,
    ) -> u64 {
        let latency = self.backend.access(core, line, is_write, sink);
        self.log.push(Rec {
            core,
            line,
            is_write,
            latency,
        });
        latency
    }

    fn n_cores(&self) -> usize {
        self.n_cores
    }
}

/// Serves the recorded latencies in recorded order.
struct ReplayMemory<'a> {
    log: &'a [Rec],
    next: usize,
    n_cores: usize,
    diverged: bool,
}

impl MemorySubsystem for ReplayMemory<'_> {
    fn access(&mut self, core: CoreId, line: Line, _: bool, _: &mut dyn CacheEventSink) -> u64 {
        match self.log.get(self.next) {
            Some(r) if r.core == core && r.line == line => {
                self.next += 1;
                r.latency
            }
            _ => {
                self.diverged = true;
                DIVERGED_LATENCY
            }
        }
    }

    fn n_cores(&self) -> usize {
        self.n_cores
    }
}

/// Serves one core's recorded lines in order.
struct ReplayStream<'a> {
    lines: &'a [(Line, bool)],
    next: usize,
    profile: BenchmarkProfile,
}

impl AccessStream for ReplayStream<'_> {
    fn next_access(&mut self) -> Access {
        let (line, is_write) = self
            .lines
            .get(self.next)
            .copied()
            .unwrap_or((Line::MAX, false));
        self.next += 1;
        Access { line, is_write }
    }

    fn advance_epoch(&mut self) {}

    fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }
}

/// Counts the cache events of the live run.
#[derive(Debug, Default)]
struct EventCounts {
    inserted: u64,
    evicted: u64,
    touched: u64,
}

impl CacheEventSink for EventCounts {
    fn inserted(&mut self, _: Level, _: SliceId, _: CoreId, _: Line) {
        self.inserted += 1;
    }

    fn evicted(&mut self, _: Level, _: SliceId, _: CoreId, _: Line) {
        self.evicted += 1;
    }

    fn touched(&mut self, _: Level, _: SliceId, _: CoreId, _: Line) {
        self.touched += 1;
    }
}

/// Lookups, misses and remote hits of one groupable level.
#[derive(Debug, Default, Clone, Copy)]
struct LevelCounts {
    lookups: u64,
    misses: u64,
    remote_hits: u64,
}

impl LevelCounts {
    fn hit_ratio(&self) -> f64 {
        ratio(self.lookups - self.misses, self.lookups)
    }
}

/// The hierarchy's statistics, summed over every window between two
/// `reset_stats` calls.
#[derive(Debug, Default)]
struct CacheCounts {
    l1: LevelCounts,
    l2: LevelCounts,
    l3: LevelCounts,
    back_invalidations: u64,
    lazy_invalidations: u64,
    memory_writebacks: u64,
}

impl CacheCounts {
    fn add(&mut self, h: &Hierarchy) {
        self.l1.lookups += h.l1_stats.accesses;
        self.l1.misses += h.l1_stats.misses;
        for (counts, level) in [(&mut self.l2, h.l2()), (&mut self.l3, h.l3())] {
            counts.lookups += level.stats.accesses;
            counts.misses += level.stats.misses;
            for s in 0..level.n_slices() {
                let st = level.slice_stats(s);
                counts.remote_hits += st.remote_hits;
                self.back_invalidations += st.back_invalidations;
                self.lazy_invalidations += st.lazy_invalidations;
            }
        }
        for core in 0..h.params().n_cores {
            self.back_invalidations += h.l1(core).stats.back_invalidations;
        }
        self.memory_writebacks += h.memory_writebacks;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Times and counts accumulated over a traced run.
#[derive(Debug, Default)]
struct Tally {
    live_s: f64,
    draw_s: f64,
    cpu_s: f64,
    backend_s: f64,
    cache_s: f64,
    boundary_s: f64,
    draws: u64,
    backend_accesses: u64,
    instructions: u64,
    reconfig_events: u64,
    events: EventCounts,
    cache: CacheCounts,
}

/// What the live epoch boundary saw and did, for the shadow to match.
struct LiveBoundary<'a> {
    ipcs: &'a [f64],
    misses: &'a [u64],
    report: &'a BoundaryReport,
    labels: &'a (String, String),
}

/// The live copy, its lockstep shadow, and the current epoch's buffer.
struct Traced {
    cfg: SystemConfig,
    scheduler: QuantumScheduler,
    backend: Box<dyn MemoryBackend>,
    shadow: Box<dyn MemoryBackend>,
    cores: Vec<Core>,
    streams: Vec<SyntheticStream>,
    log: Vec<Rec>,
    /// The log split by core: each core's recorded (line, is_write).
    per_core: Vec<Vec<(Line, bool)>>,
    tally: Tally,
}

fn err(e: MorphError) -> String {
    e.to_string()
}

fn hierarchy(backend: &dyn MemoryBackend) -> Result<&Hierarchy, String> {
    backend
        .as_hierarchy()
        .ok_or_else(|| "the traced run needs a hierarchy backend".into())
}

/// Whether two hierarchies counted the same lookups, misses and
/// writebacks since their last `reset_stats`.
fn same_stats(a: &Hierarchy, b: &Hierarchy) -> bool {
    a.l1_stats == b.l1_stats
        && a.l2().stats == b.l2().stats
        && a.l3().stats == b.l3().stats
        && a.memory_writebacks == b.memory_writebacks
}

impl Traced {
    fn new(spec: &Spec) -> Result<Self, String> {
        let cfg = spec.cfg;
        let build = || from_policy(&cfg, &spec.workload, &spec.policy).map_err(err);
        Ok(Self {
            cfg,
            scheduler: QuantumScheduler::new(cfg.quantum),
            backend: build()?,
            shadow: build()?,
            cores: (0..cfg.n_cores()).map(|c| Core::new(c, cfg.core)).collect(),
            streams: spec.workload.streams(&cfg),
            log: Vec::new(),
            per_core: vec![Vec::new(); cfg.n_cores()],
            tally: Tally::default(),
        })
    }

    /// One epoch in full detail, then its replays.
    fn detailed(&mut self, epoch: u64) -> Result<EpochResult, String> {
        let cycles = self.cfg.epoch_cycles;
        let streams_before = self.streams.clone();
        let cores_before = self.cores.clone();
        // `begin_epoch` resets the hierarchy statistics: collect the
        // window that ends here first.
        self.tally.cache.add(hierarchy(&*self.backend)?);
        self.log.clear();
        let mut faults = NoFaults;
        let sw = Stopwatch::start();
        self.backend
            .begin_epoch(&mut EpochCtx {
                epoch,
                cycles,
                scheduler: self.scheduler,
                cores: &mut self.cores,
                streams: &mut self.streams,
                faults: &mut faults,
            })
            .map_err(err)?;
        let mut mem = Recorder {
            backend: self.backend.as_mut(),
            n_cores: self.cfg.n_cores(),
            log: &mut self.log,
        };
        self.scheduler.run_epoch(
            &mut self.cores,
            &mut self.streams,
            &mut mem,
            &mut self.tally.events,
            cycles,
        );
        let progress = take_epoch_progress(&mut self.cores);
        let ipcs = epoch_ipcs(&progress);
        let misses = self.backend.misses_by_core();
        let report = self
            .backend
            .epoch_boundary(
                &mut EpochCtx {
                    epoch,
                    cycles,
                    scheduler: self.scheduler,
                    cores: &mut self.cores,
                    streams: &mut self.streams,
                    faults: &mut faults,
                },
                &ipcs,
                &misses,
            )
            .map_err(err)?;
        let labels = self.backend.grouping_labels();
        for s in &mut self.streams {
            s.advance_epoch();
        }
        self.tally.live_s += sw.elapsed_seconds();

        let accesses_by_core: Vec<u64> = progress.iter().map(|p| p.accesses).collect();
        self.split_log();
        self.replay_draws(streams_before, &accesses_by_core)?;
        self.replay_backend(
            epoch,
            Some(LiveBoundary {
                ipcs: &ipcs,
                misses: &misses,
                report: &report,
                labels: &labels,
            }),
        )?;
        self.replay_scheduler(cores_before, &progress)?;
        self.tally.instructions += progress.iter().map(|p| p.instructions).sum::<u64>();
        self.tally.reconfig_events += report.reconfig_events as u64;
        Ok(EpochResult {
            epoch,
            ipcs,
            misses_by_core: misses,
            accesses: accesses_by_core.iter().sum(),
            accesses_by_core,
            reconfig_events: report.reconfig_events,
            asymmetric_events: report.asymmetric_events,
            asymmetric: report.asymmetric,
            l2_grouping: labels.0,
            l3_grouping: labels.1,
            chosen_topology: report.chosen_topology,
        })
    }

    /// One epoch the sampler skipped, fast-forwarded as `run_sampled`
    /// does: cores interleave draw by draw, and each core's trailing
    /// warm-up share of `draws` goes to the backend. Returns the
    /// (frozen) grouping labels.
    fn fast_forward(&mut self, epoch: u64, draws: &[u64]) -> Result<(String, String), String> {
        let streams_before = self.streams.clone();
        self.log.clear();
        let share = SamplingConfig::default().warmup_fraction;
        let warm_from: Vec<u64> = draws
            .iter()
            .map(|&k| k - (k as f64 * share) as u64)
            .collect();
        let rounds = draws.iter().copied().max().unwrap_or(0);
        let sw = Stopwatch::start();
        for i in 0..rounds {
            for (core, s) in self.streams.iter_mut().enumerate() {
                if i < draws[core] {
                    let a = s.next_access();
                    if i >= warm_from[core] {
                        let latency =
                            self.backend
                                .access(core, a.line, a.is_write, &mut self.tally.events);
                        self.log.push(Rec {
                            core,
                            line: a.line,
                            is_write: a.is_write,
                            latency,
                        });
                    }
                }
            }
        }
        let labels = self.backend.grouping_labels();
        for s in &mut self.streams {
            s.advance_epoch();
        }
        self.tally.live_s += sw.elapsed_seconds();

        self.split_log();
        self.replay_draws(streams_before, draws)?;
        self.replay_backend(epoch, None)?;
        Ok(labels)
    }

    fn split_log(&mut self) {
        self.per_core.iter_mut().for_each(Vec::clear);
        for r in &self.log {
            self.per_core[r.core].push((r.line, r.is_write));
        }
    }

    /// Draws `draws[c]` accesses from each stream; the recorded ones are
    /// the trailing `per_core[c].len()` of them and must match.
    fn replay_draws(
        &mut self,
        mut streams: Vec<SyntheticStream>,
        draws: &[u64],
    ) -> Result<(), String> {
        let mut unrecorded = Vec::with_capacity(draws.len());
        for (c, (&k, want)) in draws.iter().zip(&self.per_core).enumerate() {
            unrecorded.push(
                k.checked_sub(want.len() as u64)
                    .ok_or_else(|| format!("core {c}: recorded more accesses than it drew"))?,
            );
        }
        let mut same = true;
        let sw = Stopwatch::start();
        for ((s, want), &skip) in streams.iter_mut().zip(&self.per_core).zip(&unrecorded) {
            for _ in 0..skip {
                black_box(s.next_access());
            }
            for &(line, is_write) in want {
                let a = s.next_access();
                same &= a.line == line && a.is_write == is_write;
            }
        }
        self.tally.draw_s += sw.elapsed_seconds();
        self.tally.draws += draws.iter().sum::<u64>();
        if same {
            Ok(())
        } else {
            Err("stream replay drew different lines than the live run".into())
        }
    }

    /// Replays the log through the shadow backend and through a clone of
    /// the shadow's hierarchy; for a detailed epoch also runs the shadow's
    /// epoch boundary and checks it against the live one.
    fn replay_backend(&mut self, epoch: u64, live: Option<LiveBoundary>) -> Result<(), String> {
        let cycles = self.cfg.epoch_cycles;
        let mut faults = NoFaults;
        // The static and MorphCache backends read only the epoch index and
        // the fault injector from the context, so the live cores and
        // streams, already past the epoch, can stand in.
        let mut ctx = EpochCtx {
            epoch,
            cycles,
            scheduler: self.scheduler,
            cores: &mut self.cores,
            streams: &mut self.streams,
            faults: &mut faults,
        };
        if live.is_some() {
            self.shadow.begin_epoch(&mut ctx).map_err(err)?;
        }
        let mut cache = hierarchy(&*self.shadow)?.clone();
        let mut sink = NoopSink;

        let mut same = true;
        let sw = Stopwatch::start();
        for r in &self.log {
            same &= self.shadow.access(r.core, r.line, r.is_write, &mut sink) == r.latency;
        }
        self.tally.backend_s += sw.elapsed_seconds();

        let mut cache_same = true;
        let sw = Stopwatch::start();
        for r in &self.log {
            cache_same &= cache.access(r.core, r.line, r.is_write, &mut sink) == r.latency;
        }
        self.tally.cache_s += sw.elapsed_seconds();
        self.tally.backend_accesses += self.log.len() as u64;

        if !same {
            return Err(format!("epoch {epoch}: shadow backend latencies differ"));
        }
        if !cache_same {
            return Err(format!("epoch {epoch}: hierarchy replay latencies differ"));
        }
        if !same_stats(&cache, hierarchy(&*self.shadow)?) {
            return Err(format!("epoch {epoch}: hierarchy replay statistics differ"));
        }
        if let Some(live) = live {
            if self.shadow.misses_by_core() != live.misses {
                return Err(format!("epoch {epoch}: shadow backend misses differ"));
            }
            let sw = Stopwatch::start();
            let report = self
                .shadow
                .epoch_boundary(&mut ctx, live.ipcs, live.misses)
                .map_err(err)?;
            self.tally.boundary_s += sw.elapsed_seconds();
            if report != *live.report || self.shadow.grouping_labels() != *live.labels {
                return Err(format!("epoch {epoch}: shadow epoch boundary differs"));
            }
        }
        if !same_stats(hierarchy(&*self.shadow)?, hierarchy(&*self.backend)?) {
            return Err(format!("epoch {epoch}: shadow backend statistics differ"));
        }
        Ok(())
    }

    /// Runs the scheduler and cores on the recorded lines and latencies.
    fn replay_scheduler(
        &mut self,
        mut cores: Vec<Core>,
        progress: &[CoreProgress],
    ) -> Result<(), String> {
        let mut streams: Vec<ReplayStream> = self
            .per_core
            .iter()
            .zip(&self.streams)
            .map(|(lines, s)| ReplayStream {
                lines,
                next: 0,
                profile: *s.profile(),
            })
            .collect();
        let mut mem = ReplayMemory {
            log: &self.log,
            next: 0,
            n_cores: self.cfg.n_cores(),
            diverged: false,
        };
        let sw = Stopwatch::start();
        self.scheduler.run_epoch(
            &mut cores,
            &mut streams,
            &mut mem,
            &mut NoopSink,
            self.cfg.epoch_cycles,
        );
        let replayed = take_epoch_progress(&mut cores);
        self.tally.cpu_s += sw.elapsed_seconds();
        if mem.diverged || mem.next != self.log.len() || replayed != progress {
            return Err("scheduler replay diverged from the live run".into());
        }
        Ok(())
    }
}

/// Runs `spec` untraced (the reference), then traced; checks every
/// epoch against the reference and returns the reference together with
/// the layer metrics, in the order of `report::LAYER_METRICS`.
pub fn traced(spec: &Spec) -> Result<(Outcome, Values), String> {
    let reference = run::run(spec)?;
    let mut t = Traced::new(spec)?;
    let warmup = spec.cfg.warmup_epochs;
    for epoch in 0..warmup + reference.epochs.len() {
        let index = epoch as u64;
        let Some(m) = epoch.checked_sub(warmup) else {
            t.detailed(index)?;
            continue;
        };
        let want = &reference.epochs[m];
        if reference.simulated[m] {
            let got = t.detailed(index)?;
            if got != *want {
                return Err(format!(
                    "epoch {epoch}: traced result differs from SystemSim\n  traced:    {got:?}\n  reference: {want:?}"
                ));
            }
        } else {
            let labels = t.fast_forward(index, &want.accesses_by_core)?;
            if labels.0 != want.l2_grouping || labels.1 != want.l3_grouping {
                return Err(format!("epoch {epoch}: fast-forwarded grouping differs"));
            }
        }
    }
    let h = hierarchy(&*t.backend)?;
    h.check_inclusion()?;
    t.tally.cache.add(h);
    let metrics = layer_metrics(&t.tally, &reference);
    Ok((reference, metrics))
}

fn layer_metrics(t: &Tally, reference: &Outcome) -> Values {
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let c = &t.cache;
    let hits = |l: &LevelCounts| l.lookups - l.misses;
    let replays = t.draw_s + t.cpu_s + t.backend_s + t.boundary_s;
    let detail = reference.simulated.iter().filter(|&&s| s).count();
    vec![
        ("trace.draw_s", t.draw_s),
        ("trace.ns_per_draw", per(t.draw_s, t.draws)),
        ("trace.draws", t.draws as f64),
        ("cpu.model_s", t.cpu_s),
        ("cpu.instructions", t.instructions as f64),
        ("backend.access_s", t.backend_s),
        (
            "backend.ns_per_access",
            per(t.backend_s, t.backend_accesses),
        ),
        ("backend.accesses", t.backend_accesses as f64),
        ("backend.boundary_s", t.boundary_s),
        ("cache.access_s", t.cache_s),
        ("cache.ns_per_access", per(t.cache_s, t.backend_accesses)),
        ("engine.sink_s", t.backend_s - t.cache_s),
        ("events.inserted", t.events.inserted as f64),
        ("events.evicted", t.events.evicted as f64),
        ("events.touched", t.events.touched as f64),
        ("boundary.reconfig_events", t.reconfig_events as f64),
        ("cache.l1.lookups", c.l1.lookups as f64),
        ("cache.l1.misses", c.l1.misses as f64),
        ("cache.l2.lookups", c.l2.lookups as f64),
        ("cache.l2.misses", c.l2.misses as f64),
        ("cache.l3.lookups", c.l3.lookups as f64),
        ("cache.l3.misses", c.l3.misses as f64),
        ("cache.l2.remote_hits", c.l2.remote_hits as f64),
        ("cache.l3.remote_hits", c.l3.remote_hits as f64),
        ("cache.back_invalidations", c.back_invalidations as f64),
        ("cache.lazy_invalidations", c.lazy_invalidations as f64),
        ("cache.memory_writebacks", c.memory_writebacks as f64),
        ("cache.l1.hit_ratio", c.l1.hit_ratio()),
        ("cache.l2.hit_ratio", c.l2.hit_ratio()),
        ("cache.l3.hit_ratio", c.l3.hit_ratio()),
        (
            "cache.remote_hit_share",
            ratio(
                c.l2.remote_hits + c.l3.remote_hits,
                hits(&c.l2) + hits(&c.l3),
            ),
        ),
        ("sampling.detail_epochs", detail as f64),
        ("sampling.phases", reference.phases as f64),
        ("system.residual_s", reference.run_s - replays),
        ("traced.live_s", t.live_s),
        ("traced.overhead_ratio", t.live_s / reference.run_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LAYER_METRICS;
    use crate::workloads::{find, Drive};

    fn quick_spec(workload: &str, cfg: SystemConfig) -> Spec {
        let pinned = find(workload).unwrap();
        Spec {
            pinned,
            cfg,
            workload: Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).unwrap(),
            policy: Policy::morph(&cfg),
        }
    }

    #[test]
    fn replays_reproduce_a_quick_test_epoch_bit_for_bit() {
        let spec = quick_spec("mp16_morph", SystemConfig::quick_test(4).with_epochs(1));
        let (reference, layers) = traced(&spec).unwrap();
        assert_eq!(reference.epochs.len(), 1);
        let names: Vec<&str> = layers.iter().map(|&(n, _)| n).collect();
        let table: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        let value = |name| layers.iter().find(|&&(n, _)| n == name).unwrap().1;
        assert_eq!(value("trace.draws"), value("backend.accesses"));
        assert_eq!(value("cache.l1.lookups"), value("backend.accesses"));
        assert_eq!(value("sampling.detail_epochs"), 1.0);
    }

    #[test]
    fn fast_forwarded_epochs_replay_bit_for_bit() {
        let mut cfg = SystemConfig::quick_test(4).with_epochs(6);
        cfg.epoch_cycles = 100_000;
        let spec = quick_spec("mp16_sampled", cfg);
        assert_eq!(spec.pinned.drive, Drive::Sampled);
        let (reference, layers) = traced(&spec).unwrap();
        assert!(
            reference.simulated.contains(&false),
            "the sampler must skip an epoch for this test to cover fast-forward"
        );
        let value = |name| layers.iter().find(|&&(n, _)| n == name).unwrap().1;
        assert!(value("trace.draws") > value("backend.accesses"));
    }
}
