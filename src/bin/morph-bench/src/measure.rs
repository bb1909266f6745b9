//! `measure`: repeated runs, each in a fresh child process, one at a
//! time, with the workloads interleaved within each round.
//!
//! Child processes keep runs independent: a run in a reused process
//! would inherit the allocator's pages and the earlier runs' peak RSS.
//! Untraced run `i` of every workload runs on workload seed
//! `input(seed, i)`; traced runs all run on `--seed` itself. Between two
//! untraced runs the parent times the host probe, and a run's speed is
//! scaled by the mean probe rate just before and just after it.

use crate::probe::{self, HostProbe};
use crate::report::{hex, parse_hex, Metric, Report, WorkloadReport, E2E_METRICS, LAYER_METRICS};
use crate::run::{self, peak_rss_kib};
use crate::stats::Summary;
use crate::trace;
use crate::workloads::{self, input, Pinned, DEFAULT_SEED};
use morph_metrics::timing::Stopwatch;
use morph_metrics::Json;
use std::process::{Command, Stdio};

/// Fewest untraced runs per workload, whatever `--seconds` allows.
const MIN_RUNS: usize = 5;

/// Which runs `measure` makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced runs only (`--trace 0`).
    Untraced,
    /// Traced runs only (`--trace 1`).
    Traced,
    /// Untraced rounds, then one traced run per workload.
    Both,
}

pub struct Options {
    pub workloads: Vec<&'static Pinned>,
    pub seed: u64,
    /// Measuring time per workload and mode.
    pub seconds: f64,
    pub mode: Mode,
    pub out: Option<String>,
}

/// Renders `j` on one line.
pub fn one_line(j: &Json) -> String {
    j.render().lines().map(str::trim_start).collect()
}

/// The body of a child process: one run of `w` on workload seed `seed`
/// in this process, printed as one JSON line of metric values.
pub fn child(w: &'static Pinned, seed: u64, traced: bool) -> Result<String, String> {
    let spec = w.spec(seed)?;
    let (digest, values) = if traced {
        let (reference, layers) = trace::traced(&spec)?;
        (reference.digest(), layers)
    } else {
        let o = run::run(&spec)?;
        let rss = peak_rss_kib().ok_or("VmHWM unavailable in /proc/self/status")?;
        let values = vec![
            ("accesses_per_sec", o.accesses() as f64 / o.run_s),
            ("setup_s", o.setup_s),
            ("peak_rss_mb", rss as f64 / 1024.0),
        ];
        (o.digest(), values)
    };
    let metrics = values
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Num(v)))
        .collect();
    Ok(one_line(&Json::Obj(vec![
        ("digest".into(), Json::Str(hex(digest))),
        ("metrics".into(), Json::Obj(metrics)),
    ])))
}

/// What one child reported.
struct ChildRun {
    digest: u64,
    values: Vec<(String, f64)>,
}

impl ChildRun {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Adds the run's speed scaled to the reference host, given the probe
    /// rate around the run.
    fn scale(mut self, probe_loads_per_sec: f64) -> Result<Self, String> {
        let raw = self
            .value("accesses_per_sec")
            .ok_or("child reported no accesses_per_sec")?;
        let scaled = probe::scale(raw, probe_loads_per_sec);
        self.values.push(("accesses_per_ref_sec".into(), scaled));
        self.values
            .push(("probe_loads_per_sec".into(), probe_loads_per_sec));
        Ok(self)
    }
}

fn spawn(w: &Pinned, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    let doc = Json::parse(line)?;
    let digest = parse_hex(doc.get("digest")).ok_or("child reported no digest")?;
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err("child reported no metrics".into());
    };
    let values = members
        .iter()
        .map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
        .collect::<Option<_>>()
        .ok_or("child reported a non-numeric metric")?;
    Ok(ChildRun { digest, values })
}

/// One workload's runs so far.
struct WorkloadRuns {
    report: WorkloadReport,
    pinned: &'static Pinned,
    /// The first traced run's simulated statistics, which later traced
    /// runs must repeat exactly.
    simulated: Option<Vec<f64>>,
    /// Per untraced run: unscaled accesses per second, and the probe rate.
    host: Vec<(f64, f64)>,
}

impl WorkloadRuns {
    fn new(pinned: &'static Pinned) -> Self {
        Self {
            report: WorkloadReport {
                name: pinned.name.into(),
                ..WorkloadReport::default()
            },
            pinned,
            simulated: None,
            host: Vec::new(),
        }
    }

    /// Folds in one child's outcome on input `input` of a measurement at
    /// `seed`; a failed or inconsistent run counts as failed and
    /// contributes no samples.
    fn record(
        &mut self,
        seed: u64,
        input: usize,
        metrics: &'static [Metric],
        run: Result<ChildRun, String>,
    ) {
        self.report.attempted += 1;
        if let Err(e) = self.check(seed, input, metrics, run) {
            eprintln!(
                "{}: run {} failed: {e}",
                self.pinned.name, self.report.attempted
            );
            self.report.failed += 1;
        }
    }

    fn check(
        &mut self,
        seed: u64,
        input: usize,
        metrics: &'static [Metric],
        run: Result<ChildRun, String>,
    ) -> Result<(), String> {
        let run = run?;
        if seed == DEFAULT_SEED && input == 0 && run.digest != self.pinned.digest {
            return Err(format!(
                "result digest {} differs from the pinned {}",
                hex(run.digest),
                hex(self.pinned.digest)
            ));
        }
        let digests = &mut self.report.digests;
        if digests.len() <= input {
            digests.resize(input + 1, None);
        }
        let known = &mut digests[input];
        match *known {
            Some(d) if d != run.digest => {
                return Err(format!(
                    "result digest {} differs from an earlier run's {} on the same input",
                    hex(run.digest),
                    hex(d)
                ))
            }
            _ => *known = Some(run.digest),
        }
        let mut values = Vec::with_capacity(metrics.len());
        for m in metrics {
            let v = run
                .value(m.name)
                .filter(|v| v.is_finite())
                .ok_or(format!("no finite value for {}", m.name))?;
            values.push((m, v));
        }
        if let (Some(raw), Some(probe)) = (
            run.value("accesses_per_sec"),
            run.value("probe_loads_per_sec"),
        ) {
            self.host.push((raw, probe));
        }
        let simulated: Vec<f64> = values
            .iter()
            .filter(|(m, _)| m.simulated)
            .map(|&(_, v)| v)
            .collect();
        if !simulated.is_empty() {
            match &self.simulated {
                Some(first) if *first != simulated => {
                    return Err("simulated statistics differ from the first traced run".into())
                }
                _ => self.simulated = Some(simulated),
            }
        }
        for (m, v) in values {
            match self
                .report
                .samples
                .iter_mut()
                .find(|(k, _)| k.name == m.name)
            {
                Some((_, samples)) => samples.push(v),
                None => self.report.samples.push((m, vec![v])),
            }
        }
        Ok(())
    }
}

/// Runs rounds of one child per workload, rotating which workload goes
/// first, until `min_rounds` are done and another round would overrun
/// `seconds` per workload. Untraced round `r` runs input `r`, each run
/// between two probes; traced rounds run input 0.
fn rounds(
    runs: &mut [WorkloadRuns],
    seed: u64,
    probe: Option<&HostProbe>,
    min_rounds: usize,
    seconds: f64,
) {
    let traced = probe.is_none();
    let metrics = if traced { LAYER_METRICS } else { E2E_METRICS };
    let n = runs.len();
    let budget = seconds * n as f64;
    let sw = Stopwatch::start();
    let mut longest = 0.0f64;
    let mut before = probe.map(HostProbe::loads_per_sec);
    for round in 0.. {
        if round >= min_rounds && sw.elapsed_seconds() + longest > budget {
            break;
        }
        let index = if traced { 0 } else { round };
        let start = Stopwatch::start();
        for i in 0..n {
            let t = &mut runs[(round + i) % n];
            let mut run = spawn(t.pinned, input(seed, index), traced);
            let after = probe.map(HostProbe::loads_per_sec);
            if let (Some(b), Some(a)) = (before, after) {
                run = run.and_then(|r| r.scale((b * a).sqrt()));
            }
            before = after;
            t.record(seed, index, metrics, run);
        }
        longest = longest.max(start.elapsed_seconds());
    }
}

/// Runs `measure`; returns whether every run succeeded and agreed.
pub fn measure(opts: &Options) -> bool {
    let mut runs: Vec<WorkloadRuns> = opts
        .workloads
        .iter()
        .map(|&w| WorkloadRuns::new(w))
        .collect();
    if opts.mode != Mode::Traced {
        let probe = HostProbe::new();
        rounds(&mut runs, opts.seed, Some(&probe), MIN_RUNS, opts.seconds);
        for w in &runs {
            let median = |f: fn(&(f64, f64)) -> f64| {
                Summary::of(&w.host.iter().map(f).collect::<Vec<_>>()).map_or(0.0, |s| s.median)
            };
            println!(
                "{}: unscaled {:.0} acc/s at a probe rate of {:.0} loads/s (medians)",
                w.pinned.name,
                median(|h| h.0),
                median(|h| h.1)
            );
        }
    }
    match opts.mode {
        Mode::Traced => rounds(&mut runs, opts.seed, None, 1, opts.seconds),
        Mode::Both => rounds(&mut runs, opts.seed, None, 1, 0.0),
        Mode::Untraced => {}
    }
    let report = Report {
        seed: opts.seed,
        workloads: runs.into_iter().map(|t| t.report).collect(),
    };
    print_table(&report);
    if let Some(path) = &opts.out {
        match std::fs::write(path, report.to_json().render()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("error: cannot write {path}: {e}"),
        }
    }
    let (attempted, failed) = report
        .workloads
        .iter()
        .fold((0, 0), |(a, f), w| (a + w.attempted, f + w.failed));
    let correct = attempted > 0 && failed == 0;
    let single = report.workloads.len() == 1;
    let metrics = report
        .workloads
        .iter()
        .flat_map(|w| {
            w.samples.iter().filter_map(move |(m, v)| {
                let median = Summary::of(v)?.median;
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", w.name, m.name)
                };
                Some((
                    name,
                    Json::Obj(vec![
                        ("value".into(), Json::Num(median)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                ))
            })
        })
        .collect();
    println!(
        "{}",
        one_line(&Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(attempted as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    );
    correct
}

fn print_table(report: &Report) {
    println!("seed {:#x}", report.seed);
    for w in &report.workloads {
        let why = workloads::find(&w.name).map_or("", |p| p.why);
        println!("{}: {why}", w.name);
        let first = w.digests.first().copied().flatten();
        println!(
            "  {} runs on {} inputs, {} failed; input 0 digest {}",
            w.attempted,
            w.digests.len(),
            w.failed,
            first.map_or("none".into(), hex)
        );
        for (m, v) in &w.samples {
            let Some(s) = Summary::of(v) else { continue };
            if m.simulated {
                println!("  {:<26} {:>14} {}", m.name, s.median, m.unit);
                continue;
            }
            println!(
                "  {:<26} {:>14.6} {:<6} median of {:>2} (q1 {:.6}, q3 {:.6}, spread {:.2}%)",
                m.name,
                s.median,
                m.unit,
                v.len(),
                s.q1,
                s.q3,
                s.spread() * 100.0
            );
        }
    }
}
