//! Metric definitions, the measurement report (`--out FILE`) and
//! `compare`.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics, units,
//! directions and bounds; a test keeps the two in step.

use crate::stats::Summary;
use morph_metrics::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before `compare` calls it a regression.
    pub bound: Option<f64>,
    /// A simulated statistic, which repeats exactly for a given seed,
    /// rather than a host measurement.
    pub simulated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        simulated: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        simulated: false,
    }
}

const fn stat(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        simulated: true,
        ..layer(name, unit, better)
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured over untraced fresh-process runs.
pub const E2E_METRICS: &[Metric] = &[
    e2e("accesses_per_ref_sec", "acc/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
];

/// Per-layer metrics of the traced run, in the order `trace::traced`
/// reports them.
pub const LAYER_METRICS: &[Metric] = &[
    layer("trace.draw_s", "s", Lower),
    layer("trace.ns_per_draw", "ns", Lower),
    stat("trace.draws", "count", Lower),
    layer("cpu.model_s", "s", Lower),
    stat("cpu.instructions", "count", Higher),
    layer("backend.access_s", "s", Lower),
    layer("backend.ns_per_access", "ns", Lower),
    stat("backend.accesses", "count", Lower),
    layer("backend.boundary_s", "s", Lower),
    layer("cache.access_s", "s", Lower),
    layer("cache.ns_per_access", "ns", Lower),
    layer("engine.sink_s", "s", Lower),
    stat("events.inserted", "count", Lower),
    stat("events.evicted", "count", Lower),
    stat("events.touched", "count", Lower),
    stat("boundary.reconfig_events", "count", Lower),
    stat("cache.l1.lookups", "count", Lower),
    stat("cache.l1.misses", "count", Lower),
    stat("cache.l2.lookups", "count", Lower),
    stat("cache.l2.misses", "count", Lower),
    stat("cache.l3.lookups", "count", Lower),
    stat("cache.l3.misses", "count", Lower),
    stat("cache.l2.remote_hits", "count", Higher),
    stat("cache.l3.remote_hits", "count", Higher),
    stat("cache.back_invalidations", "count", Lower),
    stat("cache.lazy_invalidations", "count", Lower),
    stat("cache.memory_writebacks", "count", Lower),
    stat("cache.l1.hit_ratio", "ratio", Higher),
    stat("cache.l2.hit_ratio", "ratio", Higher),
    stat("cache.l3.hit_ratio", "ratio", Higher),
    stat("cache.remote_hit_share", "ratio", Higher),
    stat("sampling.detail_epochs", "count", Lower),
    stat("sampling.phases", "count", Lower),
    layer("system.residual_s", "s", Lower),
    layer("traced.live_s", "s", Lower),
    layer("traced.overhead_ratio", "ratio", Lower),
];

/// The metric called `name`, end-to-end or per-layer.
pub fn metric(name: &str) -> Option<&'static Metric> {
    E2E_METRICS
        .iter()
        .chain(LAYER_METRICS)
        .find(|m| m.name == name)
}

/// The schema tag of a measurement report.
pub const SCHEMA: &str = "morph-bench/measure-v1";

/// Everything one workload measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadReport {
    pub name: String,
    /// Per workload seed of the measurement: the result digest all runs on
    /// it agreed on (`None` when no run on it finished).
    pub digests: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Samples per metric, one per run, in metric-table order.
    pub samples: Vec<(&'static Metric, Vec<f64>)>,
}

impl WorkloadReport {
    pub fn samples_of(&self, name: &str) -> Option<&[f64]> {
        self.samples
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| v.as_slice())
    }
}

/// A `measure` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub seed: u64,
    pub workloads: Vec<WorkloadReport>,
}

/// A seed or digest as JSON text: `0x` and 16 hex digits. (JSON numbers
/// are doubles and would lose the low bits of a 64-bit value.)
pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// Parses a [`hex`] string.
pub fn parse_hex(j: Option<&Json>) -> Option<u64> {
    u64::from_str_radix(j?.as_str()?.strip_prefix("0x")?, 16).ok()
}

impl Report {
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let metrics = w
                    .samples
                    .iter()
                    .map(|(m, v)| {
                        let mut fields = vec![
                            ("unit".to_string(), Json::Str(m.unit.into())),
                            ("better".to_string(), Json::Str(m.better.name().into())),
                        ];
                        if let Some(s) = Summary::of(v) {
                            fields.push(("median".into(), Json::Num(s.median)));
                            fields.push(("q1".into(), Json::Num(s.q1)));
                            fields.push(("q3".into(), Json::Num(s.q3)));
                        }
                        fields.push((
                            "samples".into(),
                            Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                        ));
                        (m.name.to_string(), Json::Obj(fields))
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(w.name.clone())),
                    (
                        "digests".into(),
                        Json::Arr(
                            w.digests
                                .iter()
                                .map(|d| d.map_or(Json::Null, |d| Json::Str(hex(d))))
                                .collect(),
                        ),
                    ),
                    ("runs_attempted".into(), Json::Num(w.attempted as f64)),
                    ("runs_failed".into(), Json::Num(w.failed as f64)),
                    ("metrics".into(), Json::Obj(metrics)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("seed".into(), Json::Str(hex(self.seed))),
            ("workloads".into(), Json::Arr(workloads)),
        ])
    }

    /// Parses a report written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} report"));
        }
        let seed = parse_hex(doc.get("seed")).ok_or("missing seed")?;
        let mut workloads = Vec::new();
        for w in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing workloads")?
        {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without name")?;
            let count = |key| {
                w.get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("{name}: missing {key}"))
            };
            let Some(Json::Obj(members)) = w.get("metrics") else {
                return Err(format!("{name}: missing metrics"));
            };
            let mut samples = Vec::new();
            for (key, value) in members {
                let m = metric(key).ok_or(format!("{name}: unknown metric {key}"))?;
                let values = value
                    .get("samples")
                    .and_then(Json::as_arr)
                    .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<_>>>())
                    .ok_or(format!("{name}: {key} has no samples"))?;
                samples.push((m, values));
            }
            let digests = w
                .get("digests")
                .and_then(Json::as_arr)
                .ok_or(format!("{name}: missing digests"))?
                .iter()
                .map(|d| parse_hex(Some(d)))
                .collect();
            workloads.push(WorkloadReport {
                name: name.into(),
                digests,
                attempted: count("runs_attempted")?,
                failed: count("runs_failed")?,
                samples,
            });
        }
        Ok(Self { seed, workloads })
    }
}

/// How one (workload, metric) pair moved between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by no more than the bound.
    Ok,
    /// The run-to-run spread exceeds the bound, so the change cannot be
    /// told from noise.
    Unresolved,
    /// Every run of the second report beats every run of the first.
    Better,
    /// Worse by more than the bound, with spreads inside it.
    Regression,
}

/// Compares metric samples `b` against baseline `a`: returns the median
/// change as a share of the baseline (positive = worse), the spread it
/// is judged against, and the verdict.
///
/// `paired` samples come from the same inputs in the same order (two
/// measurements at one seed): the change is then the median of the
/// per-input ratios, and the spread is theirs, so the inputs' own
/// differences cancel. Otherwise the medians are compared, against the
/// wider of the two spreads.
pub fn judge(
    m: &Metric,
    bound: f64,
    a: &[f64],
    b: &[f64],
    paired: bool,
) -> Option<(f64, f64, Verdict)> {
    let sign = match m.better {
        Better::Higher => -1.0,
        Better::Lower => 1.0,
    };
    let (worse, spread, all_better) = if paired {
        let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| y / x).collect();
        let s = Summary::of(&ratios)?;
        let all_better = ratios.iter().all(|r| sign * (r - 1.0) < 0.0);
        (sign * (s.median - 1.0), s.spread(), all_better)
    } else {
        let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
        let worse = sign * (sb.median - sa.median) / sa.median.abs();
        let all_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
        (worse, sa.spread().max(sb.spread()), all_better)
    };
    if !worse.is_finite() {
        return None;
    }
    let verdict = if all_better {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Some((worse, spread, verdict))
}

/// Prints the comparison of `b` against baseline `a`; returns whether it
/// found a regression or a simulated statistic that changed.
pub fn compare(a: &Report, b: &Report) -> bool {
    let mut bad = false;
    println!(
        "{:<15} {:<24} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "spread"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<15} missing from B", wa.name);
            continue;
        };
        if wa.failed > 0 || wb.failed > 0 {
            println!(
                "{:<15} failed runs: A {} B {}",
                wa.name, wa.failed, wb.failed
            );
            bad = true;
        }
        let differ = |(x, y): (&Option<u64>, &Option<u64>)| x.zip(*y).is_some_and(|(x, y)| x != y);
        if a.seed == b.seed && wa.digests.iter().zip(&wb.digests).any(differ) {
            println!("{:<15} result digests differ at the same seed", wa.name);
            bad = true;
        }
        for (m, va) in &wa.samples {
            let Some(vb) = wb.samples_of(m.name) else {
                continue;
            };
            if m.simulated {
                // Every run of one report repeats the same value.
                if a.seed == b.seed && va.first() != vb.first() {
                    println!("{:<15} {:<24} simulated statistic changed", wa.name, m.name);
                    bad = true;
                }
                continue;
            }
            let Some(bound) = m.bound else { continue };
            let paired = a.seed == b.seed;
            let Some((worse, spread, verdict)) = judge(m, bound, va, vb, paired) else {
                continue;
            };
            bad |= verdict == Verdict::Regression;
            println!(
                "{:<15} {:<24} {:>12.6} {:>12.6} {:>7.2}% {:>6.1}% {:>6.2}%  {:?}",
                wa.name,
                m.name,
                Summary::of(va).map_or(0.0, |s| s.median),
                Summary::of(vb).map_or(0.0, |s| s.median),
                worse * 100.0,
                bound * 100.0,
                spread * 100.0,
                verdict
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            seed: 0xC0FFEE,
            workloads: vec![WorkloadReport {
                name: "mp16_morph".into(),
                digests: vec![Some(0xdead_beef_0123_4567), None],
                attempted: 6,
                failed: 0,
                samples: vec![
                    (&E2E_METRICS[0], vec![2.0e6, 2.1e6, 1.9e6]),
                    (&E2E_METRICS[1], vec![0.0031, 0.0029]),
                    (metric("cache.l2.hit_ratio").unwrap(), vec![0.4375]),
                ],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let text = r.to_json().render();
        assert_eq!(Report::from_json(&text).unwrap(), r);
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json(&text.replace(SCHEMA, "other")).is_err());
    }

    #[test]
    fn judge_separates_regressions_noise_and_gains() {
        let m = &E2E_METRICS[0]; // accesses_per_ref_sec, higher is better
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        for paired in [false, true] {
            let same = judge(m, 0.1, &base, &base, paired).unwrap();
            assert_eq!((same.0, same.2), (0.0, Verdict::Ok));
            let slower: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
            let (worse, _, v) = judge(m, 0.1, &base, &slower, paired).unwrap();
            assert_eq!(v, Verdict::Regression);
            assert!((worse - 0.2).abs() < 1e-9);
            let faster: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
            assert_eq!(
                judge(m, 0.1, &base, &faster, paired).unwrap().2,
                Verdict::Better
            );
        }
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(
            judge(m, 0.1, &base, &noisy, false).unwrap().2,
            Verdict::Unresolved
        );
        // Inputs that differ widely cancel when paired: the same 5% loss
        // on every input is resolved, unpaired it is not.
        let inputs = [60.0, 140.0, 90.0, 120.0, 100.0];
        let slower: Vec<f64> = inputs.iter().map(|x| x * 0.95).collect();
        assert_eq!(
            judge(m, 0.1, &inputs, &slower, true).unwrap().2,
            Verdict::Ok
        );
        assert_eq!(
            judge(m, 0.1, &inputs, &slower, false).unwrap().2,
            Verdict::Unresolved
        );
        // Lower-is-better flips the sign.
        let setup = &E2E_METRICS[1];
        let (worse, _, v) = judge(setup, 0.25, &[1.0, 1.0], &[2.0, 2.0], true).unwrap();
        assert!((worse - 1.0).abs() < 1e-9);
        assert_eq!(v, Verdict::Regression);
    }

    #[test]
    fn compare_passes_a_report_against_itself_and_flags_changes() {
        let r = sample_report();
        assert!(!compare(&r, &r));
        let mut longer = r.clone();
        longer.workloads[0].digests.push(Some(7));
        longer.workloads[0].samples[0].1.push(2.0e6);
        assert!(!compare(&r, &longer), "extra runs on new inputs are fine");
        let mut other = r.clone();
        other.workloads[0].digests[0] = Some(7);
        assert!(compare(&r, &other), "a changed result digest is flagged");
        let mut changed = r.clone();
        changed.workloads[0].samples[2].1[0] = 0.5;
        assert!(compare(&r, &changed), "a changed counter is flagged");
        let mut slow = r.clone();
        slow.workloads[0].samples[0].1 = vec![1.0e6, 1.05e6, 0.95e6];
        assert!(compare(&r, &slow), "a regression is flagged");
    }

    #[test]
    fn benchmark_json_lists_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let table = |ms: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.into(),
                        m.unit.into(),
                        m.better.name().into(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(E2E_METRICS));
        assert_eq!(listed("per_layer"), table(LAYER_METRICS));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let pinned: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, pinned);
    }
}
