//! The `BENCH_<n>.json` performance-trajectory schema.
//!
//! The offline bench harness (`morph-bench`) measures the simulator's raw
//! speed — accesses/sec on the hot path, cells/sec through the parallel
//! matrix — on a pinned workload suite and records the result as a
//! `BENCH_<n>.json` file checked into the repository, so every PR's
//! speedup (or regression) is *measured against the previous trajectory
//! point*, not asserted. The schema is deliberately small and versioned:
//!
//! ```json
//! {
//!   "schema": "morph-bench/v1",
//!   "suite": "default",
//!   "config": { "cores": 8, "epochs": 6, "epoch_cycles": 1000000,
//!               "seed": 12648430, "jobs": 4 },
//!   "backends": [
//!     { "policy": "(8:1:1)", "workload": "...", "accesses": 123456,
//!       "wall_seconds": 1.25, "accesses_per_sec": 98765.0 }
//!   ],
//!   "total": { "accesses": 0, "serial_seconds": 0.0, "wall_seconds": 0.0,
//!              "accesses_per_sec": 0.0, "cells_per_sec": 0.0,
//!              "parallel_speedup": 1.0 },
//!   "baseline": { "label": "pre-change", "accesses_per_sec": 0.0,
//!                 "cells_per_sec": 0.0 }
//! }
//! ```
//!
//! `total.accesses_per_sec` divides the (deterministic) access count by
//! the *serial* seconds — the sum of per-cell compute times — so the
//! headline metric does not depend on how many worker threads the matrix
//! happened to run on. `baseline` is optional (`null` for the first
//! trajectory point) and carries the numbers the current run is compared
//! against.
//!
//! Reports are read and written with the workspace's JSON codec,
//! [`crate::Json`].

use crate::json::Json;

/// The schema tag every report carries; `check` refuses anything else.
pub const BENCH_SCHEMA: &str = "morph-bench/v1";

/// Typed failures of the bench-report codec and regression gate, so
/// `morph-bench check` can fail with a story (and an exit code) instead
/// of a panic when a `BENCH_*.json` is malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The document is not valid JSON (first syntax error, byte offset).
    Syntax(String),
    /// The document carries a schema tag other than [`BENCH_SCHEMA`].
    Schema {
        /// The tag found in the document.
        found: String,
    },
    /// A required field is missing or has the wrong type.
    Field {
        /// Dotted path of the offending field (e.g. `"total.cells_per_sec"`).
        field: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// The `backends` array is present but empty.
    EmptyBackends,
    /// The report has no embedded `baseline` block but the check was
    /// asked to compare against it.
    MissingBaseline,
    /// Report and baseline ran different pinned suites.
    SuiteMismatch {
        /// Suite named by the report under check.
        report: String,
        /// Suite named by the baseline.
        baseline: String,
    },
    /// A headline metric regressed past the tolerance.
    Regression {
        /// Which metric (`"accesses/sec"` or `"cells/sec"`).
        metric: &'static str,
        /// The report's value.
        now: f64,
        /// The baseline's value.
        then: f64,
        /// The relative tolerance the gate ran with.
        tolerance: f64,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Syntax(msg) => write!(f, "invalid JSON: {msg}"),
            BenchError::Schema { found } => {
                write!(f, "unsupported schema `{found}` (want {BENCH_SCHEMA})")
            }
            BenchError::Field { field, expected } => {
                write!(
                    f,
                    "missing or ill-typed field `{field}` (expected {expected})"
                )
            }
            BenchError::EmptyBackends => write!(f, "`backends` must not be empty"),
            BenchError::MissingBaseline => write!(
                f,
                "report has no embedded `baseline` block; run with --baseline \
                 or check against an explicit baseline file"
            ),
            BenchError::SuiteMismatch { report, baseline } => write!(
                f,
                "suite mismatch: report ran `{report}`, baseline ran `{baseline}`"
            ),
            BenchError::Regression {
                metric,
                now,
                then,
                tolerance,
            } => write!(
                f,
                "{metric} regressed: {now:.0} vs baseline {then:.0} \
                 ({:.1}% of baseline, tolerance {:.0}%)",
                100.0 * now / then,
                100.0 * (1.0 - tolerance),
            ),
        }
    }
}

impl std::error::Error for BenchError {}

/// One backend's row in a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBackend {
    /// Policy display name (e.g. `"(8:1:1)"`, `"MorphCache"`).
    pub policy: String,
    /// Workload display name.
    pub workload: String,
    /// Memory accesses simulated in the measured epochs (deterministic).
    pub accesses: u64,
    /// Compute seconds the cell took on its worker thread.
    pub wall_seconds: f64,
    /// `accesses / wall_seconds`.
    pub accesses_per_sec: f64,
}

/// The previous trajectory point a report is measured against.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBaseline {
    /// Where the baseline numbers came from (commit, file, description).
    pub label: String,
    /// The baseline's headline `total.accesses_per_sec`.
    pub accesses_per_sec: f64,
    /// The baseline's `total.cells_per_sec`.
    pub cells_per_sec: f64,
}

/// A complete `BENCH_<n>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The pinned suite that produced the numbers (`"default"`/`"smoke"`).
    pub suite: String,
    /// Core count of the pinned configuration.
    pub cores: usize,
    /// Measured epochs per cell.
    pub epochs: usize,
    /// Cycles per epoch.
    pub epoch_cycles: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Worker threads the matrix ran on.
    pub jobs: usize,
    /// Per-backend rows, in suite order.
    pub backends: Vec<BenchBackend>,
    /// Wall-clock seconds for the whole matrix.
    pub wall_seconds: f64,
    /// Matrix cells completed per wall-clock second.
    pub cells_per_sec: f64,
    /// Speedup of the wall time over a serial schedule.
    pub parallel_speedup: f64,
    /// The previous trajectory point, if one was supplied.
    pub baseline: Option<BenchBaseline>,
}

impl BenchReport {
    /// Total accesses across all backends (deterministic).
    pub fn total_accesses(&self) -> u64 {
        self.backends.iter().map(|b| b.accesses).sum()
    }

    /// Sum of per-backend compute seconds (the serial schedule).
    pub fn serial_seconds(&self) -> f64 {
        self.backends.iter().map(|b| b.wall_seconds).sum()
    }

    /// The headline metric: total accesses over serial seconds, which is
    /// independent of the worker count.
    pub fn accesses_per_sec(&self) -> f64 {
        let s = self.serial_seconds();
        if s > 0.0 {
            self.total_accesses() as f64 / s
        } else {
            0.0
        }
    }

    /// Serializes to the versioned schema.
    pub fn to_json(&self) -> String {
        let backends: Vec<Json> = self
            .backends
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("policy".into(), Json::Str(b.policy.clone())),
                    ("workload".into(), Json::Str(b.workload.clone())),
                    ("accesses".into(), Json::Num(b.accesses as f64)),
                    ("wall_seconds".into(), Json::Num(b.wall_seconds)),
                    ("accesses_per_sec".into(), Json::Num(b.accesses_per_sec)),
                ])
            })
            .collect();
        let total = Json::Obj(vec![
            ("accesses".into(), Json::Num(self.total_accesses() as f64)),
            ("serial_seconds".into(), Json::Num(self.serial_seconds())),
            ("wall_seconds".into(), Json::Num(self.wall_seconds)),
            (
                "accesses_per_sec".into(),
                Json::Num(self.accesses_per_sec()),
            ),
            ("cells_per_sec".into(), Json::Num(self.cells_per_sec)),
            ("parallel_speedup".into(), Json::Num(self.parallel_speedup)),
        ]);
        let baseline = match &self.baseline {
            None => Json::Null,
            Some(b) => Json::Obj(vec![
                ("label".into(), Json::Str(b.label.clone())),
                ("accesses_per_sec".into(), Json::Num(b.accesses_per_sec)),
                ("cells_per_sec".into(), Json::Num(b.cells_per_sec)),
            ]),
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str(BENCH_SCHEMA.into())),
            ("suite".into(), Json::Str(self.suite.clone())),
            (
                "config".into(),
                Json::Obj(vec![
                    ("cores".into(), Json::Num(self.cores as f64)),
                    ("epochs".into(), Json::Num(self.epochs as f64)),
                    ("epoch_cycles".into(), Json::Num(self.epoch_cycles as f64)),
                    ("seed".into(), Json::Num(self.seed as f64)),
                    ("jobs".into(), Json::Num(self.jobs as f64)),
                ]),
            ),
            ("backends".into(), Json::Arr(backends)),
            ("total".into(), total),
            ("baseline".into(), baseline),
        ])
        .render()
    }

    /// Parses and schema-validates a `BENCH_<n>.json` document.
    ///
    /// # Errors
    ///
    /// Returns a typed [`BenchError`]: the first JSON syntax error, a
    /// schema-tag mismatch, or a missing/ill-typed required field.
    pub fn from_json(text: &str) -> Result<Self, BenchError> {
        let v = Json::parse(text).map_err(BenchError::Syntax)?;
        let field = |field: &str, expected: &'static str| BenchError::Field {
            field: field.to_string(),
            expected,
        };
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| field("schema", "string"))?;
        if schema != BENCH_SCHEMA {
            return Err(BenchError::Schema {
                found: schema.to_string(),
            });
        }
        let cfg = v.get("config").ok_or_else(|| field("config", "object"))?;
        let num = |obj: &Json, key: &str| -> Result<f64, BenchError> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| field(key, "number"))
        };
        let int = |obj: &Json, key: &str| -> Result<u64, BenchError> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| field(key, "non-negative integer"))
        };
        let backends = v
            .get("backends")
            .and_then(Json::as_arr)
            .ok_or_else(|| field("backends", "array"))?
            .iter()
            .map(|b| {
                Ok(BenchBackend {
                    policy: b
                        .get("policy")
                        .and_then(Json::as_str)
                        .ok_or_else(|| field("backends[].policy", "string"))?
                        .to_string(),
                    workload: b
                        .get("workload")
                        .and_then(Json::as_str)
                        .ok_or_else(|| field("backends[].workload", "string"))?
                        .to_string(),
                    accesses: int(b, "accesses")?,
                    wall_seconds: num(b, "wall_seconds")?,
                    accesses_per_sec: num(b, "accesses_per_sec")?,
                })
            })
            .collect::<Result<Vec<_>, BenchError>>()?;
        if backends.is_empty() {
            return Err(BenchError::EmptyBackends);
        }
        let total = v.get("total").ok_or_else(|| field("total", "object"))?;
        let baseline = match v.get("baseline") {
            None | Some(Json::Null) => None,
            Some(b) => Some(BenchBaseline {
                label: b
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| field("baseline.label", "string"))?
                    .to_string(),
                accesses_per_sec: num(b, "accesses_per_sec")?,
                cells_per_sec: num(b, "cells_per_sec")?,
            }),
        };
        Ok(BenchReport {
            suite: v
                .get("suite")
                .and_then(Json::as_str)
                .ok_or_else(|| field("suite", "string"))?
                .to_string(),
            cores: int(cfg, "cores")? as usize,
            epochs: int(cfg, "epochs")? as usize,
            epoch_cycles: int(cfg, "epoch_cycles")?,
            seed: int(cfg, "seed")?,
            jobs: int(cfg, "jobs")? as usize,
            backends,
            wall_seconds: num(total, "wall_seconds")?,
            cells_per_sec: num(total, "cells_per_sec")?,
            parallel_speedup: num(total, "parallel_speedup")?,
            baseline,
        })
    }

    /// Compares this report against `baseline` with a relative
    /// `tolerance` (e.g. `0.2` fails on a >20% throughput drop in either
    /// accesses/sec or cells/sec).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::SuiteMismatch`] or [`BenchError::Regression`].
    pub fn check_against(&self, baseline: &BenchReport, tolerance: f64) -> Result<(), BenchError> {
        if self.suite != baseline.suite {
            return Err(BenchError::SuiteMismatch {
                report: self.suite.clone(),
                baseline: baseline.suite.clone(),
            });
        }
        gate(
            "accesses/sec",
            self.accesses_per_sec(),
            baseline.accesses_per_sec(),
            tolerance,
        )?;
        gate(
            "cells/sec",
            self.cells_per_sec,
            baseline.cells_per_sec,
            tolerance,
        )
    }

    /// Compares this report against its own embedded `baseline` block
    /// (the previous trajectory point recorded with `--baseline`).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::MissingBaseline`] when the report carries no
    /// baseline block, and [`BenchError::Regression`] on a gate failure.
    pub fn check_embedded(&self, tolerance: f64) -> Result<&BenchBaseline, BenchError> {
        let baseline = self.baseline.as_ref().ok_or(BenchError::MissingBaseline)?;
        gate(
            "accesses/sec",
            self.accesses_per_sec(),
            baseline.accesses_per_sec,
            tolerance,
        )?;
        gate(
            "cells/sec",
            self.cells_per_sec,
            baseline.cells_per_sec,
            tolerance,
        )?;
        Ok(baseline)
    }
}

/// The regression gate shared by the two check flavors.
fn gate(metric: &'static str, now: f64, then: f64, tolerance: f64) -> Result<(), BenchError> {
    if then > 0.0 && now < then * (1.0 - tolerance) {
        Err(BenchError::Regression {
            metric,
            now,
            then,
            tolerance,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            suite: "smoke".into(),
            cores: 4,
            epochs: 3,
            epoch_cycles: 200_000,
            seed: 0xC0FFEE,
            jobs: 2,
            backends: vec![
                BenchBackend {
                    policy: "(4:1:1)".into(),
                    workload: "gcc+hmmer+mcf+libq".into(),
                    accesses: 100_000,
                    wall_seconds: 0.5,
                    accesses_per_sec: 200_000.0,
                },
                BenchBackend {
                    policy: "MorphCache".into(),
                    workload: "gcc+hmmer+mcf+libq".into(),
                    accesses: 110_000,
                    wall_seconds: 0.5,
                    accesses_per_sec: 220_000.0,
                },
            ],
            wall_seconds: 0.6,
            cells_per_sec: 3.3,
            parallel_speedup: 1.7,
            baseline: Some(BenchBaseline {
                label: "pre-change".into(),
                accesses_per_sec: 100_000.0,
                cells_per_sec: 2.0,
            }),
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample();
        let text = r.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        // Byte-stable: rendering the parse reproduces the text.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn aggregates() {
        let r = sample();
        assert_eq!(r.total_accesses(), 210_000);
        assert!((r.serial_seconds() - 1.0).abs() < 1e-12);
        assert!((r.accesses_per_sec() - 210_000.0).abs() < 1e-6);
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert_eq!(
            BenchReport::from_json("{}").unwrap_err(),
            BenchError::Field {
                field: "schema".into(),
                expected: "string",
            }
        );
        assert!(matches!(
            BenchReport::from_json("not json").unwrap_err(),
            BenchError::Syntax(_)
        ));
        let wrong = sample().to_json().replace("morph-bench/v1", "other/v9");
        let err = BenchReport::from_json(&wrong).unwrap_err();
        assert_eq!(
            err,
            BenchError::Schema {
                found: "other/v9".into()
            }
        );
        assert!(err.to_string().contains("unsupported schema"), "{err}");
        let no_backends = sample()
            .to_json()
            .replace("\"backends\": [", "\"backends_gone\": [");
        assert_eq!(
            BenchReport::from_json(&no_backends).unwrap_err(),
            BenchError::Field {
                field: "backends".into(),
                expected: "array",
            }
        );
    }

    #[test]
    fn regression_gate() {
        let base = sample();
        let mut fast = sample();
        // 2x faster: passes any tolerance.
        for b in &mut fast.backends {
            b.wall_seconds /= 2.0;
        }
        fast.cells_per_sec *= 2.0;
        assert!(fast.check_against(&base, 0.2).is_ok());
        // 40% slower on the hot path: fails a 20% gate.
        let mut slow = sample();
        for b in &mut slow.backends {
            b.wall_seconds /= 0.6;
        }
        let err = slow.check_against(&base, 0.2).unwrap_err();
        assert!(
            matches!(
                err,
                BenchError::Regression {
                    metric: "accesses/sec",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("accesses/sec regressed"), "{err}");
        // Suite mismatch is refused outright.
        let mut other = sample();
        other.suite = "default".into();
        assert!(matches!(
            other.check_against(&base, 0.2).unwrap_err(),
            BenchError::SuiteMismatch { .. }
        ));
    }

    #[test]
    fn embedded_baseline_gate() {
        // sample() embeds a baseline far below the report: passes.
        let r = sample();
        let b = r.check_embedded(0.2).unwrap();
        assert_eq!(b.label, "pre-change");
        // A report without a baseline block fails with the typed variant.
        let mut bare = sample();
        bare.baseline = None;
        assert_eq!(
            bare.check_embedded(0.2).unwrap_err(),
            BenchError::MissingBaseline
        );
        // A regression against the embedded baseline is caught.
        let mut slow = sample();
        if let Some(base) = slow.baseline.as_mut() {
            base.cells_per_sec = slow.cells_per_sec * 10.0;
        }
        assert!(matches!(
            slow.check_embedded(0.2).unwrap_err(),
            BenchError::Regression {
                metric: "cells/sec",
                ..
            }
        ));
    }
}
