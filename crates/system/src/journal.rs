//! Checkpoint journal for supervised matrix runs.
//!
//! A [`RunJournal`] is a run directory holding a `manifest.json` (the
//! configuration/cell fingerprint, schema `morph-journal/v1`) and one
//! `cell_<i>.json` per completed cell. The supervisor records each cell
//! as soon as it completes — atomically, via a temp-file rename — so a
//! mid-run kill loses at most the in-flight cells. Resuming against the
//! same directory validates the manifest (a changed configuration or cell
//! list is a typed [`MorphError::Journal`], never a silent mix of stale
//! and fresh results) and loads the recorded cells back bit-identically:
//! cell results are pure functions of (config, workload, policy, seed)
//! and the JSON codec round-trips `f64` exactly, so a resumed matrix
//! equals an uninterrupted one byte for byte.
//!
//! The manifest stores the configuration and the cells as strings, seeds
//! included: a `u64` seed can exceed 2^53 and would silently lose
//! precision as a JSON number.

use crate::config::SystemConfig;
use crate::experiment::{MatrixCell, RunResult};
use crate::sim::EpochResult;
use morph_metrics::Json;
use morphcache::MorphError;
use std::path::{Path, PathBuf};

/// Version tag of the journal's manifest and cell files.
pub const JOURNAL_SCHEMA: &str = "morph-journal/v1";

/// The manifest's file name; a directory holding one is a journal.
const MANIFEST: &str = "manifest.json";

/// An open checkpoint journal: the run directory plus the cell results
/// recovered from a previous (interrupted) run against it.
#[derive(Debug)]
pub struct RunJournal {
    dir: PathBuf,
    cached: Vec<Option<(RunResult, f64)>>,
}

impl RunJournal {
    /// Opens (resuming) or creates the journal at `dir` for a matrix of
    /// `cells` under `cfg`.
    ///
    /// A fresh directory gets a manifest; an existing one must carry a
    /// manifest matching this run's fingerprint exactly, and every
    /// readable `cell_<i>.json` in range becomes a cached result.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Journal`] on I/O failure, a manifest that
    /// does not match this run, or a cell file that is corrupt or
    /// belongs to a different cell.
    pub fn open(dir: &Path, cfg: &SystemConfig, cells: &[MatrixCell]) -> Result<Self, MorphError> {
        let io = |what: &str, e: std::io::Error| {
            MorphError::Journal(format!("{what} {}: {e}", dir.display()))
        };
        std::fs::create_dir_all(dir).map_err(|e| io("creating", e))?;
        let manifest = manifest_json(cfg, cells).render();
        let manifest_path = dir.join(MANIFEST);
        if manifest_path.exists() {
            let found = std::fs::read_to_string(&manifest_path)
                .map_err(|e| io("reading manifest in", e))?;
            if found != manifest {
                return Err(MorphError::Journal(format!(
                    "manifest mismatch in {}: the journal was recorded for a \
                     different configuration or cell list; use a fresh run \
                     directory",
                    dir.display()
                )));
            }
        } else {
            write_atomic(dir, MANIFEST, &manifest)?;
        }
        let mut cached = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let path = dir.join(format!("cell_{i}.json"));
            if path.exists() {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| MorphError::Journal(format!("reading {}: {e}", path.display())))?;
                cached.push(Some(parse_cell(&text, i, cell).map_err(|why| {
                    MorphError::Journal(format!("{}: {why}", path.display()))
                })?));
            } else {
                cached.push(None);
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            cached,
        })
    }

    /// [`open`](Self::open) for a run that continues an earlier one:
    /// `dir` must already hold a journal, so a missing or mistyped
    /// directory fails instead of silently starting over.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Journal`] if `dir` has no manifest, before
    /// creating anything, and otherwise the errors of
    /// [`open`](Self::open).
    pub fn resume(
        dir: &Path,
        cfg: &SystemConfig,
        cells: &[MatrixCell],
    ) -> Result<Self, MorphError> {
        if !dir.join(MANIFEST).is_file() {
            return Err(MorphError::Journal(format!(
                "nothing to resume: {} holds no {MANIFEST}",
                dir.display()
            )));
        }
        Self::open(dir, cfg, cells)
    }

    /// Results recovered from a previous run, in cell order (`None` for
    /// cells that still need to run). `seconds` is the recorded compute
    /// time of the original run.
    pub fn cached(&self) -> &[Option<(RunResult, f64)>] {
        &self.cached
    }

    /// Number of cells already recorded.
    pub fn cached_cells(&self) -> usize {
        self.cached.iter().filter(|c| c.is_some()).count()
    }

    /// Records cell `index`'s result atomically (temp file + rename), so
    /// a kill mid-write never leaves a torn cell file.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Journal`] on I/O failure.
    pub fn record(&self, index: usize, result: &RunResult, seconds: f64) -> Result<(), MorphError> {
        write_atomic(
            &self.dir,
            &format!("cell_{index}.json"),
            &cell_json(index, result, seconds).render(),
        )
    }
}

/// Writes `name` under `dir` atomically: the content lands in a `.tmp`
/// sibling first and is renamed into place (rename is atomic on POSIX).
fn write_atomic(dir: &Path, name: &str, content: &str) -> Result<(), MorphError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    std::fs::write(&tmp, content)
        .map_err(|e| MorphError::Journal(format!("writing {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| MorphError::Journal(format!("renaming into {}: {e}", path.display())))
}

/// The manifest document: everything that determines every cell's result.
/// Two runs agree on the journal iff their manifests render identically.
/// It holds the whole configuration and every cell in their `Debug`
/// renderings, the key the figures' run table uses too; a display name
/// is no key, since "4 apps" names every four-app list.
fn manifest_json(cfg: &SystemConfig, cells: &[MatrixCell]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(JOURNAL_SCHEMA.into())),
        ("config".into(), Json::Str(format!("{cfg:?}"))),
        (
            "cells".into(),
            Json::Arr(cells.iter().map(|c| Json::Str(format!("{c:?}"))).collect()),
        ),
    ])
}

/// One completed cell as a journal document.
fn cell_json(index: usize, result: &RunResult, seconds: f64) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(JOURNAL_SCHEMA.into())),
        ("index".into(), Json::Num(index as f64)),
        ("policy".into(), Json::Str(result.policy_name.clone())),
        ("workload".into(), Json::Str(result.workload_name.clone())),
        ("seconds".into(), Json::Num(seconds)),
        (
            "epochs".into(),
            Json::Arr(result.epochs.iter().map(epoch_json).collect()),
        ),
    ])
}

fn epoch_json(e: &EpochResult) -> Json {
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let ints = |xs: &[u64]| Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect());
    Json::Obj(vec![
        ("epoch".into(), Json::Num(e.epoch as f64)),
        ("ipcs".into(), nums(&e.ipcs)),
        ("misses_by_core".into(), ints(&e.misses_by_core)),
        ("accesses".into(), Json::Num(e.accesses as f64)),
        ("accesses_by_core".into(), ints(&e.accesses_by_core)),
        (
            "reconfig_events".into(),
            Json::Num(e.reconfig_events as f64),
        ),
        (
            "asymmetric_events".into(),
            Json::Num(e.asymmetric_events as f64),
        ),
        ("asymmetric".into(), Json::Bool(e.asymmetric)),
        ("l2_grouping".into(), Json::Str(e.l2_grouping.clone())),
        ("l3_grouping".into(), Json::Str(e.l3_grouping.clone())),
        (
            "chosen_topology".into(),
            match &e.chosen_topology {
                Some(t) => Json::Str(t.clone()),
                None => Json::Null,
            },
        ),
    ])
}

/// Parses and validates one `cell_<i>.json` against the cell it claims to
/// record. Errors are plain strings; the caller wraps them with the path.
fn parse_cell(text: &str, index: usize, cell: &MatrixCell) -> Result<(RunResult, f64), String> {
    let v = Json::parse(text)?;
    let str_field = |obj: &Json, key: &str| -> Result<String, String> {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string `{key}`"))
    };
    let num = |obj: &Json, key: &str| -> Result<f64, String> {
        obj.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric `{key}`"))
    };
    let int = |obj: &Json, key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer `{key}`"))
    };
    let schema = str_field(&v, "schema")?;
    if schema != JOURNAL_SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}` (want {JOURNAL_SCHEMA})"
        ));
    }
    if int(&v, "index")? != index as u64 {
        return Err(format!(
            "file records cell {}, not {index}",
            int(&v, "index")?
        ));
    }
    let policy_name = str_field(&v, "policy")?;
    let workload_name = str_field(&v, "workload")?;
    if policy_name != cell.policy.name() || workload_name != cell.workload.name() {
        return Err(format!(
            "file records ({workload_name}, {policy_name}); the matrix expects ({}, {})",
            cell.workload.name(),
            cell.policy.name()
        ));
    }
    let seconds = num(&v, "seconds")?;
    let mut epochs = Vec::new();
    for e in v
        .get("epochs")
        .and_then(Json::as_arr)
        .ok_or("missing `epochs` array")?
    {
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            e.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing `{key}` array"))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("non-numeric in `{key}`")))
                .collect()
        };
        let uints = |key: &str| -> Result<Vec<u64>, String> {
            e.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing `{key}` array"))?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| format!("non-integer in `{key}`")))
                .collect()
        };
        epochs.push(EpochResult {
            epoch: int(e, "epoch")?,
            ipcs: floats("ipcs")?,
            misses_by_core: uints("misses_by_core")?,
            accesses: int(e, "accesses")?,
            accesses_by_core: uints("accesses_by_core")?,
            reconfig_events: int(e, "reconfig_events")? as usize,
            asymmetric_events: int(e, "asymmetric_events")? as usize,
            asymmetric: match e.get("asymmetric") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing or non-boolean `asymmetric`".into()),
            },
            l2_grouping: str_field(e, "l2_grouping")?,
            l3_grouping: str_field(e, "l3_grouping")?,
            chosen_topology: match e.get("chosen_topology") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s.clone()),
                Some(_) => return Err("non-string `chosen_topology`".into()),
            },
        });
    }
    Ok((
        RunResult {
            policy_name,
            workload_name,
            epochs,
        },
        seconds,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_workload;
    use crate::policy::Policy;
    use crate::workload::Workload;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("morph-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_matrix() -> (SystemConfig, Vec<MatrixCell>) {
        let cfg = SystemConfig::quick_test(4).with_epochs(2);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let cells = vec![
            MatrixCell::new(w.clone(), Policy::baseline(4), 1),
            MatrixCell::new(w, Policy::Pipp, 2),
        ];
        (cfg, cells)
    }

    #[test]
    fn record_and_reload_bit_identical() {
        let (cfg, cells) = small_matrix();
        let dir = temp_dir("roundtrip");
        let journal = RunJournal::open(&dir, &cfg, &cells).unwrap();
        assert_eq!(journal.cached_cells(), 0);
        let r = run_workload(
            &cfg.with_seed(cells[0].seed),
            &cells[0].workload,
            &cells[0].policy,
        )
        .unwrap();
        journal.record(0, &r, 1.25).unwrap();
        // Reopen: cell 0 is cached bit-identically, cell 1 is not.
        let resumed = RunJournal::open(&dir, &cfg, &cells).unwrap();
        assert_eq!(resumed.cached_cells(), 1);
        let (cached, secs) = resumed.cached()[0].clone().unwrap();
        assert_eq!(cached, r);
        assert_eq!(secs, 1.25);
        assert!(resumed.cached()[1].is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_needs_an_existing_journal() {
        let (cfg, cells) = small_matrix();
        let dir = temp_dir("resume");
        let err = RunJournal::resume(&dir, &cfg, &cells).unwrap_err();
        assert!(matches!(err, MorphError::Journal(_)), "{err}");
        assert!(!dir.exists(), "a failed resume creates nothing");
        RunJournal::open(&dir, &cfg, &cells).unwrap();
        let resumed = RunJournal::resume(&dir, &cfg, &cells).unwrap();
        assert_eq!(resumed.cached_cells(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_mismatch_is_a_typed_error() {
        let (cfg, cells) = small_matrix();
        let dir = temp_dir("mismatch");
        RunJournal::open(&dir, &cfg, &cells).unwrap();
        // Different seed → different manifest → refuse to resume.
        let other = cfg.with_seed(999);
        let err = RunJournal::open(&dir, &other, &cells).unwrap_err();
        assert!(matches!(err, MorphError::Journal(_)), "{err}");
        assert!(err.to_string().contains("manifest mismatch"), "{err}");
        // Different cell list too.
        let fewer = &cells[..1];
        let err = RunJournal::open(&dir, &cfg, fewer).unwrap_err();
        assert!(matches!(err, MorphError::Journal(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_covers_each_app_and_the_hierarchy() {
        let (cfg, cells) = small_matrix();
        let dir = temp_dir("identity");
        RunJournal::open(&dir, &cfg, &cells).unwrap();
        // Another list of four apps: the same "4 apps" display name.
        let other = Workload::named_apps(&["lbm", "milc", "astar", "sjeng"]).unwrap();
        assert_eq!(other.name(), cells[0].workload.name());
        let swapped: Vec<MatrixCell> = cells
            .iter()
            .map(|c| MatrixCell::new(other.clone(), c.policy.clone(), c.seed))
            .collect();
        let err = RunJournal::open(&dir, &cfg, &swapped).unwrap_err();
        assert!(matches!(err, MorphError::Journal(_)), "{err}");
        // The same cells on a different hierarchy.
        let mut bigger = cfg;
        let l2_bytes = 2 * cfg.hierarchy.l2_slice.capacity_bytes();
        bigger.hierarchy = cfg.hierarchy.with_l2_capacity(l2_bytes).unwrap();
        let err = RunJournal::open(&dir, &bigger, &cells).unwrap_err();
        assert!(matches!(err, MorphError::Journal(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cell_file_is_a_typed_error() {
        let (cfg, cells) = small_matrix();
        let dir = temp_dir("corrupt");
        let journal = RunJournal::open(&dir, &cfg, &cells).unwrap();
        let r = run_workload(
            &cfg.with_seed(cells[0].seed),
            &cells[0].workload,
            &cells[0].policy,
        )
        .unwrap();
        journal.record(0, &r, 0.5).unwrap();
        std::fs::write(dir.join("cell_0.json"), "{ not json").unwrap();
        let err = RunJournal::open(&dir, &cfg, &cells).unwrap_err();
        assert!(matches!(err, MorphError::Journal(_)), "{err}");
        // A cell file recorded for the wrong cell is refused as well.
        let text = cell_json(0, &r, 0.5).render();
        std::fs::write(dir.join("cell_0.json"), &text).unwrap();
        std::fs::write(
            dir.join("cell_1.json"),
            text.replace("\"index\": 0", "\"index\": 1"),
        )
        .unwrap();
        let err = RunJournal::open(&dir, &cfg, &cells).unwrap_err();
        assert!(err.to_string().contains("the matrix expects"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
