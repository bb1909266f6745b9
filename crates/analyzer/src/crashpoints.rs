//! The `journal-crash-point` pass: an exhaustive model check of the
//! `morph-journal/v1` commit sequence (`crates/system/src/journal.rs`),
//! in the style of the pinned lattice enumeration.
//!
//! # The model
//!
//! A journal run for `k` cells issues `2 + 2k` filesystem operations, in
//! order: write `manifest.json.tmp`, rename it over `manifest.json`,
//! then per cell `i` write `cell_<i>.json.tmp` and rename it over
//! `cell_<i>.json`.
//!
//! Two enumerations cover every interruption:
//!
//! * **Ordered crash points** — the process dies between two operations
//!   (`ops + 1` prefixes) or mid-write, leaving a torn `.tmp` file the
//!   resume path must ignore (one variant per write op). Total:
//!   `(2k + 3) + (k + 1) = 3k + 4` points — `16` at the supervisor's
//!   4-cell fixture. At every point resume must be **clean**: it caches
//!   exactly the fully-renamed cells and never errors.
//! * **Persistence states** — without an fsync barrier the filesystem
//!   may durably persist *any subset* of the issued operations. For
//!   every crash point `p` each of the `2^p` subsets is enumerated:
//!   `sum(2^p, p = 0..=ops) = 2^(ops+1) - 1` states — `2047` at 4
//!   cells. A rename that became durable without its write leaves a
//!   **torn** target file; resume must surface it as a typed
//!   `MorphError::Journal`-style error or resume cleanly from intact
//!   files — never silently cache corrupt data.
//!
//! The pass also checks the *source* against the model's assumptions
//! (only in files carrying the `morph-journal` schema literal): the
//! `write_atomic` helper must exist and write before renaming through a
//! `.tmp` path, no other non-test function may call `fs::write` /
//! `fs::rename` directly, and the manifest must be named before the
//! first cell file in the open/validate path.

use crate::lexer::TokenKind;
use crate::lint::Finding;
use crate::model::Workspace;
use std::collections::BTreeSet;

/// Largest `cells` the sweep accepts (`2^(2·cells + 3)` states).
pub const MAX_MODEL_CELLS: usize = 10;

/// Number of cells in the supervisor's journal fixture; the pass pins
/// its counts at this size.
pub const PASS_MODEL_CELLS: usize = 4;

/// Result of the crash-point model check.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPointReport {
    /// Cells in the modeled run.
    pub cells: usize,
    /// Filesystem operations in the commit sequence (`2 + 2k`).
    pub ops: usize,
    /// Ordered interruption points enumerated (`3k + 4`).
    pub ordered_points: usize,
    /// Persistence-subset states enumerated (`2^(ops+1) - 1`).
    pub persistence_states: u64,
    /// States resuming cleanly (fresh start or cached intact cells).
    pub clean_resumes: u64,
    /// States surfacing a typed error (torn manifest or torn cell).
    pub typed_error_resumes: u64,
    /// Invariant violations (empty on a correct commit sequence).
    pub violations: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FileId {
    Manifest,
    Cell(usize),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FileState {
    Absent,
    Torn,
    Full,
}

enum Outcome {
    /// Resume succeeded; the set holds the cached cell indices (empty
    /// also covers the fresh-start path when the manifest is absent).
    Clean(BTreeSet<usize>),
    /// Resume surfaced a typed journal error.
    TypedError,
}

/// Runs the exhaustive crash-point enumeration for a `cells`-cell run.
///
/// # Errors
///
/// Returns a message if `cells` is zero or exceeds [`MAX_MODEL_CELLS`].
pub fn model_check(cells: usize) -> Result<CrashPointReport, String> {
    if cells == 0 || cells > MAX_MODEL_CELLS {
        return Err(format!(
            "cells must be in 1..={MAX_MODEL_CELLS}, got {cells}"
        ));
    }
    // The commit sequence: (write tmp, rename) for the manifest, then
    // for each cell in order. Even indices write, odd indices rename.
    let mut seq: Vec<FileId> = vec![FileId::Manifest, FileId::Manifest];
    for i in 0..cells {
        seq.push(FileId::Cell(i));
        seq.push(FileId::Cell(i));
    }
    let ops = seq.len();
    let mut violations = Vec::new();

    // --- ordered crash points -------------------------------------
    let mut ordered_points = 0usize;
    for p in 0..=ops {
        ordered_points += 1;
        let durable: u64 = (1u64 << p) - 1;
        check_state(cells, &seq, durable, Some(p), &mut violations);
    }
    for w in (0..ops).step_by(2) {
        // Crash mid-write: the prefix before op `w` completed and op
        // `w`'s `.tmp` file is torn on disk. Resume ignores `.tmp`
        // files, so the outcome must match the plain prefix — the
        // variant exists to pin exactly that.
        ordered_points += 1;
        let durable: u64 = (1u64 << w) - 1;
        check_state(cells, &seq, durable, Some(w), &mut violations);
    }

    // --- persistence-subset sweep ---------------------------------
    let mut persistence_states = 0u64;
    let mut clean_resumes = 0u64;
    let mut typed_error_resumes = 0u64;
    for p in 0..=ops {
        for durable in 0..(1u64 << p) {
            persistence_states += 1;
            match resume(cells, &seq, durable) {
                Outcome::Clean(resumed) => {
                    clean_resumes += 1;
                    // Clean resume must only ever cache fully-durable
                    // cells — bit-identical content, never torn bytes.
                    for &i in &resumed {
                        if file_state(&seq, durable, FileId::Cell(i)) != FileState::Full {
                            violations.push(format!(
                                "state {durable:#b}/{p}: resumed cell {i} is not intact"
                            ));
                        }
                    }
                }
                Outcome::TypedError => typed_error_resumes += 1,
            }
        }
    }

    Ok(CrashPointReport {
        cells,
        ops,
        ordered_points,
        persistence_states,
        clean_resumes,
        typed_error_resumes,
        violations,
    })
}

/// The durable state of `file` given the bitmask of durable ops.
fn file_state(seq: &[FileId], durable: u64, file: FileId) -> FileState {
    let mut write_done = false;
    for (idx, &f) in seq.iter().enumerate() {
        if f != file {
            continue;
        }
        let done = durable >> idx & 1 == 1;
        if idx % 2 == 0 {
            write_done = done;
        } else if done {
            // Rename is durable: the target exists — intact only if the
            // tmp content made it to disk first.
            return if write_done {
                FileState::Full
            } else {
                FileState::Torn
            };
        }
    }
    FileState::Absent
}

/// Simulates `RunJournal::open` on the durable state: validate the
/// manifest first, then parse each `cell_<i>.json` present.
fn resume(cells: usize, seq: &[FileId], durable: u64) -> Outcome {
    match file_state(seq, durable, FileId::Manifest) {
        // No manifest: a fresh run directory; nothing cached.
        FileState::Absent => Outcome::Clean(BTreeSet::new()),
        // A torn manifest fails to parse/validate: typed error.
        FileState::Torn => Outcome::TypedError,
        FileState::Full => {
            let mut resumed = BTreeSet::new();
            for i in 0..cells {
                match file_state(seq, durable, FileId::Cell(i)) {
                    FileState::Absent => {}
                    FileState::Torn => return Outcome::TypedError,
                    FileState::Full => {
                        resumed.insert(i);
                    }
                }
            }
            Outcome::Clean(resumed)
        }
    }
}

/// Asserts the ordered-crash invariants for one in-order prefix state:
/// resume is clean and caches exactly the fully-renamed cells.
fn check_state(
    cells: usize,
    seq: &[FileId],
    durable: u64,
    point: Option<usize>,
    violations: &mut Vec<String>,
) {
    let label = point.map_or_else(String::new, |p| format!("crash point {p}"));
    let expected: BTreeSet<usize> = (0..cells)
        .filter(|&i| {
            let rename_idx = 3 + 2 * i;
            durable >> rename_idx & 1 == 1
        })
        .collect();
    match resume(cells, seq, durable) {
        Outcome::Clean(resumed) => {
            if resumed != expected {
                violations.push(format!(
                    "{label}: resumed {resumed:?}, expected {expected:?}"
                ));
            }
            // The in-order sequence renames cell i only after the
            // manifest and cells 0..i: the cached set must be a prefix.
            if resumed.iter().enumerate().any(|(k, &i)| k != i) {
                violations.push(format!("{label}: cached set {resumed:?} is not a prefix"));
            }
            if !resumed.is_empty() && file_state(seq, durable, FileId::Manifest) != FileState::Full
            {
                violations.push(format!("{label}: cells cached without a manifest"));
            }
        }
        Outcome::TypedError => {
            violations.push(format!("{label}: in-order crash must resume cleanly"));
        }
    }
}

/// Runs the `journal-crash-point` pass: the model check at the pinned
/// fixture size plus source conformance for journal files.
pub fn journal_crash_point(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !has_schema_literal(f) {
            continue;
        }
        check_source_conformance(f, &mut out);
        match model_check(PASS_MODEL_CELLS) {
            Ok(report) => {
                for v in report.violations {
                    out.push(Finding {
                        file: f.path.clone(),
                        line: 1,
                        rule: "journal-crash-point".into(),
                        message: format!("commit-sequence model violation: {v}"),
                    });
                }
            }
            Err(e) => out.push(Finding {
                file: f.path.clone(),
                line: 1,
                rule: "journal-crash-point".into(),
                message: format!("model check failed to run: {e}"),
            }),
        }
    }
    out.sort();
    out.dedup();
    out
}

/// True if the file carries the versioned `morph-journal/v` schema
/// literal in non-test code — the marker that it implements the journal
/// protocol (a pass *describing* the journal, or a test fixture quoting
/// the schema, must not trip the gate).
fn has_schema_literal(f: &crate::model::SourceFile) -> bool {
    // Assembled at compile time so this file's own source never carries
    // the schema marker in one literal (it would gate itself).
    let marker = concat!("morph-", "journal/v");
    f.tokens.iter().any(|t| {
        t.kind == TokenKind::Literal && !f.test_lines.contains(&t.line) && t.text.contains(marker)
    })
}

/// Checks the journal source against the model's assumptions.
fn check_source_conformance(f: &crate::model::SourceFile, out: &mut Vec<Finding>) {
    let mut push = |line: u32, message: String| {
        out.push(Finding {
            file: f.path.clone(),
            line,
            rule: "journal-crash-point".into(),
            message,
        });
    };

    // 1. `write_atomic` exists and writes the tmp file before renaming.
    match f
        .fns
        .iter()
        .find(|g| g.name == "write_atomic" && !g.is_test)
    {
        None => push(
            1,
            "journal file has no `write_atomic` helper; the crash-point model \
             assumes all durable writes are tmp-write-then-rename"
                .into(),
        ),
        Some(g) => {
            let pos = |name: &str| {
                g.calls
                    .iter()
                    .position(|c| !c.is_method && c.callee == name)
            };
            match (pos("write"), pos("rename")) {
                (Some(w), Some(r)) if w < r => {}
                _ => push(
                    g.line,
                    "`write_atomic` must write the tmp file before renaming it \
                     over the target"
                        .into(),
                ),
            }
        }
    }

    // 2. No other non-test function calls fs::write / fs::rename
    //    directly — every durable write must flow through write_atomic.
    for g in &f.fns {
        if g.is_test || g.name == "write_atomic" {
            continue;
        }
        for c in &g.calls {
            if !c.is_method && (c.callee == "write" || c.callee == "rename") {
                push(
                    c.line,
                    format!(
                        "direct `{}` call outside `write_atomic` in `{}`; a crash \
                         here can leave a torn non-tmp file the resume path would \
                         read",
                        c.callee, g.name
                    ),
                );
            }
        }
    }

    // 3. The `.tmp` suffix literal exists (resume filters on it).
    let non_test_literals: Vec<&crate::lexer::Token> = f
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Literal && !f.test_lines.contains(&t.line))
        .collect();
    if !non_test_literals.iter().any(|t| t.text.contains(".tmp")) {
        push(
            1,
            "journal file never names a `.tmp` path; atomic replace requires \
             staging through a tmp file the resume path ignores"
                .into(),
        );
    }

    // 4. The open/validate path names the manifest before any cell file.
    let first = |needle: &str| {
        non_test_literals
            .iter()
            .find(|t| t.text.contains(needle))
            .map(|t| t.line)
    };
    if let (Some(m), Some(c)) = (first("manifest"), first("cell_")) {
        if c < m {
            push(
                c,
                "cell files are named before the manifest; resume must validate \
                 the manifest before trusting any cell"
                    .into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_file;

    #[test]
    fn pinned_counts_at_four_cells() {
        let r = model_check(4).unwrap();
        assert_eq!(r.ops, 10);
        assert_eq!(r.ordered_points, 16);
        assert_eq!(r.persistence_states, 2047);
        assert_eq!(r.clean_resumes + r.typed_error_resumes, 2047);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn closed_forms_hold_across_sizes() {
        for k in 1..=6 {
            let r = model_check(k).unwrap();
            assert_eq!(r.ops, 2 + 2 * k);
            assert_eq!(r.ordered_points, 3 * k + 4);
            assert_eq!(r.persistence_states, (1u64 << (r.ops + 1)) - 1);
            assert!(r.violations.is_empty(), "k={k}: {:?}", r.violations);
        }
    }

    #[test]
    fn size_bounds_are_enforced() {
        assert!(model_check(0).is_err());
        assert!(model_check(MAX_MODEL_CELLS + 1).is_err());
    }

    #[test]
    fn conforming_journal_source_is_clean() {
        let src = "const SCHEMA: &str = \"morph-journal/v1\";\n\
                   fn open(dir: &Path) -> Result<(), E> {\n\
                       let m = read(dir.join(\"manifest.json\"))?;\n\
                       let c = read(dir.join(\"cell_0.json\"))?;\n\
                       Ok(())\n\
                   }\n\
                   fn write_atomic(dir: &Path, name: &str) -> Result<(), E> {\n\
                       let tmp = dir.join(format!(\"{name}.tmp\"));\n\
                       std::fs::write(&tmp, b\"x\").map_err(err)?;\n\
                       std::fs::rename(&tmp, dir.join(name)).map_err(err)\n\
                   }\n";
        let f = journal_crash_point(&Workspace {
            files: vec![parse_file("j.rs", src)],
        });
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direct_write_outside_write_atomic_fires() {
        let src = "const SCHEMA: &str = \"morph-journal/v1\";\n\
                   fn record(dir: &Path) {\n\
                       std::fs::write(dir.join(\"manifest.json\"), b\"x\");\n\
                       let c = \"cell_0.json\";\n\
                   }\n\
                   fn write_atomic(dir: &Path) {\n\
                       let t = \".tmp\";\n\
                       std::fs::write(t, b\"x\");\n\
                       std::fs::rename(t, t);\n\
                   }\n";
        let f = journal_crash_point(&Workspace {
            files: vec![parse_file("j.rs", src)],
        });
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("outside `write_atomic`"));
    }

    #[test]
    fn rename_before_write_fires() {
        let src = "const SCHEMA: &str = \"morph-journal/v1\";\n\
                   fn write_atomic(dir: &Path) {\n\
                       let t = \"manifest cell_ .tmp\";\n\
                       std::fs::rename(t, t);\n\
                       std::fs::write(t, b\"x\");\n\
                   }\n";
        let f = journal_crash_point(&Workspace {
            files: vec![parse_file("j.rs", src)],
        });
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("before renaming"));
    }

    #[test]
    fn non_journal_files_are_ignored() {
        let src = "fn f(dir: &Path) { std::fs::write(dir, b\"x\"); }\n";
        let f = journal_crash_point(&Workspace {
            files: vec![parse_file("x.rs", src)],
        });
        assert!(f.is_empty());
    }
}
