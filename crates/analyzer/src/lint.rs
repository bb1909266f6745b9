//! The `morph-lint` rule engine: determinism and robustness lints over
//! the workspace's library source, driven by the token stream of
//! [`crate::lexer`]. [`PassManager`](crate::passes::PassManager) runs
//! each rule as a pass and owns the exemption and suppression matching.
//!
//! # Rules
//!
//! | rule | fires on | why |
//! |------|----------|-----|
//! | `no-default-hasher-iteration` | `HashMap` / `HashSet` | default-hasher iteration order is randomized per process; simulator state must iterate deterministically (`BTreeMap`/`BTreeSet` or a seeded hasher) |
//! | `no-wallclock` | `std::time`, `Instant`, `SystemTime` | cell results must be pure functions of (config, workload, policy, seed); wall-clock belongs only in `morph-metrics::timing` |
//! | `no-panic-in-lib` | `.unwrap(` / `.expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` | library crates report failures through `MorphError`; a panic in a worker poisons the whole matrix |
//! | `no-foreign-rng` | `rand`, `thread_rng`, `OsRng`, ... | all randomness flows through the vendored `morph-core::rng` so a seed fully determines a run |
//! | `no-unapproved-thread-state` | `std::thread`, `std::sync`, `Mutex`, atomics, ... | shared mutable state outside the audited matrix work queue (`experiment.rs`, `supervisor.rs`) can break the jobs=1 ≡ jobs=N guarantee |
//!
//! Test code (`#[test]` functions and `#[cfg(test)]` modules) is exempt:
//! panicking asserts and ad-hoc hash containers are idiomatic there.
//! Binary targets (`main.rs`, `src/bin/`) are not linted either — a CLI
//! panicking at its operator is an interface, not a bug.
//!
//! # Suppressions
//!
//! A finding is suppressed by an inline comment on the same line or the
//! line directly above:
//!
//! ```text
//! // morph-lint: allow(no-panic-in-lib, reason = "groups partition 0..n, checked every epoch")
//! let g = groups.iter().find(|g| g.contains(&s)).expect("partitioned");
//! ```
//!
//! The reason is mandatory; a malformed directive is itself reported
//! under the pseudo-rule `bad-suppression` so silent typos cannot
//! disable a rule.

use crate::lexer::{Token, TokenKind};

/// Names of the five line-level lint rules, in reporting order.
pub const RULE_NAMES: [&str; 5] = [
    "no-default-hasher-iteration",
    "no-wallclock",
    "no-panic-in-lib",
    "no-foreign-rng",
    "no-unapproved-thread-state",
];

/// Every rule an `allow(...)` directive may name: the five line rules
/// plus the three interprocedural passes (see [`crate::passes`]). The
/// pseudo-rules `bad-suppression` and `stale-allow` are deliberately
/// absent — the suppression machinery itself cannot be suppressed.
pub const SUPPRESSIBLE_RULES: [&str; 8] = [
    "no-default-hasher-iteration",
    "no-wallclock",
    "no-panic-in-lib",
    "no-foreign-rng",
    "no-unapproved-thread-state",
    "panic-reachability",
    "epoch-protocol",
    "journal-crash-point",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path of the offending file, as given to the linter.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`RULE_NAMES`] or `bad-suppression`).
    pub rule: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `morph-lint: allow(rule[, rule...], reason = "...")`
/// directive. One directive may allow several rules at once (a line can
/// legitimately trip two rules); the reason applies to all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rules being allowed (at least one).
    pub rules: Vec<String>,
    /// The justification (mandatory, non-empty).
    pub reason: String,
    /// Line the directive appears on.
    pub line: u32,
}

impl Suppression {
    /// True if this directive covers `rule` findings on `line` (the
    /// directive's own line or the line directly below it).
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rules.iter().any(|r| r == rule) && (self.line == line || self.line + 1 == line)
    }
}

/// Files exempt from a rule, as path suffixes. The exemptions are part of
/// the rule definitions: they name the single audited module allowed to
/// use the capability.
pub(crate) fn exempt_suffixes(rule: &str) -> &'static [&'static str] {
    match rule {
        // Wall-clock accounting is confined to the timing module of
        // morph-metrics; everything else (including experiment.rs) takes
        // its stopwatches from there.
        "no-wallclock" => &["crates/metrics/src/timing.rs"],
        // The vendored PRNG implementation itself.
        "no-foreign-rng" => &["crates/core/src/rng.rs"],
        // The audited scoped-thread work queue of the parallel matrix and
        // the supervised-execution layer on top of it (worker threads,
        // cancel tokens, shutdown flag).
        "no-unapproved-thread-state" => &[
            "crates/system/src/experiment.rs",
            "crates/system/src/supervisor.rs",
        ],
        _ => &[],
    }
}

/// Extracts suppression directives from comment tokens; malformed
/// directives are reported as `bad-suppression` findings.
pub(crate) fn collect_suppressions(
    path: &str,
    tokens: &[Token],
    suppressions: &mut Vec<Suppression>,
    findings: &mut Vec<Finding>,
) {
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) describe the
        // directive syntax without being directives; only plain comments
        // carry suppressions.
        if t.text.starts_with('/') || t.text.starts_with('!') || t.text.starts_with('*') {
            continue;
        }
        let Some(idx) = t.text.find("morph-lint:") else {
            continue;
        };
        let directive = t.text[idx + "morph-lint:".len()..].trim();
        match parse_allow(directive) {
            Some((rules, reason)) if !reason.is_empty() => {
                let unknown: Vec<&String> = rules
                    .iter()
                    .filter(|r| !SUPPRESSIBLE_RULES.contains(&r.as_str()))
                    .collect();
                if unknown.is_empty() {
                    suppressions.push(Suppression {
                        rules,
                        reason,
                        line: t.line,
                    });
                } else {
                    // A typo'd rule name must stay loud: report every
                    // unknown name and register nothing, so the finding
                    // the author meant to silence also still fires.
                    for rule in unknown {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: t.line,
                            rule: "bad-suppression".into(),
                            message: format!("allow names unknown rule {rule:?}"),
                        });
                    }
                }
            }
            _ => {
                findings.push(Finding {
                    file: path.to_string(),
                    line: t.line,
                    rule: "bad-suppression".into(),
                    message: "malformed directive; expected \
                              `morph-lint: allow(<rule>[, <rule>...], reason = \"...\")`"
                        .into(),
                });
            }
        }
    }
}

/// Parses `allow(rule[, rule...], reason = "...")`, returning the rule
/// list and the reason. Trailing commas are tolerated both between
/// segments and after the reason clause; commas inside the quoted
/// reason never split it.
fn parse_allow(directive: &str) -> Option<(Vec<String>, String)> {
    let rest = directive.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let mut body = &rest[..close];
    let mut rules = Vec::new();
    let reason = loop {
        let trimmed = body.trim_start();
        if let Some(after) = trimmed.strip_prefix("reason") {
            let val = after.trim_start().strip_prefix('=')?.trim();
            let val = val.strip_prefix('"')?;
            let end = val.rfind('"')?;
            let tail = val[end + 1..].trim();
            if !tail.is_empty() && tail != "," {
                return None;
            }
            break val[..end].to_string();
        }
        let (rule, tail) = trimmed.split_once(',')?;
        let rule = rule.trim();
        if !rule.is_empty() {
            rules.push(rule.to_string());
        }
        body = tail;
    };
    if rules.is_empty() {
        return None;
    }
    Some((rules, reason))
}

/// Lines belonging to `#[test]` functions or `#[cfg(test)]` items
/// (typically `mod tests { ... }`).
pub(crate) fn test_region_lines(tokens: &[Token]) -> std::collections::BTreeSet<u32> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut lines = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < code.len() {
        // Match `#[ ... ]` and look for a `test` identifier inside
        // (covers #[test], #[cfg(test)], #[cfg(all(test, ...))]).
        if code[i].is_punct("#") && i + 1 < code.len() && code[i + 1].is_punct("[") {
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut is_test_attr = false;
            while j < code.len() && depth > 0 {
                if code[j].is_punct("[") {
                    depth += 1;
                } else if code[j].is_punct("]") {
                    depth -= 1;
                } else if code[j].is_ident("test") {
                    is_test_attr = true;
                }
                j += 1;
            }
            if is_test_attr {
                // Skip any further attributes, then consume the item: up
                // to the matching `}` of its first brace (or a `;` for
                // brace-less items like `use`).
                let mut k = j;
                while k + 1 < code.len() && code[k].is_punct("#") && code[k + 1].is_punct("[") {
                    let mut depth = 1usize;
                    k += 2;
                    while k < code.len() && depth > 0 {
                        if code[k].is_punct("[") {
                            depth += 1;
                        } else if code[k].is_punct("]") {
                            depth -= 1;
                        }
                        k += 1;
                    }
                }
                let item_start = k;
                let mut brace_depth = 0usize;
                let mut entered = false;
                while k < code.len() {
                    if code[k].is_punct("{") {
                        brace_depth += 1;
                        entered = true;
                    } else if code[k].is_punct("}") {
                        brace_depth = brace_depth.saturating_sub(1);
                        if entered && brace_depth == 0 {
                            break;
                        }
                    } else if code[k].is_punct(";") && !entered {
                        break;
                    }
                    k += 1;
                }
                let end_line = code.get(k).or_else(|| code.last()).map_or(0, |t| t.line);
                for l in code[item_start.min(code.len() - 1)].line..=end_line {
                    lines.insert(l);
                }
                // Also cover the attribute lines themselves.
                for l in code[i].line..code[item_start.min(code.len() - 1)].line {
                    lines.insert(l);
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    lines
}

/// Runs all five rule matchers over the comment-free, test-free token
/// stream.
pub(crate) fn scan_rules(path: &str, code: &[&Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |line: u32, rule: &str, message: String| {
        out.push(Finding {
            file: path.to_string(),
            line,
            rule: rule.to_string(),
            message,
        });
    };
    let is_path_sep = |i: usize| -> bool {
        // `::` is lexed as two `:` puncts.
        i + 1 < code.len() && code[i].is_punct(":") && code[i + 1].is_punct(":")
    };
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // --- no-default-hasher-iteration ---------------------------
            "HashMap" | "HashSet" => push(
                t.line,
                "no-default-hasher-iteration",
                format!(
                    "{} iterates in randomized order; use BTreeMap/BTreeSet \
                     or a seeded deterministic hasher",
                    t.text
                ),
            ),
            // --- no-wallclock ------------------------------------------
            "Instant" | "SystemTime" => push(
                t.line,
                "no-wallclock",
                format!(
                    "{} reads the wall clock; route timing through \
                     morph_metrics::timing",
                    t.text
                ),
            ),
            "std" if i + 3 < code.len() && is_path_sep(i + 1) && code[i + 3].is_ident("time") => {
                push(
                    t.line,
                    "no-wallclock",
                    "std::time is wall-clock; route timing through \
                     morph_metrics::timing"
                        .into(),
                );
            }
            // --- no-panic-in-lib ---------------------------------------
            "panic" | "unreachable" | "todo" | "unimplemented"
                if i + 1 < code.len() && code[i + 1].is_punct("!") =>
            {
                push(
                    t.line,
                    "no-panic-in-lib",
                    format!("{}! aborts the caller; return a MorphError instead", t.text),
                );
            }
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
                if i > 0
                    && code[i - 1].is_punct(".")
                    && i + 1 < code.len()
                    && code[i + 1].is_punct("(") =>
            {
                push(
                    t.line,
                    "no-panic-in-lib",
                    format!(
                        ".{}() panics on the error path; propagate a MorphError \
                         or prove the invariant and allow",
                        t.text
                    ),
                );
            }
            // --- no-foreign-rng ----------------------------------------
            "rand" | "fastrand" | "thread_rng" | "OsRng" | "StdRng" | "SmallRng" | "getrandom"
            | "RandomState" | "DefaultHasher" => push(
                t.line,
                "no-foreign-rng",
                format!(
                    "{} is nondeterministic or externally seeded; all \
                     randomness must flow through morphcache::rng",
                    t.text
                ),
            ),
            // --- no-unapproved-thread-state ----------------------------
            "Mutex" | "RwLock" | "Condvar" | "Barrier" | "mpsc" | "JoinHandle" | "AtomicBool"
            | "AtomicU32" | "AtomicU64" | "AtomicUsize" | "AtomicI32" | "AtomicI64"
            | "AtomicIsize" => push(
                t.line,
                "no-unapproved-thread-state",
                format!(
                    "{} is shared mutable thread state; only the audited \
                     experiment.rs work queue may use it",
                    t.text
                ),
            ),
            "std"
                if i + 3 < code.len()
                    && is_path_sep(i + 1)
                    && (code[i + 3].is_ident("thread") || code[i + 3].is_ident("sync")) =>
            {
                push(
                    t.line,
                    "no-unapproved-thread-state",
                    format!(
                        "std::{} is thread machinery; only the audited \
                         experiment.rs work queue may use it",
                        code[i + 3].text
                    ),
                );
            }
            _ => {}
        }
    }
    out
}

/// Recursively collects the library `.rs` files to lint under `root`,
/// in deterministic (sorted) order.
///
/// Skipped: `target/`, `tests/`, `benches/`, `examples/`, `fixtures/`,
/// `bin/` directories and `main.rs` files (binary targets).
///
/// # Errors
///
/// Returns the first I/O error encountered while walking.
pub fn collect_lint_files(root: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading {}: {e}", dir.display()))?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target"
                    | "tests"
                    | "benches"
                    | "examples"
                    | "fixtures"
                    | "bin"
                    | ".git"
                    | ".github"
            ) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") && name != "main.rs" {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{parse_file, Workspace};
    use crate::passes::PassManager;

    /// What `morph-lint lint` reports for one file under the five line
    /// rules.
    fn lint(path: &str, source: &str) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![parse_file(path, source)],
        };
        PassManager::with_passes(&RULE_NAMES)
            .expect("line rules are passes")
            .run(&ws, None)
            .findings
    }

    /// `(line, rule)` of each finding, in report order.
    fn lines_and_rules(findings: &[Finding]) -> Vec<(u32, &str)> {
        findings.iter().map(|f| (f.line, f.rule.as_str())).collect()
    }

    #[test]
    fn hashmap_flagged_btreemap_clean() {
        let f = lint("x.rs", "use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-default-hasher-iteration");
        assert_eq!(f[0].line, 1);
        assert!(lint("x.rs", "use std::collections::BTreeMap;\n").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _: HashMap<u8, u8> = HashMap::new(); x.unwrap(); }\n}\n";
        assert!(lint("x.rs", src).is_empty(), "{:?}", lint("x.rs", src));
    }

    #[test]
    fn test_fn_exempt_but_surrounding_code_is_not() {
        let src = "pub fn bad() { y.unwrap(); }\n#[test]\nfn t() { x.unwrap(); }\npub fn bad2() { z.expect(\"boom\"); }\n";
        let f = lint("x.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn unwrap_or_is_not_a_panic() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).min(x.unwrap_or_default()) }\n";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn suppression_on_same_and_previous_line() {
        let above = "// morph-lint: allow(no-panic-in-lib, reason = \"provably non-empty\")\nfn f() { x.unwrap(); }\n";
        assert!(lint("x.rs", above).is_empty());
        let inline =
            "fn f() { x.unwrap(); } // morph-lint: allow(no-panic-in-lib, reason = \"ok\")\n";
        assert!(lint("x.rs", inline).is_empty());
        // A suppression two lines up does not apply, and is stale.
        let far =
            "// morph-lint: allow(no-panic-in-lib, reason = \"ok\")\n\nfn f() { x.unwrap(); }\n";
        let f = lint("x.rs", far);
        assert_eq!(
            lines_and_rules(&f),
            [(1, "stale-allow"), (3, "no-panic-in-lib")]
        );
    }

    #[test]
    fn suppression_for_other_rule_does_not_mask() {
        let src = "// morph-lint: allow(no-wallclock, reason = \"timing module\")\nfn f() { x.unwrap(); }\n";
        let f = lint("x.rs", src);
        assert_eq!(
            lines_and_rules(&f),
            [(1, "stale-allow"), (2, "no-panic-in-lib")]
        );
    }

    #[test]
    fn malformed_suppressions_are_findings() {
        let missing_reason = "// morph-lint: allow(no-panic-in-lib)\nfn f() {}\n";
        let f = lint("x.rs", missing_reason);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bad-suppression");
        let unknown_rule = "// morph-lint: allow(no-such-rule, reason = \"x\")\nfn f() {}\n";
        let f = lint("x.rs", unknown_rule);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no-such-rule"));
    }

    #[test]
    fn wallclock_exempt_in_timing_module() {
        let src = "use std::time::Instant;\n";
        assert!(!lint("crates/metrics/src/timing.rs", src)
            .iter()
            .any(|f| f.rule == "no-wallclock"));
        assert!(lint("crates/system/src/epoch.rs", src)
            .iter()
            .any(|f| f.rule == "no-wallclock"));
    }

    #[test]
    fn thread_state_exempt_in_experiment() {
        let src = "use std::sync::atomic::AtomicUsize;\nfn f() { std::thread::scope(|_| {}); }\n";
        assert!(lint("crates/system/src/experiment.rs", src).is_empty());
        assert!(lint("crates/system/src/supervisor.rs", src).is_empty());
        assert!(!lint("crates/system/src/epoch.rs", src).is_empty());
    }

    #[test]
    fn foreign_rng_flagged_vendored_rng_clean() {
        assert_eq!(
            lint("x.rs", "let r = rand::thread_rng();\n").len(),
            2 // `rand` path and `thread_rng` ident
        );
        assert!(lint(
            "x.rs",
            "let r = morphcache::Xoshiro256pp::seed_from_u64(7);\n"
        )
        .is_empty());
        assert!(lint("crates/core/src/rng.rs", "fn f() { let _ = OsRng; }\n").is_empty());
    }

    #[test]
    fn multi_rule_allow_covers_both_findings_on_one_line() {
        // One line trips two rules; one directive names them both.
        let src = "// morph-lint: allow(no-default-hasher-iteration, no-panic-in-lib, reason = \"fixture\")\nfn f() { let m: HashMap<u8, u8> = x.unwrap(); }\n";
        assert!(lint("x.rs", src).is_empty(), "{:?}", lint("x.rs", src));
        // Naming only one of the two leaves the other loud.
        let partial = "// morph-lint: allow(no-panic-in-lib, reason = \"fixture\")\nfn f() { let m: HashMap<u8, u8> = x.unwrap(); }\n";
        let f = lint("x.rs", partial);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-default-hasher-iteration");
    }

    #[test]
    fn trailing_commas_are_tolerated() {
        let after_reason =
            "fn f() { x.unwrap(); } // morph-lint: allow(no-panic-in-lib, reason = \"ok\",)\n";
        assert!(lint("x.rs", after_reason).is_empty());
        let between =
            "// morph-lint: allow(no-panic-in-lib,, reason = \"ok\")\nfn f() { x.unwrap(); }\n";
        assert!(lint("x.rs", between).is_empty());
    }

    #[test]
    fn reason_with_commas_is_one_reason() {
        let src = "fn f() { x.unwrap(); } // morph-lint: allow(no-panic-in-lib, reason = \"a, b, and c\")\n";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn multi_rule_with_one_unknown_is_loud_and_registers_nothing() {
        let src = "// morph-lint: allow(no-panic-in-lib, no-such-rule, reason = \"x\")\nfn f() { x.unwrap(); }\n";
        let f = lint("x.rs", src);
        // The typo is reported AND the would-be-suppressed finding fires.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.rule == "bad-suppression"));
        assert!(f.iter().any(|f| f.rule == "no-panic-in-lib"));
    }

    #[test]
    fn pass_rules_are_suppressible_names() {
        // Directives naming the interprocedural passes parse cleanly (no
        // bad-suppression) even though no line rule consumes them here.
        let src = "// morph-lint: allow(panic-reachability, reason = \"x\")\nfn f() {}\n";
        assert!(lint("x.rs", src).is_empty());
    }

    #[test]
    fn text_after_reason_is_malformed() {
        let src = "// morph-lint: allow(no-panic-in-lib, reason = \"ok\" extra)\nfn f() {}\n";
        let f = lint("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bad-suppression");
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// a HashMap of threads that panic!\nfn f() -> &'static str { \"Instant Mutex rand\" }\n";
        assert!(lint("x.rs", src).is_empty());
    }
}
