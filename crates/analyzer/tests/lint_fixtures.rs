//! Fixture-based tests for every lint rule: each rule has one positive
//! snippet (must fire, on the expected rule only) and one negative
//! snippet (must stay clean), plus suppression and malformed-directive
//! fixtures. The snippets live under `tests/fixtures/` and are lexed,
//! never compiled.

use morph_analyzer::json::{findings_from_json, findings_to_json};
use morph_analyzer::lint::RULE_NAMES;
use morph_analyzer::model::parse_file;
use morph_analyzer::{Finding, PassManager, Workspace};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// What `morph-lint lint` reports for one fixture under the five line
/// rules.
fn lint(name: &str) -> Vec<Finding> {
    let ws = Workspace {
        files: vec![parse_file(name, &fixture(name))],
    };
    PassManager::with_passes(&RULE_NAMES)
        .expect("line rules are passes")
        .run(&ws, None)
        .findings
}

/// Positive fixtures fire their own rule — and nothing else.
#[test]
fn every_rule_fires_on_its_positive_fixture() {
    for rule in RULE_NAMES {
        let file = format!("{}_bad.rs", rule.replace('-', "_"));
        let findings = lint(&file);
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "{file}: expected a {rule} finding, got {findings:?}"
        );
        assert!(
            findings.iter().all(|f| f.rule == rule),
            "{file}: found findings for other rules: {findings:?}"
        );
    }
}

/// Negative fixtures are clean under all rules.
#[test]
fn every_rule_is_quiet_on_its_negative_fixture() {
    for rule in RULE_NAMES {
        let file = format!("{}_ok.rs", rule.replace('-', "_"));
        let findings = lint(&file);
        assert!(findings.is_empty(), "{file}: unexpected {findings:?}");
    }
}

/// Well-formed allow directives (previous line and inline) silence the
/// finding entirely.
#[test]
fn allow_suppressions_silence_findings() {
    let findings = lint("suppressed_ok.rs");
    assert!(findings.is_empty(), "unexpected {findings:?}");
}

/// Malformed directives are reported as `bad-suppression` and do NOT
/// silence the original finding.
#[test]
fn malformed_suppressions_are_reported_not_honored() {
    let findings = lint("bad_suppression.rs");
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(
        rules.iter().filter(|r| **r == "bad-suppression").count() == 2,
        "expected two bad-suppression findings, got {findings:?}"
    );
    assert!(
        rules.contains(&"no-panic-in-lib"),
        "the malformed allow must not mask the original finding: {findings:?}"
    );
}

/// Findings survive a full `--json` round-trip byte-for-byte.
#[test]
fn json_output_round_trips() {
    let mut findings = Vec::new();
    for rule in RULE_NAMES {
        let file = format!("{}_bad.rs", rule.replace('-', "_"));
        findings.extend(lint(&file));
    }
    assert!(!findings.is_empty());
    let json = findings_to_json(&findings);
    let back = findings_from_json(&json).expect("parse back");
    assert_eq!(findings, back);
    // And a second encode is byte-identical (stable output).
    assert_eq!(json, findings_to_json(&back));
}

/// The `morph-lint` binary itself: exit code 1 + parseable JSON on a
/// dirty tree, exit code 0 on a clean one.
#[test]
fn binary_json_output_and_exit_codes() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-bin-fixture");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )
    .expect("write dirty fixture");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_morph-lint"))
        .args(["lint", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run morph-lint");
    assert_eq!(out.status.code(), Some(1), "dirty tree must exit 1");
    let parsed = findings_from_json(&String::from_utf8_lossy(&out.stdout))
        .expect("binary --json output must parse");
    // All eight passes run by default: the unwrap in a pub fn trips the
    // line rule AND the call-graph reachability pass.
    assert_eq!(parsed.len(), 2, "{parsed:?}");
    let rules: Vec<&str> = parsed.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains(&"no-panic-in-lib"), "{parsed:?}");
    assert!(rules.contains(&"panic-reachability"), "{parsed:?}");
    for f in &parsed {
        assert_eq!(f.file, "src/lib.rs");
        assert_eq!(f.line, 1);
    }

    std::fs::write(src.join("lib.rs"), "pub fn f() -> u8 { 7 }\n").expect("write clean fixture");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_morph-lint"))
        .args(["lint", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run morph-lint");
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
    assert!(findings_from_json(&String::from_utf8_lossy(&out.stdout))
        .expect("clean JSON parses")
        .is_empty());
}
