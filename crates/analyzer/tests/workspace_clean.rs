//! The workspace gate: `morph-lint` must report zero findings over this
//! repository — under *all eight* passes, the five line rules plus the
//! three interprocedural passes (panic-reachability, epoch-protocol,
//! journal-crash-point). Every rule violation is either fixed or carries
//! an explicit `// morph-lint: allow(<rule>, reason = "...")`
//! justification, every justification must actually suppress something
//! (`stale-allow` keeps them honest), and the total number of allows is
//! pinned here so it can only shrink deliberately.

use morph_analyzer::lint::lint_tree;
use morph_analyzer::passes::PassManager;
use morph_analyzer::{build_workspace, PASS_NAMES};

/// The number of justified allow directives currently in the tree. Bump
/// this DOWN when you discharge one; bumping it up needs a reason in
/// review.
const PINNED_ALLOW_COUNT: usize = 9;

/// The ceiling the allow budget must stay strictly under (the count
/// before the call-graph passes started discharging proofs).
const ALLOW_CEILING: usize = 24;

fn workspace_root() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("analyzer crate lives two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

/// The legacy line-rule entry point stays clean (back-compat surface).
#[test]
fn workspace_lints_clean() {
    let findings = lint_tree(&workspace_root()).expect("workspace tree is readable");
    assert!(
        findings.is_empty(),
        "morph-lint found {} finding(s); fix them or add a justified allow:\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The full pass manager — all eight passes, stale-allow and
/// bad-suppression included — reports zero findings over the tree.
#[test]
fn workspace_is_clean_under_all_passes() {
    let ws = build_workspace(&workspace_root()).expect("workspace tree is readable");
    let manager = PassManager::with_all_passes();
    assert_eq!(manager.pass_names().len(), PASS_NAMES.len());
    let report = manager.run(&ws, None);
    assert!(
        report.findings.is_empty(),
        "full pass pipeline found {} finding(s):\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.timings.len(), PASS_NAMES.len());
    assert!(report.files > 0, "workspace walk found no lintable files");
}

/// The allow budget: pinned exactly, and strictly under the ceiling.
#[test]
fn allow_count_is_pinned_and_under_ceiling() {
    let ws = build_workspace(&workspace_root()).expect("workspace tree is readable");
    let report = PassManager::with_all_passes().run(&ws, None);
    assert_eq!(
        report.allows, PINNED_ALLOW_COUNT,
        "allow directive count drifted from the pin; if you discharged \
         one, lower PINNED_ALLOW_COUNT — if you added one, justify it"
    );
    assert!(
        report.allows < ALLOW_CEILING,
        "allow budget exceeded: {} >= {}",
        report.allows,
        ALLOW_CEILING
    );
}
