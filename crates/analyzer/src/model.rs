//! A lightweight item model over the token stream of [`crate::lexer`]:
//! source files, functions, impl blocks, call sites, and panic sites.
//!
//! This is the substrate the interprocedural passes walk. It is *not* a
//! Rust parser — it is a brace-matching recursive sweep in the same
//! hand-rolled, dependency-free spirit as the lexer, tuned to be
//! **over-approximate where it matters**: call edges are matched by
//! callee *name* (any function with that name is a possible target), so
//! "reaches a panic" is an over-approximation and "does not reach a
//! panic" is the conservative, safe conclusion the passes act on.
//!
//! Limits, by design: no name resolution, no trait dispatch, no macro
//! expansion. Nested functions are attributed to the innermost enclosing
//! `fn`; `impl` headers are reduced to `(trait_name, type_name)` pairs
//! of final path segments.

use crate::lexer::{lex, Token, TokenKind};
use crate::lint::{collect_suppressions, test_region_lines, Finding, Suppression};
use std::collections::BTreeSet;

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (final path segment or method name).
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
    /// True for `recv.callee(...)`, false for `callee(...)` / `a::callee(...)`.
    pub is_method: bool,
    /// For method calls, the identifier immediately before the dot
    /// (`backend.begin_epoch(..)` → `Some("backend")`); `None` when the
    /// receiver is an expression.
    pub recv: Option<String>,
}

/// One potential panic site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based line of the site.
    pub line: u32,
    /// What panics: `panic!`, `unreachable!`, `.unwrap()`, ...
    pub what: String,
    /// True if an inline allow for `no-panic-in-lib` or
    /// `panic-reachability` covers this line.
    pub suppressed: bool,
}

/// One function (free or method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True if a `pub` appears in the item's declaration head.
    pub is_pub: bool,
    /// True inside a `#[test]` / `#[cfg(test)]` region or a test impl.
    pub is_test: bool,
    /// Index into [`SourceFile::impls`] for inherent/trait methods.
    pub impl_index: Option<usize>,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Panic sites in the body, in source order.
    pub panics: Vec<PanicSite>,
}

/// One `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplInfo {
    /// Final path segment of the trait for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Final path segment of the implementing type.
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// True inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Indices into [`SourceFile::fns`] of this block's methods.
    pub methods: Vec<usize>,
}

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display path (workspace-relative, `/`-separated).
    pub path: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Well-formed suppression directives.
    pub suppressions: Vec<Suppression>,
    /// `bad-suppression` findings from malformed directives.
    pub bad_suppressions: Vec<Finding>,
    /// Lines inside `#[test]` / `#[cfg(test)]` regions.
    pub test_lines: BTreeSet<u32>,
    /// All functions, in source order.
    pub fns: Vec<FnInfo>,
    /// All impl blocks, in source order.
    pub impls: Vec<ImplInfo>,
}

/// The parsed workspace: every library file the linter walks.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Parsed files, in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
}

/// Builds the model for the workspace rooted at `root`, over the library
/// files [`crate::lint::collect_lint_files`] lists.
///
/// # Errors
///
/// Returns a description of the first unreadable file or directory.
pub fn build_workspace(root: &std::path::Path) -> Result<Workspace, String> {
    let mut files = Vec::new();
    for file in crate::lint::collect_lint_files(root)? {
        let source = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let display = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(parse_file(&display, &source));
    }
    Ok(Workspace { files })
}

/// Keywords that look like call heads but are not callees.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "else"
            | "unsafe"
            | "impl"
            | "dyn"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "fn"
            | "async"
            | "await"
            | "extern"
    )
}

struct OpenFn {
    index: usize,
    close_depth: i32,
    entered: bool,
}

struct OpenImpl {
    index: usize,
    close_depth: i32,
}

/// Parses one file's item model. `path` is stored for reporting and used
/// for suppression diagnostics.
pub fn parse_file(path: &str, source: &str) -> SourceFile {
    let tokens = lex(source);
    let mut suppressions = Vec::new();
    let mut bad_suppressions = Vec::new();
    collect_suppressions(path, &tokens, &mut suppressions, &mut bad_suppressions);
    let test_lines = test_region_lines(&tokens);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut impls: Vec<ImplInfo> = Vec::new();
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    let mut impl_stack: Vec<OpenImpl> = Vec::new();
    let mut depth: i32 = 0;

    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        if t.is_punct("{") {
            depth += 1;
            if let Some(f) = fn_stack.last_mut() {
                if !f.entered && depth == f.close_depth + 1 {
                    f.entered = true;
                }
            }
        } else if t.is_punct("}") {
            depth -= 1;
            while fn_stack
                .last()
                .is_some_and(|f| f.entered && f.close_depth == depth)
            {
                fn_stack.pop();
            }
            while impl_stack.last().is_some_and(|im| im.close_depth == depth) {
                impl_stack.pop();
            }
        } else if t.is_punct(";") {
            // A body-less declaration (trait method signature) ends here.
            if fn_stack
                .last()
                .is_some_and(|f| !f.entered && f.close_depth == depth)
            {
                fn_stack.pop();
            }
        } else if t.kind == TokenKind::Ident {
            if t.text == "impl" && fn_stack.last().is_none_or(|f| f.entered) {
                // An impl *block* (`impl Trait for Type {`), as opposed to
                // `impl Trait` in a signature position — the guard above
                // excludes signatures because their `fn` is still open and
                // un-entered.
                parse_impl_header(&code, i, depth, &test_lines, &mut impls, &mut impl_stack);
            } else if t.text == "fn" && i + 1 < code.len() && code[i + 1].kind == TokenKind::Ident {
                let name = code[i + 1].text.clone();
                let mut is_pub = false;
                let mut k = i;
                while k > 0 {
                    k -= 1;
                    let u = code[k];
                    if u.is_punct("{") || u.is_punct("}") || u.is_punct(";") {
                        break;
                    }
                    if u.is_ident("pub") {
                        is_pub = true;
                        break;
                    }
                }
                let impl_index = if fn_stack.is_empty() {
                    impl_stack.last().map(|im| im.index)
                } else {
                    None
                };
                let is_test = test_lines.contains(&t.line)
                    || impl_index.is_some_and(|ii| impls[ii].is_test)
                    || fn_stack.last().is_some_and(|f| fns[f.index].is_test);
                let index = fns.len();
                if let Some(ii) = impl_index {
                    impls[ii].methods.push(index);
                }
                fns.push(FnInfo {
                    name,
                    line: t.line,
                    is_pub,
                    is_test,
                    impl_index,
                    calls: Vec::new(),
                    panics: Vec::new(),
                });
                fn_stack.push(OpenFn {
                    index,
                    close_depth: depth,
                    entered: false,
                });
            } else if let Some(top) = fn_stack.last() {
                if top.entered {
                    record_site(&code, i, top.index, &mut fns);
                }
            }
        }
        i += 1;
    }

    for f in &mut fns {
        for p in &mut f.panics {
            p.suppressed = suppressions.iter().any(|s| {
                s.covers("no-panic-in-lib", p.line) || s.covers("panic-reachability", p.line)
            });
        }
    }

    SourceFile {
        path: path.to_string(),
        tokens,
        suppressions,
        bad_suppressions,
        test_lines,
        fns,
        impls,
    }
}

/// Reduces an `impl` header to `(trait_name, type_name)` and opens the
/// block on the impl stack. Only final path segments at angle-depth zero
/// are considered (`impl fmt::Display for Foo<T>` → `Display` / `Foo`).
fn parse_impl_header(
    code: &[&Token],
    i: usize,
    depth: i32,
    test_lines: &BTreeSet<u32>,
    impls: &mut Vec<ImplInfo>,
    impl_stack: &mut Vec<OpenImpl>,
) {
    let mut j = i + 1;
    let mut angle: i32 = 0;
    let mut saw_for = false;
    let mut before: Vec<String> = Vec::new();
    let mut after: Vec<String> = Vec::new();
    while j < code.len() && !code[j].is_punct("{") && !code[j].is_punct(";") {
        let u = code[j];
        if u.is_punct("<") {
            angle += 1;
        } else if u.is_punct(">") {
            // `->` in an `Fn() -> R` bound is an arrow, not a closer.
            if !(j > 0 && code[j - 1].is_punct("-")) {
                angle -= 1;
            }
        } else if angle == 0 && u.kind == TokenKind::Ident {
            if u.text == "for" {
                saw_for = true;
            } else if u.text == "where" {
                break;
            } else if saw_for {
                after.push(u.text.clone());
            } else {
                before.push(u.text.clone());
            }
        }
        j += 1;
    }
    let (trait_name, type_name) = if saw_for {
        (
            before.last().cloned(),
            after.first().cloned().unwrap_or_default(),
        )
    } else {
        (None, before.first().cloned().unwrap_or_default())
    };
    impl_stack.push(OpenImpl {
        index: impls.len(),
        close_depth: depth,
    });
    impls.push(ImplInfo {
        trait_name,
        type_name,
        line: code[i].line,
        is_test: test_lines.contains(&code[i].line),
        methods: Vec::new(),
    });
}

/// Records a panic site or call edge for the innermost open function, if
/// the ident at `i` is one.
fn record_site(code: &[&Token], i: usize, cur: usize, fns: &mut [FnInfo]) {
    let t = code[i];
    let is_macro = i + 1 < code.len() && code[i + 1].is_punct("!");
    if is_macro
        && matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        )
    {
        fns[cur].panics.push(PanicSite {
            line: t.line,
            what: format!("{}!", t.text),
            suppressed: false,
        });
        return;
    }
    let prev_is_dot = i > 0 && code[i - 1].is_punct(".");
    if prev_is_dot
        && i + 1 < code.len()
        && code[i + 1].is_punct("(")
        && matches!(
            t.text.as_str(),
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
        )
    {
        fns[cur].panics.push(PanicSite {
            line: t.line,
            what: format!(".{}()", t.text),
            suppressed: false,
        });
        return;
    }
    if is_macro || is_keyword(&t.text) {
        return;
    }
    // A call: ident followed by `(`, optionally through a turbofish
    // (`collect::<Vec<_>>()`).
    let mut j = i + 1;
    if j + 2 < code.len()
        && code[j].is_punct(":")
        && code[j + 1].is_punct(":")
        && code[j + 2].is_punct("<")
    {
        let mut a: i32 = 1;
        j += 3;
        while j < code.len() && a > 0 {
            if code[j].is_punct("<") {
                a += 1;
            } else if code[j].is_punct(">") && !code[j - 1].is_punct("-") {
                a -= 1;
            }
            j += 1;
        }
    }
    if j < code.len() && code[j].is_punct("(") {
        let recv = if prev_is_dot && i >= 2 && code[i - 2].kind == TokenKind::Ident {
            Some(code[i - 2].text.clone())
        } else {
            None
        };
        fns[cur].calls.push(CallSite {
            callee: t.text.clone(),
            line: t.line,
            is_method: prev_is_dot,
            recv,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(f: &SourceFile) -> Vec<&str> {
        f.fns.iter().map(|f| f.name.as_str()).collect()
    }

    #[test]
    fn free_fns_and_visibility() {
        let f = parse_file("x.rs", "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\n");
        assert_eq!(names(&f), ["a", "b", "c"]);
        assert!(f.fns[0].is_pub);
        assert!(!f.fns[1].is_pub);
        assert!(f.fns[2].is_pub);
        assert!(f.fns.iter().all(|x| x.impl_index.is_none()));
    }

    #[test]
    fn impl_blocks_and_methods() {
        let src = "struct S;\nimpl S {\n    pub fn new() -> Self { S }\n}\nimpl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.impls.len(), 2);
        assert_eq!(f.impls[0].trait_name, None);
        assert_eq!(f.impls[0].type_name, "S");
        assert_eq!(f.impls[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(f.impls[1].type_name, "S");
        assert_eq!(f.impls[0].methods, [0]);
        assert_eq!(f.impls[1].methods, [1]);
        assert_eq!(f.fns[0].impl_index, Some(0));
        assert_eq!(f.fns[1].impl_index, Some(1));
    }

    #[test]
    fn impl_trait_in_signature_is_not_a_block() {
        let src = "fn f(g: impl Fn()) -> u8 { g(); 0 }\npub fn h() -> u8 { f(|| {}) }\n";
        let f = parse_file("x.rs", src);
        assert!(f.impls.is_empty(), "{:?}", f.impls);
        assert_eq!(names(&f), ["f", "h"]);
        assert!(f.fns[1].calls.iter().any(|c| c.callee == "f"));
    }

    #[test]
    fn calls_methods_and_receivers() {
        let src = "fn f(backend: &mut B) {\n    helper(1);\n    backend.begin_epoch(ctx);\n    self.inner.close();\n    items.iter().collect::<Vec<_>>();\n}\n";
        let f = parse_file("x.rs", src);
        let calls = &f.fns[0].calls;
        let get = |n: &str| calls.iter().find(|c| c.callee == n);
        assert!(get("helper").is_some_and(|c| !c.is_method && c.recv.is_none()));
        assert!(
            get("begin_epoch").is_some_and(|c| c.is_method && c.recv.as_deref() == Some("backend"))
        );
        assert!(get("close").is_some_and(|c| c.recv.as_deref() == Some("inner")));
        assert!(get("collect").is_some_and(|c| c.is_method));
    }

    #[test]
    fn panic_sites_and_suppression_marking() {
        let src = "fn f() {\n    x.unwrap();\n    // morph-lint: allow(no-panic-in-lib, reason = \"proved\")\n    y.expect(\"m\");\n    panic!(\"boom\");\n}\n";
        let f = parse_file("x.rs", src);
        let p = &f.fns[0].panics;
        assert_eq!(p.len(), 3, "{p:?}");
        assert!(!p[0].suppressed);
        assert_eq!(p[0].what, ".unwrap()");
        assert!(p[1].suppressed);
        assert!(!p[2].suppressed);
        assert_eq!(p[2].what, "panic!");
    }

    #[test]
    fn nested_fns_attribute_to_innermost() {
        let src = "fn outer() {\n    fn inner() { x.unwrap(); }\n    inner();\n}\n";
        let f = parse_file("x.rs", src);
        assert_eq!(names(&f), ["outer", "inner"]);
        assert!(f.fns[0].panics.is_empty());
        assert_eq!(f.fns[1].panics.len(), 1);
        assert!(f.fns[0].calls.iter().any(|c| c.callee == "inner"));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let f = parse_file("x.rs", src);
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn trait_method_declarations_close_on_semicolon() {
        let src = "trait T {\n    fn sig(&self);\n    fn with_default(&self) { x.unwrap(); }\n}\nfn after() { y.unwrap(); }\n";
        let f = parse_file("x.rs", src);
        assert_eq!(names(&f), ["sig", "with_default", "after"]);
        assert!(f.fns[0].panics.is_empty());
        assert_eq!(f.fns[1].panics.len(), 1);
        assert_eq!(f.fns[2].panics.len(), 1);
    }
}
