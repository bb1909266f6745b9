//! The `epoch-protocol` pass: static conformance of the
//! `MemoryBackend` epoch protocol (`crates/system/src/policy.rs`).
//!
//! Two families of checks:
//!
//! 1. **Impl completeness** — every non-test `impl MemoryBackend for T`
//!    must define all four required methods (`begin_epoch`,
//!    `epoch_boundary`, `misses_by_core`, `grouping_labels`); the
//!    defaulted ones (`reconfig_outcome`, `as_hierarchy`, `engine`) are
//!    optional, and `access` belongs to the `MemorySubsystem` supertrait,
//!    which the compiler already requires.
//! 2. **Call-order conformance** — inside every non-test function, hook
//!    calls are bucketed per receiver identifier (`backend.begin_epoch`
//!    and `faults.begin_epoch` are different machines), and each bucket
//!    must respect the documented order
//!    `begin_epoch ≺ misses_by_core ≺ epoch_boundary ≺ grouping_labels`.
//!    An ordering is only enforced between hooks that *both* appear for
//!    the same receiver — a lone `grouping_labels()` read (the epoch
//!    close step) or a forwarding `inner.epoch_boundary()` is legal.
//!    Two `begin_epoch` calls on one receiver without an intervening
//!    `epoch_boundary` are a double-begin violation.

use crate::lint::Finding;
use crate::model::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// The four epoch hooks, in required calling order.
pub const EPOCH_HOOKS: [&str; 4] = [
    "begin_epoch",
    "misses_by_core",
    "epoch_boundary",
    "grouping_labels",
];

/// Methods every `MemoryBackend` impl must define.
pub const REQUIRED_METHODS: [&str; 4] = [
    "begin_epoch",
    "epoch_boundary",
    "misses_by_core",
    "grouping_labels",
];

/// Runs the `epoch-protocol` pass over the workspace model.
pub fn epoch_protocol(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        for im in &f.impls {
            if im.is_test || im.trait_name.as_deref() != Some("MemoryBackend") {
                continue;
            }
            let have: BTreeSet<&str> = im.methods.iter().map(|&m| f.fns[m].name.as_str()).collect();
            for req in REQUIRED_METHODS {
                if !have.contains(req) {
                    out.push(Finding {
                        file: f.path.clone(),
                        line: im.line,
                        rule: "epoch-protocol".into(),
                        message: format!(
                            "impl MemoryBackend for {} does not define required \
                             method `{req}`",
                            im.type_name
                        ),
                    });
                }
            }
        }
        for g in &f.fns {
            if g.is_test {
                continue;
            }
            // recv -> [(hook rank, line)] in source order.
            let mut buckets: BTreeMap<&str, Vec<(usize, u32)>> = BTreeMap::new();
            for c in &g.calls {
                if !c.is_method {
                    continue;
                }
                let Some(rank) = EPOCH_HOOKS.iter().position(|h| *h == c.callee) else {
                    continue;
                };
                let Some(recv) = &c.recv else {
                    continue;
                };
                buckets
                    .entry(recv.as_str())
                    .or_default()
                    .push((rank, c.line));
            }
            for (recv, seq) in &buckets {
                check_bucket(f.path.as_str(), g.name.as_str(), recv, seq, &mut out);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Checks one `(fn, receiver)` hook sequence.
fn check_bucket(
    path: &str,
    fn_name: &str,
    recv: &str,
    seq: &[(usize, u32)],
    out: &mut Vec<Finding>,
) {
    for (a, early) in EPOCH_HOOKS.iter().enumerate() {
        for (b, late) in EPOCH_HOOKS.iter().enumerate().skip(a + 1) {
            let fa = seq.iter().position(|&(r, _)| r == a);
            let fb = seq.iter().position(|&(r, _)| r == b);
            if let (Some(ia), Some(ib)) = (fa, fb) {
                if ib < ia {
                    out.push(Finding {
                        file: path.to_string(),
                        line: seq[ib].1,
                        rule: "epoch-protocol".into(),
                        message: format!(
                            "`{recv}.{late}` precedes `{recv}.{early}` in `{fn_name}`; the \
                             epoch protocol requires `{early}` before `{late}`"
                        ),
                    });
                }
            }
        }
    }
    let mut open_begin = false;
    for &(rank, line) in seq {
        if rank == 0 {
            if open_begin {
                out.push(Finding {
                    file: path.to_string(),
                    line,
                    rule: "epoch-protocol".into(),
                    message: format!(
                        "`{recv}.begin_epoch` is called twice in `{fn_name}` without \
                         an intervening `epoch_boundary`"
                    ),
                });
            }
            open_begin = true;
        } else if rank == 2 {
            open_begin = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_file;

    fn ws(src: &str) -> Workspace {
        Workspace {
            files: vec![parse_file("x.rs", src)],
        }
    }

    #[test]
    fn complete_impl_and_legal_order_are_clean() {
        let src = "impl MemoryBackend for B {\n\
                   fn access(&mut self) {}\n\
                   fn begin_epoch(&mut self) {}\n\
                   fn epoch_boundary(&mut self) {}\n\
                   fn misses_by_core(&self) {}\n\
                   fn grouping_labels(&self) {}\n\
                   }\n\
                   fn drive(backend: &mut B) {\n\
                       backend.begin_epoch(ctx);\n\
                       let m = backend.misses_by_core();\n\
                       backend.epoch_boundary(ctx);\n\
                       backend.grouping_labels();\n\
                   }\n";
        assert!(
            epoch_protocol(&ws(src)).is_empty(),
            "{:?}",
            epoch_protocol(&ws(src))
        );
    }

    #[test]
    fn missing_required_method_fires() {
        let src = "impl MemoryBackend for B {\n\
                   fn access(&mut self) {}\n\
                   fn begin_epoch(&mut self) {}\n\
                   fn epoch_boundary(&mut self) {}\n\
                   fn misses_by_core(&self) {}\n\
                   }\n";
        let f = epoch_protocol(&ws(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("grouping_labels"));
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn boundary_before_begin_fires() {
        let src = "fn drive(backend: &mut B) {\n\
                       backend.epoch_boundary(ctx);\n\
                       backend.begin_epoch(ctx);\n\
                   }\n";
        let f = epoch_protocol(&ws(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0]
            .message
            .contains("requires `begin_epoch` before `epoch_boundary`"));
    }

    #[test]
    fn double_begin_without_boundary_fires() {
        let src = "fn drive(backend: &mut B) {\n\
                       backend.begin_epoch(ctx);\n\
                       backend.begin_epoch(ctx);\n\
                   }\n";
        let f = epoch_protocol(&ws(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn begin_boundary_begin_is_legal() {
        let src = "fn drive(backend: &mut B) {\n\
                       backend.begin_epoch(ctx);\n\
                       backend.epoch_boundary(ctx);\n\
                       backend.begin_epoch(ctx);\n\
                   }\n";
        // The second begin opens the next epoch — but note the pairwise
        // first-occurrence order is still satisfied.
        assert!(epoch_protocol(&ws(src)).is_empty());
    }

    #[test]
    fn lone_hooks_and_distinct_receivers_are_legal() {
        let src = "fn sample(sim: &S) { sim.backend.grouping_labels(); }\n\
                   fn forward(&mut self) { self.inner.epoch_boundary(); }\n\
                   fn drive(backend: &mut B, faults: &mut F) {\n\
                       faults.begin_epoch(e, c, n);\n\
                       backend.begin_epoch(ctx);\n\
                       backend.epoch_boundary(ctx);\n\
                   }\n";
        assert!(
            epoch_protocol(&ws(src)).is_empty(),
            "{:?}",
            epoch_protocol(&ws(src))
        );
    }

    #[test]
    fn test_impls_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    impl MemoryBackend for Fake { fn access(&mut self) {} }\n}\n";
        assert!(epoch_protocol(&ws(src)).is_empty());
    }
}
