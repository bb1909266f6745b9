//! The `--format json` findings report: a hand-rolled writer with a
//! fixed one-object-per-line layout, and a reader (for tests and
//! downstream tooling) built on the workspace's JSON codec,
//! [`morph_metrics::Json`].

use crate::lint::Finding;
use morph_metrics::Json;

/// Serializes findings as a stable, pretty-printed JSON array.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"file\": {}, ", escape(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"rule\": {}, ", escape(&f.rule)));
        out.push_str(&format!("\"message\": {}", escape(&f.message)));
        out.push('}');
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Parses the output of [`findings_to_json`] back into findings.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn findings_from_json(text: &str) -> Result<Vec<Finding>, String> {
    let Json::Arr(items) = Json::parse(text)? else {
        return Err("expected a top-level array".into());
    };
    items
        .iter()
        .map(|item| {
            let Json::Obj(_) = item else {
                return Err("expected an array of objects".into());
            };
            let get_str = |key: &str| -> Result<String, String> {
                item.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("missing string field {key:?}"))
            };
            let line = item
                .get("line")
                .and_then(Json::as_f64)
                .ok_or("missing numeric field \"line\"")?;
            Ok(Finding {
                file: get_str("file")?,
                line: line as u32,
                rule: get_str("rule")?,
                message: get_str("message")?,
            })
        })
        .collect()
}

/// Escapes a string as a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/core/src/engine.rs".into(),
                line: 42,
                rule: "no-panic-in-lib".into(),
                message: "value with \"quotes\", a \\ and a\nnewline".into(),
            },
            Finding {
                file: "crates/trace/src/stream.rs".into(),
                line: 7,
                rule: "no-default-hasher-iteration".into(),
                message: "HashMap iterates in randomized order".into(),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_findings() {
        let findings = sample();
        let json = findings_to_json(&findings);
        let back = findings_from_json(&json).unwrap();
        assert_eq!(findings, back);
    }

    #[test]
    fn empty_report_round_trips() {
        let json = findings_to_json(&[]);
        assert_eq!(findings_from_json(&json).unwrap(), vec![]);
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(escape("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(findings_from_json("{\"not\": \"an array\"}").is_err());
        assert!(findings_from_json("[{\"file\": \"x\"}]").is_err());
        assert!(findings_from_json("[{\"file\": \"x\", \"line\": \"NaN\"}]").is_err());
        assert!(findings_from_json("[").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let json = "[{\"file\": \"\\u00e9.rs\", \"line\": 1, \"rule\": \"no-wallclock\", \"message\": \"caf\\u00e9\"}]";
        let f = findings_from_json(json).unwrap();
        assert_eq!(f[0].file, "é.rs");
        assert_eq!(f[0].message, "café");
    }
}
