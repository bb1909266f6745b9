//! SARIF 2.1.0 emission for `morph-lint` findings, plus a structural
//! validator used by the fixture tests and CI.
//!
//! The emitter produces the minimal static-analysis shape GitHub code
//! scanning ingests: one run, one tool driver with per-rule metadata,
//! and one result per finding with a single physical location. The
//! validator checks that shape against the 2.1.0 schema's required
//! fields without shipping the schema itself (no external deps).

use crate::json::escape;
use crate::lint::Finding;
use crate::passes::pass_description;
use morph_metrics::Json;
use std::collections::BTreeSet;

/// The schema URI embedded in every report.
pub const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Serializes findings as a SARIF 2.1.0 document.
///
/// Rules metadata covers exactly the rules present in the findings, in
/// sorted order, so the output is stable for fixed input.
pub fn findings_to_sarif(findings: &[Finding]) -> String {
    let rules: BTreeSet<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"$schema\": {},\n", escape(SARIF_SCHEMA)));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"morph-lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in rules.iter().enumerate() {
        out.push_str("            {");
        out.push_str(&format!("\"id\": {}, ", escape(rule)));
        out.push_str(&format!(
            "\"shortDescription\": {{\"text\": {}}}",
            escape(pass_description(rule))
        ));
        out.push('}');
        if i + 1 < rules.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("        {");
        out.push_str(&format!("\"ruleId\": {}, ", escape(&f.rule)));
        out.push_str("\"level\": \"error\", ");
        out.push_str(&format!(
            "\"message\": {{\"text\": {}}}, ",
            escape(&f.message)
        ));
        out.push_str(&format!(
            "\"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]",
            escape(&f.file),
            f.line
        ));
        out.push('}');
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}");
    out
}

/// Validates `text` against the SARIF 2.1.0 shape: required top-level
/// fields, driver metadata, and one physical location per result whose
/// `ruleId` is declared by the driver.
///
/// # Errors
///
/// Returns a description of the first structural defect.
pub fn validate_sarif(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let version = doc
        .get("version")
        .and_then(Json::as_str)
        .ok_or("missing \"version\"")?;
    if version != "2.1.0" {
        return Err(format!("version is {version:?}, expected \"2.1.0\""));
    }
    let schema = doc
        .get("$schema")
        .and_then(Json::as_str)
        .ok_or("missing \"$schema\"")?;
    if !schema.contains("sarif-2.1.0") {
        return Err(format!("$schema {schema:?} is not the 2.1.0 schema"));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing \"runs\" array")?;
    if runs.is_empty() {
        return Err("\"runs\" must hold at least one run".into());
    }
    for run in runs {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or("run missing tool.driver")?;
        driver
            .get("name")
            .and_then(Json::as_str)
            .ok_or("driver missing name")?;
        let rules = driver
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or("driver missing rules array")?;
        let mut rule_ids = BTreeSet::new();
        for r in rules {
            let id = r
                .get("id")
                .and_then(Json::as_str)
                .ok_or("rule missing id")?;
            rule_ids.insert(id.to_string());
        }
        let results = run
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("run missing results array")?;
        for res in results {
            let rule_id = res
                .get("ruleId")
                .and_then(Json::as_str)
                .ok_or("result missing ruleId")?;
            if !rule_ids.contains(rule_id) {
                return Err(format!("result ruleId {rule_id:?} not declared by driver"));
            }
            res.get("level")
                .and_then(Json::as_str)
                .ok_or("result missing level")?;
            res.get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .ok_or("result missing message.text")?;
            let locations = res
                .get("locations")
                .and_then(Json::as_arr)
                .ok_or("result missing locations")?;
            let loc = locations.first().ok_or("result has no location")?;
            let phys = loc
                .get("physicalLocation")
                .ok_or("location missing physicalLocation")?;
            phys.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str)
                .ok_or("location missing artifactLocation.uri")?;
            let line = phys
                .get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_f64)
                .ok_or("location missing region.startLine")?;
            if line < 1.0 {
                return Err(format!("startLine {line} must be >= 1"));
            }
        }
    }
    Ok(())
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
                message: "a \"quoted\" message with\nnewline".into(),
            },
            Finding {
                file: "crates/system/src/epoch.rs".into(),
                line: 7,
                rule: "epoch-protocol".into(),
                message: "hook order".into(),
            },
        ]
    }

    #[test]
    fn emitted_sarif_validates() {
        let doc = findings_to_sarif(&sample());
        validate_sarif(&doc).unwrap();
    }

    #[test]
    fn empty_report_validates() {
        validate_sarif(&findings_to_sarif(&[])).unwrap();
    }

    #[test]
    fn results_round_trip_fields() {
        let doc = findings_to_sarif(&sample());
        let v = Json::parse(&doc).unwrap();
        let results = v.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("results")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").and_then(Json::as_str),
            Some("no-panic-in-lib")
        );
        let loc = &results[0].get("locations").and_then(Json::as_arr).unwrap()[0];
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(
            phys.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str),
            Some("crates/core/src/engine.rs")
        );
        assert_eq!(
            phys.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
    }

    #[test]
    fn validator_rejects_wrong_version() {
        let doc = findings_to_sarif(&[]).replace("2.1.0", "2.0.0");
        assert!(validate_sarif(&doc).is_err());
    }

    #[test]
    fn validator_rejects_undeclared_rule() {
        let mut f = sample();
        let doc = findings_to_sarif(&f);
        // Tamper: swap a ruleId for one the driver does not declare.
        let doc = doc.replace("\"ruleId\": \"epoch-protocol\"", "\"ruleId\": \"mystery\"");
        assert!(validate_sarif(&doc).is_err());
        f.clear();
        assert!(validate_sarif(&findings_to_sarif(&f)).is_ok());
    }

    #[test]
    fn validator_rejects_non_sarif_json() {
        assert!(validate_sarif("[]").is_err());
        assert!(validate_sarif("{\"version\": \"2.1.0\"}").is_err());
        assert!(validate_sarif("not json").is_err());
    }
}
