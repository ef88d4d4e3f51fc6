//! SARIF 2.1.0 output — the machine-readable report CI uploads to GitHub
//! code scanning, so findings surface as inline PR annotations instead of
//! a wall of log text (the PAPyA lesson: multi-dimension results want a
//! machine-readable shape).
//!
//! Hand-written against the subset of the spec the code-scanning ingester
//! requires: one run, a tool driver with the rule catalogue, and one
//! result per diagnostic with a physical location. std-only, like
//! everything else in this crate.

use crate::diag::Diagnostic;
use crate::rules::RULE_DESCRIPTIONS;

/// Renders `diags` as a complete SARIF 2.1.0 document.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(4096 + diags.len() * 256);
    out.push_str("{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",");
    out.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    out.push_str("\"name\":\"ppbench-analyze\",");
    out.push_str("\"informationUri\":\"https://github.com/ppbench/ppbench\",");
    out.push_str("\"rules\":[");
    for (i, (rule, desc)) in RULE_DESCRIPTIONS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            escape(rule),
            escape(desc),
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Forward slashes regardless of host separator: SARIF URIs. Every
        // finding fails CI, so every result is an error.
        let uri = d
            .path
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        out.push_str(&format!(
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\
             \"artifactLocation\":{{\"uri\":{}}},\
             \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
            escape(d.rule),
            escape(&d.message),
            escape(&uri),
            d.line,
            d.col,
        ));
    }
    out.push_str("]}]}");
    out
}

/// JSON string escaping (quotes, backslashes, control characters). The
/// workspace's one JSON module is `ppbench_core::json`; this crate keeps
/// its own 20-line escaper on purpose — the analyzer must build with zero
/// dependencies, including on the code it lints.
fn escape(s: &str) -> String {
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
    use std::path::PathBuf;

    fn diag(rule: &'static str, msg: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: PathBuf::from("crates/x/src/lib.rs"),
            line: 3,
            col: 7,
            message: msg.into(),
        }
    }

    #[test]
    fn document_shape_and_required_fields() {
        let s = render(&[diag("panic", "no unwraps")]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"ppbench-analyze\""));
        assert!(s.contains("\"ruleId\":\"panic\""));
        assert!(s.contains("\"startLine\":3"));
        assert!(s.contains("\"uri\":\"crates/x/src/lib.rs\""));
        assert!(s.contains("{\"ruleId\":\"panic\",\"level\":\"error\""));
        // Every rule in the catalogue is declared to the ingester.
        for (rule, _) in RULE_DESCRIPTIONS {
            assert!(s.contains(&format!("\"id\":\"{rule}\"")), "missing {rule}");
        }
    }

    #[test]
    fn messages_are_escaped() {
        let s = render(&[diag("panic", "say \"no\" to\nbackslash \\ panics")]);
        assert!(s.contains(r#"say \"no\" to\nbackslash \\ panics"#));
    }

    #[test]
    fn empty_run_is_still_a_valid_document() {
        let s = render(&[]);
        assert!(s.contains("\"results\":[]"));
        assert!(s.ends_with("]}]}"));
    }

    #[test]
    fn renders_parseable_nesting() {
        // Cheap structural sanity: braces and brackets balance.
        let s = render(&[diag("panic", "x")]);
        let mut depth = 0i64;
        for b in s.bytes() {
            match b {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }
}
