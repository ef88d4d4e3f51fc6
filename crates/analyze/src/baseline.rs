//! The waiver ratchet: a committed `ANALYZE_BASELINE.json` records how
//! many waivers each rule currently needs; CI fails when a count
//! **grows**, and asks for a baseline refresh when a count shrinks. Debt
//! can only go down.
//!
//! The file is deliberately tiny and flat so diffs read at a glance:
//!
//! ```text
//! {
//!   "schema": "ppbench-analyze-baseline-v2",
//!   "waivers": { "hash-iteration": 2, "panic": 3 }
//! }
//! ```
//!
//! Parsing is a purpose-built scanner for exactly this shape (one flat
//! string → integer map) — the same no-dependency stance as the rest of
//! the crate.

use std::collections::BTreeMap;

/// Counts the baseline tracks, keyed by rule name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Used waivers per rule.
    pub waivers: BTreeMap<String, usize>,
}

/// Schema tag; bump on incompatible layout changes (v2 dropped the
/// `warnings` section).
pub const SCHEMA: &str = "ppbench-analyze-baseline-v2";

impl Baseline {
    /// Renders the committed JSON form (sorted keys, trailing newline).
    pub fn render(&self) -> String {
        let entries: Vec<String> = self
            .waivers
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v}"))
            .collect();
        let waivers = if entries.is_empty() {
            "{}".to_string()
        } else {
            format!("{{\n{}\n  }}", entries.join(",\n"))
        };
        format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"waivers\": {waivers}\n}}\n")
    }

    /// Parses the committed form. Errors carry enough context to fix the
    /// file by hand.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        if !text.contains(SCHEMA) {
            return Err(format!(
                "baseline schema mismatch: expected `{SCHEMA}` — regenerate with \
                 --write-baseline"
            ));
        }
        let mut out = Baseline::default();
        let Some(at) = text.find("\"waivers\"") else {
            return Err("baseline is missing the \"waivers\" section".into());
        };
        let rest = &text[at..];
        let open = rest
            .find('{')
            .ok_or("\"waivers\" section has no opening brace")?;
        let close = rest[open..]
            .find('}')
            .ok_or("\"waivers\" section has no closing brace")?;
        for entry in rest[open + 1..open + close].split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("malformed entry `{entry}` in \"waivers\""))?;
            let value: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("non-numeric count `{}` in \"waivers\"", value.trim()))?;
            out.waivers
                .insert(key.trim().trim_matches('"').to_string(), value);
        }
        Ok(out)
    }

    /// Compares `current` against this committed baseline. Returns
    /// regression messages (CI failures) and improvement messages
    /// (a nudge to re-write the baseline); either list may be empty.
    pub fn compare(&self, current: &Baseline) -> (Vec<String>, Vec<String>) {
        let mut regressions = Vec::new();
        let mut improvements = Vec::new();
        let rules: std::collections::BTreeSet<&String> =
            self.waivers.keys().chain(current.waivers.keys()).collect();
        for rule in rules {
            let was = self.waivers.get(rule).copied().unwrap_or(0);
            let is = current.waivers.get(rule).copied().unwrap_or(0);
            if is > was {
                regressions.push(format!(
                    "waiver count for `{rule}` grew {was} -> {is}: fix the new \
                     site instead of adding debt"
                ));
            } else if is < was {
                improvements.push(format!(
                    "waiver count for `{rule}` shrank {was} -> {is}: run \
                     --write-baseline to lock in the improvement"
                ));
            }
        }
        (regressions, improvements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(waivers: &[(&str, usize)]) -> Baseline {
        Baseline {
            waivers: waivers.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let b = base(&[("panic", 3), ("hash-iteration", 1)]);
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn empty_sections_round_trip() {
        let b = Baseline::default();
        assert_eq!(Baseline::parse(&b.render()).unwrap(), b);
    }

    #[test]
    fn growth_is_a_regression() {
        let committed = base(&[("panic", 1)]);
        let current = base(&[("panic", 2)]);
        let (reg, imp) = committed.compare(&current);
        assert_eq!(reg.len(), 1, "{reg:?}");
        assert!(reg[0].contains("grew 1 -> 2"), "{}", reg[0]);
        assert!(imp.is_empty());
    }

    #[test]
    fn new_rule_with_findings_is_a_regression() {
        let committed = Baseline::default();
        let current = base(&[("indexing", 1)]);
        let (reg, _) = committed.compare(&current);
        assert_eq!(reg.len(), 1, "{reg:?}");
    }

    #[test]
    fn shrinkage_asks_for_a_rewrite_but_passes() {
        let committed = base(&[("panic", 3)]);
        let current = base(&[("panic", 1)]);
        let (reg, imp) = committed.compare(&current);
        assert!(reg.is_empty());
        assert_eq!(imp.len(), 1);
        assert!(imp[0].contains("--write-baseline"), "{}", imp[0]);
    }

    #[test]
    fn equal_counts_are_silent() {
        let committed = base(&[("panic", 2), ("indexing", 1)]);
        let (reg, imp) = committed.compare(&committed.clone());
        assert!(reg.is_empty() && imp.is_empty());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = Baseline::parse("{\"schema\": \"other\"}").unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn malformed_count_is_rejected() {
        let text = "{\"schema\": \"ppbench-analyze-baseline-v2\",\
                    \"waivers\": {\"panic\": many}}";
        let err = Baseline::parse(text).unwrap_err();
        assert!(err.contains("non-numeric"), "{err}");
    }
}
