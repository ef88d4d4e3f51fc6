//! `BENCHMARK.json`: the one place a metric's name, unit, direction and
//! regression bound are declared. The harness prints units from it and
//! refuses to emit a metric it does not name.

use std::path::Path;

use ppbench_serve::Json;

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parsed benchmark declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics (reported by the traced pass).
    pub per_layer: Vec<MetricDecl>,
}

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` must be an array")),
    }
}

fn text(item: &Json, key: &str) -> Result<String, String> {
    item.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: entry without a string `{key}`"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    array(doc, key)?
        .iter()
        .map(|item| {
            let better = text(item, "better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("BENCHMARK.json: `better` is {better:?}"));
            }
            Ok(MetricDecl {
                name: text(item, "name")?,
                unit: text(item, "unit")?,
                higher_is_better: better == "higher",
                bound: item.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the declaration from JSON text.
    pub fn parse(source: &str) -> Result<Self, String> {
        let doc = Json::parse(source).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let spec = Self {
            workloads: array(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        };
        if let Some(m) = spec.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("BENCHMARK.json: `{}` has no bound", m.name));
        }
        Ok(spec)
    }

    /// Loads `BENCHMARK.json` from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&source)
    }

    /// The metrics a run with the given trace flag must report.
    pub fn declared(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 5,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "sparse.nnz", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn parses_names_units_directions_and_bounds() {
        let spec = Spec::parse(SAMPLE).unwrap();
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.declared(false)[0].bound, Some(0.1));
        assert!(!spec.declared(false)[0].higher_is_better);
        assert_eq!(spec.declared(true)[0].unit, "count");
        assert!(spec.declared(true)[0].higher_is_better);
    }

    #[test]
    fn rejects_an_end_to_end_metric_without_a_bound() {
        let broken = SAMPLE.replace(", \"bound\": 0.1", "");
        assert!(Spec::parse(&broken).unwrap_err().contains("no bound"));
    }

    /// The schema half of the self-test: the committed declaration obeys
    /// the limits its consumers enforce, and names every workload the
    /// harness can run.
    #[test]
    fn committed_declaration_is_well_formed() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load(&path).unwrap();
        assert_eq!(spec.workloads, crate::plan::WORKLOADS);
        assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(seen.insert(&m.name), "{} is declared twice", m.name);
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                m.name
            );
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }
}
