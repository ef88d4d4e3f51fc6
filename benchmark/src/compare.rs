//! `ppmark compare BASE.json NEW.json`: one row per end-to-end metric ×
//! workload with base, new, ratio and a verdict under the bounds in
//! `BENCHMARK.json`. Per-layer metrics have no bound; they are listed
//! with their ratio only. Exits non-zero on any `regressed`.

use std::path::Path;
use std::process::ExitCode;

use ppbench_serve::Json;

use crate::spec::{MetricDecl, Spec};

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the run-to-run spread (or the bound, when no
    /// spread was recorded).
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// The recorded run-to-run spread exceeds the bound, so the bound
    /// cannot be checked.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Decides the verdict from the two medians, the larger recorded
/// quartile spread of the two sides (if any), and the metric's bound.
pub fn verdict(decl: &MetricDecl, base: f64, new: f64, spread: Option<f64>) -> Verdict {
    let bound = decl.bound.unwrap_or(f64::INFINITY);
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    if base == new {
        return Verdict::Unchanged;
    }
    // Share of the base median by which `new` is worse (negative: better).
    let worse = if decl.higher_is_better {
        (base - new) / base.abs()
    } else {
        (new - base) / base.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > spread.unwrap_or(bound) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Recorded {
    median: f64,
    spread: Option<f64>,
}

fn recorded(doc: &Json, workload: &str, group: &str, metric: &str) -> Option<Recorded> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?;
    Some(Recorded {
        median: m.get("median")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64),
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&source).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two `result.json` files under the declaration at
/// `benchmark_json`.
pub fn run(benchmark_json: &Path, base: &Path, new: &Path) -> Result<ExitCode, String> {
    let spec = Spec::load(benchmark_json)?;
    let (base_doc, new_doc) = (load(base)?, load(new)?);
    let mut regressed = 0;
    println!(
        "{:<16} {:<36} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for workload in &spec.workloads {
        for (group, decls) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            for decl in decls {
                let (Some(b), Some(n)) = (
                    recorded(&base_doc, workload, group, &decl.name),
                    recorded(&new_doc, workload, group, &decl.name),
                ) else {
                    println!("{workload:<16} {:<36} missing on one side", decl.name);
                    continue;
                };
                let spread = match (b.spread, n.spread) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                };
                let label = if decl.bound.is_some() {
                    let v = verdict(decl, b.median, n.median, spread);
                    if v == Verdict::Regressed {
                        regressed += 1;
                    }
                    v.name()
                } else {
                    "-"
                };
                println!(
                    "{workload:<16} {:<36} {:>14.6} {:>14.6} {:>8.3}  {label}",
                    decl.name,
                    b.median,
                    n.median,
                    n.median / b.median
                );
            }
        }
    }
    println!("== {regressed} regressed");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn lower_is_better_metric() {
        let d = decl(false);
        assert_eq!(verdict(&d, 1.0, 1.05, Some(0.02)), Verdict::Unchanged);
        assert_eq!(verdict(&d, 1.0, 1.11, Some(0.02)), Verdict::Regressed);
        assert_eq!(verdict(&d, 1.0, 0.97, Some(0.02)), Verdict::Improved);
        assert_eq!(verdict(&d, 1.0, 0.99, Some(0.02)), Verdict::Unchanged);
    }

    #[test]
    fn higher_is_better_metric() {
        let d = decl(true);
        assert_eq!(verdict(&d, 100.0, 85.0, None), Verdict::Regressed);
        assert_eq!(verdict(&d, 100.0, 95.0, None), Verdict::Unchanged);
        // Without a recorded spread an improvement must clear the bound.
        assert_eq!(verdict(&d, 100.0, 105.0, None), Verdict::Unchanged);
        assert_eq!(verdict(&d, 100.0, 115.0, None), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        assert_eq!(
            verdict(&decl(false), 1.0, 2.0, Some(0.11)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn reads_medians_and_spreads_from_a_result_document() {
        let doc = Json::parse(
            r#"{"workloads":{"w":{"end_to_end":{"m":{"median":2.5,"spread":null,"unit":"s","values":[2.5]}}}}}"#,
        )
        .unwrap();
        let r = recorded(&doc, "w", "end_to_end", "m").unwrap();
        assert_eq!((r.median, r.spread), (2.5, None));
        assert!(recorded(&doc, "w", "per_layer", "m").is_none());
    }
}
