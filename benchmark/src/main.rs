//! `ppmark`: the repeatable benchmark of ppbench — four workloads,
//! end-to-end metrics with tracing off, per-layer metrics from a traced
//! pass, and a correctness gate on every output.
//!
//! ```text
//! ppmark --workload W --seed N --seconds S --trace 0|1 [--smoke]   one workload, one process
//! ppmark [--seed N] [--seconds S] [--repeat R] [--smoke]           every workload, a fresh process each
//! ppmark compare BASE.json NEW.json                                verdict per metric × workload
//! ```
//!
//! `benchmark/run.sh` builds this binary and forwards its arguments.

#![forbid(unsafe_code)]

mod algo;
mod compare;
mod env;
mod pipe;
mod plan;
mod serve;
mod session;
mod spec;
mod stats;
mod tally;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ppbench_core::json::JsonObject;
use ppbench_serve::Json;

use crate::session::Options;
use crate::spec::{MetricDecl, Spec};
use crate::tally::{Metrics, Tally};

const USAGE: &str = "usage: ppmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--repeat R] [--smoke]\n       ppmark compare BASE.json NEW.json";

/// Parsed command line of a run (single workload or all of them).
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                out.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if out.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(out)
}

/// The benchmark's own directory: `PPMARK_DIR` (set by `run.sh`), else
/// `benchmark` under the current directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("PPMARK_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn repo_root(bench: &Path) -> PathBuf {
    match bench.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// The measurement window: `--seconds`, else one second for a smoke run,
/// else `run_seconds` from `BENCHMARK.json`.
fn seconds(args: &Args, root: &Path) -> Result<f64, String> {
    if let Some(s) = args.seconds {
        return Ok(s);
    }
    if args.smoke {
        return Ok(1.0);
    }
    let path = root.join("BENCHMARK.json");
    let source = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&source)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64))
        .ok_or_else(|| "BENCHMARK.json: no numeric `run_seconds`".to_string())
}

/// Checks that exactly the declared metrics were measured, prints them
/// by name with their units, and renders the result line.
fn report(decls: &[MetricDecl], tally: &mut Tally, metrics: &Metrics) -> String {
    for name in metrics.keys() {
        tally.check(decls.iter().any(|d| d.name == *name), || {
            format!("measured `{name}`, which BENCHMARK.json does not declare")
        });
    }
    let mut rendered = JsonObject::new();
    for decl in decls {
        let value = metrics.get(&decl.name).copied();
        tally.check(value.is_some_and(f64::is_finite), || {
            format!("`{}` is declared but has no finite value", decl.name)
        });
        let Some(value) = value else { continue };
        println!("{:<40} {:>18.6} {}", decl.name, value, decl.unit);
        let mut entry = JsonObject::new();
        entry.set_f64("value", value).set_str("unit", &decl.unit);
        rendered.set_raw(&decl.name, entry.render());
    }
    for error in &tally.errors {
        println!("FAILED: {error}");
    }
    let mut line = JsonObject::new();
    line.set_bool("correct", tally.failed == 0)
        .set_u64("attempted", tally.attempted.max(1))
        .set_u64("failed", tally.failed)
        .set_raw("metrics", rendered.render());
    line.render()
}

/// One workload in this process: the form the acceptance driver calls.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let bench = bench_dir();
    let root = repo_root(&bench);
    let spec = Spec::load(&root.join("BENCHMARK.json"))?;
    let plan = plan::plan(name, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; workloads: {}",
            plan::WORKLOADS.join(", ")
        )
    })?;
    let opts = Options {
        plan,
        seed: args.seed,
        seconds: seconds(args, &root)?,
        trace: args.trace,
        repo_root: root,
        out_dir: bench.join("out"),
    };
    println!(
        "== ppmark {name} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut outcome = session::run(&opts)?;
    outcome.env.print();
    let line = report(
        spec.declared(opts.trace),
        &mut outcome.tally,
        &outcome.metrics,
    );
    println!("{line}");
    Ok(if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Result line of one child run, parsed back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn parse_result_line(line: &str) -> Option<ChildResult> {
    let doc = Json::parse(line).ok()?;
    let Json::Object(entries) = doc.get("metrics")? else {
        return None;
    };
    Some(ChildResult {
        correct: doc.get("correct")?.as_bool()?,
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        metrics: entries
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every workload, each run in a fresh process (so peak RSS and the
/// rayon pool are per workload): end-to-end metrics with tracing off,
/// then the traced pass. Writes `out/result.json`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let bench = bench_dir();
    let root = repo_root(&bench);
    let spec = Spec::load(&root.join("BENCHMARK.json"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out_dir = bench.join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let seconds = seconds(args, &root)?;
    let env = env::Env::probe(&root, &out_dir, args.seed, seconds);
    let mut all_correct = true;
    let mut workloads = JsonObject::new();
    for name in &spec.workloads {
        let mut entry = JsonObject::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for trace in [false, true] {
            let decls = spec.declared(trace);
            let mut values: Vec<Vec<f64>> = vec![Vec::new(); decls.len()];
            for _ in 0..args.repeat {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                cmd.args(["--seconds", &seconds.to_string()]);
                if args.smoke {
                    cmd.arg("--smoke");
                }
                // `output` waits for the child and collects its stdout;
                // stderr passes through.
                let output = cmd
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let result = stdout
                    .lines()
                    .last()
                    .and_then(parse_result_line)
                    .ok_or_else(|| format!("{name}: the run printed no result line"))?;
                all_correct &= result.correct && output.status.success();
                attempted += result.attempted;
                failed += result.failed;
                for (decl, samples) in decls.iter().zip(&mut values) {
                    if let Some(v) = result.metrics.get(&decl.name) {
                        samples.push(*v);
                    }
                }
            }
            let mut group = JsonObject::new();
            for (decl, samples) in decls.iter().zip(&values) {
                if samples.is_empty() {
                    continue;
                }
                let mut m = JsonObject::new();
                m.set_str("unit", &decl.unit)
                    .set_f64("median", stats::median(samples))
                    .set_raw(
                        "values",
                        format!(
                            "[{}]",
                            samples
                                .iter()
                                .map(|v| ppbench_core::json::format_f64(*v))
                                .collect::<Vec<_>>()
                                .join(",")
                        ),
                    );
                // A quartile spread needs at least four runs to mean
                // anything; fewer leave it unrecorded.
                if samples.len() >= 4 {
                    m.set_f64("spread", stats::iqr_share(samples));
                } else {
                    m.set_null("spread");
                }
                group.set_raw(&decl.name, m.render());
            }
            entry.set_raw(
                if trace { "per_layer" } else { "end_to_end" },
                group.render(),
            );
        }
        entry
            .set_u64("attempted", attempted)
            .set_u64("failed", failed);
        workloads.set_raw(name, entry.render());
    }
    let mut result = JsonObject::new();
    result
        .set_str("benchmark", "ppmark-v1")
        .set_bool("correct", all_correct)
        .set_u64("seed", args.seed)
        .set_u64("repeat", args.repeat as u64)
        .set_raw("env", env.to_json())
        .set_raw("workloads", workloads.render());
    let path = out_dir.join("result.json");
    std::fs::write(&path, result.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "== ppmark: wrote {} ({})",
        path.display(),
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "compare") {
        match &args[1..] {
            [base, new] => {
                let bench = bench_dir();
                compare::run(
                    &repo_root(&bench).join("BENCHMARK.json"),
                    Path::new(base),
                    Path::new(new),
                )
            }
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&args).and_then(|parsed| match parsed.workload.clone() {
            Some(name) => run_one(&parsed, &name),
            None => run_all(&parsed),
        })
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ppmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "algo-suite",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("algo-suite"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), true));
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let mut tally = Tally::default();
        tally.ok(3);
        let metrics = Metrics::from([("run_s".to_string(), 1.25)]);
        let decls = [MetricDecl {
            name: "run_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        }];
        let line = report(&decls, &mut tally, &metrics);
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        // Three operations plus the two declaration checks `report` makes.
        assert_eq!((parsed.attempted, parsed.failed), (5, 0));
        assert_eq!(parsed.metrics["run_s"], 1.25);
    }

    #[test]
    fn undeclared_and_missing_metrics_fail_the_run() {
        let mut tally = Tally::default();
        let metrics = Metrics::from([("surprise".to_string(), 1.0)]);
        let decls = [MetricDecl {
            name: "run_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        }];
        let line = report(&decls, &mut tally, &metrics);
        assert_eq!(tally.failed, 2);
        assert!(!parse_result_line(&line).unwrap().correct);
    }
}
