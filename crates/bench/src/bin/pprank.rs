//! Command-line entry point for a single benchmark run.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin pprank -- [FLAG]...
//! ```
//!
//! Runs all four kernels, prints per-kernel timings in the paper's
//! edges/second metric, validation results, and the top-ranked vertices.
//!
//! The configuration flags are the rows of `ppbench_core::FIELDS` — the
//! table `POST /runs` bodies are read through, so both surfaces accept the
//! same names and bounds. An unknown flag (`--help`, say) prints this text,
//! generated from the table:
//!
//! ```text
//! usage: pprank [FLAG]...
//! run configuration (defaults: the benchmark spec, at scale 14):
//!   --diagonal       sets add_diagonal_to_empty to true
//!   --converge V     convergence_tolerance: a positive number
//!   --damping V      damping: a number strictly between 0 and 1
//!   --dangling V     dangling: omit|redistribute|sink
//!   --edge-factor V  edge_factor: an integer, at least 1
//!   --fused          sets fused to true
//!   --gen V          gen: faithful|linear
//!   --generator V    generator: kronecker|ppl|erdos-renyi|bter
//!   --input-tsv V    input_tsv: a path to a TSV edge list
//!   --iterations V   iterations: an integer from 1 to 2^32-1
//!   --files V        num_files: an integer, at least 1
//!   --scale V        scale: an integer from 0 to 57
//!   --seed V         seed: an integer from 0 to 2^64-1
//!   --budget V       sort_budget_bytes: a byte count
//!   --sort-end       sets sort_key to start-end
//!   --validate V     validation: none|invariants|eigen|eigenvector
//!   --variant V      variant: optimized|naive|dataframe|parallel|graphblas
//!   --workload V     workload: pagerank|bfs|cc|sssp|tc
//! this run:
//!   --dir PATH       keep kernel files under PATH (default: a temp dir, removed)
//!   --keep           keep the temp dir
//!   --top K          print the K top-ranked vertices (default 5)
//!   --workers W      simulated distributed mode on W workers
//!   --threads N      size the rayon pool; recorded in the run record
//!   --json           machine-readable run record on stdout
//!   --report PATH    write that same JSON run record to PATH
//! ```

use std::path::PathBuf;
use std::process::exit;

use ppbench_core::{Cli, Pipeline, PipelineConfig, Wire, FIELDS};
use ppbench_dist::{run_distributed, DistConfig};

/// The usage text: one line per [`FIELDS`] row that has a flag, then the
/// flags that shape this invocation rather than the run's configuration.
fn usage() -> String {
    let mut out = String::from(
        "usage: pprank [FLAG]...\n\
         run configuration (defaults: the benchmark spec, at scale 14):\n",
    );
    for f in &FIELDS {
        out += &match f.cli {
            Cli::None => continue,
            Cli::Takes(flag) => format!("  {:<16} {}: {}\n", format!("{flag} V"), f.key, f.accepts),
            Cli::Bare(flag, implied) => format!("  {flag:<16} sets {} to {implied}\n", f.key),
        };
    }
    out + "this run:\n\
           \x20 --dir PATH       keep kernel files under PATH (default: a temp dir, removed)\n\
           \x20 --keep           keep the temp dir\n\
           \x20 --top K          print the K top-ranked vertices (default 5)\n\
           \x20 --workers W      simulated distributed mode on W workers\n\
           \x20 --threads N      size the rayon pool; recorded in the run record\n\
           \x20 --json           machine-readable run record on stdout\n\
           \x20 --report PATH    write that same JSON run record to PATH\n"
}

/// What a command line asks for.
#[derive(Debug)]
struct Args {
    cfg: PipelineConfig,
    dir: Option<PathBuf>,
    keep: bool,
    top: usize,
    workers: Option<usize>,
    report: Option<PathBuf>,
    json: bool,
    threads: Option<u64>,
}

/// Parses the arguments after the program name. An `Err` is the complaint
/// to print before exiting 2: one line naming the offending flag and what
/// it accepts (an unknown flag gets the usage text appended).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut builder = PipelineConfig::builder().scale(14);
    let (mut dir, mut report, mut workers, mut threads) = (None, None, None, None);
    let (mut keep, mut json, mut top) = (false, false, 5);
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let count = |text: String| {
            let n = text.parse::<u64>().ok().filter(|&n| n >= 1);
            n.ok_or(format!("{flag}: {text:?} is not a positive integer"))
        };
        let row = FIELDS.iter().find_map(|f| match f.cli {
            Cli::Takes(spelling) if spelling == flag => Some((f, None)),
            Cli::Bare(spelling, implied) if spelling == flag => Some((f, Some(implied))),
            _ => None,
        });
        if let Some((field, implied)) = row {
            let text = match implied {
                Some(implied) => implied.to_string(),
                None => value()?,
            };
            field
                .apply(&mut builder, Wire::Text(&text))
                .map_err(|why| format!("{flag}: {why}"))?;
            continue;
        }
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--keep" => keep = true,
            "--top" => {
                let text = value()?;
                top = text
                    .parse()
                    .map_err(|_| format!("{flag}: {text:?} is not a count"))?;
            }
            "--workers" => workers = Some(count(value()?)? as usize),
            "--report" => report = Some(PathBuf::from(value()?)),
            "--threads" => threads = Some(count(value()?)?),
            "--json" => json = true,
            _ => return Err(format!("unknown flag {flag}\n{}", usage().trim_end())),
        }
    }
    Ok(Args {
        cfg: builder.check()?,
        dir,
        keep,
        top,
        workers,
        report,
        json,
        threads,
    })
}

fn main() {
    let Args {
        cfg,
        dir,
        keep,
        top,
        workers,
        report,
        json,
        threads,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("pprank: {why}");
            exit(2);
        }
    };

    // Size the global rayon pool before any parallel stage runs, so every
    // kernel of this process uses exactly the requested worker count and
    // the recorded number is what actually ran.
    if let Some(Err(e)) = threads.map(|n| ppbench_bench::harness::size_pool(n as usize)) {
        eprintln!("{e}");
        exit(1);
    }

    // Distributed mode: run the simulated cluster, report communication
    // volume, and exit (no kernel files are produced).
    if let Some(workers) = workers {
        let out = run_distributed(&DistConfig {
            pipeline: cfg.clone(),
            workers,
        });
        println!("distributed run on {workers} workers: {}", cfg.describe());
        let mb = |b: u64| b as f64 / 1e6;
        println!(
            "  K1 shuffle traffic:     {:10.2} MB ({} messages)",
            mb(out.comm_k1.bytes),
            out.comm_k1.messages
        );
        println!(
            "  K2 aggregation traffic: {:10.2} MB ({} messages)",
            mb(out.comm_k2.bytes),
            out.comm_k2.messages
        );
        println!(
            "  K3 reduction traffic:   {:10.2} MB ({} messages)",
            mb(out.comm_k3.bytes),
            out.comm_k3.messages
        );
        println!("  global nnz after filter: {}", out.nnz_after);
        let mut pairs: Vec<(u64, f64)> = out
            .ranks
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as u64, r))
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        println!("  top {top} vertices by rank:");
        for (v, r) in pairs.into_iter().take(top) {
            println!("    vertex {v:>10}  rank {r:.6e}");
        }
        return;
    }

    let (work_dir, ephemeral) = match dir {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!("pprank-{}", std::process::id())),
            true,
        ),
    };

    let result = match Pipeline::new(cfg.clone(), &work_dir).run() {
        Ok(r) => r,
        Err(e) => {
            if json {
                // Machine-readable failure on stdout, mirroring the
                // success shape's `record` tag; detail stays on stderr.
                // Same canonical writer as the success path, so scripts
                // see one spelling of the failure shape too.
                let mut failure = ppbench_core::json::JsonObject::new();
                failure
                    .set_str("record", "ppbench-run-v1")
                    .set_str("error", &e.to_string());
                println!("{}", failure.render());
            }
            eprintln!("pipeline failed: {e}");
            exit(1);
        }
    };
    let mut record = ppbench_core::RunRecord::from_result(&result);
    record.threads = threads;
    if json {
        println!("{}", record.to_json());
    } else {
        print!("{}", result.summary());
    }
    if let Some(path) = &report {
        if let Err(e) = record.save(path) {
            eprintln!("failed to write report {}: {e}", path.display());
            exit(1);
        }
        if !json {
            println!("run record written to {}", path.display());
        }
    }
    if !json {
        if let Some(k3) = &result.kernel3 {
            if k3.iterations < cfg.iterations {
                println!(
                    "converged after {} iterations (final L1 delta {:.2e})",
                    k3.iterations, k3.final_delta
                );
            }
            println!("top {top} vertices by rank:");
            for (v, r) in k3.top_k(top) {
                println!("  vertex {v:>10}  rank {r:.6e}");
            }
        }
        if let Some(a) = &result.algo {
            println!(
                "{} result: {} {} (checksum {:016x}{})",
                a.workload,
                a.stat,
                a.stat_name,
                a.checksum,
                a.source
                    .map(|s| format!(", source vertex {s}"))
                    .unwrap_or_default()
            );
        }
        if let Some(v) = &result.validation {
            println!("\nvalidation detail:\n{}", v.detail());
        }
    }

    if ephemeral && !keep {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup of the ephemeral work dir; the run already reported"
        )]
        let _ = std::fs::remove_dir_all(&work_dir);
    } else if !json {
        println!("\nkernel files kept under {}", work_dir.display());
    }

    // A run whose validation failed is not a benchmark result; make that
    // visible to scripts in both output modes.
    if record.validation_passed == Some(false) {
        eprintln!("validation FAILED");
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    /// The five invocations that panicked (exit 101) at a4fd8b0: each is
    /// now an `Err` naming the flag and what it accepts.
    #[test]
    fn damping_out_of_range_names_the_flag() {
        let err = parse("--scale 6 --damping 1.5").unwrap_err();
        assert!(err.starts_with("--damping: "), "{err}");
        assert!(err.contains("a number strictly between 0 and 1"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
    }

    #[test]
    fn scale_out_of_range_names_the_flag() {
        let err = parse("--scale 60").unwrap_err();
        assert!(err.starts_with("--scale: "), "{err}");
        assert!(err.contains("an integer from 0 to 57"), "{err}");
    }

    #[test]
    fn zero_iterations_names_the_flag() {
        let err = parse("--iterations 0").unwrap_err();
        assert!(err.starts_with("--iterations: "), "{err}");
        assert!(err.contains("an integer from 1 to 2^32-1"), "{err}");
    }

    #[test]
    fn zero_files_names_the_flag() {
        let err = parse("--files 0").unwrap_err();
        assert!(err.starts_with("--files: "), "{err}");
        assert!(err.contains("an integer, at least 1"), "{err}");
    }

    #[test]
    fn edge_count_overflow_is_an_error_not_a_panic() {
        let err = parse("--scale 40 --edge-factor 100000000").unwrap_err();
        assert!(err.contains("edge_factor 100000000 overflows"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
        // Flag order does not matter to the cross-field rule.
        assert!(parse("--edge-factor 100000000 --scale 40").is_err());
        assert!(parse("--edge-factor 100000000 --scale 4").is_ok());
    }

    #[test]
    fn flags_reach_the_config_the_way_http_keys_do() {
        let args = parse(
            "--scale 9 --seed 7 --sort-end --fused --diagonal --validate eigenvector \
             --variant graphblas --generator bter --converge 1e-9 --top 3 --threads 2 --json",
        )
        .unwrap();
        let body = ppbench_core::json::Json::parse(
            r#"{"scale": 9, "seed": 7, "sort_key": "start-end", "fused": true,
                "add_diagonal_to_empty": true, "validation": "eigenvector",
                "variant": "graphblas", "generator": "bter",
                "convergence_tolerance": 1e-9}"#,
        )
        .unwrap();
        let served = ppbench_serve::config_from_json(&body).unwrap();
        assert_eq!(args.cfg.canonical_hash(), served.canonical_hash());
        assert_eq!((args.top, args.threads, args.json), (3, Some(2), true));
        assert_eq!(
            parse("").unwrap().cfg.spec.scale(),
            14,
            "pprank's default scale"
        );
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        assert!(parse("--scale").unwrap_err().contains("needs a value"));
        assert!(parse("--scale big").unwrap_err().starts_with("--scale: "));
        assert!(parse("--variant fast")
            .unwrap_err()
            .contains("optimized|naive"));
        assert!(parse("--threads 0").unwrap_err().starts_with("--threads: "));
        let err = parse("--bogus").unwrap_err();
        assert!(
            err.starts_with("unknown flag --bogus\nusage: pprank"),
            "{err}"
        );
    }

    #[test]
    fn the_module_doc_is_the_usage_text() {
        let doc: Vec<&str> = include_str!("pprank.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! "))
            .collect();
        for line in usage().lines() {
            assert!(doc.contains(&line), "module doc lacks {line:?}");
        }
    }
}
