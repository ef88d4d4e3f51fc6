//! Command-line entry point for a single benchmark run.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin pprank -- \
//!     [--scale S] [--edge-factor K] [--seed N] [--files N] \
//!     [--variant optimized|naive|dataframe|parallel] \
//!     [--generator kronecker|ppl|erdos-renyi] [--gen faithful|linear] \
//!     [--workload pagerank|bfs|cc|sssp|tc] [--input-tsv PATH] \
//!     [--sort-end] [--fused] [--diagonal] [--budget BYTES] \
//!     [--validate none|invariants|eigen] [--dir PATH] [--keep] [--top K]
//! ```
//!
//! Runs all four kernels, prints per-kernel timings in the paper's
//! edges/second metric, validation results, and the top-ranked vertices.

use std::path::PathBuf;
use std::process::exit;

use ppbench_core::kernel3::DanglingStrategy;
use ppbench_core::{Pipeline, PipelineConfig, ValidationLevel, Variant, Workload};
use ppbench_dist::{run_distributed, DistConfig};
use ppbench_gen::{GeneratorKind, RmatSampler};

fn usage() -> ! {
    eprintln!(
        "usage: pprank [--scale S] [--edge-factor K] [--seed N] [--files N]\n\
         \x20             [--variant NAME] [--generator NAME] [--gen faithful|linear]\n\
         \x20             [--sort-end] [--fused]\n\
         \x20             [--diagonal]\n\
         \x20             [--workload pagerank|bfs|cc|sssp|tc] [--input-tsv PATH]\n\
         \x20             [--budget BYTES] [--validate none|invariants|eigen]\n\
         \x20             [--dangling omit|redistribute|sink] [--converge TOL]\n\
         \x20             [--iterations N] [--damping C] [--dir PATH] [--keep] [--top K]\n\
         \x20             [--workers W   (simulated distributed mode)] [--report PATH]\n\
         \x20             [--threads N   (size the rayon pool; recorded in the run record)]\n\
         \x20             [--json        (machine-readable run record on stdout)]"
    );
    exit(2)
}

fn main() {
    let mut builder = PipelineConfig::builder().scale(14);
    let mut dir: Option<PathBuf> = None;
    let mut keep = false;
    let mut top = 5usize;
    let mut workers: Option<usize> = None;
    let mut report: Option<PathBuf> = None;
    let mut json = false;
    let mut threads: Option<u64> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        builder = match flag.as_str() {
            "--scale" => builder.scale(value().parse().unwrap_or_else(|_| usage())),
            "--edge-factor" => builder.edge_factor(value().parse().unwrap_or_else(|_| usage())),
            "--seed" => builder.seed(value().parse().unwrap_or_else(|_| usage())),
            "--files" => builder.num_files(value().parse().unwrap_or_else(|_| usage())),
            "--variant" => builder.variant(Variant::parse(&value()).unwrap_or_else(|| usage())),
            "--gen" => builder.gen(RmatSampler::parse(&value()).unwrap_or_else(|| usage())),
            "--generator" => {
                builder.generator(GeneratorKind::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--sort-end" => builder.sort_key(ppbench_sort::SortKey::StartEnd),
            "--fused" => builder.fused(true),
            "--workload" => builder.workload(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--input-tsv" => builder.input_tsv(PathBuf::from(value())),
            "--dangling" => {
                builder.dangling(DanglingStrategy::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--converge" => {
                builder.convergence_tolerance(value().parse().unwrap_or_else(|_| usage()))
            }
            "--iterations" => builder.iterations(value().parse().unwrap_or_else(|_| usage())),
            "--damping" => builder.damping(value().parse().unwrap_or_else(|_| usage())),
            "--diagonal" => builder.add_diagonal_to_empty(true),
            "--budget" => builder.sort_budget_bytes(value().parse().unwrap_or_else(|_| usage())),
            "--validate" => builder.validation(match value().as_str() {
                "none" => ValidationLevel::None,
                "invariants" => ValidationLevel::Invariants,
                "eigen" => ValidationLevel::Eigenvector,
                _ => usage(),
            }),
            "--dir" => {
                dir = Some(PathBuf::from(value()));
                builder
            }
            "--keep" => {
                keep = true;
                builder
            }
            "--top" => {
                top = value().parse().unwrap_or_else(|_| usage());
                builder
            }
            "--workers" => {
                workers = Some(value().parse().unwrap_or_else(|_| usage()));
                builder
            }
            "--report" => {
                report = Some(PathBuf::from(value()));
                builder
            }
            "--threads" => {
                threads = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
                builder
            }
            "--json" => {
                json = true;
                builder
            }
            _ => usage(),
        };
    }
    let cfg = builder.build();

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
        // ppbench: allow(discarded-result, reason = "best-effort cleanup of the ephemeral work dir; the run already reported")
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
