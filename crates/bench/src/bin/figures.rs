//! Regenerates the paper's Figures 4–7: per-kernel throughput (edges per
//! second) versus number of edges, one series per implementation variant.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin figures -- \
//!     [--kernel 0|1|2|3|all] [--scales lo:hi] [--edge-factor K] \
//!     [--variants opt,naive,df,par] [--csv out.csv] [--seed N] [--files N]
//! ```
//!
//! Defaults run all four kernels over scales 16:20 for all variants (the
//! paper sweeps 16:22; pass `--scales 16:22` on a machine with ≥4 GB free
//! and some patience for the naive backend).

use std::process::exit;

use ppbench_bench::harness::parse_scale_range;
use ppbench_bench::{plot, sweep};
use ppbench_core::Variant;

struct Args {
    kernels: Vec<usize>,
    cfg: sweep::SweepConfig,
    csv_path: Option<String>,
    model: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [--kernel 0|1|2|3|all] [--scales lo:hi] [--edge-factor K]\n\
         \x20              [--variants a,b,...] [--csv out.csv] [--seed N] [--files N] [--model]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut kernels = vec![0, 1, 2, 3];
    let mut cfg = sweep::SweepConfig {
        scales: (16..=20).collect(),
        ..Default::default()
    };
    let mut csv_path = None;
    let mut model = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--kernel" => {
                let v = value();
                kernels = match v.as_str() {
                    "all" => vec![0, 1, 2, 3],
                    k => vec![k
                        .parse()
                        .ok()
                        .filter(|&k: &usize| k < 4)
                        .unwrap_or_else(|| usage())],
                };
            }
            "--scales" => {
                cfg.scales = parse_scale_range(&value())
                    .unwrap_or_else(|| usage())
                    .collect();
            }
            "--edge-factor" => cfg.edge_factor = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--files" => cfg.num_files = value().parse().unwrap_or_else(|_| usage()),
            "--variants" => {
                cfg.variants = value()
                    .split(',')
                    .map(|s| Variant::parse(s).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--csv" => csv_path = Some(value()),
            "--model" => model = true,
            _ => usage(),
        }
    }
    Args {
        kernels,
        cfg,
        csv_path,
        model,
    }
}

const KERNEL_TITLES: [&str; 4] = [
    "Figure 4: Kernel 0 (generate + write) — untimed in the official metric",
    "Figure 5: Kernel 1 (sort) — edges sorted per second",
    "Figure 6: Kernel 2 (filter) — edges prepared per second",
    "Figure 7: Kernel 3 (PageRank) — edges processed per second (20 iterations)",
];

/// Prints predicted (calibrated hardware model) vs measured rates for the
/// optimized backend — the paper's §V "performance predictions" study.
fn print_model_comparison(args: &Args, points: &[sweep::SweepPoint]) {
    use ppbench_core::model;
    use ppbench_gen::GraphSpec;
    eprintln!("calibrating hardware model...");
    let hw = model::HardwareModel::calibrate();
    println!("\nHardware model (calibrated):");
    println!(
        "  stream {:9.3e} B/s   parse  {:9.3e} B/s   format {:9.3e} B/s",
        hw.stream_bytes_per_s, hw.parse_bytes_per_s, hw.format_bytes_per_s
    );
    println!(
        "  random {:9.3e} acc/s storage-write {:9.3e} B/s",
        hw.random_access_per_s, hw.storage_write_bytes_per_s
    );
    println!("\nModel vs measured (optimized backend, edges/s):");
    println!(
        "  {:>5} {:>3} {:>12} {:>12} {:>7}  model-dominant-phase",
        "scale", "K", "predicted", "measured", "ratio"
    );
    for p in points
        .iter()
        .filter(|p| p.variant == ppbench_core::Variant::Optimized)
    {
        let spec = GraphSpec::new(p.scale, args.cfg.edge_factor);
        let nnz = 0.8 * p.edges as f64;
        let preds = model::predict_all(&spec, nnz, 20, &hw);
        for (k, pred) in preds.iter().enumerate() {
            let measured = p.rates[k];
            println!(
                "  {:>5} {:>3} {:>12.3e} {:>12.3e} {:>7.2}  {}",
                p.scale,
                k,
                pred.edges_per_second,
                measured,
                measured / pred.edges_per_second,
                pred.dominant()
            );
        }
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "sweep: scales {:?}, variants {:?}, k={}",
        args.cfg.scales,
        args.cfg
            .variants
            .iter()
            .map(|v| v.name())
            .collect::<Vec<_>>(),
        args.cfg.edge_factor
    );
    let points = match sweep::run_sweep_in_temp(&args.cfg, |p| {
        eprintln!(
            "  scale {:2} {:<10} K0 {:9.3e}  K1 {:9.3e}  K2 {:9.3e}  K3 {:9.3e} edges/s",
            p.scale,
            p.variant.name(),
            p.rates[0],
            p.rates[1],
            p.rates[2],
            p.rates[3]
        );
    }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            exit(1);
        }
    };

    if let Some(path) = &args.csv_path {
        if let Err(e) = std::fs::write(path, sweep::to_csv(&points)) {
            eprintln!("failed to write {path}: {e}");
            exit(1);
        }
        eprintln!("wrote {path}");
    }

    if args.model {
        print_model_comparison(&args, &points);
    }

    for &kernel in &args.kernels {
        let series = sweep::kernel_series(&points, kernel);
        println!("\n{}", KERNEL_TITLES[kernel]);
        println!("{}", "=".repeat(KERNEL_TITLES[kernel].len()));
        print!("{}", plot::loglog(&series, 64, 16));
        // Numeric table under the plot for exact reading.
        println!("\n  {:<12} {:>12} {:>14}", "variant", "edges", "edges/sec");
        for (label, pts) in &series {
            for &(x, y) in pts {
                println!("  {label:<12} {x:>12.0} {y:>14.1}");
            }
        }
    }
}
