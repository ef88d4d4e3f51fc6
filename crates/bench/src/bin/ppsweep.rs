//! The one sweep driver behind the five committed `BENCH_*.json` baselines.
//!
//! ```text
//! cargo run --release -p ppbench-bench --bin ppsweep -- k01      [flags] [--out PATH]
//! cargo run --release -p ppbench-bench --bin ppsweep -- k3       [flags] [--out PATH]
//! cargo run --release -p ppbench-bench --bin ppsweep -- pipeline [flags] [--out PATH]
//! cargo run --release -p ppbench-bench --bin ppsweep -- algo     [flags] [--out PATH]
//! cargo run --release -p ppbench-bench --bin ppsweep -- serve    [flags] [--out PATH]
//! cargo run -p ppbench-bench --bin ppsweep -- check BENCH_k01.json BENCH_k3.json ...
//! ```
//!
//! A sweep subcommand measures (every repetition gated on reproducing its
//! reference output — see `ppbench_bench::harness`), prints a table, and
//! writes the canonical-JSON trajectory file. `check` validates existing
//! files — schema picked from each file's `"benchmark"` tag, shape plus
//! rate consistency — and exits nonzero on drift. Run with no arguments
//! for each sweep's flags.

use std::process::exit;

use ppbench_bench::harness::{self, Sweep};
use ppbench_bench::{algo, k01, k3, pipe, serve};

fn usage() -> ! {
    eprintln!("usage: ppsweep <sweep> [flags] [--out PATH]\n       ppsweep check FILE...");
    let sweeps = [
        (k01::SweepConfig::NAME, k01::SweepConfig::FLAGS),
        (k3::SweepConfig::NAME, k3::SweepConfig::FLAGS),
        (pipe::SweepConfig::NAME, pipe::SweepConfig::FLAGS),
        (algo::SweepConfig::NAME, algo::SweepConfig::FLAGS),
        (serve::SweepConfig::NAME, serve::SweepConfig::FLAGS),
    ];
    for (name, flags) in sweeps {
        eprintln!("  {name:<8} {flags}");
    }
    exit(2)
}

/// Runs sweep `S` with the remaining arguments as its flags.
fn sweep<S: Sweep>(argv: impl Iterator<Item = String>) -> Result<(), String> {
    let Some((cfg, out)) = harness::parse_args::<S>(argv) else {
        usage()
    };
    let rows = cfg.run().map_err(|e| format!("sweep failed: {e}"))?;
    print!("{}", harness::table::<S>(&rows));
    let json = harness::to_json(&cfg, &rows);
    std::fs::write(&out, format!("{json}\n"))
        .map_err(|e| format!("failed to write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

/// Validation mode: no measurement, just the schema gate CI relies on.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let tag =
        ppbench_bench::check_document(&text).map_err(|e| format!("{path}: schema drift: {e}"))?;
    println!("{path}: schema ok ({tag})");
    Ok(())
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some(k01::SweepConfig::NAME) => sweep::<k01::SweepConfig>(argv),
        Some(k3::SweepConfig::NAME) => sweep::<k3::SweepConfig>(argv),
        Some(pipe::SweepConfig::NAME) => sweep::<pipe::SweepConfig>(argv),
        Some(algo::SweepConfig::NAME) => sweep::<algo::SweepConfig>(argv),
        Some(serve::SweepConfig::NAME) => sweep::<serve::SweepConfig>(argv),
        Some("check") if argv.len() > 0 => argv.try_for_each(|path| check(&path)),
        _ => usage(),
    };
    if let Err(e) = outcome {
        eprintln!("{e}");
        exit(1);
    }
}
