//! Quickstart: run the full PageRank pipeline benchmark at a laptop-friendly
//! scale and print the paper-style metrics.
//!
//! ```text
//! cargo run --release --example quickstart [scale]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{Pipeline, PipelineConfig, ValidationLevel};
use ppbench::io::tempdir::TempDir;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);

    // Scale S gives N = 2^S vertices and M = 16·N edges (the official edge
    // factor). Scale 14 ≈ 260k edges: a sub-second demonstration.
    let cfg = PipelineConfig::builder()
        .scale(scale)
        .seed(42)
        .num_files(4) // the spec's free parameter: spread edges over 4 files
        .validation(ValidationLevel::Invariants)
        .build();

    println!("running: {}\n", cfg.describe());

    let work = TempDir::new("ppbench-quickstart").expect("temp dir");
    let result = Pipeline::new(cfg, work.path()).run().expect("pipeline run");

    // The paper's reporting: seconds and edges/second per kernel.
    print!("{}", result.summary());

    let k3 = result.kernel3.as_ref().expect("kernel 3 ran");
    println!("\nhighest-ranked vertices:");
    for (vertex, rank) in k3.top_k(10) {
        println!("  vertex {vertex:>8}  rank {rank:.4e}");
    }

    // Kernel metrics are also available programmatically:
    let k1 = result.kernel1.as_ref().expect("kernel 1 ran");
    println!(
        "\nkernel 1 sorted {:.2} M edges/s; kernel 3 processed {:.2} M edge-visits/s",
        k1.timing.rate() / 1e6,
        k3.timing.rate() / 1e6,
    );
}
