//! Distributed execution — the paper's parallel decomposition, simulated.
//!
//! Runs the pipeline on an in-process "cluster" of worker threads using the
//! row-block decomposition §IV describes, verifies the distributed result
//! against the serial pipeline, and reports the communication volume per
//! kernel — the quantity the paper's parallel-computation models are built
//! from ("this part of this kernel can characterize the relevant network
//! communication capabilities of a big-data system").
//!
//! ```text
//! cargo run --release --example distributed_cluster [scale] [workers]
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
use ppbench::dist::{run_distributed, DistConfig};
use ppbench::io::tempdir::TempDir;
use ppbench::sparse::vector;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let cfg = PipelineConfig::builder()
        .scale(scale)
        .seed(99)
        .validation(ValidationLevel::None)
        .build();
    println!(
        "cluster of {workers} workers, {} ({} edges)\n",
        cfg.spec,
        cfg.spec.num_edges()
    );

    // Serial reference run.
    let td = TempDir::new("ppbench-dist-example").expect("temp dir");
    let serial = Pipeline::new(cfg.clone(), td.path())
        .run()
        .expect("serial pipeline");
    let serial_ranks = serial.kernel3.as_ref().unwrap().ranks.clone();

    // Distributed run.
    let out = run_distributed(&DistConfig {
        pipeline: cfg.clone(),
        workers,
    });

    let gap = vector::l1_distance(&out.ranks, &serial_ranks);
    println!("serial vs distributed rank agreement: L1 distance {gap:.3e}");
    assert!(gap < 1e-10, "distributed run diverged");

    let m = cfg.spec.num_edges();
    let fmt = |bytes: u64| format!("{:.2} MB", bytes as f64 / 1e6);
    println!("\ncommunication volume (what a real interconnect would carry):");
    println!(
        "  K1 shuffle:            {:>12}  ({:.1} bytes/edge — ~(W-1)/W of all edges move)",
        fmt(out.comm_k1.bytes),
        out.comm_k1.bytes as f64 / m as f64
    );
    println!(
        "  K2 degree aggregation: {:>12}  (all-reduce of N in-degrees + elimination mask)",
        fmt(out.comm_k2.bytes)
    );
    println!(
        "  K3 rank reductions:    {:>12}  (20 iterations x all-reduce of N ranks)",
        fmt(out.comm_k3.bytes)
    );
    println!(
        "\nK3 moves {:.1}x the bytes of K1 — \"likely to be limited by network \
         communication\", exactly as the paper predicts.",
        out.comm_k3.bytes as f64 / out.comm_k1.bytes.max(1) as f64
    );
}
