//! Facade-level integration tests of the simulated distributed pipeline:
//! the paper's parallel decomposition must agree with the serial pipeline
//! through the public `ppbench::dist` API.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{rank, Pipeline, PipelineConfig, ValidationLevel, Variant};
use ppbench::dist::{run_distributed, DistConfig};
use ppbench::io::tempdir::TempDir;
use ppbench::sparse::vector;

fn cfg(scale: u32) -> PipelineConfig {
    PipelineConfig::builder()
        .scale(scale)
        .edge_factor(8)
        .seed(23)
        .validation(ValidationLevel::None)
        .build()
}

#[test]
fn distributed_ranking_matches_every_serial_backend() {
    let base = cfg(8);
    let dist = run_distributed(&DistConfig {
        pipeline: base.clone(),
        workers: 4,
    });
    for variant in [Variant::Optimized, Variant::Naive, Variant::Dataframe] {
        let td = TempDir::new("dist-facade").unwrap();
        let mut c = base.clone();
        c.variant = variant;
        let serial = Pipeline::new(c, td.path())
            .run()
            .unwrap()
            .kernel3
            .unwrap()
            .ranks;
        let gap = vector::l1_distance(&dist.ranks, &serial);
        assert!(gap < 1e-12, "{}: L1 gap {gap}", variant.name());
        assert!(rank::kendall_tau(&dist.ranks, &serial) > 0.99999);
    }
}

#[test]
fn distributed_nnz_matches_serial_filter() {
    let base = cfg(7);
    let dist = run_distributed(&DistConfig {
        pipeline: base.clone(),
        workers: 3,
    });
    let td = TempDir::new("dist-facade").unwrap();
    let serial = Pipeline::new(base, td.path()).run().unwrap();
    assert_eq!(dist.nnz_after, serial.kernel2.unwrap().stats.nnz_after);
}

#[test]
fn worker_count_does_not_change_the_answer() {
    let base = cfg(7);
    let reference = run_distributed(&DistConfig {
        pipeline: base.clone(),
        workers: 2,
    });
    for workers in [3usize, 6, 7] {
        let out = run_distributed(&DistConfig {
            pipeline: base.clone(),
            workers,
        });
        let gap = vector::l1_distance(&out.ranks, &reference.ranks);
        assert!(gap < 1e-12, "{workers} workers: gap {gap}");
        assert_eq!(out.nnz_after, reference.nnz_after);
    }
}

#[test]
fn shuffle_traffic_scales_with_worker_count() {
    let base = cfg(7);
    let w2 = run_distributed(&DistConfig {
        pipeline: base.clone(),
        workers: 2,
    });
    let w8 = run_distributed(&DistConfig {
        pipeline: base,
        workers: 8,
    });
    // (W−1)/W of the edges move: 1/2 at W=2, 7/8 at W=8 → ratio 7/4.
    let ratio = w8.comm_k1.bytes as f64 / w2.comm_k1.bytes as f64;
    assert!(
        (1.55..1.95).contains(&ratio),
        "K1 traffic ratio {ratio}, expected ≈ 1.75"
    );
}
