//! Integration tests for the extension features beyond the strict spec:
//! dangling-node strategies (the appendix's PageRank variants) and the
//! convergence-test stopping mode (§IV.D's "real application" behavior).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::kernel3::DanglingStrategy;
use ppbench::core::{Pipeline, PipelineConfig, Variant};
use ppbench::io::tempdir::TempDir;
use ppbench::sparse::vector;

fn builder(scale: u32) -> ppbench::core::PipelineConfigBuilder {
    PipelineConfig::builder()
        .scale(scale)
        .edge_factor(8)
        .seed(31)
}

#[test]
fn redistribute_strategy_conserves_mass_end_to_end() {
    let td = TempDir::new("ext").unwrap();
    let cfg = builder(8).dangling(DanglingStrategy::Redistribute).build();
    let r = Pipeline::new(cfg, td.path()).run().unwrap();
    let k3 = r.kernel3.unwrap();
    assert!(
        (k3.mass - 1.0).abs() < 1e-9,
        "strongly preferential PageRank must conserve mass, got {}",
        k3.mass
    );
}

#[test]
fn omit_strategy_leaks_mass_on_kronecker_graphs() {
    // The spec's own behavior, as a baseline for the above: kernel-2
    // filtering leaves dangling rows, so mass decays.
    let td = TempDir::new("ext").unwrap();
    let r = Pipeline::new(builder(8).build(), td.path()).run().unwrap();
    let k3 = r.kernel3.unwrap();
    assert!(k3.mass < 1.0, "expected leakage, got mass {}", k3.mass);
}

#[test]
fn all_backends_agree_under_each_dangling_strategy() {
    for strategy in [
        DanglingStrategy::Omit,
        DanglingStrategy::Redistribute,
        DanglingStrategy::Sink,
    ] {
        let reference = {
            let td = TempDir::new("ext").unwrap();
            let cfg = builder(7).dangling(strategy).build();
            Pipeline::new(cfg, td.path())
                .run()
                .unwrap()
                .kernel3
                .unwrap()
                .ranks
        };
        for variant in [
            Variant::Naive,
            Variant::Dataframe,
            Variant::Parallel,
            Variant::GraphBlas,
        ] {
            let td = TempDir::new("ext").unwrap();
            let cfg = builder(7).dangling(strategy).variant(variant).build();
            let ranks = Pipeline::new(cfg, td.path())
                .run()
                .unwrap()
                .kernel3
                .unwrap()
                .ranks;
            let gap = vector::l1_distance(&ranks, &reference);
            let tol = if variant == Variant::Parallel {
                1e-12
            } else {
                0.0
            };
            assert!(
                gap <= tol,
                "{} under {} diverges by {gap}",
                variant.name(),
                strategy.name()
            );
        }
    }
}

#[test]
fn convergence_mode_stops_early_and_reports_iterations() {
    let td = TempDir::new("ext").unwrap();
    let cfg = builder(7)
        .add_diagonal_to_empty(true)
        .iterations(10_000)
        .convergence_tolerance(1e-10)
        .build();
    let r = Pipeline::new(cfg, td.path()).run().unwrap();
    let k3 = r.kernel3.unwrap();
    assert!(k3.iterations < 10_000, "never converged");
    assert!(k3.final_delta < 1e-10);
    // The throughput metric counts the iterations actually run.
    assert_eq!(k3.timing.work_items, r.edges * k3.iterations as u64);
}

#[test]
fn converged_ranks_are_damping_fixpoint() {
    let td = TempDir::new("ext").unwrap();
    let cfg = builder(6)
        .add_diagonal_to_empty(true)
        .iterations(50_000)
        .convergence_tolerance(1e-14)
        .build();
    let r = Pipeline::new(cfg.clone(), td.path()).run().unwrap();
    let k3 = r.kernel3.unwrap();
    // Re-run a single further step through the spec formula and check the
    // vector no longer moves.
    let backend = Variant::Optimized.backend();
    let k2 = backend
        .kernel2(&cfg, &Pipeline::new(cfg.clone(), td.path()).k1_dir())
        .unwrap();
    let next = ppbench::core::kernel3::step(
        &k3.ranks,
        |x| ppbench::sparse::spmv::vxm(x, &k2.matrix),
        cfg.damping,
    );
    assert!(vector::l1_distance(&next, &k3.ranks) < 1e-12);
}

#[test]
fn sink_strategy_equals_diagonal_repair_pipeline() {
    // Two routes to the same chain: §V matrix repair with Omit, vs plain
    // matrix with the Sink strategy.
    let td1 = TempDir::new("ext").unwrap();
    let td2 = TempDir::new("ext").unwrap();
    let repaired = builder(7).add_diagonal_to_empty(true).build();
    let sink = builder(7).dangling(DanglingStrategy::Sink).build();
    let r1 = Pipeline::new(repaired, td1.path())
        .run()
        .unwrap()
        .kernel3
        .unwrap()
        .ranks;
    let r2 = Pipeline::new(sink, td2.path())
        .run()
        .unwrap()
        .kernel3
        .unwrap()
        .ranks;
    let gap = vector::l1_distance(&r1, &r2);
    assert!(
        gap < 1e-10,
        "matrix repair vs sink strategy diverge by {gap}"
    );
}
