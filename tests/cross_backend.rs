//! Cross-backend integration tests: the paper's central premise is that
//! all implementations of the spec compute the same thing, differing only
//! in speed. These tests enforce it across the four backends, including
//! mixed-backend pipelines (kernels "can be run together or
//! independently").

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{Pipeline, PipelineConfig, Variant};
use ppbench::io::tempdir::TempDir;
use ppbench::sparse::vector;

fn cfg(scale: u32, variant: Variant) -> PipelineConfig {
    PipelineConfig::builder()
        .scale(scale)
        .edge_factor(8)
        .seed(2016)
        .num_files(3)
        .variant(variant)
        .build()
}

#[test]
fn all_backends_agree_on_ranks() {
    let reference = {
        let td = TempDir::new("xb-ref").unwrap();
        let r = Pipeline::new(cfg(8, Variant::Optimized), td.path())
            .run()
            .unwrap();
        r.kernel3.unwrap().ranks
    };
    for variant in [
        Variant::Naive,
        Variant::Dataframe,
        Variant::Parallel,
        Variant::GraphBlas,
    ] {
        let td = TempDir::new("xb-var").unwrap();
        let r = Pipeline::new(cfg(8, variant), td.path()).run().unwrap();
        let ranks = r.kernel3.unwrap().ranks;
        let gap = vector::l1_distance(&ranks, &reference);
        // Serial backends agree exactly; the parallel gather form only up
        // to reassociation.
        let tol = if variant == Variant::Parallel {
            1e-12
        } else {
            0.0
        };
        assert!(
            gap <= tol,
            "{} diverges from optimized by L1 {gap}",
            variant.name()
        );
    }
}

#[test]
fn parallel_backend_preserves_the_ranking_order() {
    // Beyond numeric closeness: the *ordering* (what applications consume)
    // must be essentially identical across backends.
    let opt = {
        let td = TempDir::new("xb-tau").unwrap();
        Pipeline::new(cfg(8, Variant::Optimized), td.path())
            .run()
            .unwrap()
            .kernel3
            .unwrap()
            .ranks
    };
    let par = {
        let td = TempDir::new("xb-tau").unwrap();
        Pipeline::new(cfg(8, Variant::Parallel), td.path())
            .run()
            .unwrap()
            .kernel3
            .unwrap()
            .ranks
    };
    let tau = ppbench::core::rank::kendall_tau(&opt, &par);
    assert!(tau > 0.9999, "kendall tau {tau}");
    assert_eq!(ppbench::core::rank::top_k_overlap(&opt, &par, 20), 1.0);
}

#[test]
fn serial_backends_bit_identical() {
    let mut streams = Vec::new();
    for variant in [
        Variant::Optimized,
        Variant::Naive,
        Variant::Dataframe,
        Variant::GraphBlas,
    ] {
        let td = TempDir::new("xb-bit").unwrap();
        let r = Pipeline::new(cfg(7, variant), td.path()).run().unwrap();
        let bits: Vec<u64> = r
            .kernel3
            .unwrap()
            .ranks
            .iter()
            .map(|x| x.to_bits())
            .collect();
        streams.push((variant.name(), bits));
    }
    for w in streams.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0, w[1].0);
    }
}

#[test]
fn mixed_backend_pipeline_composes() {
    // K0 naive → K1 dataframe → K2 optimized → K3 parallel: every handoff
    // goes through the shared file format and manifest.
    let td = TempDir::new("xb-mix").unwrap();
    let base = cfg(7, Variant::Optimized);
    let k0_dir = td.join("k0");
    let k1_dir = td.join("k1");

    Variant::Naive.backend().kernel0(&base, &k0_dir).unwrap();
    Variant::Dataframe
        .backend()
        .kernel1(&base, &k0_dir, &k1_dir)
        .unwrap();
    let k2 = Variant::Optimized
        .backend()
        .kernel2(&base, &k1_dir)
        .unwrap();
    let ranks_mixed = Variant::Parallel
        .backend()
        .kernel3(&base, &k2.matrix)
        .unwrap()
        .ranks;

    // Pure optimized pipeline as reference.
    let td2 = TempDir::new("xb-mix-ref").unwrap();
    let r = Pipeline::new(base, td2.path()).run().unwrap();
    let ranks_ref = r.kernel3.unwrap().ranks;
    let gap = vector::l1_distance(&ranks_mixed, &ranks_ref);
    assert!(gap < 1e-12, "mixed pipeline diverges by {gap}");
}

#[test]
fn kernel2_stats_identical_across_backends() {
    let td = TempDir::new("xb-stats").unwrap();
    let base = cfg(8, Variant::Optimized);
    let k0 = td.join("k0");
    let k1 = td.join("k1");
    Variant::Optimized.backend().kernel0(&base, &k0).unwrap();
    Variant::Optimized
        .backend()
        .kernel1(&base, &k0, &k1)
        .unwrap();
    let reference = Variant::Optimized.backend().kernel2(&base, &k1).unwrap();
    for variant in [
        Variant::Naive,
        Variant::Dataframe,
        Variant::Parallel,
        Variant::GraphBlas,
    ] {
        let out = variant.backend().kernel2(&base, &k1).unwrap();
        assert_eq!(out.stats, reference.stats, "{}", variant.name());
        assert_eq!(out.matrix, reference.matrix, "{}", variant.name());
    }
}

#[test]
fn all_spec_option_combinations_run_on_all_backends() {
    for variant in Variant::ALL {
        for (sort_end, diagonal) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut builder = PipelineConfig::builder()
                .scale(6)
                .edge_factor(4)
                .seed(9)
                .variant(variant)
                .add_diagonal_to_empty(diagonal);
            if sort_end {
                builder = builder.sort_key(ppbench::sort::SortKey::StartEnd);
            }
            let td = TempDir::new("xb-opts").unwrap();
            let r = Pipeline::new(builder.build(), td.path())
                .run()
                .unwrap_or_else(|e| {
                    panic!(
                        "{} sort_end={sort_end} diag={diagonal}: {e}",
                        variant.name()
                    )
                });
            assert!(r.validation.unwrap().passed());
        }
    }
}
