//! Workload integration tests: the GAP-style analytics kernels must run
//! through the same four-kernel pipeline as PageRank — same kernels 0–2,
//! same validation machinery, same run records — and be bit-deterministic
//! across runs, variants, and thread-pool sizes.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{Pipeline, PipelineConfig, Variant, Workload};
use ppbench::io::tempdir::TempDir;

fn cfg(workload: Workload, variant: Variant) -> PipelineConfig {
    PipelineConfig::builder()
        .scale(7)
        .edge_factor(8)
        .seed(2016)
        .num_files(3)
        .workload(workload)
        .variant(variant)
        .build()
}

const ALGO: [Workload; 4] = [Workload::Bfs, Workload::Cc, Workload::Sssp, Workload::Tc];

#[test]
fn every_workload_runs_the_full_pipeline_and_validates() {
    for workload in ALGO {
        let td = TempDir::new("wl-run").unwrap();
        let result = Pipeline::new(cfg(workload, Variant::Optimized), td.path())
            .run()
            .unwrap();
        assert_eq!(result.workload, workload.name());
        assert!(
            result.kernel3.is_none(),
            "{}: the PageRank slot must stay empty",
            workload.name()
        );
        let algo = result.algo.as_ref().expect("algo outcome");
        assert_eq!(algo.workload, workload.name());
        let report = result.validation.as_ref().expect("validation ran");
        assert!(report.passed(), "{}: {report:?}", workload.name());
        assert!(
            result
                .summary()
                .contains(&format!("K3 {}", workload.name())),
            "summary must name the workload"
        );
    }
}

#[test]
fn workload_outputs_are_bit_identical_across_runs_and_variants() {
    for workload in ALGO {
        let mut fingerprints = Vec::new();
        for variant in [Variant::Optimized, Variant::Optimized, Variant::Naive] {
            let td = TempDir::new("wl-det").unwrap();
            let result = Pipeline::new(cfg(workload, variant), td.path())
                .run()
                .unwrap();
            let algo = result.algo.expect("algo outcome");
            fingerprints.push((algo.checksum, algo.stat, algo.source, algo.output_len));
        }
        assert_eq!(
            fingerprints[0],
            fingerprints[1],
            "{}: repeat run diverged",
            workload.name()
        );
        assert_eq!(
            fingerprints[0],
            fingerprints[2],
            "{}: naive oracle diverged from optimized",
            workload.name()
        );
    }
}

#[test]
fn tsv_ingestion_feeds_any_workload() {
    // A bidirectional triangle (every column keeps in-degree 2) plus a
    // higher-in-degree supernode column 7 that absorbs kernel 2's
    // max-in-degree filter, so the triangle survives to kernel 3.
    let td = TempDir::new("wl-tsv").unwrap();
    let tsv = td.join("edges.tsv");
    let mut text = String::from("# hand-built filter-proof graph\n");
    for (u, v) in [
        (0u32, 1u32),
        (1, 0),
        (1, 2),
        (2, 1),
        (2, 0),
        (0, 2),
        (4, 7),
        (5, 7),
        (6, 7),
    ] {
        text.push_str(&format!("{u}\t{v}\n"));
    }
    std::fs::write(&tsv, text).unwrap();

    let tc_cfg = PipelineConfig::builder()
        .scale(3)
        .edge_factor(2)
        .seed(1)
        .workload(Workload::Tc)
        .input_tsv(&tsv)
        .build();
    let run_dir = td.join("tc-run");
    let result = Pipeline::new(tc_cfg, &run_dir).run().unwrap();
    assert_eq!(
        result.kernel0.as_ref().unwrap().edges,
        9,
        "file edge count wins"
    );
    let algo = result.algo.expect("algo outcome");
    assert_eq!(algo.stat, 1, "exactly the hand-built triangle");
    assert!(result.validation.as_ref().unwrap().passed());

    // The same file drives the default PageRank workload unchanged.
    let pr_cfg = PipelineConfig::builder()
        .scale(3)
        .edge_factor(2)
        .seed(1)
        .input_tsv(&tsv)
        .build();
    let pr_dir = td.join("pr-run");
    let result = Pipeline::new(pr_cfg, &pr_dir).run().unwrap();
    assert!(result.kernel3.is_some());
    assert!(result.algo.is_none());
    assert!(result.validation.as_ref().unwrap().passed());
}
