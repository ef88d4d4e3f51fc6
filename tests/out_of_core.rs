//! Out-of-core kernel 1: the paper requires an external algorithm "if u
//! and v are too large to fit in memory". These tests force that path and
//! check it changes nothing but the memory profile.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{Pipeline, PipelineConfig};
use ppbench::io::tempdir::TempDir;

#[test]
fn external_sort_pipeline_equals_in_memory_pipeline() {
    let in_memory = PipelineConfig::builder()
        .scale(8)
        .edge_factor(8)
        .seed(13)
        .build();
    let spilled = PipelineConfig::builder()
        .scale(8)
        .edge_factor(8)
        .seed(13)
        .sort_budget_bytes(1600) // 2048 edges = 32 KiB → ~21 spill runs
        .build();

    let td1 = TempDir::new("ooc-mem").unwrap();
    let td2 = TempDir::new("ooc-ext").unwrap();
    let r_mem = Pipeline::new(in_memory, td1.path()).run().unwrap();
    let r_ext = Pipeline::new(spilled, td2.path()).run().unwrap();

    assert!(!r_mem.kernel1.as_ref().unwrap().out_of_core);
    assert!(r_ext.kernel1.as_ref().unwrap().out_of_core);

    // Both stable sorts: identical sorted streams, identical ranks.
    assert!(r_mem
        .kernel1
        .as_ref()
        .unwrap()
        .digest
        .same_stream(&r_ext.kernel1.as_ref().unwrap().digest));
    let bits = |r: &ppbench::core::PipelineResult| -> Vec<u64> {
        r.kernel3
            .as_ref()
            .unwrap()
            .ranks
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(bits(&r_mem), bits(&r_ext));
}

#[test]
fn budget_larger_than_input_stays_in_memory() {
    let cfg = PipelineConfig::builder()
        .scale(6)
        .edge_factor(4)
        .seed(13)
        .sort_budget_bytes(1_000_000)
        .build();
    let td = TempDir::new("ooc-big").unwrap();
    let r = Pipeline::new(cfg, td.path()).run().unwrap();
    assert!(!r.kernel1.as_ref().unwrap().out_of_core);
    assert!(r.validation.unwrap().passed());
}

#[test]
fn pathological_budget_of_one_edge_still_sorts() {
    let cfg = PipelineConfig::builder()
        .scale(4)
        .edge_factor(2)
        .seed(13)
        .sort_budget_bytes(1)
        .build();
    let td = TempDir::new("ooc-one").unwrap();
    let r = Pipeline::new(cfg, td.path()).run().unwrap();
    assert!(r.kernel1.as_ref().unwrap().out_of_core);
    assert!(r.validation.unwrap().passed());
}
