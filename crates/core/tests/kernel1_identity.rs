//! The kernel-1 identity: one sort, one stream.
//!
//! Kernel 1 has a single implementation — the run engine — so whichever
//! native backend runs it, whether or not it spills, on however many
//! threads, the sorted file set must be the *same stream* as a stable
//! standard-library sort of the input: backend × budget × threads × key on
//! one kernel-0 file set. (This binary holds one test because it resizes
//! the process-wide pool.)

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_core::{PipelineConfig, Variant};
use ppbench_io::checksum::EdgeDigest;
use ppbench_io::tempdir::TempDir;
use ppbench_io::{EdgeReader, BYTES_PER_EDGE};
use ppbench_sort::{std_stable_sort, SortKey};

#[test]
fn every_kernel1_path_emits_the_stable_sort_stream() {
    let td = TempDir::new("k1-identity").unwrap();
    let base = || {
        PipelineConfig::builder()
            .scale(10)
            .edge_factor(16)
            .seed(5)
            .num_files(3)
    };
    let k0 = td.join("k0");
    Variant::Optimized
        .backend()
        .kernel0(&base().build(), &k0)
        .unwrap();
    let (manifest, input) = EdgeReader::read_dir_all(&k0).unwrap();
    let quarter = manifest.edges * BYTES_PER_EDGE as u64 / 4;

    for key in [SortKey::Start, SortKey::StartEnd] {
        let mut expect = input.clone();
        std_stable_sort(&mut expect, key);
        let expect = EdgeDigest::of_edges(&expect);
        for variant in [Variant::Optimized, Variant::Parallel] {
            for budget in [None, Some(quarter)] {
                for threads in [1usize, 2, 8] {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build_global()
                        .unwrap();
                    let cell = format!("{}-{key:?}-{budget:?}-{threads}", variant.name());
                    let cfg = match budget {
                        Some(bytes) => base().sort_key(key).sort_budget_bytes(bytes).build(),
                        None => base().sort_key(key).build(),
                    };
                    let out = td.join(&cell);
                    let sorted = variant.backend().kernel1(&cfg, &k0, &out).unwrap();
                    assert!(sorted.digest.same_stream(&expect), "{cell}");
                    assert_eq!(sorted.sort_state, key.sort_state(), "{cell}");
                    assert!(!out.join("sort-scratch").exists(), "{cell}: scratch left");
                }
            }
        }
    }
    rayon::ThreadPoolBuilder::new().build_global().unwrap();
}
