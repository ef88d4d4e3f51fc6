//! The kernel-2 identity: one matrix, whatever the thread count.
//!
//! Kernel 2 holds integer counts until it normalizes each row on its own,
//! so neither the fused path's bucket split nor the staged sort's chunking
//! can change a bit of its output. Each cell — staged or fused, Optimized
//! or Parallel, at two scales — runs kernel 2 at 1, 2, 3 and 4 threads and
//! must produce the same matrix and `FilterStats` every time. (This binary
//! holds one test because it resizes the process-wide pool.)

use ppbench_core::backend::Kernel2Output;
use ppbench_core::{PipelineConfig, Variant};
use ppbench_io::tempdir::TempDir;

/// The matrix as exact bits: shape, structure and every value.
fn bits(out: &Kernel2Output) -> (u64, u64, Vec<usize>, Vec<u64>, Vec<u64>) {
    let m = &out.matrix;
    (
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        m.col_indices().to_vec(),
        m.values().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn kernel2_bits_do_not_depend_on_the_thread_count() {
    let td = TempDir::new("k2-identity").unwrap();
    for scale in [7u32, 12] {
        for variant in [Variant::Optimized, Variant::Parallel] {
            for fused in [false, true] {
                let cell = format!("s{scale}-{}-fused{fused}", variant.name());
                let cfg = PipelineConfig::builder()
                    .scale(scale)
                    .seed(11)
                    .num_files(3)
                    .variant(variant)
                    .fused(fused)
                    .build();
                let backend = variant.backend();
                let k0 = td.join(&format!("{cell}-k0"));
                backend.kernel0(&cfg, &k0).unwrap();
                let mut first = None;
                for threads in [1usize, 2, 3, 4] {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build_global()
                        .unwrap();
                    let k1 = td.join(&format!("{cell}-k1-{threads}"));
                    let out = if fused {
                        backend.kernel12_fused(&cfg, &k0, &k1).unwrap().output
                    } else {
                        backend.kernel1(&cfg, &k0, &k1).unwrap();
                        backend.kernel2(&cfg, &k1).unwrap()
                    };
                    assert!(out.matrix.nnz() > 0, "{cell}: empty matrix");
                    let got = (bits(&out), out.stats);
                    match &first {
                        None => first = Some(got),
                        Some(want) => assert!(got == *want, "{cell}: {threads} threads differ"),
                    }
                }
            }
        }
    }
    rayon::ThreadPoolBuilder::new().build_global().unwrap();
}
