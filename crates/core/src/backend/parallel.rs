//! The rayon-parallel backend — the paper's stated future work.
//!
//! "It is expected that measurements of Kernel 3 in a parallel
//! implementation will show a wider dispersion in performance between the
//! languages" (§IV). This backend parallelizes what the paper's
//! decomposition discussion describes: chunked deterministic generation,
//! the run engine's chunk sort across the pool's workers (the same stable
//! stream the serial backends emit), and the gather-form SpMV where "each
//! processor would compute its own value of r".
//!
//! Output is identical to the serial backends except kernel 3, where the
//! gather form reassociates floating-point sums (bounded by a few ulps per
//! entry — the integration tests pin the tolerance).

use std::path::Path;

use ppbench_io::Manifest;
use ppbench_sparse::{spmv, Csr, Csr32};

use crate::backend::{Backend, Kernel2Output};
use crate::config::PipelineConfig;
use crate::error::Result;
use crate::{kernel0, kernel1, kernel3};

/// rayon-parallel implementation of the four kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelBackend;

impl Backend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn kernel0(&self, cfg: &PipelineConfig, dir: &Path) -> Result<Manifest> {
        let generator = kernel0::build_generator(cfg);
        // Deterministic sharded generation + one writer per output file:
        // identical bytes and digest to the serial stream, with peak
        // resident memory of O(chunk × threads) instead of the full edge
        // list.
        kernel0::write_sharded(&generator, cfg, dir)
    }

    fn kernel1(&self, cfg: &PipelineConfig, in_dir: &Path, out_dir: &Path) -> Result<Manifest> {
        kernel1::sort_file_set(
            in_dir,
            out_dir,
            cfg.num_files,
            cfg.sort_key,
            cfg.sort_budget_bytes,
        )
    }

    fn kernel2(&self, cfg: &PipelineConfig, in_dir: &Path) -> Result<Kernel2Output> {
        crate::backend::kernel2_streamed(cfg, in_dir)
    }

    fn kernel3(&self, cfg: &PipelineConfig, matrix: &Csr<f64>) -> Result<kernel3::PageRankRun> {
        // Precompute the transpose once (gather layout) and partition its
        // rows into chunks of ~equal nonzero count, so one hub vertex of
        // the power-law graph cannot serialize a whole chunk. Each
        // iteration is then a single fused sweep — gather, epilogue, and
        // L1-delta accumulation in one pass over the output buffer
        // (`spmv::step_fused`), ping-ponged by `kernel3::run_into` with
        // zero O(N) allocation per iteration. Column indices narrow to
        // `u32` whenever the vertex count fits (every paper scale),
        // halving index bandwidth.
        let at = matrix.transpose();
        let dangling = kernel3::DanglingInfo::from_mask(&ppbench_sparse::ops::empty_rows(matrix));
        let r0 = kernel3::init_ranks(cfg.spec.num_vertices(), cfg.seed);
        let opts = cfg.pagerank_options();
        let chunks = rayon::current_num_threads().max(1);
        let boundaries = spmv::balanced_boundaries(at.row_ptr(), chunks);
        Ok(match Csr32::try_from_wide(&at) {
            Some(narrow) => kernel3::run_into(
                r0,
                |r, next, coeffs| spmv::step_fused(r, &narrow.view(), next, coeffs, &boundaries),
                &dangling,
                &opts,
            ),
            None => kernel3::run_into(
                r0,
                |r, next, coeffs| spmv::step_fused(r, &at.view(), next, coeffs, &boundaries),
                &dangling,
                &opts,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::OptimizedBackend;
    use ppbench_io::tempdir::TempDir;

    fn cfg(scale: u32) -> PipelineConfig {
        PipelineConfig::builder()
            .scale(scale)
            .edge_factor(8)
            .seed(3)
            .num_files(2)
            .build()
    }

    #[test]
    fn parallel_kernel0_identical_to_serial() {
        let td = TempDir::new("ppbench-par").unwrap();
        let cfg = cfg(6);
        let m_par = ParallelBackend.kernel0(&cfg, &td.join("par")).unwrap();
        let m_opt = OptimizedBackend.kernel0(&cfg, &td.join("opt")).unwrap();
        assert!(m_par.digest.same_stream(&m_opt.digest));
    }

    #[test]
    fn parallel_kernel2_matrix_identical() {
        let td = TempDir::new("ppbench-par").unwrap();
        let cfg = cfg(6);
        ParallelBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        ParallelBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1p"))
            .unwrap();
        OptimizedBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1o"))
            .unwrap();
        let k2p = ParallelBackend.kernel2(&cfg, &td.join("k1p")).unwrap();
        let k2o = OptimizedBackend.kernel2(&cfg, &td.join("k1o")).unwrap();
        assert_eq!(k2p.matrix, k2o.matrix);
        assert_eq!(k2p.stats, k2o.stats);
    }

    #[test]
    fn parallel_kernel3_agrees_within_float_tolerance() {
        // The acceptance bar for the balanced-fused path: within 1e-12 L1
        // of the serial backend at scale 7 under every dangling strategy.
        let td = TempDir::new("ppbench-par").unwrap();
        let base = cfg(7);
        OptimizedBackend.kernel0(&base, &td.join("k0")).unwrap();
        OptimizedBackend
            .kernel1(&base, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let k2 = OptimizedBackend.kernel2(&base, &td.join("k1")).unwrap();
        for strategy in [
            kernel3::DanglingStrategy::Omit,
            kernel3::DanglingStrategy::Redistribute,
            kernel3::DanglingStrategy::Sink,
        ] {
            let cfg = PipelineConfig::builder()
                .scale(7)
                .edge_factor(8)
                .seed(3)
                .num_files(2)
                .dangling(strategy)
                .build();
            let r_par = ParallelBackend.kernel3(&cfg, &k2.matrix).unwrap().ranks;
            let r_opt = OptimizedBackend.kernel3(&cfg, &k2.matrix).unwrap().ranks;
            let dist = ppbench_sparse::vector::l1_distance(&r_par, &r_opt);
            assert!(dist < 1e-12, "{strategy:?} gather/scatter L1 gap {dist}");
        }
    }
}
