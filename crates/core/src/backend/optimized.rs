//! The tuned native backend — the comparison's "C++".
//!
//! Uses every fast path the substrates offer: chunked streaming generation,
//! the hand-rolled integer formatter/parser inside `ppbench-io`'s buffered
//! writer/reader, the run engine's stable LSD radix sort (spilling runs
//! beyond the memory budget), the sorted-input CSR construction fast path,
//! and buffer-reusing scatter SpMV.

use std::path::Path;

use ppbench_io::Manifest;
use ppbench_sparse::{spmv, Csr};

use crate::backend::{Backend, Kernel2Output};
use crate::config::PipelineConfig;
use crate::error::Result;
use crate::{kernel0, kernel1, kernel3};

/// Tuned native implementation of the four kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizedBackend;

impl Backend for OptimizedBackend {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn kernel0(&self, cfg: &PipelineConfig, dir: &Path) -> Result<Manifest> {
        let generator = kernel0::build_generator(cfg);
        kernel0::write_streamed(&generator, cfg, dir)
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
        // Scatter into the iteration buffer, then apply damping+teleport in
        // place — `run_into` ping-pongs the two rank buffers, so the whole
        // loop performs zero O(N) allocation after setup. The epilogue
        // arithmetic lives in `kernel3::apply_epilogue`, shared with
        // `kernel3::serial_stepper` so serial backends stay bit-identical.
        let dangling = kernel3::DanglingInfo::from_mask(&ppbench_sparse::ops::empty_rows(matrix));
        let r0 = kernel3::init_ranks(cfg.spec.num_vertices(), cfg.seed);
        Ok(kernel3::run_into(
            r0,
            |r, next, coeffs| {
                spmv::vxm_into(r, matrix, next);
                kernel3::apply_epilogue(r, next, coeffs)
            },
            &dangling,
            &cfg.pagerank_options(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_io::tempdir::TempDir;
    use ppbench_io::EdgeReader;

    fn cfg(scale: u32) -> PipelineConfig {
        PipelineConfig::builder()
            .scale(scale)
            .edge_factor(8)
            .seed(3)
            .num_files(2)
            .build()
    }

    #[test]
    fn kernel0_writes_expected_count() {
        let td = TempDir::new("ppbench-opt").unwrap();
        let cfg = cfg(6);
        let m = OptimizedBackend.kernel0(&cfg, td.path()).unwrap();
        assert_eq!(m.edges, cfg.spec.num_edges());
        assert_eq!(m.scale, Some(6));
        assert_eq!(m.files.len(), 2);
    }

    #[test]
    fn kernel1_sorts_kernel0_output() {
        let td = TempDir::new("ppbench-opt").unwrap();
        let cfg = cfg(6);
        OptimizedBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        let m = OptimizedBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        assert!(m.sort_state.is_sorted_by_start());
        let (_, edges) = EdgeReader::read_dir_all(&td.join("k1")).unwrap();
        assert!(edges.windows(2).all(|w| w[0].u <= w[1].u));
    }

    #[test]
    fn kernel2_rejects_unsorted_input() {
        let td = TempDir::new("ppbench-opt").unwrap();
        let cfg = cfg(5);
        OptimizedBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        let err = OptimizedBackend.kernel2(&cfg, &td.join("k0")).unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");
    }

    #[test]
    fn full_chain_produces_plausible_ranks() {
        let td = TempDir::new("ppbench-opt").unwrap();
        let cfg = cfg(7);
        OptimizedBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        OptimizedBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let k2 = OptimizedBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        assert_eq!(k2.stats.total_edge_count, cfg.spec.num_edges());
        let ranks = OptimizedBackend.kernel3(&cfg, &k2.matrix).unwrap().ranks;
        assert_eq!(ranks.len() as u64, cfg.spec.num_vertices());
        let mass: f64 = ranks.iter().sum();
        assert!(mass > 0.0 && mass <= 1.0 + 1e-9, "mass {mass}");
    }
}
