//! The columnar backend — the comparison's "Python with Pandas".
//!
//! Kernels are expressed as whole-column operations on `ppbench-frame`:
//! `read_csv`-style scans, `sort_values`-style argsort+gather,
//! `value_counts`-style group-by. Like a real Pandas implementation, the
//! sparse-matrix work of kernels 2–3 hands off to a linear-algebra kernel
//! library (our `ppbench-sparse`, playing the role scipy.sparse plays for
//! Pandas), but the *degree computation, masking and filtering* — the parts
//! the paper's kernel 2 actually specifies — run columnar.

use std::path::Path;

use ppbench_frame::{frame_from_edges, read_edge_tsv, write_edge_tsv};
use ppbench_gen::EdgeGenerator;
use ppbench_io::Manifest;
use ppbench_sparse::{graphblas, ops, Coo, Csr};

use crate::backend::{require_sorted, Backend, Kernel2Output};
use crate::config::PipelineConfig;
use crate::error::Result;
use crate::kernel2::FilterStats;
use crate::{kernel0, kernel3};

/// Columnar implementation of the four kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataframeBackend;

impl Backend for DataframeBackend {
    fn name(&self) -> &'static str {
        "dataframe"
    }

    fn kernel0(&self, cfg: &PipelineConfig, dir: &Path) -> Result<Manifest> {
        let generator = kernel0::build_generator(cfg);
        let frame = frame_from_edges(&generator.edges());
        Ok(write_edge_tsv(
            &frame,
            dir,
            cfg.num_files,
            Some(cfg.spec.scale()),
            Some(cfg.spec.num_vertices()),
            ppbench_io::SortState::Unsorted,
        )?)
    }

    fn kernel1(&self, cfg: &PipelineConfig, in_dir: &Path, out_dir: &Path) -> Result<Manifest> {
        let in_manifest = Manifest::load(in_dir)?;
        let frame = read_edge_tsv(in_dir)?;
        let sorted = match cfg.sort_key {
            ppbench_sort::SortKey::Start => frame.sort_by(&["u"])?,
            ppbench_sort::SortKey::StartEnd => frame.sort_by(&["u", "v"])?,
        };
        Ok(write_edge_tsv(
            &sorted,
            out_dir,
            cfg.num_files,
            in_manifest.scale,
            in_manifest.vertex_bound,
            cfg.sort_key.sort_state(),
        )?)
    }

    fn kernel2(&self, cfg: &PipelineConfig, in_dir: &Path) -> Result<Kernel2Output> {
        let manifest = Manifest::load(in_dir)?;
        require_sorted(&manifest, in_dir)?;
        let n = cfg.spec.num_vertices();
        let frame = read_edge_tsv(in_dir)?;
        let total_edges = frame.rows() as u64;

        // din = value_counts(v): the weighted in-degree, columnar.
        let din = frame.group_by_count("v", n)?;
        let max_in_degree = din.iter().copied().max().unwrap_or(0);
        let kill: Vec<bool> = din
            .iter()
            .map(|&d| (max_in_degree > 0 && d == max_in_degree) || d == 1)
            .collect();
        let supernode_columns = din
            .iter()
            .filter(|&&d| max_in_degree > 0 && d == max_in_degree)
            .count() as u64;
        let leaf_columns = din.iter().filter(|&&d| d == 1).count() as u64;

        // Boolean mask over rows: keep edges whose *end* is not killed.
        let ends = frame.column("v")?.as_u64()?;
        let keep: Vec<bool> = ends.iter().map(|&v| !kill[v as usize]).collect();
        let nnz_before = frame.distinct_rows(&["u", "v"])?;
        let filtered = frame.filter(&keep)?;

        // Assemble the count matrix from the filtered columns (the scipy
        // hand-off), then apply the shared diagonal/normalization steps.
        let us = filtered.column("u")?.as_u64()?;
        let vs = filtered.column("v")?.as_u64()?;
        let mut coo = Coo::<u64>::with_capacity(n, n, filtered.rows());
        for (&u, &v) in us.iter().zip(vs) {
            coo.push(u, v, 1);
        }
        let mut counts = coo.compress();

        let mut diagonal_repairs = 0u64;
        if cfg.add_diagonal_to_empty {
            diagonal_repairs = ops::empty_row_count(&counts);
            counts = ops::add_diagonal_to_empty_rows(counts, 1);
        }
        let matrix = ops::normalize_rows(counts);
        let dangling_rows = ops::empty_row_count(&matrix);

        let stats = FilterStats {
            total_edge_count: total_edges,
            nnz_before,
            max_in_degree,
            supernode_columns,
            leaf_columns,
            nnz_after: matrix.nnz(),
            dangling_rows,
            diagonal_repairs,
        };
        Ok(Kernel2Output { matrix, stats })
    }

    fn kernel3(&self, cfg: &PipelineConfig, matrix: &Csr<f64>) -> Result<kernel3::PageRankRun> {
        // Columnar/array style: the update is written in whole-vector
        // operations over the GraphBLAS layer (vxm visits entries in
        // row-major order, so results match the serial backends bit for
        // bit).
        let dangling = kernel3::DanglingInfo::from_mask(&ops::empty_rows(matrix));
        Ok(kernel3::run_into(
            kernel3::init_ranks(cfg.spec.num_vertices(), cfg.seed),
            kernel3::serial_stepper(|r| graphblas::vxm::<graphblas::PlusTimes>(r, matrix)),
            &dangling,
            &cfg.pagerank_options(),
        ))
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
    fn dataframe_kernel0_matches_optimized_stream() {
        let td = TempDir::new("ppbench-df").unwrap();
        let cfg = cfg(5);
        let m_df = DataframeBackend.kernel0(&cfg, &td.join("df")).unwrap();
        let m_opt = OptimizedBackend.kernel0(&cfg, &td.join("opt")).unwrap();
        assert!(m_df.digest.same_stream(&m_opt.digest));
    }

    #[test]
    fn dataframe_sort_is_stable() {
        let td = TempDir::new("ppbench-df").unwrap();
        let cfg = cfg(5);
        DataframeBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        let m_df = DataframeBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1d"))
            .unwrap();
        let m_opt = OptimizedBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1o"))
            .unwrap();
        assert!(
            m_df.digest.same_stream(&m_opt.digest),
            "argsort must be stable"
        );
    }

    #[test]
    fn dataframe_chain_matches_optimized() {
        let td = TempDir::new("ppbench-df").unwrap();
        let cfg = cfg(6);
        DataframeBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        DataframeBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let k2d = DataframeBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        let k2o = OptimizedBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        assert_eq!(k2d.matrix, k2o.matrix);
        assert_eq!(k2d.stats, k2o.stats);
        let rd = DataframeBackend.kernel3(&cfg, &k2d.matrix).unwrap().ranks;
        let ro = OptimizedBackend.kernel3(&cfg, &k2o.matrix).unwrap().ranks;
        assert_eq!(rd, ro);
    }

    #[test]
    fn diagonal_option_respected() {
        let td = TempDir::new("ppbench-df").unwrap();
        let cfg = PipelineConfig::builder()
            .scale(5)
            .edge_factor(4)
            .seed(3)
            .add_diagonal_to_empty(true)
            .build();
        DataframeBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        DataframeBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let k2 = DataframeBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        assert_eq!(k2.stats.dangling_rows, 0);
        let k2o = OptimizedBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        assert_eq!(k2.matrix, k2o.matrix);
        assert_eq!(k2.stats, k2o.stats);
    }
}
