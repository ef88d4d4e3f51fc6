//! The GraphBLAS backend — the paper's §V reference-implementation wish:
//! "implementations using the GraphBLAS standard would allow comparison of
//! the GraphBLAS capabilities with other technologies."
//!
//! Every kernel is phrased in GraphBLAS verbs over `ppbench_sparse`'s
//! semiring layer:
//!
//! * **K1** is `GrB_Matrix_build` + `GrB_Matrix_extractTuples`: building
//!   the matrix *is* the sort (CSR construction orders tuples by (row,
//!   col)), and extraction replays each entry with its multiplicity. The
//!   output is therefore sorted by (start, end) — the §V "sort end
//!   vertices too" variant — which still satisfies kernel 2's
//!   sorted-by-start contract and preserves the edge multiset exactly.
//! * **K2** computes the in-degree as the semiring product `din = 𝟙 ⊕.⊗ A`
//!   (a `vxm` with the all-ones vector over plus-times), masks with
//!   `GrB_select`, and normalizes rows.
//! * **K3** is the semiring `vxm` iteration, identical in entry-visit
//!   order to the other serial backends, so the ranks agree bit for bit.

use std::path::Path;

use ppbench_io::{Edge, EdgeReader, EdgeWriter, Manifest};
use ppbench_sparse::{graphblas, ops, Coo, Csr};

use crate::backend::{require_sorted, Backend, Kernel2Output};
use crate::config::PipelineConfig;
use crate::error::Result;
use crate::kernel2::FilterStats;
use crate::{kernel0, kernel3};

/// GraphBLAS-verb implementation of the four kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphBlasBackend;

impl GraphBlasBackend {
    /// `GrB_Matrix_build`: assemble the count matrix from an edge stream.
    fn build_matrix(&self, n: u64, edges: impl IntoIterator<Item = Edge>) -> Csr<u64> {
        Coo::<u64>::from_edges(n, edges.into_iter().map(|e| (e.u, e.v))).compress()
    }
}

impl Backend for GraphBlasBackend {
    fn name(&self) -> &'static str {
        "graphblas"
    }

    fn kernel0(&self, cfg: &PipelineConfig, dir: &Path) -> Result<Manifest> {
        // I/O is outside the GraphBLAS standard; the shared writer streams
        // the generated tuples.
        let generator = kernel0::build_generator(cfg);
        kernel0::write_streamed(&generator, cfg, dir)
    }

    fn kernel1(&self, cfg: &PipelineConfig, in_dir: &Path, out_dir: &Path) -> Result<Manifest> {
        // Build + extractTuples: matrix construction sorts by (row, col);
        // extraction replays each stored entry `count` times, preserving
        // the multiset. GraphBLAS has no notion of "sort by start only",
        // so this backend always produces the (start, end) order — a
        // superset of every kernel-2 input contract.
        let (manifest, iter) = EdgeReader::open_dir(in_dir)?;
        let edges: Vec<Edge> = iter.collect::<ppbench_io::Result<_>>()?;
        let matrix = self.build_matrix(cfg.spec.num_vertices(), edges);
        let mut writer = EdgeWriter::create(out_dir, "edges", cfg.num_files, manifest.edges)?;
        for (u, v, count) in matrix.iter() {
            for _ in 0..count {
                writer.write(Edge::new(u, v))?;
            }
        }
        Ok(writer.finish(
            manifest.scale,
            manifest.vertex_bound,
            ppbench_io::SortState::ByStartEnd,
        )?)
    }

    fn kernel2(&self, cfg: &PipelineConfig, in_dir: &Path) -> Result<Kernel2Output> {
        let (manifest, iter) = EdgeReader::open_dir(in_dir)?;
        require_sorted(&manifest, in_dir)?;
        let n = cfg.spec.num_vertices();
        let edges: Vec<Edge> = iter.collect::<ppbench_io::Result<_>>()?;
        let total_edge_count = edges.len() as u64;
        let counts = self.build_matrix(n, edges);

        // din = 𝟙 ⊕.⊗ A over plus-times on the counts themselves — the
        // GraphBLAS way to reduce columns.
        let din = graphblas::vxm::<graphblas::PlusTimesU64>(&vec![1u64; n as usize], &counts);
        let max_in_degree = din.iter().copied().max().unwrap_or(0);
        let kill = |c: u64| {
            let d = din[c as usize];
            (max_in_degree > 0 && d == max_in_degree) || d == 1
        };
        let supernode_columns = din
            .iter()
            .filter(|&&d| max_in_degree > 0 && d == max_in_degree)
            .count() as u64;
        let leaf_columns = din.iter().filter(|&&d| d == 1).count() as u64;

        // GrB_select with the output aliasing the input: keep, in place,
        // the entries whose column survives.
        let nnz_before = counts.nnz();
        let mut filtered = graphblas::select(counts, |_, c, _| !kill(c));

        let mut diagonal_repairs = 0u64;
        if cfg.add_diagonal_to_empty {
            diagonal_repairs = ops::empty_row_count(&filtered);
            filtered = ops::add_diagonal_to_empty_rows(filtered, 1);
        }
        let matrix = ops::normalize_rows(filtered);
        let dangling_rows = ops::empty_row_count(&matrix);

        let stats = FilterStats {
            total_edge_count,
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
    fn kernel1_build_extract_sorts_and_preserves_multiset() {
        let td = TempDir::new("ppbench-grb").unwrap();
        let cfg = cfg(6);
        GraphBlasBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        let m = GraphBlasBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        assert_eq!(m.sort_state, ppbench_io::SortState::ByStartEnd);
        let m0 = Manifest::load(&td.join("k0")).unwrap();
        assert!(
            m.digest.same_multiset(&m0.digest),
            "extractTuples lost duplicates"
        );
        let (_, edges) = EdgeReader::read_dir_all(&td.join("k1")).unwrap();
        assert!(edges
            .windows(2)
            .all(|w| (w[0].u, w[0].v) <= (w[1].u, w[1].v)));
    }

    #[test]
    fn kernel2_matches_optimized_backend() {
        let td = TempDir::new("ppbench-grb").unwrap();
        let cfg = cfg(6);
        GraphBlasBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        GraphBlasBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let grb = GraphBlasBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        let opt = OptimizedBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        assert_eq!(grb.matrix, opt.matrix);
        assert_eq!(grb.stats, opt.stats);
    }

    #[test]
    fn kernel3_bit_identical_to_optimized() {
        let td = TempDir::new("ppbench-grb").unwrap();
        let cfg = cfg(6);
        OptimizedBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        OptimizedBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let k2 = OptimizedBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        let grb = GraphBlasBackend.kernel3(&cfg, &k2.matrix).unwrap();
        let opt = OptimizedBackend.kernel3(&cfg, &k2.matrix).unwrap();
        assert_eq!(grb.ranks, opt.ranks);
    }

    #[test]
    fn semiring_in_degree_matches_col_sums() {
        let td = TempDir::new("ppbench-grb").unwrap();
        let cfg = cfg(6);
        GraphBlasBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        GraphBlasBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let (_, iter) = EdgeReader::open_dir(&td.join("k1")).unwrap();
        let edges: Vec<Edge> = iter.map(|r| r.unwrap()).collect();
        let counts = GraphBlasBackend.build_matrix(cfg.spec.num_vertices(), edges);
        let direct = ops::col_sums(&counts);
        let a = counts.map(|_, _, v| v as f64);
        let ones = vec![1.0; cfg.spec.num_vertices() as usize];
        let via_semiring = graphblas::vxm::<graphblas::PlusTimes>(&ones, &a);
        for (d, s) in direct.iter().zip(&via_semiring) {
            assert_eq!(*d, *s as u64);
        }
    }
}
