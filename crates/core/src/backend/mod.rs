//! Pipeline backends: the paper's "same spec, different execution style"
//! axis.
//!
//! The paper implements the identical mathematical kernels in C++, Python,
//! Python+Pandas, Matlab, Octave and Julia and compares them on one
//! machine. This workspace reproduces that axis as five [`Backend`]
//! implementations:
//!
//! | Backend | Stands in for | Style |
//! |---|---|---|
//! | [`OptimizedBackend`] | C++ | hand-rolled parsing/formatting, radix sort, CSR scatter |
//! | [`NaiveBackend`] | Python | per-line `String` processing, `BTreeMap` assembly, triplet-loop SpMV |
//! | [`DataframeBackend`] | Python + Pandas / vectorized Matlab | whole-column operations on `ppbench-frame` |
//! | [`ParallelBackend`] | the paper's future work | rayon generation, pool-wide chunk sort and gather-form SpMV |
//! | [`GraphBlasBackend`] | the paper's §V GraphBLAS reference wish | matrix build/extract, semiring vxm, select |
//!
//! All five must produce the same ranks (bit-identical for the serial
//! four, within floating-point reassociation for the parallel one) — the
//! cross-backend integration tests enforce it.

mod dataframe;
mod graphblas_backend;
mod naive;
mod optimized;
mod parallel;

pub use dataframe::DataframeBackend;
pub use graphblas_backend::GraphBlasBackend;
pub use naive::NaiveBackend;
pub use optimized::OptimizedBackend;
pub use parallel::ParallelBackend;

use std::path::Path;

use ppbench_io::Manifest;
use ppbench_sparse::Csr;

use crate::config::PipelineConfig;
use crate::error::Result;
use crate::kernel2::FilterStats;

/// Output of kernel 2: the row-stochastic matrix kernel 3 consumes, plus
/// the filter statistics.
#[derive(Debug, Clone)]
pub struct Kernel2Output {
    /// Row-normalized adjacency matrix.
    pub matrix: Csr<f64>,
    /// What the filter did.
    pub stats: FilterStats,
}

/// One implementation style of the four benchmark kernels.
///
/// Each kernel reads its input from / writes its output to the locations
/// given, so kernels from *different* backends compose (the file formats
/// and manifests are shared).
pub trait Backend: Send + Sync {
    /// Stable name used in reports and CLI flags.
    fn name(&self) -> &'static str;

    /// Kernel 0: generate the configured graph and write it under `dir`.
    fn kernel0(&self, cfg: &PipelineConfig, dir: &Path) -> Result<Manifest>;

    /// Kernel 1: read `in_dir`, sort by the configured key, write `out_dir`.
    fn kernel1(&self, cfg: &PipelineConfig, in_dir: &Path, out_dir: &Path) -> Result<Manifest>;

    /// Kernel 2: read the sorted files and produce the filtered,
    /// normalized matrix.
    fn kernel2(&self, cfg: &PipelineConfig, in_dir: &Path) -> Result<Kernel2Output>;

    /// Kernel 3: run the configured PageRank iterations (with the
    /// configured dangling strategy and optional convergence stopping).
    fn kernel3(
        &self,
        cfg: &PipelineConfig,
        matrix: &Csr<f64>,
    ) -> Result<crate::kernel3::PageRankRun>;

    /// Fused kernels 1+2: build the CSR directly from the sorted-run merge
    /// stream of `k0_dir`'s edges, spilling runs under `scratch_dir`.
    ///
    /// The default implementation is [`crate::fused::kernel12`] — shared by
    /// all backends because the fused data path *is* the implementation;
    /// its output is bit-identical to `kernel1` + `kernel2` composed.
    fn kernel12_fused(
        &self,
        cfg: &PipelineConfig,
        k0_dir: &Path,
        scratch_dir: &Path,
    ) -> Result<crate::fused::FusedOutcome> {
        crate::fused::kernel12(cfg, k0_dir, scratch_dir)
    }
}

/// Shared streaming kernel-2 body: read a sorted file set through the
/// verifying reader, check the claimed sort order, accumulate counts
/// straight into CSR with no intermediate edge vector, and hand the count
/// matrix to [`kernel2::filter`]. The optimized and parallel backends both
/// delegate here — their kernel-2 data paths are identical, only kernels
/// 0/3 differ.
pub(crate) fn kernel2_streamed(cfg: &PipelineConfig, in_dir: &Path) -> Result<Kernel2Output> {
    let (manifest, iter) = ppbench_io::EdgeReader::open_dir(in_dir)?;
    require_sorted(&manifest, in_dir)?;
    // Stream the sorted edges straight into CSR construction. The reader's
    // final item reports a digest mismatch (tampered/truncated files) and
    // the order check here catches a forged sort state: both surface as
    // errors, not silent bad math.
    let mut stream_err: Option<crate::Error> = None;
    let mut prev_start: Option<u64> = None;
    let counts = {
        let stream_err = &mut stream_err;
        let prev_start = &mut prev_start;
        Csr::<u64>::from_sorted_edge_iter(
            cfg.spec.num_vertices(),
            iter.map_while(move |r| match r {
                Ok(e) => {
                    if let Some(p) = prev_start.filter(|&p| p > e.u) {
                        *stream_err = Some(crate::Error::Contract(format!(
                            "claims sorted order but start {} follows {p}",
                            e.u
                        )));
                        return None;
                    }
                    *prev_start = Some(e.u);
                    Some((e.u, e.v))
                }
                Err(e) => {
                    *stream_err = Some(e.into());
                    None
                }
            }),
        )
    };
    if let Some(e) = stream_err {
        return Err(e);
    }
    let (matrix, stats) = crate::kernel2::filter(counts, cfg.add_diagonal_to_empty);
    Ok(Kernel2Output { matrix, stats })
}

/// Backend selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Tuned native implementation (the "C++" of the comparison).
    #[default]
    Optimized,
    /// Line-at-a-time interpreter style (the "Python").
    Naive,
    /// Columnar dataframe style (the "Pandas").
    Dataframe,
    /// rayon data-parallel (the paper's future work).
    Parallel,
    /// GraphBLAS-verb implementation (the paper's §V reference wish).
    GraphBlas,
}

impl Variant {
    /// Instantiates the backend.
    pub fn backend(self) -> Box<dyn Backend> {
        match self {
            Variant::Optimized => Box::new(OptimizedBackend),
            Variant::Naive => Box::new(NaiveBackend),
            Variant::Dataframe => Box::new(DataframeBackend),
            Variant::Parallel => Box::new(ParallelBackend),
            Variant::GraphBlas => Box::new(GraphBlasBackend),
        }
    }

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Optimized => "optimized",
            Variant::Naive => "naive",
            Variant::Dataframe => "dataframe",
            Variant::Parallel => "parallel",
            Variant::GraphBlas => "graphblas",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "optimized" | "opt" => Some(Self::Optimized),
            "naive" => Some(Self::Naive),
            "dataframe" | "df" => Some(Self::Dataframe),
            "parallel" | "par" => Some(Self::Parallel),
            "graphblas" | "grb" => Some(Self::GraphBlas),
            _ => None,
        }
    }

    /// All variants, in the order reports list them.
    pub const ALL: [Variant; 5] = [
        Variant::Optimized,
        Variant::Naive,
        Variant::Dataframe,
        Variant::Parallel,
        Variant::GraphBlas,
    ];
}

/// Shared contract check: kernel 2 requires kernel-1-sorted input.
pub(crate) fn require_sorted(manifest: &Manifest, dir: &Path) -> Result<()> {
    if !manifest.sort_state.is_sorted_by_start() {
        return Err(crate::Error::Contract(format!(
            "kernel 2 requires input sorted by start vertex, but {} is {:?}",
            dir.display(),
            manifest.sort_state
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_roundtrip() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.name()), Some(v));
            assert_eq!(v.backend().name(), v.name());
        }
        assert_eq!(Variant::parse("cobol"), None);
    }
}
