//! Fused kernels 1+2: CSR built straight off the sorted-run merge stream.
//!
//! The staged pipeline moves every edge through disk three times: kernel 1
//! reads kernel 0's shards, sorts, and writes a sorted file set; kernel 2
//! reads that set back to assemble the count matrix. The fused path removes
//! the middle copy entirely:
//!
//! 1. **Route + run generation** (kernel-1 timing) — the function staged
//!    kernel 1 runs too (`kernel1::seal_runs`), here with `B` buckets and
//!    the `(start, end)` key: kernel 0's shards are streamed once through
//!    the verifying reader; each edge is routed by its start vertex into
//!    one of `B` contiguous vertex-range buckets (`B` = worker count),
//!    where a [`RunWriter`] accumulates it and spills sorted runs under the
//!    bucket's own memory budget. No intermediate `Vec<Edge>` of the input
//!    is ever materialized.
//! 2. **Merge → CSR** (kernel-2 timing): the buckets' sealed [`RunSet`]s
//!    are merged *in parallel* — each worker drains its bucket's
//!    [`MergeStream`] directly into a [`CsrStreamBuilder`] row segment,
//!    deduplicating and accumulating counts on the fly. The segments
//!    concatenate into the full count matrix, which funnels through
//!    [`kernel2::filter_matrix`] — the same single policy function the
//!    staged backends use, so matrix and [`FilterStats`] are bit-identical
//!    to the staged path for any thread count.
//!
//! Because buckets are contiguous vertex ranges and each bucket's merge
//! emits `(start, end)` order, concatenating the per-bucket streams in
//! bucket order reproduces exactly the globally sorted order — the
//! per-bucket [`EdgeDigest`]s concatenated in bucket order therefore equal
//! the digest of a staged `(start, end)` sort, and validation's
//! multiset-preservation check holds unchanged.
//!
//! [`RunWriter`]: ppbench_sort::RunWriter
//! [`RunSet`]: ppbench_sort::RunSet
//! [`MergeStream`]: ppbench_sort::MergeStream
//! [`CsrStreamBuilder`]: ppbench_sparse::CsrStreamBuilder
//! [`FilterStats`]: crate::kernel2::FilterStats

use std::path::Path;

use ppbench_io::{checksum::EdgeDigest, Edge};
use ppbench_sort::{RunSet, SortKey};
use ppbench_sparse::{Csr, CsrSegment, CsrStreamBuilder};
use rayon::prelude::*;

use crate::backend::Kernel2Output;
use crate::config::PipelineConfig;
use crate::error::{Error, Result};
use crate::results::{Kernel1Result, Kernel2Result};
use crate::timing::Stopwatch;
use crate::{kernel1, kernel2};

/// Everything the fused pass produces: the two kernel results the pipeline
/// records (timings split at the run-seal boundary) plus the kernel-2
/// output kernel 3 consumes.
#[derive(Debug)]
pub struct FusedOutcome {
    /// Kernel-1 result: routing + run generation + sealing.
    pub k1: Kernel1Result,
    /// Kernel-2 result: parallel merge, CSR assembly, filtering.
    pub k2: Kernel2Result,
    /// The row-stochastic matrix and filter statistics.
    pub output: Kernel2Output,
}

/// Runs the fused kernel-1+2 pass over the edge files in `k0_dir`, using
/// `scratch_dir` for spilled runs (removed before returning, on success and
/// on failure alike).
///
/// The input is untrusted: the reader bounds the manifest's edge count and
/// digest-verifies the stream (see `kernel1::seal_runs`), and every
/// vertex is bounds-checked against the configured graph size before
/// routing — corrupt shards surface as errors, never as bad math or a
/// builder panic.
pub fn kernel12(cfg: &PipelineConfig, k0_dir: &Path, scratch_dir: &Path) -> Result<FusedOutcome> {
    kernel1::in_scratch(scratch_dir, |scratch| fuse(cfg, k0_dir, scratch))
}

fn fuse(cfg: &PipelineConfig, k0_dir: &Path, scratch_dir: &Path) -> Result<FusedOutcome> {
    // ---- Phase 1: route the input into per-vertex-range sorted runs ----
    let sw = Stopwatch::start();
    let n = cfg.spec.num_vertices();
    let buckets = rayon::current_num_threads().max(1);
    // Even vertex-range bucket boundaries: bucket b owns rows
    // [bounds[b], bounds[b+1]).
    let bounds: Vec<u64> = (0..=buckets)
        .map(|b| ((u128::from(n) * b as u128) / buckets as u128) as u64)
        .collect();
    // (start, end) runs make each bucket's merge emit exactly the order
    // CsrStreamBuilder needs for O(1) duplicate accumulation.
    let key = SortKey::StartEnd;
    let route = |e: Edge| {
        if e.u >= n || e.v >= n {
            return Err(Error::Contract(format!(
                "{}: edge ({}, {}) exceeds the configured vertex bound {n}",
                k0_dir.display(),
                e.u,
                e.v
            )));
        }
        Ok(bounds.partition_point(|&lo| lo <= e.u) - 1)
    };
    let budget = cfg.sort_budget_bytes;
    let sealed = kernel1::seal_runs(k0_dir, scratch_dir, key, buckets, budget, route)?;
    let manifest = sealed.manifest;
    let m = manifest.edges;
    let k1_timing = sw.finish(m);

    // ---- Phase 2: parallel per-bucket merge straight into CSR segments ----
    let sw = Stopwatch::start();
    let indexed: Vec<(usize, RunSet)> = sealed.sets.into_iter().enumerate().collect();
    let built: Vec<Result<(CsrSegment<u64>, EdgeDigest)>> = indexed
        .into_par_iter()
        .map(|(b, set)| {
            let (lo, hi) = (bounds[b], bounds[b + 1]);
            let mut builder = CsrStreamBuilder::<u64>::for_rows(n, lo, hi);
            let mut digest = EdgeDigest::new();
            for edge in set.into_stream()? {
                let e = edge?;
                digest.update(e);
                builder.push(e.u, e.v);
            }
            Ok((builder.finish_segment(), digest))
        })
        .collect();

    let mut segments = Vec::with_capacity(buckets);
    let mut sorted_digest = EdgeDigest::new();
    for r in built {
        let (seg, digest) = r?;
        sorted_digest = sorted_digest.concat(&digest);
        segments.push(seg);
    }
    if !sorted_digest.same_multiset(&manifest.digest) {
        return Err(Error::Contract(format!(
            "{}: merged stream does not preserve the input edge multiset",
            k0_dir.display()
        )));
    }
    let counts = Csr::<u64>::from_row_segments(n, segments);
    let (matrix, stats) = kernel2::filter_matrix(&counts, cfg.add_diagonal_to_empty);
    let k2_timing = sw.finish(m);

    Ok(FusedOutcome {
        k1: Kernel1Result {
            timing: k1_timing,
            digest: sorted_digest,
            sort_state: key.sort_state(),
            out_of_core: sealed.out_of_core,
        },
        k2: Kernel2Result {
            timing: k2_timing,
            stats,
        },
        output: Kernel2Output { matrix, stats },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, OptimizedBackend};
    use crate::kernel1;
    use ppbench_io::tempdir::TempDir;
    use ppbench_io::{Manifest, SortState};

    fn cfg(scale: u32) -> PipelineConfig {
        PipelineConfig::builder()
            .scale(scale)
            .edge_factor(8)
            .seed(3)
            .num_files(2)
            .build()
    }

    /// Oracle: the staged path (kernel 1 then the shared streaming
    /// kernel 2) over the same input directory.
    fn staged(cfg: &PipelineConfig, k0: &Path, work: &Path) -> Kernel2Output {
        kernel1::sort_file_set(k0, work, 1, SortKey::StartEnd, cfg.sort_budget_bytes).unwrap();
        crate::backend::kernel2_streamed(cfg, work).unwrap()
    }

    fn write_input(dir: &Path, edges: &[Edge], scale: u32) {
        ppbench_io::write_edges(
            dir,
            "edges",
            2,
            edges,
            Some(scale),
            Some(1 << scale),
            SortState::Unsorted,
        )
        .unwrap();
    }

    #[test]
    fn fused_matches_staged_on_generated_graph() {
        let td = TempDir::new("ppbench-fused").unwrap();
        let cfg = cfg(7);
        OptimizedBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        let want = staged(&cfg, &td.join("k0"), &td.join("staged"));
        let got = kernel12(&cfg, &td.join("k0"), &td.join("scratch")).unwrap();
        assert_eq!(got.output.matrix, want.matrix);
        assert_eq!(got.output.stats, want.stats);
        assert_eq!(got.k2.stats, want.stats);
        assert_eq!(got.k1.sort_state, SortState::ByStartEnd);
        assert!(!got.k1.out_of_core);
        // The concatenated per-bucket digests equal the staged
        // (start, end)-sorted stream digest exactly — chain included.
        let staged_manifest = Manifest::load(&td.join("staged")).unwrap();
        assert!(got.k1.digest.same_stream(&staged_manifest.digest));
    }

    #[test]
    fn fused_spill_path_matches_and_cleans_scratch() {
        let td = TempDir::new("ppbench-fused").unwrap();
        let base = cfg(7);
        OptimizedBackend.kernel0(&base, &td.join("k0")).unwrap();
        let cfg = PipelineConfig::builder()
            .scale(7)
            .edge_factor(8)
            .seed(3)
            .num_files(2)
            .sort_budget_bytes(64 * ppbench_io::BYTES_PER_EDGE as u64)
            .build();
        let want = staged(&cfg, &td.join("k0"), &td.join("staged"));
        let got = kernel12(&cfg, &td.join("k0"), &td.join("scratch")).unwrap();
        assert_eq!(got.output.matrix, want.matrix);
        assert_eq!(got.output.stats, want.stats);
        assert!(got.k1.out_of_core);
        // Every bucket directory (and its spilled runs) is gone.
        let leftovers: Vec<_> = std::fs::read_dir(td.join("scratch"))
            .map(|d| d.collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "scratch not cleaned: {leftovers:?}");
    }

    #[test]
    fn fused_equals_staged_under_empty_duplicate_and_hub_inputs() {
        // The degenerate shapes that stress the streaming dedup: an empty
        // graph, one edge with maximal multiplicity, and a single hub row
        // owning every edge — swept across worker counts so bucket counts
        // 1, 2 and 4 all exercise the segment concatenation.
        let scale = 4u32;
        let empty: Vec<Edge> = vec![];
        let all_dup: Vec<Edge> = (0..64).map(|_| Edge::new(3, 9)).collect();
        let hub: Vec<Edge> = (0..64).map(|i| Edge::new(5, i % 16)).collect();
        for workers in [1usize, 2, 4] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build_global()
                .unwrap();
            for (name, edges) in [("empty", &empty), ("all-dup", &all_dup), ("hub", &hub)] {
                let td = TempDir::new("ppbench-fused").unwrap();
                write_input(&td.join("k0"), edges, scale);
                let cfg = PipelineConfig::builder().scale(scale).build();
                let want = staged(&cfg, &td.join("k0"), &td.join("staged"));
                let got = kernel12(&cfg, &td.join("k0"), &td.join("scratch")).unwrap();
                assert_eq!(got.output.matrix, want.matrix, "{name} @ {workers} workers");
                assert_eq!(got.output.stats, want.stats, "{name} @ {workers} workers");
            }
        }
        rayon::ThreadPoolBuilder::new().build_global().unwrap();
    }

    #[test]
    fn out_of_bound_vertex_is_a_contract_error_not_a_panic() {
        let td = TempDir::new("ppbench-fused").unwrap();
        // Vertex 17 exceeds scale 4's bound of 16; the writer is told a
        // larger bound so the corrupt shard parses cleanly.
        ppbench_io::write_edges(
            &td.join("k0"),
            "edges",
            1,
            &[Edge::new(1, 2), Edge::new(17, 0)],
            Some(4),
            Some(32),
            SortState::Unsorted,
        )
        .unwrap();
        let cfg = PipelineConfig::builder().scale(4).build();
        let err = kernel12(&cfg, &td.join("k0"), &td.join("scratch")).unwrap_err();
        assert!(matches!(err, Error::Contract(_)), "{err}");
        assert!(err.to_string().contains("vertex bound"), "{err}");
    }

    #[test]
    fn tampered_manifest_digest_is_rejected() {
        let td = TempDir::new("ppbench-fused").unwrap();
        let edges: Vec<Edge> = (0..32).map(|i| Edge::new(i % 16, (i * 3) % 16)).collect();
        write_input(&td.join("k0"), &edges, 4);
        let mut m = Manifest::load(&td.join("k0")).unwrap();
        m.digest.sum = m.digest.sum.wrapping_add(1);
        m.save(&td.join("k0")).unwrap();
        let cfg = PipelineConfig::builder().scale(4).build();
        let err = kernel12(&cfg, &td.join("k0"), &td.join("scratch")).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
    }

    #[test]
    fn hostile_manifest_edge_count_rejected_before_allocating() {
        let td = TempDir::new("ppbench-fused").unwrap();
        let edges: Vec<Edge> = (0..16).map(|i| Edge::new(i, i)).collect();
        write_input(&td.join("k0"), &edges, 4);
        let mut m = Manifest::load(&td.join("k0")).unwrap();
        m.edges = u64::MAX;
        m.digest.count = u64::MAX;
        m.files[0].edges = u64::MAX - m.files[1].edges;
        m.save(&td.join("k0")).unwrap();
        let cfg = PipelineConfig::builder().scale(4).build();
        let err = kernel12(&cfg, &td.join("k0"), &td.join("scratch")).unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
    }
}
