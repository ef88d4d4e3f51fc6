//! The distributed pipeline: kernels 0–3 executed by a worker cluster with
//! the paper's row-block decomposition, communication counted per kernel.

use ppbench_core::{kernel0, kernel3, PipelineConfig};
use ppbench_io::Edge;
use ppbench_sort::{radix_sort, SortKey};
use ppbench_sparse::{ops, spmv, Csr};

use crate::fabric::{run_cluster, CommStats, Fabric};
use crate::partition::Partition;

/// Distributed run parameters.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// The (serial) pipeline configuration being distributed. The dangling
    /// strategy must be the spec default (`Omit`); other strategies are a
    /// serial-only extension.
    pub pipeline: PipelineConfig,
    /// Number of simulated workers.
    pub workers: usize,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// The final rank vector (identical on every worker; taken from rank 0).
    pub ranks: Vec<f64>,
    /// Communication volume of the kernel-1 shuffle.
    pub comm_k1: CommStats,
    /// Communication volume of kernel 2's degree aggregation + elimination
    /// broadcast.
    pub comm_k2: CommStats,
    /// Communication volume of kernel 3's per-iteration rank reductions.
    pub comm_k3: CommStats,
    /// Global stored entries after filtering.
    pub nnz_after: usize,
}

/// Takes a cluster-wide traffic snapshot: the leading barrier guarantees
/// every rank finished the previous phase (all its traffic is counted), the
/// trailing barrier keeps any rank from counting next-phase traffic before
/// everyone has read.
fn phase_snapshot(fabric: &Fabric) -> CommStats {
    fabric.barrier();
    let s = fabric.stats();
    fabric.barrier();
    s
}

/// Runs the four kernels on an in-process cluster of `workers` threads.
///
/// Kernel files are bypassed: this simulation targets the *communication*
/// structure (the paper's §IV parallel notes), not storage. Edges flow
/// generation → shuffle → matrix entirely in memory.
///
/// # Panics
///
/// Panics if `workers == 0` or a non-default dangling strategy is set.
pub fn run_distributed(cfg: &DistConfig) -> DistResult {
    assert!(
        cfg.pipeline.dangling == kernel3::DanglingStrategy::Omit,
        "distributed mode implements the spec's Omit dangling strategy only"
    );
    let workers = cfg.workers;
    let pcfg = &cfg.pipeline;
    let n = pcfg.spec.num_vertices();
    let m = pcfg.spec.num_edges();
    let part = Partition::new(n, workers);
    let fabric = Fabric::new(workers);
    let generator = kernel0::build_generator(pcfg);

    let per_rank = run_cluster(workers, &fabric, |rank| {
        // --- Kernel 0: generate this rank's slice of the edge stream. ----
        let chunk = m.div_ceil(workers as u64);
        let lo = (rank as u64 * chunk).min(m);
        let hi = ((rank as u64 + 1) * chunk).min(m);
        let local_raw = generator.edges_chunk(lo, hi);
        let before_k1 = phase_snapshot(&fabric);

        // --- Kernel 1: shuffle by owner of the start vertex, then local
        // sort — a distributed bucket sort. -------------------------------
        let mut outboxes: Vec<Vec<Edge>> = vec![Vec::new(); workers];
        for e in local_raw {
            #[expect(
                clippy::indexing_slicing,
                reason = "Partition::owner returns a rank < workers by construction and the outbox vec has exactly workers entries"
            )]
            outboxes[part.owner(e.u)].push(e);
        }
        let received = fabric.all_to_all(rank, outboxes);
        let mut local_edges: Vec<Edge> = received.into_iter().flatten().collect();
        radix_sort(&mut local_edges, SortKey::Start);
        let after_k1 = phase_snapshot(&fabric);

        // --- Kernel 2: local rows, global degree aggregation. -------------
        // Rows outside this rank's range are simply empty locally.
        let local_counts =
            Csr::<u64>::from_sorted_edge_iter(n, local_edges.iter().map(|e| (e.u, e.v)));
        drop(local_edges);
        // "the in-degree info will need to be aggregated"
        let din = fabric.all_reduce_sum(rank, ops::col_sums(&local_counts));
        // "and the selected vertices for elimination broadcast" — rank 0
        // decides, everyone receives (the decision is deterministic, but
        // the broadcast is what a real system pays for).
        let mask = fabric.broadcast(
            rank,
            0,
            (rank == 0).then(|| {
                let dmax = din.iter().copied().max().unwrap_or(0);
                din.iter()
                    .map(|&d| (dmax > 0 && d == dmax) || d == 1)
                    .collect::<Vec<bool>>()
            }),
        );
        let local_matrix = ops::normalize_rows(ops::zero_columns(local_counts, &mask));
        let after_k2 = phase_snapshot(&fabric);

        // --- Kernel 3: replicated r, partial products, all-reduce. --------
        let c = pcfg.damping;
        let mut r = kernel3::init_ranks(n, pcfg.seed);
        for _ in 0..pcfg.iterations {
            let teleport = (1.0 - c) * ppbench_sparse::vector::sum(&r) / n as f64;
            // "each processor would compute its own value of r that would
            // be summed across all processors and broadcast back"
            let partial = spmv::vxm(&r, &local_matrix);
            let mut combined = fabric.all_reduce_sum(rank, partial);
            for x in combined.iter_mut() {
                *x = c * *x + teleport;
            }
            r = combined;
        }
        let after_k3 = phase_snapshot(&fabric);

        RankOutcome {
            ranks: r,
            local_nnz: local_matrix.nnz(),
            comm_k1: after_k1 - before_k1,
            comm_k2: after_k2 - after_k1,
            comm_k3: after_k3 - after_k2,
        }
    });

    // The counters are global and the snapshots barrier-aligned, so every
    // rank reports identical per-phase traffic; take rank 0's.
    let nnz_after = per_rank.iter().map(|o| o.local_nnz).sum();
    #[expect(
        clippy::expect_used,
        reason = "Fabric::new asserts workers > 0, so run_cluster returns at least one outcome"
    )]
    let first = per_rank.into_iter().next().expect("at least one worker");
    DistResult {
        ranks: first.ranks,
        comm_k1: first.comm_k1,
        comm_k2: first.comm_k2,
        comm_k3: first.comm_k3,
        nnz_after,
    }
}

struct RankOutcome {
    ranks: Vec<f64>,
    local_nnz: usize,
    comm_k1: CommStats,
    comm_k2: CommStats,
    comm_k3: CommStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_core::{Pipeline, PipelineConfig, ValidationLevel, Variant};
    use ppbench_io::tempdir::TempDir;
    use ppbench_sparse::vector;

    fn pipeline_cfg(scale: u32) -> PipelineConfig {
        PipelineConfig::builder()
            .scale(scale)
            .edge_factor(8)
            .seed(17)
            .validation(ValidationLevel::None)
            .build()
    }

    fn serial_ranks(cfg: &PipelineConfig) -> Vec<f64> {
        let td = TempDir::new("dist-serial").unwrap();
        let mut c = cfg.clone();
        c.variant = Variant::Optimized;
        Pipeline::new(c, td.path())
            .run()
            .unwrap()
            .kernel3
            .unwrap()
            .ranks
    }

    #[test]
    fn distributed_matches_serial_for_various_cluster_sizes() {
        let cfg = pipeline_cfg(7);
        let reference = serial_ranks(&cfg);
        for workers in [1usize, 2, 3, 5, 8] {
            let out = run_distributed(&DistConfig {
                pipeline: cfg.clone(),
                workers,
            });
            let gap = vector::l1_distance(&out.ranks, &reference);
            assert!(
                gap < 1e-12,
                "{workers} workers diverge from serial by L1 {gap}"
            );
        }
    }

    #[test]
    fn single_worker_run_is_communication_free() {
        let out = run_distributed(&DistConfig {
            pipeline: pipeline_cfg(6),
            workers: 1,
        });
        assert_eq!(out.comm_k1.bytes, 0);
        assert_eq!(out.comm_k2.bytes, 0);
        assert_eq!(out.comm_k3.bytes, 0);
    }

    #[test]
    fn communication_volume_matches_first_order_model() {
        // The paper's parallel model in numbers: K1 moves ~((W−1)/W)·M
        // edges; K2 aggregates one u64 per vertex per rank plus the mask
        // broadcast; K3 reduces one f64 per vertex per rank per iteration.
        let cfg = pipeline_cfg(7);
        let workers = 4;
        let out = run_distributed(&DistConfig {
            pipeline: cfg.clone(),
            workers,
        });
        let w = workers as f64;
        let m = cfg.spec.num_edges() as f64;
        let n = cfg.spec.num_vertices() as f64;

        let k1_expected = (w - 1.0) / w * m * 16.0;
        let ratio = out.comm_k1.bytes as f64 / k1_expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "K1 bytes {} vs model {k1_expected} (ratio {ratio})",
            out.comm_k1.bytes
        );

        // K2: all-reduce = gather (W−1 vectors) + broadcast (W−1 vectors)
        // of N u64, plus the bool mask broadcast counted per-message.
        let k2_min = 2.0 * (w - 1.0) * n * 8.0;
        assert!(
            out.comm_k2.bytes as f64 >= k2_min,
            "K2 bytes {} below reduction floor {k2_min}",
            out.comm_k2.bytes
        );

        // K3: 20 iterations of the same all-reduce over f64.
        let k3_expected = 20.0 * 2.0 * (w - 1.0) * n * 8.0;
        let ratio3 = out.comm_k3.bytes as f64 / k3_expected;
        assert!(
            (0.9..1.1).contains(&ratio3),
            "K3 bytes {} vs model {k3_expected}",
            out.comm_k3.bytes
        );
    }

    #[test]
    fn measured_traffic_matches_core_model_prediction() {
        // The analytic model in `ppbench_core::model::predict_comm` and the
        // byte counters here must tell the same story.
        let cfg = pipeline_cfg(7);
        let workers = 4;
        let out = run_distributed(&DistConfig {
            pipeline: cfg.clone(),
            workers,
        });
        let pred = ppbench_core::model::predict_comm(&cfg.spec, cfg.iterations, workers);
        let close = |measured: u64, predicted: f64, slack: f64| {
            let ratio = measured as f64 / predicted;
            (1.0 - slack..=1.0 + slack).contains(&ratio)
        };
        assert!(
            close(out.comm_k1.bytes, pred.k1_shuffle, 0.2),
            "K1 {} vs {}",
            out.comm_k1.bytes,
            pred.k1_shuffle
        );
        assert!(
            close(out.comm_k2.bytes, pred.k2_aggregate, 0.2),
            "K2 {} vs {}",
            out.comm_k2.bytes,
            pred.k2_aggregate
        );
        assert!(
            close(out.comm_k3.bytes, pred.k3_reduce, 0.05),
            "K3 {} vs {}",
            out.comm_k3.bytes,
            pred.k3_reduce
        );
    }

    #[test]
    fn kernel3_dominates_traffic_as_the_paper_expects() {
        // "This is likely to be a time consuming part of this step and is
        // likely to be limited by network communication" — per-iteration
        // reductions across 20 iterations outweigh the one-shot phases at
        // benchmark shapes (k = 8 < 2×20 iterations of N·8 bytes/edge…).
        let out = run_distributed(&DistConfig {
            pipeline: pipeline_cfg(8),
            workers: 4,
        });
        assert!(
            out.comm_k3.bytes > out.comm_k2.bytes,
            "K3 {} should exceed K2 {}",
            out.comm_k3.bytes,
            out.comm_k2.bytes
        );
    }

    #[test]
    fn more_workers_more_reduction_traffic() {
        let cfg = pipeline_cfg(6);
        let small = run_distributed(&DistConfig {
            pipeline: cfg.clone(),
            workers: 2,
        });
        let large = run_distributed(&DistConfig {
            pipeline: cfg,
            workers: 8,
        });
        assert!(large.comm_k3.bytes > 3 * small.comm_k3.bytes);
    }

    #[test]
    #[should_panic(expected = "Omit dangling strategy only")]
    fn rejects_extended_dangling_strategies() {
        let mut cfg = pipeline_cfg(5);
        cfg.dangling = kernel3::DanglingStrategy::Redistribute;
        let _ = run_distributed(&DistConfig {
            pipeline: cfg,
            workers: 2,
        });
    }
}
