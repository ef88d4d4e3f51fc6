//! Results of a pipeline run: per-kernel timings, statistics and metrics.

use ppbench_io::checksum::EdgeDigest;
use ppbench_io::SortState;

use crate::kernel2::FilterStats;
use crate::timing::KernelTiming;
use crate::validate::ValidationReport;

/// Kernel 0 (generate + write) outcome. The spec leaves kernel 0 untimed;
/// the timing is recorded anyway because the paper's Figure 4 plots it.
#[derive(Debug, Clone)]
pub struct Kernel0Result {
    /// Wall-clock and edges/second for generate+write.
    pub timing: KernelTiming,
    /// Edges written.
    pub edges: u64,
    /// Files written.
    pub files: usize,
    /// Stream digest of what was written.
    pub digest: EdgeDigest,
}

/// Kernel 1 (sort) outcome.
#[derive(Debug, Clone)]
pub struct Kernel1Result {
    /// Wall-clock and edges/second (the official kernel-1 metric).
    pub timing: KernelTiming,
    /// Digest of the sorted stream.
    pub digest: EdgeDigest,
    /// Sort order established.
    pub sort_state: SortState,
    /// Whether the out-of-core path ran.
    pub out_of_core: bool,
}

/// Kernel 2 (filter) outcome.
#[derive(Debug, Clone)]
pub struct Kernel2Result {
    /// Wall-clock and edges/second (the official kernel-2 metric).
    pub timing: KernelTiming,
    /// Filter statistics (super-node/leaf columns, dangling rows, …).
    pub stats: FilterStats,
}

/// Kernel 3 (PageRank) outcome.
#[derive(Debug, Clone)]
pub struct Kernel3Result {
    /// Wall-clock; the work-item count is `iterations × M`, so
    /// [`KernelTiming::rate`] is the paper's "edges processed per second".
    pub timing: KernelTiming,
    /// The final rank vector (not normalized; see `mass`).
    pub ranks: Vec<f64>,
    /// L1 mass retained (1.0 without dangling leakage).
    pub mass: f64,
    /// Iterations actually performed (equals the configured count unless a
    /// convergence tolerance stopped the run early).
    pub iterations: u32,
    /// L1 change of the final iteration (∞ until one iteration has run;
    /// only tracked when a tolerance is configured, else the last measured
    /// value or ∞).
    pub final_delta: f64,
}

impl Kernel3Result {
    /// The `k` highest-ranked vertices as `(vertex, rank)` pairs,
    /// descending ([`crate::rank::top_k`]).
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        crate::rank::top_k(&self.ranks, k)
    }
}

/// Analytics-workload (kernel-3 slot, non-PageRank) outcome.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (`"bfs"`, `"cc"`, `"sssp"`, `"tc"`).
    pub workload: &'static str,
    /// Wall-clock; work items are `M` so [`KernelTiming::rate`] stays the
    /// paper's edges/second.
    pub timing: KernelTiming,
    /// Length of the output vector (vertex count; 1 for TC).
    pub output_len: usize,
    /// Headline statistic (see `stat_name`).
    pub stat: u64,
    /// What `stat` counts: `"reached"`, `"components"`, or `"triangles"`.
    pub stat_name: &'static str,
    /// Source vertex, for the traversal workloads.
    pub source: Option<u64>,
    /// FNV-1a fingerprint of the output vector — the determinism handle
    /// run records and benches compare.
    pub checksum: u64,
}

/// Complete outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// One-line description of the configuration that ran.
    pub config: String,
    /// Scale factor.
    pub scale: u32,
    /// Edge count `M`.
    pub edges: u64,
    /// Backend name.
    pub variant: &'static str,
    /// Name of the kernel-3-slot workload that ran (or would run).
    pub workload: &'static str,
    /// Kernel 0 outcome (`None` if the run stopped before it).
    pub kernel0: Option<Kernel0Result>,
    /// Kernel 1 outcome.
    pub kernel1: Option<Kernel1Result>,
    /// Kernel 2 outcome.
    pub kernel2: Option<Kernel2Result>,
    /// Kernel 3 outcome (PageRank workload only).
    pub kernel3: Option<Kernel3Result>,
    /// Analytics-workload outcome (non-PageRank workloads only).
    pub algo: Option<WorkloadResult>,
    /// Validation report, when validation ran.
    pub validation: Option<ValidationReport>,
}

impl PipelineResult {
    /// Multi-line human-readable summary in the shape of the paper's
    /// per-kernel reporting.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("pipeline: {}\n", self.config));
        if let Some(k) = &self.kernel0 {
            out.push_str(&format!(
                "  K0 generate: {} ({} edges, {} files) [untimed by spec]\n",
                k.timing, k.edges, k.files
            ));
        }
        if let Some(k) = &self.kernel1 {
            out.push_str(&format!(
                "  K1 sort:     {}{}\n",
                k.timing,
                if k.out_of_core { " [out-of-core]" } else { "" }
            ));
        }
        if let Some(k) = &self.kernel2 {
            out.push_str(&format!(
                "  K2 filter:   {} (nnz {} -> {}, supernode cols {}, leaf cols {})\n",
                k.timing,
                k.stats.nnz_before,
                k.stats.nnz_after,
                k.stats.supernode_columns,
                k.stats.leaf_columns
            ));
        }
        if let Some(k) = &self.kernel3 {
            out.push_str(&format!(
                "  K3 pagerank: {} (mass {:.6})\n",
                k.timing, k.mass
            ));
        }
        if let Some(k) = &self.algo {
            out.push_str(&format!(
                "  K3 {}: {} ({} {}, checksum {:016x})\n",
                k.workload, k.timing, k.stat, k.stat_name, k.checksum
            ));
        }
        if let Some(v) = &self.validation {
            out.push_str(&format!("  validation:  {}\n", v.summary_line()));
        }
        out
    }

    /// CSV header matching [`PipelineResult::csv_row`].
    pub fn csv_header() -> &'static str {
        "variant,scale,edges,k0_secs,k0_eps,k1_secs,k1_eps,k2_secs,k2_eps,k3_secs,k3_eps"
    }

    /// One CSV row of the run's timings and rates (empty fields for kernels
    /// that did not run).
    pub fn csv_row(&self) -> String {
        fn cell(t: Option<&KernelTiming>) -> String {
            t.map_or(",".to_string(), |t| {
                format!("{:.6},{:.1}", t.seconds, t.rate())
            })
        }
        format!(
            "{},{},{},{},{},{},{}",
            self.variant,
            self.scale,
            self.edges,
            cell(self.kernel0.as_ref().map(|k| &k.timing)),
            cell(self.kernel1.as_ref().map(|k| &k.timing)),
            cell(self.kernel2.as_ref().map(|k| &k.timing)),
            cell(self.kernel3.as_ref().map(|k| &k.timing)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k3(ranks: Vec<f64>) -> Kernel3Result {
        let mass = ranks.iter().sum();
        Kernel3Result {
            timing: KernelTiming::new(1.0, 100),
            ranks,
            mass,
            iterations: 20,
            final_delta: f64::INFINITY,
        }
    }

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let r = k3(vec![0.1, 0.4, 0.4, 0.05, 0.05]);
        let top = r.top_k(3);
        assert_eq!(top[0].0, 1, "tie at 0.4 broken by lower vertex id");
        assert_eq!(top[1].0, 2);
        assert_eq!(top[2].0, 0);
    }

    #[test]
    fn top_k_truncates_and_handles_oversize() {
        let r = k3(vec![0.5, 0.5]);
        assert_eq!(r.top_k(10).len(), 2);
        assert_eq!(r.top_k(0).len(), 0);
    }

    #[test]
    fn summary_mentions_all_present_kernels() {
        let result = PipelineResult {
            config: "test".into(),
            scale: 4,
            edges: 64,
            variant: "optimized",
            workload: "pagerank",
            kernel0: None,
            kernel1: None,
            kernel2: None,
            kernel3: Some(k3(vec![1.0])),
            algo: None,
            validation: None,
        };
        let s = result.summary();
        assert!(s.contains("K3 pagerank"), "{s}");
        assert!(!s.contains("K0"), "{s}");
    }

    #[test]
    fn summary_reports_algo_workloads() {
        let result = PipelineResult {
            config: "test".into(),
            scale: 4,
            edges: 64,
            variant: "optimized",
            workload: "bfs",
            kernel0: None,
            kernel1: None,
            kernel2: None,
            kernel3: None,
            algo: Some(WorkloadResult {
                workload: "bfs",
                timing: KernelTiming::new(0.5, 64),
                output_len: 16,
                stat: 12,
                stat_name: "reached",
                source: Some(3),
                checksum: 0xdead_beef,
            }),
            validation: None,
        };
        let s = result.summary();
        assert!(s.contains("K3 bfs"), "{s}");
        assert!(s.contains("12 reached"), "{s}");
        assert!(!s.contains("pagerank"), "{s}");
    }

    #[test]
    fn csv_row_has_fixed_field_count() {
        let result = PipelineResult {
            config: "test".into(),
            scale: 4,
            edges: 64,
            variant: "naive",
            workload: "pagerank",
            kernel0: None,
            kernel1: None,
            kernel2: None,
            kernel3: Some(k3(vec![1.0])),
            algo: None,
            validation: None,
        };
        let header_fields = PipelineResult::csv_header().split(',').count();
        let row_fields = result.csv_row().split(',').count();
        assert_eq!(header_fields, row_fields);
    }
}
