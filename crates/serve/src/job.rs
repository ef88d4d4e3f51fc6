//! Job model: the lifecycle of one benchmark run inside the service.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

use ppbench_core::{PipelineConfig, RunRecord};

/// Server-assigned job identifier (monotonic, never reused).
pub type JobId = u64;

/// Where a job is in its lifecycle.
///
/// `Queued → Running(kernel) → Done | Failed`, with `Queued → Cancelled`
/// as the only other edge. Running jobs cannot be cancelled — the kernels
/// have no safe interruption points, and a benchmark run is short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the submission queue.
    Queued,
    /// A worker is executing the pipeline; the payload is the kernel
    /// (0–3) currently running.
    Running(u8),
    /// Finished successfully; a summary is available.
    Done,
    /// The pipeline returned an error; the message is on the job.
    Failed,
    /// Removed from the queue before a worker picked it up.
    Cancelled,
}

impl JobState {
    /// Stable lowercase label used in JSON bodies and metrics.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running(_) => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// The persistent outcome of a successful run: the run record (per-kernel
/// timings) plus the full rank vector, kept so `top=K` queries for any `K`
/// return exactly what the pipeline computed.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-kernel timings and identity, as persisted by `pprank --report`.
    pub record: RunRecord,
    /// The kernel-3 rank vector, bit-exact as computed.
    pub ranks: Vec<f64>,
    /// Wall-clock seconds for the whole pipeline run.
    pub total_seconds: f64,
}

impl RunSummary {
    /// Approximate heap footprint, used for the cache byte budget. The
    /// rank vector dominates; the record and struct overhead are charged
    /// at a small flat rate.
    pub fn approx_bytes(&self) -> usize {
        self.ranks.len() * std::mem::size_of::<f64>()
            + self.record.variant.len()
            + self.record.workload.len()
            + 256
    }

    /// The `k` highest-ranked vertices as `(vertex, rank)` pairs,
    /// descending, ties broken by lower vertex id — the one rule
    /// `Kernel3Result::top_k` also calls ([`ppbench_core::rank::top_k`]).
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        ppbench_core::rank::top_k(&self.ranks, k)
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Server-assigned id.
    pub id: JobId,
    /// The configuration to run.
    pub config: PipelineConfig,
    /// Canonical hash of `config` (the cache key).
    pub config_hash: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Present once `state == Done`.
    pub summary: Option<Arc<RunSummary>>,
    /// Present once `state == Failed`.
    pub error: Option<String>,
    /// Whether the result was served from the cache without running.
    pub from_cache: bool,
    /// Submission time, for queue-latency reporting.
    pub submitted_at: Instant,
    /// IP the submission arrived from (`None` for in-process callers);
    /// the admission-control key.
    pub client: Option<IpAddr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(ranks: Vec<f64>) -> RunSummary {
        RunSummary {
            record: RunRecord {
                variant: "optimized".to_string(),
                workload: "pagerank".to_string(),
                scale: 4,
                edges: 64,
                kernels: [None; 4],
                validation_passed: None,
                threads: None,
                checksum: None,
            },
            ranks,
            total_seconds: 0.0,
        }
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(JobState::Queued.name(), "queued");
        assert_eq!(JobState::Running(2).name(), "running");
        assert_eq!(JobState::Done.name(), "done");
        assert_eq!(JobState::Failed.name(), "failed");
        assert_eq!(JobState::Cancelled.name(), "cancelled");
    }

    #[test]
    fn terminal_states() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running(0).is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }

    #[test]
    fn top_k_matches_kernel3_tie_rule() {
        let s = summary(vec![0.1, 0.4, 0.4, 0.05]);
        let top = s.top_k(3);
        assert_eq!(top[0].0, 1, "tie broken by lower vertex id");
        assert_eq!(top[1].0, 2);
        assert_eq!(top[2].0, 0);
    }

    #[test]
    fn approx_bytes_scales_with_ranks() {
        let small = summary(vec![0.0; 8]).approx_bytes();
        let large = summary(vec![0.0; 1024]).approx_bytes();
        assert!(large > small);
        assert!(large >= 1024 * 8);
    }
}
