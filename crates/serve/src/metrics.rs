//! Service metrics: lock-free counters and per-kernel latency histograms,
//! rendered in the Prometheus text exposition format.
//!
//! Everything is atomic so the hot paths (worker observers, request
//! handlers, the connection event loop) never contend on the service
//! mutex just to count.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds in seconds, chosen to span a scale-10
/// smoke run (sub-millisecond kernels) through a scale-22+ benchmark run.
pub const BUCKET_BOUNDS: [f64; 10] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];

/// Cumulative histogram of one kernel's wall-clock seconds.
#[derive(Debug, Default)]
pub struct KernelHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS.len()],
    count: AtomicU64,
    /// Sum in nanoseconds; an integer so it can be a plain atomic add.
    sum_nanos: AtomicU64,
}

impl KernelHistogram {
    /// Records one observation.
    pub fn observe(&self, seconds: f64) {
        for (bucket, bound) in self.buckets.iter().zip(BUCKET_BOUNDS) {
            if seconds <= bound {
                bucket.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render_into(&self, out: &mut String, kernel: usize) {
        for (bucket, bound) in self.buckets.iter().zip(BUCKET_BOUNDS) {
            out.push_str(&format!(
                "ppbench_kernel_seconds_bucket{{kernel=\"{kernel}\",le=\"{bound}\"}} {}\n",
                bucket.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "ppbench_kernel_seconds_bucket{{kernel=\"{kernel}\",le=\"+Inf\"}} {}\n",
            self.count()
        ));
        out.push_str(&format!(
            "ppbench_kernel_seconds_sum{{kernel=\"{kernel}\"}} {}\n",
            self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
        ));
        out.push_str(&format!(
            "ppbench_kernel_seconds_count{{kernel=\"{kernel}\"}} {}\n",
            self.count()
        ));
    }
}

/// All service-level metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs accepted by `POST /runs` (including cache hits and coalesced
    /// followers).
    pub jobs_submitted: AtomicU64,
    /// Jobs that reached `Done` (including cache hits and followers).
    pub jobs_done: AtomicU64,
    /// Jobs that reached `Failed`.
    pub jobs_failed: AtomicU64,
    /// Jobs cancelled while queued.
    pub jobs_cancelled: AtomicU64,
    /// Submissions that coalesced onto an in-flight identical config
    /// (one pipeline run, N waiters).
    pub jobs_coalesced: AtomicU64,
    /// Pipeline executions actually performed by workers. With coalescing
    /// and caching this is the ground truth for "how many times did we
    /// really run the kernels".
    pub pipeline_runs: AtomicU64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Submissions rejected because the client exceeded its quota of
    /// in-flight jobs.
    pub rejected_quota: AtomicU64,
    /// In-memory result-cache hits at submission time.
    pub cache_hits: AtomicU64,
    /// Result-cache misses at submission time (a pipeline run was
    /// scheduled).
    pub cache_misses: AtomicU64,
    /// Disk-tier cache hits: results revived from the on-disk store
    /// (e.g. after a restart) without re-running the pipeline.
    pub disk_cache_hits: AtomicU64,
    /// HTTP requests served, any route or status.
    pub http_requests: AtomicU64,
    /// Connections accepted by the event loop.
    pub conns_accepted: AtomicU64,
    /// Connections answered 503 (or dropped) because the event loop was
    /// at its connection capacity.
    pub rejected_over_capacity: AtomicU64,
    /// Requests that timed out while the client was still sending the
    /// head or body (answered 408).
    pub http_read_timeouts: AtomicU64,
    /// Responses dropped because the client read too slowly to accept
    /// the bytes within the write deadline.
    pub http_write_timeouts: AtomicU64,
    /// Response write failures (peer reset / broken pipe / short write).
    pub http_write_errors: AtomicU64,
    /// Connections closed by the peer before a full request arrived.
    pub http_half_requests: AtomicU64,
    /// Connections currently registered in the event loop (a gauge the
    /// loop stores each tick; atomic so `/metrics` never touches loop
    /// state).
    pub open_connections: AtomicU64,
    /// Per-kernel latency histograms, index = kernel number.
    pub kernel_seconds: [KernelHistogram; 4],
}

impl Metrics {
    /// Convenience: relaxed increment.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus text format. Gauges that live in the
    /// service state (queue depth, jobs by current state, cache bytes)
    /// are passed in by the caller, which holds the lock briefly to read
    /// them.
    pub fn render(&self, gauges: &Gauges) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        out.push_str("# TYPE ppbench_jobs_submitted_total counter\n");
        out.push_str(&format!(
            "ppbench_jobs_submitted_total {}\n",
            c(&self.jobs_submitted)
        ));
        out.push_str("# TYPE ppbench_jobs_total counter\n");
        for (state, value) in [
            ("done", c(&self.jobs_done)),
            ("failed", c(&self.jobs_failed)),
            ("cancelled", c(&self.jobs_cancelled)),
        ] {
            out.push_str(&format!(
                "ppbench_jobs_total{{state=\"{state}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE ppbench_jobs_coalesced_total counter\n");
        out.push_str(&format!(
            "ppbench_jobs_coalesced_total {}\n",
            c(&self.jobs_coalesced)
        ));
        out.push_str("# TYPE ppbench_pipeline_runs_total counter\n");
        out.push_str(&format!(
            "ppbench_pipeline_runs_total {}\n",
            c(&self.pipeline_runs)
        ));
        out.push_str("# TYPE ppbench_jobs_current gauge\n");
        for (state, value) in [
            ("queued", gauges.jobs_queued),
            ("running", gauges.jobs_running),
        ] {
            out.push_str(&format!(
                "ppbench_jobs_current{{state=\"{state}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE ppbench_queue_depth gauge\n");
        out.push_str(&format!("ppbench_queue_depth {}\n", gauges.queue_depth));
        out.push_str("# TYPE ppbench_rejected_total counter\n");
        for (reason, value) in [
            ("queue_full", c(&self.rejected_queue_full)),
            ("quota", c(&self.rejected_quota)),
            ("over_capacity", c(&self.rejected_over_capacity)),
        ] {
            out.push_str(&format!(
                "ppbench_rejected_total{{reason=\"{reason}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE ppbench_cache_hits_total counter\n");
        out.push_str(&format!(
            "ppbench_cache_hits_total {}\n",
            c(&self.cache_hits)
        ));
        out.push_str("# TYPE ppbench_cache_misses_total counter\n");
        out.push_str(&format!(
            "ppbench_cache_misses_total {}\n",
            c(&self.cache_misses)
        ));
        out.push_str("# TYPE ppbench_disk_cache_hits_total counter\n");
        out.push_str(&format!(
            "ppbench_disk_cache_hits_total {}\n",
            c(&self.disk_cache_hits)
        ));
        out.push_str("# TYPE ppbench_cache_bytes gauge\n");
        out.push_str(&format!("ppbench_cache_bytes {}\n", gauges.cache_bytes));
        out.push_str("# TYPE ppbench_cache_entries gauge\n");
        out.push_str(&format!("ppbench_cache_entries {}\n", gauges.cache_entries));
        out.push_str("# TYPE ppbench_disk_cache_bytes gauge\n");
        out.push_str(&format!(
            "ppbench_disk_cache_bytes {}\n",
            gauges.disk_cache_bytes
        ));
        out.push_str("# TYPE ppbench_disk_cache_entries gauge\n");
        out.push_str(&format!(
            "ppbench_disk_cache_entries {}\n",
            gauges.disk_cache_entries
        ));
        out.push_str("# TYPE ppbench_http_requests_total counter\n");
        out.push_str(&format!(
            "ppbench_http_requests_total {}\n",
            c(&self.http_requests)
        ));
        out.push_str("# TYPE ppbench_connections_accepted_total counter\n");
        out.push_str(&format!(
            "ppbench_connections_accepted_total {}\n",
            c(&self.conns_accepted)
        ));
        out.push_str("# TYPE ppbench_open_connections gauge\n");
        out.push_str(&format!(
            "ppbench_open_connections {}\n",
            c(&self.open_connections)
        ));
        out.push_str("# TYPE ppbench_http_errors_total counter\n");
        for (kind, value) in [
            ("read_timeout", c(&self.http_read_timeouts)),
            ("write_timeout", c(&self.http_write_timeouts)),
            ("write_error", c(&self.http_write_errors)),
            ("half_request", c(&self.http_half_requests)),
        ] {
            out.push_str(&format!(
                "ppbench_http_errors_total{{kind=\"{kind}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE ppbench_kernel_seconds histogram\n");
        for (kernel, histogram) in self.kernel_seconds.iter().enumerate() {
            histogram.render_into(&mut out, kernel);
        }
        out
    }
}

/// Point-in-time gauge values read from the service state under its lock.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauges {
    /// Jobs currently queued.
    pub jobs_queued: u64,
    /// Jobs currently running.
    pub jobs_running: u64,
    /// Current submission-queue depth (same as `jobs_queued`; kept as its
    /// own gauge because the queue is the backpressure surface).
    pub queue_depth: u64,
    /// Approximate bytes held by the in-memory result cache.
    pub cache_bytes: u64,
    /// Entries in the in-memory result cache.
    pub cache_entries: u64,
    /// Bytes held by the on-disk result store (0 when the tier is off).
    pub disk_cache_bytes: u64,
    /// Entries in the on-disk result store.
    pub disk_cache_entries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = KernelHistogram::default();
        h.observe(0.0005);
        h.observe(0.02);
        h.observe(200.0);
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render_into(&mut out, 3);
        assert!(out.contains("kernel=\"3\",le=\"0.001\"} 1"), "{out}");
        assert!(out.contains("kernel=\"3\",le=\"0.05\"} 2"), "{out}");
        assert!(out.contains("kernel=\"3\",le=\"120\"} 2"), "{out}");
        assert!(out.contains("kernel=\"3\",le=\"+Inf\"} 3"), "{out}");
        assert!(
            out.contains("ppbench_kernel_seconds_count{kernel=\"3\"} 3"),
            "{out}"
        );
    }

    #[test]
    fn render_includes_every_family() {
        let m = Metrics::default();
        Metrics::inc(&m.jobs_submitted);
        Metrics::inc(&m.cache_hits);
        Metrics::inc(&m.jobs_coalesced);
        Metrics::inc(&m.pipeline_runs);
        Metrics::inc(&m.disk_cache_hits);
        Metrics::inc(&m.http_write_errors);
        m.open_connections.store(7, Ordering::Relaxed);
        m.kernel_seconds[0].observe(0.1);
        let text = m.render(&Gauges {
            jobs_queued: 2,
            jobs_running: 1,
            queue_depth: 2,
            cache_bytes: 4096,
            cache_entries: 3,
            disk_cache_bytes: 8192,
            disk_cache_entries: 2,
        });
        for needle in [
            "ppbench_jobs_submitted_total 1",
            "ppbench_jobs_total{state=\"done\"} 0",
            "ppbench_jobs_coalesced_total 1",
            "ppbench_pipeline_runs_total 1",
            "ppbench_jobs_current{state=\"queued\"} 2",
            "ppbench_queue_depth 2",
            "ppbench_rejected_total{reason=\"queue_full\"} 0",
            "ppbench_rejected_total{reason=\"quota\"} 0",
            "ppbench_rejected_total{reason=\"over_capacity\"} 0",
            "ppbench_cache_hits_total 1",
            "ppbench_cache_misses_total 0",
            "ppbench_disk_cache_hits_total 1",
            "ppbench_cache_bytes 4096",
            "ppbench_cache_entries 3",
            "ppbench_disk_cache_bytes 8192",
            "ppbench_disk_cache_entries 2",
            "ppbench_http_requests_total 0",
            "ppbench_connections_accepted_total 0",
            "ppbench_open_connections 7",
            "ppbench_http_errors_total{kind=\"read_timeout\"} 0",
            "ppbench_http_errors_total{kind=\"write_error\"} 1",
            "ppbench_kernel_seconds_count{kernel=\"0\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // One series per counter: the pre-label duplicate is gone.
        assert!(
            !text.contains("ppbench_rejected_queue_full_total"),
            "{text}"
        );
    }
}
