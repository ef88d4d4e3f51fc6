//! Operation and failure accounting, and the metric map every segment
//! fills.

use std::collections::BTreeMap;

/// Metric name → measured value. Units live in `BENCHMARK.json`, the one
/// place a metric is declared.
pub type Metrics = BTreeMap<String, f64>;

/// Inserts `value` under `name`.
pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    metrics.insert(name.to_string(), value);
}

/// Counts attempted operations (trials, algorithm calls, requests and the
/// correctness checks made on their outputs) and the ones that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one operation or check; `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 32 {
                self.errors.push(what());
            }
        }
    }

    /// Records `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }
}

/// Sizes the rayon shim's global pool; every segment states its thread
/// count before it runs because the pool is process-wide.
pub fn size_pool(threads: usize) {
    // The shim's build_global cannot fail and may be called repeatedly.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();
}

/// Threads of every timed part. The host's second vCPU is not a second
/// core: two busy threads flip between running serially and running at
/// 1.6x for seconds at a time (see the README), which no statistic
/// steadies, so end-to-end numbers are taken at one thread and the
/// two-thread forms are measured as per-layer metrics only.
pub const TIMED_THREADS: usize = 1;

/// Threads of the two-thread per-layer probes: two, capped by the host.
pub fn parallel_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}
