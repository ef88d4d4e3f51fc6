//! Wall-clock timing and the benchmark's throughput metrics.
//!
//! This is the one module of a kernel crate that reads the wall clock.
#![expect(
    clippy::disallowed_methods,
    reason = "the sanctioned clock: kernels time themselves through this module only"
)]

use std::time::Instant;

/// A simple wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stops and produces a [`KernelTiming`] for `work_items` processed.
    pub fn finish(self, work_items: u64) -> KernelTiming {
        KernelTiming::new(self.elapsed_secs(), work_items)
    }
}

/// Elapsed time plus the benchmark's "items per second" rate.
///
/// For kernels 1 and 2 the item count is `M` (edges); for kernel 3 it is
/// `20·M` (edges processed across all iterations), exactly as the paper
/// reports its figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Work items the kernel processed.
    pub work_items: u64,
}

impl KernelTiming {
    /// Builds a timing record; a zero duration is clamped to a femtosecond
    /// so rates stay finite on trivially small inputs.
    pub fn new(seconds: f64, work_items: u64) -> Self {
        Self {
            seconds: seconds.max(1e-15),
            work_items,
        }
    }

    /// Items (edges) per second.
    pub fn rate(&self) -> f64 {
        self.work_items as f64 / self.seconds
    }
}

impl std::fmt::Display for KernelTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s ({:.3e} edges/s)", self.seconds, self.rate())
    }
}

/// Times a closure, returning its output and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed_secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_items_over_seconds() {
        let t = KernelTiming::new(2.0, 100);
        assert_eq!(t.rate(), 50.0);
    }

    #[test]
    fn zero_duration_clamped() {
        let t = KernelTiming::new(0.0, 10);
        assert!(t.rate().is_finite());
        assert!(t.rate() > 0.0);
    }

    #[test]
    fn stopwatch_measures_something() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t = sw.finish(1000);
        assert!(t.seconds >= 0.004, "measured {}", t.seconds);
        assert!(t.rate() > 0.0);
    }

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, secs) = timed(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn display_formats() {
        let s = KernelTiming::new(1.0, 1_000_000).to_string();
        assert!(s.contains("1.000s"), "{s}");
        assert!(s.contains("e6") || s.contains("1.000e6"), "{s}");
    }
}
