//! Std-only stand-in for the subset of the `rayon` API this workspace
//! uses.
//!
//! The build environment is offline — no crates.io registry — so the
//! workspace vendors minimal shims for its few third-party dependencies
//! (see `shims/` in the repository root). This one covers:
//!
//! * [`iter::IntoParallelIterator::into_par_iter`] on integer ranges and
//!   vectors,
//! * [`iter::IntoParallelRefIterator::par_iter`] on slices and vectors,
//! * [`iter::ParIter::map`] / [`iter::ParIter::flat_map_iter`] /
//!   [`iter::ParIter::collect`].
//!
//! Map stages genuinely run in parallel on scoped `std::thread`s (one
//! contiguous chunk per available core, results concatenated in order, so
//! output ordering is identical to the sequential path).

#![forbid(unsafe_code)]

pub mod iter;

use std::sync::atomic::{AtomicUsize, Ordering};

/// What rayon's prelude exports, restricted to what the workspace needs.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Explicit global pool size; 0 means "not set, use the core count".
static POOL_SIZE: AtomicUsize = AtomicUsize::new(0);

/// Mirror of `rayon::ThreadPoolBuilder` restricted to global-pool sizing.
///
/// Divergence from real rayon, deliberate for a shim: [`build_global`]
/// may be called more than once (later calls re-size the pool) because
/// the bench harness sweeps thread counts within one process. Real rayon
/// errors on the second call; code written against the real API still
/// behaves correctly here.
///
/// [`build_global`]: ThreadPoolBuilder::build_global
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default (core-count) sizing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests an explicit worker count; 0 restores the core-count
    /// default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the sizing globally. Infallible in the shim; the
    /// `Result` matches the real signature.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        POOL_SIZE.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// Error type of [`ThreadPoolBuilder::build_global`]; never produced by
/// the shim, present for signature compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("global thread pool could not be built")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// The number of workers parallel stages run with: the explicit global
/// pool size when one was installed, otherwise the available core count.
pub fn current_num_threads() -> usize {
    threads()
}

/// Worker count for parallel stages: the explicitly configured pool size
/// if set, else the number of available cores.
pub(crate) fn threads() -> usize {
    let configured = POOL_SIZE.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on scoped threads, one contiguous chunk per
/// worker, preserving input order in the output.
pub(crate) fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut batches: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items.into_iter();
    loop {
        let batch: Vec<T> = items.by_ref().take(chunk).collect();
        if batch.is_empty() {
            break;
        }
        batches.push(batch);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| scope.spawn(move || batch.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("rayon-shim worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn into_par_iter_map_preserves_order() {
        let out: Vec<u64> = (0u64..10_000).into_par_iter().map(|x| x * 2).collect();
        let expected: Vec<u64> = (0..10_000).map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_iter_flat_map_iter_matches_sequential() {
        let chunks: Vec<(u64, u64)> = vec![(0, 3), (3, 7), (7, 8)];
        let out: Vec<u64> = chunks
            .par_iter()
            .flat_map_iter(|&(lo, hi)| lo..hi)
            .collect();
        assert_eq!(out, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_inputs_work() {
        let out: Vec<u64> = Vec::<u64>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn global_pool_size_is_settable_and_resettable() {
        // Runs in one test so the global store is not racing a sibling.
        crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .unwrap();
        assert_eq!(crate::current_num_threads(), 3);
        // Parallel stages still produce ordered output under the override.
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..=1000).collect::<Vec<u64>>());
        crate::ThreadPoolBuilder::new().build_global().unwrap();
        assert!(crate::current_num_threads() >= 1);
    }
}
