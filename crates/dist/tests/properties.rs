//! Property-based tests for the BSP fabric and partitioning.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_dist::{fabric::run_cluster, Fabric, Partition};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitions tile the vertex space for arbitrary (n, workers).
    #[test]
    fn partition_tiles(n in 0u64..10_000, workers in 1usize..32) {
        let p = Partition::new(n, workers);
        let mut covered = 0u64;
        let mut next_start = 0u64;
        for w in 0..workers {
            let r = p.range(w);
            prop_assert_eq!(r.start, next_start);
            next_start = r.end;
            covered += r.end - r.start;
        }
        prop_assert_eq!(covered, n);
        for v in (0..n).step_by((n as usize / 64).max(1)) {
            prop_assert!(p.range(p.owner(v)).contains(&v));
        }
    }

    /// All-to-all delivers every payload to the right rank, for arbitrary
    /// cluster sizes and payload shapes.
    #[test]
    fn all_to_all_delivers(
        workers in 1usize..8,
        lens in proptest::collection::vec(0usize..20, 1..8),
    ) {
        let fabric = Fabric::new(workers);
        let lens = std::sync::Arc::new(lens);
        let results = run_cluster(workers, &fabric, |rank| {
            let outgoing: Vec<Vec<u64>> = (0..workers)
                .map(|d| {
                    let len = lens[(rank + d) % lens.len()];
                    (0..len as u64).map(|i| (rank * 1000 + d * 100) as u64 + i).collect()
                })
                .collect();
            let expected_lens: Vec<usize> =
                (0..workers).map(|src| lens[(src + rank) % lens.len()]).collect();
            let received = fabric.all_to_all(rank, outgoing);
            (rank, expected_lens, received)
        });
        for (rank, expected_lens, received) in results {
            prop_assert_eq!(received.len(), workers);
            for (src, payload) in received.iter().enumerate() {
                prop_assert_eq!(payload.len(), expected_lens[src]);
                for (i, &x) in payload.iter().enumerate() {
                    prop_assert_eq!(x, (src * 1000 + rank * 100) as u64 + i as u64);
                }
            }
        }
    }

    /// All-reduce equals the serial sum for arbitrary vectors, on every
    /// rank, and the traffic matches the gather+broadcast model exactly.
    #[test]
    fn all_reduce_sums_and_counts(
        workers in 1usize..8,
        len in 0usize..64,
        seed: u64,
    ) {
        let fabric = Fabric::new(workers);
        let mk = |rank: usize| -> Vec<u64> {
            (0..len)
                .map(|i| (seed.wrapping_mul(rank as u64 + 1).wrapping_add(i as u64)) % 1000)
                .collect()
        };
        let results = run_cluster(workers, &fabric, |rank| {
            fabric.all_reduce_sum(rank, mk(rank))
        });
        let mut expect = vec![0u64; len];
        for rank in 0..workers {
            for (e, x) in expect.iter_mut().zip(mk(rank)) {
                *e += x;
            }
        }
        for r in &results {
            prop_assert_eq!(r, &expect);
        }
        let bytes = fabric.stats().bytes;
        prop_assert_eq!(bytes, 2 * (workers as u64 - 1) * len as u64 * 8);
    }

    /// Broadcast reaches every rank from any root.
    #[test]
    fn broadcast_from_any_root(workers in 1usize..8, root_pick: usize, payload: u32) {
        let root = root_pick % workers;
        let fabric = Fabric::new(workers);
        let results = run_cluster(workers, &fabric, |rank| {
            fabric.broadcast(rank, root, (rank == root).then_some(payload))
        });
        prop_assert!(results.iter().all(|&r| r == payload));
    }
}
