//! Property-based tests for the sorting substrate.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_io::{tempdir::TempDir, Edge};
use ppbench_sort::{Algorithm, ExternalSorter, SortKey};
use proptest::prelude::*;

fn arb_edges(max_len: usize, bound: u64) -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec(
        (0..bound, 0..bound).prop_map(|(u, v)| Edge::new(u, v)),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every in-memory algorithm produces a sorted permutation of its input
    /// under both keys.
    #[test]
    fn in_memory_algorithms_sort(edges in arb_edges(300, 64)) {
        for key in [SortKey::Start, SortKey::StartEnd] {
            for alg in Algorithm::ALL {
                let mut v = edges.clone();
                alg.sort(&mut v, key, Some(64));
                prop_assert!(key.is_sorted(&v), "{} under {:?}", alg.name(), key);
                let mut a = v;
                let mut b = edges.clone();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "{} changed the multiset", alg.name());
            }
        }
    }

    /// Radix sort by (start, end) agrees element-for-element with the
    /// standard library on arbitrary full-width keys.
    #[test]
    fn radix_equals_std(edges in proptest::collection::vec(
        (any::<u64>(), any::<u64>()).prop_map(|(u, v)| Edge::new(u, v)), 0..200))
    {
        let mut a = edges.clone();
        let mut b = edges;
        ppbench_sort::radix_sort(&mut a, SortKey::StartEnd);
        b.sort_unstable_by_key(|e| (e.u, e.v));
        prop_assert_eq!(a, b);
    }

    /// The external sorter equals the stable in-memory sort for any memory
    /// budget, including budgets that force heavy spilling.
    #[test]
    fn external_equals_in_memory(edges in arb_edges(400, 32), budget in 1usize..64) {
        let td = TempDir::new("ppbench-sort-prop").unwrap();
        let sorter = ExternalSorter::new(td.path(), budget, SortKey::Start).unwrap();
        let mut writer = sorter.run_writer().unwrap();
        for &e in &edges {
            writer.push(e).unwrap();
        }
        let mut out = Vec::new();
        writer
            .finish()
            .unwrap()
            .for_each_batch(|batch| {
                out.extend_from_slice(batch);
                Ok(())
            })
            .unwrap();
        let mut expect = edges.clone();
        ppbench_sort::radix_sort(&mut expect, SortKey::Start);
        prop_assert_eq!(out, expect);
    }
}
