//! Property-based tests for the columnar dataframe.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_frame::{Frame, Series};
use proptest::prelude::*;

fn arb_frame(max_rows: usize) -> impl Strategy<Value = Frame> {
    proptest::collection::vec((0u64..32, 0u64..32, -10.0f64..10.0), 0..max_rows).prop_map(|rows| {
        let u: Vec<u64> = rows.iter().map(|r| r.0).collect();
        let v: Vec<u64> = rows.iter().map(|r| r.1).collect();
        let w: Vec<f64> = rows.iter().map(|r| r.2).collect();
        Frame::new(vec![
            ("u".into(), Series::U64(u)),
            ("v".into(), Series::U64(v)),
            ("w".into(), Series::F64(w)),
        ])
        .expect("fresh equal-length columns")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// sort_by produces a sorted permutation of the rows and keeps every
    /// column aligned.
    #[test]
    fn sort_preserves_rows_and_alignment(f in arb_frame(200)) {
        let sorted = f.sort_by(&["u", "v"]).unwrap();
        prop_assert_eq!(sorted.rows(), f.rows());
        let us = sorted.column("u").unwrap().as_u64().unwrap();
        let vs = sorted.column("v").unwrap().as_u64().unwrap();
        prop_assert!(us.windows(2).zip(vs.windows(2)).all(|(a, b)|
            (a[0], b[0]) <= (a[1], b[1])));
        // Row multiset preserved: compare as sorted (u, v, w-bits) tuples.
        let rows = |fr: &Frame| -> Vec<(u64, u64, u64)> {
            let u = fr.column("u").unwrap().as_u64().unwrap();
            let v = fr.column("v").unwrap().as_u64().unwrap();
            let w = fr.column("w").unwrap().as_f64().unwrap();
            let mut t: Vec<_> = (0..fr.rows())
                .map(|i| (u[i], v[i], w[i].to_bits()))
                .collect();
            t.sort_unstable();
            t
        };
        prop_assert_eq!(rows(&sorted), rows(&f));
    }

    /// argsort is stable: equal keys keep their original relative order.
    #[test]
    fn argsort_is_stable(keys in proptest::collection::vec(0u64..4, 0..150)) {
        let n = keys.len();
        let f = Frame::new(vec![
            ("k".into(), Series::U64(keys.clone())),
            ("idx".into(), Series::U64((0..n as u64).collect())),
        ]).unwrap();
        let sorted = f.sort_by(&["k"]).unwrap();
        let ks = sorted.column("k").unwrap().as_u64().unwrap();
        let idx = sorted.column("idx").unwrap().as_u64().unwrap();
        for i in 1..n {
            if ks[i - 1] == ks[i] {
                prop_assert!(idx[i - 1] < idx[i], "instability at {i}");
            }
        }
    }

    /// group_by_count totals equal the row count and match a naive count.
    #[test]
    fn group_by_count_is_a_histogram(f in arb_frame(200)) {
        let counts = f.group_by_count("u", 32).unwrap();
        prop_assert_eq!(counts.iter().sum::<u64>(), f.rows() as u64);
        let us = f.column("u").unwrap().as_u64().unwrap();
        for (key, &c) in counts.iter().enumerate() {
            prop_assert_eq!(us.iter().filter(|&&u| u == key as u64).count() as u64, c);
        }
    }

    /// filter keeps exactly the masked rows, in order.
    #[test]
    fn filter_selects_exactly_masked(
        f in arb_frame(150),
        mask_seed: u64,
    ) {
        let mask: Vec<bool> =
            (0..f.rows()).map(|i| (mask_seed >> (i % 64)) & 1 == 1).collect();
        let kept = f.filter(&mask).unwrap();
        prop_assert_eq!(kept.rows(), mask.iter().filter(|&&m| m).count());
        let orig = f.column("u").unwrap().as_u64().unwrap();
        let got = kept.column("u").unwrap().as_u64().unwrap();
        let expect: Vec<u64> = orig
            .iter()
            .zip(&mask)
            .filter(|&(_, &m)| m)
            .map(|(&x, _)| x)
            .collect();
        prop_assert_eq!(got, &expect[..]);
    }

    /// Edge-frame round trip through TSV files is the identity.
    #[test]
    fn tsv_roundtrip(pairs in proptest::collection::vec((0u64..1000, 0u64..1000), 0..100)) {
        use ppbench_io::Edge;
        let edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let f = ppbench_frame::frame_from_edges(&edges);
        let td = ppbench_io::tempdir::TempDir::new("frame-prop").unwrap();
        ppbench_frame::write_edge_tsv(&f, td.path(), 2, None, None,
            ppbench_io::SortState::Unsorted).unwrap();
        let back = ppbench_frame::read_edge_tsv(td.path()).unwrap();
        prop_assert_eq!(ppbench_frame::frame_to_edges(&back).unwrap(), edges);
    }
}
