//! Property-based tests for the graph generators.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_gen::{EdgeGenerator, FeistelPermutation, GeneratorKind, GraphSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generator respects the (scale, edge factor) contract for
    /// arbitrary small specs and seeds.
    #[test]
    fn generator_contract(scale in 1u32..8, k in 1u64..8, seed: u64) {
        let spec = GraphSpec::new(scale, k);
        for kind in GeneratorKind::ALL {
            let g = kind.build(spec, seed);
            let edges = g.edges();
            prop_assert_eq!(edges.len() as u64, spec.num_edges());
            prop_assert!(edges.iter().all(|e| e.u < spec.num_vertices()
                && e.v < spec.num_vertices()));
        }
    }

    /// Chunked generation tiles the full stream for arbitrary chunk cuts.
    #[test]
    fn chunking_tiles(scale in 1u32..7, seed: u64, cut in 1u64..64) {
        let spec = GraphSpec::new(scale, 4);
        let m = spec.num_edges();
        let cut = cut.min(m);
        for kind in GeneratorKind::ALL {
            let g = kind.build(spec, seed);
            let all = g.edges();
            let mut tiled = g.edges_chunk(0, cut);
            tiled.extend(g.edges_chunk(cut, m));
            prop_assert_eq!(tiled, all);
        }
    }

    /// The Feistel permutation is a bijection with a working inverse on
    /// arbitrary widths and seeds.
    #[test]
    fn feistel_bijection(bits in 1u32..12, seed: u64) {
        let p = FeistelPermutation::new(bits, seed);
        let n = p.domain();
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = p.apply(x);
            prop_assert!(y < n);
            prop_assert!(!seen[y as usize]);
            seen[y as usize] = true;
            prop_assert_eq!(p.invert(y), x);
        }
    }

    /// Generation is a pure function of (kind, spec, seed).
    #[test]
    fn generation_deterministic(seed: u64) {
        let spec = GraphSpec::new(5, 4);
        for kind in GeneratorKind::ALL {
            let a = kind.build(spec, seed).edges();
            let b = kind.build(spec, seed).edges();
            prop_assert_eq!(a, b);
        }
    }
}
