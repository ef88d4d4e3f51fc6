//! GAP-style graph-analytics workloads for the PageRank Pipeline
//! Benchmark.
//!
//! The paper's thesis is that the *pipeline* is the unit of measurement —
//! but a pipeline that can only answer PageRank measures one data-access
//! pattern. This crate adds the four kernels the GAP Benchmark Suite
//! (Beamer, Asanović, Patterson) uses to span the space, each running on
//! the pattern of the kernel-2 matrix:
//!
//! | Workload | Optimized kernel | Serial oracle |
//! |---|---|---|
//! | [`bfs`] | direction-optimizing (push/pull) traversal | queue level-order |
//! | [`cc`] | label propagation + pointer-jump shortcuts | BFS labeling |
//! | [`sssp`] | delta-stepping over derived integer weights | binary-heap Dijkstra |
//! | [`tc`] | degree-ordered neighborhood intersection | per-edge common neighbors |
//!
//! Every kernel is **bit-deterministic**: outputs are depth/label/
//! distance vectors or exact counts whose values are invariant under
//! traversal, relaxation, and chunk order, so optimized and oracle
//! implementations compare with `==` at any thread count. Parallelism
//! follows the workspace's safe-chunking idiom — disjoint `split_at_mut`
//! ranges or per-chunk outputs concatenated in chunk order — with no
//! atomics and no `unsafe`.

pub mod bfs;
pub mod cc;
pub mod graph;
pub mod sssp;
pub mod tc;

pub use graph::Graph;

use ppbench_prng::SplitMix64;

/// Depth sentinel for vertices BFS cannot reach.
pub const UNREACHED: u32 = u32::MAX;

/// Distance sentinel for vertices SSSP cannot reach.
pub const UNREACHED_DIST: u64 = u64::MAX;

/// Domain-separation constant for source-vertex selection (b"SRCPICKR").
const SOURCE_SALT: u64 = 0x5352_4350_4943_4b52;

/// Picks a deterministic traversal source for BFS/SSSP: up to 64 seeded
/// draws looking for a vertex with outgoing edges (GAP likewise requires
/// sources of nonzero degree), falling back to the first such vertex,
/// then to vertex 0.
pub fn pick_source(g: &Graph, seed: u64) -> u32 {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    for attempt in 0..64u64 {
        let v = (SplitMix64::mix(seed ^ SOURCE_SALT ^ attempt) % n as u64) as u32;
        if g.out_degree(v as usize) > 0 {
            return v;
        }
    }
    (0..n)
        .find(|&v| g.out_degree(v) > 0)
        .map(|v| v as u32)
        .unwrap_or(0)
}

/// FNV-1a over the little-endian bytes of `values` — the output
/// fingerprint the pipeline records and the benches compare.
pub fn checksum_u64s(values: &[u64]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Splits `data` into per-chunk mutable slices according to `boundaries`
/// (ascending, starting at 0, ending at `data.len()`), pairing each with
/// its starting index — the same safe disjoint-write decomposition the
/// sparse SpMV kernels use.
pub(crate) fn chunk_slices<'a, T>(
    data: &'a mut [T],
    boundaries: &[usize],
) -> Vec<(&'a mut [T], usize)> {
    assert!(boundaries.len() >= 2, "need at least one chunk");
    assert_eq!(boundaries[0], 0, "boundaries must start at 0");
    assert_eq!(
        boundaries[boundaries.len() - 1],
        data.len(),
        "boundaries must end at data.len()"
    );
    let mut parts = Vec::with_capacity(boundaries.len() - 1);
    let mut rest = data;
    let mut offset = 0usize;
    for pair in boundaries.windows(2) {
        let (head, tail) = rest.split_at_mut(pair[1] - pair[0]);
        parts.push((head, offset));
        offset = pair[1];
        rest = tail;
    }
    parts
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared graph fixtures for the per-kernel oracle tests.

    use ppbench_prng::{Rng64, SeedableRng64, Xoshiro256pp};

    use crate::graph::Graph;

    /// The ISSUE's hand-built tiny graphs: empty, single self-loop,
    /// disconnected components, star/hub, and path.
    pub(crate) fn tiny_graphs() -> Vec<(&'static str, Graph)> {
        vec![
            ("empty", Graph::from_edges(0, &[]).unwrap()),
            ("isolated", Graph::from_edges(4, &[]).unwrap()),
            ("self-loop", Graph::from_edges(1, &[(0, 0)]).unwrap()),
            (
                "disconnected",
                Graph::from_edges(6, &[(0, 1), (1, 0), (3, 4), (4, 5)]).unwrap(),
            ),
            (
                "star",
                Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (3, 0)]).unwrap(),
            ),
            (
                "path",
                Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(),
            ),
        ]
    }

    /// Seeded uniform random multigraph (duplicates collapse in the
    /// constructor).
    pub(crate) fn random_graph(n: u32, edges: usize, seed: u64) -> Graph {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let list: Vec<(u32, u32)> = (0..edges)
            .map(|_| {
                (
                    (rng.next_u64() % u64::from(n)) as u32,
                    (rng.next_u64() % u64::from(n)) as u32,
                )
            })
            .collect();
        Graph::from_edges(n, &list).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_distinguishes_values_and_order() {
        assert_ne!(checksum_u64s(&[1, 2]), checksum_u64s(&[2, 1]));
        assert_ne!(checksum_u64s(&[1]), checksum_u64s(&[1, 0]));
        assert_eq!(checksum_u64s(&[7, 8]), checksum_u64s(&[7, 8]));
    }

    #[test]
    fn chunk_slices_cover_disjointly() {
        let mut data = [0u32; 10];
        let parts = chunk_slices(&mut data, &[0, 3, 3, 10]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].1, 0);
        assert_eq!(parts[0].0.len(), 3);
        assert_eq!(parts[1].0.len(), 0);
        assert_eq!(parts[2].1, 3);
        assert_eq!(parts[2].0.len(), 7);
    }

    #[test]
    fn source_pick_prefers_out_degree() {
        let g = Graph::from_edges(8, &[(3, 4)]).unwrap();
        for seed in 0..20u64 {
            assert_eq!(pick_source(&g, seed), 3, "only vertex 3 has out-edges");
        }
        let empty = Graph::from_edges(4, &[]).unwrap();
        assert_eq!(pick_source(&empty, 1), 0, "degenerate fallback");
        let none = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(pick_source(&none, 1), 0);
    }
}
