//! Edge-file storage for the PageRank Pipeline Benchmark.
//!
//! Kernels 0 and 1 of the benchmark are defined in terms of *files on
//! non-volatile storage*: edges are written "as pairs of tab separated
//! numeric strings with a newline between each edge", and the number of
//! files is a free parameter of the specification. This crate owns that
//! contract:
//!
//! * [`Edge`] — the fundamental datum: a `(start, end)` pair of vertex ids.
//! * [`mod@format`] — the text encoding (`u<TAB>v<NEWLINE>`) with hand-rolled,
//!   branch-light integer parsing/formatting ([`atoi`]) so the optimized
//!   pipeline backend is not bottlenecked on `str::parse`.
//! * [`EdgeWriter`] / [`EdgeReader`] — buffered, multi-file readers and
//!   writers; files hold contiguous chunks so a sorted stream stays sorted
//!   across a file set.
//! * [`Manifest`] — sidecar metadata (scale, edge count, per-file counts,
//!   sort state, checksum) so each kernel can validate its input came from
//!   the previous kernel.
//! * [`checksum`] — order-independent and order-dependent stream digests
//!   used for cross-kernel and cross-backend validation (one of the paper's
//!   §V open questions: "What outputs should be recorded to validate
//!   correctness?").

//!
//! # Example
//!
//! ```
//! use ppbench_io::{tempdir::TempDir, Edge, EdgeReader, SortState};
//!
//! let dir = TempDir::new("ppbench-io-doc").unwrap();
//! let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
//! ppbench_io::write_edges(dir.path(), "edges", 2, &edges, None, None,
//!     SortState::Unsorted).unwrap();
//! let (manifest, back) = EdgeReader::read_dir_all(dir.path()).unwrap();
//! assert_eq!(back, edges);
//! assert_eq!(manifest.files.len(), 2);
//! ```

pub mod atoi;
pub mod checksum;
mod error;
pub mod format;
mod manifest;
mod reader;
pub mod tempdir;
mod writer;

pub use error::{Error, Result};
pub use manifest::{EdgeEncoding, FileEntry, Manifest, SortState, MANIFEST_NAME};
pub use reader::{EdgeFileIter, EdgeReader, VerifiedEdges};
pub use writer::{publish_manifest, shard_file_name, write_edges, EdgeWriter, ShardWriter};

/// A vertex identifier. Vertex labels range over `0 .. 2^scale`, so 64 bits
/// cover every scale the Graph500 generator supports.
pub type VertexId = u64;

/// A directed edge `(u, v)`: `u` is the start vertex, `v` the end vertex.
///
/// `repr(C)` pins the layout to exactly 16 bytes — the figure Table II of
/// the paper uses for its memory-footprint column.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Start vertex (`u`).
    pub u: VertexId,
    /// End vertex (`v`).
    pub v: VertexId,
}

impl Edge {
    /// Creates an edge from start and end vertex ids.
    #[inline]
    pub const fn new(u: VertexId, v: VertexId) -> Self {
        Self { u, v }
    }

    /// The (start, end) pair as a tuple.
    #[inline]
    pub const fn as_tuple(self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// True if the edge is a self-loop.
    #[inline]
    pub const fn is_loop(self) -> bool {
        self.u == self.v
    }

    /// The sort key used by kernel 1 when sorting by start vertex only.
    #[inline]
    pub const fn start_key(self) -> u64 {
        self.u
    }
}

impl From<(VertexId, VertexId)> for Edge {
    fn from((u, v): (VertexId, VertexId)) -> Self {
        Self { u, v }
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\t{}", self.u, self.v)
    }
}

/// Bytes per edge used for the paper's Table II memory estimates
/// (two 8-byte vertex ids).
pub const BYTES_PER_EDGE: usize = std::mem::size_of::<Edge>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_sixteen_bytes() {
        assert_eq!(BYTES_PER_EDGE, 16);
    }

    #[test]
    fn edge_orders_by_start_then_end() {
        let mut edges = vec![Edge::new(2, 0), Edge::new(1, 5), Edge::new(1, 3)];
        edges.sort();
        assert_eq!(
            edges,
            vec![Edge::new(1, 3), Edge::new(1, 5), Edge::new(2, 0)]
        );
    }

    #[test]
    fn edge_display_is_tab_separated() {
        assert_eq!(Edge::new(17, 42).to_string(), "17\t42");
    }

    #[test]
    fn edge_tuple_conversions() {
        let e = Edge::from((3, 9));
        assert_eq!(e.as_tuple(), (3, 9));
        assert!(!e.is_loop());
        assert!(Edge::new(4, 4).is_loop());
        assert_eq!(e.start_key(), 3);
    }
}
