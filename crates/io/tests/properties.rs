//! Property-based tests for the edge-file storage layer.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_io::{checksum::EdgeDigest, format, tempdir::TempDir, Edge, EdgeReader, SortState};
use proptest::prelude::*;

fn arb_edge() -> impl Strategy<Value = Edge> {
    (any::<u64>(), any::<u64>()).prop_map(|(u, v)| Edge::new(u, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for every edge.
    #[test]
    fn line_roundtrip(e in arb_edge()) {
        let mut buf = Vec::new();
        format::encode_line(e, &mut buf);
        prop_assert_eq!(buf.last(), Some(&b'\n'));
        let decoded = format::decode_line(&buf[..buf.len() - 1]).unwrap();
        prop_assert_eq!(decoded, e);
    }

    /// Write → read through actual files is the identity for any edge list
    /// and any file-count choice.
    #[test]
    fn file_roundtrip(
        edges in proptest::collection::vec(arb_edge(), 0..500),
        num_files in 1usize..8,
    ) {
        let td = TempDir::new("ppbench-io-prop").unwrap();
        ppbench_io::write_edges(
            td.path(), "edges", num_files, &edges, None, None, SortState::Unsorted,
        ).unwrap();
        let (manifest, got) = EdgeReader::read_dir_all(td.path()).unwrap();
        prop_assert_eq!(&got, &edges);
        prop_assert_eq!(manifest.edges, edges.len() as u64);
        prop_assert_eq!(manifest.files.len(), num_files);
        // Per-file counts must account for every edge.
        let total: u64 = manifest.files.iter().map(|f| f.edges).sum();
        prop_assert_eq!(total, edges.len() as u64);
    }

    /// The multiset digest is invariant under permutation, and the chain
    /// digest detects any reordering of distinct adjacent edges.
    #[test]
    fn digest_permutation_invariance(
        mut edges in proptest::collection::vec(arb_edge(), 2..100),
        seed: u64,
    ) {
        let original = EdgeDigest::of_edges(&edges);
        // Deterministic shuffle via sort-by-hash.
        edges.sort_by_key(|e| ppbench_io::checksum::edge_hash(*e) ^ seed.rotate_left(13));
        let shuffled = EdgeDigest::of_edges(&edges);
        prop_assert!(original.same_multiset(&shuffled));
    }

    /// parse_u64 agrees with str::parse on arbitrary numeric strings.
    #[test]
    fn atoi_agrees_with_std(v: u64) {
        let s = v.to_string();
        prop_assert_eq!(ppbench_io::atoi::parse_u64(s.as_bytes()), Some(v));
        let mut buf = [0u8; ppbench_io::atoi::MAX_DIGITS];
        let len = ppbench_io::atoi::format_u64(v, &mut buf);
        prop_assert_eq!(std::str::from_utf8(&buf[..len]).unwrap(), s.as_str());
    }

    /// Binary and text encodings round-trip identically for the same edge
    /// list, and the binary files are exactly 16 bytes/edge.
    #[test]
    fn encodings_agree(
        edges in proptest::collection::vec(arb_edge(), 0..200),
        num_files in 1usize..5,
    ) {
        use ppbench_io::{EdgeEncoding, EdgeWriter};
        let td_text = TempDir::new("ppbench-enc-t").unwrap();
        let td_bin = TempDir::new("ppbench-enc-b").unwrap();
        for (dir, enc) in [(&td_text, EdgeEncoding::Text), (&td_bin, EdgeEncoding::Binary)] {
            let mut w = EdgeWriter::create_with_encoding(
                dir.path(), "edges", num_files, edges.len() as u64, enc,
            ).unwrap();
            w.write_all(&edges).unwrap();
            w.finish(None, None, SortState::Unsorted).unwrap();
        }
        let (_, from_text) = EdgeReader::read_dir_all(td_text.path()).unwrap();
        let (mb, from_bin) = EdgeReader::read_dir_all(td_bin.path()).unwrap();
        prop_assert_eq!(&from_text, &edges);
        prop_assert_eq!(&from_bin, &edges);
        let bin_bytes: u64 = mb.files.iter()
            .map(|f| std::fs::metadata(td_bin.join(&f.name)).unwrap().len())
            .sum();
        prop_assert_eq!(bin_bytes, 16 * edges.len() as u64);
    }

    /// decode_line never panics on arbitrary bytes.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = format::decode_line(&bytes);
    }
}
