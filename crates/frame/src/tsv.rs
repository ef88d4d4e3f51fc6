//! Glue between frames and the benchmark's edge files.
//!
//! The dataframe backend reads kernel files with `read_edge_tsv` (the
//! columnar analogue of `pandas.read_csv(sep='\t')`) and writes them back
//! with `write_edge_tsv`.

use std::path::Path;

use ppbench_io::{Edge, EdgeReader, EdgeWriter, Result as IoResult, SortState};

use crate::{Frame, Series};

/// Column name for start vertices.
pub(crate) const COL_U: &str = "u";
/// Column name for end vertices.
pub(crate) const COL_V: &str = "v";

/// Builds a two-column ("u", "v") frame from an edge slice.
#[expect(
    clippy::expect_used,
    reason = "the two columns are built right here with equal lengths and distinct names, so Frame::new cannot fail"
)]
pub fn frame_from_edges(edges: &[Edge]) -> Frame {
    let u: Vec<u64> = edges.iter().map(|e| e.u).collect();
    let v: Vec<u64> = edges.iter().map(|e| e.v).collect();
    Frame::new(vec![
        (COL_U.to_string(), Series::U64(u)),
        (COL_V.to_string(), Series::U64(v)),
    ])
    .expect("two equal-length fresh columns")
}

/// Extracts the ("u", "v") columns of a frame as edges.
///
/// # Errors
///
/// Errors (as [`crate::FrameError`]) if the columns are missing or mistyped.
pub fn frame_to_edges(frame: &Frame) -> crate::Result<Vec<Edge>> {
    let u = frame.column(COL_U)?.as_u64()?;
    let v = frame.column(COL_V)?.as_u64()?;
    Ok(u.iter().zip(v).map(|(&a, &b)| Edge::new(a, b)).collect())
}

/// Reads a *plain* TSV edge list — one `u<TAB>v` pair per line, no
/// manifest — into a ("u", "v") frame, so real-world graphs can feed the
/// pipeline in place of the kernel-0 generator.
///
/// Blank lines and lines starting with `#` (the conventional SNAP /
/// edge-list comment marker) are skipped. Vertex ids go through the same
/// bounds-checked [`ppbench_io::atoi`] path the kernel files use: bare
/// ASCII digits, overflow rejected. A trailing `\r` (CRLF files) is
/// tolerated.
///
/// # Errors
///
/// I/O errors, or [`ppbench_io::Error::Parse`] with 1-based line context
/// for any malformed line.
#[expect(
    clippy::expect_used,
    reason = "the two columns are built right here with equal lengths and distinct names, so Frame::new cannot fail"
)]
pub fn read_plain_tsv(path: &Path) -> IoResult<Frame> {
    let bytes = std::fs::read(path).map_err(|e| ppbench_io::Error::io(path.to_path_buf(), e))?;
    let mut u = Vec::new();
    let mut v = Vec::new();
    for (idx, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line = raw.strip_suffix(b"\r").unwrap_or(raw);
        if line.is_empty() || line[0] == b'#' {
            continue;
        }
        let bad = |msg: &str| ppbench_io::Error::parse(path.to_path_buf(), idx as u64 + 1, msg);
        let (a, used) =
            ppbench_io::atoi::parse_u64_prefix(line).ok_or_else(|| bad("expected start vertex"))?;
        let rest = &line[used..];
        let rest = rest
            .strip_prefix(b"\t")
            .ok_or_else(|| bad("expected tab after start vertex"))?;
        let b = ppbench_io::atoi::parse_u64(rest)
            .ok_or_else(|| bad("expected end vertex after tab"))?;
        u.push(a);
        v.push(b);
    }
    Ok(Frame::new(vec![
        (COL_U.to_string(), Series::U64(u)),
        (COL_V.to_string(), Series::U64(v)),
    ])
    .expect("two equal-length fresh columns"))
}

/// Reads a manifest-described edge directory into a ("u", "v") frame.
#[expect(
    clippy::expect_used,
    reason = "the two columns are built right here with equal lengths and distinct names, so Frame::new cannot fail"
)]
pub fn read_edge_tsv(dir: &Path) -> IoResult<Frame> {
    let (manifest, iter) = EdgeReader::open_dir(dir)?;
    let cap = manifest.edges as usize;
    let mut u = Vec::with_capacity(cap);
    let mut v = Vec::with_capacity(cap);
    for e in iter {
        let e = e?;
        u.push(e.u);
        v.push(e.v);
    }
    Ok(Frame::new(vec![
        (COL_U.to_string(), Series::U64(u)),
        (COL_V.to_string(), Series::U64(v)),
    ])
    .expect("two equal-length fresh columns"))
}

/// Writes the ("u", "v") columns of a frame as an edge directory.
///
/// # Panics
///
/// Panics if the frame lacks well-typed "u"/"v" columns (a programming
/// error in the caller, not a data error).
pub fn write_edge_tsv(
    frame: &Frame,
    dir: &Path,
    num_files: usize,
    scale: Option<u32>,
    vertex_bound: Option<u64>,
    sort_state: SortState,
) -> IoResult<ppbench_io::Manifest> {
    #[expect(
        clippy::expect_used,
        reason = "documented contract: callers must pass an edge frame; a missing column is a programming error, per the fn docs"
    )]
    let u = frame
        .column(COL_U)
        .and_then(|s| s.as_u64())
        .expect("frame has u64 'u' column");
    #[expect(
        clippy::expect_used,
        reason = "documented contract: callers must pass an edge frame; a missing column is a programming error, per the fn docs"
    )]
    let v = frame
        .column(COL_V)
        .and_then(|s| s.as_u64())
        .expect("frame has u64 'v' column");
    let mut w = EdgeWriter::create(dir, "edges", num_files, frame.rows() as u64)?;
    for (&a, &b) in u.iter().zip(v) {
        w.write(Edge::new(a, b))?;
    }
    w.finish(scale, vertex_bound, sort_state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_io::tempdir::TempDir;

    fn edges() -> Vec<Edge> {
        vec![Edge::new(3, 1), Edge::new(0, 2), Edge::new(3, 3)]
    }

    #[test]
    fn edges_frame_roundtrip() {
        let es = edges();
        let f = frame_from_edges(&es);
        assert_eq!(f.rows(), 3);
        assert_eq!(frame_to_edges(&f).unwrap(), es);
    }

    #[test]
    fn tsv_roundtrip_through_disk() {
        let td = TempDir::new("ppbench-frame").unwrap();
        let f = frame_from_edges(&edges());
        write_edge_tsv(&f, td.path(), 2, Some(2), Some(4), SortState::Unsorted).unwrap();
        let back = read_edge_tsv(td.path()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn frame_to_edges_needs_columns() {
        let f = Frame::new(vec![("x".into(), Series::U64(vec![1]))]).unwrap();
        assert!(frame_to_edges(&f).is_err());
    }

    #[test]
    fn plain_tsv_reads_edges_skipping_comments_and_blanks() {
        let td = TempDir::new("ppbench-frame").unwrap();
        let path = td.join("graph.tsv");
        std::fs::write(
            &path,
            "# SNAP-style header\n3\t1\n\n0\t2\r\n3\t3\n# trailing comment\n",
        )
        .unwrap();
        let f = read_plain_tsv(&path).unwrap();
        assert_eq!(frame_to_edges(&f).unwrap(), edges());
    }

    #[test]
    fn plain_tsv_rejects_malformed_lines_with_context() {
        let td = TempDir::new("ppbench-frame").unwrap();
        let cases = [
            ("1 2\n", "space instead of tab"),
            ("1\t-2\n", "negative vertex"),
            ("1\t2\t3\n", "extra column"),
            ("x\t2\n", "non-numeric"),
            ("1\t2\n18446744073709551616\t0\n", "overflow"),
        ];
        for (body, what) in cases {
            let path = td.join("bad.tsv");
            std::fs::write(&path, body).unwrap();
            let err = read_plain_tsv(&path).unwrap_err();
            assert!(
                matches!(err, ppbench_io::Error::Parse { .. }),
                "{what}: {err}"
            );
        }
        assert!(read_plain_tsv(&td.join("missing.tsv")).is_err());
    }

    #[test]
    fn columnar_sort_then_write_is_sorted_on_disk() {
        let td = TempDir::new("ppbench-frame").unwrap();
        let f = frame_from_edges(&edges()).sort_by(&["u"]).unwrap();
        write_edge_tsv(&f, td.path(), 1, None, None, SortState::ByStart).unwrap();
        let (manifest, got) = EdgeReader::read_dir_all(td.path()).unwrap();
        assert!(manifest.sort_state.is_sorted_by_start());
        assert!(got.windows(2).all(|w| w[0].u <= w[1].u));
    }
}
