//! Buffered multi-file edge reader — and the one place a published file
//! set is checked against its manifest.
//!
//! A manifest is untrusted on-disk input: it may come from a corrupt or
//! hostile directory. [`EdgeReader::open_dir`] is therefore *verified by
//! construction*: it refuses a manifest whose edge count exceeds what the
//! files' bytes could encode (so no caller can size an allocation from a
//! lie), and the stream it returns digests what it yields and ends with an
//! `Err` when the bytes read disagree with the manifest's digest (so no
//! caller can launder a tampered set into plausible output). Every kernel
//! and backend reads file sets through it.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use crate::checksum::EdgeDigest;
use crate::format;
use crate::manifest::{EdgeEncoding, Manifest, MANIFEST_NAME};
use crate::{Edge, Error, Result};

/// Buffer size for file reads.
const READ_BUF_BYTES: usize = 1 << 20;

/// Entry points for reading edge file sets.
pub struct EdgeReader;

impl EdgeReader {
    /// Opens the file set described by `dir/manifest.tsv`, returning the
    /// manifest and a verified streaming iterator over all edges in stream
    /// order.
    ///
    /// # Errors
    ///
    /// A missing or malformed manifest, or one claiming more edges than the
    /// files on disk can hold.
    pub fn open_dir(dir: &Path) -> Result<(Manifest, VerifiedEdges<EdgeFileIter>)> {
        Self::open_dir_with(dir, |m| {
            EdgeFileIter::with_encoding(m.file_paths(dir), m.encoding)
        })
    }

    /// [`EdgeReader::open_dir`] with the caller's own parser over the
    /// manifest's files (the naive backend's line-at-a-time style): the
    /// count bound and the digest verification are the same.
    pub fn open_dir_with<I>(
        dir: &Path,
        parse: impl FnOnce(&Manifest) -> I,
    ) -> Result<(Manifest, VerifiedEdges<I>)>
    where
        I: Iterator<Item = Result<Edge>>,
    {
        let manifest = Manifest::load(dir)?;
        let manifest_path = dir.join(MANIFEST_NAME);
        let disk_cap = manifest.max_edges_on_disk(dir);
        if manifest.edges > disk_cap {
            return Err(Error::manifest(
                manifest_path,
                format!(
                    "manifest claims {} edges but the files on disk can hold \
                     at most {disk_cap}",
                    manifest.edges
                ),
            ));
        }
        let edges = VerifiedEdges {
            inner: parse(&manifest),
            seen: EdgeDigest::new(),
            expect: manifest.digest,
            claimed: manifest.edges,
            manifest_path,
            done: false,
        };
        Ok((manifest, edges))
    }

    /// Opens an explicit list of text-encoded files. There is no manifest,
    /// so nothing is verified: this is for files the caller wrote itself
    /// (scratch spill runs), not for published sets.
    pub fn open_files(paths: Vec<PathBuf>) -> EdgeFileIter {
        EdgeFileIter::with_encoding(paths, EdgeEncoding::Text)
    }

    /// Reads every edge of a manifest-described directory into memory.
    pub fn read_dir_all(dir: &Path) -> Result<(Manifest, Vec<Edge>)> {
        let (manifest, iter) = Self::open_dir(dir)?;
        // `open_dir` bounded the count by the bytes on disk.
        let mut edges = Vec::with_capacity(manifest.edges as usize);
        for e in iter {
            edges.push(e?);
        }
        Ok((manifest, edges))
    }
}

/// An edge stream checked against the manifest it was opened from: items
/// pass through while a running digest is kept, and when the inner stream
/// ends without matching the manifest's digest one final `Err` is yielded.
/// Iteration ends after any `Err`.
#[derive(Debug)]
pub struct VerifiedEdges<I> {
    inner: I,
    seen: EdgeDigest,
    expect: EdgeDigest,
    claimed: u64,
    manifest_path: PathBuf,
    done: bool,
}

impl<I: Iterator<Item = Result<Edge>>> Iterator for VerifiedEdges<I> {
    type Item = Result<Edge>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.inner.next() {
            Some(Ok(e)) => {
                self.seen.update(e);
                Some(Ok(e))
            }
            Some(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            None => {
                self.done = true;
                (!self.seen.same_stream(&self.expect)).then(|| {
                    Err(Error::manifest(
                        &self.manifest_path,
                        format!(
                            "edge stream does not match manifest digest \
                             (read {} edges, manifest says {})",
                            self.seen.count, self.claimed
                        ),
                    ))
                })
            }
        }
    }
}

/// Streaming iterator over the edges of an ordered list of files.
///
/// Yields `Result<Edge>`: I/O and parse errors surface as items, after which
/// iteration ends.
#[derive(Debug)]
pub struct EdgeFileIter {
    paths: std::vec::IntoIter<PathBuf>,
    current: Option<(PathBuf, BufReader<File>, u64)>,
    line_buf: Vec<u8>,
    failed: bool,
    encoding: EdgeEncoding,
}

impl EdgeFileIter {
    fn with_encoding(paths: Vec<PathBuf>, encoding: EdgeEncoding) -> Self {
        Self {
            paths: paths.into_iter(),
            current: None,
            line_buf: Vec::with_capacity(format::MAX_LINE_BYTES),
            failed: false,
            encoding,
        }
    }

    fn advance_file(&mut self) -> Result<bool> {
        match self.paths.next() {
            Some(path) => {
                let file = File::open(&path).map_err(|e| Error::io(&path, e))?;
                self.current = Some((path, BufReader::with_capacity(READ_BUF_BYTES, file), 0));
                Ok(true)
            }
            None => {
                self.current = None;
                Ok(false)
            }
        }
    }

    fn next_edge(&mut self) -> Result<Option<Edge>> {
        if self.encoding == EdgeEncoding::Binary {
            return self.next_edge_binary();
        }
        loop {
            if self.current.is_none() && !self.advance_file()? {
                return Ok(None);
            }
            let Some((path, reader, line_no)) = self.current.as_mut() else {
                continue;
            };
            self.line_buf.clear();
            let n = reader
                .read_until(b'\n', &mut self.line_buf)
                .map_err(|e| Error::io(&*path, e))?;
            if n == 0 {
                // EOF on this file; move to the next.
                self.current = None;
                continue;
            }
            *line_no += 1;
            let mut line: &[u8] = &self.line_buf;
            if line.last() == Some(&b'\n') {
                line = &line[..line.len() - 1];
            }
            if line.is_empty() {
                // Tolerate blank lines (e.g. a final newline written twice).
                continue;
            }
            return match format::decode_line(line) {
                Ok(edge) => Ok(Some(edge)),
                Err(msg) => Err(Error::parse(&*path, *line_no, msg)),
            };
        }
    }
}

impl EdgeFileIter {
    fn next_edge_binary(&mut self) -> Result<Option<Edge>> {
        use std::io::Read;
        loop {
            if self.current.is_none() && !self.advance_file()? {
                return Ok(None);
            }
            let Some((path, reader, record_no)) = self.current.as_mut() else {
                continue;
            };
            let mut rec = [0u8; 16];
            // Distinguish clean EOF from a torn record.
            match reader
                .read(&mut rec[..1])
                .map_err(|e| Error::io(&*path, e))?
            {
                0 => {
                    self.current = None;
                    continue;
                }
                _ => {
                    reader.read_exact(&mut rec[1..]).map_err(|e| {
                        Error::parse(&*path, *record_no + 1, format!("torn 16-byte record: {e}"))
                    })?;
                }
            }
            *record_no += 1;
            #[expect(
                clippy::expect_used,
                reason = "splitting a fixed [u8; 16] at byte 8 always yields 8-byte halves"
            )]
            let u = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            #[expect(
                clippy::expect_used,
                reason = "splitting a fixed [u8; 16] at byte 8 always yields 8-byte halves"
            )]
            let v = u64::from_le_bytes(rec[8..].try_into().expect("8 bytes"));
            return Ok(Some(Edge::new(u, v)));
        }
    }
}

impl Iterator for EdgeFileIter {
    type Item = Result<Edge>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_edge() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::SortState;
    use crate::tempdir::TempDir;
    use crate::writer::write_edges;

    fn edges(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i * 3 % 11, i)).collect()
    }

    #[test]
    fn roundtrip_through_files() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let es = edges(100);
        write_edges(td.path(), "edges", 4, &es, None, None, SortState::Unsorted).unwrap();
        let (m, got) = EdgeReader::read_dir_all(td.path()).unwrap();
        assert_eq!(m.edges, 100);
        assert_eq!(got, es);
    }

    #[test]
    fn roundtrip_empty_set() {
        let td = TempDir::new("ppbench-reader").unwrap();
        write_edges(td.path(), "edges", 3, &[], None, None, SortState::Unsorted).unwrap();
        let (m, got) = EdgeReader::read_dir_all(td.path()).unwrap();
        assert_eq!(m.edges, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn streaming_iterator_matches_read_all() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let es = edges(37);
        write_edges(td.path(), "edges", 2, &es, None, None, SortState::Unsorted).unwrap();
        let (_, iter) = EdgeReader::open_dir(td.path()).unwrap();
        let got: Vec<Edge> = iter.map(|r| r.unwrap()).collect();
        assert_eq!(got, es);
    }

    #[test]
    fn parse_error_reports_file_and_line() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let path = td.join("bad.tsv");
        std::fs::write(&path, "1\t2\n3\toops\n5\t6\n").unwrap();
        let mut iter = EdgeReader::open_files(vec![path.clone()]);
        assert_eq!(iter.next().unwrap().unwrap(), Edge::new(1, 2));
        let err = iter.next().unwrap().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad.tsv"), "{msg}");
        assert!(msg.contains(":2"), "{msg}");
        // Iteration ends after an error.
        assert!(iter.next().is_none());
    }

    #[test]
    fn missing_file_is_an_error_item() {
        let mut iter = EdgeReader::open_files(vec![PathBuf::from("/definitely/not/here.tsv")]);
        assert!(iter.next().unwrap().is_err());
        assert!(iter.next().is_none());
    }

    #[test]
    fn tampered_file_fails_digest_check() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let es = edges(10);
        let m = write_edges(td.path(), "edges", 1, &es, None, None, SortState::Unsorted).unwrap();
        // Append an extra edge behind the manifest's back.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(td.join(&m.files[0].name))
            .unwrap();
        writeln!(f, "7\t7").unwrap();
        drop(f);
        let err = EdgeReader::read_dir_all(td.path()).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
        // The stream itself is the verifier: all 11 edges, then one `Err`.
        let (_, iter) = EdgeReader::open_dir(td.path()).unwrap();
        let items: Vec<Result<Edge>> = iter.collect();
        assert_eq!(items.len(), 12);
        assert!(items[..11].iter().all(|r| r.is_ok()));
        let msg = items[11].as_ref().unwrap_err().to_string();
        assert!(msg.contains("read 11 edges, manifest says 10"), "{msg}");
    }

    #[test]
    fn forged_edge_count_rejected_at_open() {
        // Internally consistent forgery: only the bytes on disk can tell.
        let td = TempDir::new("ppbench-reader").unwrap();
        let mut m = write_edges(
            td.path(),
            "edges",
            1,
            &edges(10),
            None,
            None,
            SortState::Unsorted,
        )
        .unwrap();
        m.edges = u64::MAX;
        m.digest.count = u64::MAX;
        m.files[0].edges = u64::MAX;
        m.save(td.path()).unwrap();
        let err = EdgeReader::open_dir(td.path()).unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
    }

    #[test]
    fn custom_parser_gets_the_same_verification() {
        let td = TempDir::new("ppbench-reader").unwrap();
        write_edges(
            td.path(),
            "edges",
            2,
            &edges(10),
            None,
            None,
            SortState::Unsorted,
        )
        .unwrap();
        let short = edges(9).into_iter().map(Ok);
        let (_, iter) = EdgeReader::open_dir_with(td.path(), |_| short).unwrap();
        let err = iter.collect::<Result<Vec<Edge>>>().unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let path = td.join("padded.tsv");
        std::fs::write(&path, "1\t2\n\n3\t4\n").unwrap();
        let got: Vec<Edge> = EdgeReader::open_files(vec![path])
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, vec![Edge::new(1, 2), Edge::new(3, 4)]);
    }

    #[test]
    fn file_without_trailing_newline_reads_fully() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let path = td.join("trunc.tsv");
        std::fs::write(&path, "1\t2\n3\t4").unwrap();
        let got: Vec<Edge> = EdgeReader::open_files(vec![path])
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, vec![Edge::new(1, 2), Edge::new(3, 4)]);
    }
}
