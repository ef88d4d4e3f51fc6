//! Buffered multi-file edge writer.
//!
//! The benchmark spec leaves the number of files as a free parameter. Files
//! hold *contiguous chunks* of the stream (edges `0..M/K` in file 0, and so
//! on), so a stream sorted by kernel 1 remains globally sorted across the
//! file set — the decomposition the paper assumes when it notes that "each
//! processor would hold a set of rows, since this corresponds to how the
//! files have been sorted in kernel 1".
//!
//! One file is one [`ShardWriter`] — the only place edges are encoded,
//! buffered, flushed and fsynced. A file *set* is shard writers plus a
//! manifest: [`EdgeWriter`] rolls from one shard to the next serially,
//! kernel 0's sharded path runs one per worker, and both join the per-file
//! digests with [`EdgeDigest::concat`], so they produce identical sets.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::checksum::EdgeDigest;
use crate::format;
use crate::manifest::{EdgeEncoding, FileEntry, Manifest, SortState};
use crate::{Edge, Error, Result};

/// Encoded bytes gathered before each `write` to the file; large enough
/// that syscall overhead is negligible at every benchmark scale.
const WRITE_BUF_BYTES: usize = 1 << 20;

/// File name of shard `index` of a file set: `basename-NNNNN.<ext>`.
pub fn shard_file_name(basename: &str, index: usize, encoding: EdgeEncoding) -> String {
    format!("{basename}-{index:05}.{}", encoding.extension())
}

fn validate_basename(basename: &str) -> Result<()> {
    if basename.is_empty() || basename.contains(['/', '\\', '\t', '\n']) {
        return Err(Error::InvalidConfig(format!("bad basename {basename:?}")));
    }
    Ok(())
}

/// Fsyncs the directory itself so the directory entries of freshly created
/// files survive power loss (POSIX persists new entries only once the
/// *directory* is synced, independently of the files' own fsyncs).
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    let f = File::open(dir).map_err(|e| Error::io(dir, e))?;
    f.sync_all().map_err(|e| Error::io(dir, e))
}

/// Publishes `manifest` over data files that are already fully written.
/// With `durable`, the directory is fsynced *before* the manifest is saved
/// (so every data file's directory entry is on disk first) and the
/// manifest itself is written durably; the manifest is thus the commit
/// point of the file set.
pub fn publish_manifest(dir: &Path, manifest: &Manifest, durable: bool) -> Result<()> {
    if durable {
        sync_dir(dir)?;
    }
    manifest.save_with(dir, durable)
}

/// Writes exactly one file of an edge file set: the one encoder, write
/// buffer, flush and fsync of the storage layer.
///
/// A `ShardWriter` writes no manifest: it produces its [`FileEntry`] plus
/// the [`EdgeDigest`] of its own slice of the stream, and whoever owns the
/// set joins the digests in file order with [`EdgeDigest::concat`] and
/// commits via [`publish_manifest`] — [`EdgeWriter`] serially, kernel 0's
/// sharded path from one writer per worker. Both therefore produce
/// byte-identical sets.
#[derive(Debug)]
pub struct ShardWriter {
    path: PathBuf,
    name: String,
    file: File,
    /// Encoded edges not yet handed to `file`.
    buf: Vec<u8>,
    digest: EdgeDigest,
    encoding: EdgeEncoding,
    durable: bool,
}

impl ShardWriter {
    /// Creates the writer for shard `index` of the set named `basename` in
    /// `dir`. With `durable`, the file is fsynced on [`ShardWriter::finish`].
    pub fn create(
        dir: &Path,
        basename: &str,
        index: usize,
        encoding: EdgeEncoding,
        durable: bool,
    ) -> Result<Self> {
        validate_basename(basename)?;
        std::fs::create_dir_all(dir).map_err(|e| Error::io(dir, e))?;
        let name = shard_file_name(basename, index, encoding);
        let path = dir.join(&name);
        let file = File::create(&path).map_err(|e| Error::io(&path, e))?;
        Ok(Self {
            path,
            name,
            file,
            buf: Vec::with_capacity(WRITE_BUF_BYTES + format::MAX_LINE_BYTES),
            digest: EdgeDigest::new(),
            encoding,
            durable,
        })
    }

    /// Writes one edge to the shard.
    #[inline]
    pub fn write(&mut self, edge: Edge) -> Result<()> {
        self.write_all(std::slice::from_ref(&edge))
    }

    /// Writes a slice of edges: each is encoded straight into the one
    /// buffer, which goes to the file in [`WRITE_BUF_BYTES`] pieces — what
    /// lets kernel 0 stream at device speed.
    pub fn write_all(&mut self, edges: &[Edge]) -> Result<()> {
        for &e in edges {
            match self.encoding {
                EdgeEncoding::Text => format::encode_line(e, &mut self.buf),
                EdgeEncoding::Binary => {
                    self.buf.extend_from_slice(&e.u.to_le_bytes());
                    self.buf.extend_from_slice(&e.v.to_le_bytes());
                }
            }
            self.digest.update(e);
            if self.buf.len() >= WRITE_BUF_BYTES {
                self.flush_buf()?;
            }
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> Result<()> {
        self.file
            .write_all(&self.buf)
            .map_err(|e| Error::io(&self.path, e))?;
        self.buf.clear();
        Ok(())
    }

    /// Number of edges written to this shard so far.
    pub fn edges_written(&self) -> u64 {
        self.digest.count
    }

    /// Flushes (and fsyncs, when durable) the file; returns its manifest
    /// entry and the digest of the shard's slice of the stream.
    pub fn finish(mut self) -> Result<(FileEntry, EdgeDigest)> {
        self.flush_buf()?;
        if self.durable {
            // Contents must reach non-volatile storage before a manifest
            // can name this file.
            self.file.sync_all().map_err(|e| Error::io(&self.path, e))?;
        }
        Ok((
            FileEntry {
                name: self.name,
                edges: self.digest.count,
            },
            self.digest,
        ))
    }
}

/// Streams edges into `num_files` tab-separated files inside a directory,
/// producing a [`Manifest`] on [`EdgeWriter::finish`]: a roller over
/// [`ShardWriter`] that opens the next file when the current one holds its
/// share, and joins the per-file digests as files close.
///
/// By default the writer is **durable**, honoring the spec's "non-volatile
/// storage" requirement: every data file is fsynced when it is closed, the
/// directory is fsynced before the manifest is published, and the manifest
/// itself is written via fsync + atomic rename. A crash therefore can never
/// leave a manifest naming files whose contents did not reach disk. Callers
/// that don't need the guarantee (tests) opt out with
/// [`EdgeWriter::durable`]`(false)`.
#[derive(Debug)]
pub struct EdgeWriter {
    dir: PathBuf,
    basename: String,
    num_files: usize,
    capacity_per_file: u64,
    /// Closed files and the digest of their concatenated streams.
    files: Vec<FileEntry>,
    digest: EdgeDigest,
    current: Option<ShardWriter>,
    encoding: EdgeEncoding,
    durable: bool,
}

impl EdgeWriter {
    /// Creates a writer that will spread `expected_edges` edges across
    /// `num_files` files named `basename-NNNNN.tsv` in `dir`.
    ///
    /// Writing more than `expected_edges` is allowed (the overflow lands in
    /// the last file); writing fewer simply produces smaller or empty tail
    /// files.
    pub fn create(
        dir: &Path,
        basename: &str,
        num_files: usize,
        expected_edges: u64,
    ) -> Result<Self> {
        Self::create_with_encoding(dir, basename, num_files, expected_edges, EdgeEncoding::Text)
    }

    /// Like [`EdgeWriter::create`] with an explicit on-disk encoding.
    /// [`EdgeEncoding::Binary`] is a non-spec ablation format (see the
    /// `ablation_encoding` bench): 16 bytes per edge, little endian.
    pub fn create_with_encoding(
        dir: &Path,
        basename: &str,
        num_files: usize,
        expected_edges: u64,
        encoding: EdgeEncoding,
    ) -> Result<Self> {
        if num_files == 0 {
            return Err(Error::InvalidConfig("num_files must be at least 1".into()));
        }
        validate_basename(basename)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            basename: basename.to_string(),
            num_files,
            capacity_per_file: expected_edges.div_ceil(num_files as u64).max(1),
            files: Vec::with_capacity(num_files),
            digest: EdgeDigest::new(),
            current: None,
            encoding,
            durable: true,
        })
    }

    /// Toggles durability (default `true`): whether data files are fsynced
    /// on close and the manifest is published with a directory sync. Call
    /// before the first write.
    #[must_use]
    pub fn durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    /// Closes the current file, folding its entry and digest into the set.
    fn close_current(&mut self) -> Result<()> {
        if let Some(shard) = self.current.take() {
            let (entry, digest) = shard.finish()?;
            self.digest = self.digest.concat(&digest);
            self.files.push(entry);
        }
        Ok(())
    }

    /// The file the next edge goes to, and how many edges it still has room
    /// for — unlimited once the last file is reached (overflow lands there).
    fn current_shard(&mut self) -> Result<(&mut ShardWriter, u64)> {
        let capacity = self.capacity_per_file;
        let full = |w: &ShardWriter| w.edges_written() >= capacity;
        if self.files.len() + 1 < self.num_files && self.current.as_ref().is_some_and(full) {
            self.close_current()?;
        }
        let last = self.files.len() + 1 >= self.num_files;
        let shard = match &mut self.current {
            Some(shard) => shard,
            slot => slot.insert(ShardWriter::create(
                &self.dir,
                &self.basename,
                self.files.len(),
                self.encoding,
                self.durable,
            )?),
        };
        let room = if last {
            u64::MAX
        } else {
            capacity - shard.edges_written()
        };
        Ok((shard, room))
    }

    /// Writes one edge.
    #[inline]
    pub fn write(&mut self, edge: Edge) -> Result<()> {
        self.current_shard()?.0.write(edge)
    }

    /// Writes a slice of edges: the same file rolls, bytes and digest as
    /// calling [`EdgeWriter::write`] per edge.
    pub fn write_all(&mut self, edges: &[Edge]) -> Result<()> {
        let mut rest = edges;
        while !rest.is_empty() {
            let (shard, room) = self.current_shard()?;
            let take = (rest.len() as u64).min(room) as usize;
            let (seg, tail) = rest.split_at(take);
            shard.write_all(seg)?;
            rest = tail;
        }
        Ok(())
    }

    /// Flushes everything, pads the file set to `num_files` (empty files) if
    /// fewer edges arrived than expected, writes the manifest, and returns it.
    pub fn finish(
        mut self,
        scale: Option<u32>,
        vertex_bound: Option<u64>,
        sort_state: SortState,
    ) -> Result<Manifest> {
        // Guarantee the promised number of files exists even for short
        // streams: downstream tools may map files to workers.
        loop {
            self.close_current()?;
            if self.files.len() >= self.num_files {
                break;
            }
            self.current_shard()?;
        }
        let manifest = Manifest {
            scale,
            vertex_bound,
            edges: self.digest.count,
            sort_state,
            encoding: self.encoding,
            digest: self.digest,
            files: self.files,
        };
        publish_manifest(&self.dir, &manifest, self.durable)?;
        Ok(manifest)
    }
}

/// Convenience: writes `edges` to `dir` in one call and returns the manifest.
pub fn write_edges(
    dir: &Path,
    basename: &str,
    num_files: usize,
    edges: &[Edge],
    scale: Option<u32>,
    vertex_bound: Option<u64>,
    sort_state: SortState,
) -> Result<Manifest> {
    let mut w = EdgeWriter::create(dir, basename, num_files, edges.len() as u64)?;
    w.write_all(edges)?;
    w.finish(scale, vertex_bound, sort_state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn edges(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i * 2 + 1)).collect()
    }

    #[test]
    fn single_file_contents_match_spec() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let m = write_edges(
            td.path(),
            "edges",
            1,
            &[Edge::new(1, 2), Edge::new(3, 4)],
            None,
            None,
            SortState::Unsorted,
        )
        .unwrap();
        assert_eq!(m.files.len(), 1);
        let text = std::fs::read_to_string(td.join(&m.files[0].name)).unwrap();
        assert_eq!(text, "1\t2\n3\t4\n");
    }

    #[test]
    fn chunks_are_contiguous_across_files() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let es = edges(10);
        let m = write_edges(td.path(), "edges", 3, &es, None, None, SortState::Unsorted).unwrap();
        assert_eq!(m.files.len(), 3);
        // ceil(10/3) = 4 per file: 4, 4, 2
        assert_eq!(
            m.files.iter().map(|f| f.edges).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let first = std::fs::read_to_string(td.join(&m.files[0].name)).unwrap();
        assert!(first.starts_with("0\t1\n1\t3\n"));
    }

    #[test]
    fn overflow_lands_in_last_file() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let mut w = EdgeWriter::create(td.path(), "edges", 2, 4).unwrap();
        w.write_all(&edges(9)).unwrap(); // 5 more than expected
        let m = w.finish(None, None, SortState::Unsorted).unwrap();
        assert_eq!(m.files.len(), 2);
        assert_eq!(m.files[0].edges, 2);
        assert_eq!(m.files[1].edges, 7);
        assert_eq!(m.edges, 9);
    }

    #[test]
    fn short_stream_pads_empty_files() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let mut w = EdgeWriter::create(td.path(), "edges", 4, 100).unwrap();
        w.write_all(&edges(3)).unwrap();
        let m = w.finish(None, None, SortState::Unsorted).unwrap();
        assert_eq!(m.files.len(), 4);
        assert_eq!(m.edges, 3);
        for f in &m.files {
            assert!(td.join(&f.name).is_file(), "{} missing", f.name);
        }
    }

    #[test]
    fn empty_stream_still_produces_files_and_manifest() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let w = EdgeWriter::create(td.path(), "edges", 2, 0).unwrap();
        let m = w.finish(Some(0), Some(1), SortState::ByStart).unwrap();
        assert_eq!(m.edges, 0);
        assert_eq!(m.files.len(), 2);
        let loaded = Manifest::load(td.path()).unwrap();
        assert_eq!(loaded, m);
    }

    #[test]
    fn digest_matches_batch_digest() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let es = edges(50);
        let m = write_edges(td.path(), "edges", 5, &es, None, None, SortState::Unsorted).unwrap();
        assert!(m.digest.same_stream(&EdgeDigest::of_edges(&es)));
    }

    #[test]
    fn rejects_zero_files() {
        let td = TempDir::new("ppbench-writer").unwrap();
        assert!(EdgeWriter::create(td.path(), "edges", 0, 10).is_err());
    }

    #[test]
    fn rejects_path_traversal_basename() {
        let td = TempDir::new("ppbench-writer").unwrap();
        assert!(EdgeWriter::create(td.path(), "../evil", 1, 10).is_err());
        assert!(EdgeWriter::create(td.path(), "", 1, 10).is_err());
    }

    #[test]
    fn binary_encoding_roundtrips() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let es = edges(100);
        let mut w = EdgeWriter::create_with_encoding(
            td.path(),
            "edges",
            3,
            es.len() as u64,
            crate::manifest::EdgeEncoding::Binary,
        )
        .unwrap();
        w.write_all(&es).unwrap();
        let m = w.finish(Some(7), Some(128), SortState::Unsorted).unwrap();
        assert_eq!(m.encoding, crate::manifest::EdgeEncoding::Binary);
        assert!(m.files[0].name.ends_with(".bin"), "{}", m.files[0].name);
        // Exactly 16 bytes per edge on disk.
        let bytes: u64 = m
            .files
            .iter()
            .map(|f| std::fs::metadata(td.join(&f.name)).unwrap().len())
            .sum();
        assert_eq!(bytes, 16 * es.len() as u64);
        let (m2, got) = crate::EdgeReader::read_dir_all(td.path()).unwrap();
        assert_eq!(m2.encoding, crate::manifest::EdgeEncoding::Binary);
        assert_eq!(got, es);
    }

    #[test]
    fn binary_torn_record_detected() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let es = edges(10);
        let mut w = EdgeWriter::create_with_encoding(
            td.path(),
            "edges",
            1,
            es.len() as u64,
            crate::manifest::EdgeEncoding::Binary,
        )
        .unwrap();
        w.write_all(&es).unwrap();
        let m = w.finish(None, None, SortState::Unsorted).unwrap();
        let path = td.join(&m.files[0].name);
        let data = std::fs::read(&path).unwrap();
        // A trailing partial record (not a shortened file, which the
        // byte-bound clamp rejects first) must surface as a torn record.
        let mut torn = data.clone();
        torn.extend_from_slice(&data[..9]);
        std::fs::write(&path, &torn).unwrap();
        let err = crate::EdgeReader::read_dir_all(td.path()).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // And a truncated file is rejected up front by the byte bound.
        std::fs::write(&path, &data[..data.len() - 7]).unwrap();
        let err = crate::EdgeReader::read_dir_all(td.path()).unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
    }

    #[test]
    fn sharded_set_identical_to_serial_writer() {
        // The parallel-kernel-0 contract: per-file shard writers plus
        // digest concat plus publish_manifest reproduce the serial
        // EdgeWriter's output byte for byte, manifest included — short and
        // empty tail shards too.
        let td = TempDir::new("ppbench-writer").unwrap();
        let es = edges(100);
        for num_files in [1usize, 3, 7] {
            let serial_dir = td.join(&format!("serial-{num_files}"));
            let serial = write_edges(
                &serial_dir,
                "edges",
                num_files,
                &es,
                Some(4),
                Some(32),
                SortState::Unsorted,
            )
            .unwrap();
            let dir = td.join(&format!("sharded-{num_files}"));
            let cap = es.len().div_ceil(num_files);
            let mut digest = EdgeDigest::new();
            let mut files = Vec::new();
            for i in 0..num_files {
                let lo = (i * cap).min(es.len());
                let hi = (lo + cap).min(es.len());
                let mut w =
                    ShardWriter::create(&dir, "edges", i, EdgeEncoding::Text, false).unwrap();
                for &e in &es[lo..hi] {
                    w.write(e).unwrap();
                }
                let (entry, d) = w.finish().unwrap();
                digest = digest.concat(&d);
                files.push(entry);
            }
            let manifest = Manifest {
                scale: Some(4),
                vertex_bound: Some(32),
                edges: digest.count,
                sort_state: SortState::Unsorted,
                encoding: EdgeEncoding::Text,
                digest,
                files,
            };
            publish_manifest(&dir, &manifest, false).unwrap();
            assert_eq!(manifest, serial, "{num_files} files");
            for name in serial
                .files
                .iter()
                .map(|f| f.name.as_str())
                .chain([crate::MANIFEST_NAME])
            {
                let a = std::fs::read(serial_dir.join(name)).unwrap();
                let b = std::fs::read(dir.join(name)).unwrap();
                assert_eq!(a, b, "{name} differs at {num_files} files");
            }
        }
    }

    #[test]
    fn bulk_write_all_identical_to_per_edge_writes() {
        // The batched path must reproduce the per-edge path exactly —
        // same file boundaries, bytes, digest and manifest — including
        // roll-over mid-slice and overflow into the last file.
        let td = TempDir::new("ppbench-writer").unwrap();
        for (n, num_files, expected) in
            [(10u64, 3usize, 10u64), (9, 2, 4), (100, 7, 100), (5, 1, 5)]
        {
            let es = edges(n);
            let tag = format!("{n}-{num_files}-{expected}");
            let dir_a = td.join(&format!("a{tag}"));
            let dir_b = td.join(&format!("b{tag}"));
            let mut w = EdgeWriter::create(&dir_a, "edges", num_files, expected)
                .unwrap()
                .durable(false);
            for &e in &es {
                w.write(e).unwrap();
            }
            let per_edge = w.finish(None, None, SortState::Unsorted).unwrap();
            let mut w = EdgeWriter::create(&dir_b, "edges", num_files, expected)
                .unwrap()
                .durable(false);
            w.write_all(&es).unwrap();
            let bulk = w.finish(None, None, SortState::Unsorted).unwrap();
            assert_eq!(per_edge, bulk, "case {tag}");
            for f in &per_edge.files {
                let a = std::fs::read(dir_a.join(&f.name)).unwrap();
                let b = std::fs::read(dir_b.join(&f.name)).unwrap();
                assert_eq!(a, b, "case {tag} file {}", f.name);
            }
        }
    }

    #[test]
    fn shard_bulk_write_all_matches_per_edge() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let es = edges(1000);
        let mut a =
            ShardWriter::create(&td.join("a"), "edges", 0, EdgeEncoding::Text, false).unwrap();
        for &e in &es {
            a.write(e).unwrap();
        }
        let (ea, da) = a.finish().unwrap();
        let mut b =
            ShardWriter::create(&td.join("b"), "edges", 0, EdgeEncoding::Text, false).unwrap();
        b.write_all(&es).unwrap();
        let (eb, db) = b.finish().unwrap();
        assert_eq!(ea, eb);
        assert!(da.same_stream(&db));
        assert_eq!(
            std::fs::read(td.join("a").join(&ea.name)).unwrap(),
            std::fs::read(td.join("b").join(&eb.name)).unwrap()
        );
    }

    #[test]
    fn shard_writer_rejects_bad_basename() {
        let td = TempDir::new("ppbench-writer").unwrap();
        assert!(ShardWriter::create(td.path(), "../x", 0, EdgeEncoding::Text, false).is_err());
    }

    #[test]
    fn durable_writer_output_matches_non_durable() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let es = edges(20);
        let mut w = EdgeWriter::create(&td.join("d"), "edges", 2, 20).unwrap();
        w.write_all(&es).unwrap();
        let durable = w.finish(None, None, SortState::Unsorted).unwrap();
        let mut w = EdgeWriter::create(&td.join("n"), "edges", 2, 20)
            .unwrap()
            .durable(false);
        w.write_all(&es).unwrap();
        let fast = w.finish(None, None, SortState::Unsorted).unwrap();
        assert_eq!(durable, fast);
        assert_eq!(
            std::fs::read_to_string(td.join("d").join(crate::MANIFEST_NAME)).unwrap(),
            std::fs::read_to_string(td.join("n").join(crate::MANIFEST_NAME)).unwrap()
        );
    }

    #[test]
    fn manifest_written_to_disk() {
        let td = TempDir::new("ppbench-writer").unwrap();
        let m = write_edges(
            td.path(),
            "edges",
            2,
            &edges(6),
            Some(3),
            Some(8),
            SortState::Unsorted,
        )
        .unwrap();
        let loaded = Manifest::load(td.path()).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.scale, Some(3));
        assert_eq!(loaded.vertex_bound, Some(8));
    }
}
