//! Kernel 1 — Sort: shared machinery.
//!
//! "Kernel 1 reads in the files generated in kernel 0, sorts the edges by
//! start vertex and writes the sorted edges to files on non-volatile
//! storage using the same format." There is one sort: the verified input
//! stream is routed into the run engine's [`RunWriter`]s and sealed
//! (`seal_runs`), and the sealed [`RunSet`]s stream back in sorted order.
//! The in-memory/out-of-core decision the paper discusses is a budget, not
//! a second algorithm: when a memory budget is configured and the input's
//! in-memory footprint (16 bytes per edge) exceeds it, the writers spill
//! sorted runs; otherwise nothing spills and each set is one in-memory run.
//! Staged kernel 1 ([`sort_file_set`]) and the fused path
//! ([`crate::fused::kernel12`]) differ only in how many buckets the stream
//! is routed into and where the sorted stream goes.
//!
//! The input is read through [`EdgeReader::open_dir`], which bounds the
//! untrusted manifest's edge count by the bytes on disk and digest-verifies
//! the stream; the whole input is consumed — and so verified — before any
//! output is written, so bad input is never laundered into a
//! plausible-looking sorted file set. Both callers run inside
//! [`in_scratch`], so the spilled runs are removed whether the pass
//! succeeds or fails.
//!
//! [`RunWriter`]: ppbench_sort::RunWriter

use std::path::Path;

use ppbench_io::{Edge, EdgeReader, EdgeWriter, Manifest, BYTES_PER_EDGE};
use ppbench_sort::{ExternalSorter, RunSet, SortKey};

use crate::error::Result;

/// The verified input of a kernel-1 pass, routed into sorted runs.
#[derive(Debug)]
pub(crate) struct SealedRuns {
    /// The input's manifest.
    pub(crate) manifest: Manifest,
    /// One sealed run set per bucket, in bucket order.
    pub(crate) sets: Vec<RunSet>,
    /// Whether the input exceeded the budget (the run writers may have
    /// spilled).
    pub(crate) out_of_core: bool,
}

/// Streams the file set at `in_dir` once, handing each edge to the run
/// writer of bucket `route(edge)` (which must be below `buckets`; each
/// bucket spills `key`-sorted runs under `scratch`), and seals every bucket.
///
/// `budget_bytes` is the maximum bytes of edges held in memory (at
/// [`BYTES_PER_EDGE`] per edge, shared evenly between the buckets); `None`
/// means unbounded. An input within the budget never spills.
pub(crate) fn seal_runs(
    in_dir: &Path,
    scratch: &Path,
    key: SortKey,
    buckets: usize,
    budget_bytes: Option<u64>,
    route: impl Fn(Edge) -> Result<usize>,
) -> Result<SealedRuns> {
    let (manifest, edges) = EdgeReader::open_dir(in_dir)?;
    let in_bytes = manifest.edges.saturating_mul(BYTES_PER_EDGE as u64);
    // `Some` only when the input exceeds the in-memory budget.
    let spill_budget = budget_bytes.filter(|&b| in_bytes > b);
    let budget_edges = spill_budget.map_or(usize::MAX, |bytes| {
        usize::try_from(bytes / BYTES_PER_EDGE as u64 / buckets as u64)
            .unwrap_or(usize::MAX)
            .max(1)
    });
    // An even share per bucket; `open_dir` bounded the count by the bytes
    // on disk, so this cannot be driven by a forged manifest.
    let expected = manifest.edges.div_ceil(buckets as u64) as usize;
    let mut writers = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let dir = scratch.join(format!("bucket-{b:03}"));
        writers.push(ExternalSorter::new(&dir, budget_edges, key)?.run_writer_for(expected));
    }
    for edge in edges {
        let e = edge?;
        writers[route(e)?].push(e)?;
    }
    let mut sets = Vec::with_capacity(buckets);
    for w in writers {
        sets.push(w.finish()?);
    }
    Ok(SealedRuns {
        manifest,
        sets,
        out_of_core: spill_budget.is_some(),
    })
}

/// Runs `pass` — which spills through [`seal_runs`] into `scratch` and
/// drains the sealed sets — then removes `scratch` whether `pass` succeeded
/// or not: a rejected input (the digest verdict arrives after everything
/// has been spilled) must leave no runs behind. A scratch directory that
/// cannot be removed is an error of its own.
pub(crate) fn in_scratch<T>(scratch: &Path, pass: impl FnOnce(&Path) -> Result<T>) -> Result<T> {
    let out = pass(scratch);
    if scratch.exists() {
        std::fs::remove_dir_all(scratch).map_err(|e| ppbench_io::Error::io(scratch, e))?;
    }
    out
}

/// Sorts the edge file set at `in_dir` into a new file set at `out_dir`;
/// `budget_bytes` as in the module docs. Returns the output manifest.
pub fn sort_file_set(
    in_dir: &Path,
    out_dir: &Path,
    num_files: usize,
    key: SortKey,
    budget_bytes: Option<u64>,
) -> Result<Manifest> {
    let (input, writer) = in_scratch(&out_dir.join("sort-scratch"), |scratch| {
        write_sorted(in_dir, out_dir, scratch, num_files, key, budget_bytes)
    })?;
    Ok(writer.finish(input.scale, input.vertex_bound, key.sort_state())?)
}

/// [`sort_file_set`] up to, not including, the manifest: returns the
/// input's manifest and the writer holding the sorted, unpublished files.
fn write_sorted(
    in_dir: &Path,
    out_dir: &Path,
    scratch: &Path,
    num_files: usize,
    key: SortKey,
    budget_bytes: Option<u64>,
) -> Result<(Manifest, EdgeWriter)> {
    let runs = seal_runs(in_dir, scratch, key, 1, budget_bytes, |_| Ok(0))?;
    let mut writer = EdgeWriter::create(out_dir, "edges", num_files, runs.manifest.edges)?;
    for set in runs.sets {
        set.for_each_batch(|edges| writer.write_all(edges))?;
    }
    Ok((runs.manifest, writer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_io::tempdir::TempDir;
    use ppbench_io::{Edge, SortState};

    fn write_input(dir: &Path, edges: &[Edge]) {
        ppbench_io::write_edges(
            dir,
            "edges",
            2,
            edges,
            Some(4),
            Some(16),
            SortState::Unsorted,
        )
        .unwrap();
    }

    fn scrambled(n: u64) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new((i * 7 + 3) % 16, (i * 5) % 16))
            .collect()
    }

    #[test]
    fn in_memory_path_sorts_and_preserves_multiset() {
        let td = TempDir::new("ppbench-k1").unwrap();
        let edges = scrambled(500);
        write_input(&td.join("in"), &edges);
        let m = sort_file_set(&td.join("in"), &td.join("out"), 3, SortKey::Start, None).unwrap();
        assert_eq!(m.edges, 500);
        assert_eq!(m.files.len(), 3);
        assert!(m.sort_state.is_sorted_by_start());
        let (_, got) = EdgeReader::read_dir_all(&td.join("out")).unwrap();
        assert!(got.windows(2).all(|w| w[0].u <= w[1].u));
        // The input digest's multiset component must be preserved.
        let in_manifest = Manifest::load(&td.join("in")).unwrap();
        assert!(m.digest.same_multiset(&in_manifest.digest));
    }

    #[test]
    fn budget_is_in_bytes_not_edges() {
        // 100 edges = 1600 bytes. A 1599-byte budget must spill; a
        // 1600-byte budget must not (footprint == budget is within it).
        let td = TempDir::new("ppbench-k1").unwrap();
        let edges = scrambled(100);
        write_input(&td.join("in"), &edges);
        sort_file_set(
            &td.join("in"),
            &td.join("tight"),
            1,
            SortKey::Start,
            Some(1599),
        )
        .unwrap();
        sort_file_set(
            &td.join("in"),
            &td.join("exact"),
            1,
            SortKey::Start,
            Some(1600),
        )
        .unwrap();
        let (_, a) = EdgeReader::read_dir_all(&td.join("tight")).unwrap();
        let (_, b) = EdgeReader::read_dir_all(&td.join("exact")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn start_end_key_orders_ends_within_start() {
        let td = TempDir::new("ppbench-k1").unwrap();
        write_input(&td.join("in"), &scrambled(200));
        sort_file_set(&td.join("in"), &td.join("out"), 1, SortKey::StartEnd, None).unwrap();
        let (m, got) = EdgeReader::read_dir_all(&td.join("out")).unwrap();
        assert_eq!(m.sort_state, SortState::ByStartEnd);
        assert!(got.windows(2).all(|w| (w[0].u, w[0].v) <= (w[1].u, w[1].v)));
    }

    #[test]
    fn missing_input_is_an_error() {
        let td = TempDir::new("ppbench-k1").unwrap();
        let r = sort_file_set(
            &td.join("nothing"),
            &td.join("out"),
            1,
            SortKey::Start,
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn hostile_manifest_edge_count_rejected_before_allocating() {
        // A manifest claiming u64::MAX edges must not drive an allocation:
        // the reader bounds it by the bytes on disk.
        let td = TempDir::new("ppbench-k1").unwrap();
        write_input(&td.join("in"), &scrambled(10));
        // Forge an internally consistent manifest (per-file sums and digest
        // count agree with the claimed total) so only the bytes-on-disk
        // bound can catch it.
        let mut m = Manifest::load(&td.join("in")).unwrap();
        m.edges = u64::MAX;
        m.digest.count = u64::MAX;
        m.files[0].edges = u64::MAX - m.files[1].edges;
        m.save(&td.join("in")).unwrap();
        for budget in [None, Some(64)] {
            let err = sort_file_set(&td.join("in"), &td.join("out"), 1, SortKey::Start, budget)
                .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("at most"), "{msg}");
        }
    }
}
