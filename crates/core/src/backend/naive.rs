//! The line-at-a-time backend — the comparison's "plain Python".
//!
//! Deliberately written the way a straightforward scripting-language
//! implementation works: every edge formatted with `format!` (allocating a
//! `String` per line), parsed with `str::split` + `str::parse`, sorted with
//! the standard library's stable sort (CPython's sort is stable timsort),
//! the matrix assembled through a `BTreeMap` (a dict keyed by `(u, v)`),
//! and the SpMV expressed as a loop over a triplet list. The *math* is
//! identical to the optimized backend — the triplet loop visits entries in
//! the same row-major order, so even the floating-point results agree bit
//! for bit. Only the constant factors differ, which is precisely what the
//! paper's Figures 4–7 measure.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use ppbench_gen::EdgeGenerator;
use ppbench_io::checksum::EdgeDigest;
use ppbench_io::{Edge, EdgeReader, Error as IoError, Manifest, SortState};
use ppbench_sparse::{Coo, Csr};

use crate::backend::{require_sorted, Backend, Kernel2Output};
use crate::config::PipelineConfig;
use crate::error::Result;
use crate::{kernel0, kernel2, kernel3};

/// Interpreter-style implementation of the four kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBackend;

/// Writes edges the scripting way — one `format!`-ed line at a time — while
/// still producing the shared manifest so other backends can consume the
/// output.
fn write_naively(
    dir: &Path,
    edges: &[Edge],
    num_files: usize,
    scale: Option<u32>,
    vertex_bound: Option<u64>,
    sort_state: SortState,
) -> Result<Manifest> {
    std::fs::create_dir_all(dir).map_err(|e| IoError::io(dir, e))?;
    let per_file = (edges.len() as u64).div_ceil(num_files as u64).max(1);
    let mut digest = EdgeDigest::new();
    let mut files = Vec::with_capacity(num_files);
    for i in 0..num_files {
        let name = format!("edges-{i:05}.tsv");
        let path = dir.join(&name);
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| IoError::io(&path, e))?,
        );
        let lo = (i as u64 * per_file).min(edges.len() as u64) as usize;
        let hi = ((i as u64 + 1) * per_file).min(edges.len() as u64) as usize;
        for &e in &edges[lo..hi] {
            let line = format!("{}\t{}\n", e.u, e.v); // the allocating way
            f.write_all(line.as_bytes())
                .map_err(|err| IoError::io(&path, err))?;
            digest.update(e);
        }
        f.flush().map_err(|err| IoError::io(&path, err))?;
        files.push(ppbench_io::FileEntry {
            name,
            edges: (hi - lo) as u64,
        });
    }
    let manifest = Manifest {
        scale,
        vertex_bound,
        edges: edges.len() as u64,
        sort_state,
        encoding: ppbench_io::EdgeEncoding::Text,
        digest,
        files,
    };
    manifest.save(dir)?;
    Ok(manifest)
}

/// Parses one edge file the scripting way: line strings, `split`, `parse`.
fn naive_lines(path: PathBuf) -> Box<dyn Iterator<Item = ppbench_io::Result<Edge>>> {
    let file = match std::fs::File::open(&path) {
        Ok(file) => file,
        Err(e) => return Box::new(std::iter::once(Err(IoError::io(&path, e)))),
    };
    let lines = BufReader::new(file).lines().enumerate();
    Box::new(lines.filter_map(move |(lineno, line)| {
        let bad = |msg: &str| IoError::parse(&path, lineno as u64 + 1, msg);
        let line = match line {
            Ok(line) if line.is_empty() => return None,
            Ok(line) => line,
            Err(e) => return Some(Err(IoError::io(&path, e))),
        };
        let mut parts = line.split('\t');
        let mut vertex = || parts.next().and_then(|t| t.parse::<u64>().ok());
        let (Some(u), Some(v)) = (vertex(), vertex()) else {
            return Some(Err(bad("bad edge line")));
        };
        if parts.next().is_some() {
            return Some(Err(bad("trailing fields")));
        }
        Some(Ok(Edge::new(u, v)))
    }))
}

/// Reads every edge of a file set with [`naive_lines`] as the parser, under
/// the shared reader's count bound and digest verification.
fn read_naively(dir: &Path) -> Result<(Manifest, Vec<Edge>)> {
    let (manifest, lines) =
        EdgeReader::open_dir_with(dir, |m| m.file_paths(dir).into_iter().flat_map(naive_lines))?;
    let mut edges = Vec::with_capacity(manifest.edges as usize);
    for edge in lines {
        edges.push(edge?);
    }
    Ok((manifest, edges))
}

impl Backend for NaiveBackend {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn kernel0(&self, cfg: &PipelineConfig, dir: &Path) -> Result<Manifest> {
        let generator = kernel0::build_generator(cfg);
        let edges = generator.edges();
        write_naively(
            dir,
            &edges,
            cfg.num_files,
            Some(cfg.spec.scale()),
            Some(cfg.spec.num_vertices()),
            SortState::Unsorted,
        )
    }

    fn kernel1(&self, cfg: &PipelineConfig, in_dir: &Path, out_dir: &Path) -> Result<Manifest> {
        let (manifest, mut edges) = read_naively(in_dir)?;
        match cfg.sort_key {
            ppbench_sort::SortKey::Start => edges.sort_by_key(|e| e.u),
            ppbench_sort::SortKey::StartEnd => edges.sort_by_key(|e| (e.u, e.v)),
        }
        write_naively(
            out_dir,
            &edges,
            cfg.num_files,
            manifest.scale,
            manifest.vertex_bound,
            cfg.sort_key.sort_state(),
        )
    }

    fn kernel2(&self, cfg: &PipelineConfig, in_dir: &Path) -> Result<Kernel2Output> {
        let (manifest, edges) = read_naively(in_dir)?;
        require_sorted(&manifest, in_dir)?;
        // The dict-of-counts assembly.
        let mut counts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for e in &edges {
            *counts.entry((e.u, e.v)).or_insert(0) += 1;
        }
        let n = cfg.spec.num_vertices();
        let mut coo = Coo::with_capacity(n, n, counts.len());
        for (&(u, v), &c) in &counts {
            coo.push(u, v, c);
        }
        let (matrix, stats) = kernel2::filter(coo.compress(), cfg.add_diagonal_to_empty);
        Ok(Kernel2Output { matrix, stats })
    }

    fn kernel3(&self, cfg: &PipelineConfig, matrix: &Csr<f64>) -> Result<kernel3::PageRankRun> {
        // The scripting-style SpMV: a plain loop over a triplet list.
        // Entries are visited in the same row-major order the optimized
        // scatter uses, so results agree bit for bit.
        let triplets: Vec<(u64, u64, f64)> = matrix.iter().collect();
        let n = cfg.spec.num_vertices() as usize;
        let multiply = |r: &[f64]| {
            let mut out = vec![0.0; n];
            for &(u, v, w) in &triplets {
                out[v as usize] += r[u as usize] * w;
            }
            out
        };
        let dangling = kernel3::DanglingInfo::from_mask(&ppbench_sparse::ops::empty_rows(matrix));
        Ok(kernel3::run_into(
            kernel3::init_ranks(cfg.spec.num_vertices(), cfg.seed),
            kernel3::serial_stepper(multiply),
            &dangling,
            &cfg.pagerank_options(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::OptimizedBackend;
    use ppbench_io::tempdir::TempDir;

    fn cfg(scale: u32) -> PipelineConfig {
        PipelineConfig::builder()
            .scale(scale)
            .edge_factor(8)
            .seed(3)
            .num_files(2)
            .build()
    }

    #[test]
    fn naive_files_readable_by_fast_reader() {
        let td = TempDir::new("ppbench-naive").unwrap();
        let cfg = cfg(5);
        let m = NaiveBackend.kernel0(&cfg, td.path()).unwrap();
        let (m2, edges) = EdgeReader::read_dir_all(td.path()).unwrap();
        assert_eq!(m2.digest, m.digest);
        assert_eq!(edges.len() as u64, cfg.spec.num_edges());
    }

    #[test]
    fn naive_kernel0_matches_optimized_stream() {
        // Same config ⇒ identical edge stream regardless of backend.
        let td = TempDir::new("ppbench-naive").unwrap();
        let cfg = cfg(5);
        let m_naive = NaiveBackend.kernel0(&cfg, &td.join("naive")).unwrap();
        let m_opt = OptimizedBackend.kernel0(&cfg, &td.join("opt")).unwrap();
        assert!(m_naive.digest.same_stream(&m_opt.digest));
    }

    #[test]
    fn naive_sort_is_stable_like_radix() {
        let td = TempDir::new("ppbench-naive").unwrap();
        let cfg = cfg(5);
        NaiveBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        let m_naive = NaiveBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1n"))
            .unwrap();
        let m_opt = OptimizedBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1o"))
            .unwrap();
        // Both stable sorts on the same input: identical streams.
        assert!(m_naive.digest.same_stream(&m_opt.digest));
    }

    #[test]
    fn naive_chain_bit_identical_to_optimized() {
        let td = TempDir::new("ppbench-naive").unwrap();
        let cfg = cfg(6);
        NaiveBackend.kernel0(&cfg, &td.join("k0")).unwrap();
        NaiveBackend
            .kernel1(&cfg, &td.join("k0"), &td.join("k1"))
            .unwrap();
        let k2n = NaiveBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        let k2o = OptimizedBackend.kernel2(&cfg, &td.join("k1")).unwrap();
        assert_eq!(k2n.matrix, k2o.matrix, "assembled matrices differ");
        assert_eq!(k2n.stats, k2o.stats);
        let rn = NaiveBackend.kernel3(&cfg, &k2n.matrix).unwrap().ranks;
        let ro = OptimizedBackend.kernel3(&cfg, &k2o.matrix).unwrap().ranks;
        assert_eq!(rn, ro, "serial backends must agree bit for bit");
    }

    #[test]
    fn malformed_line_reported_with_position() {
        let td = TempDir::new("ppbench-naive").unwrap();
        let cfg = cfg(4);
        NaiveBackend.kernel0(&cfg, td.path()).unwrap();
        // Corrupt the first file.
        let m = Manifest::load(td.path()).unwrap();
        let path = td.path().join(&m.files[0].name);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not\tanedge\n");
        std::fs::write(&path, text).unwrap();
        let err = read_naively(td.path()).unwrap_err();
        assert!(err.to_string().contains("bad edge line"), "{err}");
    }
}
