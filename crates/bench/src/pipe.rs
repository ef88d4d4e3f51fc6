//! End-to-end pipeline bench: staged vs. fused K1→K2 data path.
//!
//! The tentpole question this sweep answers: does building the CSR
//! matrix straight from the sorted-run merge stream (one pass, parallel
//! by vertex range, no intermediate sorted file set) beat the staged
//! path that writes kernel 1's output to disk and re-reads it for
//! kernel 2? Each scale generates one kernel-0 file set, then measures
//! the staged path (serial reference, one thread) and the fused path at
//! each requested thread count, keeping the fastest of `trials`
//! repetitions per point.
//!
//! Speed without sameness is a failed sweep, not a benchmark result:
//! every measured repetition's matrix and [`FilterStats`] must equal the
//! staged reference bit for bit, and its sorted-stream digest (the
//! concatenation of the fused path's per-bucket digests) must equal the
//! staged `(start, end)`-sorted stream digest — chain component
//! included. A mismatch anywhere aborts the sweep.
//!
//! Results land in `BENCH_pipeline.json` as canonical JSON (sorted keys,
//! shortest-roundtrip floats, rendered by `ppbench_core::json`);
//! `ppsweep check` re-validates that file's schema so CI catches drift in
//! either direction.

use std::path::Path;

use ppbench_core::backend::{Backend, OptimizedBackend};
use ppbench_core::kernel2::FilterStats;
use ppbench_core::{PipelineConfig, Stopwatch};
use ppbench_io::checksum::EdgeDigest;
use ppbench_io::tempdir::TempDir;
use ppbench_sort::SortKey;
use ppbench_sparse::Csr;

use ppbench_core::json::Json;

use crate::harness::{
    parse_positive, parse_scale_list, parse_thread_list, sweep_points, Field, Sweep, Variant,
};

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Graph scales (vertices = 2^scale).
    pub scales: Vec<u32>,
    /// Thread counts for the fused path.
    pub threads: Vec<usize>,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Master seed for generation.
    pub seed: u64,
    /// Output files per edge file set.
    pub num_files: usize,
    /// Measurement repetitions per point; the fastest trial is kept
    /// (best-of-N damps scheduler and page-cache noise).
    pub trials: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: vec![1, 2, 4],
            edge_factor: 16,
            seed: 1,
            num_files: 4,
            trials: 1,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Mode name (see [`MODES`]).
    pub mode: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for the staged baseline).
    pub threads: usize,
    /// Edges in the input file set.
    pub edges: u64,
    /// Wall-clock seconds of the kernel-1 portion (sort / route+spill).
    pub k1_seconds: f64,
    /// Wall-clock seconds of the kernel-2 portion (read+build / merge+build).
    pub k2_seconds: f64,
    /// End-to-end K1→K2 wall-clock seconds.
    pub seconds: f64,
    /// `edges / seconds` — the headline end-to-end throughput.
    pub edges_per_s: f64,
}

/// One measured repetition, before the identity gate. The first one (the
/// staged run at one thread) is what every later repetition must
/// reproduce.
struct Measured {
    k1_seconds: f64,
    k2_seconds: f64,
    digest: EdgeDigest,
    stats: FilterStats,
    matrix: Csr<f64>,
}

/// Runs the staged path once: kernel 1 to a scratch file set, kernel 2
/// re-reading it. The intermediate file set lives under `work`, which the
/// caller deletes after every repetition so trials cannot fill the disk.
fn run_staged(cfg: &PipelineConfig, k0_dir: &Path, work: &Path) -> Result<Measured, String> {
    let backend = OptimizedBackend;
    let k1_dir = work.join("k1");
    let sw = Stopwatch::start();
    let manifest = backend
        .kernel1(cfg, k0_dir, &k1_dir)
        .map_err(|e| format!("staged kernel 1: {e}"))?;
    let k1_seconds = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let out = backend
        .kernel2(cfg, &k1_dir)
        .map_err(|e| format!("staged kernel 2: {e}"))?;
    let k2_seconds = sw.elapsed_secs();
    Ok(Measured {
        k1_seconds,
        k2_seconds,
        digest: manifest.digest,
        stats: out.stats,
        matrix: out.matrix,
    })
}

/// Runs the fused path once. The kernel splits its own timing at the
/// routing/merge boundary, so the K1/K2 attribution comes from the
/// kernel itself rather than an outer stopwatch.
fn run_fused(cfg: &PipelineConfig, k0_dir: &Path, work: &Path) -> Result<Measured, String> {
    let got = OptimizedBackend
        .kernel12_fused(cfg, k0_dir, &work.join("scratch"))
        .map_err(|e| format!("fused kernel 1+2: {e}"))?;
    Ok(Measured {
        k1_seconds: got.k1.timing.seconds,
        k2_seconds: got.k2.timing.seconds,
        digest: got.k1.digest,
        stats: got.k2.stats,
        matrix: got.output.matrix,
    })
}

/// Runs one data path once: `(config, kernel-0 dir, scratch dir)`.
type RunMode = fn(&PipelineConfig, &Path, &Path) -> Result<Measured, String>;

/// The two K1→K2 data paths under measurement: the legacy staged path
/// (kernel 1 sorts to a file set on disk, kernel 2 re-reads it) is the
/// serial reference, measured once at one thread; the fused path (CSR
/// built straight from the merge stream, one worker per contiguous vertex
/// range) is swept over the thread counts.
const MODES: [Variant<RunMode>; 2] = [(run_staged, "staged", false), (run_fused, "fused", true)];

/// The identity gate: matrix, filter stats and sorted-stream digest (chain
/// component included) must equal the staged reference's bit for bit.
/// Condenses the repetition to its `(k1_seconds, k2_seconds)` split.
fn same_result(reference: Option<&Measured>, got: &Measured) -> Result<(f64, f64), String> {
    if let Some(r) = reference {
        if !got.digest.same_stream(&r.digest) {
            return Err("sorted-stream digest differs from the staged reference".to_string());
        }
        if got.stats != r.stats {
            return Err("filter stats differ from the staged reference".to_string());
        }
        if got.matrix != r.matrix {
            return Err("matrix differs from the staged reference".to_string());
        }
    }
    Ok((got.k1_seconds, got.k2_seconds))
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    const NAME: &'static str = "pipeline";
    const TAG: &'static str = "ppbench-pipeline-v1";
    const OUT: &'static str = "BENCH_pipeline.json";
    const FLAGS: &'static str =
        "[--scales LO:HI,N,...] [--threads N,N,...] [--edge-factor K] [--seed N] \
        [--num-files N] [--trials N]";
    const TOP: &'static [Field<Self>] = &[
        Field::new("edge_factor", |c| Json::Uint(c.edge_factor)),
        Field::new("num_files", |c| Json::Uint(c.num_files as u64)),
        Field::new("seed", |c| Json::Uint(c.seed)),
        Field::new("trials", |c| Json::Uint(c.trials as u64)),
    ];
    const COLUMNS: &'static [Field<SweepRow>] = &[
        Field::new("scale", |r| Json::Uint(r.scale.into())),
        Field::new("mode", |r| Json::String(r.mode.into())),
        Field::new("threads", |r| Json::Uint(r.threads as u64)),
        Field::new("edges", |r| Json::Uint(r.edges)),
        Field::new("k1_seconds", |r| Json::Number(r.k1_seconds)),
        Field::new("k2_seconds", |r| Json::Number(r.k2_seconds)),
        Field::new("seconds", |r| Json::Number(r.seconds)),
        Field::new("edges_per_s", |r| Json::Number(r.edges_per_s)),
    ];

    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Option<String>) -> Option<()> {
        match flag {
            "--scales" => self.scales = parse_scale_list(&value()?)?,
            "--threads" => self.threads = parse_thread_list(&value()?)?,
            "--edge-factor" => self.edge_factor = value()?.parse().ok()?,
            "--seed" => self.seed = value()?.parse().ok()?,
            "--num-files" => self.num_files = parse_positive(&value()?)?,
            "--trials" => self.trials = parse_positive(&value()?)?,
            _ => return None,
        }
        Some(())
    }

    /// For each scale, kernel 0 writes one input file set (unmeasured),
    /// then one [`sweep_points`] pass runs the staged baseline at one
    /// thread and the fused path at every requested thread count. Every
    /// repetition — not just the kept one — goes through [`same_result`].
    /// Row order: scale-major, staged before fused, then thread order as
    /// given.
    fn run(&self) -> Result<Vec<SweepRow>, String> {
        let scratch = |e| format!("cannot create scratch dir: {e}");
        let mut rows = Vec::new();
        for &scale in &self.scales {
            // `StartEnd` so the staged sorted stream is byte-comparable to
            // the fused path's concatenated per-bucket digests.
            let pcfg = PipelineConfig::builder()
                .scale(scale)
                .edge_factor(self.edge_factor)
                .seed(self.seed)
                .num_files(self.num_files)
                .sort_key(SortKey::StartEnd)
                .build();
            let k0_dir = TempDir::new("ppsweep-pipe-k0").map_err(scratch)?;
            let edges = OptimizedBackend
                .kernel0(&pcfg, k0_dir.path())
                .map_err(|e| format!("kernel 0: {e}"))?
                .edges;
            let points = sweep_points(
                &MODES,
                &self.threads,
                self.trials,
                |run_mode, _| {
                    let work = TempDir::new("ppsweep-pipe").map_err(scratch)?;
                    let measured = run_mode(&pcfg, k0_dir.path(), work.path())?;
                    Ok(Some((measured.k1_seconds + measured.k2_seconds, measured)))
                },
                same_result,
            )
            .map_err(|e| format!("scale {scale}: {e}"))?
            .points;
            rows.extend(points.into_iter().map(|p| SweepRow {
                mode: p.variant,
                scale,
                threads: p.threads,
                edges,
                k1_seconds: p.summary.0,
                k2_seconds: p.summary.1,
                seconds: p.seconds,
                edges_per_s: edges as f64 / p.seconds.max(1e-15),
            }));
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::to_json;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            scales: vec![6],
            threads: vec![1, 2],
            edge_factor: 8,
            seed: 7,
            num_files: 2,
            trials: 1,
        }
    }

    #[test]
    fn sweep_covers_both_modes_and_stays_bit_identical() {
        let cfg = tiny_cfg();
        let rows = cfg.run().unwrap();
        // Staged once + fused × 2 thread counts.
        assert_eq!(rows.len(), 1 + 2);
        for (_, name, _) in MODES {
            assert!(rows.iter().any(|r| r.mode == name), "missing {name}");
        }
        assert_eq!(
            crate::check_document(&to_json(&cfg, &rows)),
            Ok(SweepConfig::TAG)
        );
        for row in &rows {
            assert!(row.edges > 0, "{row:?}");
            assert!(row.edges_per_s > 0.0, "{row:?}");
            assert!(row.seconds >= row.k1_seconds.max(row.k2_seconds), "{row:?}");
        }
    }

    #[test]
    fn best_of_n_trials_still_yields_one_row_per_point() {
        let cfg = SweepConfig {
            trials: 2,
            ..tiny_cfg()
        };
        let rows = cfg.run().unwrap();
        assert_eq!(rows.len(), 1 + 2);
    }
}
