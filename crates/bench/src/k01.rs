//! K0→K1 front-end microbench: gen × write/sort variant × threads × scale.
//!
//! The paper's I/O-bound kernels are the front of the pipeline: kernel 0
//! writes the generated edge list "to files on non-volatile storage as
//! pairs of tab separated numeric strings", and kernel 1 reads it back,
//! sorts by start vertex, and writes it again. This module measures the
//! two kernel-0 write strategies (serial streaming, sharded parallel
//! streaming) under each requested R-MAT sampler (`faithful` per-level
//! recursion vs the `linear` block-table sampler) and kernel 1 within and
//! beyond its memory budget (in-memory, external merge), each swept over
//! explicit thread counts and scales. Results land in `BENCH_k01.json` as canonical JSON
//! (sorted keys, shortest-roundtrip floats, rendered by
//! `ppbench_core::json`), giving later PRs a baseline to beat;
//! `ppsweep check` re-validates that file's schema — including a >1%
//! rate-vs-raw-measurement consistency gate — so CI catches drift in
//! either direction.
//!
//! Generation is interleaved with writing on the streaming paths, so every
//! kernel-0 measurement times generate+write as one unit — the same work
//! for every variant, which keeps the comparison fair even though the
//! paper's Figure 4 nominally times only the write.
//!
//! Every variant's output is digest-verified against the first-measured
//! variant of its kernel before the row is accepted: a fast wrong answer
//! is a failed sweep, not a benchmark result.

use std::path::Path;

use ppbench_core::{kernel0, kernel1, PipelineConfig, Stopwatch};
use ppbench_gen::RmatSampler;
use ppbench_io::tempdir::TempDir;
use ppbench_io::{Manifest, BYTES_PER_EDGE};
use ppbench_sort::SortKey;

use ppbench_core::json::Json;

use crate::harness::{
    parse_positive, parse_scale_list, parse_thread_list, sweep_points, Field, Point, RateRule,
    Sweep, Variant,
};

/// The kernel-0 write strategies under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum K0Variant {
    /// Serial chunked streaming through one writer ([`kernel0::write_streamed`]).
    Stream,
    /// One parallel writer per output file, each streaming its contiguous
    /// slice of the stream ([`kernel0::write_sharded`]).
    Sharded,
}

/// Every kernel-0 variant, measurement order (the first is the reference).
pub const K0_VARIANTS: [Variant<K0Variant>; 2] = [
    (K0Variant::Stream, "stream", false),
    (K0Variant::Sharded, "sharded", true),
];

/// Kernel 1 ([`kernel1::sort_file_set`]) on either side of its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum K1Variant {
    /// Budget `None`: the whole list is one in-memory run.
    InMem,
    /// The production spill: a budget below the input's footprint, so runs
    /// are sorted, spilled and merged back.
    External,
}

/// Every kernel-1 variant, measurement order (the first is the reference).
/// The in-memory row is measured once, on one thread; the spill is swept
/// over the thread counts (run sorting is chunked across the pool).
pub const K1_VARIANTS: [Variant<K1Variant>; 2] = [
    (K1Variant::InMem, "inmem", false),
    (K1Variant::External, "external", true),
];

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Graph scales (vertices = 2^scale).
    pub scales: Vec<u32>,
    /// Thread counts for the parallel variants.
    pub threads: Vec<usize>,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Master seed for generation.
    pub seed: u64,
    /// Output files per edge file set.
    pub num_files: usize,
    /// The spill variant runs with a memory budget of
    /// `input_bytes / budget_divisor`, so it always spills (into roughly
    /// `budget_divisor` runs) regardless of scale.
    pub budget_divisor: u64,
    /// Measurement repetitions per point; the fastest trial is kept
    /// (best-of-N damps scheduler and page-cache noise, which dominates
    /// the I/O-bound kernels at small scales).
    pub trials: usize,
    /// R-MAT samplers to sweep on kernel 0 (the `gen` axis). Kernel 1
    /// runs once per scale, from the first swept sampler's output.
    pub gens: Vec<RmatSampler>,
    /// Skip the faithful sampler above this scale. Its per-edge recursion
    /// is `scale`-fold slower than the linear block-table sampler, so the
    /// largest scales sweep linear-only instead of dropping the scale.
    pub faithful_max_scale: Option<u32>,
    /// Skip kernel 1 above this scale (the sort paths are measured at the
    /// comparison scale; the top-end rows are a kernel-0 stress point).
    pub k1_max_scale: Option<u32>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: vec![1, 2, 4],
            edge_factor: 16,
            seed: 1,
            num_files: 4,
            budget_divisor: 4,
            trials: 1,
            gens: vec![RmatSampler::Faithful, RmatSampler::Linear],
            faithful_max_scale: None,
            k1_max_scale: None,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// `"k0"` or `"k1"`.
    pub kernel: &'static str,
    /// Variant name (see [`K0_VARIANTS`] / [`K1_VARIANTS`]).
    pub variant: &'static str,
    /// R-MAT sampler name (see [`RmatSampler::name`]). Kernel-1 rows
    /// carry the sampler whose output they sorted.
    pub gen: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for serial variants).
    pub threads: usize,
    /// Edges in the file set.
    pub edges: u64,
    /// On-disk megabytes of the file set written (decimal MB).
    pub mbytes: f64,
    /// Wall-clock seconds for the whole kernel.
    pub seconds: f64,
    /// `mbytes / seconds` — the paper's Figure-4 axis.
    pub mb_per_s: f64,
    /// `mb_per_s / 1000` — the same rate in decimal GB/s, for reading
    /// the large-scale rows against device bandwidth.
    pub gb_per_s: f64,
}

/// One repetition's output: the file set (deleted when this drops, so a
/// big sweep never holds more than the reference plus one on disk), its
/// manifest, and its on-disk size.
struct Written {
    manifest: Manifest,
    bytes: u64,
    dir: TempDir,
}

/// Times `write` into a fresh scratch directory.
fn measure(
    write: impl FnOnce(&Path) -> Result<Manifest, String>,
) -> Result<(f64, Written), String> {
    let dir = TempDir::new("ppsweep-k01").map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let sw = Stopwatch::start();
    let manifest = write(dir.path())?;
    let seconds = sw.elapsed_secs();
    let mut bytes = 0u64;
    for f in &manifest.files {
        let path = dir.join(&f.name);
        let meta =
            std::fs::metadata(&path).map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
        bytes += meta.len();
    }
    Ok((
        seconds,
        Written {
            manifest,
            bytes,
            dir,
        },
    ))
}

/// The identity gate of both kernels: every output's edge-stream digest
/// must equal the reference's (first variant, first trial). Condenses the
/// output to the `(edges, bytes)` a row needs.
fn same_stream(reference: Option<&Written>, got: &Written) -> Result<(u64, u64), String> {
    if reference.is_some_and(|r| !got.manifest.digest.same_stream(&r.manifest.digest)) {
        return Err("wrote a different edge stream than the reference".to_string());
    }
    Ok((got.manifest.edges, got.bytes))
}

/// Runs one kernel-0 variant into `dir` and returns its manifest.
fn run_k0(cfg: &PipelineConfig, variant: K0Variant, dir: &Path) -> Result<Manifest, String> {
    let err = |e: ppbench_core::Error| format!("k0 {variant:?}: {e}");
    let generator = kernel0::build_generator(cfg);
    match variant {
        K0Variant::Stream => kernel0::write_streamed(&generator, cfg, dir).map_err(err),
        K0Variant::Sharded => kernel0::write_sharded(&generator, cfg, dir).map_err(err),
    }
}

/// Runs one kernel-1 variant from `in_dir` into `out_dir` and returns the
/// output manifest. `budget_bytes` applies to the spill variant only.
fn run_k1(
    in_dir: &Path,
    out_dir: &Path,
    num_files: usize,
    variant: K1Variant,
    budget_bytes: u64,
) -> Result<Manifest, String> {
    let budget = (variant == K1Variant::External).then_some(budget_bytes);
    kernel1::sort_file_set(in_dir, out_dir, num_files, SortKey::Start, budget)
        .map_err(|e| format!("k1 {variant:?}: {e}"))
}

impl SweepRow {
    /// Builds a row, deriving `mbytes`/`mb_per_s`/`gb_per_s` from raw bytes
    /// and seconds so every rate in the document is computed in exactly one
    /// place (the schema gate cross-checks them against the raw fields).
    fn new(kernel: &'static str, gen: &'static str, scale: u32, point: Point<(u64, u64)>) -> Self {
        let (edges, bytes) = point.summary;
        let mbytes = bytes as f64 / 1e6;
        let mb_per_s = mbytes / point.seconds.max(1e-15);
        SweepRow {
            kernel,
            variant: point.variant,
            gen,
            scale,
            threads: point.threads,
            edges,
            mbytes,
            seconds: point.seconds,
            mb_per_s,
            gb_per_s: mb_per_s / 1e3,
        }
    }
}

/// The swept samplers as the comma-joined `gens` field.
fn gen_names(cfg: &SweepConfig) -> Json {
    let names: Vec<_> = cfg.gens.iter().map(|g| g.name()).collect();
    Json::String(names.join(","))
}

/// JSON value for an optional scale cap: the number, or `"none"` for an
/// uncapped sweep.
fn cap(cap: Option<u32>) -> Json {
    cap.map_or(Json::String("none".to_string()), |v| Json::Uint(v.into()))
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    const NAME: &'static str = "k01";
    /// v3 added the `gen` axis (R-MAT sampler per kernel-0 row), the
    /// `gb_per_s` rate column, and the `faithful_max_scale`/`k1_max_scale`
    /// sweep caps.
    const TAG: &'static str = "ppbench-k01-v3";
    const OUT: &'static str = "BENCH_k01.json";
    const FLAGS: &'static str =
        "[--scales LO:HI,N,...] [--threads N,N,...] [--edge-factor K] [--seed N] \
        [--num-files N] [--budget-divisor D] [--trials N] [--gens faithful,linear] \
        [--faithful-max-scale S] [--k1-max-scale S]";
    const TOP: &'static [Field<Self>] = &[
        Field::new("budget_divisor", |c| Json::Uint(c.budget_divisor)),
        Field::new("edge_factor", |c| Json::Uint(c.edge_factor)),
        Field::new("faithful_max_scale", |c| cap(c.faithful_max_scale)),
        Field::new("gens", gen_names),
        Field::new("k1_max_scale", |c| cap(c.k1_max_scale)),
        Field::new("num_files", |c| Json::Uint(c.num_files as u64)),
        Field::new("seed", |c| Json::Uint(c.seed)),
        Field::new("trials", |c| Json::Uint(c.trials as u64)),
    ];
    const COLUMNS: &'static [Field<SweepRow>] = &[
        Field::new("scale", |r| Json::Uint(r.scale.into())),
        Field::new("kernel", |r| Json::String(r.kernel.into())),
        Field::new("gen", |r| Json::String(r.gen.into())),
        Field::new("variant", |r| Json::String(r.variant.into())),
        Field::new("threads", |r| Json::Uint(r.threads as u64)),
        Field::new("edges", |r| Json::Uint(r.edges)),
        Field::new("mbytes", |r| Json::Number(r.mbytes)),
        Field::new("seconds", |r| Json::Number(r.seconds)),
        Field::new("mb_per_s", |r| Json::Number(r.mb_per_s)),
        Field::new("gb_per_s", |r| Json::Number(r.gb_per_s)),
    ];
    const RATES: Option<RateRule> = Some(RateRule {
        size: "mbytes",
        seconds: "seconds",
        rates: &[("mb_per_s", 1.0), ("gb_per_s", 1e-3)],
    });

    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Option<String>) -> Option<()> {
        match flag {
            "--scales" => self.scales = parse_scale_list(&value()?)?,
            "--threads" => self.threads = parse_thread_list(&value()?)?,
            "--edge-factor" => self.edge_factor = value()?.parse().ok()?,
            "--seed" => self.seed = value()?.parse().ok()?,
            "--num-files" => self.num_files = parse_positive(&value()?)?,
            "--budget-divisor" => self.budget_divisor = parse_positive(&value()?)?,
            "--trials" => self.trials = parse_positive(&value()?)?,
            "--gens" => {
                self.gens = value()?
                    .split(',')
                    .map(RmatSampler::parse)
                    .collect::<Option<_>>()?
            }
            "--faithful-max-scale" => self.faithful_max_scale = Some(value()?.parse().ok()?),
            "--k1-max-scale" => self.k1_max_scale = Some(value()?.parse().ok()?),
            _ => return None,
        }
        Some(())
    }

    /// For each scale, kernel 0 runs once per requested sampler (the `gen`
    /// axis; the faithful sampler is skipped above
    /// [`SweepConfig::faithful_max_scale`]) through [`sweep_points`] over
    /// [`K0_VARIANTS`]: the two samplers emit different — equally
    /// distributed — streams, so the digest reference is per
    /// `(scale, gen)`. Kernel 1 then runs once per scale over
    /// [`K1_VARIANTS`] from the first sampler's reference output, unless
    /// the scale exceeds [`SweepConfig::k1_max_scale`]; both sides of the
    /// budget are the same stable sort, so their output streams must be
    /// byte-identical too.
    /// Row order: scale-major, kernel 0 before kernel 1, then `gens` order,
    /// then `ALL` order, then thread order as given.
    fn run(&self) -> Result<Vec<SweepRow>, String> {
        if self.gens.is_empty() {
            return Err("no samplers to sweep (gens is empty)".to_string());
        }
        let mut rows = Vec::new();
        for &scale in &self.scales {
            let in_scale = |e: String| format!("scale {scale}: {e}");
            // Kernel 1's input: the first sampler's verified kernel-0 output.
            let mut k1_input: Option<(Written, &'static str)> = None;
            for &gen in &self.gens {
                if gen == RmatSampler::Faithful
                    && self.faithful_max_scale.is_some_and(|c| scale > c)
                {
                    continue;
                }
                let pcfg = PipelineConfig::builder()
                    .scale(scale)
                    .edge_factor(self.edge_factor)
                    .seed(self.seed)
                    .num_files(self.num_files)
                    .gen(gen)
                    .build();
                let swept = sweep_points(
                    &K0_VARIANTS,
                    &self.threads,
                    self.trials,
                    |variant, _| measure(|dir| run_k0(&pcfg, variant, dir)).map(Some),
                    same_stream,
                )
                .map_err(|e| in_scale(format!("k0 {}: {e}", gen.name())))?;
                let k0_rows = swept.points.into_iter();
                rows.extend(k0_rows.map(|p| SweepRow::new("k0", gen.name(), scale, p)));
                if k1_input.is_none() {
                    k1_input = swept.reference.map(|written| (written, gen.name()));
                }
            }
            let Some((k0, k1_gen)) = k1_input else {
                continue;
            };
            if self.k1_max_scale.is_some_and(|cap| scale > cap) {
                continue;
            }
            let in_bytes = k0.manifest.edges.saturating_mul(BYTES_PER_EDGE as u64);
            let budget_bytes = (in_bytes / self.budget_divisor.max(1)).max(BYTES_PER_EDGE as u64);
            let points = sweep_points(
                &K1_VARIANTS,
                &self.threads,
                self.trials,
                |variant, _| {
                    let sort = |dir: &Path| {
                        run_k1(k0.dir.path(), dir, self.num_files, variant, budget_bytes)
                    };
                    measure(sort).map(Some)
                },
                |reference, got| {
                    if !got.manifest.sort_state.is_sorted_by_start() {
                        return Err("output is not sorted".to_string());
                    }
                    same_stream(reference, got)
                },
            )
            .map_err(|e| in_scale(format!("k1: {e}")))?
            .points;
            rows.extend(
                points
                    .into_iter()
                    .map(|p| SweepRow::new("k1", k1_gen, scale, p)),
            );
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
            budget_divisor: 4,
            trials: 1,
            gens: vec![RmatSampler::Faithful, RmatSampler::Linear],
            faithful_max_scale: None,
            k1_max_scale: None,
        }
    }

    /// K0: (stream once + sharded × 2 thread counts) per sampler; K1:
    /// inmem once + external × 2 thread counts, once per scale.
    const TINY_ROWS: usize = (1 + 2) * 2 + (1 + 2);

    #[test]
    fn best_of_n_trials_still_yields_one_row_per_point() {
        let cfg = SweepConfig {
            trials: 2,
            ..tiny_cfg()
        };
        let rows = cfg.run().unwrap();
        assert_eq!(rows.len(), TINY_ROWS);
    }

    #[test]
    fn sweep_covers_every_variant_and_streams_agree() {
        let cfg = tiny_cfg();
        let rows = cfg.run().unwrap();
        assert_eq!(rows.len(), TINY_ROWS);
        for (_, v, _) in K0_VARIANTS {
            for g in RmatSampler::ALL {
                assert!(
                    rows.iter()
                        .any(|r| r.kernel == "k0" && r.variant == v && r.gen == g.name()),
                    "missing k0 {v} under {}",
                    g.name()
                );
            }
        }
        for (_, v, _) in K1_VARIANTS {
            assert!(
                rows.iter().any(|r| r.kernel == "k1" && r.variant == v),
                "missing k1 {v}"
            );
        }
        for row in &rows {
            assert!(row.mb_per_s > 0.0, "{row:?}");
            assert!(row.edges > 0, "{row:?}");
            assert!(row.mbytes > 0.0, "{row:?}");
            assert!(
                (row.gb_per_s - row.mb_per_s / 1e3).abs() <= row.mb_per_s * 1e-12,
                "{row:?}"
            );
        }
        // What the sweep emits is what its own schema gate accepts.
        assert_eq!(
            crate::check_document(&to_json(&cfg, &rows)),
            Ok(SweepConfig::TAG)
        );
        // Kernel 1 sorts the first swept sampler's output and says so.
        assert!(rows
            .iter()
            .filter(|r| r.kernel == "k1")
            .all(|r| r.gen == "faithful"));
    }

    #[test]
    fn sweep_caps_limit_faithful_and_k1_scales() {
        let cfg = SweepConfig {
            scales: vec![5, 6],
            faithful_max_scale: Some(5),
            k1_max_scale: Some(5),
            ..tiny_cfg()
        };
        let rows = cfg.run().unwrap();
        // Scale 5 runs the full matrix; scale 6 is linear-only with no k1.
        assert!(rows
            .iter()
            .any(|r| r.scale == 5 && r.gen == "faithful" && r.kernel == "k0"));
        assert!(rows.iter().any(|r| r.scale == 5 && r.kernel == "k1"));
        assert!(!rows.iter().any(|r| r.scale == 6 && r.gen == "faithful"));
        assert!(!rows.iter().any(|r| r.scale == 6 && r.kernel == "k1"));
        assert!(rows
            .iter()
            .any(|r| r.scale == 6 && r.gen == "linear" && r.kernel == "k0"));
        assert_eq!(rows.len(), TINY_ROWS + 3);
    }

    #[test]
    fn schema_check_rejects_a_doctored_rate() {
        let cfg = tiny_cfg();
        let rows = cfg.run().unwrap();
        let mut fast = rows;
        // Inflate one row's headline rate by 10× without touching the raw
        // measurements it is derived from.
        fast[0].mb_per_s *= 10.0;
        let err = crate::check_document(&to_json(&cfg, &fast)).unwrap_err();
        assert!(err.contains("mb_per_s"), "{err}");
    }
}
