//! Kernel-3 microbench: SpMV variant × thread count × scale.
//!
//! The paper's compute-bound kernel is the one expected to "show a wider
//! dispersion in performance" once parallelized (§IV.D), so this module
//! measures exactly that axis: the serial scatter the serial backends
//! run, and the nnz-balanced fused kernels (wide and narrow indices) the
//! parallel backend runs — each swept over explicit
//! thread counts, keeping the fastest of `trials` repetitions per point
//! so one scheduler hiccup cannot masquerade as a scaling regression.
//! Results land in `BENCH_k3.json` as
//! canonical JSON (sorted keys, shortest-roundtrip floats, rendered by
//! `ppbench_core::json`), giving later PRs a baseline to beat;
//! `ppsweep check` re-validates that file's schema so CI catches drift in
//! either direction.

use ppbench_core::kernel3::{self, DanglingInfo, DanglingStrategy, PageRankOptions, PageRankRun};
use ppbench_core::Stopwatch;
use ppbench_gen::{EdgeGenerator, GraphSpec, Kronecker};
use ppbench_sort::SortKey;
use ppbench_sparse::{ops, spmv, vector, Csr, Csr32};

use ppbench_core::json::Json;

use crate::harness::{
    parse_positive, parse_scale_list, parse_thread_list, sweep_points, Field, Sweep, Variant,
};

/// The kernel-3 implementations under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum K3Variant {
    /// Serial CSR scatter (`vxm_into`) — the reference implementation.
    Scatter,
    /// nnz-balanced fused kernel over wide (`u64`) column indices.
    BalancedFusedU64,
    /// nnz-balanced fused kernel over narrow (`u32`) column indices.
    BalancedFusedU32,
}

/// Every variant, measurement order: serial scatter first, so it is both a
/// row and the accuracy reference.
pub const VARIANTS: [Variant<K3Variant>; 3] = [
    (K3Variant::Scatter, "scatter", false),
    (K3Variant::BalancedFusedU64, "balanced_fused_u64", true),
    (K3Variant::BalancedFusedU32, "balanced_fused_u32", true),
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
    /// Master seed for generation and rank init.
    pub seed: u64,
    /// PageRank iterations per measurement.
    pub iterations: u32,
    /// Damping factor.
    pub damping: f64,
    /// Measurement repetitions per point; the fastest trial is kept
    /// (best-of-N damps scheduler and page-cache noise).
    pub trials: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: vec![1, 2, 4, 8],
            edge_factor: 16,
            seed: 1,
            iterations: ppbench_core::ITERATIONS,
            damping: ppbench_core::DAMPING,
            trials: 1,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Variant name (see [`VARIANTS`]).
    pub variant: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for serial variants).
    pub threads: usize,
    /// Vertex count.
    pub vertices: u64,
    /// Stored nonzeros after filtering/normalization.
    pub nnz: u64,
    /// Wall-clock seconds for the whole kernel-3 run.
    pub seconds: f64,
    /// `2 · nnz · iterations / seconds / 1e9` — the paper's FLOP model.
    pub gflops: f64,
    /// L1 distance of this variant's ranks from the serial scatter ranks.
    pub l1_vs_serial: f64,
}

/// Builds the normalized scale-`s` matrix the same way the pipeline does:
/// Kronecker edges, radix sort by start vertex, sorted-input CSR
/// construction, row normalization.
pub fn build_matrix(scale: u32, edge_factor: u64, seed: u64) -> Csr<f64> {
    let spec = GraphSpec::new(scale, edge_factor);
    let mut edges = Kronecker::new(spec, seed).edges();
    ppbench_sort::radix_sort(&mut edges, SortKey::Start);
    let counts =
        Csr::<u64>::from_sorted_edge_iter(spec.num_vertices(), edges.iter().map(|e| (e.u, e.v)));
    ops::normalize_rows(counts)
}

/// Everything shared by every variant measured at one scale.
struct ScaleFixture {
    a: Csr<f64>,
    at: Csr<f64>,
    narrow: Option<Csr32>,
    dangling: DanglingInfo,
    opts: PageRankOptions,
    seed: u64,
}

/// Runs one variant once and returns wall seconds plus the result, or
/// `None` for the u32 variant on a matrix too wide to narrow.
fn run_variant(
    fx: &ScaleFixture,
    variant: K3Variant,
    threads: usize,
) -> Option<(f64, PageRankRun)> {
    let r0 = kernel3::init_ranks(fx.a.rows(), fx.seed);
    let boundaries = spmv::balanced_boundaries(fx.at.row_ptr(), threads);
    let sw = Stopwatch::start();
    let run = match variant {
        K3Variant::Scatter => kernel3::run_into(
            r0,
            |r, next, coeffs| {
                spmv::vxm_into(r, &fx.a, next);
                kernel3::apply_epilogue(r, next, coeffs)
            },
            &fx.dangling,
            &fx.opts,
        ),
        K3Variant::BalancedFusedU64 => kernel3::run_into(
            r0,
            |r, next, coeffs| spmv::step_fused(r, &fx.at.view(), next, coeffs, &boundaries),
            &fx.dangling,
            &fx.opts,
        ),
        K3Variant::BalancedFusedU32 => {
            let narrow = fx.narrow.as_ref()?;
            kernel3::run_into(
                r0,
                |r, next, coeffs| spmv::step_fused(r, &narrow.view(), next, coeffs, &boundaries),
                &fx.dangling,
                &fx.opts,
            )
        }
    };
    Some((sw.elapsed_secs(), run))
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    const NAME: &'static str = "k3";
    const TAG: &'static str = "ppbench-k3-v2";
    const OUT: &'static str = "BENCH_k3.json";
    const FLAGS: &'static str =
        "[--scales LO:HI,N,...] [--threads N,N,...] [--edge-factor K] [--seed N] \
        [--iterations N] [--damping C] [--trials N]";
    const TOP: &'static [Field<Self>] = &[
        Field::new("damping", |c| Json::Number(c.damping)),
        Field::new("edge_factor", |c| Json::Uint(c.edge_factor)),
        Field::new("iterations", |c| Json::Uint(c.iterations.into())),
        Field::new("seed", |c| Json::Uint(c.seed)),
        Field::new("trials", |c| Json::Uint(c.trials as u64)),
    ];
    const COLUMNS: &'static [Field<SweepRow>] = &[
        Field::new("scale", |r| Json::Uint(r.scale.into())),
        Field::new("variant", |r| Json::String(r.variant.into())),
        Field::new("threads", |r| Json::Uint(r.threads as u64)),
        Field::new("vertices", |r| Json::Uint(r.vertices)),
        Field::new("nnz", |r| Json::Uint(r.nnz)),
        Field::new("seconds", |r| Json::Number(r.seconds)),
        Field::new("gflops", |r| Json::Number(r.gflops)),
        Field::new("l1_vs_serial", |r| Json::Number(r.l1_vs_serial)),
    ];

    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Option<String>) -> Option<()> {
        match flag {
            "--scales" => self.scales = parse_scale_list(&value()?)?,
            "--threads" => self.threads = parse_thread_list(&value()?)?,
            "--edge-factor" => self.edge_factor = value()?.parse().ok()?,
            "--seed" => self.seed = value()?.parse().ok()?,
            "--iterations" => self.iterations = parse_positive(&value()?)?,
            "--damping" => self.damping = value()?.parse().ok()?,
            "--trials" => self.trials = parse_positive(&value()?)?,
            _ => return None,
        }
        Some(())
    }

    /// Per scale, one [`sweep_points`] pass over [`VARIANTS`]; every
    /// repetition's L1 distance from the scatter reference's ranks is what
    /// its row reports. Row order: scale-major, then `VARIANTS` order, then
    /// thread order as given.
    fn run(&self) -> Result<Vec<SweepRow>, String> {
        let mut rows = Vec::new();
        for &scale in &self.scales {
            let a = build_matrix(scale, self.edge_factor, self.seed);
            let at = a.transpose();
            let fx = ScaleFixture {
                narrow: Csr32::try_from_wide(&at),
                at,
                dangling: DanglingInfo::from_mask(&ops::empty_rows(&a)),
                opts: PageRankOptions {
                    damping: self.damping,
                    max_iterations: self.iterations,
                    dangling: DanglingStrategy::Omit,
                    tolerance: None,
                },
                seed: self.seed,
                a,
            };
            let flops = 2.0 * fx.a.nnz() as f64 * f64::from(self.iterations);
            let points = sweep_points(
                &VARIANTS,
                &self.threads,
                self.trials,
                |variant, threads| Ok(run_variant(&fx, variant, threads)),
                |serial: Option<&PageRankRun>, run| {
                    Ok(serial.map_or(0.0, |s| vector::l1_distance(&run.ranks, &s.ranks)))
                },
            )?
            .points;
            rows.extend(points.into_iter().map(|p| SweepRow {
                variant: p.variant,
                scale,
                threads: p.threads,
                vertices: fx.a.rows(),
                nnz: fx.a.nnz() as u64,
                seconds: p.seconds,
                gflops: flops / p.seconds.max(1e-15) / 1e9,
                l1_vs_serial: p.summary,
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
            iterations: 5,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_covers_every_variant_and_agrees_with_serial() {
        let cfg = tiny_cfg();
        let rows = cfg.run().unwrap();
        // 1 serial row + 2 parallel variants × 2 thread counts.
        assert_eq!(rows.len(), 1 + 2 * 2);
        for (_, name, _) in VARIANTS {
            assert!(rows.iter().any(|r| r.variant == name), "missing {name}");
        }
        assert_eq!(
            crate::check_document(&to_json(&cfg, &rows)),
            Ok(SweepConfig::TAG)
        );
        for row in &rows {
            assert!(row.gflops > 0.0, "{row:?}");
            assert!(
                row.l1_vs_serial < 1e-12,
                "{} diverged from serial: {}",
                row.variant,
                row.l1_vs_serial
            );
        }
    }

    #[test]
    fn best_of_n_trials_still_yields_one_row_per_point() {
        let cfg = SweepConfig {
            trials: 3,
            ..tiny_cfg()
        };
        let rows = cfg.run().unwrap();
        assert_eq!(rows.len(), 1 + 2 * 2);
        for row in &rows {
            assert!(row.l1_vs_serial < 1e-12, "{row:?}");
        }
    }
}
