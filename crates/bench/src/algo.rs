//! Analytics-workload microbench: workload × implementation × thread
//! count × scale.
//!
//! The GAP Benchmark Suite's case is that one analytic measures one
//! data-access pattern; `ppbench-algo` adds four more, and this module
//! measures them the way [`crate::k3`] measures the SpMV variants. Every
//! point runs on the same normalized kernel-2 matrix the pipeline would
//! produce (built once per scale), each workload's serial oracle runs
//! first as the accuracy reference, and the optimized kernel is swept
//! over explicit thread counts. Because the algo kernels are
//! bit-deterministic, the comparison against serial is exact equality of
//! the output vectors, not a tolerance. Results land in
//! `BENCH_algo.json`; `ppsweep check` re-validates that file's schema so
//! CI catches drift.

use ppbench_core::workload::{self, AlgoOutcome, Workload};
use ppbench_core::{PipelineConfig, Stopwatch, Variant};

use ppbench_core::json::Json;

use crate::harness::{self, parse_scale_list, parse_thread_list, sweep_points, Field, Sweep};

/// The analytics workloads under measurement (every workload except
/// PageRank, which the `k3` sweep covers on its own axis).
pub const ALGO_WORKLOADS: [Workload; 4] =
    [Workload::Bfs, Workload::Cc, Workload::Sssp, Workload::Tc];

/// The two implementations of each workload: the serial oracle (the naive
/// backend's kernel), measured first at one thread — a row and the equality
/// reference — then the optimized kernel, swept over the thread counts.
pub const IMPLS: [harness::Variant<Variant>; 2] = [
    (Variant::Naive, "serial", false),
    (Variant::Optimized, "optimized", true),
];

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Graph scales (vertices = 2^scale).
    pub scales: Vec<u32>,
    /// Thread counts for the optimized implementations.
    pub threads: Vec<usize>,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Master seed for generation, weights, and source selection.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: vec![1, 2, 4, 8],
            edge_factor: 16,
            seed: 1,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Workload name (see [`Workload::name`]).
    pub workload: &'static str,
    /// `"serial"` (the oracle) or `"optimized"`.
    pub impl_name: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for the serial oracle).
    pub threads: usize,
    /// Vertex count.
    pub vertices: u64,
    /// Directed edges in the adjacency pattern (the work-item count).
    pub edges: u64,
    /// Wall-clock seconds for the workload kernel alone.
    pub seconds: f64,
    /// Millions of edges per second — the paper's throughput unit.
    pub meps: f64,
    /// Headline statistic (reached / components / triangles).
    pub stat: u64,
    /// FNV-1a fingerprint of the output vector.
    pub checksum: u64,
    /// Whether the output vector equals the serial oracle's, bit for bit.
    pub matches_serial: bool,
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    const NAME: &'static str = "algo";
    const TAG: &'static str = "ppbench-algo-v1";
    const OUT: &'static str = "BENCH_algo.json";
    const FLAGS: &'static str =
        "[--scales LO:HI,N,...] [--threads N,N,...] [--edge-factor K] [--seed N]";
    const TOP: &'static [Field<Self>] = &[
        Field::new("edge_factor", |c| Json::Uint(c.edge_factor)),
        Field::new("seed", |c| Json::Uint(c.seed)),
    ];
    const COLUMNS: &'static [Field<SweepRow>] = &[
        Field::new("scale", |r| Json::Uint(r.scale.into())),
        Field::new("workload", |r| Json::String(r.workload.into())),
        Field::new("impl", |r| Json::String(r.impl_name.into())),
        Field::new("threads", |r| Json::Uint(r.threads as u64)),
        Field::new("vertices", |r| Json::Uint(r.vertices)),
        Field::new("edges", |r| Json::Uint(r.edges)),
        Field::new("seconds", |r| Json::Number(r.seconds)),
        Field::new("meps", |r| Json::Number(r.meps)),
        Field::new("stat", |r| Json::Uint(r.stat)),
        Field::new("checksum", |r| Json::String(format!("{:016x}", r.checksum))),
        Field::new("matches_serial", |r| Json::Bool(r.matches_serial)),
    ];

    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Option<String>) -> Option<()> {
        match flag {
            "--scales" => self.scales = parse_scale_list(&value()?)?,
            "--threads" => self.threads = parse_thread_list(&value()?)?,
            "--edge-factor" => self.edge_factor = value()?.parse().ok()?,
            "--seed" => self.seed = value()?.parse().ok()?,
            _ => return None,
        }
        Some(())
    }

    /// Per scale, the kernel-2 matrix is built once; per workload, one
    /// single-trial [`sweep_points`] pass over [`IMPLS`] compares each
    /// output vector with the oracle's for exact equality. Row order: scale-major, then [`ALGO_WORKLOADS`] order,
    /// serial before optimized, then thread order as given.
    fn run(&self) -> Result<Vec<SweepRow>, String> {
        let mut rows = Vec::new();
        for &scale in &self.scales {
            let matrix = crate::k3::build_matrix(scale, self.edge_factor, self.seed);
            for w in ALGO_WORKLOADS {
                let points = sweep_points(
                    &IMPLS,
                    &self.threads,
                    1,
                    |variant, _| {
                        let cfg = PipelineConfig::builder()
                            .scale(scale)
                            .edge_factor(self.edge_factor)
                            .seed(self.seed)
                            .workload(w)
                            .variant(variant)
                            .build();
                        let sw = Stopwatch::start();
                        let out = workload::run_algo(&cfg, &matrix).map_err(|e| e.to_string())?;
                        Ok(Some((sw.elapsed_secs(), out)))
                    },
                    |serial: Option<&AlgoOutcome>, out| {
                        let matches = serial.is_none_or(|s| out.values == s.values);
                        Ok((out.work_items, out.stat, out.checksum, matches))
                    },
                )?
                .points;
                rows.extend(points.into_iter().map(|p| {
                    let (edges, stat, checksum, matches_serial) = p.summary;
                    SweepRow {
                        workload: w.name(),
                        impl_name: p.variant,
                        scale,
                        threads: p.threads,
                        vertices: matrix.rows(),
                        edges,
                        seconds: p.seconds,
                        meps: edges as f64 / p.seconds.max(1e-15) / 1e6,
                        stat,
                        checksum,
                        matches_serial,
                    }
                }));
            }
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
            scales: vec![7],
            threads: vec![1, 2],
            edge_factor: 8,
            seed: 7,
        }
    }

    #[test]
    fn sweep_covers_every_workload_and_matches_serial() {
        let cfg = tiny_cfg();
        let rows = cfg.run().unwrap();
        // 4 workloads × (1 serial + 2 optimized thread counts).
        assert_eq!(rows.len(), 4 * 3);
        for w in ALGO_WORKLOADS {
            assert!(
                rows.iter().any(|r| r.workload == w.name()),
                "missing {}",
                w.name()
            );
        }
        assert_eq!(
            crate::check_document(&to_json(&cfg, &rows)),
            Ok(SweepConfig::TAG)
        );
        for row in &rows {
            assert!(row.matches_serial, "{row:?} diverged from its oracle");
            assert!(row.meps > 0.0, "{row:?}");
            assert!(row.edges > 0, "{row:?}");
        }
        // Serial and optimized fingerprints agree per workload.
        for w in ALGO_WORKLOADS {
            let sums: Vec<u64> = rows
                .iter()
                .filter(|r| r.workload == w.name())
                .map(|r| r.checksum)
                .collect();
            assert!(
                sums.windows(2).all(|p| p[0] == p[1]),
                "{} checksums vary: {sums:?}",
                w.name()
            );
        }
    }
}
