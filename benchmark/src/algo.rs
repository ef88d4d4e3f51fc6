//! Algorithm segment (GAP style): one fixed graph, many calls from seeded
//! sources, per-kernel time. The graph is built once in set-up; every
//! timed pass calls the optimized (chunked, `chunks = 64`) BFS, SSSP, CC
//! and TC kernels directly, so K0–K3 do none of the timed work.

use std::path::Path;
use std::time::Instant;

use ppbench_algo::{bfs, cc, checksum_u64s, pick_source, sssp, tc, Graph};
use ppbench_core::workload::WORKLOAD_CHUNKS;
use ppbench_core::{PipelineConfig, Variant};
use ppbench_gen::RmatSampler;
use ppbench_prng::SplitMix64;

use crate::stats::{max, median};
use crate::tally::{put, size_pool, Metrics, Tally, TIMED_THREADS};
use crate::trace::{Recorder, SpanId};

/// Size of an algorithm segment.
#[derive(Debug, Clone, Copy)]
pub struct AlgoPlan {
    /// Graph500 scale of the graph; edge factor 16.
    pub scale: u32,
    /// Timed passes per round.
    pub passes: usize,
}

/// The four kernels, in the order their samples are stored.
const KERNELS: [&str; 4] = ["bfs", "sssp", "cc", "tc"];

/// Calls per pass, indexed like [`KERNELS`]: BFS from 64 seeded sources,
/// SSSP from the first 16 of them, CC ×4, TC ×1. A BFS costs between 1×
/// and 2.5× depending on its source, so fewer sources would let the
/// seed's draw of sources move `bfs_edges_per_s` by ±15 %.
const CALLS: [usize; 4] = [64, 16, 4, 1];

/// An algorithm segment: the graph plus the samples of its timed passes.
#[derive(Debug)]
pub struct AlgoSegment {
    plan: AlgoPlan,
    graph: Graph,
    seed: u64,
    sources: Vec<u32>,
    /// Seconds to build the graph (fused K0–K2, adjacency conversion).
    pub build_s: f64,
    /// Per-call seconds, indexed like [`KERNELS`].
    samples: [Vec<f64>; 4],
    /// Output checksums of the optimized kernels: one per source for BFS
    /// and SSSP, one each for CC and TC. Every call must reproduce them.
    checksums: Option<Checksums>,
}

#[derive(Debug, PartialEq, Eq)]
struct Checksums {
    bfs: Vec<u64>,
    sssp: Vec<u64>,
    cc: u64,
    tc: u64,
}

/// Runs `f` under the clock (and a span, when traced) and pushes its
/// seconds onto `samples`. Only the kernel call is timed; checksumming
/// its output happens outside.
fn timed<T>(
    samples: &mut Vec<f64>,
    span: Option<(&Recorder, SpanId, u32, &str)>,
    f: impl FnOnce() -> T,
) -> T {
    let id = span.map(|(rec, parent, trial, name)| (rec, rec.begin(name, Some(parent), trial)));
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_secs_f64());
    if let Some((rec, id)) = id {
        rec.end(id);
    }
    out
}

fn checksum_u32s(values: &[u32]) -> u64 {
    let wide: Vec<u64> = values.iter().map(|&v| u64::from(v)).collect();
    checksum_u64s(&wide)
}

impl AlgoSegment {
    /// Builds the graph for `seed` under `dir` the way a `pprank
    /// --workload` run does: fused K0–K2 on the parallel backend, then
    /// the adjacency pattern of the kernel-2 matrix.
    pub fn build(plan: AlgoPlan, seed: u64, dir: &Path) -> Result<Self, String> {
        size_pool(TIMED_THREADS);
        let start = Instant::now();
        let cfg = PipelineConfig::builder()
            .scale(plan.scale)
            .seed(seed)
            .gen(RmatSampler::Linear)
            .variant(Variant::Parallel)
            .fused(true)
            .build();
        let backend = cfg.variant.backend();
        let built = backend
            .kernel0(&cfg, &dir.join("k0"))
            .and_then(|_| backend.kernel12_fused(&cfg, &dir.join("k0"), &dir.join("k1")));
        std::fs::remove_dir_all(dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
        let matrix = built.map_err(|e| e.to_string())?.output.matrix;
        let graph = Graph::from_adjacency(matrix.rows(), matrix.row_ptr(), matrix.col_indices())?;
        let build_s = start.elapsed().as_secs_f64();
        let sources = (0..CALLS[0] as u64)
            .map(|i| pick_source(&graph, SplitMix64::mix(seed ^ i)))
            .collect();
        Ok(Self {
            plan,
            graph,
            seed,
            sources,
            build_s,
            samples: Default::default(),
            checksums: None,
        })
    }

    /// Directed edges of the graph: the work-item count of every rate.
    pub fn edges(&self) -> u64 {
        self.graph.num_edges() as u64
    }

    /// One pass: every kernel [`CALLS`] times, each call timed on its own. Outputs are checksummed and compared with the
    /// first pass's.
    fn pass(&mut self, trace: Option<(&Recorder, u32)>, tally: &mut Tally) {
        size_pool(TIMED_THREADS);
        let g = &self.graph;
        let chunks = WORKLOAD_CHUNKS;
        let root = trace.map(|(rec, trial)| (rec, rec.begin("algo.pass", None, trial), trial));
        let span =
            |kernel: usize| root.map(|(rec, parent, trial)| (rec, parent, trial, KERNELS[kernel]));
        let mut sums = Checksums {
            bfs: Vec::with_capacity(CALLS[0]),
            sssp: Vec::with_capacity(CALLS[1]),
            cc: 0,
            tc: 0,
        };
        for &src in &self.sources {
            let depths = timed(&mut self.samples[0], span(0), || bfs::bfs(g, src, chunks));
            sums.bfs.push(checksum_u32s(&depths));
        }
        for &src in &self.sources[..CALLS[1]] {
            let dists = timed(&mut self.samples[1], span(1), || {
                sssp::sssp(g, src, self.seed, chunks)
            });
            sums.sssp.push(checksum_u64s(&dists));
        }
        for _ in 0..CALLS[2] {
            let labels = timed(&mut self.samples[2], span(2), || cc::cc(g, chunks));
            sums.cc = checksum_u32s(&labels);
        }
        sums.tc = timed(&mut self.samples[3], span(3), || tc::tc(g, chunks));
        if let Some((rec, id, _)) = root {
            rec.end(id);
        }
        let calls = CALLS.iter().sum::<usize>() as u64;
        match &self.checksums {
            None => {
                self.checksums = Some(sums);
                tally.ok(calls);
            }
            Some(first) => {
                tally.ok(calls - 1);
                tally.check(*first == sums, || {
                    "an algorithm output changed between passes".into()
                });
            }
        }
    }

    /// One round: the planned number of timed passes.
    pub fn round(&mut self, tally: &mut Tally) {
        for _ in 0..self.plan.passes {
            self.pass(None, tally);
        }
    }

    /// Per kernel: edges ÷ seconds per call, where seconds per call is the
    /// median over passes of a pass's mean. Averaging within a pass
    /// weighs every source alike; the median across passes drops the
    /// passes a slow stretch of the host landed on.
    pub fn end_to_end(&self, out: &mut Metrics) {
        let m = self.edges() as f64;
        for (kernel, name) in KERNELS.iter().enumerate() {
            let per_pass: Vec<f64> = self.samples[kernel]
                .chunks(CALLS[kernel])
                .map(|pass| pass.iter().sum::<f64>() / pass.len() as f64)
                .collect();
            put(out, &format!("{name}_edges_per_s"), m / median(&per_pass));
        }
    }

    /// Runs every serial oracle once and compares its output checksum
    /// with the optimized kernel's. Returns the oracles' median seconds
    /// per call, indexed like [`KERNELS`].
    pub fn verify_against_oracles(&self, tally: &mut Tally) -> [f64; 4] {
        size_pool(TIMED_THREADS);
        let g = &self.graph;
        let Some(opt) = &self.checksums else {
            tally.fail("oracle check without an optimized pass".into());
            return [f64::NAN; 4];
        };
        let mut secs: [Vec<f64>; 4] = Default::default();
        for (i, &src) in self.sources.iter().enumerate() {
            let depths = timed(&mut secs[0], None, || bfs::bfs_serial(g, src));
            tally.check(checksum_u32s(&depths) == opt.bfs[i], || {
                format!("bfs from source {src} differs from its serial oracle")
            });
        }
        for (i, &src) in self.sources[..CALLS[1]].iter().enumerate() {
            let dists = timed(&mut secs[1], None, || sssp::sssp_serial(g, src, self.seed));
            tally.check(checksum_u64s(&dists) == opt.sssp[i], || {
                format!("sssp from source {src} differs from its serial oracle")
            });
        }
        let labels = timed(&mut secs[2], None, || cc::cc_serial(g));
        tally.check(checksum_u32s(&labels) == opt.cc, || {
            "cc differs from its serial oracle".into()
        });
        let triangles = timed(&mut secs[3], None, || tc::tc_serial(g));
        tally.check(triangles == opt.tc, || {
            "tc differs from its serial oracle".into()
        });
        [
            median(&secs[0]),
            median(&secs[1]),
            median(&secs[2]),
            median(&secs[3]),
        ]
    }

    /// The traced pass: one more optimized pass under spans, and the
    /// `algo.*` per-layer metrics. `oracle_s` comes from
    /// [`AlgoSegment::verify_against_oracles`].
    pub fn traced_pass(
        &mut self,
        rec: &Recorder,
        oracle_s: &[f64; 4],
        out: &mut Metrics,
        tally: &mut Tally,
    ) {
        // Medians are taken before the traced pass adds its samples.
        let p50: Vec<f64> = self.samples.iter().map(|s| median(s)).collect();
        put(out, "algo.bfs.s_p50", p50[0]);
        put(out, "algo.bfs.s_max", max(&self.samples[0]));
        put(out, "algo.sssp.s_p50", p50[1]);
        put(out, "algo.sssp.s_max", max(&self.samples[1]));
        put(out, "algo.cc.s_p50", p50[2]);
        put(out, "algo.tc.s_p50", p50[3]);
        for (kernel, name) in KERNELS.iter().enumerate() {
            // Below 1 the optimized form loses to its serial oracle.
            put(
                out,
                &format!("algo.{name}.opt_over_serial"),
                oracle_s[kernel] / p50[kernel],
            );
        }
        put(out, "algo.graph.build_s", self.build_s);
        self.pass(Some((rec, 4)), tally);
    }
}
