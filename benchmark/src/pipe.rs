//! Pipeline segment: timed `Pipeline::run` trials, their correctness
//! gate, and the traced pass that replays each kernel and each substrate
//! call on the same data.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ppbench_core::backend::Kernel2Output;
use ppbench_core::kernel2::FilterStats;
use ppbench_core::model::{self, HardwareModel};
use ppbench_core::{
    kernel0, kernel2, kernel3, KernelTiming, Pipeline, PipelineConfig, PipelineObserver,
    PipelineResult, Variant,
};
use ppbench_gen::{chunk_ranges, RmatSampler};
use ppbench_io::checksum::EdgeDigest;
use ppbench_io::{Edge, EdgeReader, EdgeWriter, SortState};
use ppbench_sort::{radix_sort_by_u64_key, ExternalSorter, SortKey};
use ppbench_sparse::{spmv, Csr, Csr32, CsrStreamBuilder};
use rayon::prelude::*;

use crate::stats::median;
use crate::tally::{parallel_threads, put, size_pool, Metrics, Tally, TIMED_THREADS};
use crate::trace::{Recorder, SpanId};

/// Size and path of a pipeline segment.
#[derive(Debug, Clone, Copy)]
pub struct PipePlan {
    /// Graph500 scale; the edge factor is the spec's 16.
    pub scale: u32,
    /// `false`: the paper's literal pipeline — `Variant::Optimized`,
    /// staged K0→K1→K2→K3 through files. `true`: the production fast
    /// path — `Variant::Parallel`, fused K1+K2 (runs + merge, streaming
    /// CSR, `step_fused` on `Csr32`, sharded K0 writer).
    pub fast: bool,
    /// Timed trials per round.
    pub trials: usize,
}

impl PipePlan {
    /// The pipeline configuration for graph seed `seed`.
    pub fn config(&self, seed: u64) -> PipelineConfig {
        let b = PipelineConfig::builder()
            .scale(self.scale)
            .seed(seed)
            .gen(RmatSampler::Linear);
        if self.fast {
            b.variant(Variant::Parallel).fused(true).build()
        } else {
            b.variant(Variant::Optimized).build()
        }
    }
}

/// Total size of the regular files directly under `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// What the first trial produced; every later trial must reproduce it.
#[derive(Debug)]
struct Reference {
    k0: EdgeDigest,
    k1: EdgeDigest,
    stats: FilterStats,
    ranks: Vec<f64>,
}

/// Timing samples of the timed trials.
#[derive(Debug, Default)]
pub struct PipeSamples {
    /// Harness clock around `Pipeline::run`, per trial.
    pub run_s: Vec<f64>,
    /// The program's own per-kernel rates (the paper's metrics).
    pub kernel_rate: [Vec<f64>; 4],
    /// CPU seconds consumed across all timed trials.
    pub cpu_s: f64,
}

/// A pipeline segment bound to its working directory.
#[derive(Debug)]
pub struct PipeSegment {
    plan: PipePlan,
    cfg: PipelineConfig,
    dir: PathBuf,
    reference: Option<Reference>,
    /// Samples of the timed trials.
    pub samples: PipeSamples,
}

/// Records kernel boundaries reported by the pipeline as child spans and
/// sums their durations.
struct SpanObserver<'a> {
    rec: &'a Recorder,
    parent: SpanId,
    trial: u32,
    state: std::sync::Mutex<ObserverState>,
}

#[derive(Default)]
struct ObserverState {
    open: [Option<SpanId>; 4],
    closed_s: f64,
}

impl PipelineObserver for SpanObserver<'_> {
    fn kernel_started(&self, kernel: u8) {
        let id = self.rec.begin(
            &format!("pipeline.kernel{kernel}"),
            Some(self.parent),
            self.trial,
        );
        if let Ok(mut state) = self.state.lock() {
            state.open[usize::from(kernel)] = Some(id);
        }
    }

    fn kernel_finished(&self, kernel: u8, _timing: &KernelTiming) {
        if let Ok(mut state) = self.state.lock() {
            if let Some(id) = state.open[usize::from(kernel)].take() {
                state.closed_s += self.rec.end(id);
            }
        }
    }
}

/// Clocks of one trial.
struct TrialTimes {
    /// Harness clock around `Pipeline::run`.
    run_s: f64,
    /// Sum of the kernel spans the observer recorded (traced trials).
    kernel_spans_s: f64,
    /// Sum of the program's own per-kernel seconds.
    program_s: f64,
}

fn kernel_timings(r: &PipelineResult) -> Option<[KernelTiming; 4]> {
    Some([
        r.kernel0.as_ref()?.timing,
        r.kernel1.as_ref()?.timing,
        r.kernel2.as_ref()?.timing,
        r.kernel3.as_ref()?.timing,
    ])
}

fn remove_dir(dir: &Path, tally: &mut Tally) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            tally.fail(format!("cannot remove {}: {e}", dir.display()));
        }
    }
}

impl PipeSegment {
    /// A segment running `plan` on graph seed `seed` under `dir`.
    pub fn new(plan: PipePlan, seed: u64, dir: &Path) -> Self {
        Self {
            plan,
            cfg: plan.config(seed),
            dir: dir.to_path_buf(),
            reference: None,
            samples: PipeSamples::default(),
        }
    }

    /// Edges per run (`M`).
    pub fn edges(&self) -> u64 {
        self.cfg.spec.num_edges()
    }

    /// One `Pipeline::run` with the harness clock around it. The result
    /// is checked against the reference (set by the first run); timing
    /// samples are recorded only when `timed`.
    fn trial(
        &mut self,
        timed: bool,
        traced: Option<(&Recorder, u32)>,
        tally: &mut Tally,
    ) -> Option<TrialTimes> {
        size_pool(TIMED_THREADS);
        let dir = self.dir.join("trial");
        let pipeline = Pipeline::new(self.cfg.clone(), &dir);
        // A traced trial is one `pipeline.run` span, opened and closed
        // right at the call, with the observer's kernel spans under it.
        let observer = traced.map(|(rec, trial)| SpanObserver {
            rec,
            parent: rec.begin("pipeline.run", None, trial),
            trial,
            state: Default::default(),
        });
        let start = Instant::now();
        let outcome = match &observer {
            Some(observer) => pipeline.run_with_observer(observer),
            None => pipeline.run(),
        };
        let run_s = start.elapsed().as_secs_f64();
        if let Some(observer) = &observer {
            observer.rec.end(observer.parent);
        }
        let kernel_spans_s = observer
            .and_then(|o| o.state.into_inner().ok())
            .map_or(0.0, |state| state.closed_s);
        remove_dir(&dir, tally);
        let result = match outcome {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("pipeline trial failed: {e}"));
                return None;
            }
        };
        let timings = kernel_timings(&result);
        tally.check(
            timings.is_some() && result.validation.as_ref().is_some_and(|v| v.passed()),
            || "pipeline trial did not run all kernels with passing validation".into(),
        );
        let timings = timings?;
        let (k0, k1, k2, k3) = (
            result.kernel0?,
            result.kernel1?,
            result.kernel2?,
            result.kernel3?,
        );
        match &self.reference {
            None => {
                self.reference = Some(Reference {
                    k0: k0.digest,
                    k1: k1.digest,
                    stats: k2.stats,
                    ranks: k3.ranks,
                });
            }
            Some(reference) => {
                tally.check(reference.k0.same_stream(&k0.digest), || {
                    "K0 digest differs between trials".into()
                });
                tally.check(reference.k1.same_stream(&k1.digest), || {
                    "K1 digest differs between trials".into()
                });
                tally.check(reference.stats == k2.stats, || {
                    "filter statistics differ between trials".into()
                });
                tally.check(reference.ranks == k3.ranks, || {
                    "ranks are not bit-identical between trials".into()
                });
            }
        }
        if timed {
            self.samples.run_s.push(run_s);
            for (k, t) in timings.iter().enumerate() {
                self.samples.kernel_rate[k].push(t.rate());
            }
        }
        Some(TrialTimes {
            run_s,
            kernel_spans_s,
            program_s: timings.iter().map(|t| t.seconds).sum(),
        })
    }

    /// The untimed warm-up trial (part of set-up): fills the page cache
    /// and allocator and fixes the reference outputs.
    pub fn warm_up(&mut self, tally: &mut Tally) {
        self.trial(false, None, tally);
    }

    /// One round: the planned number of timed trials.
    pub fn round(&mut self, tally: &mut Tally) {
        let cpu0 = crate::env::cpu_seconds();
        for _ in 0..self.plan.trials {
            self.trial(true, None, tally);
        }
        self.samples.cpu_s += crate::env::cpu_seconds() - cpu0;
    }

    /// The user-visible numbers: `run_s` and the four per-kernel rates,
    /// each the median over the timed trials.
    pub fn end_to_end(&self, out: &mut Metrics) {
        put(out, "run_s", median(&self.samples.run_s));
        for k in 0..4 {
            put(
                out,
                &format!("k{k}_edges_per_s"),
                median(&self.samples.kernel_rate[k]),
            );
        }
    }

    /// Differential check against the other pipeline path on the same
    /// graph: identical K0 stream, the same K1 edge multiset (the staged
    /// sort keys on start only, the fused one on (start, end), so stream
    /// order may differ), identical filter statistics, and ranks within
    /// 1e-9 in L1 (the parallel SpMV reassociates sums).
    pub fn cross_check(&mut self, tally: &mut Tally) {
        let Some(reference) = &self.reference else {
            tally.fail("cross-check without a reference trial".into());
            return;
        };
        let other = PipePlan {
            fast: !self.plan.fast,
            ..self.plan
        };
        size_pool(TIMED_THREADS);
        let dir = self.dir.join("cross");
        let outcome = Pipeline::new(other.config(self.cfg.seed), &dir).run();
        remove_dir(&dir, tally);
        let result = match outcome {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("cross-check pipeline failed: {e}"));
                return;
            }
        };
        let (Some(k0), Some(k1), Some(k2), Some(k3)) = (
            result.kernel0,
            result.kernel1,
            result.kernel2,
            result.kernel3,
        ) else {
            tally.fail("cross-check pipeline skipped a kernel".into());
            return;
        };
        tally.check(reference.k0.same_stream(&k0.digest), || {
            "K0 digest differs between the staged and fused paths".into()
        });
        tally.check(reference.k1.same_multiset(&k1.digest), || {
            "K1 edge multiset differs between the staged and fused paths".into()
        });
        tally.check(reference.stats == k2.stats, || {
            "filter statistics differ between the staged and fused paths".into()
        });
        let l1 = ppbench_sparse::vector::l1_distance(&reference.ranks, &k3.ranks);
        tally.check(l1 <= 1e-9, || {
            format!("ranks differ by L1 {l1:e} between the staged and fused paths")
        });
    }

    /// The traced pass: one traced trial, the four kernels called
    /// directly on the same inputs, and every substrate call replayed on
    /// the same data. Fills the `gen`, `io`, `sort`, `sparse`, `core`,
    /// `proc` and `trace` per-layer metrics.
    pub fn traced_pass(
        &mut self,
        rec: &Recorder,
        hw: &HardwareModel,
        out: &mut Metrics,
        tally: &mut Tally,
    ) {
        let untraced_run_s = median(&self.samples.run_s);
        put(
            out,
            "proc.cpu_s",
            self.samples.cpu_s / self.samples.run_s.len() as f64,
        );

        // --- traced trial: the pipeline's own kernel boundaries as spans ---
        let traced = self.trial(false, Some((rec, 1)), tally);
        let Some(traced) = traced else {
            return;
        };
        // What the run spent outside its kernels: invariant validation.
        let validate_s = traced.run_s - traced.program_s;
        put(out, "core.validate.s", validate_s);
        put(
            out,
            "trace.overhead_share",
            traced.run_s / untraced_run_s - 1.0,
        );
        // Reconciliation: the kernel spans seen from outside plus the
        // validation remainder account for the traced run.
        let rebuilt = traced.kernel_spans_s + validate_s;
        tally.check((rebuilt / traced.run_s - 1.0).abs() <= 0.05, || {
            format!(
                "kernel spans + validation ({rebuilt:.4} s) are not within 5% of the traced run ({:.4} s)",
                traced.run_s
            )
        });

        // --- the kernels called directly, one span each ---
        let direct = match self.direct_kernels(rec, tally) {
            Some(d) => d,
            None => return,
        };
        for k in 0..4 {
            put(out, &format!("core.kernel{k}.s"), direct.seconds[k]);
        }
        put(out, "io.k0_bytes", direct.k0_bytes as f64);
        put(out, "io.k1_bytes", direct.k1_bytes as f64);

        // --- substrate probes on the same edges ---
        let probes = match self.substrate_probes(rec, &direct, out) {
            Ok(p) => p,
            Err(e) => {
                tally.fail(format!("substrate probe failed: {e}"));
                return;
            }
        };
        tally.check(probes.matrix == direct.matrix, || {
            "the matrix rebuilt from substrate calls differs from kernel 2's".into()
        });

        // Share of each kernel's span that no substrate probe explains
        // (digests, glue, allocation).
        let explained = if self.plan.fast {
            [
                probes.gen_s + probes.write_s,
                probes.read_s + probes.runs_fill_s,
                probes.runs_drain_s + probes.csr_stream_s + probes.filter_s,
                probes.gather_s,
            ]
        } else {
            [
                probes.gen_s + probes.write_s,
                probes.read_s + probes.radix_s + probes.write_s,
                probes.read_s + probes.csr_build_s + probes.filter_s,
                probes.spmv_s,
            ]
        };
        for (k, (explained, span)) in explained.iter().zip(direct.seconds).enumerate() {
            put(
                out,
                &format!("core.kernel{k}.unattributed_share"),
                1.0 - explained / span,
            );
        }

        // The paper's §V check: measured over what the simple hardware
        // model predicts under this process's calibration.
        let nnz = probes.nnz_before as f64;
        let predictions = model::predict_all(&self.cfg.spec, nnz, self.cfg.iterations, hw);
        for (k, p) in predictions.iter().enumerate() {
            put(
                out,
                &format!("core.model.k{k}_ratio"),
                direct.seconds[k] / p.seconds,
            );
            rec.note(
                direct.spans[k],
                &format!(
                    "model predicts {:.4} s, dominant resource: {}",
                    p.seconds,
                    p.dominant()
                ),
            );
        }
    }

    fn direct_kernels(&self, rec: &Recorder, tally: &mut Tally) -> Option<Direct> {
        size_pool(TIMED_THREADS);
        let backend = self.cfg.variant.backend();
        let dir = self.dir.join("direct");
        let (k0_dir, k1_dir) = (dir.join("k0"), dir.join("k1"));
        let root = rec.begin("core.kernels", None, 2);
        let mut spans = [root; 4];
        let mut seconds = [0.0; 4];
        let run = (|| -> ppbench_core::Result<Kernel2Output> {
            spans[0] = rec.begin("core.kernel0", Some(root), 2);
            backend.kernel0(&self.cfg, &k0_dir)?;
            seconds[0] = rec.end(spans[0]);
            let k2 = if self.cfg.fused {
                // One call covers both kernels; the program splits its
                // time at the run-seal boundary.
                let id = rec.begin("core.kernel12_fused", Some(root), 2);
                let fused = backend.kernel12_fused(&self.cfg, &k0_dir, &k1_dir)?;
                rec.end(id);
                spans[1] = id;
                spans[2] = id;
                seconds[1] = fused.k1.timing.seconds;
                seconds[2] = fused.k2.timing.seconds;
                fused.output
            } else {
                spans[1] = rec.begin("core.kernel1", Some(root), 2);
                backend.kernel1(&self.cfg, &k0_dir, &k1_dir)?;
                seconds[1] = rec.end(spans[1]);
                spans[2] = rec.begin("core.kernel2", Some(root), 2);
                let k2 = backend.kernel2(&self.cfg, &k1_dir)?;
                seconds[2] = rec.end(spans[2]);
                k2
            };
            spans[3] = rec.begin("core.kernel3", Some(root), 2);
            backend.kernel3(&self.cfg, &k2.matrix)?;
            seconds[3] = rec.end(spans[3]);
            Ok(k2)
        })();
        rec.end(root);
        let direct = match run {
            Ok(k2) => {
                let edges = EdgeReader::read_dir_all(&k0_dir).map(|(_, e)| e);
                match edges {
                    Ok(edges) => Some(Direct {
                        spans,
                        seconds,
                        k0_bytes: dir_bytes(&k0_dir),
                        k1_bytes: dir_bytes(&k1_dir),
                        edges,
                        matrix: k2.matrix,
                    }),
                    Err(e) => {
                        tally.fail(format!("cannot read back kernel 0 output: {e}"));
                        None
                    }
                }
            }
            Err(e) => {
                tally.fail(format!("direct kernel call failed: {e}"));
                None
            }
        };
        remove_dir(&dir, tally);
        direct
    }

    fn substrate_probes(
        &self,
        rec: &Recorder,
        direct: &Direct,
        out: &mut Metrics,
    ) -> ppbench_io::Result<Probes> {
        let cfg = &self.cfg;
        let (m, n) = (cfg.spec.num_edges(), cfg.spec.num_vertices());
        let edges = &direct.edges;
        let dir = self.dir.join("probe");
        let root = rec.begin("probes", None, 3);
        let span = |name: &str| rec.begin(name, Some(root), 3);
        size_pool(TIMED_THREADS);

        // gen: the sampler alone, chunk by chunk, no I/O.
        let generator = kernel0::build_generator(cfg);
        let mut chunk: Vec<Edge> = Vec::new();
        let id = span("gen.linear.edges_into");
        for (lo, hi) in chunk_ranges(0, m, kernel0::GENERATION_CHUNK) {
            generator.edges_into(&mut chunk, lo, hi);
            std::hint::black_box(&chunk);
        }
        let gen_s = rec.end(id);
        put(out, "gen.linear.edges_per_s", m as f64 / gen_s);

        // io: the durable text writer and the parsing reader.
        let io_dir = dir.join("io");
        let id = span("io.EdgeWriter.write_all");
        let mut writer = EdgeWriter::create(&io_dir, "edges", 1, m)?;
        writer.write_all(edges)?;
        writer.finish(Some(cfg.spec.scale()), Some(n), SortState::Unsorted)?;
        let write_s = rec.end(id);
        let mbytes = dir_bytes(&io_dir) as f64 / 1e6;
        put(out, "io.write.mb_per_s", mbytes / write_s);
        let id = span("io.EdgeReader.open_dir");
        let (_, reader) = EdgeReader::open_dir(&io_dir)?;
        let mut read_back = 0u64;
        for e in reader {
            std::hint::black_box(e?);
            read_back += 1;
        }
        let read_s = rec.end(id);
        assert_eq!(read_back, m, "reader returned a different edge count");
        put(out, "io.read.mb_per_s", mbytes / read_s);

        // sort: in-memory radix (staged K1) and runs + merge (fused K1/K2).
        let mut by_start = edges.clone();
        let id = span("sort.radix_sort_by_u64_key");
        radix_sort_by_u64_key(&mut by_start, |e| e.start_key());
        let radix_s = rec.end(id);
        put(out, "sort.radix.edges_per_s", m as f64 / radix_s);

        let sorter = ExternalSorter::new(&dir.join("runs"), usize::MAX, SortKey::StartEnd)?;
        let id = span("sort.RunWriter.fill");
        let mut run_writer = sorter.run_writer()?;
        for &e in edges {
            run_writer.push(e)?;
        }
        let run_set = run_writer.finish()?;
        let runs_fill_s = rec.end(id);
        let mut by_start_end: Vec<Edge> = Vec::with_capacity(edges.len());
        let id = span("sort.MergeStream.drain");
        for e in run_set.into_stream()? {
            by_start_end.push(e?);
        }
        let runs_drain_s = rec.end(id);
        put(
            out,
            "sort.runs.edges_per_s",
            m as f64 / (runs_fill_s + runs_drain_s),
        );

        // sparse: both CSR constructions, then the filter funnel.
        let id = span("sparse.Csr.from_sorted_edge_iter");
        let counts = Csr::<u64>::from_sorted_edge_iter(n, by_start.iter().map(|e| (e.u, e.v)));
        let csr_build_s = rec.end(id);
        put(out, "sparse.csr_build.edges_per_s", m as f64 / csr_build_s);
        drop(by_start);

        let id = span("sparse.CsrStreamBuilder");
        let mut builder = CsrStreamBuilder::<u64>::new(n);
        for e in &by_start_end {
            builder.push(e.u, e.v);
        }
        let streamed = Csr::<u64>::from_row_segments(n, vec![builder.finish_segment()]);
        let csr_stream_s = rec.end(id);
        put(
            out,
            "sparse.csr_stream.edges_per_s",
            m as f64 / csr_stream_s,
        );
        drop(by_start_end);
        assert!(streamed == counts, "the two CSR constructions disagree");
        drop(streamed);

        let id = span("core.kernel2.filter_matrix");
        let (matrix, stats) = kernel2::filter_matrix(&counts, cfg.add_diagonal_to_empty);
        let filter_s = rec.end(id);
        put(
            out,
            "core.kernel2.filter.nnz_per_s",
            stats.nnz_before as f64 / filter_s,
        );
        drop(counts);

        // sparse: 20 PageRank iterations, serial scatter and 2-thread
        // fused gather — the two forms the backends run, minus their
        // one-off set-up.
        let nnz = matrix.nnz() as f64;
        let iters = f64::from(cfg.iterations);
        let opts = cfg.pagerank_options();
        let dangling = kernel3::DanglingInfo::from_mask(&ppbench_sparse::ops::empty_rows(&matrix));
        let r0 = kernel3::init_ranks(n, cfg.seed);
        let id = span("sparse.spmv.vxm_into");
        let serial = kernel3::run_into(
            r0.clone(),
            |r, next, coeffs| {
                spmv::vxm_into(r, &matrix, next);
                kernel3::apply_epilogue(r, next, coeffs)
            },
            &dangling,
            &opts,
        );
        let spmv_s = rec.end(id);
        std::hint::black_box(&serial.ranks);
        put(out, "sparse.spmv.nnz_per_s", iters * nnz / spmv_s);
        put(out, "sparse.nnz", nnz);
        // Computed, not measured: per stored entry a u64 column index, an
        // f64 value and one f64 operand; per row a pointer and a vector
        // element.
        put(
            out,
            "sparse.spmv.bytes_per_nnz_computed",
            (nnz * 24.0 + n as f64 * 16.0) / nnz,
        );

        // The gather form, as the parallel backend sets it up: once at the
        // timed thread count (what kernel 3 of a fused session ran) and
        // once at two threads (the form's reason to exist).
        let at = matrix.transpose();
        let narrow = Csr32::try_from_wide(&at);
        let gather = |name: &str, threads: usize| -> f64 {
            size_pool(threads);
            let boundaries = spmv::balanced_boundaries(at.row_ptr(), threads);
            let id = span(name);
            let run = match &narrow {
                Some(narrow) => kernel3::run_into(
                    r0.clone(),
                    |r, next, c| spmv::step_fused(r, &narrow.view(), next, c, &boundaries),
                    &dangling,
                    &opts,
                ),
                None => kernel3::run_into(
                    r0.clone(),
                    |r, next, c| spmv::step_fused(r, &at.view(), next, c, &boundaries),
                    &dangling,
                    &opts,
                ),
            };
            let secs = rec.end(id);
            std::hint::black_box(&run.ranks);
            secs
        };
        let gather_s = gather("sparse.spmv.step_fused", TIMED_THREADS);
        let spmv_par_s = gather("sparse.spmv.step_fused.2t", parallel_threads());
        put(out, "sparse.spmv_par.nnz_per_s", iters * nnz / spmv_par_s);

        rec.end(root);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| ppbench_io::Error::io(&dir, e))?;
        }
        Ok(Probes {
            gen_s,
            write_s,
            read_s,
            radix_s,
            runs_fill_s,
            runs_drain_s,
            csr_build_s,
            csr_stream_s,
            filter_s,
            spmv_s,
            gather_s,
            nnz_before: stats.nnz_before,
            matrix,
        })
    }
}

/// Outcome of the direct kernel calls.
struct Direct {
    spans: [SpanId; 4],
    seconds: [f64; 4],
    k0_bytes: u64,
    k1_bytes: u64,
    edges: Vec<Edge>,
    matrix: Csr<f64>,
}

/// Seconds of each substrate probe, plus what they rebuilt.
struct Probes {
    gen_s: f64,
    write_s: f64,
    read_s: f64,
    radix_s: f64,
    runs_fill_s: f64,
    runs_drain_s: f64,
    csr_build_s: f64,
    csr_stream_s: f64,
    filter_s: f64,
    spmv_s: f64,
    gather_s: f64,
    nnz_before: usize,
    matrix: Csr<f64>,
}

/// Median microseconds of an empty two-task parallel call at two
/// threads: what the rayon shim charges per dispatch.
pub fn rayon_dispatch_us() -> f64 {
    size_pool(parallel_threads());
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            let v: Vec<usize> = (0..2usize).into_par_iter().map(|i| i).collect();
            std::hint::black_box(v);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}
