//! Criterion microbenchmarks of the four pipeline kernels, one group per
//! paper figure (Figures 4–7), with one benchmark per implementation
//! variant.
//!
//! These complement the `figures` binary: the binary sweeps problem sizes
//! to reproduce the figures' *shape*; these pin each kernel at a fixed
//! scale for statistically tight regression tracking.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    missing_docs,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it; criterion_group! emits an undocumented fn"
)]

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppbench_core::{PipelineConfig, Variant};
use ppbench_io::tempdir::TempDir;

/// Benchmark scale: 2^10 vertices, 2^14 edges — small enough that a full
/// `cargo bench` stays in seconds, large enough to be out of trivial-cache
/// territory for the file kernels.
const SCALE: u32 = 10;

fn config(variant: Variant) -> PipelineConfig {
    PipelineConfig::builder()
        .scale(SCALE)
        .seed(7)
        .variant(variant)
        .validation(ppbench_core::ValidationLevel::None)
        .build()
}

fn bench_kernel0(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_kernel0_generate");
    let edges = PipelineConfig::builder()
        .scale(SCALE)
        .build()
        .spec
        .num_edges();
    group.throughput(Throughput::Elements(edges));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for variant in Variant::ALL {
        let cfg = config(variant);
        let backend = variant.backend();
        group.bench_function(BenchmarkId::from_parameter(variant.name()), |b| {
            b.iter(|| {
                let td = TempDir::new("bench-k0").unwrap();
                backend.kernel0(&cfg, td.path()).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_kernel1(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure5_kernel1_sort");
    let edges = PipelineConfig::builder()
        .scale(SCALE)
        .build()
        .spec
        .num_edges();
    group.throughput(Throughput::Elements(edges));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for variant in Variant::ALL {
        let cfg = config(variant);
        let backend = variant.backend();
        let input = TempDir::new("bench-k1-in").unwrap();
        backend.kernel0(&cfg, input.path()).unwrap();
        group.bench_function(BenchmarkId::from_parameter(variant.name()), |b| {
            b.iter(|| {
                let out = TempDir::new("bench-k1-out").unwrap();
                backend.kernel1(&cfg, input.path(), out.path()).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_kernel2(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure6_kernel2_filter");
    let edges = PipelineConfig::builder()
        .scale(SCALE)
        .build()
        .spec
        .num_edges();
    group.throughput(Throughput::Elements(edges));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for variant in Variant::ALL {
        let cfg = config(variant);
        let backend = variant.backend();
        let k0 = TempDir::new("bench-k2-k0").unwrap();
        let k1 = TempDir::new("bench-k2-k1").unwrap();
        backend.kernel0(&cfg, k0.path()).unwrap();
        backend.kernel1(&cfg, k0.path(), k1.path()).unwrap();
        group.bench_function(BenchmarkId::from_parameter(variant.name()), |b| {
            b.iter(|| backend.kernel2(&cfg, k1.path()).unwrap());
        });
    }
    group.finish();
}

fn bench_kernel3(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure7_kernel3_pagerank");
    let cfg0 = PipelineConfig::builder().scale(SCALE).build();
    // 20 iterations over M edges, the paper's 20·M work-item convention.
    group.throughput(Throughput::Elements(cfg0.spec.num_edges() * 20));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // Build the matrix once with the optimized backend; kernel 3 input is
    // backend-independent.
    let prep = Variant::Optimized.backend();
    let k0 = TempDir::new("bench-k3-k0").unwrap();
    let k1 = TempDir::new("bench-k3-k1").unwrap();
    let base_cfg = config(Variant::Optimized);
    prep.kernel0(&base_cfg, k0.path()).unwrap();
    prep.kernel1(&base_cfg, k0.path(), k1.path()).unwrap();
    let matrix = prep.kernel2(&base_cfg, k1.path()).unwrap().matrix;
    for variant in Variant::ALL {
        let cfg = config(variant);
        let backend = variant.backend();
        group.bench_function(BenchmarkId::from_parameter(variant.name()), |b| {
            b.iter(|| backend.kernel3(&cfg, &matrix).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_kernel0,
    bench_kernel1,
    bench_kernel2,
    bench_kernel3
);
criterion_main!(kernels);
