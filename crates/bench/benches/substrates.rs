//! Microbenchmarks of the substrate layers, used to attribute kernel-level
//! performance to its components (the paper's "performance predictions can
//! be made based on simple computing hardware models" angle: these numbers
//! are the model inputs).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppbench_gen::{EdgeGenerator, FeistelPermutation};
use ppbench_io::checksum::EdgeDigest;
use ppbench_io::{atoi, format, Edge};
use ppbench_prng::{Pcg32, Rng64, SeedableRng64, SplitMix64, Xoshiro256pp};
use ppbench_sparse::{eigen, ops, spmv, Coo, Csr};

const N: usize = 1 << 16;

fn bench_prng(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_prng");
    group.throughput(Throughput::Elements(N as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("xoshiro256pp", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        b.iter(|| (0..N).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add));
    });
    group.bench_function("pcg32", |b| {
        let mut rng = Pcg32::seed_from_u64(1);
        b.iter(|| (0..N).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add));
    });
    group.bench_function("splitmix64", |b| {
        let mut rng = SplitMix64::new(1);
        b.iter(|| (0..N).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add));
    });
    group.bench_function("uniform-f64", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        b.iter(|| (0..N).map(|_| rng.next_f64()).sum::<f64>());
    });
    group.finish();
}

fn bench_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_text");
    group.throughput(Throughput::Elements(N as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let values: Vec<u64> = (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    let lines: Vec<String> = values.iter().map(|v| format!("{v}\t{v}")).collect();

    group.bench_function("format-handrolled", |b| {
        let mut buf = Vec::with_capacity(N * 24);
        b.iter(|| {
            buf.clear();
            for &v in &values {
                format::encode_line(Edge::new(v, v), &mut buf);
            }
            buf.len()
        });
    });
    group.bench_function("format-std", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &v in &values {
                total += format!("{v}\t{v}\n").len();
            }
            total
        });
    });
    group.bench_function("parse-handrolled", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for line in &lines {
                let e = format::decode_line(line.as_bytes()).unwrap();
                acc = acc.wrapping_add(e.u);
            }
            acc
        });
    });
    group.bench_function("parse-std", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for line in &lines {
                let mut it = line.split('\t');
                let u: u64 = it.next().unwrap().parse().unwrap();
                let _v: u64 = it.next().unwrap().parse().unwrap();
                acc = acc.wrapping_add(u);
            }
            acc
        });
    });
    group.bench_function("atoi-roundtrip", |b| {
        let mut buf = [0u8; atoi::MAX_DIGITS];
        b.iter(|| {
            let mut acc = 0u64;
            for &v in &values {
                let len = atoi::format_u64(v, &mut buf);
                acc = acc.wrapping_add(atoi::parse_u64(&buf[..len]).unwrap());
            }
            acc
        });
    });
    group.finish();
}

fn bench_permutation_and_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_misc");
    group.throughput(Throughput::Elements(N as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("feistel-apply", |b| {
        let p = FeistelPermutation::new(20, 3);
        b.iter(|| {
            (0..N as u64)
                .map(|i| p.apply(i))
                .fold(0u64, u64::wrapping_add)
        });
    });
    group.bench_function("edge-digest", |b| {
        let edges: Vec<Edge> = (0..N as u64).map(|i| Edge::new(i, i * 3)).collect();
        b.iter(|| EdgeDigest::of_edges(&edges));
    });
    group.finish();
}

fn bench_matrix_construction(c: &mut Criterion) {
    let spec = ppbench_gen::GraphSpec::new(12, 8);
    let mut edges = ppbench_gen::Kronecker::new(spec, 4).edges();
    ppbench_sort::radix_sort(&mut edges, ppbench_sort::SortKey::Start);
    let tuples: Vec<(u64, u64)> = edges.iter().map(|e| (e.u, e.v)).collect();
    let mut group = c.benchmark_group("substrate_matrix");
    group.throughput(Throughput::Elements(tuples.len() as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("csr-from-sorted-edges", |b| {
        b.iter(|| Csr::<u64>::from_sorted_edge_iter(spec.num_vertices(), tuples.iter().copied()));
    });
    group.bench_function("csr-via-coo", |b| {
        b.iter(|| Coo::<u64>::from_edges(spec.num_vertices(), tuples.iter().copied()).compress());
    });
    let counts = Csr::<u64>::from_sorted_edge_iter(spec.num_vertices(), tuples.iter().copied());
    group.bench_function("normalize-rows", |b| {
        b.iter(|| ops::normalize_rows(counts.clone()))
    });
    group.bench_function("transpose", |b| {
        let a = ops::normalize_rows(counts.clone());
        b.iter(|| a.transpose());
    });
    group.finish();
}

fn bench_eigensolver(c: &mut Criterion) {
    let spec = ppbench_gen::GraphSpec::new(10, 8);
    let mut edges = ppbench_gen::Kronecker::new(spec, 4).edges();
    ppbench_sort::radix_sort(&mut edges, ppbench_sort::SortKey::Start);
    let tuples: Vec<(u64, u64)> = edges.iter().map(|e| (e.u, e.v)).collect();
    let counts = Csr::<u64>::from_sorted_edge_iter(spec.num_vertices(), tuples.iter().copied());
    let a = ops::normalize_rows(ops::add_diagonal_to_empty_rows(counts, 1));
    let at = a.transpose();
    let mut group = c.benchmark_group("substrate_eigen");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for iters in [20usize, 100] {
        group.bench_function(BenchmarkId::new("power-iteration", iters), |b| {
            b.iter(|| {
                let start = vec![1.0 / spec.num_vertices() as f64; spec.num_vertices() as usize];
                eigen::power_iteration(|v| spmv::mxv(&at, v), &start, iters, 0.0)
            });
        });
    }
    group.finish();
}

criterion_group!(
    substrates,
    bench_prng,
    bench_text,
    bench_permutation_and_digest,
    bench_matrix_construction,
    bench_eigensolver
);
criterion_main!(substrates);
