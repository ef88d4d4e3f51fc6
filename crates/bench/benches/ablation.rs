//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * kernel-1 sort algorithm (radix vs counting vs comparison vs parallel
//!   vs out-of-core);
//! * kernel-3 SpMV form (CSR scatter vs CSC gather);
//! * kernel-0 generator (Kronecker vs PPL vs Erdős–Rényi) and the cost of
//!   the vertex permutation / edge shuffle options;
//! * file-count choice for the edge writer (the spec's free parameter).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppbench_gen::{EdgeGenerator, GeneratorKind, GraphSpec, Kronecker};
use ppbench_io::tempdir::TempDir;
use ppbench_io::{Edge, EdgeEncoding, EdgeReader, EdgeWriter, SortState};
use ppbench_sort::{Algorithm, ExternalSorter, SortKey};
use ppbench_sparse::{ops, spmv, Csr};

const SCALE: u32 = 12;
const EDGE_FACTOR: u64 = 16;

fn test_edges() -> (GraphSpec, Vec<Edge>) {
    let spec = GraphSpec::new(SCALE, EDGE_FACTOR);
    (spec, Kronecker::new(spec, 99).edges())
}

fn bench_sort_algorithms(c: &mut Criterion) {
    let (spec, edges) = test_edges();
    let mut group = c.benchmark_group("ablation_sort_algorithm");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for alg in Algorithm::ALL {
        group.bench_function(BenchmarkId::from_parameter(alg.name()), |b| {
            b.iter_batched(
                || edges.clone(),
                |mut v| {
                    alg.sort(&mut v, SortKey::Start, Some(spec.num_vertices()));
                    v
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    // Out-of-core with a budget forcing ~8 runs.
    group.bench_function("external-8runs", |b| {
        let td = TempDir::new("bench-extsort").unwrap();
        let budget = edges.len() / 8;
        b.iter(|| {
            let sorter = ExternalSorter::new(td.path(), budget, SortKey::Start).unwrap();
            let mut writer = sorter.run_writer().unwrap();
            for &e in &edges {
                writer.push(e).unwrap();
            }
            let mut n = 0usize;
            let runs = writer.finish().unwrap();
            runs.for_each_batch(|batch| {
                n += batch.len();
                Ok(())
            })
            .unwrap();
            n
        });
    });
    group.finish();
}

fn build_matrix() -> Csr<f64> {
    let (spec, mut edges) = test_edges();
    ppbench_sort::radix_sort(&mut edges, SortKey::Start);
    let tuples: Vec<(u64, u64)> = edges.iter().map(|e| (e.u, e.v)).collect();
    let counts = Csr::<u64>::from_sorted_edge_iter(spec.num_vertices(), tuples.iter().copied());
    ops::normalize_rows(counts)
}

fn bench_spmv_forms(c: &mut Criterion) {
    let a = build_matrix();
    let at = a.transpose();
    let n = a.rows() as usize;
    let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let mut group = c.benchmark_group("ablation_spmv_form");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("csr-scatter", |b| b.iter(|| spmv::vxm(&x, &a)));
    group.bench_function("csc-gather", |b| b.iter(|| spmv::mxv(&at, &x)));
    group.bench_function("gather-including-transpose", |b| {
        // What it costs if the transpose is NOT amortized across iterations.
        b.iter(|| spmv::mxv(&a.transpose(), &x))
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let spec = GraphSpec::new(SCALE, EDGE_FACTOR);
    let mut group = c.benchmark_group("ablation_generator");
    group.throughput(Throughput::Elements(spec.num_edges()));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for kind in GeneratorKind::ALL {
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            let generator = kind.build(spec, 5);
            b.iter(|| generator.edges());
        });
    }
    group.bench_function("kronecker-no-permute", |b| {
        let g = Kronecker::new(spec, 5).without_vertex_permutation();
        b.iter(|| g.edges());
    });
    group.bench_function("kronecker-shuffled", |b| {
        let g = Kronecker::new(spec, 5).with_edge_shuffle();
        b.iter(|| g.edges());
    });
    group.bench_function("kronecker-parallel", |b| {
        let g = Kronecker::new(spec, 5);
        b.iter(|| g.edges_parallel(1 << 12));
    });
    group.finish();
}

fn bench_file_count(c: &mut Criterion) {
    let (spec, edges) = test_edges();
    let mut group = c.benchmark_group("ablation_file_count");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for files in [1usize, 4, 16, 64] {
        group.bench_function(BenchmarkId::from_parameter(files), |b| {
            b.iter(|| {
                let td = TempDir::new("bench-files").unwrap();
                let mut w =
                    EdgeWriter::create(td.path(), "edges", files, edges.len() as u64).unwrap();
                w.write_all(&edges).unwrap();
                w.finish(
                    Some(spec.scale()),
                    Some(spec.num_vertices()),
                    SortState::Unsorted,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_encoding(c: &mut Criterion) {
    // How much of the file kernels' cost is the spec's decimal text
    // encoding itself? Round-trip the same edges through text and binary.
    let (spec, edges) = test_edges();
    let mut group = c.benchmark_group("ablation_encoding");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for encoding in [EdgeEncoding::Text, EdgeEncoding::Binary] {
        let label = match encoding {
            EdgeEncoding::Text => "text-roundtrip",
            EdgeEncoding::Binary => "binary-roundtrip",
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let td = TempDir::new("bench-encoding").unwrap();
                let mut w = EdgeWriter::create_with_encoding(
                    td.path(),
                    "edges",
                    1,
                    edges.len() as u64,
                    encoding,
                )
                .unwrap();
                w.write_all(&edges).unwrap();
                w.finish(
                    Some(spec.scale()),
                    Some(spec.num_vertices()),
                    SortState::Unsorted,
                )
                .unwrap();
                let (_, got) = EdgeReader::read_dir_all(td.path()).unwrap();
                got.len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    ablation,
    bench_sort_algorithms,
    bench_spmv_forms,
    bench_generators,
    bench_file_count,
    bench_encoding
);
criterion_main!(ablation);
