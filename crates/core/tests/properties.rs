//! Property-based tests at the pipeline level: the spec invariants must
//! hold for *every* seed, scale and option combination, not just the ones
//! the unit tests pick.

use ppbench_core::kernel2::FilterStats;
use ppbench_core::{kernel2, kernel3, Pipeline, PipelineConfig, ValidationLevel};
use ppbench_io::tempdir::TempDir;
use ppbench_sparse::{ops, spmv, Coo, Csr};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full pipeline runs and validates for arbitrary small configs.
    #[test]
    fn pipeline_validates_for_arbitrary_configs(
        scale in 3u32..7,
        edge_factor in 1u64..6,
        seed: u64,
        files in 1usize..4,
        diagonal: bool,
    ) {
        let cfg = PipelineConfig::builder()
            .scale(scale)
            .edge_factor(edge_factor)
            .seed(seed)
            .num_files(files)
            .add_diagonal_to_empty(diagonal)
            .validation(ValidationLevel::Invariants)
            .build();
        let td = TempDir::new("core-prop").unwrap();
        let result = Pipeline::new(cfg, td.path()).run().unwrap();
        prop_assert!(result.validation.unwrap().passed());
    }

    /// kernel2::filter invariants hold on arbitrary count matrices: mass
    /// accounting, row stochasticity, and the column-elimination contract.
    #[test]
    fn filter_matrix_invariants(
        triplets in proptest::collection::vec((0u64..12, 0u64..12), 0..150),
        diagonal: bool,
    ) {
        let mut coo = Coo::<u64>::new(12, 12);
        for &(u, v) in &triplets {
            coo.push(u, v, 1);
        }
        let counts = coo.compress();
        let din_before = ops::col_sums(&counts);
        let dmax = din_before.iter().copied().max().unwrap_or(0);
        let (a, stats) = kernel2::filter(counts, diagonal);

        prop_assert_eq!(stats.total_edge_count, triplets.len() as u64);
        prop_assert!(stats.nnz_before <= triplets.len());
        prop_assert_eq!(stats.max_in_degree, dmax);
        // Every row is stochastic or empty.
        for (r, &s) in ops::row_sums(&a).iter().enumerate() {
            if a.row_nnz(r as u64) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
            }
        }
        // Eliminated columns are empty (diagonal repair may repopulate the
        // diagonal entry of an eliminated column, which the spec's own
        // option permits — skip those).
        if !diagonal {
            for (c, &d) in din_before.iter().enumerate() {
                if (dmax > 0 && d == dmax) || d == 1 {
                    prop_assert_eq!(ops::col_sums(&a)[c], 0.0, "column {} survived", c);
                }
            }
            prop_assert_eq!(stats.diagonal_repairs, 0);
        } else {
            prop_assert_eq!(stats.dangling_rows, 0);
        }
    }

    /// The by-value, in-place filter equals the copying reference bit for
    /// bit, statistics included, with the diagonal repair on and off.
    #[test]
    fn filter_equals_the_copying_reference(
        triplets in proptest::collection::vec((0u64..12, 0u64..12), 0..150),
        diagonal: bool,
    ) {
        let mut coo = Coo::<u64>::new(12, 12);
        for &(u, v) in &triplets {
            coo.push(u, v, 1);
        }
        let counts = coo.compress();
        let (want, want_stats) = copying_filter(&counts, diagonal);
        let (got, got_stats) = kernel2::filter(counts, diagonal);
        prop_assert_eq!(got_stats, want_stats);
        prop_assert!(same_bits(&got, &want));
    }

    /// PageRank update properties for arbitrary stochastic matrices: mass
    /// conservation (no dangling rows), positivity, and linearity.
    #[test]
    fn pagerank_step_properties(
        triplets in proptest::collection::vec((0u64..8, 0u64..8), 8..80),
        seed: u64,
        damping in 0.05f64..0.95,
    ) {
        let mut coo = Coo::<u64>::new(8, 8);
        for &(u, v) in &triplets {
            coo.push(u, v, 1);
        }
        let counts = coo.compress();
        prop_assume!((0..8).all(|r| counts.row_nnz(r) > 0));
        let a: Csr<f64> = ops::normalize_rows(counts);
        let r0 = kernel3::init_ranks(8, seed);
        let r1 = kernel3::step(&r0, |x| spmv::vxm(x, &a), damping);
        let mass0: f64 = r0.iter().sum();
        let mass1: f64 = r1.iter().sum();
        prop_assert!((mass0 - mass1).abs() < 1e-9, "mass {mass0} -> {mass1}");
        prop_assert!(r1.iter().all(|&x| x > 0.0), "teleport keeps ranks positive");
    }

    /// Rank-order utilities: tau is symmetric, reflexive and bounded for
    /// arbitrary vectors.
    #[test]
    fn kendall_tau_axioms(
        a in proptest::collection::vec(0.0f64..1.0, 2..60),
        shift in 0.0f64..0.5,
    ) {
        use ppbench_core::rank::kendall_tau;
        let n = a.len();
        let b: Vec<f64> = a.iter().rev().map(|x| x + shift).collect();
        let tau_ab = kendall_tau(&a, &b);
        let tau_ba = kendall_tau(&b, &a);
        prop_assert!((tau_ab - tau_ba).abs() < 1e-12, "symmetry");
        prop_assert!((-1.0..=1.0).contains(&tau_ab));
        prop_assert_eq!(kendall_tau(&a, &a), 1.0, "reflexivity");
        // Monotone transforms preserve the ordering entirely.
        let scaled: Vec<f64> = a.iter().map(|x| 3.0 * x + 1.0).collect();
        prop_assert_eq!(kendall_tau(&a, &scaled), 1.0);
        let _ = n;
    }

    /// The balanced-fused kernel-3 path (what the parallel backend runs)
    /// agrees with the serial scatter oracle within 1e-12 under every
    /// dangling strategy, for arbitrary hub-skewed matrices and chunk
    /// counts — and the narrow-index form is bit-identical to the wide one.
    #[test]
    fn fused_pagerank_matches_serial_oracle(
        triplets in proptest::collection::vec(
            ((0u64..5, 0u64..10).prop_map(|(p, v)| if p < 3 { 0 } else { v }),
             (0u64..5, 0u64..10).prop_map(|(p, v)| if p < 3 { 0 } else { v })),
            0..80,
        ),
        seed: u64,
        chunks in 1usize..5,
    ) {
        let n = 10u64;
        let mut coo = Coo::<u64>::new(n, n);
        for &(u, v) in &triplets {
            coo.push(u, v, 1);
        }
        let a = ops::normalize_rows(coo.compress());
        prop_assert!(check_fused_against_oracle(&a, seed, chunks) < 1e-12);
    }
}

/// Runs both kernel-3 paths on `a` under all three dangling strategies and
/// returns the worst L1 gap; panics if narrow and wide fused results ever
/// differ bitwise.
fn check_fused_against_oracle(a: &Csr<f64>, seed: u64, chunks: usize) -> f64 {
    use ppbench_core::kernel3::{DanglingInfo, DanglingStrategy, PageRankOptions};
    use ppbench_sparse::{vector, Csr32};

    let at = a.transpose();
    let narrow = Csr32::try_from_wide(&at).unwrap();
    let mask = ops::empty_rows(a);
    let info = DanglingInfo::from_mask(&mask);
    let boundaries = spmv::balanced_boundaries(at.row_ptr(), chunks);
    let mut worst = 0.0f64;
    for strategy in [
        DanglingStrategy::Omit,
        DanglingStrategy::Redistribute,
        DanglingStrategy::Sink,
    ] {
        let opts = PageRankOptions {
            damping: 0.85,
            max_iterations: 12,
            dangling: strategy,
            tolerance: None,
        };
        let r0 = kernel3::init_ranks(a.rows(), seed);
        let oracle = kernel3::run_into(
            r0.clone(),
            kernel3::serial_stepper(|x| spmv::vxm(x, a)),
            &info,
            &opts,
        );
        let fused = kernel3::run_into(
            r0.clone(),
            |r, next, coeffs| spmv::step_fused(r, &narrow.view(), next, coeffs, &boundaries),
            &info,
            &opts,
        );
        let wide = kernel3::run_into(
            r0,
            |r, next, coeffs| spmv::step_fused(r, &at.view(), next, coeffs, &boundaries),
            &info,
            &opts,
        );
        assert_eq!(wide.ranks, fused.ranks, "u32/u64 fused paths diverged");
        worst = worst.max(vector::l1_distance(&fused.ranks, &oracle.ranks));
    }
    worst
}

/// The degenerate shapes the fuzzer only hits by luck, pinned explicitly:
/// the empty matrix (every row dangling), a single hub that every vertex
/// points at (the hub itself dangling), and a zero-vertex matrix.
#[test]
fn fused_pagerank_edge_shapes() {
    // All-dangling: no edges at all.
    let empty = ops::normalize_rows(Coo::<u64>::new(8, 8).compress());
    // Single hub: every other vertex points only at vertex 0.
    let mut coo = Coo::<u64>::new(8, 8);
    for v in 1..8 {
        coo.push(v, 0, 1);
    }
    let hub = ops::normalize_rows(coo.compress());
    // Zero vertices: nothing to rank, nothing to crash on.
    let none = ops::normalize_rows(Coo::<u64>::new(0, 0).compress());
    for (name, m) in [
        ("all-dangling", empty),
        ("single-hub", hub),
        ("empty", none),
    ] {
        for chunks in [1, 3] {
            let gap = check_fused_against_oracle(&m, 42, chunks);
            assert!(gap < 1e-12, "{name} with {chunks} chunks: L1 gap {gap}");
        }
    }
}

/// Kernel 2 as it was written before it worked in place: each step builds
/// a fresh matrix through a triplet list and `Coo::compress`.
fn copying_filter(counts: &Csr<u64>, diagonal: bool) -> (Csr<f64>, FilterStats) {
    let din = ops::col_sums(counts);
    let dmax = din.iter().copied().max().unwrap_or(0);
    let supernode = |d: u64| dmax > 0 && d == dmax;
    let (rows, cols) = (counts.rows(), counts.cols());
    let mut kept = Coo::new(rows, cols);
    for (r, c, v) in counts.iter() {
        let d = din[c as usize];
        if !(supernode(d) || d == 1) {
            kept.push(r, c, v);
        }
    }
    let kept = kept.compress();
    let empty = ops::empty_rows(&kept);
    let mut repaired = Coo::new(rows, cols);
    for (r, c, v) in kept.iter() {
        repaired.push(r, c, v);
    }
    let mut diagonal_repairs = 0;
    if diagonal {
        for i in (0..rows.min(cols)).filter(|&i| empty[i as usize]) {
            repaired.push(i, i, 1);
            diagonal_repairs += 1;
        }
    }
    let repaired = repaired.compress();
    let dout = ops::row_sums(&repaired);
    let mut normalized = Coo::new(rows, cols);
    for (r, c, v) in repaired.iter() {
        normalized.push(r, c, v as f64 / dout[r as usize] as f64);
    }
    let a = normalized.compress();
    let stats = FilterStats {
        total_edge_count: counts.value_sum(),
        nnz_before: counts.nnz(),
        max_in_degree: dmax,
        supernode_columns: din.iter().filter(|&&d| supernode(d)).count() as u64,
        leaf_columns: din.iter().filter(|&&d| d == 1).count() as u64,
        nnz_after: a.nnz(),
        dangling_rows: ops::empty_rows(&a).iter().filter(|&&e| e).count() as u64,
        diagonal_repairs,
    };
    (a, stats)
}

/// Same shape, same structure, and the same bits in every value.
fn same_bits(a: &Csr<f64>, b: &Csr<f64>) -> bool {
    (a.rows(), a.cols()) == (b.rows(), b.cols())
        && a.row_ptr() == b.row_ptr()
        && a.col_indices() == b.col_indices()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn filter_equals_the_copying_reference_on_degenerate_matrices() {
    // Every column a leaf: one entry each, so all of them are masked.
    let mut leaves = Coo::<u64>::new(6, 6);
    for c in 0..6 {
        leaves.push((c + 1) % 6, c, 1);
    }
    // Two hubs tie for the maximum in-degree; rows 3..8 stay empty.
    let mut hubs = Coo::<u64>::new(8, 8);
    for r in 0..3 {
        hubs.push(r, 0, 2);
        hubs.push(r, 1, 2);
        hubs.push(r, 2, 1);
        hubs.push(r, 4, 1);
    }
    let cases = [
        ("0x0", Csr::<u64>::zero(0, 0)),
        ("empty 7x7", Csr::<u64>::zero(7, 7)),
        ("all columns masked", leaves.compress()),
        ("tied hubs, empty rows", hubs.compress()),
    ];
    for (name, counts) in cases {
        for diagonal in [false, true] {
            let (want, want_stats) = copying_filter(&counts, diagonal);
            let (got, got_stats) = kernel2::filter(counts.clone(), diagonal);
            assert_eq!(got_stats, want_stats, "{name}, diagonal {diagonal}");
            assert!(same_bits(&got, &want), "{name}, diagonal {diagonal}");
            let (borrowed, borrowed_stats) = kernel2::filter_matrix(&counts, diagonal);
            assert_eq!(borrowed_stats, want_stats, "{name}: filter_matrix");
            assert!(same_bits(&borrowed, &want), "{name}: filter_matrix");
        }
    }
}
