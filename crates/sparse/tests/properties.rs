//! Property-based tests for the sparse linear algebra substrate.

use ppbench_sparse::{dense::Dense, eigen, graphblas, ops, spmv, vector, Coo, Csr, Csr32};
use proptest::prelude::*;

/// Strategy: a random small matrix as raw triplets (duplicates allowed).
fn arb_triplets(n: u64, max_nnz: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0..n, 0..n, 1u64..5), 0..max_nnz)
}

/// Strategy: hub-skewed triplets — vertex 0 appears in well over half the
/// endpoints, so nnz-per-row is wildly unbalanced (the power-law shape the
/// balanced partitioner exists for). The empty vector is included, and
/// all-dangling rows fall out whenever a row never appears as a source.
fn arb_skewed_triplets(n: u64, max_nnz: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    let endpoint = move || (0u64..5, 0..n).prop_map(|(pick, v)| if pick < 3 { 0 } else { v });
    proptest::collection::vec((endpoint(), endpoint(), 1u64..5), 0..max_nnz)
}

fn build(n: u64, triplets: &[(u64, u64, u64)]) -> Csr<u64> {
    let mut coo = Coo::new(n, n);
    for &(r, c, v) in triplets {
        coo.push(r, c, v);
    }
    coo.compress()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Construction preserves the total value mass (the kernel-2 invariant:
    /// "all the entries in A should sum to M").
    #[test]
    fn compress_preserves_value_sum(triplets in arb_triplets(16, 100)) {
        let total: u64 = triplets.iter().map(|t| t.2).sum();
        let a = build(16, &triplets);
        prop_assert_eq!(a.value_sum(), total);
        a.check_invariants().unwrap();
    }

    /// Kernel 2's staged construction equals the COO assembly on any
    /// start-sorted edge list — ends unordered within a row, duplicates,
    /// hub rows, empty rows and the empty list included.
    #[test]
    fn sorted_edge_iter_matches_coo(triplets in arb_skewed_triplets(16, 120)) {
        let mut edges: Vec<(u64, u64)> = triplets.iter().map(|t| (t.0, t.1)).collect();
        edges.sort_by_key(|&(u, _)| u);
        let streamed = Csr::<u64>::from_sorted_edge_iter(16, edges.iter().copied());
        streamed.check_invariants().unwrap();
        prop_assert_eq!(streamed, Coo::<u64>::from_edges(16, edges).compress());
    }

    /// Transposition is an involution and preserves all entries.
    #[test]
    fn transpose_involution(triplets in arb_triplets(12, 80)) {
        let a = build(12, &triplets);
        let t = a.transpose();
        t.check_invariants().unwrap();
        prop_assert_eq!(t.transpose(), a.clone());
        prop_assert_eq!(a.nnz(), t.nnz());
        for (r, c, v) in a.iter() {
            prop_assert_eq!(t.get(c, r), Some(v));
        }
    }

    /// Sparse vxm agrees with the dense oracle on arbitrary matrices.
    #[test]
    fn vxm_matches_dense(
        triplets in arb_triplets(10, 60),
        x in proptest::collection::vec(-10.0f64..10.0, 10),
    ) {
        let a = build(10, &triplets).map(|_, _, v| v as f64);
        let d = Dense::from_csr(&a);
        let sparse_result = spmv::vxm(&x, &a);
        let dense_result = d.vec_mat(&x);
        for i in 0..10 {
            prop_assert!((sparse_result[i] - dense_result[i]).abs() < 1e-9);
        }
    }

    /// Scatter (`x * A`) and gather over the transpose (`Aᵀ * x`) agree.
    #[test]
    fn spmv_forms_agree(
        triplets in arb_triplets(10, 60),
        x in proptest::collection::vec(-1.0f64..1.0, 10),
    ) {
        let a = build(10, &triplets).map(|_, _, v| v as f64);
        let at = a.transpose();
        let scatter = spmv::vxm(&x, &a);
        let gather = spmv::mxv(&at, &x);
        for i in 0..10 {
            prop_assert!((scatter[i] - gather[i]).abs() < 1e-10);
        }
    }

    /// Row normalization produces rows summing to 1 (or staying empty), and
    /// column zeroing really empties the flagged columns.
    #[test]
    fn kernel2_style_ops(triplets in arb_triplets(12, 80), flag in 0u64..12) {
        let a = build(12, &triplets);
        let mask: Vec<bool> = (0..12).map(|c| c == flag).collect();
        let zeroed = ops::zero_columns(a, &mask);
        prop_assert_eq!(ops::col_sums(&zeroed)[flag as usize], 0);
        let norm = ops::normalize_rows(zeroed);
        for (r, &s) in ops::row_sums(&norm).iter().enumerate() {
            if norm.row_nnz(r as u64) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
            } else {
                prop_assert_eq!(s, 0.0);
            }
        }
    }

    /// col_sums equals row_sums of the transpose.
    #[test]
    fn col_sums_are_transposed_row_sums(triplets in arb_triplets(9, 50)) {
        let a = build(9, &triplets);
        prop_assert_eq!(ops::col_sums(&a), ops::row_sums(&a.transpose()));
    }

    /// mxm over PlusTimes agrees with the dense matrix product for
    /// arbitrary sparse operands.
    #[test]
    fn mxm_matches_dense(
        ta in arb_triplets(8, 40),
        tb in arb_triplets(8, 40),
    ) {
        let a = build(8, &ta).map(|_, _, v| v as f64);
        let b = build(8, &tb).map(|_, _, v| v as f64);
        let c = graphblas::mxm::<graphblas::PlusTimes>(&a, &b);
        c.check_invariants().unwrap();
        let da = Dense::from_csr(&a);
        let db = Dense::from_csr(&b);
        for i in 0..8u64 {
            for j in 0..8u64 {
                let expect: f64 = (0..8)
                    .map(|k| da.get(i as usize, k) * db.get(k, j as usize))
                    .sum();
                let got = c.get(i, j).unwrap_or(0.0);
                prop_assert!((got - expect).abs() < 1e-9, "C[{i},{j}] {got} vs {expect}");
            }
        }
    }

    /// Triangle counting is invariant under vertex relabeling.
    #[test]
    fn triangle_count_relabel_invariant(
        pairs in proptest::collection::vec((0u64..10, 0u64..10), 0..40),
        seed: u64,
    ) {
        use ppbench_sparse::graphblas::triangle_count;
        // Undirected simple graph from the pairs.
        let mut set = std::collections::BTreeSet::new();
        for &(a, b) in &pairs {
            if a != b {
                set.insert((a.min(b), a.max(b)));
            }
        }
        let symmetric = |edges: &std::collections::BTreeSet<(u64, u64)>| {
            let mut coo = Coo::<bool>::new(10, 10);
            for &(a, b) in edges {
                coo.push(a, b, true);
                coo.push(b, a, true);
            }
            coo.compress()
        };
        let base = triangle_count(&symmetric(&set));
        // Relabel through a deterministic permutation derived from seed.
        let mut perm: Vec<u64> = (0..10).collect();
        let mut state = seed | 1;
        for i in (1..10usize).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let relabeled: std::collections::BTreeSet<(u64, u64)> = set
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (perm[a as usize], perm[b as usize]);
                (x.min(y), x.max(y))
            })
            .collect();
        prop_assert_eq!(triangle_count(&symmetric(&relabeled)), base);
    }

    /// Connected components: labels are component-minimal and consistent
    /// with a union-find oracle.
    #[test]
    fn connected_components_match_union_find(
        pairs in proptest::collection::vec((0u64..24, 0u64..24), 0..60),
    ) {
        use ppbench_sparse::graphblas::connected_components;
        let n = 24u64;
        let mut coo = Coo::<bool>::new(n, n);
        for &(a, b) in &pairs {
            coo.push(a, b, true);
            coo.push(b, a, true);
        }
        let labels = connected_components(&coo.compress());
        // Union-find oracle.
        let mut parent: Vec<u64> = (0..n).collect();
        fn find(parent: &mut Vec<u64>, x: u64) -> u64 {
            if parent[x as usize] != x {
                let root = find(parent, parent[x as usize]);
                parent[x as usize] = root;
            }
            parent[x as usize]
        }
        for &(a, b) in &pairs {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb) as usize] = ra.min(rb);
            }
        }
        for v in 0..n {
            let root = find(&mut parent, v);
            // Same component ⇔ same label; label is the component minimum.
            prop_assert_eq!(labels[v as usize], labels[root as usize]);
            prop_assert!(labels[v as usize] <= v);
        }
        // Distinct components get distinct labels.
        for a in 0..n {
            for b in 0..n {
                let same_uf = find(&mut parent, a) == find(&mut parent, b);
                prop_assert_eq!(labels[a as usize] == labels[b as usize], same_uf);
            }
        }
    }

    /// Semiring PlusTimes vxm is exactly the arithmetic vxm.
    #[test]
    fn semiring_plus_times_is_arithmetic(
        triplets in arb_triplets(8, 40),
        x in proptest::collection::vec(-2.0f64..2.0, 8),
    ) {
        let a = build(8, &triplets).map(|_, _, v| v as f64);
        prop_assert_eq!(graphblas::vxm::<graphblas::PlusTimes>(&x, &a), spmv::vxm(&x, &a));
    }

    /// Balanced boundaries always partition the row range monotonically,
    /// and the chunked parallel gather inside `step_fused` (run with the
    /// identity epilogue) is bitwise identical to the serial gather — for
    /// any chunk count, on hub-skewed matrices, with wide and narrow
    /// column indices.
    #[test]
    fn balanced_gather_matches_serial_gather(
        triplets in arb_skewed_triplets(11, 90),
        x in proptest::collection::vec(-1.0f64..1.0, 11),
        chunks in 1usize..8,
    ) {
        let a = build(11, &triplets).map(|_, _, v| v as f64);
        let at = a.transpose();
        let boundaries = spmv::balanced_boundaries(at.row_ptr(), chunks);
        prop_assert_eq!(boundaries.len(), chunks + 1);
        prop_assert_eq!(boundaries[0], 0);
        prop_assert_eq!(*boundaries.last().unwrap(), 11);
        prop_assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        let serial = spmv::mxv(&at, &x);
        let identity = spmv::StepCoeffs { damping: 1.0, teleport: 0.0, spread: 0.0, sink: None };
        let mut wide = vec![0.0; 11];
        spmv::step_fused(&x, &at.view(), &mut wide, &identity, &boundaries);
        prop_assert_eq!(&wide, &serial);
        let narrow = Csr32::try_from_wide(&at).unwrap();
        let mut out32 = vec![0.0; 11];
        spmv::step_fused(&x, &narrow.view(), &mut out32, &identity, &boundaries);
        prop_assert_eq!(&out32, &serial);
    }

    /// The fused step (gather + epilogue + delta/mass accumulation in one
    /// sweep) agrees with a scalar oracle built from the serial scatter
    /// product, for arbitrary coefficient combinations — including a sink
    /// mask over the matrix's genuinely dangling rows.
    #[test]
    fn step_fused_matches_scatter_oracle(
        triplets in arb_skewed_triplets(9, 70),
        x in proptest::collection::vec(0.0f64..1.0, 9),
        damping in 0.05f64..0.99,
        teleport in 0.0f64..0.1,
        spread in 0.0f64..0.1,
        use_sink: bool,
        chunks in 1usize..6,
    ) {
        let a = ops::normalize_rows(build(9, &triplets));
        let at = a.transpose();
        let mask = ops::empty_rows(&a);
        let coeffs = spmv::StepCoeffs {
            damping,
            teleport,
            spread: if use_sink { 0.0 } else { spread },
            sink: use_sink.then_some(mask.as_slice()),
        };
        // Scalar oracle over the scatter product.
        let prod = spmv::vxm(&x, &a);
        let mut expect = [0.0; 9];
        let (mut exp_delta, mut exp_mass) = (0.0f64, 0.0f64);
        for v in 0..9usize {
            let mut val = damping * prod[v] + coeffs.teleport + coeffs.spread;
            if use_sink && mask[v] {
                val += damping * x[v];
            }
            exp_delta += (val - x[v]).abs();
            exp_mass += val;
            expect[v] = val;
        }
        let boundaries = spmv::balanced_boundaries(at.row_ptr(), chunks);
        let mut out = vec![0.0; 9];
        let got = spmv::step_fused(&x, &at.view(), &mut out, &coeffs, &boundaries);
        for v in 0..9 {
            prop_assert!((out[v] - expect[v]).abs() < 1e-12, "entry {v}: {} vs {}", out[v], expect[v]);
        }
        prop_assert!((got.delta - exp_delta).abs() < 1e-12, "delta {} vs {exp_delta}", got.delta);
        prop_assert!((got.mass - exp_mass).abs() < 1e-12, "mass {} vs {exp_mass}", got.mass);
    }

    /// Power iteration on the *damped* PageRank operator converges to a
    /// fixpoint with eigenvalue 1 for any graph without dangling rows.
    /// (The undamped chain can be periodic — e.g. a 2-cycle — which is
    /// exactly why PageRank adds the `(1−c)/N` teleport term.)
    #[test]
    fn damped_power_iteration_fixpoint(triplets in arb_triplets(8, 60)) {
        let counts = build(8, &triplets);
        // Dangling rows leak mass and drop the eigenvalue below 1; the
        // benchmark tolerates that, but this property wants the clean case.
        prop_assume!((0..8).all(|r| counts.row_nnz(r) > 0));
        let a = ops::normalize_rows(counts);
        let at = a.transpose();
        let c = 0.85;
        let r = eigen::pagerank_eigenvector(&at, c, 5000, 1e-13);
        prop_assert!(r.converged);
        prop_assert!((r.eigenvalue - 1.0).abs() < 1e-6, "eigenvalue {}", r.eigenvalue);
        // Fixpoint under the damped operator.
        let mut image = spmv::mxv(&at, &r.vector);
        let shift = (1.0 - c) / 8.0 * vector::sum(&r.vector);
        for x in image.iter_mut() {
            *x = *x * c + shift;
        }
        prop_assert!(vector::l1_distance(&image, &r.vector) < 1e-6);
    }
}

/// Strategy: a count matrix of any shape up to 7×7 — 0×0, 0×n and n×0
/// included — with duplicates accumulated and any row possibly empty.
fn arb_shaped_counts() -> impl Strategy<Value = Csr<u64>> {
    let raw = proptest::collection::vec((0u64..64, 0u64..64, 1u64..5), 0..40);
    (0u64..8, 0u64..8, raw).prop_map(|(rows, cols, raw)| {
        let mut coo = Coo::new(rows, cols);
        if rows > 0 && cols > 0 {
            for (r, c, v) in raw {
                coo.push(r % rows, c % cols, v);
            }
        }
        coo.compress()
    })
}

/// The copying form of `A(:, mask) = 0`: every surviving entry through a
/// triplet list and `Coo::compress`.
fn copied_zero_columns(a: &Csr<u64>, mask: &[bool]) -> Csr<u64> {
    let mut coo = Coo::new(a.rows(), a.cols());
    for (r, c, v) in a.iter().filter(|&(_, c, _)| !mask[c as usize]) {
        coo.push(r, c, v);
    }
    coo.compress()
}

/// The copying form of row normalization, with the formula kernel 2 has
/// always used: `v as f64 / dout as f64`.
fn copied_normalize(a: &Csr<u64>) -> Csr<f64> {
    let dout = ops::row_sums(a);
    let mut coo = Coo::new(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        coo.push(r, c, v as f64 / dout[r as usize] as f64);
    }
    coo.compress()
}

/// The copying form of the diagonal repair: a unit entry on the diagonal
/// of every empty row that has one.
fn copied_diagonal_repair(a: &Csr<u64>) -> Csr<u64> {
    let empty = ops::empty_rows(a);
    let mut coo = Coo::new(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        coo.push(r, c, v);
    }
    for i in 0..a.rows().min(a.cols()) {
        if empty[i as usize] {
            coo.push(i, i, 1);
        }
    }
    coo.compress()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Kernel 2's in-place steps equal their copying forms bit for bit,
    /// on every shape: column zeroing under any mask, row normalization,
    /// the diagonal repair, and all three chained as kernel 2 chains them.
    #[test]
    fn in_place_kernel2_steps_equal_their_copying_forms(
        a in arb_shaped_counts(),
        bits: u64,
    ) {
        let mask: Vec<bool> = (0..a.cols()).map(|c| (bits >> c) & 1 == 1).collect();
        let zeroed = ops::zero_columns(a.clone(), &mask);
        zeroed.check_invariants().unwrap();
        prop_assert_eq!(&zeroed, &copied_zero_columns(&a, &mask));

        let normalized = ops::normalize_rows(a.clone());
        prop_assert!(same_bits(&normalized, &copied_normalize(&a)));

        let repaired = ops::add_diagonal_to_empty_rows(a.clone(), 1);
        repaired.check_invariants().unwrap();
        prop_assert_eq!(&repaired, &copied_diagonal_repair(&a));

        let chained = ops::normalize_rows(ops::add_diagonal_to_empty_rows(zeroed, 1));
        let reference =
            copied_normalize(&copied_diagonal_repair(&copied_zero_columns(&a, &mask)));
        prop_assert!(same_bits(&chained, &reference));
    }

    /// The counting-sort transpose straight into `u32` columns equals the
    /// wide transpose narrowed afterwards, on every shape.
    #[test]
    fn try_transpose_equals_narrowed_wide_transpose(a in arb_shaped_counts()) {
        let a = a.map(|_, _, v| v as f64 / 3.0);
        prop_assert_eq!(Csr32::try_transpose(&a), Csr32::try_from_wide(&a.transpose()));
    }
}

#[test]
fn in_place_kernel2_steps_on_the_degenerate_shapes() {
    let all_ones = |rows: u64, cols: u64| {
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                coo.push(r, c, r + c + 1);
            }
        }
        coo.compress()
    };
    let cases = [
        Csr::<u64>::zero(0, 0),
        Csr::<u64>::zero(5, 5),
        Csr::<u64>::zero(3, 0),
        all_ones(4, 4),
        all_ones(2, 5),
    ];
    for a in cases {
        let shape = (a.rows(), a.cols());
        for mask in [
            vec![false; a.cols() as usize],
            vec![true; a.cols() as usize],
        ] {
            let zeroed = ops::zero_columns(a.clone(), &mask);
            assert_eq!(zeroed, copied_zero_columns(&a, &mask), "{shape:?}");
            if mask.iter().all(|&m| m) {
                assert_eq!(zeroed.nnz(), 0, "{shape:?}: all columns masked");
            }
            let repaired = ops::add_diagonal_to_empty_rows(zeroed.clone(), 1);
            assert_eq!(repaired, copied_diagonal_repair(&zeroed), "{shape:?}");
            let normalized = ops::normalize_rows(repaired.clone());
            assert!(
                same_bits(&normalized, &copied_normalize(&repaired)),
                "{shape:?}"
            );
            assert_eq!(
                Csr32::try_transpose(&normalized),
                Csr32::try_from_wide(&normalized.transpose()),
                "{shape:?}"
            );
        }
    }
    // More than 2^32 columns: refused before the 2^33 + 1 row pointers of
    // the transpose are allocated.
    assert!(Csr32::try_transpose(&Csr::<f64>::zero(1, 1 << 33)).is_none());
}
