//! Kernel 3 — PageRank: shared mathematical steps.
//!
//! From the spec (§IV.D and the appendix):
//!
//! ```text
//! r = rand(1, N);  r = r ./ norm(r, 1);
//! for 20 iterations:
//!     r = ((c .* r) * A) + ((1 - c) .* sum(r, 2) ./ N)
//! ```
//!
//! The §IV.D body of the paper drops the `./ N` when "simplifying"; the
//! appendix and the definition of the damping vector
//! `a = ones(1,N).*(1-c)./N` both retain it. We implement the appendix form
//! (the correct stochastic update) and note the discrepancy in
//! EXPERIMENTS.md.
//!
//! Every backend calls [`init_ranks`] with the same derived seed, so all
//! four produce comparable rank vectors; what differs is the
//! implementation of the `r * A` product, supplied as a closure.
//!
//! # The hot path
//!
//! The iteration driver is [`run_into`]: two rank buffers allocated once
//! and ping-ponged (`std::mem::swap`) with zero O(N) allocation per
//! iteration, a dangling-row **index list** precomputed once
//! ([`DanglingInfo`]) instead of a bool-mask scan per iteration, and the
//! running mass carried from one iteration's epilogue into the next
//! iteration's teleport term instead of re-summing the rank vector. The
//! backend supplies a *stepper* closure that writes the new ranks into the
//! provided buffer and reports the L1 delta and new mass — the serial
//! backends wrap a plain multiply via [`apply_epilogue`]; the parallel
//! backend plugs in `ppbench_sparse::spmv::step_fused`, which does
//! multiply + epilogue + delta in one sweep.
//!
//! The serial path is bit-identical to the historical allocate-per-step
//! loop (kept as the test module's reference): the carried mass
//! accumulates in the same flat order `vector::sum` uses, and
//! [`DanglingInfo::mass`] adds ranks in the same ascending-index order the
//! old masked scan did.

use ppbench_prng::{Rng64, SeedableRng64, SplitMix64, Xoshiro256pp};
use ppbench_sparse::vector;

pub use ppbench_sparse::spmv::{StepCoeffs, StepOutcome};

/// Derives the rank-initialization seed from the master seed (kept separate
/// from the generator's streams).
fn rank_seed(master: u64) -> u64 {
    SplitMix64::mix(master ^ 0x5241_4E4B_5345_4544) // "RANKSEED"
}

/// `r = rand(1, N); r = r ./ norm(r, 1)` — the spec's initialization.
pub fn init_ranks(n: u64, master_seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(rank_seed(master_seed));
    let mut r: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    vector::normalize_l1(&mut r);
    r
}

/// One PageRank update: `r ← c·(r·A) + (1−c)·sum(r)/N`, with the `r·A`
/// product supplied by the caller.
pub fn step(r: &[f64], multiply: impl FnOnce(&[f64]) -> Vec<f64>, damping: f64) -> Vec<f64> {
    let n = r.len() as f64;
    let teleport = (1.0 - damping) * vector::sum(r) / n;
    let mut next = multiply(r);
    for x in next.iter_mut() {
        *x = damping * *x + teleport;
    }
    next
}

/// Runs `iterations` PageRank updates from `r0` (the spec's fixed-count,
/// dangling-mass-leaking mode).
pub fn pagerank(
    r0: Vec<f64>,
    mut multiply: impl FnMut(&[f64]) -> Vec<f64>,
    damping: f64,
    iterations: u32,
) -> Vec<f64> {
    let mut r = r0;
    for _ in 0..iterations {
        r = step(&r, &mut multiply, damping);
    }
    r
}

/// How the iteration treats rows with no out-edges. The benchmark spec
/// *omits* any correction ("the additional term for the dangling nodes in
/// the iterative formulation has been omitted"); the appendix names the
/// classical alternatives, implemented here as extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DanglingStrategy {
    /// The spec: dangling mass leaks out of the system each iteration.
    #[default]
    Omit,
    /// Strongly preferential PageRank: the mass sitting on dangling rows is
    /// redistributed uniformly each iteration (`+ c·(Σ_dangling r_u)/N`),
    /// making the chain exactly stochastic.
    Redistribute,
    /// Sink PageRank: dangling rows keep their damped mass in place
    /// (equivalent to a self-loop added at iteration time rather than in
    /// the matrix).
    Sink,
}

impl DanglingStrategy {
    /// Stable name for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            DanglingStrategy::Omit => "omit",
            DanglingStrategy::Redistribute => "redistribute",
            DanglingStrategy::Sink => "sink",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "omit" => Some(Self::Omit),
            "redistribute" | "strong" => Some(Self::Redistribute),
            "sink" => Some(Self::Sink),
            _ => None,
        }
    }
}

/// Full kernel-3 options, superset of the benchmark spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankOptions {
    /// Damping factor `c`.
    pub damping: f64,
    /// Maximum iterations (the spec runs exactly this many).
    pub max_iterations: u32,
    /// Dangling-row treatment.
    pub dangling: DanglingStrategy,
    /// When set, stop early once the L1 change between iterations drops
    /// below this ("in a real application, PageRank would be run until the
    /// result passes a convergence test").
    pub tolerance: Option<f64>,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        Self {
            damping: crate::DAMPING,
            max_iterations: crate::ITERATIONS,
            dangling: DanglingStrategy::Omit,
            tolerance: None,
        }
    }
}

/// Outcome of a kernel-3 run under [`PageRankOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankRun {
    /// The final rank vector.
    pub ranks: Vec<f64>,
    /// Iterations actually performed (< `max_iterations` only when a
    /// tolerance was set and met).
    pub iterations: u32,
    /// L1 change of the final iteration.
    pub final_delta: f64,
}

/// Dangling-row structure precomputed once per run: the ascending index
/// list (what the per-iteration mass reduction walks — touching only the
/// dangling entries instead of scanning a full bool mask) plus the dense
/// mask (what the Sink epilogue and the fused kernels index by row).
#[derive(Debug, Clone)]
pub struct DanglingInfo {
    indices: Vec<usize>,
    mask: Vec<bool>,
}

impl DanglingInfo {
    /// Builds from a dense dangling-row mask (`ops::empty_rows` output).
    pub fn from_mask(mask: &[bool]) -> Self {
        let indices = mask
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(i, _)| i)
            .collect();
        Self {
            indices,
            mask: mask.to_vec(),
        }
    }

    /// The dense mask, indexed by row.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Ascending indices of the dangling rows.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of dangling rows.
    pub fn count(&self) -> usize {
        self.indices.len()
    }

    /// Total rank mass sitting on the dangling rows. Adds in ascending
    /// index order — the same addition sequence as the historical masked
    /// flat scan, so results are bit-identical to it.
    pub fn mass(&self, r: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &i in &self.indices {
            acc += r[i];
        }
        acc
    }
}

/// Builds the per-iteration [`StepCoeffs`] from the carried mass and the
/// dangling structure — the scalar prologue every stepper shares.
fn step_coeffs<'a>(
    mass: f64,
    r: &[f64],
    dangling: &'a DanglingInfo,
    opts: &PageRankOptions,
) -> StepCoeffs<'a> {
    let n = r.len() as f64;
    let c = opts.damping;
    let teleport = (1.0 - c) * mass / n;
    let (spread, sink) = match opts.dangling {
        DanglingStrategy::Omit => (0.0, None),
        DanglingStrategy::Redistribute => (c * dangling.mass(r) / n, None),
        DanglingStrategy::Sink => (0.0, Some(dangling.mask())),
    };
    StepCoeffs {
        damping: c,
        teleport,
        spread,
        sink,
    }
}

/// Applies the PageRank epilogue to a raw product in place and reports the
/// L1 delta and new mass, accumulated during the same sweep.
///
/// `next` holds `r * A` on entry and the new rank vector on exit. The
/// per-element expressions and the flat accumulation order match the
/// historical per-step loops exactly, so serial results are
/// bit-identical; in particular the delta accumulator adds in the same
/// sequence as `vector::l1_distance` and the mass accumulator in the same
/// sequence as `vector::sum`.
pub fn apply_epilogue(r: &[f64], next: &mut [f64], coeffs: &StepCoeffs<'_>) -> StepOutcome {
    let c = coeffs.damping;
    let teleport = coeffs.teleport;
    let mut delta = 0.0;
    let mut mass = 0.0;
    match coeffs.sink {
        Some(mask) => {
            for ((x, &r_u), &d) in next.iter_mut().zip(r).zip(mask) {
                let v = c * *x + teleport + if d { c * r_u } else { 0.0 };
                delta += (v - r_u).abs();
                mass += v;
                *x = v;
            }
        }
        None if coeffs.spread != 0.0 => {
            let spread = coeffs.spread;
            for (x, &r_u) in next.iter_mut().zip(r) {
                let v = c * *x + teleport + spread;
                delta += (v - r_u).abs();
                mass += v;
                *x = v;
            }
        }
        None => {
            for (x, &r_u) in next.iter_mut().zip(r) {
                let v = c * *x + teleport;
                delta += (v - r_u).abs();
                mass += v;
                *x = v;
            }
        }
    }
    StepOutcome { delta, mass }
}

/// Runs kernel 3 with a buffer-writing stepper: double-buffered rank
/// vectors (one extra allocation at setup, zero O(N) allocation per
/// iteration) and the running mass carried between iterations.
///
/// The stepper receives the current ranks, the output buffer to fill, and
/// the precomputed scalar coefficients for this iteration; it returns the
/// L1 delta and the new total mass, both of which it can accumulate during
/// its single write sweep. Serial callers build one with
/// [`serial_stepper`]; the parallel backend passes a closure over
/// `spmv::step_fused`.
///
/// In debug builds each iteration asserts the carried mass agrees with a
/// fresh `vector::sum` of the current ranks within 1e-12.
pub fn run_into(
    r0: Vec<f64>,
    mut stepper: impl FnMut(&[f64], &mut [f64], &StepCoeffs<'_>) -> StepOutcome,
    dangling: &DanglingInfo,
    opts: &PageRankOptions,
) -> PageRankRun {
    assert_eq!(
        dangling.mask.len(),
        r0.len(),
        "dangling mask length mismatch"
    );
    let mut cur = r0;
    let mut buf = vec![0.0; cur.len()];
    let mut mass = vector::sum(&cur);
    let mut delta = f64::INFINITY;
    let mut done = 0;
    for i in 1..=opts.max_iterations {
        debug_assert!(
            (mass - vector::sum(&cur)).abs() <= 1e-12,
            "carried mass {mass} drifted from fresh sum {}",
            vector::sum(&cur)
        );
        let coeffs = step_coeffs(mass, &cur, dangling, opts);
        let out = stepper(&cur, &mut buf, &coeffs);
        std::mem::swap(&mut cur, &mut buf);
        mass = out.mass;
        delta = out.delta;
        done = i;
        if opts.tolerance.is_some_and(|tol| delta < tol) {
            break;
        }
    }
    PageRankRun {
        ranks: cur,
        iterations: done,
        final_delta: delta,
    }
}

/// Adapts a plain `r * A` closure into a [`run_into`] stepper: multiply,
/// copy into the iteration buffer, apply the epilogue in place. This is
/// the path for backends whose multiply allocates its own output; it
/// reproduces the historical serial results bit for bit.
pub fn serial_stepper<M>(
    mut multiply: M,
) -> impl FnMut(&[f64], &mut [f64], &StepCoeffs<'_>) -> StepOutcome
where
    M: FnMut(&[f64]) -> Vec<f64>,
{
    move |r, next, coeffs| {
        let prod = multiply(r);
        next.copy_from_slice(&prod);
        apply_epilogue(r, next, coeffs)
    }
}

/// The L1 mass retained after a run. With no dangling rows this stays at
/// 1.0; dangling rows leak `c·(their mass)` per iteration, which the
/// benchmark tolerates (the spec explicitly omits the dangling-node
/// correction term).
pub fn rank_mass(r: &[f64]) -> f64 {
    vector::sum(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_sparse::{eigen, ops, spmv, Coo, Csr};

    /// The historical allocate-per-step update — fresh-sum teleport, masked
    /// dangling scan — that [`run_into`] must reproduce bit for bit.
    fn step_with(
        r: &[f64],
        multiply: impl FnOnce(&[f64]) -> Vec<f64>,
        dangling_rows: &[bool],
        opts: &PageRankOptions,
    ) -> Vec<f64> {
        let n = r.len() as f64;
        let c = opts.damping;
        let teleport = (1.0 - c) * vector::sum(r) / n;
        let spread = match opts.dangling {
            DanglingStrategy::Redistribute => {
                let dangling_mass: f64 = r
                    .iter()
                    .zip(dangling_rows)
                    .filter(|&(_, &d)| d)
                    .map(|(&x, _)| x)
                    .sum();
                c * dangling_mass / n
            }
            _ => 0.0,
        };
        let sink = matches!(opts.dangling, DanglingStrategy::Sink).then_some(dangling_rows);
        let coeffs = StepCoeffs {
            damping: c,
            teleport,
            spread,
            sink,
        };
        let mut next = multiply(r);
        apply_epilogue(r, &mut next, &coeffs);
        next
    }

    /// [`run_into`] the way the serial backends drive it.
    fn run(
        r0: Vec<f64>,
        multiply: impl FnMut(&[f64]) -> Vec<f64>,
        dangling_rows: &[bool],
        opts: &PageRankOptions,
    ) -> PageRankRun {
        let info = DanglingInfo::from_mask(dangling_rows);
        run_into(r0, serial_stepper(multiply), &info, opts)
    }

    fn ring(n: u64) -> Csr<f64> {
        let mut coo = Coo::<u64>::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 1);
        }
        ops::normalize_rows(coo.compress())
    }

    #[test]
    fn init_is_normalized_and_deterministic() {
        let r1 = init_ranks(100, 7);
        let r2 = init_ranks(100, 7);
        let r3 = init_ranks(100, 8);
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        assert!((vector::norm_l1(&r1) - 1.0).abs() < 1e-12);
        assert!(r1.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn mass_is_conserved_without_dangling_rows() {
        let a = ring(8);
        let r0 = init_ranks(8, 1);
        let r = pagerank(r0, |x| spmv::vxm(x, &a), 0.85, 20);
        assert!((rank_mass(&r) - 1.0).abs() < 1e-9, "mass {}", rank_mass(&r));
    }

    #[test]
    fn symmetric_ring_converges_to_uniform() {
        let a = ring(6);
        let r0 = init_ranks(6, 3);
        let r = pagerank(r0, |x| spmv::vxm(x, &a), 0.85, 200);
        for &x in &r {
            assert!((x - 1.0 / 6.0).abs() < 1e-9, "rank {x} not uniform");
        }
    }

    #[test]
    fn matches_eigenvector_of_pagerank_matrix() {
        // The paper's validation: after enough iterations, r equals the
        // dominant eigenvector of c·Aᵀ + (1−c)/N·𝟙 (L1-normalized).
        let mut coo = Coo::<u64>::new(5, 5);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (0, 3)] {
            coo.push(u, v, 1);
        }
        let a = ops::normalize_rows(coo.compress());
        let at = a.transpose();
        let r = pagerank(init_ranks(5, 2), |x| spmv::vxm(x, &a), 0.85, 300);
        let mut r_norm = r.clone();
        vector::normalize_l1(&mut r_norm);
        let eig = eigen::pagerank_eigenvector(&at, 0.85, 5000, 1e-14);
        assert!(eig.converged);
        assert!(
            vector::l1_distance(&r_norm, &eig.vector) < 1e-10,
            "iterated {r_norm:?} vs eigenvector {:?}",
            eig.vector
        );
    }

    #[test]
    fn dangling_rows_leak_mass() {
        // Single edge 0→1, vertex 1 dangles: mass decays.
        let mut coo = Coo::<u64>::new(2, 2);
        coo.push(0, 1, 1);
        let a = ops::normalize_rows(coo.compress());
        let r = pagerank(init_ranks(2, 1), |x| spmv::vxm(x, &a), 0.85, 20);
        assert!(rank_mass(&r) < 1.0);
        assert!(rank_mass(&r) > 0.0);
    }

    #[test]
    fn damping_zero_limit_is_uniform_teleport() {
        // c → 0 gives r = sum(r)/N everywhere after one step.
        let a = ring(4);
        let r0 = vec![0.4, 0.3, 0.2, 0.1];
        let r = step(&r0, |x| spmv::vxm(x, &a), 1e-12);
        for &x in &r {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn redistribute_conserves_mass_with_dangling_rows() {
        // 0→1, vertex 1 dangles.
        let mut coo = Coo::<u64>::new(2, 2);
        coo.push(0, 1, 1);
        let a = ops::normalize_rows(coo.compress());
        let dangling = [false, true];
        let opts = PageRankOptions {
            dangling: DanglingStrategy::Redistribute,
            ..Default::default()
        };
        let out = run(init_ranks(2, 1), |x| spmv::vxm(x, &a), &dangling, &opts);
        assert_eq!(out.iterations, 20);
        assert!(
            (rank_mass(&out.ranks) - 1.0).abs() < 1e-12,
            "strongly preferential PageRank conserves mass: {}",
            rank_mass(&out.ranks)
        );
    }

    #[test]
    fn sink_strategy_conserves_mass_and_favors_sinks() {
        let mut coo = Coo::<u64>::new(3, 3);
        coo.push(0, 1, 1);
        coo.push(0, 2, 1);
        coo.push(1, 2, 1); // vertex 2 is a sink
        let a = ops::normalize_rows(coo.compress());
        let dangling = [false, false, true];
        let opts = PageRankOptions {
            dangling: DanglingStrategy::Sink,
            max_iterations: 100,
            ..Default::default()
        };
        let out = run(init_ranks(3, 1), |x| spmv::vxm(x, &a), &dangling, &opts);
        assert!((rank_mass(&out.ranks) - 1.0).abs() < 1e-12);
        assert!(
            out.ranks[2] > out.ranks[0] && out.ranks[2] > out.ranks[1],
            "the sink should accumulate the most mass: {:?}",
            out.ranks
        );
    }

    #[test]
    fn sink_equals_diagonal_repair_in_the_matrix() {
        // Adding self-loops in the matrix (the §V kernel-2 repair) and the
        // Sink strategy at iteration time are the same Markov chain.
        let mut coo = Coo::<u64>::new(4, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            coo.push(u, v, 1);
        }
        let counts = coo.compress();
        let plain = ops::normalize_rows(counts.clone());
        let dangling = ops::empty_rows(&plain);
        let repaired = ops::normalize_rows(ops::add_diagonal_to_empty_rows(counts, 1));
        let opts_sink = PageRankOptions {
            dangling: DanglingStrategy::Sink,
            max_iterations: 30,
            ..Default::default()
        };
        let opts_omit = PageRankOptions {
            max_iterations: 30,
            ..Default::default()
        };
        let a = run(
            init_ranks(4, 2),
            |x| spmv::vxm(x, &plain),
            &dangling,
            &opts_sink,
        );
        let b = run(
            init_ranks(4, 2),
            |x| spmv::vxm(x, &repaired),
            &[false; 4],
            &opts_omit,
        );
        for i in 0..4 {
            assert!(
                (a.ranks[i] - b.ranks[i]).abs() < 1e-12,
                "sink vs repaired diverge at {i}: {} vs {}",
                a.ranks[i],
                b.ranks[i]
            );
        }
    }

    #[test]
    fn omit_strategy_via_run_matches_plain_pagerank() {
        let a = ring(6);
        let opts = PageRankOptions::default();
        let via_run = run(init_ranks(6, 9), |x| spmv::vxm(x, &a), &[false; 6], &opts);
        let plain = pagerank(init_ranks(6, 9), |x| spmv::vxm(x, &a), 0.85, 20);
        assert_eq!(via_run.ranks, plain);
        assert_eq!(via_run.iterations, 20);
    }

    #[test]
    fn convergence_mode_stops_early() {
        let a = ring(8);
        let opts = PageRankOptions {
            max_iterations: 10_000,
            tolerance: Some(1e-12),
            ..Default::default()
        };
        let out = run(init_ranks(8, 3), |x| spmv::vxm(x, &a), &[false; 8], &opts);
        assert!(out.iterations < 10_000, "never converged");
        assert!(out.final_delta < 1e-12);
        // Converged to uniform on the symmetric ring.
        for &x in &out.ranks {
            assert!((x - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_strategy_names_roundtrip() {
        for s in [
            DanglingStrategy::Omit,
            DanglingStrategy::Redistribute,
            DanglingStrategy::Sink,
        ] {
            assert_eq!(DanglingStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(DanglingStrategy::parse("vanish"), None);
    }

    #[test]
    fn dangling_info_matches_masked_scan() {
        let mask = [true, false, false, true, true];
        let info = DanglingInfo::from_mask(&mask);
        assert_eq!(info.indices(), &[0, 3, 4]);
        assert_eq!(info.count(), 3);
        assert_eq!(info.mask(), &mask);
        let r = [0.1, 0.2, 0.3, 0.25, 0.15];
        let scan: f64 = r
            .iter()
            .zip(&mask)
            .filter(|&(_, &d)| d)
            .map(|(&x, _)| x)
            .sum();
        assert_eq!(info.mass(&r).to_bits(), scan.to_bits());
    }

    #[test]
    fn run_into_ping_pongs_the_setup_buffers() {
        // Zero-allocation evidence: after an even number of iterations the
        // result occupies the exact heap buffer `r0` arrived in — the loop
        // only ever swaps the two setup buffers, never reallocates.
        let a = ring(16);
        let r0 = init_ranks(16, 5);
        let p0 = r0.as_ptr();
        let dangling = DanglingInfo::from_mask(&[false; 16]);
        let opts = PageRankOptions::default(); // 20 iterations, even
        let out = run_into(
            r0,
            |r, next, coeffs| {
                spmv::vxm_into(r, &a, next);
                apply_epilogue(r, next, coeffs)
            },
            &dangling,
            &opts,
        );
        assert_eq!(out.iterations, 20);
        assert_eq!(out.ranks.as_ptr(), p0, "rank buffer was reallocated");
    }

    #[test]
    fn run_is_bit_identical_to_the_legacy_step_loop() {
        // The buffer-reusing driver must reproduce the historical
        // iteration exactly: fresh-sum teleport, masked dangling scan,
        // post-hoc l1_distance.
        let mut coo = Coo::<u64>::new(6, 6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 0), (0, 4)] {
            coo.push(u, v, 1);
        }
        let a = ops::normalize_rows(coo.compress());
        let dangling = ops::empty_rows(&a);
        for strategy in [
            DanglingStrategy::Omit,
            DanglingStrategy::Redistribute,
            DanglingStrategy::Sink,
        ] {
            let opts = PageRankOptions {
                dangling: strategy,
                ..Default::default()
            };
            let via_run = run(init_ranks(6, 4), |x| spmv::vxm(x, &a), &dangling, &opts);
            let mut r = init_ranks(6, 4);
            let mut delta = f64::INFINITY;
            for _ in 0..opts.max_iterations {
                let next = step_with(&r, |x| spmv::vxm(x, &a), &dangling, &opts);
                delta = vector::l1_distance(&next, &r);
                r = next;
            }
            assert_eq!(via_run.ranks, r, "{strategy:?} ranks diverged");
            assert_eq!(
                via_run.final_delta.to_bits(),
                delta.to_bits(),
                "{strategy:?} delta diverged"
            );
        }
    }

    #[test]
    fn fused_stepper_matches_serial_stepper_within_tolerance() {
        // The parallel backend's fused path against the serial compat path
        // on a graph with dangling rows, all three strategies.
        let mut coo = Coo::<u64>::new(8, 8);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 5)] {
            coo.push(u, v, 1);
        }
        let a = ops::normalize_rows(coo.compress());
        let at = a.transpose();
        let mask = ops::empty_rows(&a);
        let info = DanglingInfo::from_mask(&mask);
        let boundaries = spmv::balanced_boundaries(at.row_ptr(), 3);
        for strategy in [
            DanglingStrategy::Omit,
            DanglingStrategy::Redistribute,
            DanglingStrategy::Sink,
        ] {
            let opts = PageRankOptions {
                dangling: strategy,
                ..Default::default()
            };
            let serial = run(init_ranks(8, 6), |x| spmv::vxm(x, &a), &mask, &opts);
            let fused = run_into(
                init_ranks(8, 6),
                |r, next, coeffs| spmv::step_fused(r, &at.view(), next, coeffs, &boundaries),
                &info,
                &opts,
            );
            let dist = vector::l1_distance(&serial.ranks, &fused.ranks);
            assert!(dist < 1e-12, "{strategy:?} fused L1 gap {dist}");
        }
    }

    #[test]
    fn step_is_linear_in_r() {
        let a = ring(5);
        let r: Vec<f64> = vec![0.1, 0.3, 0.2, 0.25, 0.15];
        let doubled: Vec<f64> = r.iter().map(|x| x * 2.0).collect();
        let s1 = step(&r, |x| spmv::vxm(x, &a), 0.85);
        let s2 = step(&doubled, |x| spmv::vxm(x, &a), 0.85);
        for i in 0..5 {
            assert!((s2[i] - 2.0 * s1[i]).abs() < 1e-12);
        }
    }
}
