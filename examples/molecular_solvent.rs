//! Molecular-network analysis — the chemistry application the paper cites:
//! "in chemistry, this algorithm is used in conjunction with molecular
//! dynamics simulations […] the graph contains edges between the water
//! molecules and can be used to calculate whether the hydrogen bond
//! potential can act as a solvent."
//!
//! This example synthesizes a hydrogen-bond network from a toy molecular
//! dynamics snapshot (molecules on a jittered 3-D lattice, bonds between
//! near neighbors), writes it through the benchmark's *file* pipeline —
//! demonstrating how external data enters at kernel 1 — and ranks
//! molecules by PageRank to find the solvation hubs.
//!
//! ```text
//! cargo run --release --example molecular_solvent
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{PipelineConfig, Variant};
use ppbench::io::tempdir::TempDir;
use ppbench::io::{Edge, SortState};
use ppbench::prng::{Rng64, SeedableRng64, Xoshiro256pp};

/// Simulation box: SIDE³ molecules on a unit lattice with positional
/// jitter, periodic boundaries.
const SIDE: usize = 16; // 4096 molecules = 2^12
const BOND_RADIUS2: f64 = 1.44; // bond when squared distance < 1.2²

fn main() {
    // --- A toy MD snapshot -------------------------------------------------
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    let n = SIDE * SIDE * SIDE;
    let mut pos = Vec::with_capacity(n);
    for z in 0..SIDE {
        for y in 0..SIDE {
            for x in 0..SIDE {
                let jitter = |r: &mut Xoshiro256pp| (r.next_f64() - 0.5) * 0.6;
                pos.push((
                    x as f64 + jitter(&mut rng),
                    y as f64 + jitter(&mut rng),
                    z as f64 + jitter(&mut rng),
                ));
            }
        }
    }

    // Hydrogen bonds: directed donor→acceptor edges between molecules
    // within the bond radius (checking lattice neighbors only — the usual
    // cell-list trick).
    let idx = |x: usize, y: usize, z: usize| ((z * SIDE + y) * SIDE + x) as u64;
    let wrap = |a: i64| ((a % SIDE as i64 + SIDE as i64) % SIDE as i64) as usize;
    let mut bonds: Vec<Edge> = Vec::new();
    let min_image = |d: f64| {
        let s = SIDE as f64;
        let d = d - (d / s).round() * s;
        d * d
    };
    for z in 0..SIDE {
        for y in 0..SIDE {
            for x in 0..SIDE {
                let a = idx(x, y, z);
                let pa = pos[a as usize];
                for (dx, dy, dz) in [
                    (1i64, 0i64, 0i64),
                    (0, 1, 0),
                    (0, 0, 1),
                    (1, 1, 0),
                    (1, 0, 1),
                    (0, 1, 1),
                ] {
                    let b = idx(
                        wrap(x as i64 + dx),
                        wrap(y as i64 + dy),
                        wrap(z as i64 + dz),
                    );
                    let pb = pos[b as usize];
                    let d2 =
                        min_image(pa.0 - pb.0) + min_image(pa.1 - pb.1) + min_image(pa.2 - pb.2);
                    if d2 < BOND_RADIUS2 {
                        // Donor is the molecule whose jitter put it closer:
                        // arbitrary but deterministic orientation.
                        if (a + b) % 2 == 0 {
                            bonds.push(Edge::new(a, b));
                        } else {
                            bonds.push(Edge::new(b, a));
                        }
                    }
                }
            }
        }
    }
    println!(
        "MD snapshot: {n} molecules, {} hydrogen bonds ({:.2} bonds/molecule)",
        bonds.len(),
        bonds.len() as f64 / n as f64
    );

    // --- External data enters the pipeline at kernel 1 ---------------------
    // Write the bond list in the benchmark's file format (this replaces
    // kernel 0), then run kernels 1–3 through a backend.
    let work = TempDir::new("ppbench-md").expect("temp dir");
    let k0 = work.join("k0");
    let k1 = work.join("k1");
    ppbench::io::write_edges(
        &k0,
        "bonds",
        2,
        &bonds,
        Some(12), // N = 2^12 molecules
        Some(n as u64),
        SortState::Unsorted,
    )
    .expect("write bond files");

    let cfg = PipelineConfig::builder()
        .scale(12)
        .edge_factor(1) // informational only; M comes from the files here
        .seed(5)
        .num_files(2)
        .add_diagonal_to_empty(true)
        .build();
    let backend = Variant::Optimized.backend();
    backend.kernel1(&cfg, &k0, &k1).expect("kernel 1");
    let k2 = backend.kernel2(&cfg, &k1).expect("kernel 2");
    println!(
        "bond matrix: {} entries after filtering (max in-degree {}, {} leaf columns removed)",
        k2.stats.nnz_after, k2.stats.max_in_degree, k2.stats.leaf_columns
    );
    let ranks = backend.kernel3(&cfg, &k2.matrix).expect("kernel 3").ranks;

    // --- Solvation hubs -----------------------------------------------------
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).unwrap());
    println!("\nmost-central molecules in the hydrogen-bond network:");
    for &m in order.iter().take(5) {
        let (x, y, z) = pos[m];
        println!(
            "  molecule {m:>5} at ({x:5.2}, {y:5.2}, {z:5.2})  rank {:.3e}",
            ranks[m]
        );
    }
    let top_rank = ranks[order[0]];
    let median_rank = ranks[order[n / 2]];
    println!(
        "\ntop molecule is {:.1}x the median — local bond-density hotspots act as solvation centers",
        top_rank / median_rank
    );
    assert!(top_rank > median_rank);
}
