//! Social-network analysis — one of the PageRank application domains the
//! paper cites (Twitter-style influence ranking).
//!
//! Builds a follower graph with the perfect-power-law generator (celebrity
//! accounts have analytically known degree), ranks accounts by PageRank,
//! inspects the degree distribution, and uses the GraphBLAS boolean
//! semiring to measure "degrees of separation" from the top influencer —
//! the paper's Figure 2 "extend search / hop" operation.
//!
//! ```text
//! cargo run --release --example social_network
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

use ppbench::gen::{degree, EdgeGenerator, GraphSpec, PerfectPowerLaw};
use ppbench::sparse::{graphblas, ops, Coo};

fn main() {
    // 4096 accounts, 16 follows each on average; PPL rank 0 is the biggest
    // celebrity by construction.
    let spec = GraphSpec::new(12, 16);
    let generator = PerfectPowerLaw::new(spec, 99);
    let follows = generator.edges(); // (follower, followee)
    let n = spec.num_vertices();
    println!(
        "follower graph: {} accounts, {} follow edges",
        n,
        follows.len()
    );

    // --- Degree structure: is it a power law? -----------------------------
    let din = degree::in_degrees(&follows, n);
    let stats = degree::DegreeStats::from_degrees(&din);
    let hist = degree::DegreeHistogram::from_degrees(&din);
    println!(
        "\nfollowers: max {}, mean {:.1}, never-followed accounts {}",
        stats.max, stats.mean, stats.zeros
    );
    match degree::fit_power_law_slope(&hist) {
        Some(gamma) => println!("log2-binned histogram slope ≈ {gamma:.2} (heavy tail)"),
        None => println!("histogram too narrow to fit (not a power law)"),
    }

    // --- Influence: PageRank over the follower graph ----------------------
    // Influence flows from follower to followee, so rank on the follow
    // direction; normalize rows = each account splits its attention.
    let mut coo = Coo::<u64>::new(n, n);
    for e in &follows {
        coo.push(e.u, e.v, 1);
    }
    let counts = coo.compress();
    // Keep dangling accounts stochastic via the §V diagonal repair.
    let a = ops::normalize_rows(ops::add_diagonal_to_empty_rows(counts, 1));
    let ranks = ppbench::core::kernel3::pagerank(
        ppbench::core::kernel3::init_ranks(n, 1),
        |x| ppbench::sparse::spmv::vxm(x, &a),
        0.85,
        50,
    );
    let mut order: Vec<u64> = (0..n).collect();
    order.sort_by(|&x, &y| ranks[y as usize].partial_cmp(&ranks[x as usize]).unwrap());
    println!("\ntop influencers (account = PPL rank, low rank = built-in celebrity):");
    for &acct in order.iter().take(5) {
        println!(
            "  account {:>5}  pagerank {:.3e}  followers {}",
            acct, ranks[acct as usize], din[acct as usize]
        );
    }
    let top = order[0];
    assert!(top < 64, "a head account should win, got {top}");

    // --- Reachability: degrees of separation from the top influencer ------
    // Hop along *reverse* follow edges (who can the influencer reach via
    // their followers' feeds): boolean semiring BFS.
    let mut reach = Coo::<bool>::new(n, n);
    for e in &follows {
        reach.push(e.v, e.u, true); // followee → follower (message flow)
    }
    let reach = reach.compress();
    let levels = graphblas::bfs_levels(&reach, top);
    let mut by_hops = std::collections::BTreeMap::<u64, usize>::new();
    for &l in &levels {
        if l != u64::MAX {
            *by_hops.entry(l).or_default() += 1;
        }
    }
    println!("\nmessage reach of account {top} (hops → accounts):");
    for (hops, count) in &by_hops {
        println!("  {hops} hop(s): {count}");
    }
    let unreachable = levels.iter().filter(|&&l| l == u64::MAX).count();
    println!("  unreachable: {unreachable}");
    assert!(
        by_hops.get(&1).copied().unwrap_or(0) > 0,
        "the top influencer must have direct followers"
    );
}
