//! Web-search ranking — PageRank's original application, run two ways:
//!
//! 1. A hand-built miniature web (named pages with links) pushed through
//!    the library's sparse kernels directly, with the ranking checked
//!    against the paper's eigenvector validation.
//! 2. A synthetic "web crawl" from the Graph500 generator pushed through
//!    the full four-kernel pipeline, exactly as the benchmark runs it.
//!
//! ```text
//! cargo run --release --example web_search
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

use ppbench::core::{kernel3, validate, Pipeline, PipelineConfig, ValidationLevel};
use ppbench::io::tempdir::TempDir;
use ppbench::sparse::{spmv, Coo};

fn main() {
    part1_named_pages();
    part2_synthetic_crawl();
}

/// A tiny web whose ranking is humanly checkable: a popular hub, pages
/// linking to it, and a page nobody links to.
fn part1_named_pages() {
    println!("=== Part 1: a miniature web, ranked ===\n");
    let pages = [
        "home.example.com",   // 0: linked by everyone
        "docs.example.com",   // 1: linked by home and blog
        "blog.example.com",   // 2: linked by home
        "api.example.com",    // 3: linked by docs
        "orphan.example.com", // 4: links out, never linked
    ];
    let links = [
        (4, 0), // orphan → home
        (1, 0), // docs → home
        (2, 0), // blog → home
        (3, 0), // api → home
        (0, 1), // home → docs
        (0, 2), // home → blog
        (1, 3), // docs → api
        (2, 1), // blog → docs
        (3, 1), // api → docs
    ];
    let n = pages.len() as u64;
    let mut coo = Coo::<u64>::new(n, n);
    for &(u, v) in &links {
        coo.push(u, v, 1);
    }
    // Kernel-2 policy would delete the most-linked page (the "super-node");
    // for a real ranking we keep everything and only row-normalize, which
    // the library exposes as the degenerate filter with no max-degree tie.
    let a = ppbench::sparse::ops::normalize_rows(coo.compress());

    let r0 = kernel3::init_ranks(n, 7);
    let ranks = kernel3::pagerank(r0, |x| spmv::vxm(x, &a), 0.85, 100);

    let mut order: Vec<usize> = (0..pages.len()).collect();
    order.sort_by(|&a_, &b_| ranks[b_].partial_cmp(&ranks[a_]).unwrap());
    for (place, &i) in order.iter().enumerate() {
        println!("  {}. {:<22} rank {:.4}", place + 1, pages[i], ranks[i]);
    }
    assert_eq!(order[0], 0, "the hub must rank first");
    assert_eq!(order[order.len() - 1], 4, "the orphan must rank last");

    // The paper's validation: the iterated ranks match the dominant
    // eigenvector of c·Aᵀ + (1−c)/N.
    let report = validate::check_eigenvector(&a, &ranks, 0.85, 100);
    println!("\n  eigenvector check: {}\n", report.summary_line());
    assert!(report.passed());
}

/// The benchmark proper, framed as ranking a crawled web snapshot.
fn part2_synthetic_crawl() {
    println!("=== Part 2: ranking a synthetic 130k-page crawl (full pipeline) ===\n");
    let cfg = PipelineConfig::builder()
        .scale(13) // 8192 "pages", 131072 "links"
        .seed(2016)
        .num_files(2)
        .add_diagonal_to_empty(true) // keep the chain stochastic (§V option)
        .validation(ValidationLevel::Eigenvector)
        .build();
    let work = TempDir::new("ppbench-web").expect("temp dir");
    let result = Pipeline::new(cfg, work.path()).run().expect("pipeline");
    print!("{}", result.summary());

    let k2 = result.kernel2.as_ref().unwrap();
    println!(
        "\n  crawl stats: {} distinct links, super-node column(s) removed: {}, \
         leaf columns removed: {}",
        k2.stats.nnz_before, k2.stats.supernode_columns, k2.stats.leaf_columns
    );
    let k3 = result.kernel3.as_ref().unwrap();
    println!("  top pages by rank:");
    for (v, r) in k3.top_k(5) {
        println!("    page#{v:<8} rank {r:.4e}");
    }
}
