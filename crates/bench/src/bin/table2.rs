//! Regenerates the paper's Table II (benchmark run sizes).
//!
//! ```text
//! cargo run -p ppbench-bench --bin table2 [lo:hi]
//! ```

use ppbench_core::table;

fn main() {
    let range = std::env::args()
        .nth(1)
        .and_then(|s| ppbench_bench::harness::parse_scale_range(&s))
        .unwrap_or(16..=22);
    println!("TABLE II. BENCHMARK RUN SIZES");
    println!(
        "(memory at {} bytes/edge, decimal units — matches the paper's printed column)\n",
        table::TABLE2_BYTES_PER_EDGE
    );
    print!("{}", table::render_table2(range));
}
