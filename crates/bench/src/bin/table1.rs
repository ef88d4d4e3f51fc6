//! Regenerates the paper's Table I (source lines of code per
//! implementation), counted over this repository's backend variants.
//!
//! ```text
//! cargo run -p ppbench-bench --bin table1
//! ```

use std::path::PathBuf;

use ppbench_bench::sloc;

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let backends = match sloc::backend_sloc(&root) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("failed to count SLOC under {}: {e}", root.display());
            std::process::exit(1);
        }
    };
    println!("TABLE I. SOURCE LINES OF CODE (backend kernel implementations)\n");
    print!("{}", sloc::render_table1(&backends));
    println!("\n(paper: C++ 494, Python 162, Pandas 162, Matlab 102, Octave 102, Julia 162)");
    println!("\nSubstrate modules standing in for each style's \"language runtime\"");
    println!("(the paper's C++ count is large because C++ has no runtime to lean on):\n");
    match sloc::substrate_sloc(&root) {
        Ok(rows) => print!("{}", sloc::render_table1(&rows)),
        Err(e) => {
            eprintln!("failed to count substrate SLOC: {e}");
            std::process::exit(1);
        }
    }
    println!("\nNon-test source lines per workspace crate (the design-diet trend):\n");
    match sloc::workspace_sloc(&root) {
        Ok(rows) => print!("{}", sloc::render_table1(&rows)),
        Err(e) => {
            eprintln!("failed to count workspace SLOC: {e}");
            std::process::exit(1);
        }
    }
}
