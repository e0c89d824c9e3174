//! Regenerates the paper's Table 1 as a measured matrix: every defense
//! in the taxonomy catalog against every attack class, plus the benign
//! cost — the summary artifact of the whole evaluation.
//!
//! Pass `--full` for the longer (non-quick) run the full suite uses.
//!
//! ```sh
//! cargo run --release --example defense_matrix
//! cargo run --release --example defense_matrix -- --full
//! ```

use hammertime::experiments::{run_all_with, RunOptions};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let quick = !full;
    println!(
        "== defense matrix ({} mode) ==\n",
        if quick { "quick" } else { "full" }
    );
    let report = run_all_with(&RunOptions::new(quick).filter(["T1", "E9"])).expect("T1 and E9 run");
    assert!(!report.has_failures(), "T1 and E9 cells must all complete");
    for table in &report.tables {
        println!("{table}");
    }
    println!(
        "Reading guide: of the paper's proposals, subarray-isolation and\n\
         victim-refresh/refn zero every attack column at both scales. The\n\
         others leak: aggressor-remap lets flips through while it detects and\n\
         migrates (79/79/77 quick, 10/10/0 full), line-locking leaks under DMA\n\
         (77 quick, 31 full), and victim-refresh/instr leaks a few many-sided\n\
         flips (4 quick; 1/19/1 full). Benign cost ranges from free\n\
         (isolation) to visible (remap, line-locking). Baselines fail\n\
         somewhere: 'none' everywhere; 'catt' as much as 'none', since it\n\
         separates user and kernel, not tenants; 'trr' stops the CPU\n\
         patterns but not DMA (10 quick, 87 full). 'anvil' stops the CPU\n\
         hammer via PMU sampling but is blind to the DMA device (paper §1),\n\
         exactly the gap the paper's MC-level precise ACT interrupts close."
    );
}
