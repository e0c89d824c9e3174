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
        "Reading guide: the three paper proposals (subarray-isolation,\n\
         aggressor-remap / line-locking, victim-refresh/instr+refn) each zero\n\
         the attack columns; their benign cost ranges from free (isolation)\n\
         to visible (remap). Baselines fail somewhere: 'none' everywhere,\n\
         'anvil' on DMA, small 'trr' trackers on many-sided patterns."
    );
}
