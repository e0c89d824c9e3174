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

use hammertime::experiments;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let quick = !full;
    println!(
        "== defense matrix ({} mode) ==\n",
        if quick { "quick" } else { "full" }
    );
    let t1 = experiments::t1_defense_matrix(quick).expect("T1 runs");
    println!("{t1}");
    let e9 = experiments::e9_overhead(quick).expect("E9 runs");
    println!("{e9}");
    println!(
        "Reading guide: the three paper proposals (subarray-isolation,\n\
         aggressor-remap / line-locking, victim-refresh/instr+refn) each zero\n\
         the attack columns; their benign cost ranges from free (isolation)\n\
         to visible (remap). Baselines fail somewhere: 'none' everywhere,\n\
         'anvil' on DMA, small 'trr' trackers on many-sided patterns."
    );
}
