//! The evaluation suite: every table and figure of the reproduction.
//!
//! The paper defers quantitative evaluation to future work (§4); this
//! module *is* that evaluation, per the experiment index in DESIGN.md.
//! Each experiment lives in its own module (`t1` … `e11`), implements
//! [`Experiment`], and declares its sweep as independent scenario
//! [`Cell`]s; the [`engine`] runs cells on a worker pool and reduces
//! them deterministically, so `--jobs 8` output is byte-identical to
//! serial output.
//!
//! All experiments run on the compressed "fast" machine scale
//! (medium geometry, compressed timing, scaled-down MACs) so the whole
//! suite completes in seconds; EXPERIMENTS.md documents the scaling
//! and why it preserves each claim's *shape*. `quick` mode further
//! shrinks access counts for use in unit tests.

pub mod engine;
pub mod table;

mod common;
mod e1;
mod e10;
mod e11;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod f1;
mod f2;
mod f3;
mod t1;

pub use common::FAST_MAC;
pub use engine::{
    remaining_step_budget, run_budgeted, run_one, run_suite, run_suite_traced, silent, Cell,
    CellCtx, CellFailure, CellProgress, CellRows, FailureKind, FailureProgress, RunOptions,
    StepBudgetScope, SuiteReport,
};
pub use table::ExpTable;

use hammertime_common::Result;

/// One table/figure generator: a declarative sweep of [`Cell`]s plus
/// the reduction that assembles their results into an [`ExpTable`].
pub trait Experiment: Sync {
    /// Experiment id (e.g. `"E2"`), unique within the registry.
    fn id(&self) -> &'static str;

    /// Human-readable table title.
    fn title(&self) -> &'static str;

    /// Column headers of the produced table.
    fn columns(&self) -> &'static [&'static str];

    /// The sweep: self-contained cells the engine may run in any
    /// order on any worker. Declaration order defines row order.
    fn cells(&self, ctx: &CellCtx) -> Vec<Cell>;

    /// Assembles per-cell row fragments (in declaration order) into
    /// the final table. The default concatenates them.
    fn reduce(&self, quick: bool, results: Vec<CellRows>) -> Result<ExpTable> {
        let _ = quick;
        let mut t = ExpTable::new(self.id(), self.title(), self.columns());
        for rows in results {
            for row in rows {
                t.push(row);
            }
        }
        Ok(t)
    }
}

/// Every experiment, in canonical (report) order.
pub fn registry() -> Vec<&'static dyn Experiment> {
    vec![
        &t1::T1,
        &f1::F1,
        &f2::F2,
        &f3::F3,
        &e1::E1,
        &e2::E2,
        &e3::E3,
        &e4::E4,
        &e5::E5,
        &e6::E6,
        &e7::E7,
        &e8::E8,
        &e9::E9,
        &e10::E10,
        &e11::E11,
    ]
}

/// Convenience: run the entire suite (serially) and return the full
/// report, tables in experiment order.
pub fn run_all(quick: bool) -> Result<SuiteReport> {
    run_all_with(&RunOptions::new(quick))
}

/// Runs the registry under the given options (parallelism, filter,
/// fault plan, step budget).
pub fn run_all_with(opts: &RunOptions) -> Result<SuiteReport> {
    run_suite(&registry(), opts, &silent)
}

/// Runs the registry under the given options while recording a
/// cycle-stamped event trace of every machine the cells build; the
/// trace, like the tables, is byte-identical for any worker count.
pub fn run_all_traced(
    opts: &RunOptions,
) -> Result<(SuiteReport, Vec<hammertime_telemetry::TraceRecord>)> {
    run_suite_traced(&registry(), opts, &silent)
}

/// **T1** (paper Table 1): the primitive × defense matrix.
pub fn t1_defense_matrix(quick: bool) -> Result<ExpTable> {
    run_one(&t1::T1, quick)
}

/// **F1** (paper Fig. 1): row-buffer semantics.
pub fn f1_rowbuffer() -> Result<ExpTable> {
    run_one(&f1::F1, false)
}

/// **F2** (paper Fig. 2): interleaving schemes.
pub fn f2_interleaving(quick: bool) -> Result<ExpTable> {
    run_one(&f2::F2, quick)
}

/// **F3**: defense efficacy and overhead on degraded hardware, swept
/// over fault-plan intensity.
pub fn f3_degraded(quick: bool) -> Result<ExpTable> {
    run_one(&f3::F3, quick)
}

/// **E1** (§3): the worsening-Rowhammer generational trend.
pub fn e1_generations(quick: bool) -> Result<ExpTable> {
    run_one(&e1::E1, quick)
}

/// **E2** (§3): TRRespass vs a fixed-size in-DRAM tracker.
pub fn e2_trr_bypass(quick: bool) -> Result<ExpTable> {
    run_one(&e2::E2, quick)
}

/// **E3** (§1/§4.2): the ANVIL DMA blind spot.
pub fn e3_dma_blindspot(quick: bool) -> Result<ExpTable> {
    run_one(&e3::E3, quick)
}

/// **E4** (§4.2): frequency-centric defenses and counter evasion.
pub fn e4_frequency(quick: bool) -> Result<ExpTable> {
    run_one(&e4::E4, quick)
}

/// **E5** (§4.3): refresh mechanisms — effectiveness and cost.
pub fn e5_refresh(quick: bool) -> Result<ExpTable> {
    run_one(&e5::E5, quick)
}

/// **E6** (§3): tracker SRAM scaling vs flat software cost.
pub fn e6_scaling() -> Result<ExpTable> {
    run_one(&e6::E6, false)
}

/// **E7** (§2.1/§4.1): subarray-boundary and remap inference.
pub fn e7_inference(quick: bool) -> Result<ExpTable> {
    run_one(&e7::E7, quick)
}

/// **E8** (§4.4): enclave memory under attack.
pub fn e8_enclave(quick: bool) -> Result<ExpTable> {
    run_one(&e8::E8, quick)
}

/// **E9**: benign overhead per defense (no attack).
pub fn e9_overhead(quick: bool) -> Result<ExpTable> {
    run_one(&e9::E9, quick)
}

/// **E10** (ablation): SEC-DED ECC visibility of hammer damage.
pub fn e10_ecc(quick: bool) -> Result<ExpTable> {
    run_one(&e10::E10, quick)
}

/// **E11** (ablation): row-buffer page policy vs hammer rate.
pub fn e11_page_policy(quick: bool) -> Result<ExpTable> {
    run_one(&e11::E11, quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_canonical() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            [
                "T1", "F1", "F2", "F3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
                "E10", "E11"
            ]
        );
    }

    #[test]
    fn filter_is_case_insensitive() {
        let opts = RunOptions::new(true).filter(["e6", "F1"]);
        let report = run_all_with(&opts).unwrap();
        let ids: Vec<&str> = report.tables.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["F1", "E6"]);
    }
}
