//! The evaluation suite: every table and figure of the reproduction.
//!
//! The paper defers quantitative evaluation to future work (§4); this
//! module *is* that evaluation, per the experiment index in DESIGN.md.
//! Each experiment lives in its own module (`t1` … `e11`), implements
//! [`Experiment`], and declares its sweep as independent scenario
//! [`Cell`]s, either closures or lists of [`RunSpec`]s; the [`engine`]
//! runs closure cells and distinct specs on a worker pool and reduces
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

pub use common::{RunSpec, Scenario, FAST_MAC};
pub use engine::{
    remaining_step_budget, run_budgeted, run_suite, run_suite_traced, silent, Cell, CellCtx,
    CellFailure, CellProgress, CellRows, FailureKind, FailureProgress, Render, RunOptions,
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
    /// order on any worker. Declaration order defines row order. Spec
    /// cells ([`Cell::runs`]) only declare their runs; the engine
    /// shares equal specs across cells and experiments.
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

/// Runs the registry under the given options (parallelism, filter,
/// fault plan, step budget).
pub fn run_all_with(opts: &RunOptions) -> Result<SuiteReport> {
    run_suite(&registry(), opts, &silent)
}

/// Runs one experiment through the suite runner, as every caller
/// does, and requires that no cell failed (test helper).
#[cfg(test)]
pub(crate) fn run_checked(id: &str, quick: bool) -> ExpTable {
    let report = run_all_with(&RunOptions::new(quick).filter([id])).unwrap();
    let failures: Vec<_> = report.failures().collect();
    assert!(failures.is_empty(), "{id} cells failed: {failures:?}");
    report.tables.into_iter().next().expect("one table per id")
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
