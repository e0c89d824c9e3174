//! The FL experiment family: population tables from fleet runs.
//!
//! FL1 runs one mini-fleet per defense slate (same fleet seed, so the
//! machine population — classes, generations, attackers, workloads —
//! is identical across slates and the rows differ only in the
//! defense) and reports each slate's flip-rate and overhead
//! distribution as one row of the population table.

use std::sync::{Mutex, PoisonError};

use hammertime::experiments::{
    remaining_step_budget, run_suite, run_suite_traced, silent, Cell, CellCtx, Experiment,
    RunOptions, SuiteReport,
};
use hammertime_common::Result;
use hammertime_telemetry::TraceRecord;

use crate::shard::{run_fleet, FleetConfig};
use crate::stats::{population_row, POPULATION_COLUMNS};

/// Held for the whole of an FL1 cell, so at most one mini-fleet runs
/// at a time. A fleet keeps all its machines resident until it
/// finishes (11-27 MB at full scale), so suite workers that reach FL1
/// cells together would otherwise raise the suite's peak memory by a
/// whole fleet, depending on how the cells happened to be scheduled.
static FLEET_TURN: Mutex<()> = Mutex::new(());

/// Machines per slate in the FL1 mini-fleets.
fn fleet_size(quick: bool) -> u32 {
    if quick {
        24
    } else {
        96
    }
}

/// **FL1**: per-slate population distributions — flip rate, defense
/// overhead, and tenant throughput percentiles over a heterogeneous
/// machine fleet with tenant churn and migration.
pub struct Fl1;

/// Registry instance.
pub static FL1: Fl1 = Fl1;

impl Experiment for Fl1 {
    fn id(&self) -> &'static str {
        "FL1"
    }

    fn title(&self) -> &'static str {
        "Fleet population: per-slate flip-rate and overhead distributions"
    }

    fn columns(&self) -> &'static [&'static str] {
        POPULATION_COLUMNS
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        let ctx = *ctx;
        FleetConfig::default_slates()
            .into_iter()
            .map(|slate| {
                Cell::new(format!("fleet/{}", slate.name()), move || {
                    let _turn = FLEET_TURN.lock().unwrap_or_else(PoisonError::into_inner);
                    let mut cfg = FleetConfig::new(fleet_size(ctx.quick));
                    cfg.quick = ctx.quick;
                    cfg.slates = vec![slate];
                    cfg.faults = ctx.faults;
                    // Cells already run on suite workers; keep each
                    // mini-fleet serial. The shards run on threads of
                    // their own, which do not see this thread's step
                    // budget, so each fleet machine gets what the cell
                    // has left (`None` when the suite has no budget).
                    cfg.jobs = 1;
                    cfg.step_budget = remaining_step_budget();
                    let report = run_fleet(&cfg)?;
                    let rows = report
                        .stats
                        .slates
                        .iter()
                        .map(|(name, s)| population_row(name, s))
                        .collect();
                    Ok(rows)
                })
            })
            .collect()
    }
}

/// The fleet crate's own experiments, in report order.
pub fn registry() -> Vec<&'static dyn Experiment> {
    vec![&FL1]
}

/// The combined registry: every core experiment, then the attack
/// pipeline's A family, then the FL family. The CLI and the golden
/// suite run this one, so `--filter A1`/`--filter FL1` and
/// `tests/golden/A1.txt`/`FL1.txt` work alongside the core ids.
pub fn full_registry() -> Vec<&'static dyn Experiment> {
    let mut all = hammertime::experiments::registry();
    all.extend(hammertime_attack::experiment::registry());
    all.extend(registry());
    all
}

/// Runs the combined registry under the given options.
pub fn run_all_with(opts: &RunOptions) -> Result<SuiteReport> {
    run_suite(&full_registry(), opts, &silent)
}

/// Runs the combined registry while recording the machine event
/// trace (byte-identical for any worker count, like the tables).
pub fn run_all_traced(opts: &RunOptions) -> Result<(SuiteReport, Vec<TraceRecord>)> {
    run_suite_traced(&full_registry(), opts, &silent)
}
