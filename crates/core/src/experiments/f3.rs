//! **F3**: degraded hardware — how much protection each defense
//! retains when the substrate misbehaves underneath it.
//!
//! Every defense assumes the machinery it rides on works: trackers
//! assume REF fires, interrupt-driven software assumes interrupts
//! arrive, remap tables assume their SRAM holds state. F3 sweeps a
//! canonical fault plan's intensity (0 = healthy, 1 = full plan)
//! against a representative defense slate — CRA-style counting
//! (Graphene), CBT-style counting (TwiceLite), probabilistic (PARA),
//! throttling (BlockHammer), in-DRAM TRR, and the paper's three
//! primitives — and reports surviving flips, fault injections, lost
//! defense activity ("missed" detections vs the healthy baseline),
//! and latency.
//!
//! F3 deliberately ignores the machine-wide [`CellCtx::faults`] plan:
//! its sweep *is* the fault axis, and pinning it to the built-in plan
//! keeps the healthy-baseline column meaningful even when the rest of
//! the suite runs in chaos mode.

use super::common::{RunSpec, Scenario, FAST_MAC};
use super::engine::{Cell, CellCtx, CellRows};
use super::table::fmt_f;
use super::{ExpTable, Experiment};
use crate::metrics::SimReport;
use crate::taxonomy::DefenseKind;
use hammertime_common::{FaultPlan, Result};

/// The canonical degraded-hardware plan, scaled by each cell's
/// intensity. Rates are per-opportunity, chosen so the full-intensity
/// run visibly degrades trackers without wedging every machine.
fn base_plan() -> FaultPlan {
    let mut p = FaultPlan::none();
    p.seed = 0xF3F3;
    p.dropped_ref = 0.02;
    p.ghost_ref = 0.01;
    p.trr_miss = 0.25;
    p.dropped_interrupt = 0.15;
    p.delayed_interrupt = 0.25;
    p.stuck_act_count = 0.02;
    p.refresh_nack = 0.10;
    p.remap_corrupt = 0.005;
    p
}

/// Fault-plan intensities swept per defense.
const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// The plan a cell at `intensity` runs. An inert plan becomes `None`,
/// so the healthy baseline is the same run as T1's double-sided one.
fn plan_at(intensity: f64) -> Option<FaultPlan> {
    let plan = base_plan().scaled(intensity);
    (!plan.is_inert()).then_some(plan)
}

/// The defense slate: the paper's taxonomy exemplars (counter-based
/// CRA≈Graphene, CBT≈TwiceLite, probabilistic PARA, throttling
/// BlockHammer, in-DRAM TRR) plus the three proposed primitives.
fn slate() -> Vec<DefenseKind> {
    DefenseKind::catalog(FAST_MAC)
        .into_iter()
        .filter(|d| {
            matches!(
                d,
                DefenseKind::Graphene { .. }
                    | DefenseKind::TwiceLite { .. }
                    | DefenseKind::Para { .. }
                    | DefenseKind::BlockHammer { .. }
                    | DefenseKind::InDramTrr { .. }
                    | DefenseKind::SubarrayIsolation
                    | DefenseKind::AggressorRemap
                    | DefenseKind::VictimRefreshInstr
            )
        })
        .collect()
}

/// Defense activity visible in a report: the events a healthy run
/// produces that faults can swallow.
fn detections(r: &SimReport) -> u64 {
    r.overhead.interrupts + r.overhead.refresh_ops + r.mc.throttle_events + r.mc.maintenance_ops
}

/// The intensity a spec's plan was scaled by: its REF-drop rate over
/// the base plan's (the healthy baseline runs with no plan).
fn intensity(spec: &RunSpec) -> f64 {
    spec.faults
        .map_or(0.0, |p| p.dropped_ref / base_plan().dropped_ref)
}

fn row(specs: &[RunSpec], r: &[&SimReport]) -> CellRows {
    let (spec, r) = (&specs[0], r[0]);
    vec![vec![
        spec.defense.name().to_string(),
        fmt_f(intensity(spec)),
        (r.mc.fault_injections + r.dram.fault_injections).to_string(),
        r.flips_total.to_string(),
        r.cross_flips_against(2).to_string(),
        detections(r).to_string(),
        // Filled by reduce() against the healthy baseline row.
        String::new(),
        fmt_f(r.mc.mean_latency()),
    ]]
}

pub struct F3;

impl Experiment for F3 {
    fn id(&self) -> &'static str {
        "F3"
    }

    fn title(&self) -> &'static str {
        "Degraded hardware: defense efficacy vs fault-plan intensity"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "defense",
            "intensity",
            "injected",
            "flips",
            "xdom flips",
            "detections",
            "missed",
            "mean latency",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        // Build each intensity's plan and label suffix once: formatting
        // a float is most of what declaring a cell costs.
        let points = INTENSITIES.map(|intensity| (format!("{intensity:.2}"), plan_at(intensity)));
        let mut cells = Vec::new();
        for defense in slate() {
            for (suffix, faults) in &points {
                let spec = RunSpec {
                    faults: *faults,
                    ..RunSpec::fast(defense, Scenario::DoubleSided, ctx)
                };
                cells.push(Cell::runs(
                    format!("{}@{suffix}", defense.name()),
                    vec![spec],
                    row,
                ));
            }
        }
        cells
    }

    fn reduce(&self, quick: bool, results: Vec<super::CellRows>) -> Result<ExpTable> {
        let _ = quick;
        let mut t = ExpTable::new(self.id(), self.title(), self.columns());
        let rows: Vec<Vec<String>> = results.into_iter().flatten().collect();
        // "missed" = defense activity the healthy run produced that the
        // degraded run lost, per defense. A failed baseline cell leaves
        // the column as "-" for that defense.
        for mut row in rows.clone() {
            let baseline = rows
                .iter()
                .find(|r| r[0] == row[0] && r[1] == "0.00")
                .and_then(|r| r[5].parse::<u64>().ok());
            row[6] = match (baseline, row[5].parse::<u64>().ok()) {
                (Some(b), Some(d)) => b.saturating_sub(d).to_string(),
                _ => "-".to_string(),
            };
            t.push(row);
        }
        Ok(t)
    }
}
