//! **E9**: the practicality axis — benign throughput, latency, and
//! energy under every defense (no attack running).

use super::common::{RunSpec, Scenario, FAST_MAC};
use super::engine::{Cell, CellCtx, CellRows};
use super::table::fmt_f;
use super::Experiment;
use crate::metrics::SimReport;
use crate::taxonomy::DefenseKind;

pub struct E9;

impl Experiment for E9 {
    fn id(&self) -> &'static str {
        "E9"
    }

    fn title(&self) -> &'static str {
        "Benign overhead per defense (no attack)"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "defense",
            "ops/kcyc",
            "mean latency",
            "energy",
            "extra refreshes",
            "throttle cycles",
            "quota throttles",
            "interrupts",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        DefenseKind::catalog(FAST_MAC)
            .into_iter()
            .map(|defense| {
                let spec = RunSpec::fast(defense, Scenario::Benign, ctx);
                Cell::runs(defense.name(), vec![spec], row)
            })
            .collect()
    }
}

fn row(specs: &[RunSpec], r: &[&SimReport]) -> CellRows {
    let r = r[0];
    vec![vec![
        specs[0].defense.name().to_string(),
        fmt_f(r.throughput()),
        fmt_f(r.mc.mean_latency()),
        format!("{:.3e}", r.energy),
        (r.dram.ref_neighbor_rows + r.dram.trr_refresh_rows + r.overhead.refresh_ops).to_string(),
        r.overhead.throttle_cycles.to_string(),
        r.overhead.quota_throttles.to_string(),
        r.overhead.interrupts.to_string(),
    ]]
}
