//! **T1** (paper Table 1): the primitive × defense matrix. For every
//! defense in the catalog, does it stop each attack class, and what
//! does benign traffic pay?

use super::common::{RunSpec, Scenario, FAST_MAC};
use super::engine::{Cell, CellCtx, CellRows};
use super::table::fmt_f;
use super::Experiment;
use crate::metrics::SimReport;
use crate::taxonomy::DefenseKind;

/// The runs of one T1 row, in column order.
const SCENARIOS: [Scenario; 4] = [
    Scenario::DoubleSided,
    Scenario::ManySided,
    Scenario::Dma,
    Scenario::Benign,
];

pub struct T1;

impl Experiment for T1 {
    fn id(&self) -> &'static str {
        "T1"
    }

    fn title(&self) -> &'static str {
        "Defense matrix: cross-domain flips per attack, benign throughput"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "defense",
            "class",
            "locus",
            "double-sided",
            "many-sided(6)",
            "dma",
            "benign ops/kcyc",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        DefenseKind::catalog(FAST_MAC)
            .into_iter()
            .map(|defense| {
                let specs = SCENARIOS
                    .into_iter()
                    .map(|scenario| RunSpec::fast(defense, scenario, ctx))
                    .collect();
                Cell::runs(defense.name(), specs, row)
            })
            .collect()
    }
}

fn row(specs: &[RunSpec], r: &[&SimReport]) -> CellRows {
    let defense = specs[0].defense;
    vec![vec![
        defense.name().to_string(),
        defense
            .class()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into()),
        defense
            .locus()
            .map(|l| l.to_string())
            .unwrap_or_else(|| "-".into()),
        r[0].cross_flips_against(2).to_string(),
        r[1].cross_flips_against(2).to_string(),
        r[2].cross_flips_against(2).to_string(),
        fmt_f(r[3].throughput()),
    ]]
}
