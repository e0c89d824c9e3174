//! **E11** (ablation; DESIGN.md design-choice list): row-buffer policy
//! vs hammer rate — closed-page policies tax every access with a full
//! row cycle but also slow the attacker's ACT stream.

use super::common::{accesses, run_benign_with, FAST_MAC};
use super::engine::{Cell, CellCtx};
use super::table::fmt_f;
use super::Experiment;
use crate::machine::MachineConfig;
use crate::scenario::CloudScenario;
use crate::taxonomy::DefenseKind;

pub struct E11;

impl Experiment for E11 {
    fn id(&self) -> &'static str {
        "E11"
    }

    fn title(&self) -> &'static str {
        "Page-policy ablation: closed-page taxes locality without stopping the hammer"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "policy",
            "attack flips",
            "attack acts",
            "benign ops/kcyc",
            "benign mean latency",
            "benign row hits",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        use hammertime_memctrl::controller::PagePolicy;
        let ctx = *ctx;
        let quick = ctx.quick;
        let n = accesses(quick);
        [PagePolicy::Open, PagePolicy::Closed]
            .into_iter()
            .map(|policy| {
                Cell::new(format!("{policy:?}"), move || {
                    // Scoped so the attack machine is torn down before
                    // the benign one is built: device lifetimes in a
                    // cell's trace must not overlap (replay rebuilds
                    // one device at a time; see hammertime_dram's
                    // replay module).
                    let attack = {
                        let mut cfg = MachineConfig::fast(DefenseKind::None, FAST_MAC);
                        cfg.page_policy = policy;
                        cfg.faults = ctx.faults;
                        let mut s = CloudScenario::build_sized(cfg, 4)?;
                        s.arm_double_sided(n)?;
                        s.run_windows(if quick { 40 } else { 150 });
                        s.report()
                    };

                    let mut cfg = MachineConfig::fast(DefenseKind::None, FAST_MAC);
                    cfg.page_policy = policy;
                    cfg.faults = ctx.faults;
                    let benign = run_benign_with(cfg, quick)?;
                    Ok(vec![vec![
                        format!("{policy:?}"),
                        attack.flips_total.to_string(),
                        attack.dram.acts.to_string(),
                        fmt_f(benign.throughput()),
                        fmt_f(benign.mc.mean_latency()),
                        benign.mc.row_hits.to_string(),
                    ]])
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::run_checked;

    #[test]
    fn e11_closed_page_is_not_a_defense() {
        let t = run_checked("E11", true);
        let get = |row: usize, col: &str| -> f64 {
            let ci = t.columns.iter().position(|c| c == col).unwrap();
            t.rows[row][ci].parse().unwrap()
        };
        // Closed-page destroys benign row-buffer locality...
        assert!(get(1, "benign row hits") < get(0, "benign row hits") / 10.0);
        assert!(get(1, "benign mean latency") > get(0, "benign mean latency"));
        // ...while the flush-based hammer flips either way.
        assert!(get(0, "attack flips") > 0.0);
        assert!(get(1, "attack flips") > 0.0);
    }
}
