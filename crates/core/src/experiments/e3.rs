//! **E3** (§1/§4.2): the ANVIL DMA blind spot — PMU-based defense vs
//! MC-counter-based defense against CPU and DMA hammers.

use super::common::{accesses, run_attack, FAST_MAC};
use super::engine::{Cell, CellCtx};
use super::Experiment;
use crate::taxonomy::DefenseKind;

pub struct E3;

impl Experiment for E3 {
    fn id(&self) -> &'static str {
        "E3"
    }

    fn title(&self) -> &'static str {
        "DMA blind spot: xdom flips under CPU vs DMA attack"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["defense", "cpu attack", "dma attack", "defense refreshes"]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        let ctx = *ctx;
        let n = accesses(ctx.quick);
        [
            DefenseKind::None,
            DefenseKind::Anvil { miss_threshold: 2 },
            DefenseKind::VictimRefreshInstr,
        ]
        .into_iter()
        .map(|defense| {
            Cell::new(defense.name(), move || {
                let cpu = run_attack(defense, FAST_MAC, |s| s.arm_double_sided(n), ctx)?;
                let dma = run_attack(defense, FAST_MAC, |s| s.arm_dma(n), ctx)?;
                Ok(vec![vec![
                    defense.name().to_string(),
                    cpu.cross_flips_against(2).to_string(),
                    dma.cross_flips_against(2).to_string(),
                    (cpu.overhead.refresh_ops
                        + cpu.overhead.convoluted_refreshes
                        + dma.overhead.refresh_ops
                        + dma.overhead.convoluted_refreshes)
                        .to_string(),
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
    fn e3_blindspot_shape() {
        let t = run_checked("E3", true);
        let get = |d: &str, c: &str| -> u64 { t.get(d, c).unwrap().parse().unwrap() };
        assert!(get("none", "cpu attack") > 0);
        assert!(get("none", "dma attack") > 0);
        // ANVIL stops the CPU attack but not DMA.
        assert_eq!(get("anvil", "cpu attack"), 0, "{t}");
        assert!(get("anvil", "dma attack") > 0, "{t}");
        // The precise-ACT defense stops both.
        assert_eq!(get("victim-refresh/instr", "cpu attack"), 0, "{t}");
        assert_eq!(get("victim-refresh/instr", "dma attack"), 0, "{t}");
    }
}
