//! **E3** (§1/§4.2): the ANVIL DMA blind spot — PMU-based defense vs
//! MC-counter-based defense against CPU and DMA hammers.

use super::common::{RunSpec, Scenario};
use super::engine::{Cell, CellCtx, CellRows};
use super::Experiment;
use crate::metrics::SimReport;
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
        [
            DefenseKind::None,
            DefenseKind::Anvil { miss_threshold: 2 },
            DefenseKind::VictimRefreshInstr,
        ]
        .into_iter()
        .map(|defense| {
            let specs = vec![
                RunSpec::fast(defense, Scenario::DoubleSided, ctx),
                RunSpec::fast(defense, Scenario::Dma, ctx),
            ];
            Cell::runs(defense.name(), specs, row)
        })
        .collect()
    }
}

fn row(specs: &[RunSpec], r: &[&SimReport]) -> CellRows {
    let (cpu, dma) = (r[0], r[1]);
    vec![vec![
        specs[0].defense.name().to_string(),
        cpu.cross_flips_against(2).to_string(),
        dma.cross_flips_against(2).to_string(),
        (cpu.overhead.refresh_ops
            + cpu.overhead.convoluted_refreshes
            + dma.overhead.refresh_ops
            + dma.overhead.convoluted_refreshes)
            .to_string(),
    ]]
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
