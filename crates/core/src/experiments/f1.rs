//! **F1** (paper Fig. 1): row-buffer semantics — measured latency of
//! hit, miss (empty bank), and conflict accesses.

use super::engine::{Cell, CellCtx};
use super::Experiment;
use hammertime_common::DomainId;

pub struct F1;

impl Experiment for F1 {
    fn id(&self) -> &'static str {
        "F1"
    }

    fn title(&self) -> &'static str {
        "Row-buffer behaviour (DDR4-2400 command-clock cycles)"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["access type", "commands", "latency (cycles)"]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        let ctx = *ctx;
        // One cell: the three probes share controller state (the hit
        // needs the row the miss opened), so they cannot be split.
        vec![Cell::new("rowbuffer-probes", move || {
            use hammertime_common::{CacheLineAddr, Cycle, RequestSource};
            use hammertime_dram::DramConfig;
            use hammertime_memctrl::request::{MemRequest, RequestKind};
            use hammertime_memctrl::{MemCtrl, MemCtrlConfig};

            let mut dram_cfg = DramConfig::test_config(1_000_000);
            dram_cfg.geometry = hammertime_common::Geometry::medium();
            dram_cfg.timing = hammertime_dram::TimingParams::ddr4_2400();
            dram_cfg.faults = ctx.faults;
            let mut mc_cfg = MemCtrlConfig::baseline();
            mc_cfg.faults = ctx.faults;
            let mut mc = MemCtrl::new(mc_cfg, dram_cfg, 1)?;
            let g = *mc.map().geometry();
            let stripe = g.total_lines() / g.rows_per_bank() as u64;
            let submit = |mc: &mut MemCtrl, id: u64, line: u64| {
                mc.submit(MemRequest {
                    id,
                    line: CacheLineAddr(line),
                    kind: RequestKind::Read,
                    source: RequestSource::Core(0),
                    domain: DomainId(1),
                    arrival: mc.now(),
                })
                .expect("submit");
            };
            // Miss on an empty bank.
            submit(&mut mc, 1, 0);
            mc.drain();
            let miss = mc.drain_completions()[0].latency();
            // Hit on the now-open row.
            submit(&mut mc, 2, 4); // same row, next column under interleave
            mc.drain();
            let hit_c = mc.drain_completions();
            let hit = hit_c[0].latency();
            assert!(hit_c[0].row_hit);
            // Conflict: different row, same bank.
            submit(&mut mc, 3, stripe);
            mc.drain();
            let conflict = mc.drain_completions()[0].latency();
            let _ = Cycle::ZERO;
            Ok(vec![
                vec!["row-buffer hit".into(), "RD".into(), hit.to_string()],
                vec!["empty-bank miss".into(), "ACT+RD".into(), miss.to_string()],
                vec![
                    "row conflict".into(),
                    "PRE+ACT+RD".into(),
                    conflict.to_string(),
                ],
            ])
        })]
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::run_checked;

    #[test]
    fn f1_latency_ordering() {
        let t = run_checked("F1", false);
        let get = |k: &str| -> u64 { t.get(k, "latency (cycles)").unwrap().parse().unwrap() };
        let hit = get("row-buffer hit");
        let miss = get("empty-bank miss");
        let conflict = get("row conflict");
        assert!(hit < miss, "hit {hit} must beat miss {miss}");
        assert!(miss < conflict, "miss {miss} must beat conflict {conflict}");
    }
}
