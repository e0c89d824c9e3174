//! **F2** (paper Fig. 2): subarray-isolated interleaving keeps the
//! bank-level-parallelism benefit of full interleaving while zeroing
//! cross-domain flips; bank partitioning sacrifices the parallelism.
//!
//! Bank-level parallelism only shows under queue depth, so the benign
//! probe batch-submits random reads straight to the controller and
//! measures the makespan — the memory system's achievable random
//! throughput, independent of core-side pacing (cf. \[49\]'s >18%
//! parallelism benefit).

use super::common::{accesses, FAST_MAC};
use super::engine::{Cell, CellCtx};
use super::table::fmt_f;
use super::Experiment;
use crate::machine::MachineConfig;
use crate::scenario::CloudScenario;
use crate::taxonomy::DefenseKind;
use hammertime_common::DomainId;

pub struct F2;

impl Experiment for F2 {
    fn id(&self) -> &'static str {
        "F2"
    }

    fn title(&self) -> &'static str {
        "Interleaving schemes: random-batch throughput vs cross-domain flips"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scheme",
            "batch makespan (cyc)",
            "reads/kcyc",
            "attack xdom flips",
            "targeting",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        let ctx = *ctx;
        let quick = ctx.quick;
        let batch = if quick { 512u64 } else { 2_048 };
        [
            DefenseKind::None,
            DefenseKind::BankPartitionIsolation,
            DefenseKind::SubarrayIsolation,
        ]
        .into_iter()
        .map(|defense| {
            Cell::new(defense.name(), move || {
                use hammertime_common::{Cycle, RequestSource};
                use hammertime_memctrl::addrmap::MappingScheme;
                use hammertime_memctrl::request::{MemRequest, RequestKind};
                use hammertime_memctrl::{MemCtrl, MemCtrlConfig};

                // Benign probe at the controller: `batch` uniform
                // random reads over one tenant's 8 pages, all queued
                // at cycle 0, served to completion. The makespan is
                // the latest data burst.
                let mapping = match defense {
                    DefenseKind::BankPartitionIsolation => MappingScheme::BankPartition,
                    DefenseKind::SubarrayIsolation => MappingScheme::SubarrayIsolated,
                    _ => MappingScheme::CacheLineInterleave,
                };
                let mut mc_cfg = MemCtrlConfig::baseline();
                mc_cfg.mapping = mapping;
                mc_cfg.queue_capacity = 1 << 16;
                mc_cfg.faults = ctx.faults;
                let mut dram_cfg = hammertime_dram::DramConfig::test_config(1_000_000);
                // Server geometry: 32 banks. Under bank partitioning,
                // one domain's region is one bank's worth of frames
                // (the first 8192); under (subarray-isolated)
                // interleaving the same frames spread across every
                // bank. Random accesses over that region are
                // row-distinct, the irregular pattern of [49].
                dram_cfg.geometry = hammertime_common::Geometry::server();
                dram_cfg.timing = hammertime_dram::TimingParams::tiny_wide();
                dram_cfg.faults = ctx.faults;
                let g = dram_cfg.geometry;
                let frames_per_bank = g.rows_per_bank() as u64 * g.columns as u64
                    / hammertime_common::addr::LINES_PER_PAGE;
                let mut mc = MemCtrl::new(mc_cfg, dram_cfg, 7)?;
                let lines_per_frame = 64u64;
                let mut rng = hammertime_common::DetRng::new(7);
                for i in 0..batch {
                    let frame = rng.below(frames_per_bank);
                    let line = hammertime_common::CacheLineAddr(
                        frame * lines_per_frame + rng.below(lines_per_frame),
                    );
                    mc.submit(MemRequest {
                        id: i,
                        line,
                        kind: RequestKind::Read,
                        source: RequestSource::Core(0),
                        domain: DomainId(1),
                        arrival: Cycle::ZERO,
                    })?;
                }
                mc.drain();
                let makespan = mc
                    .drain_completions()
                    .iter()
                    .map(|c| c.done.raw())
                    .max()
                    .unwrap_or(1)
                    .max(1);
                let n = accesses(quick);
                let mut cfg = MachineConfig::fast(defense, FAST_MAC);
                cfg.faults = ctx.faults;
                let mut s = CloudScenario::build_sized(cfg, 4)?;
                let targeting = s.arm_double_sided(n)?;
                s.run_windows(if quick { 40 } else { 150 });
                let attack = s.report();
                Ok(vec![vec![
                    defense.name().to_string(),
                    makespan.to_string(),
                    fmt_f(batch as f64 * 1000.0 / makespan as f64),
                    attack.cross_flips_against(2).to_string(),
                    format!("{targeting:?}"),
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
    fn f2_subarray_isolation_keeps_parallelism() {
        let t = run_checked("F2", true);
        let get = |scheme: &str, col: &str| -> f64 { t.get(scheme, col).unwrap().parse().unwrap() };
        let interleave = get("none", "reads/kcyc");
        let partition = get("bank-partition", "reads/kcyc");
        let subarray = get("subarray-isolation", "reads/kcyc");
        // The paper's middle ground: subarray isolation keeps the full
        // interleaving throughput (>18% over partitioning per [49];
        // here the gap is far larger) while also isolating.
        assert!(
            interleave > partition * 1.18,
            "interleaving benefit missing: {interleave} vs {partition}"
        );
        assert!(
            (subarray - interleave).abs() / interleave < 0.05,
            "subarray isolation must not cost parallelism: {subarray} vs {interleave}"
        );
        assert_eq!(
            t.get("subarray-isolation", "attack xdom flips").unwrap(),
            "0"
        );
        assert_ne!(t.get("none", "attack xdom flips").unwrap(), "0");
    }
}
