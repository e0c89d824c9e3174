//! ANVIL-style baseline defense (Aweke et al., ASPLOS'16).
//!
//! ANVIL samples LLC-miss addresses through core performance counters,
//! builds per-row access estimates, and selectively "refreshes"
//! suspected victims by reading them through the convoluted
//! flush+load path. Two structural weaknesses — both called out by the
//! paper — are faithfully reproduced:
//!
//! 1. **DMA blindness** (§1): core PMUs never see DMA traffic, so a
//!    DMA-based hammer (`hammertime-workloads`' `DmaHammer`) sails
//!    straight past the sampler.
//! 2. **Imprecise refresh** (§4.3): the flush+load path only refreshes
//!    a row if the load actually causes an ACT, which depends on row
//!    buffer state ANVIL cannot observe.

use super::{DefenseAction, SoftwareDefense, Topology};
use hammertime_cache::MissSample;
use hammertime_common::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// ANVIL configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnvilConfig {
    /// Sampled misses attributed to one row before it is treated as an
    /// aggressor. Because the PMU samples every Nth miss, the implied
    /// ACT threshold is `sample_period x miss_threshold`.
    pub miss_threshold: u32,
}

impl Default for AnvilConfig {
    fn default() -> Self {
        AnvilConfig { miss_threshold: 8 }
    }
}

/// The ANVIL daemon.
#[derive(Debug, Clone)]
pub struct Anvil {
    config: AnvilConfig,
    topology: Topology,
    counts: HashMap<(u64, u32), u32>,
    /// Victim-refresh campaigns launched (stats).
    pub refreshes_requested: u64,
}

impl Anvil {
    /// Creates the daemon.
    pub fn new(config: AnvilConfig, topology: Topology) -> Anvil {
        Anvil {
            config,
            topology,
            counts: HashMap::new(),
            refreshes_requested: 0,
        }
    }

    fn bank_key(bank: &hammertime_common::geometry::BankId) -> u64 {
        ((bank.channel as u64) << 24)
            | ((bank.rank as u64) << 16)
            | ((bank.bank_group as u64) << 8)
            | bank.bank as u64
    }
}

impl SoftwareDefense for Anvil {
    fn name(&self) -> &'static str {
        "anvil"
    }

    fn on_pmu_samples(&mut self, samples: &[MissSample]) -> Vec<DefenseAction> {
        let mut actions = Vec::new();
        for s in samples {
            let Ok((bank, row)) = self.topology.locate(s.line) else {
                continue;
            };
            let key = (Self::bank_key(&bank), row);
            let count = self.counts.entry(key).or_insert(0);
            *count += 1;
            if *count < self.config.miss_threshold {
                continue;
            }
            *count = 0;
            self.refreshes_requested += 1;
            // ANVIL has no refresh instruction: it walks the neighbors
            // with flush+load and hopes each load ACTs the row.
            if let Ok(victims) = self
                .topology
                .neighbor_row_lines(s.line, self.topology.assumed_radius)
            {
                for v in victims {
                    actions.push(DefenseAction::ConvolutedRefresh { line: v });
                }
            }
        }
        actions
    }

    fn on_window_rollover(&mut self, _now: Cycle) -> Vec<DefenseAction> {
        self.counts.clear();
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::{CacheLineAddr, Geometry};
    use hammertime_memctrl::addrmap::AddressMap;
    use hammertime_memctrl::MappingScheme;

    fn daemon(threshold: u32) -> Anvil {
        let map = AddressMap::new(MappingScheme::CacheLineInterleave, Geometry::medium()).unwrap();
        Anvil::new(
            AnvilConfig {
                miss_threshold: threshold,
            },
            Topology::new(map, 2),
        )
    }

    fn sample(line: u64) -> MissSample {
        MissSample {
            line: CacheLineAddr(line),
            is_write: false,
        }
    }

    #[test]
    fn fires_after_threshold_samples_on_one_row() {
        let mut d = daemon(3);
        assert!(d.on_pmu_samples(&[sample(0), sample(0)]).is_empty());
        let actions = d.on_pmu_samples(&[sample(0)]);
        assert!(!actions.is_empty());
        assert!(actions
            .iter()
            .all(|a| matches!(a, DefenseAction::ConvolutedRefresh { .. })));
        assert_eq!(d.refreshes_requested, 1);
    }

    #[test]
    fn distinct_rows_count_separately() {
        let mut d = daemon(2);
        // Lines 0 and 4096 land on different rows of medium geometry.
        assert!(d.on_pmu_samples(&[sample(0), sample(4096)]).is_empty());
        assert!(!d.on_pmu_samples(&[sample(0)]).is_empty());
    }

    #[test]
    fn no_samples_no_actions() {
        // The DMA blind spot in miniature: if the sampler never sees
        // the traffic (because it bypassed the cache), ANVIL does
        // nothing no matter how hard the DMA engine hammers.
        let mut d = daemon(1);
        assert!(d.on_pmu_samples(&[]).is_empty());
        assert_eq!(d.refreshes_requested, 0);
    }

    #[test]
    fn window_rollover_resets_counts() {
        let mut d = daemon(2);
        d.on_pmu_samples(&[sample(0)]);
        d.on_window_rollover(Cycle(1));
        assert!(d.on_pmu_samples(&[sample(0)]).is_empty());
    }
}
