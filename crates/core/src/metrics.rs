//! Unified simulation reports.
//!
//! Every experiment reduces to a [`SimReport`]: security outcomes
//! (flips, cross-domain flips, enclave events), performance (tenant
//! throughput, latency, row-buffer behaviour), and defense cost
//! (maintenance traffic, throttling, locks, migrated pages, SRAM area
//! proxy, energy proxy). The experiments print these as the rows of
//! each table/figure.

use hammertime_cache::CacheStats;
use hammertime_common::energy::EnergyModel;
use hammertime_dram::DramStats;
use hammertime_memctrl::McStats;
use hammertime_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of simulated controller cycles, summed across
/// every [`crate::machine::Machine`] on every thread.
///
/// [`crate::machine::Machine::run`] credits the cycles it advances;
/// the benchmark harness (`perfbench`) reads the delta around a run
/// to report simulated cycles per wall-second.
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Current process-wide simulated-cycle count (monotonic; take deltas).
pub fn sim_cycles() -> u64 {
    SIM_CYCLES.load(Ordering::Relaxed)
}

/// Credits `n` simulated cycles to the process-wide counter.
pub(crate) fn credit_sim_cycles(n: u64) {
    if n > 0 {
        SIM_CYCLES.fetch_add(n, Ordering::Relaxed);
    }
}

/// Security + performance + cost outcome of one simulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Defense under test.
    pub defense: String,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Total disturbance bit flips.
    pub flips_total: u64,
    /// Flips whose victim and aggressor belong to different domains.
    pub flips_cross_domain: u64,
    /// Flips per victim domain id.
    pub flips_by_victim: BTreeMap<u32, u64>,
    /// Cross-domain flips per victim domain id (victim owned by the
    /// domain, aggressor owned by a different one). This is the metric
    /// that matters for tenant safety: collateral flips a defense's
    /// own refreshes push into *other* rows are visible in
    /// [`SimReport::flips_cross_domain`] but not here.
    pub flips_cross_by_victim: BTreeMap<u32, u64>,
    /// Operations completed per tenant domain id.
    pub ops_by_tenant: BTreeMap<u32, u64>,
    /// Mitigation-trigger accounting per tenant domain id: every TRR
    /// sample, throttle delay, neighbor refresh, forced REF, and ACT
    /// interrupt the controller charged to the issuing tenant.
    pub triggers_by_tenant: BTreeMap<u32, hammertime_common::TriggerCounts>,
    /// Controller statistics.
    pub mc: McStats,
    /// Device statistics.
    pub dram: DramStats,
    /// LLC statistics.
    pub cache: CacheStats,
    /// Defense-side costs.
    pub overhead: DefenseOverhead,
    /// Energy proxy for the run.
    pub energy: f64,
    /// Platform lockup (enclave integrity DoS), if one occurred.
    pub lockup: Option<String>,
    /// Enclave outcomes keyed by domain id.
    pub enclaves: BTreeMap<u32, String>,
    /// Telemetry metrics snapshot (counters + histograms) taken at
    /// report time. `None` — serialized as `null` — on untraced runs.
    pub metrics: Option<MetricsSnapshot>,
}

/// What the defense cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DefenseOverhead {
    /// Defense actions executed.
    pub actions: u64,
    /// Victim-refresh operations (instruction or REF_NEIGHBORS).
    pub refresh_ops: u64,
    /// Convoluted (flush+load) refresh attempts.
    pub convoluted_refreshes: u64,
    /// Cache lines locked.
    pub lines_locked: u64,
    /// Lock failures that fell back to remapping.
    pub lock_fallbacks: u64,
    /// Pages migrated (remap defense).
    pub pages_remapped: u64,
    /// Cache-line copies performed by migrations.
    pub remap_copy_lines: u64,
    /// Frames retired to quarantine.
    pub frames_retired: u64,
    /// Frames lost to guard rows (ZebRAM).
    pub guard_frames: u64,
    /// ACT interrupts delivered to software.
    pub interrupts: u64,
    /// Throttle stall cycles imposed by the MC mitigation.
    pub throttle_cycles: u64,
    /// ACTs throttled by BreakHammer's per-tenant quota (a subset of
    /// the throttle work `throttle_cycles` prices).
    pub quota_throttles: u64,
    /// SRAM/CAM area proxy of the hardware mitigation, bits.
    pub sram_bits: u64,
}

impl SimReport {
    /// Total tenant operations completed.
    pub fn total_ops(&self) -> u64 {
        self.ops_by_tenant.values().sum()
    }

    /// Aggregate throughput in operations per kilocycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_ops() as f64 * 1000.0 / self.cycles as f64
        }
    }

    /// Throughput of one tenant in operations per kilocycle.
    pub fn tenant_throughput(&self, domain: u32) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops_by_tenant.get(&domain).copied().unwrap_or(0) as f64 * 1000.0 / self.cycles as f64
    }

    /// Cross-domain flips that landed on `domain`'s memory.
    pub fn cross_flips_against(&self, domain: u32) -> u64 {
        self.flips_cross_by_victim
            .get(&domain)
            .copied()
            .unwrap_or(0)
    }

    /// Whether the run ended with the attack fully defeated.
    pub fn attack_defeated(&self) -> bool {
        self.flips_cross_domain == 0 && self.lockup.is_none()
    }

    /// Computes and stores the energy proxy.
    pub fn finalize_energy(&mut self, model: &EnergyModel) {
        self.energy = self.dram.energy(model, self.cycles);
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<26} flips={:<6} xdom={:<6} thrpt={:>8.2} ops/kcyc lat={:>7.1} cyc energy={:.2e}",
            self.defense,
            self.flips_total,
            self.flips_cross_domain,
            self.throughput(),
            self.mc.mean_latency(),
            self.energy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let mut r = SimReport {
            cycles: 2_000,
            ..Default::default()
        };
        r.ops_by_tenant.insert(1, 100);
        r.ops_by_tenant.insert(2, 300);
        assert_eq!(r.total_ops(), 400);
        assert!((r.throughput() - 200.0).abs() < 1e-9);
        assert!((r.tenant_throughput(1) - 50.0).abs() < 1e-9);
        assert_eq!(r.tenant_throughput(9), 0.0);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let r = SimReport::default();
        assert_eq!(r.throughput(), 0.0);
        assert!(r.attack_defeated());
    }

    #[test]
    fn attack_defeated_requires_no_cross_domain_flips_and_no_lockup() {
        let mut r = SimReport::default();
        assert!(r.attack_defeated());
        r.flips_cross_domain = 1;
        assert!(!r.attack_defeated());
        r.flips_cross_domain = 0;
        r.lockup = Some("integrity".into());
        assert!(!r.attack_defeated());
    }

    #[test]
    fn energy_finalization_uses_dram_stats() {
        let mut r = SimReport {
            cycles: 1_000,
            ..Default::default()
        };
        r.dram.acts = 100;
        r.finalize_energy(&EnergyModel::ddr4());
        assert!(r.energy > 0.0);
    }

    #[test]
    fn summary_contains_key_fields() {
        let r = SimReport {
            defense: "oracle".into(),
            ..SimReport::default()
        };
        let s = r.summary();
        assert!(s.contains("oracle") && s.contains("flips="));
    }

    #[test]
    fn report_serializes() {
        let r = SimReport::default();
        let json = serde_json::to_string(&r).unwrap();
        let _back: SimReport = serde_json::from_str(&json).unwrap();
    }
}
