//! Memory-controller statistics.

use serde::{Deserialize, Serialize};

/// Counters the controller maintains across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct McStats {
    /// Demand reads completed.
    pub reads: u64,
    /// Demand writes completed.
    pub writes: u64,
    /// Accesses that hit the open row directly.
    pub row_hits: u64,
    /// Accesses that found the bank precharged (ACT needed).
    pub row_misses: u64,
    /// Accesses that found a different row open (PRE + ACT needed).
    pub row_conflicts: u64,
    /// Sum of demand-request latencies in cycles.
    pub latency_sum: u64,
    /// All-bank REF commands issued by the refresh scheduler.
    pub refs_issued: u64,
    /// REFs that issued *before* their per-rank deadline (pulled in).
    /// The normal scheduler never does this, but a host refresh
    /// instruction or a test poking the refresh clock can; counting
    /// them keeps the slack metric well-defined (slack is only
    /// observed for on-time-or-late REFs).
    pub early_refs: u64,
    /// REFs that only issued because the forced-refresh barrier cut
    /// off request traffic to their rank (postponed past
    /// `FORCED_REF_LEAD` × tREFI). Nonzero means a workload pushed the
    /// scheduler to the edge of the JEDEC pull-in window.
    pub refs_forced: u64,
    /// Maintenance operations (refresh instruction, REF_NEIGHBORS)
    /// completed.
    pub maintenance_ops: u64,
    /// ACTs postponed by throttling mitigation.
    pub throttle_events: u64,
    /// Requests rejected by the subarray-group domain check.
    pub domain_violations: u64,
    /// Scheduler step invocations. Bounds the scheduling work a run
    /// performed: an idle advance must cost O(refresh slots) steps,
    /// not O(cycles) — the regression `idle_advance_steps_are_bounded`
    /// pins this down.
    pub sched_steps: u64,
    /// Faults injected by the controller-side fault clock (dropped or
    /// delayed interrupts, stuck ACT_COUNT windows, refresh NACKs,
    /// remap corruptions).
    pub fault_injections: u64,
}

impl McStats {
    /// Demand requests completed.
    pub fn demand_completed(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean demand latency in cycles (0 when nothing completed).
    pub fn mean_latency(&self) -> f64 {
        if self.demand_completed() == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.demand_completed() as f64
        }
    }

    /// Row-buffer hit rate over classified accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = McStats {
            reads: 6,
            writes: 4,
            row_hits: 5,
            row_misses: 3,
            row_conflicts: 2,
            latency_sum: 1000,
            ..Default::default()
        };
        assert_eq!(s.demand_completed(), 10);
        assert!((s.mean_latency() - 100.0).abs() < 1e-9);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = McStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }
}
