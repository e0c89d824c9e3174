//! Population statistics: per-slate flip-rate and defense-overhead
//! distributions over per-machine reports.
//!
//! Each slate keeps every machine's derived rates, sorted
//! ([`SlateStats`]); percentiles are nearest-rank over the sorted
//! values, so the table is exact and byte-stable. Aggregation is a
//! *fold* that is permutation-invariant — the property suite pins that
//! law against a naive reference.

use hammertime::experiments::ExpTable;
use serde::Serialize;
use std::collections::BTreeMap;

use crate::shard::MachineOutcome;

/// Derived per-machine rates — the three population distributions.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MachineSample {
    /// Cross-domain flips per million cycles.
    pub flip_rate: f64,
    /// Defense actions (mitigation ops, victim refreshes, remaps,
    /// interrupts) per thousand cycles.
    pub overhead: f64,
    /// Tenant operations completed per thousand cycles.
    pub throughput: f64,
}

impl MachineSample {
    /// Derives the sample from a completed machine's report; `None`
    /// for failed machines (they contribute to the failure count, not
    /// the distributions).
    pub fn from_outcome(o: &MachineOutcome) -> Option<MachineSample> {
        let r = o.report.as_ref()?;
        let cycles = r.cycles.max(1) as f64;
        let ovh = r.overhead.actions
            + r.overhead.refresh_ops
            + r.overhead.convoluted_refreshes
            + r.overhead.pages_remapped
            + r.overhead.interrupts;
        Some(MachineSample {
            flip_rate: r.flips_cross_domain as f64 * 1e6 / cycles,
            overhead: ovh as f64 * 1e3 / cycles,
            throughput: r.throughput(),
        })
    }
}

/// One slate's population: counts plus the three sorted sample
/// vectors percentiles are read from.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SlateStats {
    /// Machines assigned the slate.
    pub machines: u64,
    /// Of those, machines with an attacker tenant.
    pub attacked: u64,
    /// Machines that failed (error/panic/timeout).
    pub failed: u64,
    /// Tenant migrations into machines of this slate.
    pub migrations_in: u64,
    /// Sorted cross-domain flip rates (flips per Mcycle).
    pub flip_rate: Vec<f64>,
    /// Sorted defense-overhead rates (defense ops per kcycle).
    pub overhead: Vec<f64>,
    /// Sorted tenant throughputs (ops per kcycle).
    pub throughput: Vec<f64>,
}

impl SlateStats {
    fn push(&mut self, o: &MachineOutcome) {
        self.machines += 1;
        self.attacked += u64::from(o.attacked);
        self.migrations_in += u64::from(o.migrations_in);
        match MachineSample::from_outcome(o) {
            Some(s) => {
                insert_sorted(&mut self.flip_rate, s.flip_rate);
                insert_sorted(&mut self.overhead, s.overhead);
                insert_sorted(&mut self.throughput, s.throughput);
            }
            None => self.failed += 1,
        }
    }
}

fn insert_sorted(v: &mut Vec<f64>, x: f64) {
    let pos = v.partition_point(|&y| y < x);
    v.insert(pos, x);
}

/// Nearest-rank percentile over an ascending-sorted slice: the
/// smallest element with rank `>= q * len` (at least rank 1). `None`
/// for an empty slice — an all-failed slate has *no* distribution, and
/// rendering it as `0.0` would read as "measured and perfectly clean".
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Renders a percentile cell: the value at `precision` decimals, or
/// `-` when the distribution is empty.
fn percentile_cell(sorted: &[f64], q: f64, precision: usize) -> String {
    match percentile(sorted, q) {
        Some(v) => format!("{v:.precision$}"),
        None => "-".to_string(),
    }
}

/// The fleet's population statistics, per slate (sorted by slate
/// name, so rendering order is canonical).
#[derive(Debug, Clone, Default, Serialize)]
pub struct PopulationStats {
    /// Per-slate populations.
    pub slates: BTreeMap<String, SlateStats>,
}

impl PopulationStats {
    /// Folds one more machine in (order-independent).
    pub fn push(&mut self, o: &MachineOutcome) {
        self.slates.entry(o.defense.clone()).or_default().push(o);
    }

    /// The rendered population table: one row per slate, percentile
    /// columns for the flip-rate and defense-overhead distributions.
    pub fn table(&self, id: &str, title: &str) -> ExpTable {
        let mut t = ExpTable::new(id, title, POPULATION_COLUMNS);
        for (slate, s) in &self.slates {
            t.push(population_row(slate, s));
        }
        t
    }
}

/// Column headers of the population table.
pub const POPULATION_COLUMNS: &[&str] = &[
    "slate",
    "machines",
    "attacked",
    "failed",
    "migr",
    "xflip/Mc p50",
    "p90",
    "p99",
    "max",
    "ovh/kc p50",
    "p99",
    "tput/kc p50",
];

/// One slate's table row.
pub fn population_row(slate: &str, s: &SlateStats) -> Vec<String> {
    let f = &s.flip_rate;
    let o = &s.overhead;
    let max = match f.last() {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    };
    vec![
        slate.to_string(),
        s.machines.to_string(),
        s.attacked.to_string(),
        s.failed.to_string(),
        s.migrations_in.to_string(),
        percentile_cell(f, 0.50, 3),
        percentile_cell(f, 0.90, 3),
        percentile_cell(f, 0.99, 3),
        max,
        percentile_cell(o, 0.50, 3),
        percentile_cell(o, 0.99, 3),
        percentile_cell(&s.throughput, 0.50, 2),
    ]
}

/// Naive reference fold over outcomes in the given order. The runner
/// and the property suite both use this; the suite additionally
/// checks that every permutation of the outcomes folds to it.
pub fn fold(outcomes: &[MachineOutcome]) -> PopulationStats {
    let mut stats = PopulationStats::default();
    for o in outcomes {
        stats.push(o);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.25), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(2.0));
        assert_eq!(percentile(&v, 0.51), Some(3.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn empty_distributions_render_as_dashes_not_zeros() {
        // A slate whose every machine failed has counts but no
        // samples; its row must say "no data", not "0.000 flips".
        let s = SlateStats {
            machines: 3,
            failed: 3,
            ..SlateStats::default()
        };
        let row = population_row("breakhammer", &s);
        assert_eq!(row[0], "breakhammer");
        assert_eq!(row[1], "3");
        assert_eq!(row[3], "3");
        for cell in &row[5..] {
            assert_eq!(cell, "-", "empty distribution must render as -");
        }
    }

    #[test]
    fn insert_sorted_keeps_order() {
        let mut v = Vec::new();
        for x in [3.0, 1.0, 2.0, 2.0, 0.5] {
            insert_sorted(&mut v, x);
        }
        assert_eq!(v, [0.5, 1.0, 2.0, 2.0, 3.0]);
    }
}
