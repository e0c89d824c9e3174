//! Counters and histograms, snapshotted into reports.
//!
//! The registry is a deliberately small, allocation-light store:
//! string-keyed `u64` counters plus log2-bucketed histograms. Keys are
//! dotted paths (`"mc.bank_pricings"`, `"mc.refresh_slack"`). Producers only
//! ever touch it through a [`crate::Tracer`], so when tracing is off
//! the registry does not even exist.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Bucket `b` counts samples with `bit_length(value) == b`
    /// (bucket 0 holds the value 0).
    buckets: BTreeMap<u32, u64>,
}

/// Log2 bucket index of a sample: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_of(value: u64) -> u32 {
    64 - value.leading_zeros()
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
    }

    /// Immutable snapshot with derived statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            buckets: self.buckets.clone(),
        }
    }
}

/// Serializable view of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Mean sample (0 when empty).
    pub mean: f64,
    /// Non-empty log2 buckets: bucket `b` counts samples whose bit
    /// length is `b`, i.e. values in `[2^(b-1), 2^b)`; bucket 0 is the
    /// value 0.
    pub buckets: BTreeMap<u32, u64>,
}

/// String-keyed counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Sets counter `name` to `value`, overwriting any prior value.
    /// Used to publish a count kept outside the registry (the
    /// scheduler's bank pricings) at snapshot time.
    pub fn counter_set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Records `value` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Immutable snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Serializable snapshot of a [`MetricsRegistry`], embedded in
/// `SimReport` when the run was traced.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by dotted name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::default();
        for v in [4, 1, 7] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 12);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 7);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.buckets.get(&1), Some(&1)); // value 1
        assert_eq!(s.buckets.get(&3), Some(&2)); // values 4 and 7
    }

    #[test]
    fn registry_snapshot_round_trips_through_json() {
        let mut reg = MetricsRegistry::default();
        reg.counter_set("a.b", 3);
        reg.counter_set("a.b", 5);
        reg.counter_set("c", 9);
        reg.observe("h", 0);
        reg.observe("h", 1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a.b"], 5);
        assert_eq!(snap.counters["c"], 9);
        assert_eq!(snap.histograms["h"].count, 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
