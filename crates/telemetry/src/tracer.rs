//! The `Tracer` handle.
//!
//! A [`Tracer`] is a cheaply clonable handle (an `Arc`) shared by every
//! component of one simulated machine: the DRAM device, the memory
//! controller, and the machine itself all hold clones and append to
//! the same in-memory buffer, so a trace interleaves all layers in
//! emission order. Configs carry `Option<Tracer>`; `None` is the
//! default and the contract is *zero cost when off* — the only
//! overhead on the hot path is one `is_none()` check. A traced run's
//! records are drained with [`Tracer::take_records`] and written to
//! disk in one piece by [`crate::codec::write_path`].
//!
//! Tracers deliberately do not round-trip through serde: a tracer is a
//! live resource, not data. The manual impls below serialize any
//! tracer as `null` — so a traced component config serializes exactly
//! like an untraced one — and refuse to deserialize anything but
//! `null` (which the blanket `Option` impl maps to `None` before this
//! impl is ever consulted).

use crate::event::{Event, TraceRecord};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use hammertime_common::Cycle;
use std::fmt;
use std::sync::{Arc, Mutex};

struct Inner {
    records: Mutex<Vec<TraceRecord>>,
    metrics: Mutex<MetricsRegistry>,
}

/// A shared handle to one record buffer plus one metrics registry.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Tracer {
    /// An empty tracer: run, then [`Tracer::take_records`].
    pub fn buffer() -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                records: Mutex::new(Vec::new()),
                metrics: Mutex::new(MetricsRegistry::default()),
            }),
        }
    }

    /// Appends one cycle-stamped event to the buffer.
    pub fn emit(&self, cycle: Cycle, event: Event) {
        let rec = TraceRecord {
            cycle: cycle.raw(),
            event,
        };
        self.records().push(rec);
    }

    /// Drains and returns the buffered records (emission order).
    pub fn take_records(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records())
    }

    /// Sets counter `name` to `value`.
    pub fn counter_set(&self, name: &str, value: u64) {
        self.metrics(|m| m.counter_set(name, value));
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.metrics(|m| m.observe(name, value));
    }

    /// Snapshot of every counter and histogram recorded so far.
    pub fn snapshot_metrics(&self) -> MetricsSnapshot {
        let m = self.inner.metrics.lock().expect("trace metrics poisoned");
        m.snapshot()
    }

    fn records(&self) -> std::sync::MutexGuard<'_, Vec<TraceRecord>> {
        self.inner.records.lock().expect("trace buffer poisoned")
    }

    fn metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        let mut m = self.inner.metrics.lock().expect("trace metrics poisoned");
        f(&mut m);
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer(buffer[{}])", self.records().len())
    }
}

// A Tracer is a live resource, not data: serialize as `null` (so a
// traced config's JSON is byte-identical to an untraced one), never
// deserialize. `Option<Tracer>` round-trips as `null` ↔ `None` via the
// blanket Option impls, which handle `null` before consulting these.
impl serde::Serialize for Tracer {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl serde::Deserialize for Tracer {
    fn deserialize_json(_v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Err(serde::Error::expected(
            "null (a tracer is a live buffer and cannot be deserialized)",
            "Tracer",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn flip(n: u64) -> Event {
        Event::Flip {
            flat_bank: n,
            victim_row: 0,
            aggressor_row: 0,
            bit: n,
        }
    }

    #[test]
    fn buffer_keeps_everything_in_order() {
        let t = Tracer::buffer();
        for n in 0..5 {
            t.emit(Cycle(n), flip(n));
        }
        let recs = t.take_records();
        assert_eq!(recs.len(), 5);
        assert!(recs.windows(2).all(|w| w[0].cycle < w[1].cycle));
        assert!(t.take_records().is_empty(), "take drains");
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::buffer();
        let u = t.clone();
        t.emit(Cycle(1), flip(1));
        u.emit(Cycle(2), flip(2));
        u.counter_set("n", 1);
        t.counter_set("n", 3);
        assert_eq!(t.take_records().len(), 2);
        assert_eq!(u.snapshot_metrics().counters["n"], 3);
    }

    #[test]
    fn tracer_serializes_as_null() {
        let some = Some(Tracer::buffer());
        let none: Option<Tracer> = None;
        assert_eq!(serde_json::to_string(&some).unwrap(), "null");
        assert_eq!(serde_json::to_string(&none).unwrap(), "null");
        let back: Option<Tracer> = serde_json::from_str("null").unwrap();
        assert!(back.is_none());
        assert!(serde_json::from_str::<Tracer>("{}").is_err());
    }
}
