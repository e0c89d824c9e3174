//! In-memory span recorder for the traced run.
//!
//! The benchmark times calls into each layer's public functions from
//! its own code and records one span (name, layer, start, end, parent)
//! per call. A layer's self time is the summed duration of its spans
//! minus the durations of their direct children, so nested calls are
//! charged to the innermost layer that was timed.

use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The simulator layers the traced run attributes time to.
pub const LAYERS: &[&str] = &["core", "workloads", "memctrl", "dram", "fleet"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name: name.into(),
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.at(Instant::now());
        out
    }

    /// Records a span measured elsewhere, as a child of the innermost
    /// open span. `duration` may be an aggregate of many short calls
    /// (a timing decorator's total), laid out from `start`.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        duration: Duration,
    ) {
        let start = self.at(start);
        self.spans.push(Span {
            name: name.into(),
            layer,
            start,
            end: start + duration.as_secs_f64(),
            parent: self.open.last().copied(),
        });
    }

    /// Self time per layer, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in &self.spans {
            *out.entry(s.layer).or_default() += s.end - s.start;
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].layer).or_default() -= s.end - s.start;
            }
        }
        out
    }

    /// Every span as JSON, in opening order.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    crate::report::obj(vec![
                        ("name", Value::Str(s.name.clone())),
                        ("layer", Value::Str(s.layer.to_string())),
                        ("start_s", crate::report::num(s.start)),
                        ("end_s", crate::report::num(s.end)),
                        (
                            "parent",
                            s.parent
                                .map_or(Value::Null, |p| crate::report::num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::new();
        spans.time("core", "outer", |s| {
            std::thread::sleep(Duration::from_millis(5));
            s.time("memctrl", "inner", |_| {
                std::thread::sleep(Duration::from_millis(10))
            });
            s.record("workloads", "agg", Instant::now(), Duration::from_millis(2));
        });
        let t = spans.self_times();
        let outer = spans.spans[0].end - spans.spans[0].start;
        let inner = spans.spans[1].end - spans.spans[1].start;
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].parent, Some(0));
        assert!((t["memctrl"] - inner).abs() < 1e-12);
        assert!((t["workloads"] - 0.002).abs() < 1e-12);
        assert!((t["core"] - (outer - inner - 0.002)).abs() < 1e-9);
        // 5 ms of its own sleep, less the 2 ms the aggregate claims.
        assert!(t["core"] >= 0.0029);
    }
}
