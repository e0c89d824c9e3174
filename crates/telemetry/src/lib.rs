//! Cycle-stamped structured event tracing for the hammertime
//! simulator.
//!
//! The paper's primitives — precise ACT-interrupts, targeted refresh
//! instructions, TRR sampling — are *event streams*, but aggregate
//! stats can only say how often they fired, not in what order or in
//! response to what. This crate records the streams themselves:
//!
//! - [`Event`] / [`TraceRecord`]: the closed event taxonomy, each
//!   record stamped with its simulation cycle.
//! - [`Tracer`]: a cheaply clonable handle to one shared record buffer
//!   and one metrics registry, threaded through component configs as
//!   `Option<Tracer>`. `None` (the default) costs one `is_none()`
//!   check on the hot path and nothing else.
//! - [`codec`]: the on-disk [`CommandTrace`] formats (binary ↔ JSONL,
//!   lossless both ways) under the versioned
//!   [`hammertime_common::traceformat::TraceHeader`]. A traced run's
//!   buffer is written once, at the end, by [`codec::write_path`].
//! - [`diff`]: record-exact trace comparison — first divergence plus
//!   per-kind count deltas.
//! - [`metrics`]: a counters/histograms registry snapshotted into run
//!   reports.
//!
//! This crate sits directly above `hammertime-common` in the
//! dependency DAG; the device/controller/machine crates depend on it,
//! not the other way round. That is why DDR commands appear here as
//! the mirror type [`CmdEvent`] and device configs/stats as embedded
//! JSON — the telemetry layer can describe the stack without
//! depending on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod diff;
pub mod event;
pub mod metrics;
pub mod tracer;

pub use codec::CommandTrace;
pub use diff::{diff_traces, Divergence, TraceDiff};
pub use event::{CmdEvent, Event, TraceRecord};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use tracer::Tracer;
