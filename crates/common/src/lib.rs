//! Shared foundation types for the `hammertime` workspace.
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! - [`time`]: simulation time as DRAM command-clock cycles.
//! - [`addr`]: physical/virtual/cache-line address newtypes.
//! - [`geometry`]: DRAM organization (channels, ranks, banks, subarrays,
//!   rows, columns) and coordinate decomposition.
//! - [`domain`]: trust domains (ASIDs) and request sources (core vs. DMA).
//! - [`rng`]: deterministic, seedable RNG so every simulation is
//!   reproducible bit-for-bit.
//! - [`fault`]: seeded, serializable fault-injection plans and the
//!   per-component clocks that execute them.
//! - [`energy`]: per-command energy constants for the energy proxy.
//! - [`error`]: the shared error type.
//! - [`traceformat`]: the version header of the recorded command-trace
//!   files.
//!
//! Nothing here depends on the rest of the workspace; the dependency DAG
//! is `common <- dram <- memctrl <- cache/os <- core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod domain;
pub mod energy;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod rng;
pub mod time;
pub mod traceformat;

pub use addr::{CacheLineAddr, PhysAddr, VirtAddr, CACHE_LINE_BYTES, PAGE_BYTES};
pub use domain::{DomainId, RequestSource, TriggerCounts};
pub use error::{Error, Result};
pub use fault::{FaultClock, FaultKind, FaultPlan};
pub use geometry::{DramCoord, Geometry};
pub use rng::DetRng;
pub use time::Cycle;
pub use traceformat::{TraceHeader, TraceKind, TRACE_MAGIC, TRACE_VERSION};
