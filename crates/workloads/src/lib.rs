//! Attack and benign workload generators for the `hammertime`
//! workspace.
//!
//! - [`ops`]: the operation vocabulary and [`ops::Workload`]
//!   interface.
//! - [`attack`]: single-/double-/many-sided hammers, pacing evasion,
//!   and DMA-based hammering (paper §1–3).
//! - [`benign`]: stream/random/zipfian production traffic
//!   for overhead measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod benign;
pub mod ops;

pub use attack::{DmaHammer, FuzzedHammer, HammerPattern};
pub use benign::{RandomWorkload, StreamWorkload, ZipfianWorkload};
pub use ops::{AccessOp, Workload, WorkloadSnapshot};
