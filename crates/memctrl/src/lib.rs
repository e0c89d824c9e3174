//! Integrated memory controller model for the `hammertime` workspace.
//!
//! Implements the controller the paper proposes extending (§4):
//! address mapping with subarray-isolated interleaving, FR-FCFS
//! scheduling over the DRAM device model, periodic refresh, ACT
//! counters with precise interrupts, the host-privileged refresh
//! instruction, REF_NEIGHBORS submission, and the hardware mitigation
//! baselines the paper compares against.
//!
//! # Examples
//!
//! ```
//! use hammertime_memctrl::controller::{MemCtrl, MemCtrlConfig};
//! use hammertime_memctrl::request::{MemRequest, RequestKind};
//! use hammertime_dram::DramConfig;
//! use hammertime_common::{CacheLineAddr, Cycle, DomainId, RequestSource};
//!
//! let mut mc = MemCtrl::new(
//!     MemCtrlConfig::baseline(),
//!     DramConfig::test_config(1_000_000),
//!     42,
//! ).unwrap();
//! mc.submit(MemRequest {
//!     id: 1,
//!     line: CacheLineAddr(0),
//!     kind: RequestKind::Read,
//!     source: RequestSource::Core(0),
//!     domain: DomainId(1),
//!     arrival: Cycle::ZERO,
//! }).unwrap();
//! mc.drain();
//! let done = mc.drain_completions();
//! assert_eq!(done.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod act_counter;
pub mod addrmap;
mod bank_queue;
pub mod controller;
pub mod mitigation;
pub mod request;
pub mod stats;
mod wheel;

pub use act_counter::{ActCounterConfig, ActInterrupt, Precision};
pub use addrmap::{AddressMap, MappingScheme};
pub use controller::{MemCtrl, MemCtrlConfig, PagePolicy};
pub use mitigation::{ActAction, McMitigation, McMitigationConfig};
pub use request::{Completion, MemRequest, RequestKind};
pub use stats::McStats;
