//! `hammertime` — a full-system reproduction of *"Stop! Hammer Time:
//! Rethinking Our Approach to Rowhammer Mitigations"* (Loughlin,
//! Saroiu, Wolman, Kasikci — HotOS '21).
//!
//! The paper argues that Rowhammer defenses should be a
//! hardware-software co-design: CPU vendors add three small primitives
//! to the integrated memory controller, and host software builds
//! adaptable defenses on top — one per class of its mitigation
//! taxonomy:
//!
//! | Class | MC primitive | Software defense |
//! |---|---|---|
//! | isolation-centric | subarray-isolated interleaving | subarray-aware allocation |
//! | frequency-centric | precise ACT interrupts | aggressor remapping, cache-line locking |
//! | refresh-centric | `refresh` instruction (+ REF_NEIGHBORS) | victim refresh |
//!
//! This crate assembles the substrates (`hammertime-dram`,
//! `hammertime-memctrl`, `hammertime-cache`, `hammertime-os`,
//! `hammertime-workloads`) into a runnable machine and provides the
//! evaluation the paper deferred to future work:
//!
//! - [`taxonomy`] — the mitigation taxonomy and the catalog of
//!   defenses under test (proposals and baselines).
//! - [`machine`] — the full simulated host: cores, LLC, memory
//!   controller, DRAM, host OS, defense daemons, tenants.
//! - [`scenario`] — multi-tenant attack scenarios (double-sided,
//!   many-sided/TRRespass, DMA) and benign backgrounds.
//! - [`metrics`] — unified security/performance/cost reports.
//! - [`experiments`] — the table/figure generators (T1, F1, F2,
//!   E1–E9) the `experiments` CLI runs; see DESIGN.md for the index.
//!
//! # Examples
//!
//! ```
//! use hammertime::machine::MachineConfig;
//! use hammertime::scenario::CloudScenario;
//! use hammertime::taxonomy::DefenseKind;
//!
//! // Undefended host, double-sided hammer: the victim's memory flips.
//! let mut s = CloudScenario::build(MachineConfig::fast(DefenseKind::None, 24)).unwrap();
//! s.arm_double_sided(3_000).unwrap();
//! s.run_windows(40);
//! assert!(s.report().cross_flips_against(2) > 0);
//!
//! // Same attack against the paper's refresh-centric proposal: safe.
//! let mut s =
//!     CloudScenario::build(MachineConfig::fast(DefenseKind::VictimRefreshInstr, 24)).unwrap();
//! s.arm_double_sided(3_000).unwrap();
//! s.run_windows(40);
//! assert_eq!(s.report().cross_flips_against(2), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod machine;
pub mod metrics;
pub mod scenario;
pub mod taxonomy;

pub use machine::{Machine, MachineConfig, ProbeOutcome};
pub use metrics::{DefenseOverhead, SimReport};
pub use scenario::{AttackTargeting, BenignKind, CloudScenario};
pub use taxonomy::{DefenseKind, Locus, MitigationClass};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use hammertime_cache as cache;
pub use hammertime_common as common;
pub use hammertime_dram as dram;
pub use hammertime_memctrl as memctrl;
pub use hammertime_os as os;
pub use hammertime_workloads as workloads;
