//! Protocol-invariant checking for the hammertime simulator.
//!
//! The paper's controller primitives (ACT counters, targeted refresh,
//! isolation-aware mapping) and every defense built on them reason
//! about *when commands may issue*: tRRD/tFAW ACT spacing, refresh
//! deadlines, bank occupancy. A silent timing violation in the
//! simulated controller would invalidate each of those comparisons, so
//! this crate provides the oracle that keeps the rest of the workspace
//! honest:
//!
//! - [`Rule`] / [`Violation`]: the declarative invariant catalog —
//!   per-bank state-machine legality, per-bank timing, per-channel
//!   command/data-bus exclusivity, rank-level tRRD/tFAW/tRFC, refresh
//!   deadlines, and cross-layer conservation. Violations are
//!   structured and serializable (JSONL reports).
//! - [`InvariantChecker`]: an incremental shadow of the device's
//!   timing state, fed one [`CmdEvent`](hammertime_telemetry::CmdEvent)
//!   at a time. It mirrors the arithmetic of `hammertime-dram`'s bank
//!   and rank models *independently* (no shared code), so a bug in the
//!   device model cannot hide itself.
//! - [`lint_records`] / [`lint_trace`]: offline validation of a
//!   recorded [`CommandTrace`](hammertime_telemetry::CommandTrace) —
//!   the engine behind the `trace lint` CLI subcommand. Traces are
//!   self-describing (`DeviceReset` embeds the device config), so no
//!   out-of-band configuration is needed.
//! - [`mutate`]: a mutation harness (drop/shift/insert/reorder
//!   commands in a recorded trace) proving each rule class actually
//!   fires — the lint of the lint.
//! - [`lint_domain_stripes`]: the OS-layer isolation invariant (no two
//!   domains own row stripes within one guard radius).
//!
//! The checker reads the recorded stream, never the live scheduler:
//! it depends on `hammertime-dram` (to name device configs and
//! commands) and `hammertime-telemetry`, and only the CLI's
//! `trace lint` and the test suites depend on it. The controller and
//! the machine do not compile against their own linter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod domain;
mod lint;
pub mod mutate;
mod rules;

pub use checker::InvariantChecker;
pub use domain::lint_domain_stripes;
pub use lint::{lint_records, lint_trace, LintReport};
pub use rules::{Rule, RuleClass, Violation};

/// Maximum legal gap between consecutive REF commands to one rank, in
/// multiples of tREFI: JEDEC DDR4 allows up to 8 REFs to be postponed
/// (the "pull-in window"), so two REFs may never be more than 9×tREFI
/// apart.
pub const MAX_REF_GAP_TREFI: u64 = 9;
