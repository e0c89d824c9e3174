//! Fleet mode: sharded multi-machine, multi-tenant simulation.
//!
//! One machine tells you whether a defense works; a *fleet* tells you
//! what deploying it costs. This crate shards thousands of simulated
//! machines — heterogeneous geometries, DRAM generations, fault
//! plans, defense slates — across worker threads under the engine's
//! determinism contract (`--jobs N` is byte-identical to the serial
//! loop), runs a tenant/workload scheduler over them (ASID churn,
//! cross-machine migration that moves a detached tenant's workload),
//! and reduces the per-machine reports to population-level
//! *distributions*: flip-rate and defense-overhead percentiles per
//! slate, the numbers a deployment decision actually turns on.
//!
//! Layers:
//!
//! - [`population`]: one fleet seed → a deterministic population of
//!   [`population::MachineSpec`]s (the seed-forking tree).
//! - [`shard`]: the sharded runner — epochs, the migration mailbox,
//!   per-machine step-budget scopes, [`shard::FleetReport`].
//!   [`run_fleet`] is the one way to run a fleet.
//! - [`stats`]: per-slate percentile/histogram aggregation
//!   ([`stats::PopulationStats`]) with a mergeable fold.
//! - [`experiment`]: the FL experiment family and the combined
//!   (core + FL) registry the CLI and golden suite run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod population;
pub mod shard;
pub mod stats;

pub use experiment::{full_registry, run_all_traced, run_all_with};
pub use population::{DramGen, MachineClass, MachineSpec};
pub use shard::{run_fleet, FleetConfig, FleetReport, MachineOutcome};
pub use stats::{fold, percentile, MachineSample, PopulationStats, SlateStats};
