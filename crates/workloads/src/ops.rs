//! Access operations and the workload interface.
//!
//! Workloads are iterators over [`AccessOp`]s against physical cache
//! lines. Attack generators emit the flush+access patterns Rowhammer
//! needs (every access must reach DRAM, paper §2.1); benign generators
//! model the production traffic defenses must not tax.

use hammertime_common::{CacheLineAddr, RequestSource};
use serde::{Deserialize, Serialize};

/// One operation a workload asks the machine to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOp {
    /// Load a cache line.
    Read(CacheLineAddr),
    /// Store to a cache line (the payload byte fills the line).
    Write(CacheLineAddr, u8),
    /// clflush the line (so the next access misses).
    Flush(CacheLineAddr),
}

impl AccessOp {
    /// The line this operation touches.
    pub fn line(&self) -> CacheLineAddr {
        match *self {
            AccessOp::Read(l) | AccessOp::Write(l, _) | AccessOp::Flush(l) => l,
        }
    }

    /// Whether this operation is a memory access (not a flush).
    pub fn is_access(&self) -> bool {
        !matches!(self, AccessOp::Flush(_))
    }
}

/// A finite or unbounded stream of operations.
///
/// `Send` is a supertrait so a boxed workload — and therefore a
/// detached tenant carrying one — can cross threads: the fleet layer
/// migrates tenants between machines owned by different worker
/// threads. Every generator here holds only owned data, so the bound
/// costs nothing.
pub trait Workload: Send {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Who issues this stream's accesses — CPU core traffic flows
    /// through the cache and PMU; DMA traffic bypasses both (§1).
    fn source(&self) -> RequestSource {
        RequestSource::Core(0)
    }

    /// Produces the next operation, or `None` when finished.
    fn next_op(&mut self) -> Option<AccessOp>;

    /// Unused: nothing in the simulator copies a workload, and no
    /// workload here overrides this. It stays only because the
    /// benchmark harness's timing decorator (`perfbench`) overrides
    /// it; it goes with the next change to that harness.
    fn box_clone(&self) -> Option<Box<dyn Workload>> {
        None
    }

    /// Unused, like [`Workload::box_clone`], and kept for the same
    /// reason: the benchmark harness's timing decorator overrides it.
    fn snapshot(&self) -> Option<WorkloadSnapshot> {
        None
    }
}

/// The return type of [`Workload::snapshot`]. It has no values: no
/// workload can be snapshotted, and the type goes with the method.
#[derive(Debug)]
pub enum WorkloadSnapshot {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_line_extraction() {
        let l = CacheLineAddr(9);
        assert_eq!(AccessOp::Read(l).line(), l);
        assert_eq!(AccessOp::Write(l, 7).line(), l);
        assert_eq!(AccessOp::Flush(l).line(), l);
        assert!(AccessOp::Read(l).is_access());
        assert!(AccessOp::Write(l, 0).is_access());
        assert!(!AccessOp::Flush(l).is_access());
    }
}
