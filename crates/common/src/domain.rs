//! Trust domains and request provenance.
//!
//! The paper's threat model is multi-tenant: the unit of isolation is a
//! *trust domain* (a VM or process), identified here by a [`DomainId`]
//! that plays the role of the ASID tag the paper proposes the host OS
//! and memory controller share (§4.1).
//!
//! [`RequestSource`] records *who issued* a memory request — a CPU core
//! or a DMA-capable device. The distinction is load-bearing: core
//! performance counters (and therefore ANVIL-style defenses) only see
//! core traffic, which is exactly the blind spot the paper calls out
//! (§1, §4.2).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A trust domain identifier (ASID): one VM, process, or tenant.
///
/// # Examples
///
/// ```
/// use hammertime_common::DomainId;
///
/// let host = DomainId::HOST;
/// let tenant = DomainId(3);
/// assert_ne!(host, tenant);
/// assert!(host.is_host());
/// assert!(!tenant.is_host());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The host OS / hypervisor domain. Domain 0 is always the host.
    pub const HOST: DomainId = DomainId(0);

    /// Returns `true` for the host domain.
    #[inline]
    pub const fn is_host(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "host")
        } else {
            write!(f, "dom{}", self.0)
        }
    }
}

/// Per-domain mitigation-trigger counts: how much defense work a
/// tenant's request stream has caused.
///
/// This is the accounting substrate BreakHammer-style throttling needs
/// (score suspects by the mitigation triggers they cause, not by raw
/// bandwidth). The memory controller maintains one of these per domain;
/// a tenant's counts travel with it across fleet migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TriggerCounts {
    /// ACTs this domain fed into the in-DRAM TRR sampler.
    pub trr_samples: u64,
    /// MC mitigation throttle delays (BlockHammer/BreakHammer) imposed
    /// on this domain's requests.
    pub throttle_delays: u64,
    /// MC mitigation neighbor-refreshes (PARA/Graphene/TWiCe/Oracle
    /// reactions) provoked by this domain's ACTs.
    pub mitigations: u64,
    /// Forced refreshes (starvation-barrier REFs) attributed to this
    /// domain's traffic.
    pub forced_refs: u64,
    /// Precise ACT-counter interrupts charged to this domain (dominant
    /// contributor of the overflowed window).
    pub act_interrupts: u64,
}

impl TriggerCounts {
    /// Total triggers across all kinds (the BreakHammer suspect score
    /// input).
    pub fn total(&self) -> u64 {
        self.trr_samples
            + self.throttle_delays
            + self.mitigations
            + self.forced_refs
            + self.act_interrupts
    }

    /// Adds another set of counts into this one (migration import,
    /// fleet folds).
    pub fn merge(&mut self, other: &TriggerCounts) {
        self.trr_samples += other.trr_samples;
        self.throttle_delays += other.throttle_delays;
        self.mitigations += other.mitigations;
        self.forced_refs += other.forced_refs;
        self.act_interrupts += other.act_interrupts;
    }
}

/// Who issued a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestSource {
    /// A CPU core (index). Traffic is visible to core PMU sampling and
    /// travels through the cache hierarchy.
    Core(u32),
    /// A DMA-capable device (index). Traffic bypasses the cache
    /// hierarchy and is invisible to core performance counters.
    Dma(u32),
}

impl RequestSource {
    /// Returns `true` if this request came from a DMA device.
    ///
    /// # Examples
    ///
    /// ```
    /// use hammertime_common::RequestSource;
    ///
    /// assert!(RequestSource::Dma(0).is_dma());
    /// assert!(!RequestSource::Core(0).is_dma());
    /// ```
    #[inline]
    pub const fn is_dma(self) -> bool {
        matches!(self, RequestSource::Dma(_))
    }

    /// Returns `true` if this request came from a CPU core.
    #[inline]
    pub const fn is_core(self) -> bool {
        matches!(self, RequestSource::Core(_))
    }
}

impl fmt::Display for RequestSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestSource::Core(i) => write!(f, "core{i}"),
            RequestSource::Dma(i) => write!(f, "dma{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_domain_zero() {
        assert_eq!(DomainId::HOST, DomainId(0));
        assert!(DomainId::HOST.is_host());
        assert!(!DomainId(1).is_host());
    }

    #[test]
    fn source_predicates() {
        assert!(RequestSource::Dma(2).is_dma());
        assert!(!RequestSource::Dma(2).is_core());
        assert!(RequestSource::Core(1).is_core());
    }

    #[test]
    fn display_formats() {
        assert_eq!(DomainId::HOST.to_string(), "host");
        assert_eq!(DomainId(7).to_string(), "dom7");
        assert_eq!(RequestSource::Core(1).to_string(), "core1");
        assert_eq!(RequestSource::Dma(0).to_string(), "dma0");
    }
}
