//! Physical frame allocation with Rowhammer-aware placement policies.
//!
//! The isolation-centric mitigations differ only in *where* the host
//! allocator places each trust domain's frames (paper §4.1):
//!
//! - [`PlacementPolicy::Default`] — first fit, domains mix freely
//!   (vulnerable baseline).
//! - [`PlacementPolicy::SubarrayGroup`] — the paper's proposal: each
//!   domain draws from its own subarray group; interleaving stays on.
//! - [`PlacementPolicy::BankPartition`] — the prior-work approach:
//!   each domain gets private banks; interleaving must be disabled.
//! - [`PlacementPolicy::ZebramGuard`] — guard rows: `radius` unused
//!   row stripes separate any two domains' allocations.

use hammertime_common::geometry::BankId;
use hammertime_common::{DomainId, Error, Result};
use hammertime_memctrl::addrmap::{AddressMap, MappingScheme};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Frame placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// First-fit anywhere; trust domains intermix.
    Default,
    /// One subarray group per domain (requires
    /// [`MappingScheme::SubarrayIsolated`]).
    SubarrayGroup,
    /// Private banks per domain (requires
    /// [`MappingScheme::BankPartition`]).
    BankPartition,
    /// Guard stripes: `radius` unallocated row stripes between
    /// different domains (requires a stripe-forming interleaved map).
    ZebramGuard {
        /// Guard width in row stripes (should be >= the blast radius).
        radius: u32,
    },
    /// CATT-style kernel/user physical partitioning: the bottom
    /// eighth of each bank's row stripes (at least one) is reserved
    /// for the host kernel, a `radius`-stripe guard band separates it
    /// from user tenants, and no allocation ever crosses the boundary
    /// (requires a stripe-forming interleaved map).
    CattPartition {
        /// Guard width in row stripes (should be >= the blast radius).
        radius: u32,
    },
}

/// Kernel region size under [`PlacementPolicy::CattPartition`]: an
/// eighth of the bank's row stripes, at least one.
fn catt_kernel_stripes(map: &AddressMap) -> u32 {
    (map.geometry().rows_per_bank() / 8).max(1)
}

/// The host OS physical frame allocator.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    policy: PlacementPolicy,
    map: AddressMap,
    free: BTreeSet<u64>,
    owner: HashMap<u64, DomainId>,
    /// SubarrayGroup: domain → group; BankPartition: domain → flat bank.
    domain_region: HashMap<DomainId, u32>,
    /// ZebramGuard: row stripe → owning domain (while any frame of the
    /// stripe is out), plus reserved guard stripes.
    stripe_owner: BTreeMap<u32, DomainId>,
    guard_stripes: BTreeSet<u32>,
    /// Frames sacrificed as guards (capacity accounting).
    pub guard_frames: u64,
    /// Frame → row stripe ([`NO_STRIPE`] for a frame that straddles
    /// rows), built on the first [`FrameAllocator::alloc_isolated`].
    /// The address map never changes, so the table never goes stale,
    /// and machines that never migrate a page never build it.
    stripe_of: Option<Vec<u32>>,
}

/// [`FrameAllocator`]'s stripe-table entry for a frame whose lines
/// span more than one row: never an isolated candidate, never foreign.
const NO_STRIPE: u32 = u32::MAX;

impl FrameAllocator {
    /// Builds an allocator over the controller's address map.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if the policy is incompatible with the
    /// mapping scheme.
    pub fn new(policy: PlacementPolicy, map: AddressMap) -> Result<FrameAllocator> {
        match policy {
            PlacementPolicy::SubarrayGroup if map.scheme() != MappingScheme::SubarrayIsolated => {
                return Err(Error::Config(
                    "SubarrayGroup placement requires subarray-isolated interleaving".into(),
                ));
            }
            PlacementPolicy::BankPartition if map.scheme() != MappingScheme::BankPartition => {
                return Err(Error::Config(
                    "BankPartition placement requires the bank-partition mapping".into(),
                ));
            }
            PlacementPolicy::ZebramGuard { .. } => {
                // Guard stripes need a stripe-forming map.
                map.row_stripe_of_frame(0).map_err(|_| {
                    Error::Config("ZebramGuard requires a row-stripe-forming map".into())
                })?;
            }
            PlacementPolicy::CattPartition { radius } => {
                map.row_stripe_of_frame(0).map_err(|_| {
                    Error::Config("CattPartition requires a row-stripe-forming map".into())
                })?;
                let kernel = catt_kernel_stripes(&map);
                if kernel + radius >= map.geometry().rows_per_bank() {
                    return Err(Error::Config(
                        "CattPartition kernel region + guard band leaves no user stripes".into(),
                    ));
                }
            }
            _ => {}
        }
        let free: BTreeSet<u64> = (0..map.geometry().total_frames()).collect();
        let mut alloc = FrameAllocator {
            policy,
            map,
            free,
            owner: HashMap::new(),
            domain_region: HashMap::new(),
            stripe_owner: BTreeMap::new(),
            guard_stripes: BTreeSet::new(),
            guard_frames: 0,
            stripe_of: None,
        };
        if let PlacementPolicy::CattPartition { radius } = policy {
            // Reserve the kernel/user guard band up front: its frames
            // never enter circulation, so the boundary holds for the
            // allocator's whole lifetime.
            let kernel = catt_kernel_stripes(&alloc.map);
            for s in kernel..kernel + radius {
                if alloc.guard_stripes.insert(s) {
                    for f in alloc.map.frames_of_row_stripe(s) {
                        if alloc.free.remove(&f) {
                            alloc.guard_frames += 1;
                        }
                    }
                }
            }
        }
        Ok(alloc)
    }

    /// The placement policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The address map the allocator reasons over.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Registers a domain, claiming its region under region-based
    /// policies. Must be called before [`FrameAllocator::alloc`] for
    /// that domain.
    ///
    /// # Errors
    ///
    /// [`Error::Exhausted`] when no region remains.
    pub fn register_domain(&mut self, domain: DomainId) -> Result<()> {
        if self.domain_region.contains_key(&domain) {
            return Ok(());
        }
        match self.policy {
            PlacementPolicy::SubarrayGroup => {
                let groups = self.map.subarray_groups();
                let used: BTreeSet<u32> = self.domain_region.values().copied().collect();
                let group = (0..groups)
                    .find(|g| !used.contains(g))
                    .ok_or_else(|| Error::Exhausted("no free subarray group".into()))?;
                self.domain_region.insert(domain, group);
            }
            PlacementPolicy::BankPartition => {
                let g = self.map.geometry();
                let banks = g.total_banks() as u32;
                let used: BTreeSet<u32> = self.domain_region.values().copied().collect();
                let bank = (0..banks)
                    .find(|b| !used.contains(b))
                    .ok_or_else(|| Error::Exhausted("no free bank".into()))?;
                self.domain_region.insert(domain, bank);
            }
            PlacementPolicy::Default
            | PlacementPolicy::ZebramGuard { .. }
            | PlacementPolicy::CattPartition { .. } => {
                self.domain_region.insert(domain, 0);
            }
        }
        Ok(())
    }

    /// The subarray group (or flat bank) assigned to `domain`, if the
    /// policy is region-based.
    pub fn region_of(&self, domain: DomainId) -> Option<u32> {
        match self.policy {
            PlacementPolicy::SubarrayGroup | PlacementPolicy::BankPartition => {
                self.domain_region.get(&domain).copied()
            }
            _ => None,
        }
    }

    /// Allocates one frame for `domain`.
    ///
    /// # Errors
    ///
    /// [`Error::Exhausted`] when no placement-compatible frame is
    /// free; [`Error::Config`] for unregistered domains.
    pub fn alloc(&mut self, domain: DomainId) -> Result<u64> {
        if !self.domain_region.contains_key(&domain) {
            return Err(Error::Config(format!("{domain} not registered")));
        }
        let frame = match self.policy {
            PlacementPolicy::Default => self.free.iter().next().copied(),
            PlacementPolicy::SubarrayGroup => {
                let group = self.domain_region[&domain];
                let range = self.map.frames_of_group(group)?;
                self.free.range(range).next().copied()
            }
            PlacementPolicy::BankPartition => {
                let bank = self.domain_region[&domain];
                self.free
                    .iter()
                    .find(|&&f| {
                        self.map
                            .bank_of_frame(f)
                            .map(|b| b.flat(self.map.geometry()) as u32 == bank)
                            .unwrap_or(false)
                    })
                    .copied()
            }
            PlacementPolicy::ZebramGuard { radius } => self.zebram_candidate(domain, radius),
            PlacementPolicy::CattPartition { radius } => {
                let kernel = catt_kernel_stripes(&self.map);
                let first_user = kernel + radius;
                self.free
                    .iter()
                    .copied()
                    .find(|&f| match self.map.row_stripe_of_frame(f) {
                        Ok(s) if domain.is_host() => s < kernel,
                        Ok(s) => s >= first_user,
                        Err(_) => false,
                    })
            }
        }
        .ok_or_else(|| Error::Exhausted(format!("no frame available for {domain}")))?;

        if let PlacementPolicy::ZebramGuard { radius } = self.policy {
            self.claim_stripe_with_guards(frame, domain, radius)?;
        }
        self.free.remove(&frame);
        self.owner.insert(frame, domain);
        Ok(frame)
    }

    /// The last valid row stripe (stripes are in-bank rows).
    fn max_stripe(&self) -> u32 {
        self.map.geometry().rows_per_bank() - 1
    }

    fn zebram_candidate(&self, domain: DomainId, radius: u32) -> Option<u64> {
        // Prefer a free frame in a stripe this domain already owns.
        for &f in &self.free {
            let stripe = self.map.row_stripe_of_frame(f).ok()?;
            if self.stripe_owner.get(&stripe) == Some(&domain) {
                return Some(f);
            }
        }
        // Otherwise find a frame whose stripe (and guard band) is
        // untouched by other domains.
        'frames: for &f in &self.free {
            let stripe = match self.map.row_stripe_of_frame(f) {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.guard_stripes.contains(&stripe) {
                continue;
            }
            if self.stripe_owner.contains_key(&stripe) {
                continue; // owned by someone else (same-domain case handled above)
            }
            let lo = stripe.saturating_sub(radius);
            let hi = (stripe + radius).min(self.max_stripe());
            for s in lo..=hi {
                if let Some(&o) = self.stripe_owner.get(&s) {
                    if o != domain {
                        continue 'frames;
                    }
                }
            }
            return Some(f);
        }
        None
    }

    fn claim_stripe_with_guards(
        &mut self,
        frame: u64,
        domain: DomainId,
        radius: u32,
    ) -> Result<()> {
        let stripe = self.map.row_stripe_of_frame(frame)?;
        if self.stripe_owner.get(&stripe) == Some(&domain) {
            return Ok(());
        }
        self.stripe_owner.insert(stripe, domain);
        // Reserve guard stripes on both sides: remove their frames from
        // the free pool so nobody can ever land there. Clamp to the
        // last real stripe — an edge-of-region claim must not record
        // phantom guard stripes past the top of the bank (they would
        // inflate the guard set and skew capacity accounting).
        let lo = stripe.saturating_sub(radius);
        let hi = (stripe + radius).min(self.max_stripe());
        for s in lo..=hi {
            if s == stripe || self.stripe_owner.contains_key(&s) {
                continue;
            }
            if self.guard_stripes.insert(s) {
                for f in self.map.frames_of_row_stripe(s) {
                    if self.free.remove(&f) {
                        self.guard_frames += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Allocates a frame whose row-stripe neighborhood (±`radius`
    /// stripes) contains no frames owned by *other* domains — the
    /// placement a migration-based defense must use, because dropping
    /// the displaced page into a first-fit hole next to another
    /// tenant's pages re-creates exactly the adjacency the migration
    /// was meant to destroy.
    ///
    /// Falls back to plain [`FrameAllocator::alloc`] when no isolated
    /// frame exists (or the mapping forms no row stripes).
    ///
    /// # Errors
    ///
    /// [`Error::Exhausted`] when nothing is free at all.
    pub fn alloc_isolated(&mut self, domain: DomainId, radius: u32) -> Result<u64> {
        if !self.domain_region.contains_key(&domain) {
            return Err(Error::Config(format!("{domain} not registered")));
        }
        let max_stripe = self.max_stripe();
        let map = &self.map;
        let stripe_of = self.stripe_of.get_or_insert_with(|| {
            (0..map.geometry().total_frames())
                .map(|f| map.row_stripe_of_frame(f).unwrap_or(NO_STRIPE))
                .collect()
        });
        // Mark the stripes that hold another domain's frames.
        let mut foreign = vec![false; max_stripe as usize + 1];
        for (&frame, &owner) in &self.owner {
            let s = stripe_of[frame as usize];
            if owner != domain && s != NO_STRIPE {
                foreign[s as usize] = true;
            }
        }
        let candidate = self.free.iter().copied().find(|&f| {
            let stripe = stripe_of[f as usize];
            if stripe == NO_STRIPE {
                return false;
            }
            let lo = stripe.saturating_sub(radius);
            let hi = (stripe + radius).min(max_stripe);
            !foreign[lo as usize..=hi as usize].contains(&true)
        });
        match candidate {
            Some(f) => {
                self.free.remove(&f);
                self.owner.insert(f, domain);
                Ok(f)
            }
            None => self.alloc(domain),
        }
    }

    /// Frees a frame.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if the frame is not allocated.
    pub fn release(&mut self, frame: u64) -> Result<()> {
        if self.owner.remove(&frame).is_none() {
            return Err(Error::Config(format!("frame {frame} not allocated")));
        }
        self.free.insert(frame);
        Ok(())
    }

    /// The domain owning `frame`, if any.
    pub fn owner_of(&self, frame: u64) -> Option<DomainId> {
        self.owner.get(&frame).copied()
    }

    /// Transfers ownership of an allocated frame (used to retire a
    /// hammered frame to the host's quarantine pool after a remap:
    /// the frame stays unavailable but no longer attributes flips to
    /// its former owner).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if the frame is not allocated.
    pub fn reassign(&mut self, frame: u64, to: DomainId) -> Result<()> {
        match self.owner.get_mut(&frame) {
            Some(owner) => {
                *owner = to;
                Ok(())
            }
            None => Err(Error::Config(format!("frame {frame} not allocated"))),
        }
    }

    /// All frames currently owned by `domain`.
    pub fn frames_of(&self, domain: DomainId) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .owner
            .iter()
            .filter(|(_, &d)| d == domain)
            .map(|(&f, _)| f)
            .collect();
        v.sort_unstable();
        v
    }

    /// Free frames remaining.
    pub fn free_frames(&self) -> u64 {
        self.free.len() as u64
    }

    /// Row stripes currently reserved as guards (ZebramGuard only).
    /// Every entry is a real stripe of the geometry — edge-of-region
    /// claims are clamped, never recorded as phantom stripes.
    pub fn guard_stripe_set(&self) -> Vec<u32> {
        self.guard_stripes.iter().copied().collect()
    }

    /// `(kernel stripes, first user stripe)` under
    /// [`PlacementPolicy::CattPartition`]; `None` otherwise. The guard
    /// band occupies the stripes in between.
    pub fn catt_regions(&self) -> Option<(u32, u32)> {
        match self.policy {
            PlacementPolicy::CattPartition { radius } => {
                let kernel = catt_kernel_stripes(&self.map);
                Some((kernel, kernel + radius))
            }
            _ => None,
        }
    }

    /// `(row stripe, region)` pairs for every stripe holding allocated
    /// frames under CATT partitioning — region 0 is the kernel side of
    /// the boundary, region 1 the user side — in the shape
    /// `hammertime-check`'s `lint_domain_stripes` expects. The view is
    /// derived from the *boundary*, not per-frame owners: a
    /// HOST-quarantined frame inside the user region stays region 1,
    /// so quarantine churn cannot fake a partition violation. Empty
    /// under any other policy.
    pub fn partition_view(&self) -> Vec<(u32, u64)> {
        let Some((kernel, _)) = self.catt_regions() else {
            return Vec::new();
        };
        let mut stripes: BTreeMap<u32, u64> = BTreeMap::new();
        for &frame in self.owner.keys() {
            if let Ok(s) = self.map.row_stripe_of_frame(frame) {
                stripes.insert(s, u64::from(s >= kernel));
            }
        }
        stripes.into_iter().collect()
    }

    /// `(row stripe, owning domain)` pairs for every stripe a domain
    /// currently owns frames in — the input the isolation-domain
    /// invariant checker (`hammertime-check`) lints against the guard
    /// radius.
    pub fn stripe_ownership(&self) -> Vec<(u32, u64)> {
        self.stripe_owner
            .iter()
            .map(|(&s, &d)| (s, u64::from(d.0)))
            .collect()
    }

    /// The owner of the frame containing in-bank `row` of `bank`, for
    /// flip-event domain annotation. Scans the row's stripe frames
    /// under interleaved maps, or computes directly under
    /// bank-partitioned maps.
    pub fn owner_of_row(&self, bank: &BankId, row: u32) -> Option<DomainId> {
        // Any line in (bank,row): reconstruct via the inverse map.
        let coord = hammertime_common::DramCoord {
            channel: bank.channel,
            rank: bank.rank,
            bank_group: bank.bank_group,
            bank: bank.bank,
            row,
            col: 0,
        };
        let line = self.map.to_line(&coord).ok()?;
        self.owner_of(line.page_frame())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::Geometry;

    fn map(scheme: MappingScheme) -> AddressMap {
        AddressMap::new(scheme, Geometry::medium()).unwrap()
    }

    #[test]
    fn default_policy_allocates_everything() {
        let mut a = FrameAllocator::new(
            PlacementPolicy::Default,
            map(MappingScheme::CacheLineInterleave),
        )
        .unwrap();
        let d = DomainId(1);
        a.register_domain(d).unwrap();
        let total = a.free_frames();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..total {
            let f = a.alloc(d).unwrap();
            assert!(seen.insert(f), "double allocation of {f}");
        }
        assert!(a.alloc(d).is_err(), "exhaustion must error");
        assert_eq!(a.frames_of(d).len() as u64, total);
    }

    #[test]
    fn alloc_requires_registration() {
        let mut a = FrameAllocator::new(
            PlacementPolicy::Default,
            map(MappingScheme::CacheLineInterleave),
        )
        .unwrap();
        assert!(a.alloc(DomainId(9)).is_err());
    }

    #[test]
    fn release_and_reuse() {
        let mut a = FrameAllocator::new(
            PlacementPolicy::Default,
            map(MappingScheme::CacheLineInterleave),
        )
        .unwrap();
        let d = DomainId(1);
        a.register_domain(d).unwrap();
        let f = a.alloc(d).unwrap();
        assert_eq!(a.owner_of(f), Some(d));
        a.release(f).unwrap();
        assert_eq!(a.owner_of(f), None);
        assert!(a.release(f).is_err(), "double free must error");
        let f2 = a.alloc(d).unwrap();
        assert_eq!(f, f2, "first-fit reuses the freed frame");
    }

    #[test]
    fn subarray_group_policy_separates_domains() {
        let m = map(MappingScheme::SubarrayIsolated);
        let mut a = FrameAllocator::new(PlacementPolicy::SubarrayGroup, m).unwrap();
        let (d1, d2) = (DomainId(1), DomainId(2));
        a.register_domain(d1).unwrap();
        a.register_domain(d2).unwrap();
        assert_ne!(a.region_of(d1), a.region_of(d2));
        for _ in 0..10 {
            let f1 = a.alloc(d1).unwrap();
            let f2 = a.alloc(d2).unwrap();
            assert_eq!(a.map().group_of_frame(f1), a.region_of(d1).unwrap());
            assert_eq!(a.map().group_of_frame(f2), a.region_of(d2).unwrap());
        }
    }

    #[test]
    fn subarray_group_rejects_wrong_mapping() {
        let m = map(MappingScheme::CacheLineInterleave);
        assert!(FrameAllocator::new(PlacementPolicy::SubarrayGroup, m).is_err());
    }

    #[test]
    fn subarray_groups_exhaust_at_geometry_limit() {
        let m = map(MappingScheme::SubarrayIsolated); // 4 subarrays
        let mut a = FrameAllocator::new(PlacementPolicy::SubarrayGroup, m).unwrap();
        for i in 1..=4 {
            a.register_domain(DomainId(i)).unwrap();
        }
        assert!(a.register_domain(DomainId(5)).is_err());
    }

    #[test]
    fn bank_partition_policy_separates_banks() {
        let m = map(MappingScheme::BankPartition);
        let mut a = FrameAllocator::new(PlacementPolicy::BankPartition, m).unwrap();
        let (d1, d2) = (DomainId(1), DomainId(2));
        a.register_domain(d1).unwrap();
        a.register_domain(d2).unwrap();
        let f1 = a.alloc(d1).unwrap();
        let f2 = a.alloc(d2).unwrap();
        let g = *a.map().geometry();
        assert_ne!(
            a.map().bank_of_frame(f1).unwrap().flat(&g),
            a.map().bank_of_frame(f2).unwrap().flat(&g)
        );
    }

    #[test]
    fn zebram_guard_invariant_holds() {
        let radius = 2;
        let m = map(MappingScheme::CacheLineInterleave);
        let mut a = FrameAllocator::new(PlacementPolicy::ZebramGuard { radius }, m).unwrap();
        let (d1, d2) = (DomainId(1), DomainId(2));
        a.register_domain(d1).unwrap();
        a.register_domain(d2).unwrap();
        let mut stripes: Vec<(u32, DomainId)> = Vec::new();
        for i in 0..20 {
            let d = if i % 2 == 0 { d1 } else { d2 };
            let f = a.alloc(d).unwrap();
            let s = a.map().row_stripe_of_frame(f).unwrap();
            stripes.push((s, d));
        }
        for &(s1, o1) in &stripes {
            for &(s2, o2) in &stripes {
                if o1 != o2 {
                    let dist = s1.abs_diff(s2);
                    assert!(
                        dist > radius,
                        "domains {o1}/{o2} within blast radius: stripes {s1},{s2}"
                    );
                }
            }
        }
        assert!(a.guard_frames > 0, "guards must cost capacity");
    }

    #[test]
    fn zebram_reuses_own_stripe_before_claiming_new() {
        let m = map(MappingScheme::CacheLineInterleave);
        let mut a = FrameAllocator::new(PlacementPolicy::ZebramGuard { radius: 1 }, m).unwrap();
        let d = DomainId(1);
        a.register_domain(d).unwrap();
        let f1 = a.alloc(d).unwrap();
        let f2 = a.alloc(d).unwrap();
        let s1 = a.map().row_stripe_of_frame(f1).unwrap();
        let s2 = a.map().row_stripe_of_frame(f2).unwrap();
        // Medium geometry: a stripe holds multiple frames, so the
        // second allocation stays in the first stripe.
        assert_eq!(s1, s2);
    }

    #[test]
    fn alloc_isolated_avoids_foreign_neighborhoods() {
        let m = map(MappingScheme::CacheLineInterleave);
        let mut a = FrameAllocator::new(PlacementPolicy::Default, m).unwrap();
        let (d1, d2) = (DomainId(1), DomainId(2));
        a.register_domain(d1).unwrap();
        a.register_domain(d2).unwrap();
        // d1 takes the first two stripes via plain first-fit.
        for _ in 0..4 {
            a.alloc(d1).unwrap();
        }
        // An isolated allocation for d2 must skip the guard band.
        let f = a.alloc_isolated(d2, 2).unwrap();
        let s2 = a.map().row_stripe_of_frame(f).unwrap();
        for frame in a.frames_of(d1) {
            let s1 = a.map().row_stripe_of_frame(frame).unwrap();
            assert!(
                s2.abs_diff(s1) > 2,
                "isolated alloc landed at stripe {s2} near {s1}"
            );
        }
        // Plain alloc for comparison lands adjacent (the hazard).
        let f_naive = a.alloc(d2).unwrap();
        let s_naive = a.map().row_stripe_of_frame(f_naive).unwrap();
        assert!(s_naive < s2, "first-fit fills the hole next to d1");
    }

    #[test]
    fn alloc_isolated_falls_back_when_no_isolated_frame() {
        let m = map(MappingScheme::CacheLineInterleave);
        let total = m.geometry().total_frames();
        let mut a = FrameAllocator::new(PlacementPolicy::Default, m).unwrap();
        let (d1, d2) = (DomainId(1), DomainId(2));
        a.register_domain(d1).unwrap();
        a.register_domain(d2).unwrap();
        // d1 owns every other stripe region: leave no isolated hole.
        for _ in 0..total - 1 {
            a.alloc(d1).unwrap();
        }
        // One frame left, adjacent to d1 everywhere: fallback still
        // allocates rather than failing.
        let f = a.alloc_isolated(d2, 1).unwrap();
        assert_eq!(a.owner_of(f), Some(d2));
        assert!(a.alloc_isolated(d2, 1).is_err(), "now truly exhausted");
    }

    /// The isolated candidate as `alloc_isolated` chose it before the
    /// stripe table: each call translates the stripe of every owned
    /// frame, then of each free frame in turn.
    fn isolated_by_translation(a: &FrameAllocator, domain: DomainId, radius: u32) -> Option<u64> {
        let mut foreign_stripes = BTreeSet::new();
        for (&frame, &owner) in &a.owner {
            if owner != domain {
                if let Ok(s) = a.map.row_stripe_of_frame(frame) {
                    foreign_stripes.insert(s);
                }
            }
        }
        a.free.iter().copied().find(|&f| {
            let Ok(stripe) = a.map.row_stripe_of_frame(f) else {
                return false;
            };
            let lo = stripe.saturating_sub(radius);
            let hi = (stripe + radius).min(a.max_stripe());
            foreign_stripes.range(lo..=hi).next().is_none()
        })
    }

    proptest::proptest! {
        /// `alloc_isolated` picks the frame the per-call translation
        /// picks, fallback to `alloc` included, over random
        /// interleavings of isolated and first-fit allocations by three
        /// tenants and the host, with tenant frames retired to the host
        /// pool as a remap retires them, until the pool is exhausted.
        /// `BankPartition`'s frames straddle rows at medium geometry,
        /// so its isolated allocations always fall back.
        #[test]
        fn alloc_isolated_matches_per_call_translation(
            scheme in proptest::prop_oneof![
                proptest::strategy::Just(MappingScheme::CacheLineInterleave),
                proptest::strategy::Just(MappingScheme::RubixScramble { seed: 0xA5A5 }),
                proptest::strategy::Just(MappingScheme::BankPartition),
            ],
            radius in 1u32..4,
            steps in proptest::prop::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    0usize..4,
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<u64>(),
                ),
                1..64,
            ),
        ) {
            let domains = [DomainId(1), DomainId(2), DomainId(3), DomainId::HOST];
            let mut a = FrameAllocator::new(PlacementPolicy::Default, map(scheme)).unwrap();
            for d in domains {
                a.register_domain(d).unwrap();
            }
            let mut tenant_frames = Vec::new();
            let mut i = 0;
            // Every step allocates one frame, so the loop ends.
            while a.free_frames() > 0 {
                let (isolated, who, retire, pick) = steps[i % steps.len()];
                i += 1;
                let d = domains[who];
                let f = if isolated {
                    let want = isolated_by_translation(&a, d, radius)
                        .or_else(|| a.clone().alloc(d).ok());
                    let got = a.alloc_isolated(d, radius).ok();
                    proptest::prop_assert_eq!(got, want, "step {}", i);
                    got.expect("a free frame exists")
                } else {
                    a.alloc(d).unwrap()
                };
                proptest::prop_assert_eq!(a.owner_of(f), Some(d));
                if !d.is_host() {
                    tenant_frames.push(f);
                }
                if retire && !tenant_frames.is_empty() {
                    let k = (pick % tenant_frames.len() as u64) as usize;
                    a.reassign(tenant_frames.swap_remove(k), DomainId::HOST).unwrap();
                }
            }
            proptest::prop_assert!(a.alloc_isolated(DomainId(1), radius).is_err());
        }
    }

    #[test]
    fn edge_of_region_claim_records_no_phantom_guard_stripes() {
        // Regression: the guard window `stripe + radius` was never
        // clamped to the last real stripe, so claiming near the top of
        // the bank recorded guard stripes that don't exist.
        let m = map(MappingScheme::CacheLineInterleave);
        let max_stripe = m.geometry().rows_per_bank() - 1;
        let radius = 3;
        let mut a = FrameAllocator::new(PlacementPolicy::ZebramGuard { radius }, m).unwrap();
        let d = DomainId(1);
        a.register_domain(d).unwrap();
        // Claim a frame in the very top stripe (first-fit never gets
        // there on its own — guards quantize the walk — so drive the
        // claim directly, as a migration landing at the edge would).
        let f = *a
            .map()
            .frames_of_row_stripe(max_stripe)
            .first()
            .expect("top stripe has frames");
        a.claim_stripe_with_guards(f, d, radius).unwrap();
        assert!(
            a.stripe_ownership().iter().any(|&(s, _)| s == max_stripe),
            "top stripe must be claimed"
        );
        let guards = a.guard_stripe_set();
        assert!(
            guards.iter().all(|&s| s <= max_stripe),
            "phantom guard stripes beyond last stripe {max_stripe}: {guards:?}"
        );
        // Exactly the radius stripes below the edge are guards.
        assert_eq!(guards.len() as u32, radius);
    }

    proptest::proptest! {
        #[test]
        fn zebram_guard_accounting_and_isolation_hold(
            radius in 1u32..5,
            allocs in 1usize..24,
            seed in 0u64..64,
        ) {
            let m = map(MappingScheme::CacheLineInterleave);
            let max_stripe = m.geometry().rows_per_bank() - 1;
            let mut a =
                FrameAllocator::new(PlacementPolicy::ZebramGuard { radius }, m).unwrap();
            let (d1, d2) = (DomainId(1), DomainId(2));
            a.register_domain(d1).unwrap();
            a.register_domain(d2).unwrap();
            let mut guard_frames_recount = 0u64;
            for i in 0..allocs {
                // Deterministic interleaving of the two domains.
                let d = if (seed >> (i % 64)) & 1 == 0 { d1 } else { d2 };
                if a.alloc(d).is_err() {
                    break; // guard cost can exhaust small geometries
                }
            }
            // Every recorded guard stripe is real and every one of its
            // frames left the free pool exactly once.
            for s in a.guard_stripe_set() {
                proptest::prop_assert!(s <= max_stripe);
                guard_frames_recount += a.map().frames_of_row_stripe(s).len() as u64;
            }
            proptest::prop_assert_eq!(guard_frames_recount, a.guard_frames);
            // The allocator's output satisfies the isolation-domain
            // invariant the checker enforces.
            let violations =
                hammertime_check::lint_domain_stripes(&a.stripe_ownership(), radius);
            proptest::prop_assert!(
                violations.is_empty(),
                "domain-guard violations: {:?}",
                violations
            );
        }
    }

    #[test]
    fn catt_partition_separates_kernel_from_users() {
        let radius = 2;
        let m = map(MappingScheme::CacheLineInterleave);
        let mut a = FrameAllocator::new(PlacementPolicy::CattPartition { radius }, m).unwrap();
        assert!(a.guard_frames > 0, "the guard band must cost capacity");
        let (kernel, first_user) = a.catt_regions().unwrap();
        assert_eq!(first_user - kernel, radius);
        let (host, user) = (DomainId::HOST, DomainId(1));
        a.register_domain(host).unwrap();
        a.register_domain(user).unwrap();
        for _ in 0..4 {
            let fk = a.alloc(host).unwrap();
            let fu = a.alloc(user).unwrap();
            assert!(a.map().row_stripe_of_frame(fk).unwrap() < kernel);
            assert!(a.map().row_stripe_of_frame(fu).unwrap() >= first_user);
        }
        // The boundary view satisfies the checker's guard invariant.
        let violations = hammertime_check::lint_domain_stripes(&a.partition_view(), radius);
        assert!(
            violations.is_empty(),
            "partition violations: {violations:?}"
        );
    }

    #[test]
    fn catt_kernel_region_exhausts_without_crossing() {
        let m = map(MappingScheme::CacheLineInterleave);
        let mut a = FrameAllocator::new(PlacementPolicy::CattPartition { radius: 1 }, m).unwrap();
        let host = DomainId::HOST;
        a.register_domain(host).unwrap();
        let (kernel, _) = a.catt_regions().unwrap();
        let mut kernel_frames = 0u64;
        while let Ok(f) = a.alloc(host) {
            assert!(
                a.map().row_stripe_of_frame(f).unwrap() < kernel,
                "kernel allocation crossed into the user region"
            );
            kernel_frames += 1;
        }
        // Exactly the kernel stripes' frames were allocatable.
        let expected: u64 = (0..kernel)
            .map(|s| a.map().frames_of_row_stripe(s).len() as u64)
            .sum();
        assert_eq!(kernel_frames, expected);
    }

    #[test]
    fn catt_quarantined_host_frame_does_not_fake_a_violation() {
        let radius = 2;
        let m = map(MappingScheme::CacheLineInterleave);
        let mut a = FrameAllocator::new(PlacementPolicy::CattPartition { radius }, m).unwrap();
        let (host, user) = (DomainId::HOST, DomainId(1));
        a.register_domain(host).unwrap();
        a.register_domain(user).unwrap();
        a.alloc(host).unwrap();
        let fu = a.alloc(user).unwrap();
        // Quarantine the user frame to the host pool (remap retire).
        a.reassign(fu, host).unwrap();
        // The partition view keys off the boundary, so the retired
        // frame stays on the user side and the lint still passes.
        let violations = hammertime_check::lint_domain_stripes(&a.partition_view(), radius);
        assert!(violations.is_empty(), "quarantine faked: {violations:?}");
    }

    #[test]
    fn catt_rejects_degenerate_geometries() {
        // 8 rows/bank → kernel 1 stripe; a radius that swallows the
        // rest of the bank must be refused at construction.
        let g = Geometry::medium();
        let m = AddressMap::new(MappingScheme::CacheLineInterleave, g).unwrap();
        let rows = g.rows_per_bank();
        assert!(
            FrameAllocator::new(PlacementPolicy::CattPartition { radius: rows }, m).is_err(),
            "guard band covering the whole bank must be rejected"
        );
    }

    #[test]
    fn owner_of_row_resolves_interleaved_frames() {
        let m = map(MappingScheme::CacheLineInterleave);
        let mut a = FrameAllocator::new(PlacementPolicy::Default, m).unwrap();
        let d = DomainId(3);
        a.register_domain(d).unwrap();
        let f = a.alloc(d).unwrap();
        let stripe = a.map().row_stripe_of_frame(f).unwrap();
        // The frame's lines live in row `stripe` of several banks; the
        // owner lookup must find the domain from (bank, row).
        let line = hammertime_common::CacheLineAddr(f * 64);
        let coord = a.map().to_coord(line).unwrap();
        let bank = BankId::of(&coord);
        assert_eq!(coord.row, stripe);
        assert_eq!(a.owner_of_row(&bank, coord.row), Some(d));
    }
}
