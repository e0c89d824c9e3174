//! Hammer-pattern strategies over a presumed-contiguous region.
//!
//! A [`Hammerer`] turns a [`ConsecRegion`] into a runnable
//! [`HammerPlan`]: it picks aggressors *in the attacker's presumed
//! coordinates* (never ground truth) and wraps them in one of the
//! `hammertime-workloads` pattern generators. The same hammerer
//! composed with a lower-fidelity allocator therefore hammers worse —
//! the degradation the cross-product experiment measures.

use hammertime_common::{CacheLineAddr, DetRng, Error, Result};
use hammertime_workloads::{DmaHammer, FuzzedHammer, HammerPattern, Workload};

use crate::region::ConsecRegion;

/// A planned hammer: the workload to install plus the attacker-virtual
/// aggressor lines it will drive (for ground-truth targeting checks).
pub struct HammerPlan {
    /// The workload to install on the attacker tenant.
    pub workload: Box<dyn Workload>,
    /// The aggressor lines the pattern drives, in attacker-virtual
    /// space.
    pub aggressors: Vec<CacheLineAddr>,
}

/// A temporal hammer pattern, parameterized by the region view.
pub trait Hammerer {
    /// Short name used in [`crate::AttackSpec`] triples.
    fn name(&self) -> &'static str;

    /// Plans a hammer over `region` issuing `accesses` aggressor
    /// accesses. `rng` is an explicit deterministic fork for the
    /// strategies that randomize (fuzzed schedules); non-randomizing
    /// strategies ignore it.
    ///
    /// # Errors
    ///
    /// Returns an error when the region is too small to express the
    /// pattern (for example, fewer than two rows for a double-sided
    /// pair).
    fn plan(&self, region: &ConsecRegion, accesses: u64, rng: DetRng) -> Result<HammerPlan>;
}

fn too_small(what: &str, region: &ConsecRegion) -> Error {
    Error::Config(format!(
        "{} hammer needs more rows than the {}-row {} region provides",
        what,
        region.len(),
        region.strategy
    ))
}

/// Classic single-sided hammer on one presumed row.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleSided;

impl Hammerer for SingleSided {
    fn name(&self) -> &'static str {
        "single"
    }

    fn plan(&self, region: &ConsecRegion, accesses: u64, _rng: DetRng) -> Result<HammerPlan> {
        let picks = region.pick_spaced(1);
        let &a = picks.first().ok_or_else(|| too_small("single", region))?;
        Ok(HammerPlan {
            workload: Box::new(HammerPattern::single_sided(a, accesses)),
            aggressors: vec![a],
        })
    }
}

/// Double-sided hammer around a presumed sandwiched row.
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleSided;

impl Hammerer for DoubleSided {
    fn name(&self) -> &'static str {
        "double"
    }

    fn plan(&self, region: &ConsecRegion, accesses: u64, _rng: DetRng) -> Result<HammerPlan> {
        let (a, b) = region
            .pick_pair()
            .ok_or_else(|| too_small("double", region))?;
        Ok(HammerPlan {
            workload: Box::new(HammerPattern::double_sided(a, b, accesses)),
            aggressors: vec![a, b],
        })
    }
}

/// TRRespass-style many-sided hammer over `n` spaced rows.
#[derive(Debug, Clone, Copy)]
pub struct ManySided(pub usize);

impl Hammerer for ManySided {
    fn name(&self) -> &'static str {
        "many"
    }

    fn plan(&self, region: &ConsecRegion, accesses: u64, _rng: DetRng) -> Result<HammerPlan> {
        let picks = region.pick_spaced(self.0.max(1));
        if picks.is_empty() {
            return Err(too_small("many-sided", region));
        }
        Ok(HammerPlan {
            workload: Box::new(HammerPattern::many_sided(picks.clone(), accesses)),
            aggressors: picks,
        })
    }
}

/// Seeded Blacksmith-style fuzzed n-sided hammer: the per-period
/// schedule is drawn from the explicit [`DetRng`] fork, never ambient
/// machine state.
#[derive(Debug, Clone, Copy)]
pub struct FuzzedSided(pub usize);

impl Hammerer for FuzzedSided {
    fn name(&self) -> &'static str {
        "fuzzed"
    }

    fn plan(&self, region: &ConsecRegion, accesses: u64, rng: DetRng) -> Result<HammerPlan> {
        let picks = region.pick_spaced(self.0.max(1));
        if picks.is_empty() {
            return Err(too_small("fuzzed", region));
        }
        Ok(HammerPlan {
            workload: Box::new(FuzzedHammer::generate(rng, &picks, accesses)),
            aggressors: picks,
        })
    }
}

/// Decoy-paced double-sided hammer: bursts of aggressor ACTs broken up
/// by a far-away decoy row to stay under per-row activation counters.
/// Degrades to a plain double-sided hammer when the region has no row
/// far enough from the pair to serve as a decoy.
#[derive(Debug, Clone, Copy)]
pub struct DecoyPaced {
    /// Aggressor ACTs per burst before a decoy is interleaved.
    pub burst: u64,
}

impl Hammerer for DecoyPaced {
    fn name(&self) -> &'static str {
        "paced"
    }

    fn plan(&self, region: &ConsecRegion, accesses: u64, _rng: DetRng) -> Result<HammerPlan> {
        let (a, b) = region
            .pick_pair()
            .ok_or_else(|| too_small("paced", region))?;
        let pattern = HammerPattern::double_sided(a, b, accesses);
        let pattern = match region.pick_decoy(&[a, b], 4) {
            Some(decoy) => pattern.paced(self.burst.max(1), decoy),
            None => pattern,
        };
        Ok(HammerPlan {
            workload: Box::new(pattern),
            aggressors: vec![a, b],
        })
    }
}

/// DMA-issued double-sided hammer: the accesses arrive from a device,
/// bypassing the CPU cache hierarchy (no flush needed, different
/// provenance for defenses that track cores).
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaSided;

impl Hammerer for DmaSided {
    fn name(&self) -> &'static str {
        "dma"
    }

    fn plan(&self, region: &ConsecRegion, accesses: u64, _rng: DetRng) -> Result<HammerPlan> {
        let (a, b) = region.pick_pair().ok_or_else(|| too_small("dma", region))?;
        Ok(HammerPlan {
            workload: Box::new(DmaHammer::new(0, vec![a, b], accesses)),
            aggressors: vec![a, b],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::PresumedRow;

    fn region(n: u64) -> ConsecRegion {
        ConsecRegion {
            strategy: "test",
            exact: true,
            rows: (0..n)
                .map(|s| PresumedRow {
                    group: 0,
                    slot: s,
                    lines: vec![CacheLineAddr(100 + s)],
                })
                .collect(),
        }
        .canonicalize()
    }

    #[test]
    fn hammerers_plan_on_a_healthy_region() {
        let r = region(12);
        let rng = DetRng::new(1);
        for h in [
            &SingleSided as &dyn Hammerer,
            &DoubleSided,
            &ManySided(4),
            &FuzzedSided(4),
            &DecoyPaced { burst: 3 },
            &DmaSided,
        ] {
            let plan = h.plan(&r, 50, rng.clone()).unwrap();
            assert!(!plan.aggressors.is_empty(), "{}", h.name());
        }
    }

    #[test]
    fn pair_hammerers_reject_single_row_regions() {
        let r = region(1);
        assert!(DoubleSided.plan(&r, 50, DetRng::new(1)).is_err());
        assert!(DmaSided.plan(&r, 50, DetRng::new(1)).is_err());
        assert!(SingleSided.plan(&r, 50, DetRng::new(1)).is_ok());
    }

    #[test]
    fn fuzzed_plan_depends_only_on_the_fork() {
        let r = region(12);
        let a = FuzzedSided(4).plan(&r, 50, DetRng::new(9)).unwrap();
        let b = FuzzedSided(4).plan(&r, 50, DetRng::new(9)).unwrap();
        assert_eq!(a.aggressors, b.aggressors);
    }
}
