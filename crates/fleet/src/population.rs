//! Population synthesis: from one fleet seed to thousands of
//! heterogeneous machine specifications.
//!
//! The seed-forking tree keeps specs independent of sharding: machine
//! `i`'s stream is `DetRng::new(fleet_seed).fork(i + 1)` — a *fresh*
//! parent per machine, so the stream depends only on `(fleet_seed, i)`
//! and never on how many workers exist or in what order machines are
//! built. Everything downstream (the machine's own RNG, its churn
//! scheduler, its workload mixes) forks from that per-machine stream.

use hammertime::machine::MachineConfig;
use hammertime::taxonomy::DefenseKind;
use hammertime_common::{DetRng, FaultPlan, Geometry};
use hammertime_dram::TimingParams;

use crate::shard::FleetConfig;

/// Hardware class of a machine: DRAM organization and cache shape.
/// The fleet mixes classes so population statistics cover
/// heterogeneous geometries, not one canonical box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineClass {
    /// Small embedded-style part: 2 banks, 64-row subarrays.
    Compact,
    /// The canonical fast-experiment machine (64 MiB medium geometry).
    Standard,
    /// A larger part: 8 deep subarrays per bank, wide rows.
    Dense,
}

impl MachineClass {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MachineClass::Compact => "compact",
            MachineClass::Standard => "standard",
            MachineClass::Dense => "dense",
        }
    }

    /// The class's DRAM geometry (all counts powers of two, as the
    /// bit-sliced address maps require).
    pub fn geometry(&self) -> Geometry {
        match self {
            MachineClass::Compact => Geometry {
                channels: 1,
                ranks: 1,
                bank_groups: 1,
                banks_per_group: 2,
                subarrays_per_bank: 2,
                rows_per_subarray: 64,
                columns: 16,
            },
            MachineClass::Standard => Geometry::medium(),
            MachineClass::Dense => Geometry {
                channels: 1,
                ranks: 1,
                bank_groups: 2,
                banks_per_group: 2,
                subarrays_per_bank: 8,
                rows_per_subarray: 128,
                columns: 64,
            },
        }
    }
}

/// DRAM generation of a machine: the worsening-Rowhammer trend (§3)
/// expressed as a falling MAC on the compressed fast scale, plus the
/// generation's (compressed) refresh cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramGen {
    /// Early DDR3-era part: high MAC.
    Ddr3,
    /// DDR4-era part.
    Ddr4,
    /// LPDDR4-era part (faster refresh cadence in the compressed
    /// model: `tiny_test` windows are 10x shorter than `tiny_wide`).
    Lpddr4,
    /// Projected future node: lowest MAC.
    Future,
}

impl DramGen {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DramGen::Ddr3 => "ddr3",
            DramGen::Ddr4 => "ddr4",
            DramGen::Lpddr4 => "lpddr4",
            DramGen::Future => "future",
        }
    }

    /// Maximum activation count on the compressed fast scale,
    /// mirroring the generational trend E1 sweeps.
    pub fn mac(&self) -> u64 {
        match self {
            DramGen::Ddr3 => 96,
            DramGen::Ddr4 => 48,
            DramGen::Lpddr4 => 24,
            DramGen::Future => 12,
        }
    }

    /// Compressed timing parameters for the generation.
    pub fn timing(&self) -> TimingParams {
        match self {
            DramGen::Lpddr4 => TimingParams::tiny_test(),
            _ => TimingParams::tiny_wide(),
        }
    }
}

/// Everything needed to build one fleet machine deterministically.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Fleet-wide machine id (`0..machines`).
    pub id: u32,
    /// The machine's own seed, drawn from its forked spec stream.
    pub seed: u64,
    /// Hardware class.
    pub class: MachineClass,
    /// DRAM generation.
    pub gen: DramGen,
    /// Defense slate deployed on this machine.
    pub defense: DefenseKind,
    /// Whether an attacker tenant hammers this machine.
    pub attacked: bool,
    /// Fault plan for the canonical degraded subset (`None` =
    /// healthy).
    pub faults: Option<FaultPlan>,
    /// Benign tenants seeded at build time (more churn in and out
    /// later).
    pub benign_tenants: u32,
}

impl MachineSpec {
    /// The machine config this spec describes: the canonical fast
    /// scale specialized by class, generation, slate, and seed.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::fast(self.defense, self.gen.mac());
        cfg.geometry = self.class.geometry();
        cfg.timing = self.gen.timing();
        cfg.seed = self.seed;
        cfg.faults = self.faults;
        cfg
    }

    /// The spec's private RNG stream, forked fresh from the fleet
    /// seed (see the module docs for why this is shard-independent).
    /// `salt` separates consumers: spec synthesis, the churn
    /// scheduler, and workload generation each get their own stream.
    pub fn stream(fleet_seed: u64, id: u32, salt: u64) -> DetRng {
        DetRng::new(fleet_seed).fork(id as u64 + 1).fork(salt)
    }
}

/// Deterministic fault-plan subset: every fourth machine (phase 1) of
/// a degraded fleet runs the plan. Documented here because the
/// differential suite pins it: the subset must be a pure function of
/// the machine id.
pub fn is_faulty_machine(id: u32) -> bool {
    id % 4 == 1
}

/// Synthesizes the whole population from the fleet config. Pure:
/// depends only on `(cfg.seed, cfg.machines, cfg.slates, cfg.faults,
/// cfg.tenants, cfg.attack_fraction)` — never on worker count.
pub fn synthesize(cfg: &FleetConfig) -> Vec<MachineSpec> {
    assert!(!cfg.slates.is_empty(), "fleet needs at least one slate");
    (0..cfg.machines)
        .map(|id| {
            let mut rng = MachineSpec::stream(cfg.seed, id, 0x5bec);
            let seed = rng.next_u64();
            let class = match rng.below(8) {
                0..=2 => MachineClass::Compact,
                3..=6 => MachineClass::Standard,
                _ => MachineClass::Dense,
            };
            let gen = match rng.below(4) {
                0 => DramGen::Ddr3,
                1 => DramGen::Ddr4,
                2 => DramGen::Lpddr4,
                _ => DramGen::Future,
            };
            // Round-robin slates so every slate's percentile pool has
            // a near-equal machine count.
            let defense = cfg.slates[id as usize % cfg.slates.len()];
            let attacked = rng.chance(cfg.attack_fraction);
            let faults = cfg.faults.filter(|_| is_faulty_machine(id));
            let benign_tenants = cfg.tenants.max(1) + rng.below(2) as u32;
            MachineSpec {
                id,
                seed,
                class,
                gen,
                defense,
                attacked,
                faults,
                benign_tenants,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_and_id_keyed() {
        let cfg = FleetConfig::new(16);
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.class, y.class);
            assert_eq!(x.attacked, y.attacked);
        }
        // Growing the fleet must not disturb existing machines: spec i
        // is a function of (seed, i) alone.
        let mut big = FleetConfig::new(32);
        big.seed = cfg.seed;
        let c = synthesize(&big);
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.class, y.class);
        }
    }

    #[test]
    fn class_geometries_validate() {
        for class in [
            MachineClass::Compact,
            MachineClass::Standard,
            MachineClass::Dense,
        ] {
            class.geometry().validate().unwrap();
        }
    }

    #[test]
    fn slates_rotate_round_robin() {
        let cfg = FleetConfig::new(8);
        let specs = synthesize(&cfg);
        let n = cfg.slates.len();
        for s in &specs {
            assert_eq!(s.defense, cfg.slates[s.id as usize % n]);
        }
    }
}
