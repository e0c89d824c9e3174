//! Shared fixtures: the fast machine scale, the canonical attack /
//! benign scenario runners, and [`RunSpec`], the value that names one
//! such run so the engine can share it between cells.

use super::engine::CellCtx;
use crate::machine::{Machine, MachineConfig};
use crate::metrics::SimReport;
use crate::scenario::{AttackTargeting, CloudScenario};
use crate::taxonomy::DefenseKind;
use hammertime_common::{DomainId, FaultPlan, Result};
use std::fmt;

/// The standard fast-scale MAC used across experiments.
pub const FAST_MAC: u64 = 24;

/// Attack length at the given scale.
pub(crate) fn accesses(quick: bool) -> u64 {
    if quick {
        2_500
    } else {
        8_000
    }
}

/// What one [`RunSpec`] simulates on its machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The three-tenant benign mix, run to completion.
    Benign,
    /// A CPU double-sided hammer.
    DoubleSided,
    /// A CPU many-sided hammer with six aggressors.
    ManySided,
    /// A DMA double-sided hammer (bypasses the cache and the PMU).
    Dma,
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::Benign => f.write_str("benign"),
            Scenario::DoubleSided => f.write_str("double-sided"),
            Scenario::ManySided => f.write_str("many-sided(6)"),
            Scenario::Dma => f.write_str("dma"),
        }
    }
}

/// One simulation on the fast-scale machine ([`FAST_MAC`]), named by
/// everything its [`SimReport`] depends on. Two equal specs produce
/// equal reports, so the suite runner simulates each distinct spec
/// once and hands the report to every cell that declared it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Defense under test.
    pub defense: DefenseKind,
    /// Machine-wide fault plan (`None` = healthy hardware).
    pub faults: Option<FaultPlan>,
    /// Quick scale (shrunk access counts and window budgets).
    pub quick: bool,
    /// The workload the machine runs.
    pub scenario: Scenario,
}

impl RunSpec {
    /// `scenario` under `defense`, with the context's fault plan and
    /// scale.
    pub(crate) fn fast(defense: DefenseKind, scenario: Scenario, ctx: &CellCtx) -> RunSpec {
        RunSpec {
            defense,
            faults: ctx.faults,
            quick: ctx.quick,
            scenario,
        }
    }

    /// Builds the spec's fast-scale machine and runs its scenario.
    ///
    /// # Errors
    ///
    /// Propagates machine construction and workload errors.
    pub fn run(&self) -> Result<SimReport> {
        let mut cfg = MachineConfig::fast(self.defense, FAST_MAC);
        cfg.faults = self.faults;
        let n = accesses(self.quick);
        match self.scenario {
            Scenario::Benign => run_benign_with(cfg, self.quick),
            Scenario::DoubleSided => run_attack_with(cfg, |s| s.arm_double_sided(n), self.quick),
            Scenario::ManySided => run_attack_with(cfg, |s| s.arm_many_sided(6, n), self.quick),
            Scenario::Dma => run_attack_with(cfg, |s| s.arm_dma(n), self.quick),
        }
    }
}

/// Runs one attack scenario: four tenants, `arm` installs the hammer,
/// the victim reads its pages, and the machine runs a window budget.
pub(crate) fn run_attack_with(
    cfg: MachineConfig,
    arm: impl FnOnce(&mut CloudScenario) -> Result<AttackTargeting>,
    quick: bool,
) -> Result<SimReport> {
    let mut s = CloudScenario::build_sized(cfg, 4)?;
    arm(&mut s)?;
    s.victim_reads(if quick { 100 } else { 400 })?;
    let windows = if quick { 40 } else { 150 };
    s.run_windows(windows);
    Ok(s.report())
}

/// Runs the canonical three-tenant benign mix (stream, random,
/// zipfian) to completion on a machine built from `cfg` (the
/// ablations pass configs with tweaked controller knobs).
pub(crate) fn run_benign_with(cfg: MachineConfig, quick: bool) -> Result<SimReport> {
    use hammertime_common::DetRng;
    use hammertime_workloads::{RandomWorkload, StreamWorkload, ZipfianWorkload};
    let windows = if quick { 100 } else { 400 };
    let t_refw = cfg.timing.t_refw;
    let n = accesses(quick) / 4;
    let mut m = Machine::new(cfg)?;
    let seed = m.config().seed;
    let a1 = m.add_tenant(DomainId(1), 2)?;
    let a2 = m.add_tenant(DomainId(2), 2)?;
    let a3 = m.add_tenant(DomainId(3), 2)?;
    m.set_workload(DomainId(1), Box::new(StreamWorkload::new(a1, n, 8)))?;
    m.set_workload(
        DomainId(2),
        Box::new(RandomWorkload::new(a2, n, 0.2, DetRng::new(seed ^ 2))),
    )?;
    m.set_workload(
        DomainId(3),
        Box::new(ZipfianWorkload::new(a3, n, 0.99, DetRng::new(seed ^ 3))),
    )?;
    // Run to completion (makespan), capped at the window budget so a
    // throttled/broken configuration still terminates.
    for _ in 0..windows {
        m.run(t_refw);
        if m.all_finished() {
            break;
        }
    }
    Ok(m.report())
}
