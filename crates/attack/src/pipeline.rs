//! Composing a triple into a runnable attack.
//!
//! [`AttackRun`] is the executable form of an [`AttackSpec`]: it
//! builds a machine, drives the allocator's acquisition rounds
//! (interleaving victim allocations so physical adjacency is up to the
//! strategy, not the harness), surveys, plans the hammer over the
//! *presumed* view, and judges the result with the victim
//! orchestrator. [`arm_on_scenario`] is the fleet-facing half: it arms
//! an existing [`CloudScenario`] tenant with a triple's hammer so
//! attack pipelines ride as tenant workloads on fleet machines.

use hammertime::machine::MachineConfig;
use hammertime::scenario::{AttackTargeting, CloudScenario};
use hammertime::{Machine, SimReport};
use hammertime_common::{DetRng, DomainId, Result};

use crate::spec::AttackSpec;
use crate::victim::{VictimOrchestrator, VictimVerdict};

/// The attacker tenant in a pipeline-built machine.
pub const ATTACKER: DomainId = DomainId(1);
/// The victim tenant in a pipeline-built machine.
pub const VICTIM: DomainId = DomainId(2);

/// Salt separating the pipeline's rng stream from machine-internal
/// forks of the same configuration seed.
const PIPELINE_SALT: u64 = 0xA77A_C4ED;

/// FNV-1a, for deriving a per-triple rng fork from the spec name.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic rng fork a triple's hammerer draws from: keyed by
/// configuration seed and triple name only — never machine state — so
/// schedules are identical across `--jobs` values and cell orderings.
pub fn triple_rng(seed: u64, spec: &AttackSpec) -> DetRng {
    DetRng::new(seed ^ PIPELINE_SALT).fork(fnv1a(&spec.name()))
}

/// What one pipeline execution produced.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The triple that ran, as `alloc/hammer/victim`.
    pub triple: String,
    /// Ground-truth adjacency of the planned aggressors to the victim.
    pub targeting: AttackTargeting,
    /// Whether the allocator's survey was ground truth.
    pub exact: bool,
    /// Number of aggressor rows the hammer drove.
    pub aggressors: usize,
    /// The victim orchestrator's judgement.
    pub verdict: VictimVerdict,
    /// The machine's full simulation report.
    pub report: SimReport,
}

/// A composed, executable attack pipeline.
#[derive(Debug, Clone)]
pub struct AttackRun {
    /// The triple to execute.
    pub spec: AttackSpec,
    /// Machine configuration (defense under test, seed, geometry).
    pub cfg: MachineConfig,
    /// Aggressor accesses the hammer issues.
    pub accesses: u64,
    /// Refresh windows to simulate.
    pub windows: u64,
    /// Attacker allocation budget in pages.
    pub attacker_pages: u64,
    /// Victim foreground accesses.
    pub victim_reads: u64,
}

impl AttackRun {
    /// A pipeline run with the harness defaults used by experiments.
    pub fn new(spec: AttackSpec, cfg: MachineConfig) -> AttackRun {
        AttackRun {
            spec,
            cfg,
            accesses: 3_000,
            windows: 40,
            attacker_pages: 12,
            victim_reads: 400,
        }
    }

    /// Builds the machine and arms both tenants, without simulating:
    /// the shared front half of [`AttackRun::execute`], also used by
    /// tests that only need to know the triple *builds*.
    ///
    /// # Errors
    ///
    /// Propagates allocation, survey, and planning failures.
    pub fn prepare(&self) -> Result<(Machine, Prepared)> {
        let allocator = self.spec.allocator.build();
        let hammerer = self.spec.hammerer.build(self.cfg.disturbance.mac);
        let mut victim = self.spec.victim.build();

        let mut m = Machine::new(self.cfg.clone())?;
        // Acquisition: the allocator's rounds, with the victim's pages
        // dripped in between so adjacency is the strategy's doing.
        let rounds = allocator.rounds(self.attacker_pages);
        let mut victim_left = victim.pages().max(1);
        let interleave = rounds.len() > 1;
        for round in rounds {
            m.add_tenant(ATTACKER, round)?;
            if interleave && victim_left > 0 {
                m.add_tenant(VICTIM, 1)?;
                victim_left -= 1;
            }
        }
        if victim_left > 0 {
            m.add_tenant(VICTIM, victim_left)?;
        }

        let region = allocator.survey(&m, ATTACKER, self.attacker_pages)?;
        let rng = triple_rng(self.cfg.seed, &self.spec);
        let plan = hammerer.plan(&region, self.accesses, rng)?;
        let targeting = self.ground_truth_targeting(&m, &plan.aggressors)?;
        let aggressors = plan.aggressors.len();
        m.set_workload(ATTACKER, plan.workload)?;
        victim.setup(&mut m, VICTIM, self.victim_reads)?;
        Ok((
            m,
            Prepared {
                triple: self.spec.name(),
                targeting,
                exact: region.exact,
                aggressors,
                victim,
            },
        ))
    }

    /// Runs the pipeline end to end and judges the outcome.
    ///
    /// # Errors
    ///
    /// Propagates build and simulation failures.
    pub fn execute(&self) -> Result<AttackOutcome> {
        let (mut m, prep) = self.prepare()?;
        m.run(self.windows * self.cfg.timing.t_refw);
        let report = m.report();
        let flips = m.drain_annotated_flips();
        let verdict = prep.victim.judge(&m, VICTIM, &flips);
        Ok(AttackOutcome {
            triple: prep.triple,
            targeting: prep.targeting,
            exact: prep.exact,
            aggressors: prep.aggressors,
            verdict,
            report,
        })
    }

    /// Whether any planned aggressor really neighbors a victim-owned
    /// row within the assumed blast radius (ground truth — the
    /// attacker never sees this).
    fn ground_truth_targeting(
        &self,
        m: &Machine,
        aggressors: &[hammertime_common::CacheLineAddr],
    ) -> Result<AttackTargeting> {
        let radius = self.cfg.assumed_radius;
        for &vline in aggressors {
            let pline = m.translate(ATTACKER, vline)?;
            let (bank, row) = m.mc().locate(pline)?;
            for d in 1..=radius {
                for r in [row.checked_sub(d), row.checked_add(d)]
                    .into_iter()
                    .flatten()
                {
                    if m.owner_of_row(&bank, r) == Some(VICTIM) {
                        return Ok(AttackTargeting::CrossDomain);
                    }
                }
            }
        }
        Ok(AttackTargeting::IntraDomainOnly)
    }
}

/// The armed, not-yet-simulated state [`AttackRun::prepare`] returns
/// beside the machine.
pub struct Prepared {
    /// The triple, as `alloc/hammer/victim`.
    pub triple: String,
    /// Ground-truth adjacency of the planned aggressors.
    pub targeting: AttackTargeting,
    /// Whether the survey was ground truth.
    pub exact: bool,
    /// Aggressor rows the hammer will drive.
    pub aggressors: usize,
    /// The victim orchestrator, ready to judge after the run.
    pub victim: Box<dyn VictimOrchestrator>,
}

/// Arms an existing scenario's attacker with a triple's hammer: the
/// fleet entry point. The allocator cannot re-shape an allocation that
/// already happened, so only its *survey* runs (over the scenario
/// attacker's existing pages); the hammerer then plans on that view
/// and the workload is installed on the attacker tenant.
///
/// Returns the planned aggressor count.
///
/// # Errors
///
/// Propagates survey, planning, and installation failures.
pub fn arm_on_scenario(spec: &AttackSpec, s: &mut CloudScenario, accesses: u64) -> Result<usize> {
    let allocator = spec.allocator.build();
    let hammerer = spec.hammerer.build(s.machine.config().disturbance.mac);
    let pages = s.machine.leak_pfns(s.attacker).len() as u64;
    let region = allocator.survey(&s.machine, s.attacker, pages)?;
    let rng = triple_rng(s.machine.config().seed, spec);
    let plan = hammerer.plan(&region, accesses, rng)?;
    let n = plan.aggressors.len();
    s.machine.set_workload(s.attacker, plan.workload)?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime::taxonomy::DefenseKind;

    #[test]
    fn triple_rng_keys_on_seed_and_name_only() {
        let a = AttackSpec::parse("pfn/fuzzed:6/flips").unwrap();
        let b = AttackSpec::parse("pfn/fuzzed:6/key").unwrap();
        assert_eq!(triple_rng(42, &a).next_u64(), triple_rng(42, &a).next_u64());
        assert_ne!(triple_rng(42, &a).next_u64(), triple_rng(42, &b).next_u64());
        assert_ne!(triple_rng(42, &a).next_u64(), triple_rng(43, &a).next_u64());
    }

    #[test]
    fn undefended_pfn_double_flips_the_victim() {
        let spec = AttackSpec::parse("pfn/double/flips").unwrap();
        let run = AttackRun::new(spec, MachineConfig::fast(DefenseKind::None, 24));
        let out = run.execute().unwrap();
        assert_eq!(out.targeting, AttackTargeting::CrossDomain);
        assert!(out.exact);
        assert!(out.verdict.success, "verdict: {:?}", out.verdict);
    }

    #[test]
    fn subarray_isolation_removes_adjacency_for_the_same_triple() {
        let spec = AttackSpec::parse("pfn/double/flips").unwrap();
        let run = AttackRun::new(
            spec,
            MachineConfig::fast(DefenseKind::SubarrayIsolation, 24),
        );
        let out = run.execute().unwrap();
        assert_eq!(out.targeting, AttackTargeting::IntraDomainOnly);
        assert_eq!(out.verdict.raw_flips, 0);
        assert!(!out.verdict.success);
    }

    #[test]
    fn victim_refresh_defense_suppresses_most_flips() {
        // The interleaved buddy layout co-locates both domains within
        // rows, so interrupt-driven refresh can't win every race — but
        // it must eliminate the overwhelming majority of flips.
        let spec = AttackSpec::parse("pfn/double/flips").unwrap();
        let none = AttackRun::new(spec, MachineConfig::fast(DefenseKind::None, 24))
            .execute()
            .unwrap();
        let defended = AttackRun::new(
            spec,
            MachineConfig::fast(DefenseKind::VictimRefreshInstr, 24),
        )
        .execute()
        .unwrap();
        assert!(none.verdict.raw_flips > 0);
        assert!(
            defended.verdict.raw_flips * 10 < none.verdict.raw_flips,
            "defended {} vs undefended {}",
            defended.verdict.raw_flips,
            none.verdict.raw_flips
        );
    }
}
