//! Fleet-layer integration suite: the determinism contract across
//! worker counts, tenant migration round-trips, population-statistics
//! laws, and step-budget isolation between sibling machines.

use hammertime::experiments::{run_budgeted, FailureKind};
use hammertime::machine::TenantExport;
use hammertime::{DefenseKind, Machine, MachineConfig};
use hammertime_common::{DomainId, Error, FaultPlan};
use hammertime_fleet::population::{is_faulty_machine, synthesize, DramGen, MachineClass};
use hammertime_fleet::shard::{run_fleet, FleetConfig, FleetReport, MachineOutcome};
use hammertime_fleet::stats::{fold, PopulationStats};
use hammertime_workloads::StreamWorkload;
use proptest::prelude::*;
use std::sync::OnceLock;

fn report_bytes(r: &FleetReport) -> String {
    serde_json::to_string(r).expect("fleet report serializes")
}

fn chaos_plan() -> FaultPlan {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/chaos-plan.json"
    ))
    .expect("chaos fixture is readable");
    serde_json::from_str(&json).expect("chaos fixture parses")
}

proptest! {
    /// The tentpole contract: a fleet run is byte-identical — every
    /// outcome, the population stats, the metrics-bearing reports,
    /// and the recorded trace — for any worker count, including the
    /// serial loop.
    #[test]
    fn fleet_is_byte_identical_across_jobs(
        machines in 4u32..12,
        seed in any::<u64>(),
        jobs in 2usize..9,
    ) {
        let mut base = FleetConfig::new(machines).seed(seed);
        base.trace_machine = Some(machines / 2);
        let serial = run_fleet(&base).unwrap();
        let sharded = run_fleet(&base.clone().jobs(jobs)).unwrap();
        prop_assert_eq!(report_bytes(&serial), report_bytes(&sharded));
    }

    /// Folding the outcome list in any order gives exactly the naive
    /// fold: population aggregation is permutation-invariant.
    #[test]
    fn population_fold_is_permutation_invariant(perm_seed in any::<u64>()) {
        let outcomes = sample_outcomes();
        let reference = serde_json::to_string(&fold(outcomes)).unwrap();

        // Shuffle deterministically from the proptest-drawn seed.
        let mut shuffled: Vec<&MachineOutcome> = outcomes.iter().collect();
        let mut rng = hammertime_common::DetRng::new(perm_seed);
        rng.shuffle(&mut shuffled);

        let mut folded = PopulationStats::default();
        for o in shuffled {
            folded.push(o);
        }
        prop_assert_eq!(serde_json::to_string(&folded).unwrap(), reference);
    }
}

/// Real outcomes to exercise the statistics laws on, computed once.
fn sample_outcomes() -> &'static [MachineOutcome] {
    static OUTCOMES: OnceLock<Vec<MachineOutcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| {
        let mut cfg = FleetConfig::new(16).jobs(4);
        // A tight budget mixes failed machines into the sample set,
        // so the laws cover the failure-count path too.
        cfg.step_budget = Some(40_000);
        run_fleet(&cfg).unwrap().outcomes
    })
}

/// The canonical chaos plan on the deterministic degraded subset:
/// output stays byte-identical across worker counts, and fault
/// injection lands exactly on the machines `is_faulty_machine` names.
#[test]
fn chaos_fleet_is_deterministic_and_faults_stay_on_subset() {
    let mut cfg = FleetConfig::new(13);
    cfg.faults = Some(chaos_plan());
    let serial = run_fleet(&cfg).unwrap();
    let sharded = run_fleet(&cfg.clone().jobs(8)).unwrap();
    assert_eq!(report_bytes(&serial), report_bytes(&sharded));
    for o in &serial.outcomes {
        assert_eq!(o.faulty, is_faulty_machine(o.id), "machine {}", o.id);
    }
    assert!(serial.outcomes.iter().any(|o| o.faulty));
    assert!(serial.outcomes.iter().any(|o| !o.faulty));
}

/// An empty fleet and a trace machine outside the fleet are
/// configuration errors, not a run with a silently empty trace.
#[test]
fn empty_fleet_and_out_of_range_trace_machine_are_config_errors() {
    assert!(matches!(
        run_fleet(&FleetConfig::new(0)),
        Err(Error::Config(_))
    ));
    let mut cfg = FleetConfig::new(8);
    for id in [8, 99] {
        cfg.trace_machine = Some(id);
        let err = run_fleet(&cfg).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "machine {id}: {err}");
    }
    cfg.trace_machine = Some(7);
    assert!(!run_fleet(&cfg).unwrap().trace.is_empty());
}

fn machine_a() -> Machine {
    let mut cfg = MachineConfig::fast(DefenseKind::None, 48);
    cfg.seed = 7;
    Machine::new(cfg).unwrap()
}

/// Machine B: a *different geometry* than A (the compact class), so
/// the round-trip crosses hardware shapes.
fn machine_b() -> Machine {
    let mut cfg = MachineConfig::fast(DefenseKind::None, 48);
    cfg.geometry = MachineClass::Compact.geometry();
    cfg.seed = 11;
    Machine::new(cfg).unwrap()
}

const MIGRANT: DomainId = DomainId(77);

/// Runs the tenant on a fresh machine A and detaches it mid-stream.
fn detach_mid_run() -> TenantExport {
    let mut a = machine_a();
    let arena = a.add_tenant(MIGRANT, 2).unwrap();
    a.set_workload(MIGRANT, Box::new(StreamWorkload::new(arena, 600, 4)))
        .unwrap();
    a.run(20_000);
    let export = a.detach_tenant(MIGRANT).unwrap();

    // Detach quarantines: the domain's address space is gone from A
    // and its frames went to the host pool, never back to free lists.
    assert!(a
        .translate(MIGRANT, hammertime_common::CacheLineAddr(0))
        .is_err());
    assert!(export.ops_done > 0, "tenant must be detached mid-run");
    export
}

/// Tenant-migration round trip: a tenant detached mid-stream from
/// machine A and admitted on machine B (different geometry) behaves
/// exactly like its twin, detached from a second, identically seeded
/// A and admitted on a from-scratch identically seeded B. Migration
/// moves the workload; nothing copies it.
#[test]
fn migration_round_trip_matches_from_scratch_run() {
    let (export, twin) = (detach_mid_run(), detach_mid_run());
    assert_eq!(export.pages, 2);
    assert_eq!(export.ops_done, twin.ops_done);

    let run_b = |export: TenantExport| {
        let mut b = machine_b();
        b.admit_tenant(export).unwrap();
        b.run(30_000);
        serde_json::to_string(&b.report()).unwrap()
    };
    assert_eq!(run_b(export), run_b(twin));
}

/// Trigger attribution follows a migrating tenant. A tenant caught
/// hammering on machine A (BreakHammer charges its ledger and suspect
/// score) is detached — A forgets it entirely, and further running
/// must not re-attribute anything to the departed domain — and
/// admitted on machine B (different geometry), where the ledger entry
/// and the suspicion it implies are restored from the export.
#[test]
fn migrated_tenant_carries_its_trigger_ledger() {
    use hammertime::scenario::CloudScenario;
    let bh = DefenseKind::BreakHammer { score_threshold: 4 };
    let mut cfg = MachineConfig::fast(bh, 24);
    cfg.seed = 7;
    let mut s = CloudScenario::build(cfg).unwrap();
    s.arm_double_sided(3_000).unwrap();
    s.run_windows(20);

    let hammerer = s.attacker;
    let charged = s.machine.mc().trigger_counts(hammerer);
    assert!(charged.total() > 0, "hammering must charge triggers");

    let export = s.machine.detach_tenant(hammerer).unwrap();
    assert_eq!(export.triggers, charged, "export must carry the ledger");
    assert!(
        !s.machine.mc().trigger_ledger().contains_key(&hammerer.0),
        "source must drop the departed tenant's ledger entry"
    );
    assert_eq!(s.machine.mc().mitigation().suspect_score(hammerer), 0);
    s.run_windows(5);
    assert_eq!(
        s.machine.mc().trigger_counts(hammerer).total(),
        0,
        "stale attribution to a departed domain"
    );

    let mut bcfg = MachineConfig::fast(bh, 24);
    bcfg.geometry = MachineClass::Compact.geometry();
    bcfg.seed = 11;
    let mut b = Machine::new(bcfg).unwrap();
    b.admit_tenant(export).unwrap();
    assert_eq!(
        b.mc().trigger_counts(hammerer),
        charged,
        "destination must restore the migrated ledger entry"
    );
    assert_eq!(
        b.mc().mitigation().suspect_score(hammerer),
        charged.total(),
        "suspicion must be sticky across migration"
    );
    assert_eq!(
        b.report().triggers_by_tenant.get(&hammerer.0),
        Some(&charged),
        "the report must surface the restored entry"
    );
}

/// The refuse path at the fleet level: admitting the same domain twice
/// must be rejected.
#[test]
fn admitted_tenants_block_remapping_and_double_admission() {
    let (export, twin) = (detach_mid_run(), detach_mid_run());
    let mut b = machine_b();
    b.admit_tenant(export).unwrap();
    let err = b.admit_tenant(twin).unwrap_err();
    assert!(err.to_string().contains("already a tenant"), "{err}");
}

/// Satellite 6 regression: one machine exhausting its step budget
/// becomes a structured `Timeout` outcome; sibling machines on the
/// same worker keep their own budgets and complete. The generation
/// mix guarantees both kinds exist: an LPDDR4 machine's whole run
/// (2 epochs x 6 windows x tREFW 800) fits the budget, a tiny_wide
/// machine's does not.
#[test]
fn budget_timeout_does_not_poison_sibling_machines() {
    let mut cfg = FleetConfig::new(12);
    cfg.step_budget = Some(20_000);
    let specs = synthesize(&cfg);
    assert!(specs.iter().any(|s| s.gen == DramGen::Lpddr4));
    assert!(specs.iter().any(|s| s.gen != DramGen::Lpddr4));

    let report = run_fleet(&cfg).unwrap();
    let timeouts: Vec<u32> = report
        .outcomes
        .iter()
        .filter(|o| o.failure.is_some())
        .map(|o| o.id)
        .collect();
    assert!(!timeouts.is_empty(), "some machine must exhaust 20k cycles");
    assert!(
        timeouts.len() < report.outcomes.len(),
        "LPDDR4 machines must survive the budget"
    );
    for (id, f) in report.failures() {
        assert_eq!(f.kind, FailureKind::Timeout, "machine {id}: {f:?}");
    }
    // Survivors are not truncated: each ran its full two epochs.
    for o in report.outcomes.iter().filter(|o| o.failure.is_none()) {
        let r = o.report.as_ref().unwrap();
        assert!(r.cycles >= 2 * 6 * 800, "machine {} stopped early", o.id);
    }
    // The whole degraded run still honours the determinism contract.
    let sharded = run_fleet(&cfg.clone().jobs(5)).unwrap();
    assert_eq!(report_bytes(&report), report_bytes(&sharded));
}

/// A machine timing out inside its own budget scope must not consume
/// or corrupt the *enclosing* scope's budget (FL1 cells run whole
/// fleets under the suite's `--step-budget`).
#[test]
fn nested_budget_scope_restores_the_outer_budget() {
    let outer = run_budgeted("outer", Some(1_000_000), || {
        let inner = run_budgeted("inner", Some(500), || {
            machine_a().run(50_000);
            Ok(())
        });
        let f = inner.expect_err("inner scope must time out");
        assert_eq!(f.kind, FailureKind::Timeout);
        // 50k cycles fit the outer budget with room to spare; if the
        // inner exhaustion leaked into this scope, this panics.
        machine_a().run(50_000);
        Ok(())
    });
    assert!(outer.is_ok(), "outer scope poisoned: {outer:?}");
}

/// Every id documented in EXPERIMENTS.md resolves in the combined
/// core + FL registry and vice versa — this crate sees every
/// experiment, so it owns the bidirectional check.
#[test]
fn full_registry_matches_experiments_md() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md is readable");
    let documented: Vec<&str> = md
        .lines()
        .filter_map(|l| l.strip_prefix("== ")?.split_whitespace().next())
        .collect();
    assert!(!documented.is_empty(), "no table headers found");
    let registered: Vec<&str> = hammertime_fleet::full_registry()
        .iter()
        .map(|e| e.id())
        .collect();
    for id in &documented {
        assert!(
            registered.contains(id),
            "EXPERIMENTS.md documents {id} but no registry has it"
        );
    }
    for id in &registered {
        assert!(
            documented.contains(id),
            "registry has {id} but EXPERIMENTS.md does not document it"
        );
    }
}

/// The FL1 experiment produces a row per slate with the full column
/// set, and (like every suite experiment) is byte-identical across
/// suite worker counts.
#[test]
fn fl1_produces_population_rows_per_slate() {
    use hammertime::experiments::RunOptions;
    let opts = RunOptions::new(true).filter(["FL1"]);
    let a = hammertime_fleet::run_all_with(&opts).unwrap();
    let b = hammertime_fleet::run_all_with(&opts.clone().jobs(4)).unwrap();
    assert_eq!(
        serde_json::to_string(&a.tables).unwrap(),
        serde_json::to_string(&b.tables).unwrap()
    );
    assert!(!a.has_failures());
    let t = &a.tables[0];
    assert_eq!(t.id, "FL1");
    assert_eq!(t.rows.len(), FleetConfig::default_slates().len());
    for row in &t.rows {
        assert_eq!(row.len(), t.columns.len());
    }
}

/// FL1 runs its fleet on shard threads of their own, so the suite's
/// thread-local step budget must be handed to the fleet explicitly: at
/// a budget far below one quick machine's lifetime, every machine of
/// every slate times out.
#[test]
fn fl1_honours_the_suite_step_budget() {
    use hammertime::experiments::RunOptions;
    let opts = RunOptions::new(true).filter(["FL1"]).step_budget(1_000);
    let report = hammertime_fleet::run_all_with(&opts).unwrap();
    let t = &report.tables[0];
    assert_eq!(t.id, "FL1");
    assert_eq!(t.rows.len(), FleetConfig::default_slates().len());
    let failed = t.columns.iter().position(|c| c == "failed").unwrap();
    for row in &t.rows {
        assert_eq!(row[failed], "24", "slate {}: {row:?}", row[0]);
    }
}
