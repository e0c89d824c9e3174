//! Cross-crate integration tests: full-machine behaviour spanning the
//! DRAM model, memory controller, cache, OS, and workloads.

use hammertime::machine::{Machine, MachineConfig};
use hammertime::scenario::{AttackTargeting, BenignKind, CloudScenario};
use hammertime::taxonomy::DefenseKind;
use hammertime_common::DomainId;
use hammertime_workloads::{DmaHammer, HammerPattern, StreamWorkload};

/// The headline reproduction: an undefended multi-tenant host lets one
/// tenant corrupt another's memory; every taxonomy class prevents it.
#[test]
fn one_defense_per_class_stops_the_attack() {
    let cases = [
        DefenseKind::SubarrayIsolation,  // isolation-centric (§4.1)
        DefenseKind::AggressorRemap,     // frequency-centric (§4.2)
        DefenseKind::VictimRefreshInstr, // refresh-centric (§4.3)
    ];
    // Undefended baseline flips.
    let mut s = CloudScenario::build(MachineConfig::fast(DefenseKind::None, 24)).unwrap();
    s.arm_double_sided(3_000).unwrap();
    s.run_windows(40);
    let baseline = s.report();
    assert!(
        baseline.cross_flips_against(2) > 0,
        "baseline must be vulnerable"
    );

    for defense in cases {
        assert!(defense.class().is_some());
        let mut s = CloudScenario::build(MachineConfig::fast(defense, 24)).unwrap();
        s.arm_double_sided(3_000).unwrap();
        s.run_windows(40);
        let r = s.report();
        assert_eq!(
            r.cross_flips_against(2),
            0,
            "{defense} must protect the victim (class {:?})",
            defense.class()
        );
    }
}

/// Isolation physically removes cross-domain adjacency; the attacker
/// can still flip bits, but only inside its own allocation.
#[test]
fn subarray_isolation_confines_flips_to_attacker() {
    let mut s =
        CloudScenario::build_sized(MachineConfig::fast(DefenseKind::SubarrayIsolation, 24), 4)
            .unwrap();
    let targeting = s.arm_double_sided(4_000).unwrap();
    assert_eq!(targeting, AttackTargeting::IntraDomainOnly);
    s.run_windows(60);
    let r = s.report();
    assert_eq!(r.cross_flips_against(2), 0);
    // Intra-domain flips may exist (the paper notes isolation doesn't
    // stop self-disturbance); every victim must be the attacker.
    for (&victim, &count) in &r.flips_by_victim {
        if count > 0 {
            assert_eq!(victim, 1, "flip landed outside the attacker's domain");
        }
    }
}

/// The MC records subarray-group ownership for the host/MC contract.
#[test]
fn subarray_group_ownership_is_registered() {
    let mut m = Machine::new(MachineConfig::fast(DefenseKind::SubarrayIsolation, 1_000)).unwrap();
    let d1 = DomainId(1);
    let d2 = DomainId(2);
    m.add_tenant(d1, 2).unwrap();
    let arena2 = m.add_tenant(d2, 2).unwrap();
    let p2 = m.translate(d2, arena2[0]).unwrap();
    let group = m.mc().map().group_of_frame(p2.page_frame());
    assert_eq!(m.mc().group_owner(group), Some(d2));
}

/// DMA attacks defeat PMU-based software defenses but not defenses
/// built on the paper's MC primitives (§1, §4.2).
#[test]
fn dma_blindspot_end_to_end() {
    let run = |defense: DefenseKind| {
        let mut s = CloudScenario::build(MachineConfig::fast(defense, 24)).unwrap();
        let (above, below, t) = s.find_double_sided();
        assert_eq!(t, AttackTargeting::CrossDomain);
        s.machine
            .set_workload(
                s.attacker,
                Box::new(DmaHammer::new(0, vec![above, below], 3_000)),
            )
            .unwrap();
        s.run_windows(40);
        s.report()
    };
    let anvil = run(DefenseKind::Anvil { miss_threshold: 2 });
    assert!(
        anvil.cross_flips_against(2) > 0,
        "ANVIL cannot see DMA traffic"
    );
    let precise = run(DefenseKind::VictimRefreshInstr);
    assert_eq!(
        precise.cross_flips_against(2),
        0,
        "MC counters see all ACTs regardless of source"
    );
}

/// In-DRAM TRR protects against few aggressors and is bypassed by
/// many-sided patterns (TRRespass, §3).
#[test]
fn trr_bypass_end_to_end() {
    let run = |n_aggr: usize| {
        let cfg = MachineConfig::fast(DefenseKind::InDramTrr { table_size: 4 }, 24);
        let mut s = CloudScenario::build_sized(cfg, 16).unwrap();
        s.arm_many_sided(n_aggr, 5_000).unwrap();
        s.run_windows(80);
        s.report().flips_total
    };
    assert_eq!(run(2), 0, "tracked aggressors must be mitigated");
    assert!(run(8) > 0, "many-sided must bypass the 4-entry tracker");
}

/// Blacksmith-style fuzzed patterns also bypass small TRR trackers —
/// non-uniform schedules keep Misra-Gries counts below the vendor's
/// confidence threshold just like uniform many-sided ones.
#[test]
fn fuzzed_hammer_bypasses_trr() {
    let cfg = MachineConfig::fast(DefenseKind::InDramTrr { table_size: 4 }, 24);
    let mut s = CloudScenario::build_sized(cfg, 16).unwrap();
    s.arm_fuzzed(10, 6_000).unwrap();
    s.run_windows(80);
    let r = s.report();
    assert!(r.flips_total > 0, "fuzzed pattern must bypass the tracker");
}

/// Multi-tenant fairness: benign tenants keep making progress while an
/// attack is being mitigated.
#[test]
fn benign_progress_under_attack_and_defense() {
    let mut s =
        CloudScenario::build(MachineConfig::fast(DefenseKind::VictimRefreshInstr, 24)).unwrap();
    s.arm_double_sided(2_000).unwrap();
    s.add_benign(BenignKind::Stream, 2, 400).unwrap();
    s.add_benign(BenignKind::Zipfian, 2, 400).unwrap();
    s.run_windows(100);
    let r = s.report();
    assert_eq!(r.cross_flips_against(2), 0);
    assert_eq!(r.ops_by_tenant[&10], 400, "stream tenant must finish");
    assert_eq!(r.ops_by_tenant[&11], 400, "zipfian tenant must finish");
}

/// Refresh starvation (failure injection): disabling the periodic REF
/// scheduler trips the retention check.
#[test]
fn refresh_starvation_failure_injection() {
    let mut cfg = MachineConfig::fast(DefenseKind::None, 24);
    cfg.refresh_enabled = false;
    let mut m = Machine::new(cfg).unwrap();
    let d = DomainId(1);
    let arena = m.add_tenant(d, 2).unwrap();
    m.set_workload(d, Box::new(StreamWorkload::new(arena.clone(), 100, 0)))
        .unwrap();
    let t_refw = m.config().timing.t_refw;
    m.run(t_refw * 3);
    assert_eq!(m.mc().stats().refs_issued, 0);
    // A row untouched for 3 windows has decayed. Pick a row nobody
    // accessed (accessing refreshes as a side effect).
    let p = m.translate(d, arena[0]).unwrap();
    let (bank, row) = m.mc().locate(p).unwrap();
    let far_row = row + 100;
    assert!(
        m.check_retention(&bank, far_row, 1.5),
        "unrefreshed rows must decay"
    );
    // With refresh enabled the same scenario stays healthy.
    let mut m2 = Machine::new(MachineConfig::fast(DefenseKind::None, 24)).unwrap();
    m2.add_tenant(d, 2).unwrap();
    m2.run(t_refw * 3);
    assert!(m2.mc().stats().refs_issued > 0);
    assert!(!m2.check_retention(&bank, far_row, 1.5));
}

/// Remapping follows the page through the page table: after the
/// defense migrates a hammered page, the tenant's virtual addresses
/// keep working and land on fresh physical rows.
#[test]
fn remap_preserves_virtual_addressing() {
    let mut s = CloudScenario::build(MachineConfig::fast(DefenseKind::AggressorRemap, 24)).unwrap();
    let (above, _below, _) = s.find_double_sided();
    let before = s.machine.translate(s.attacker, above).unwrap();
    s.arm_double_sided(2_000).unwrap();
    s.run_windows(60);
    let r = s.report();
    assert!(r.overhead.pages_remapped > 0, "defense must have migrated");
    let after = s.machine.translate(s.attacker, above).unwrap();
    assert_ne!(
        before.page_frame(),
        after.page_frame(),
        "hammered frame must have moved"
    );
    assert_eq!(r.cross_flips_against(2), 0);
}

/// The whole defense catalog builds and runs without error on a short
/// benign workload — no configuration is internally inconsistent.
#[test]
fn every_catalog_defense_builds_and_runs() {
    for defense in DefenseKind::catalog(100) {
        let mut m = Machine::new(MachineConfig::fast(defense, 100)).unwrap();
        let d = DomainId(1);
        let arena = m.add_tenant(d, 2).unwrap();
        m.set_workload(d, Box::new(StreamWorkload::new(arena, 50, 4)))
            .unwrap();
        m.run(200_000);
        let r = m.report();
        assert_eq!(r.ops_by_tenant[&1], 50, "{defense} stalled the tenant");
        assert!(r.lockup.is_none());
    }
}

/// Flush-based eviction works end-to-end: the same line misses the
/// LLC after each flush, reaching DRAM every time (the attack
/// prerequisite from §2.1).
#[test]
fn flush_forces_dram_traffic() {
    let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 1_000_000)).unwrap();
    let d = DomainId(1);
    let arena = m.add_tenant(d, 1).unwrap();
    let line = arena[0];
    m.set_workload(d, Box::new(HammerPattern::new("probe", vec![line], 50)))
        .unwrap();
    m.run(1_000_000);
    let r = m.report();
    // All 50 reads missed (each preceded by a flush).
    assert_eq!(r.cache.misses, 50);
    assert_eq!(r.cache.hits, 0);
    assert_eq!(r.mc.reads, 50);
}

/// Report serialization round-trips.
#[test]
fn report_round_trips_through_json() {
    let mut s = CloudScenario::build(MachineConfig::fast(DefenseKind::None, 24)).unwrap();
    s.arm_double_sided(500).unwrap();
    s.run_windows(10);
    let r = s.report();
    let json = serde_json::to_string(&r).unwrap();
    let back: hammertime::metrics::SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.flips_total, r.flips_total);
    assert_eq!(back.cycles, r.cycles);
}

/// Line locking defends while leaving room for demand traffic: locked
/// ways are bounded, so the cache still serves other tenants.
#[test]
fn line_locking_bounds_locked_capacity() {
    let mut s = CloudScenario::build(MachineConfig::fast(DefenseKind::LineLocking, 24)).unwrap();
    s.arm_double_sided(3_000).unwrap();
    s.add_benign(BenignKind::Random, 2, 300).unwrap();
    s.run_windows(100);
    let r = s.report();
    assert_eq!(r.cross_flips_against(2), 0);
    assert!(r.overhead.lines_locked > 0);
    // The per-set lock bound keeps evictable ways available: currently
    // resident locks never reach the total capacity.
    let cfg = s.machine.config().cache;
    let max_lockable = cfg.sets * cfg.max_locked_ways;
    assert!(
        s.machine.llc().locked_lines() <= max_lockable,
        "resident locks exceed the per-set bound"
    );
    assert_eq!(r.ops_by_tenant[&10], 300, "benign tenant survived locking");
}

/// The realistic-scale configuration (server geometry, DDR4-2400
/// timing) builds and runs: a sanity check that nothing in the stack
/// depends on the compressed test scale.
#[test]
fn realistic_scale_smoke() {
    use hammertime::dram::DisturbanceProfile;
    // Scaled-down MAC keeps the run short while exercising the real
    // timing constants and the 8 GiB server geometry.
    let profile = DisturbanceProfile::ddr4_2020().scaled_down(100);
    let cfg = MachineConfig::realistic(DefenseKind::VictimRefreshInstr, profile);
    let mut m = Machine::new(cfg).unwrap();
    let d = DomainId(1);
    let arena = m.add_tenant(d, 4).unwrap();
    m.set_workload(d, Box::new(StreamWorkload::new(arena, 300, 8)))
        .unwrap();
    // A few refresh intervals of DDR4-2400.
    let t_refi = m.config().timing.t_refi;
    m.run(t_refi * 40);
    let r = m.report();
    assert_eq!(r.ops_by_tenant[&1], 300);
    assert!(r.mc.refs_issued > 0, "real refresh schedule ran");
    assert!(r.lockup.is_none());
}
