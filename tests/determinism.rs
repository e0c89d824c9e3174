//! Determinism: identical configuration and seed must reproduce the
//! entire simulation bit-for-bit — reports, flip events, and
//! experiment tables. Reviewers rerun our numbers; they must get the
//! same ones.

use hammertime::experiments::RunOptions;
use hammertime::machine::{Machine, MachineConfig};
use hammertime::scenario::{BenignKind, CloudScenario};
use hammertime::taxonomy::DefenseKind;
use hammertime_common::DomainId;
use hammertime_workloads::StreamWorkload;

fn full_scenario(seed: u64) -> String {
    let mut cfg = MachineConfig::fast(DefenseKind::VictimRefreshInstr, 24);
    cfg.seed = seed;
    let mut s = CloudScenario::build(cfg).unwrap();
    s.arm_double_sided(2_000).unwrap();
    s.add_benign(BenignKind::Random, 2, 200).unwrap();
    s.run_windows(60);
    serde_json::to_string(&s.report()).unwrap()
}

#[test]
fn same_seed_reproduces_full_report() {
    assert_eq!(full_scenario(7), full_scenario(7));
}

#[test]
fn different_seed_changes_something() {
    // Stochastic components (flip sampling, counter resets, random
    // workloads) must actually react to the seed.
    let a = full_scenario(7);
    let b = full_scenario(8);
    assert_ne!(a, b, "seed had no effect at all");
}

#[test]
fn flip_event_streams_are_identical() {
    let run = |seed: u64| {
        let mut cfg = MachineConfig::fast(DefenseKind::None, 24);
        cfg.seed = seed;
        let mut s = CloudScenario::build(cfg).unwrap();
        s.arm_double_sided(2_000).unwrap();
        s.run_windows(30);
        s.machine.drain_annotated_flips()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y);
    }
}

#[test]
fn experiment_tables_are_reproducible() {
    let run = || {
        let opts = RunOptions::new(true).filter(["E3"]);
        let report = hammertime::experiments::run_all_with(&opts).unwrap();
        assert!(!report.has_failures(), "E3 cells failed");
        report.tables
    };
    let (t1, t2) = (run(), run());
    assert_eq!(t1[0].rows, t2[0].rows);
}

#[test]
fn machine_stats_reproducible_under_mixed_tenancy() {
    let run = || {
        let mut m =
            Machine::new(MachineConfig::fast(DefenseKind::Para { prob: 0.05 }, 50)).unwrap();
        for d in 1..=3 {
            let arena = m.add_tenant(DomainId(d), 2).unwrap();
            m.set_workload(DomainId(d), Box::new(StreamWorkload::new(arena, 300, 7)))
                .unwrap();
        }
        m.run(500_000);
        let r = m.report();
        (r.dram, r.mc, r.cache, r.cycles)
    };
    assert_eq!(run(), run());
}
