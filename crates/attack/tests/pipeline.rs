//! Integration tests for the modular attack pipeline: the cross
//! product is stable and fully buildable, and the A1 experiment is
//! deterministic across worker counts.

use hammertime::experiments::{run_suite, silent, RunOptions};
use hammertime::machine::MachineConfig;
use hammertime::taxonomy::DefenseKind;
use hammertime_attack::{experiment, AttackRun, AttackSpec};

#[test]
fn enumeration_is_stable_sorted_and_round_trips() {
    let all = AttackSpec::all_triples();
    let names: Vec<String> = all.iter().map(AttackSpec::name).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "all_triples must come out name-sorted");
    sorted.dedup();
    assert_eq!(names.len(), sorted.len(), "no duplicate triples");
    assert_eq!(names.len(), 72, "4 allocators x 6 hammerers x 3 victims");
    for name in &names {
        let parsed = AttackSpec::parse(name).expect("every listed triple parses");
        assert_eq!(&parsed.name(), name, "parse/name round-trip");
    }
}

#[test]
fn every_triple_builds_against_an_undefended_machine() {
    for spec in AttackSpec::all_triples() {
        let run = AttackRun::new(spec, MachineConfig::fast(DefenseKind::None, 24));
        let (_, prep) = run
            .prepare()
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", spec.name()));
        assert!(prep.aggressors > 0, "{} planned no aggressors", prep.triple);
    }
}

#[test]
fn a1_quick_tables_are_byte_identical_across_jobs() {
    let render = |jobs: usize| {
        let report = run_suite(
            &experiment::registry(),
            &RunOptions::new(true).jobs(jobs),
            &silent,
        )
        .expect("A1 suite runs");
        assert!(!report.has_failures(), "A1 cells must not fail");
        report
            .tables
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(1), render(8), "A1 output must not depend on --jobs");
}
