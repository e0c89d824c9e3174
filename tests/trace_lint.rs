//! Golden lint coverage: published traces are invariant-clean, and the
//! mutation harness proves every rule class actually fires.
//!
//! Four claims, end to end:
//!
//! 1. every command trace the quick-mode experiment suite records
//!    passes `trace lint` with zero violations — the published tables
//!    rest on protocol-legal command streams;
//! 2. targeted corruptions of a trace (dropped PRE, ACT inside tRP,
//!    fifth ACT inside a full tFAW window, starved refresh) are each
//!    detected by the expected rule — the checker is not vacuously
//!    green;
//! 3. recording a machine's trace changes no observable output, the
//!    recorded stream lints clean, and its ACT count confirms the
//!    ACT-conservation law against the device counters;
//! 4. `trace lint` checks every command `trace replay` re-issues.

use hammertime::experiments::{registry, run_suite_traced, silent, RunOptions};
use hammertime::machine::MachineConfig;
use hammertime::scenario::CloudScenario;
use hammertime::taxonomy::DefenseKind;
use hammertime_check::mutate::{self, Mutation};
use hammertime_check::{lint_records, Rule};
use hammertime_common::geometry::BankId;
use hammertime_common::{Cycle, Geometry};
use hammertime_dram::{replay_records, DdrCommand, DramConfig, DramModule, TimingParams};
use hammertime_telemetry::{CmdEvent, Event, TraceRecord, Tracer};

/// Every quick-mode experiment cell records a lint-clean trace.
#[test]
fn all_quick_experiment_traces_lint_clean() {
    let opts = RunOptions::new(true);
    let (report, records) =
        run_suite_traced(&registry(), &opts, &silent).expect("traced suite run succeeds");
    assert!(!report.has_failures(), "cells failed while recording");
    assert!(!records.is_empty());
    let lint = lint_records(&records);
    assert!(
        lint.is_clean(),
        "{} violation(s) in quick-suite traces, first: {}",
        lint.violations.len(),
        lint.violations[0]
    );
    assert!(lint.devices > 0 && lint.commands > 0);
}

fn bank(bank_group: u32, bank: u32) -> BankId {
    BankId {
        channel: 0,
        rank: 0,
        bank_group,
        bank,
    }
}

/// Records a device session rich enough to give every mutation a
/// guaranteed site: row open/read/close cycles on one bank (PRE/ACT/
/// CAS sites), a four-ACT burst across bank groups at tRRD_S spacing
/// (a full tFAW window with idle banks to spare), and a REF train
/// spanning more than the 9×tREFI starvation limit.
fn storm_trace() -> Vec<TraceRecord> {
    let tracer = Tracer::buffer();
    let mut config = DramConfig::test_config(1_000_000);
    config.geometry = Geometry::server();
    config.timing = TimingParams::tiny_test();
    config.tracer = Some(tracer.clone());
    {
        let mut dram = DramModule::new(config).unwrap();
        let mut now = Cycle(1);
        let go = |dram: &mut DramModule, cmd: DdrCommand, now: &mut Cycle| {
            let at = dram.earliest(&cmd).max(*now);
            dram.issue(&cmd, at).unwrap();
            *now = at + 1;
        };
        // Open/read/close twice on one bank.
        let b = bank(0, 0);
        for row in [2, 3] {
            go(&mut dram, DdrCommand::Act { bank: b, row }, &mut now);
            go(
                &mut dram,
                DdrCommand::Rd {
                    bank: b,
                    col: 0,
                    auto_pre: false,
                },
                &mut now,
            );
            go(&mut dram, DdrCommand::Pre { bank: b }, &mut now);
        }
        // Fill a tFAW window: four ACTs across bank groups land at
        // tRRD_S spacing (2 cycles), well inside tFAW (12 cycles).
        for bg in 0..4 {
            go(
                &mut dram,
                DdrCommand::Act {
                    bank: bank(bg, 1),
                    row: 0,
                },
                &mut now,
            );
        }
        for bg in 0..4 {
            go(&mut dram, DdrCommand::Pre { bank: bank(bg, 1) }, &mut now);
        }
        // A REF train spanning > 9×tREFI (900 cycles at tiny_test).
        for i in 0..11u64 {
            let cmd = DdrCommand::Ref {
                channel: 0,
                rank: 0,
            };
            let due = Cycle(51 + 100 * i);
            let at = dram.earliest(&cmd).max(due);
            dram.issue(&cmd, at).unwrap();
        }
        let _ = now;
    }
    tracer.take_records()
}

/// The storm trace is legal as recorded (so every violation below is
/// caused by its mutation), and each named corruption trips exactly
/// the rule the issue promises.
#[test]
fn mutations_fire_their_expected_rules() {
    let records = storm_trace();
    assert!(
        lint_records(&records).is_clean(),
        "storm trace must lint clean before mutation"
    );

    let expect = [
        (
            Mutation::DropPre,
            vec![Rule::ActOnOpenBank, Rule::RefWithOpenBank],
        ),
        (Mutation::ActBeforeTrp, vec![Rule::TRp, Rule::TRc]),
        (Mutation::CasBeforeTrcd, vec![Rule::TRcd]),
        (Mutation::FifthActInFaw, vec![Rule::TFaw]),
        (Mutation::StarveRef, vec![Rule::RefStarved]),
    ];
    for (mutation, expected_rules) in expect {
        let mutated = mutation
            .apply(&records)
            .unwrap_or_else(|| panic!("{} found no site in the storm trace", mutation.name()));
        let fired = lint_records(&mutated).rules_fired();
        assert!(
            fired.iter().any(|r| expected_rules.contains(r)),
            "{}: expected one of {:?}, got {:?}",
            mutation.name(),
            expected_rules,
            fired
        );
    }
}

/// The full self-test (what `trace lint --self-test` runs) passes on
/// the storm trace with every mutation applicable — proving at least
/// four distinct rule classes fire.
#[test]
fn storm_trace_self_test_proves_all_rule_classes() {
    let records = storm_trace();
    let report = mutate::self_test(&records);
    assert!(report.passed(), "{}", report.summary());
    for outcome in &report.outcomes {
        assert!(
            outcome.fired.is_some(),
            "{} skipped on the storm trace",
            outcome.mutation.name()
        );
    }
    assert!(report.classes_proven() >= mutate::MIN_CLASSES_PROVEN);
}

fn run_attack(defense: DefenseKind, tracer: Option<Tracer>) -> hammertime::metrics::SimReport {
    let mut cfg = MachineConfig::fast(defense, 24);
    cfg.tracer = tracer;
    let mut scenario = CloudScenario::build(cfg).unwrap();
    scenario.arm_double_sided(4_000).unwrap();
    scenario.run_windows(30);
    scenario.report()
}

/// A run is checked through its recorded command trace: recording
/// changes no output, the stream lints clean (the invariant engine
/// `trace lint` runs), and every ACT the controller put on the bus is
/// accounted for by the device.
#[test]
fn recorded_attack_trace_is_clean_and_conserves_acts() {
    let baseline = run_attack(DefenseKind::None, None);
    let tracer = Tracer::buffer();
    let mut traced = run_attack(DefenseKind::None, Some(tracer.clone()));

    // Identical observable output: only the metrics snapshot, which
    // the tracer carries, may differ (SimReport has no handle fields,
    // so JSON equality is full equality).
    assert!(
        traced.metrics.take().is_some(),
        "a traced run reports metrics"
    );
    assert_eq!(
        serde_json::to_string(&baseline).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "tracing perturbed the simulation"
    );
    assert!(baseline.flips_total > 0, "attack must actually flip bits");

    let records = tracer.take_records();
    let lint = lint_records(&records);
    assert!(lint.commands > 0, "the trace holds no commands");
    assert!(
        lint.is_clean(),
        "recorded stream violated invariants, first: {}",
        lint.violations[0]
    );
    let acts = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::Command {
                    cmd: CmdEvent::Act { .. }
                }
            )
        })
        .count() as u64;
    assert_eq!(acts, traced.dram.acts);
}

/// `trace lint` counts every command `trace replay` re-issues,
/// REF_NEIGHBORS included: a `victim-refresh/refn` attack issues them.
#[test]
fn lint_and_replay_count_the_same_commands() {
    let tracer = Tracer::buffer();
    run_attack(DefenseKind::VictimRefreshRefNeighbors, Some(tracer.clone()));
    let records = tracer.take_records();
    let refns = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::Command {
                    cmd: CmdEvent::RefNeighbors { .. }
                }
            )
        })
        .count();
    assert!(refns > 0, "the refn defense issued no REF_NEIGHBORS");
    let lint = lint_records(&records);
    assert!(
        lint.is_clean(),
        "recorded stream violated invariants, first: {}",
        lint.violations[0]
    );
    let replay = replay_records(&records).expect("the trace replays");
    assert_eq!(lint.commands, replay.commands);
}
