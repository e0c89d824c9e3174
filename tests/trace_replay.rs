//! Record → replay determinism for the telemetry subsystem.
//!
//! A traced suite run records every DRAM device's full command stream
//! (plus the flips and stats it produced). These tests re-drive fresh
//! devices from those recordings — no scheduler, no machine — and
//! assert the replay reproduces the recorded flip set and `DramStats`
//! exactly, for healthy hardware and under the chaos fault plan, and
//! that the recorded trace itself is byte-identical across worker
//! counts.

use hammertime::experiments::{registry, run_suite_traced, silent, RunOptions};
use hammertime_common::FaultPlan;
use hammertime_dram::replay::replay_records;
use hammertime_telemetry::{diff_traces, TraceRecord};

/// Records the quick suite of the comma-separated experiment ids in
/// `filter`.
fn record(filter: &str, jobs: usize, faults: Option<FaultPlan>) -> Vec<TraceRecord> {
    let mut opts = RunOptions::new(true).jobs(jobs).filter(filter.split(','));
    if let Some(plan) = faults {
        opts = opts.with_faults(plan);
    }
    let (report, trace) =
        run_suite_traced(&registry(), &opts, &silent).expect("traced suite run succeeds");
    assert!(
        !report.has_failures(),
        "cells failed while recording {filter}"
    );
    assert!(!trace.is_empty(), "recording {filter} produced no trace");
    trace
}

fn chaos_plan() -> FaultPlan {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/chaos-plan.json"
    ))
    .expect("chaos fixture present");
    serde_json::from_str(&json).expect("chaos fixture parses")
}

/// Every quick golden cell of T1, E2, and F3 replays exactly: same
/// flips, same final device stats.
#[test]
fn golden_cells_record_and_replay_exactly() {
    for filter in ["T1", "E2", "F3"] {
        let trace = record(filter, 1, None);
        let summary =
            replay_records(&trace).unwrap_or_else(|e| panic!("replay of {filter} diverged: {e}"));
        assert!(summary.devices > 0, "{filter}: no devices in trace");
        assert!(summary.commands > 0, "{filter}: no commands in trace");
    }
}

/// Replay also holds under the chaos fixture plan: fault decisions are
/// part of the recorded device config, so the replayed device injects
/// the identical fault sequence.
#[test]
fn chaos_cell_records_and_replays_exactly() {
    let trace = record("T1", 1, Some(chaos_plan()));
    let summary = replay_records(&trace).expect("chaos replay matches recording");
    assert!(summary.devices > 0);
}

/// The recorded trace is byte-identical across worker counts — the
/// per-unit buffers concatenate in declaration order, like the tables.
#[test]
fn trace_is_identical_across_worker_counts() {
    let j1 = record("E2", 1, None);
    let j8 = record("E2", 8, None);
    let diff = diff_traces(&j1, &j8);
    assert!(diff.is_empty(), "jobs=1 vs jobs=8 trace differs:\n{diff}");
}

/// A run that T1 and E9 both declare is recorded once, where T1 puts
/// it: the trace of the pair is identical at any worker count, and it
/// replays.
#[test]
fn shared_runs_trace_is_identical_across_worker_counts_and_replays() {
    let j1 = record("T1,E9", 1, None);
    let j8 = record("T1,E9", 8, None);
    let diff = diff_traces(&j1, &j8);
    assert!(diff.is_empty(), "jobs=1 vs jobs=8 trace differs:\n{diff}");
    replay_records(&j1).expect("the shared-run recording replays exactly");
}

/// Tracing is observation only: a traced run renders the exact tables
/// an untraced run does.
#[test]
fn traced_tables_match_untraced_tables() {
    let opts = RunOptions::new(true).filter(["F3"]);
    let untraced = hammertime::experiments::run_suite(&registry(), &opts, &silent).unwrap();
    let (traced, _) = run_suite_traced(&registry(), &opts, &silent).unwrap();
    assert_eq!(untraced.tables.len(), traced.tables.len());
    for (a, b) in untraced.tables.iter().zip(&traced.tables) {
        assert_eq!(a.to_string(), b.to_string(), "table {} differs", a.id);
    }
}
