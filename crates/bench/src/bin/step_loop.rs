//! Step-loop bench runner: times the fast scheduler against the
//! reference linear scan (and batched vs per-ACT disturbance) on the
//! shared scenarios from [`hammertime_bench::step_loop`], then writes
//! `BENCH_step_loop.json` seeding the perf trajectory.
//!
//! Usage: `step_loop [--quick] [--out PATH] [--only NAME]...
//! [--check BASELINE.json [--tolerance PCT]]
//! [--gate-disabled-overhead PCT]`. Default output is
//! `BENCH_step_loop.json` at the repository root. `--quick` shrinks
//! every scenario for CI smoke runs. `--only` (repeatable) restricts
//! the run to the named scenarios — handy for iterating on one
//! scenario without paying for the whole matrix; `--check` treats
//! scenarios missing from a filtered run as informational, so the two
//! flags compose.
//!
//! `--check` compares this run's optimized throughput per scenario
//! against a previously written report and exits nonzero on any
//! regression beyond the tolerance (default 2%). Absolute throughput
//! only compares on the same machine in the same thermal state, so
//! this is a *local* tool for before/after comparisons, not a CI
//! gate.
//!
//! `--gate-disabled-overhead PCT` is the CI-safe guard that the
//! disabled telemetry layer stays off the hot path: it times the
//! hammer burst through the public issue path (tracer `None`, one
//! `is_none()` check) against the same burst with the check compiled
//! out, interleaving the reps so machine drift hits both sides, and
//! exits nonzero if the disabled path is more than PCT% slower.

#![forbid(unsafe_code)]

use hammertime_bench::step_loop::{
    drive_t1_cell, drive_t1_cell_shadowed, fleet_sweep, hammer_burst,
    hammer_burst_bypassing_tracer, hammer_burst_wheel, hammer_burst_with_tracer, idle_mc,
    idle_poll, idle_poll_on, replay_from_checkpoint, replay_from_scratch, resume_digest,
    resume_setup, t1_defense_catalog, IDLE_QUANTUM,
};
use hammertime_check::ShadowChecker;
use hammertime_telemetry::Tracer;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct Scenario {
    name: String,
    /// What `work` counts: simulated cycles, ACTs, or experiment cells.
    unit: String,
    work: u64,
    baseline_secs: f64,
    optimized_secs: f64,
    baseline_per_sec: f64,
    optimized_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    bench: String,
    mode: String,
    scenarios: Vec<Scenario>,
}

/// Compares this run against `baseline`, scenario by scenario on
/// work-normalized optimized throughput. Returns the regression
/// messages (empty → within tolerance). Scenarios only one side has
/// are reported but never fail the check, so adding a scenario does
/// not require regenerating the baseline first.
fn check_against(report: &Report, baseline: &Report, tolerance_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for old in &baseline.scenarios {
        let Some(new) = report.scenarios.iter().find(|s| s.name == old.name) else {
            eprintln!("check: scenario {} missing from this run", old.name);
            continue;
        };
        let floor = old.optimized_per_sec * (1.0 - tolerance_pct / 100.0);
        let delta = 100.0 * (1.0 - new.optimized_per_sec / old.optimized_per_sec);
        if new.optimized_per_sec < floor {
            failures.push(format!(
                "{}: optimized {:.0} {}/s vs baseline {:.0} ({delta:+.1}% slower, tolerance {tolerance_pct}%)",
                new.name, new.optimized_per_sec, new.unit, old.optimized_per_sec
            ));
        } else {
            eprintln!(
                "check: {} ok ({:.0} {}/s vs baseline {:.0}, {delta:+.1}%)",
                new.name, new.optimized_per_sec, new.unit, old.optimized_per_sec
            );
        }
    }
    failures
}

/// Best-of-`reps` wall time of `f`, in seconds. Best-of is robust to
/// scheduler noise on the 1-vCPU containers this runs in.
fn time_best(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn scenario(name: &str, unit: &str, work: u64, baseline: f64, optimized: f64) -> Scenario {
    Scenario {
        name: name.into(),
        unit: unit.into(),
        work,
        baseline_secs: baseline,
        optimized_secs: optimized,
        baseline_per_sec: work as f64 / baseline,
        optimized_per_sec: work as f64 / optimized,
        speedup: baseline / optimized,
    }
}

fn main() {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut tolerance = 2.0f64;
    let mut gate: Option<f64> = None;
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--only" => only.push(args.next().expect("--only needs a scenario name")),
            "--check" => check = Some(PathBuf::from(args.next().expect("--check needs a path"))),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a percentage");
            }
            "--gate-disabled-overhead" => {
                gate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--gate-disabled-overhead needs a percentage"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: step_loop [--quick] [--out PATH] [--only NAME]... \
                     [--check BASELINE.json [--tolerance PCT]] \
                     [--gate-disabled-overhead PCT]"
                );
                std::process::exit(2);
            }
        }
    }
    // The gate judges a specific scenario; a filtered run that
    // requested the gate must include it.
    if gate.is_some() && !only.is_empty() && !only.iter().any(|n| n == "telemetry_off") {
        only.push("telemetry_off".into());
    }
    let run = |name: &str| only.is_empty() || only.iter().any(|n| n == name);
    let out = out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_step_loop.json")
    });
    let reps = if quick { 2 } else { 3 };
    let mut scenarios = Vec::new();

    // Idle-heavy: quantum polling across an empty controller. The
    // memoized scan answers each poll in O(1).
    let idle_cycles: u64 = if quick { 200_000 } else { 2_000_000 };
    if run("idle_poll") {
        let steps_fast = idle_poll(idle_cycles, true);
        assert_eq!(
            steps_fast,
            idle_poll(idle_cycles, false),
            "drivers disagree on idle step count"
        );
        // Construction is excluded from the timed region: a fresh
        // controller is built per rep, then only the poll loop is timed.
        let time_idle = |fast: bool| {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let mut mc = idle_mc();
                let t = Instant::now();
                idle_poll_on(&mut mc, idle_cycles, fast);
                best = best.min(t.elapsed().as_secs_f64());
            }
            best
        };
        let reference = time_idle(false);
        let fast = time_idle(true);
        eprintln!(
            "idle_poll: {idle_cycles} cycles ({} polls), ref {reference:.3}s fast {fast:.3}s ({:.1}x)",
            idle_cycles / IDLE_QUANTUM,
            reference / fast
        );
        scenarios.push(scenario(
            "idle_poll",
            "cycles",
            idle_cycles,
            reference,
            fast,
        ));
    }

    // T1 defense-matrix cell set: every mitigation cell driven through
    // an identical hammer + benign script.
    let catalog = t1_defense_catalog();
    let cells = catalog.len() as u64;
    if run("t1_defense_matrix") {
        for (name, mitigation, trr) in &catalog {
            let a = drive_t1_cell(*mitigation, *trr, true, quick);
            let b = drive_t1_cell(*mitigation, *trr, false, quick);
            assert_eq!(a, b, "cell {name} diverged between drivers");
        }
        let reference = time_best(reps, || {
            for (_, m, trr) in &catalog {
                drive_t1_cell(*m, *trr, false, quick);
            }
        });
        let fast = time_best(reps, || {
            for (_, m, trr) in &catalog {
                drive_t1_cell(*m, *trr, true, quick);
            }
        });
        eprintln!(
            "t1_defense_matrix: {cells} cells, ref {reference:.3}s fast {fast:.3}s ({:.1}x)",
            reference / fast
        );
        scenarios.push(scenario(
            "t1_defense_matrix",
            "cells",
            cells,
            reference,
            fast,
        ));
    }

    // Controller-level hammer bursts: the event wheel vs the reference
    // linear scan on a server-geometry rank under closed-page ACT
    // pressure. Work unit is completed requests (48 per burst).
    let wheel_bursts: u64 = if quick { 40 } else { 400 };
    if run("hammer_burst_wheel") {
        let a = hammer_burst_wheel(wheel_bursts.min(20), true);
        let b = hammer_burst_wheel(wheel_bursts.min(20), false);
        assert_eq!(a, b, "wheel diverged from reference on the burst script");
        let reference = time_best(reps, || {
            hammer_burst_wheel(wheel_bursts, false);
        });
        let fast = time_best(reps, || {
            hammer_burst_wheel(wheel_bursts, true);
        });
        eprintln!(
            "hammer_burst_wheel: {wheel_bursts} bursts, ref {reference:.3}s wheel {fast:.3}s ({:.1}x)",
            reference / fast
        );
        scenarios.push(scenario(
            "hammer_burst_wheel",
            "requests",
            wheel_bursts * 48,
            reference,
            fast,
        ));
    }

    // Epoch-checkpoint resume: reproduce the end state of a multi-
    // window run by re-simulating from cycle zero (baseline) vs
    // restoring the last epoch checkpoint and replaying only the tail
    // (optimized). Work unit is the timeline length reproduced.
    let resume_windows: u64 = if quick { 12 } else { 60 };
    if run("checkpoint_resume") {
        let (mut m, end) = resume_setup(resume_windows);
        let original = resume_digest(&mut m);
        assert_eq!(
            original,
            replay_from_scratch(end),
            "scratch replay diverged from the original timeline"
        );
        assert_eq!(
            original,
            replay_from_checkpoint(&mut m, end),
            "checkpoint replay diverged from the original timeline"
        );
        let reference = time_best(reps, || {
            replay_from_scratch(end);
        });
        let fast = time_best(reps, || {
            replay_from_checkpoint(&mut m, end);
        });
        eprintln!(
            "checkpoint_resume: {end} cycles reproduced, scratch {reference:.3}s resume {fast:.3}s ({:.1}x)",
            reference / fast
        );
        scenarios.push(scenario(
            "checkpoint_resume",
            "cycles",
            end,
            reference,
            fast,
        ));
    }

    // Device-level hammer burst: batched vs per-ACT disturbance. The
    // full-mode burst is sized so the timed region is tens of
    // milliseconds — post-refactor the device clears 200k ACTs in a
    // few ms, within scheduler-tick noise. Throughput comparisons are
    // work-normalized, so resizing the burst keeps old baselines
    // comparable.
    let acts: u32 = if quick { 20_000 } else { 2_000_000 };
    if run("hammer_burst") {
        assert_eq!(
            hammer_burst(acts.min(2_000), false),
            hammer_burst(acts.min(2_000), true),
            "batched flip count diverged"
        );
        let reference = time_best(reps, || {
            hammer_burst(acts, false);
        });
        let fast = time_best(reps, || {
            hammer_burst(acts, true);
        });
        eprintln!(
            "hammer_burst: {acts} ACTs, per-ACT {reference:.3}s batched {fast:.3}s ({:.1}x)",
            reference / fast
        );
        scenarios.push(scenario(
            "hammer_burst",
            "acts",
            acts as u64,
            reference,
            fast,
        ));
    }

    // Tracing overhead on the same burst: baseline records every
    // command and flip into a buffer sink, optimized leaves the
    // tracer disabled (the production default).
    if run("hammer_burst_traced") {
        assert_eq!(
            hammer_burst_with_tracer(acts.min(2_000), true, Some(Tracer::buffer())),
            hammer_burst(acts.min(2_000), true),
            "traced flip count diverged"
        );
        let traced = time_best(reps, || {
            hammer_burst_with_tracer(acts, true, Some(Tracer::buffer()));
        });
        let untraced = time_best(reps, || {
            hammer_burst(acts, true);
        });
        eprintln!(
            "hammer_burst_traced: {acts} ACTs, tracing on {traced:.3}s off {untraced:.3}s ({:.1}x overhead)",
            traced / untraced
        );
        scenarios.push(scenario(
            "hammer_burst_traced",
            "acts",
            acts as u64,
            traced,
            untraced,
        ));
    }

    // Shadow-checker overhead on the T1 cell set: baseline replays
    // every issued command through the live invariant engine, the
    // optimized side leaves the checker detached (the production
    // default — one `is_none()` check per issue). Reported for the
    // perf trajectory; the CI gate below covers the disabled path.
    if run("t1_shadow_checked") {
        {
            let shadow = ShadowChecker::new();
            let shadowed = drive_t1_cell_shadowed(
                catalog[0].1,
                catalog[0].2,
                true,
                quick,
                Some(shadow.clone()),
            );
            assert_eq!(
                shadowed,
                drive_t1_cell(catalog[0].1, catalog[0].2, true, quick),
                "shadow checker perturbed the T1 cell"
            );
            shadow.finish(shadowed.0);
            assert!(
                shadow.violations().is_empty(),
                "T1 cell command stream violated protocol invariants"
            );
        }
        let checked = time_best(reps, || {
            for (_, m, trr) in &catalog {
                drive_t1_cell_shadowed(*m, *trr, true, quick, Some(ShadowChecker::new()));
            }
        });
        let unchecked = time_best(reps, || {
            for (_, m, trr) in &catalog {
                drive_t1_cell(*m, *trr, true, quick);
            }
        });
        eprintln!(
            "t1_shadow_checked: {cells} cells, shadow on {checked:.3}s off {unchecked:.3}s ({:.1}x overhead)",
            checked / unchecked
        );
        scenarios.push(scenario(
            "t1_shadow_checked",
            "cells",
            cells,
            checked,
            unchecked,
        ));
    }

    // Zero-cost-when-off gate: the telemetry-disabled issue path (one
    // `is_none()` check) against the same burst with the check
    // compiled out. Reps are interleaved so frequency drift hits both
    // sides equally — unlike a cross-run absolute-throughput
    // comparison, this ratio is stable on a noisy machine.
    let mut off_overhead_pct: Option<f64> = None;
    if run("telemetry_off") {
        assert_eq!(
            hammer_burst_bypassing_tracer(acts.min(2_000), true),
            hammer_burst(acts.min(2_000), true),
            "bypass flip count diverged"
        );
        // Each rep times both sides back-to-back (alternating order)
        // and contributes one paired ratio; the median ratio is what
        // the gate judges. A longer burst than the timing scenarios
        // keeps the timed region well above scheduler-tick noise.
        let gate_acts = acts.saturating_mul(4);
        let mut disabled = f64::INFINITY;
        let mut absent = f64::INFINITY;
        let mut ratios = Vec::new();
        for rep in 0..9 {
            let (d, a) = if rep % 2 == 0 {
                let t = Instant::now();
                hammer_burst(gate_acts, true);
                let d = t.elapsed().as_secs_f64();
                let t = Instant::now();
                hammer_burst_bypassing_tracer(gate_acts, true);
                (d, t.elapsed().as_secs_f64())
            } else {
                let t = Instant::now();
                hammer_burst_bypassing_tracer(gate_acts, true);
                let a = t.elapsed().as_secs_f64();
                let t = Instant::now();
                hammer_burst(gate_acts, true);
                (t.elapsed().as_secs_f64(), a)
            };
            disabled = disabled.min(d);
            absent = absent.min(a);
            ratios.push(d / a);
        }
        ratios.sort_by(f64::total_cmp);
        let median_pct = 100.0 * (ratios[ratios.len() / 2] - 1.0);
        off_overhead_pct = Some(median_pct);
        eprintln!(
            "telemetry_off: {gate_acts} ACTs x9, disabled path best {disabled:.3}s, \
             check compiled out best {absent:.3}s (median {median_pct:+.2}% overhead)"
        );
        scenarios.push(scenario(
            "telemetry_off",
            "acts",
            gate_acts as u64,
            disabled,
            absent,
        ));
    }

    // Fleet sweep: the sharded multi-machine runner against the serial
    // loop over one deterministic heterogeneous population. On a single
    // hardware thread the sharded side prices the sharding machinery's
    // overhead rather than showing a speedup; either way the
    // cross-check holds the fleet determinism contract (byte-identical
    // reports) before any timing is trusted.
    let fleet_machines: u32 = if quick { 48 } else { 192 };
    if run("fleet_sweep") {
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        let serial = fleet_sweep(fleet_machines.min(12), 1);
        let sharded = fleet_sweep(fleet_machines.min(12), jobs);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&sharded).unwrap(),
            "sharded fleet diverged from the serial loop"
        );
        let reference = time_best(reps, || {
            fleet_sweep(fleet_machines, 1);
        });
        let fast = time_best(reps, || {
            fleet_sweep(fleet_machines, jobs);
        });
        eprintln!(
            "fleet_sweep: {fleet_machines} machines, serial {reference:.3}s sharded x{jobs} {fast:.3}s ({:.1}x)",
            reference / fast
        );
        scenarios.push(scenario(
            "fleet_sweep",
            "machines",
            fleet_machines as u64,
            reference,
            fast,
        ));
    }

    let report = Report {
        bench: "step_loop".into(),
        mode: if quick { "quick" } else { "full" }.into(),
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write bench json");
    eprintln!("wrote {}", out.display());

    if let Some(pct) = gate {
        let measured = off_overhead_pct.expect("gate forces the telemetry_off scenario");
        if measured > pct {
            eprintln!("gate FAILED: disabled-telemetry overhead {measured:+.2}% exceeds {pct}%");
            std::process::exit(1);
        }
        eprintln!("gate passed: disabled-telemetry overhead {measured:+.2}% within {pct}%");
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).expect("read check baseline");
        let baseline: Report = serde_json::from_str(&text).expect("parse check baseline");
        if baseline.mode != report.mode {
            eprintln!(
                "check: mode mismatch (this run: {}, baseline: {}) — throughput is work-normalized, comparing anyway",
                report.mode, baseline.mode
            );
        }
        let failures = check_against(&report, &baseline, tolerance);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("check passed against {}", path.display());
    }
}
