//! The traced run: per-layer figures for one workload.
//!
//! It runs a serial engine pass of the workload's suite (the quick
//! suite for `fleet_1k`, which has no experiment cells), timing every
//! cell, then every probe at the workload's scale. Everything lands in
//! one machine-readable report under `.bench_out/`; the metrics go to
//! the result line.

use crate::checks;
use crate::probes::{self, MachineProbe, QUEUE_DEPTHS};
use crate::rep::{median, Workload, POISONED};
use crate::report::{num, obj, Metrics, EXPERIMENT_IDS};
use crate::spans::Spans;
use hammertime::experiments::{run_suite, CellProgress, RunOptions};
use hammertime::metrics::sim_cycles;
use hammertime_fleet::full_registry;
use serde::Value;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One engine cell of the serial pass.
struct CellTime {
    label: String,
    experiment: String,
    host_s: f64,
    sim_cycles: u64,
    finished: Instant,
}

pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub errors: Vec<String>,
    pub report_path: std::path::PathBuf,
}

/// Serial engine pass: cells run back to back on one thread, so the
/// process-wide simulated-cycle counter between two progress calls
/// belongs to exactly one cell.
fn engine_pass(quick: bool, spans: &mut Spans, errors: &mut Vec<String>) -> Vec<CellTime> {
    // (simulated cycles at the last progress call, cells so far)
    let state = Mutex::new((sim_cycles(), Vec::new()));
    let progress = |p: &CellProgress<'_>| {
        let now = sim_cycles();
        let mut state = state.lock().expect(POISONED);
        let cycles = now - state.0;
        state.0 = now;
        state.1.push(CellTime {
            label: format!("{}/{}", p.experiment, p.label),
            experiment: p.experiment.to_string(),
            host_s: p.elapsed.as_secs_f64(),
            sim_cycles: cycles,
            finished: Instant::now(),
        });
    };
    let opts = RunOptions::new(quick).jobs(1);
    spans.time("core", "engine.run_suite", |s| {
        match run_suite(&full_registry(), &opts, &progress) {
            Ok(report) => {
                errors.extend(report.failures().map(|(id, f)| {
                    format!("{id}/{}: cell failed [{}]: {}", f.label, f.kind, f.message)
                }));
                errors.extend(checks::check_tables(&report.tables, quick));
            }
            Err(e) => errors.push(format!("engine pass failed to run: {e}")),
        }
        for c in &state.lock().expect(POISONED).1 {
            let took = Duration::from_secs_f64(c.host_s);
            s.record("core", format!("cell {}", c.label), c.finished - took, took);
        }
    });
    state.into_inner().expect(POISONED).1
}

pub fn run(workload: Workload, seed: u64) -> Traced {
    let quick = workload.quick();
    let mut spans = Spans::new();
    let mut errors = Vec::new();
    let mut metrics = Metrics::new();
    let mut attempted = 0;

    let mut cells = engine_pass(quick, &mut spans, &mut errors);
    attempted += cells.len() as u64;
    for id in EXPERIMENT_IDS {
        let mine = cells.iter().filter(|c| c.experiment == *id);
        metrics.push((
            format!("engine.exp_s.{id}"),
            mine.clone().map(|c| c.host_s).sum(),
        ));
        metrics.push((
            format!("engine.exp_sim_cycles.{id}"),
            mine.map(|c| c.sim_cycles as f64).sum(),
        ));
    }
    let mut times: Vec<f64> = cells.iter().map(|c| c.host_s).collect();
    metrics.push((
        "engine.cell_s.max".into(),
        times.iter().copied().fold(0.0, f64::max),
    ));
    metrics.push(("engine.cell_s.p50".into(), median(&mut times)));
    cells.sort_by(|a, b| b.host_s.total_cmp(&a.host_s));

    for probe in [MachineProbe::Conv, MachineProbe::Hammer] {
        attempted += 1;
        match probes::machine_probe(probe, quick, seed, &mut spans) {
            Ok((m, e)) => {
                metrics.extend(m);
                errors.extend(e);
            }
            Err(e) => errors.push(format!("{} probe failed: {e}", probe.name())),
        }
    }
    for depth in QUEUE_DEPTHS {
        attempted += 1;
        match probes::memctrl_probe(depth, seed, &mut spans) {
            Ok((ns, steps)) => {
                metrics.push((format!("memctrl.ns_per_req.q{depth}"), ns));
                if depth == 4096 {
                    metrics.push(("memctrl.sched_steps_per_req.q4096".into(), steps));
                }
            }
            Err(e) => errors.push(format!("memctrl probe failed: {e}")),
        }
    }
    attempted += 1;
    match probes::fleet_probe(seed, &mut spans) {
        Ok((m, e)) => {
            metrics.extend(m);
            errors.extend(e);
        }
        Err(e) => errors.push(format!("fleet probe failed: {e}")),
    }
    for (layer, self_s) in spans.self_times() {
        metrics.push((format!("self_s.{layer}"), self_s));
    }

    let report = obj(vec![
        ("workload", Value::Str(workload.name().into())),
        ("seed", num(seed as f64)),
        (
            "metrics",
            Value::Obj(metrics.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
        ),
        (
            "cells",
            Value::Arr(
                cells
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("label", Value::Str(c.label.clone())),
                            ("host_s", num(c.host_s)),
                            ("sim_cycles", num(c.sim_cycles as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "errors",
            Value::Arr(errors.iter().cloned().map(Value::Str).collect()),
        ),
        ("spans", spans.to_json()),
    ]);
    let dir = checks::repo_root().join(".bench_out");
    let report_path = dir.join(format!("{}-seed{seed}.json", workload.name()));
    let mut text = String::new();
    serde::render_pretty(&report, &mut text, 0);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&report_path, text + "\n"))
    {
        errors.push(format!("cannot write {}: {e}", report_path.display()));
    }
    if let Some(top) = cells.first() {
        eprintln!(
            "perfbench: slowest cell {} ({:.2} s)",
            top.label, top.host_s
        );
    }
    Traced {
        metrics,
        attempted,
        errors,
        report_path,
    }
}
