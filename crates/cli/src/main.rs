//! `hammertime` — command-line front end for the Rowhammer mitigation
//! simulator.
//!
//! ```text
//! hammertime-cli catalog                          # the defense taxonomy
//! hammertime-cli attack --defense none            # run an attack scenario
//! hammertime-cli attack --defense victim-refresh/instr --attack many:8
//! hammertime-cli attack --allocator thp --hammerer paced --victim key
//! hammertime-cli attack --list-combos               # the full triple cross product
//! hammertime-cli experiments [--all] [--full] [--jobs N] [--filter E1,E2]
//!                            [--faults PLAN.json] [--step-budget N] [--strict]
//! hammertime-cli fleet run --machines 1000 --tenants 2 --jobs 8   # population table
//! hammertime-cli trace record --out run.trace [experiments flags]
//! hammertime-cli trace replay run.trace           # re-drive DRAM, verify
//! hammertime-cli trace diff a.trace b.trace       # first divergence + deltas
//! hammertime-cli trace stats run.trace            # per-kind record counts
//! hammertime-cli trace lint run.trace             # protocol-invariant check
//! ```
//!
//! `fleet run` shards a whole population of heterogeneous machines
//! (mixed geometries, DRAM generations, defense slates, optional
//! fault plans) across worker threads, churns tenants across them
//! (ASID create/destroy plus cross-machine migration), and prints the
//! population table: per-slate flip-rate and defense-overhead
//! percentiles. Like the suite, the output is byte-identical for any
//! `--jobs` value. `--json PATH` additionally writes every machine
//! outcome plus the telemetry metrics snapshot; `--trace-machine ID
//! --trace-out PATH` records one machine's command trace in the same
//! format `trace replay|lint` consume.
//!
//! `experiments` runs the combined core + FL registry through the
//! parallel cell engine:
//! `--jobs` sets the worker count (default: available parallelism),
//! `--filter` (or bare ids) selects experiments, and per-cell progress
//! lines go to stderr while the tables print to stdout in canonical
//! order — byte-identical for any `--jobs` value.
//!
//! `--faults PLAN.json` injects a deterministic fault plan into every
//! machine the suite builds (chaos mode); `--step-budget N` kills any
//! cell whose machines advance more than N simulated cycles. Failed
//! cells render as `!!` lines under their table and the run still
//! exits 0 — pass `--strict` to exit nonzero when any cell failed.
//!
//! `trace record` takes the same flags as `experiments` plus a
//! required `--out PATH` (`.jsonl`/`.json` → JSONL, else binary) and
//! records the telemetry command trace of every machine the suite
//! builds; like the tables, the trace is byte-identical for any
//! `--jobs`. `trace replay` rebuilds each recorded device and re-issues
//! its command stream, exiting nonzero if the replayed flips or final
//! `DramStats` diverge from the recording. `attack --trace PATH`
//! records the single attack machine the same way.
//!
//! `trace lint` validates a recorded command stream against the DDR
//! protocol-invariant catalog (bank state machine, bank/rank timing,
//! bus occupancy, refresh deadlines, conservation laws) and exits
//! nonzero on any violation; `--report OUT.jsonl` writes the
//! violations as machine-readable JSONL and `--self-test` additionally
//! mutates the trace (dropped PRE, shifted ACT, fifth ACT in tFAW,
//! starved REF, ...) to prove the rules actually fire.

#![forbid(unsafe_code)]

use hammertime::experiments::{self, CellProgress, RunOptions};
use hammertime::machine::MachineConfig;
use hammertime::scenario::CloudScenario;
use hammertime::taxonomy::DefenseKind;
use hammertime_common::{Error, Result};
use hammertime_telemetry::codec::{self, CommandTrace};
use hammertime_telemetry::{diff_traces, Event, Tracer};
use std::path::{Path, PathBuf};

/// Which attack pattern the `attack` subcommand arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttackSpec {
    Double,
    Many(usize),
    Fuzzed(usize),
    Dma,
}

impl AttackSpec {
    fn parse(s: &str) -> Option<AttackSpec> {
        if s == "double" {
            return Some(AttackSpec::Double);
        }
        if s == "dma" {
            return Some(AttackSpec::Dma);
        }
        if let Some(n) = s.strip_prefix("many:") {
            return n.parse().ok().map(AttackSpec::Many);
        }
        if let Some(n) = s.strip_prefix("fuzzed:") {
            return n.parse().ok().map(AttackSpec::Fuzzed);
        }
        None
    }
}

fn parse_defense(name: &str, mac: u64) -> Option<DefenseKind> {
    DefenseKind::catalog(mac)
        .into_iter()
        .find(|d| d.name() == name)
}

fn cmd_catalog() {
    println!(
        "{:<26} {:<18} {:<18} {:<9} needs precise interrupts",
        "name", "class", "locus", "proposed"
    );
    for d in DefenseKind::catalog(10_000) {
        println!(
            "{:<26} {:<18} {:<18} {:<9} {}",
            d.name(),
            d.class()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            d.locus()
                .map(|l| l.to_string())
                .unwrap_or_else(|| "-".into()),
            d.is_proposed(),
            d.needs_precise_interrupts(),
        );
    }
}

fn cmd_attack(args: &[String]) -> Result<()> {
    let mut defense = DefenseKind::None;
    let mut attack: Option<AttackSpec> = None;
    let mut allocator: Option<String> = None;
    let mut hammerer: Option<String> = None;
    let mut victim: Option<String> = None;
    let mut accesses: u64 = 4_000;
    let mut mac: u64 = 24;
    let mut seed: u64 = 42;
    let mut windows: u64 = 60;
    let mut trace_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--list-combos" {
            for spec in hammertime_attack::AttackSpec::all_triples() {
                println!("{}", spec.name());
            }
            return Ok(());
        }
        let value = args.get(i + 1).cloned().unwrap_or_default();
        match flag {
            "--trace" => {
                if value.is_empty() {
                    eprintln!("--trace needs an output file path");
                    std::process::exit(2);
                }
                trace_out = Some(PathBuf::from(&value));
            }
            "--defense" => {
                defense = parse_defense(&value, mac).unwrap_or_else(|| {
                    eprintln!("unknown defense '{value}' (see `hammertime catalog`)");
                    std::process::exit(2);
                });
            }
            "--attack" => {
                attack = Some(AttackSpec::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown attack '{value}' (double | many:N | fuzzed:N | dma)");
                    std::process::exit(2);
                }));
            }
            "--allocator" => allocator = Some(value),
            "--hammerer" => hammerer = Some(value),
            "--victim" => victim = Some(value),
            "--accesses" => accesses = value.parse().unwrap_or(accesses),
            "--mac" => mac = value.parse().unwrap_or(mac),
            "--seed" => seed = value.parse().unwrap_or(seed),
            "--windows" => windows = value.parse().unwrap_or(windows),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if allocator.is_some() || hammerer.is_some() || victim.is_some() {
        if attack.is_some() {
            eprintln!("--attack and --allocator/--hammerer/--victim are mutually exclusive");
            std::process::exit(2);
        }
        let spec_str = format!(
            "{}/{}/{}",
            allocator.as_deref().unwrap_or("hugepage"),
            hammerer.as_deref().unwrap_or("double"),
            victim.as_deref().unwrap_or("flips"),
        );
        let spec = hammertime_attack::AttackSpec::parse(&spec_str)?;
        return run_attack_pipeline(spec, defense, mac, seed, accesses, windows, trace_out);
    }
    let attack = attack.unwrap_or(AttackSpec::Double);
    let mut cfg = MachineConfig::fast(defense, mac);
    cfg.seed = seed;
    let tracer = trace_out.as_ref().map(|_| Tracer::buffer());
    cfg.tracer = tracer.clone();
    let mut s = CloudScenario::build_sized(
        cfg,
        if matches!(attack, AttackSpec::Double | AttackSpec::Dma) {
            4
        } else {
            16
        },
    )?;
    let targeting = match attack {
        AttackSpec::Double => s.arm_double_sided(accesses)?,
        AttackSpec::Many(n) => s.arm_many_sided(n, accesses)?,
        AttackSpec::Fuzzed(n) => s.arm_fuzzed(n, accesses)?,
        AttackSpec::Dma => s.arm_dma(accesses)?,
    };
    s.victim_reads(accesses / 10 + 1)?;
    s.run_windows(windows);
    let r = s.report();
    println!("defense:            {}", r.defense);
    println!("attack:             {attack:?} ({accesses} accesses, targeting {targeting:?})");
    println!("simulated cycles:   {}", r.cycles);
    println!("total flips:        {}", r.flips_total);
    println!("flips vs victim:    {}", r.cross_flips_against(2));
    println!("interrupts:         {}", r.overhead.interrupts);
    println!("victim refreshes:   {}", r.overhead.refresh_ops);
    println!("pages remapped:     {}", r.overhead.pages_remapped);
    println!("lines locked:       {}", r.overhead.lines_locked);
    println!("throttle cycles:    {}", r.overhead.throttle_cycles);
    println!("dram energy proxy:  {:.3e}", r.energy);
    println!(
        "verdict:            {}",
        if r.cross_flips_against(2) == 0 {
            "attack DEFEATED"
        } else {
            "attack SUCCEEDED"
        }
    );
    if let (Some(path), Some(tracer)) = (trace_out, tracer) {
        // Drop the scenario first so the device's final-stats record
        // lands in the buffer before we drain it.
        drop(s);
        let trace = CommandTrace::new(tracer.take_records());
        codec::write_path(&path, &trace)?;
        eprintln!(
            "trace ({} records) written to {}",
            trace.records.len(),
            path.display()
        );
    }
    Ok(())
}

/// Runs one modular attack-pipeline triple (`crates/attack`) and
/// prints the orchestrator's verdict next to the raw flip counts.
fn run_attack_pipeline(
    spec: hammertime_attack::AttackSpec,
    defense: DefenseKind,
    mac: u64,
    seed: u64,
    accesses: u64,
    windows: u64,
    trace_out: Option<PathBuf>,
) -> Result<()> {
    let mut cfg = MachineConfig::fast(defense, mac);
    cfg.seed = seed;
    let tracer = trace_out.as_ref().map(|_| Tracer::buffer());
    cfg.tracer = tracer.clone();
    let mut run = hammertime_attack::AttackRun::new(spec, cfg);
    run.accesses = accesses;
    run.windows = windows;
    // `execute` drops its machine before returning, so the device's
    // final-stats record is already in the buffer when we drain it.
    let out = run.execute()?;
    let r = &out.report;
    println!("defense:            {}", r.defense);
    println!(
        "triple:             {} ({accesses} accesses, {} survey, {} aggressors)",
        out.triple,
        if out.exact { "exact" } else { "presumed" },
        out.aggressors,
    );
    println!("targeting:          {:?}", out.targeting);
    println!("simulated cycles:   {}", r.cycles);
    println!("total flips:        {}", r.flips_total);
    println!("raw flips vs victim: {}", out.verdict.raw_flips);
    println!("counted by victim:  {}", out.verdict.counted_flips);
    println!("interrupts:         {}", r.overhead.interrupts);
    println!("victim refreshes:   {}", r.overhead.refresh_ops);
    println!("pages remapped:     {}", r.overhead.pages_remapped);
    println!("lines locked:       {}", r.overhead.lines_locked);
    println!("throttle cycles:    {}", r.overhead.throttle_cycles);
    println!("dram energy proxy:  {:.3e}", r.energy);
    println!(
        "verdict:            {}",
        if out.verdict.success {
            "attack SUCCEEDED"
        } else {
            "attack DEFEATED"
        }
    );
    if let (Some(path), Some(tracer)) = (trace_out, tracer) {
        let trace = CommandTrace::new(tracer.take_records());
        codec::write_path(&path, &trace)?;
        eprintln!(
            "trace ({} records) written to {}",
            trace.records.len(),
            path.display()
        );
    }
    Ok(())
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parsed `experiments` invocation: engine options plus CLI-only
/// extras (bench-JSON path, strict exit semantics).
#[derive(Debug)]
struct ExperimentArgs {
    opts: RunOptions,
    bench_json: Option<std::path::PathBuf>,
    strict: bool,
}

fn parse_experiment_args(args: &[String]) -> std::result::Result<ExperimentArgs, String> {
    let mut full = false;
    let mut all = false;
    let mut jobs = default_jobs();
    let mut ids: Vec<String> = Vec::new();
    let mut bench_json = None;
    let mut faults = None;
    let mut step_budget = None;
    let mut strict = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--quick" => full = false,
            "--all" => all = true,
            "--strict" => strict = true,
            "--faults" => {
                i += 1;
                let path = args.get(i).ok_or("--faults needs a JSON plan file path")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("--faults: cannot read {path}: {e}"))?;
                let plan: hammertime_common::FaultPlan = serde_json::from_str(&text)
                    .map_err(|e| format!("--faults: {path} is not a valid fault plan: {e}"))?;
                faults = Some(plan);
            }
            "--step-budget" => {
                i += 1;
                step_budget = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--step-budget needs a positive cycle count")?,
                );
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--jobs needs a positive integer")?;
            }
            "--filter" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or("--filter needs a comma-separated id list (e.g. T1,E2)")?;
                ids.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_uppercase),
                );
            }
            "--bench-json" => {
                i += 1;
                let path = args.get(i).ok_or("--bench-json needs a file path")?;
                bench_json = Some(std::path::PathBuf::from(path));
            }
            id if !id.starts_with("--") => ids.push(id.to_uppercase()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    // An id that matches nothing in the registry is a hard error: a
    // typo'd `--filter E12` must not silently run zero experiments.
    // Validated against the combined core + FL registry.
    let known: Vec<&str> = hammertime_fleet::full_registry()
        .iter()
        .map(|e| e.id())
        .collect();
    for id in &ids {
        if !known.iter().any(|k| k.eq_ignore_ascii_case(id)) {
            return Err(format!(
                "unknown experiment id '{id}' (valid: {})",
                known.join(", ")
            ));
        }
    }
    // Duplicate / overlapping selections (`--filter T1,E2 T1`) collapse
    // to a single run of each experiment.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    let mut opts = RunOptions::new(!full).jobs(jobs);
    if !all && !ids.is_empty() {
        opts = opts.filter(ids);
    }
    opts.faults = faults;
    opts.step_budget = step_budget;
    Ok(ExperimentArgs {
        opts,
        bench_json,
        strict,
    })
}

fn cmd_experiments(args: &[String]) -> Result<()> {
    let parsed = parse_experiment_args(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let cells_done = std::sync::atomic::AtomicU64::new(0);
    let progress = |p: &CellProgress<'_>| {
        cells_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        eprintln!(
            "  [{:>3}/{}] {}/{} ({:.2?})",
            p.completed, p.total, p.experiment, p.label, p.elapsed
        );
    };
    let started = std::time::Instant::now();
    let cycles_before = hammertime::metrics::sim_cycles();
    let report =
        experiments::run_suite(&hammertime_fleet::full_registry(), &parsed.opts, &progress)?;
    let wall = started.elapsed();
    let cycles = hammertime::metrics::sim_cycles() - cycles_before;
    for t in &report.tables {
        println!("{t}");
    }
    if let Some(path) = &parsed.bench_json {
        let bench = bench_report(
            &report.tables,
            cells_done.load(std::sync::atomic::Ordering::Relaxed),
            parsed.opts.jobs,
            wall,
            cycles,
        );
        let json = serde_json::to_string_pretty(&bench)
            .map_err(|e| hammertime_common::Error::Config(format!("bench json: {e}")))?;
        std::fs::write(path, json + "\n").map_err(|e| {
            hammertime_common::Error::Config(format!("write {}: {e}", path.display()))
        })?;
        eprintln!("bench report written to {}", path.display());
    }
    let failed = report.failures().count();
    if failed > 0 {
        eprintln!("{failed} cell(s) failed; tables above are partial");
        if parsed.strict {
            return Err(hammertime_common::Error::Fault(format!(
                "--strict: {failed} cell(s) failed"
            )));
        }
    }
    Ok(())
}

/// Throughput summary for `--bench-json`: how fast the suite ran, in
/// the units the perf trajectory tracks (cells/sec, simulated
/// cycles/sec).
#[derive(Debug, serde::Serialize)]
struct BenchReport {
    experiments: Vec<String>,
    jobs: u64,
    cells: u64,
    wall_seconds: f64,
    cells_per_sec: f64,
    sim_cycles: u64,
    sim_cycles_per_sec: f64,
}

fn bench_report(
    tables: &[experiments::ExpTable],
    cells: u64,
    jobs: usize,
    wall: std::time::Duration,
    cycles: u64,
) -> BenchReport {
    let secs = wall.as_secs_f64().max(1e-9);
    BenchReport {
        experiments: tables.iter().map(|t| t.id.clone()).collect(),
        jobs: jobs as u64,
        cells,
        wall_seconds: secs,
        cells_per_sec: cells as f64 / secs,
        sim_cycles: cycles,
        sim_cycles_per_sec: cycles as f64 / secs,
    }
}

/// `fleet run`: the sharded multi-machine population simulation.
fn fleet_run(args: &[String]) -> Result<()> {
    let mut cfg = hammertime_fleet::FleetConfig::new(64);
    cfg.jobs = default_jobs();
    let mut json_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut strict = false;
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> String {
            i += 1;
            args.get(i)
                .cloned()
                .unwrap_or_else(|| bad(format!("{flag} needs a value")))
        };
        match flag {
            "--machines" => {
                cfg.machines = value()
                    .parse()
                    .ok()
                    .filter(|&n: &u32| n > 0)
                    .unwrap_or_else(|| bad("--machines needs a positive integer".into()))
            }
            "--tenants" => {
                cfg.tenants = value()
                    .parse()
                    .unwrap_or_else(|_| bad("--tenants needs an integer".into()))
            }
            "--jobs" => {
                cfg.jobs = value()
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| bad("--jobs needs a positive integer".into()))
            }
            "--epochs" => {
                cfg.epochs = value()
                    .parse()
                    .ok()
                    .filter(|&n: &u32| n > 0)
                    .unwrap_or_else(|| bad("--epochs needs a positive integer".into()))
            }
            "--windows" => {
                cfg.windows_per_epoch = value()
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .unwrap_or_else(|| bad("--windows needs a positive integer".into()))
            }
            "--seed" => {
                cfg.seed = value()
                    .parse()
                    .unwrap_or_else(|_| bad("--seed needs an integer".into()))
            }
            "--full" => cfg.quick = false,
            "--quick" => cfg.quick = true,
            "--strict" => strict = true,
            "--faults" => {
                let path = value();
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| bad(format!("--faults: cannot read {path}: {e}")));
                cfg.faults = Some(serde_json::from_str(&text).unwrap_or_else(|e| {
                    bad(format!("--faults: {path} is not a valid fault plan: {e}"))
                }));
            }
            "--step-budget" => {
                cfg.step_budget = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&n: &u64| n > 0)
                        .unwrap_or_else(
                            || bad("--step-budget needs a positive cycle count".into()),
                        ),
                )
            }
            "--attack-triples" => {
                let list = value();
                cfg.attack_triples = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if cfg.attack_triples.is_empty() {
                    bad("--attack-triples needs a comma-separated alloc/hammer/victim list".into());
                }
                for t in &cfg.attack_triples {
                    if let Err(e) = hammertime_attack::AttackSpec::parse(t) {
                        bad(format!("--attack-triples: {e}"));
                    }
                }
            }
            "--slates" => {
                let list = value();
                // The fleet runs at the fast-scale MAC (the default
                // slates' PARA probability 8/24 pins it).
                cfg.slates = list
                    .split(',')
                    .map(|s| s.trim())
                    .filter(|s| !s.is_empty())
                    .map(|name| {
                        parse_defense(name, 24).unwrap_or_else(|| {
                            bad(format!(
                                "--slates: unknown defense {name}; see `hammertime-cli catalog`"
                            ))
                        })
                    })
                    .collect();
                if cfg.slates.is_empty() {
                    bad("--slates needs a comma-separated defense list".into());
                }
            }
            "--trace-machine" => {
                cfg.trace_machine = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| bad("--trace-machine needs a machine id".into())),
                )
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            "--json" => json_out = Some(PathBuf::from(value())),
            other => bad(format!("fleet run: unknown flag {other}")),
        }
        i += 1;
    }
    if trace_out.is_some() && cfg.trace_machine.is_none() {
        bad("--trace-out needs --trace-machine ID".into());
    }

    let started = std::time::Instant::now();
    let report = hammertime_fleet::run_fleet(&cfg)?;
    let wall = started.elapsed();
    let failed = report.failures().count();
    eprintln!(
        "fleet: {} machines, {} slates, jobs={}, {} epochs x {} windows, \
         {} failed, {:.2?} ({:.1} machines/sec)",
        cfg.machines,
        cfg.slates.len(),
        cfg.jobs,
        cfg.epochs,
        cfg.windows_per_epoch,
        failed,
        wall,
        cfg.machines as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!(
        "{}",
        report.stats.table(
            "FLEET",
            &format!(
                "population of {} machines (seed {:#x})",
                cfg.machines, cfg.seed
            ),
        )
    );

    if let Some(path) = &json_out {
        // Everything a dashboard wants: per-machine outcomes, the
        // exact distributions, and the log2-histogram metrics
        // snapshot of the same samples.
        #[derive(serde::Serialize)]
        struct FleetJson {
            outcomes: Vec<hammertime_fleet::MachineOutcome>,
            stats: hammertime_fleet::PopulationStats,
            metrics: hammertime_telemetry::MetricsSnapshot,
        }
        let payload = FleetJson {
            outcomes: report.outcomes.clone(),
            stats: report.stats.clone(),
            metrics: report.stats.metrics(),
        };
        let json = serde_json::to_string_pretty(&payload)
            .map_err(|e| Error::Config(format!("fleet json: {e}")))?;
        std::fs::write(path, json + "\n")
            .map_err(|e| Error::Config(format!("write {}: {e}", path.display())))?;
        eprintln!("fleet report written to {}", path.display());
    }
    if let Some(path) = &trace_out {
        let trace = CommandTrace::new(report.trace.clone());
        codec::write_path(path, &trace)?;
        eprintln!(
            "trace of machine {} ({} records) written to {}",
            cfg.trace_machine.unwrap(),
            trace.records.len(),
            path.display()
        );
    }
    if failed > 0 {
        for (id, f) in report.failures() {
            match &f.progress {
                Some(p) => eprintln!(
                    "  machine {id}: [{}] {} (reached epoch {}, cycle {})",
                    f.kind, f.message, p.epochs_done, p.cycle
                ),
                None => eprintln!("  machine {id}: [{}] {}", f.kind, f.message),
            }
        }
        if strict {
            return Err(Error::Fault(format!(
                "--strict: {failed} machine(s) failed"
            )));
        }
    }
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<()> {
    match args.first().map(String::as_str) {
        Some("run") => fleet_run(&args[1..]),
        _ => {
            eprintln!("fleet needs a subcommand: run");
            std::process::exit(2);
        }
    }
}

/// Pulls a `--out PATH` pair out of `args`, returning the path and the
/// remaining arguments (which `trace record` feeds to the shared
/// `experiments` parser).
fn split_out_flag(args: &[String]) -> std::result::Result<(Option<PathBuf>, Vec<String>), String> {
    let mut out = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--out" {
            i += 1;
            let path = args.get(i).ok_or("--out needs a file path")?;
            out = Some(PathBuf::from(path));
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    Ok((out, rest))
}

fn trace_record(args: &[String]) -> Result<()> {
    let (out, rest) = split_out_flag(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let Some(out) = out else {
        eprintln!("trace record needs --out PATH (.jsonl/.json → JSONL, else binary)");
        std::process::exit(2);
    };
    let parsed = parse_experiment_args(&rest).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let (report, records) = hammertime_fleet::run_all_traced(&parsed.opts)?;
    let failed = report.failures().count();
    if failed > 0 {
        eprintln!("{failed} cell(s) failed; the trace covers the cells that ran");
        if parsed.strict {
            return Err(Error::Fault(format!("--strict: {failed} cell(s) failed")));
        }
    }
    let devices = records
        .iter()
        .filter(|r| matches!(r.event, Event::DeviceReset { .. }))
        .count();
    let trace = CommandTrace::new(records);
    codec::write_path(&out, &trace)?;
    println!(
        "recorded {} records ({} devices) to {}",
        trace.records.len(),
        devices,
        out.display()
    );
    Ok(())
}

fn trace_replay(args: &[String]) -> Result<()> {
    let Some(path) = args.first() else {
        eprintln!("trace replay needs a trace file path");
        std::process::exit(2);
    };
    let trace = codec::read_path(Path::new(path))?;
    let summary = hammertime_dram::replay_records(&trace.records)?;
    println!(
        "replay OK: {} devices, {} commands, {} flips reproduced exactly",
        summary.devices, summary.commands, summary.flips
    );
    Ok(())
}

fn trace_diff(args: &[String]) -> Result<()> {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        eprintln!("trace diff needs two trace file paths");
        std::process::exit(2);
    };
    let ta = codec::read_path(Path::new(a))?;
    let tb = codec::read_path(Path::new(b))?;
    let diff = diff_traces(&ta.records, &tb.records);
    println!("{diff}");
    if diff.is_empty() {
        Ok(())
    } else {
        Err(Error::Fault(format!("{a} and {b} differ")))
    }
}

fn trace_stats(args: &[String]) -> Result<()> {
    let Some(path) = args.first() else {
        eprintln!("trace stats needs a trace file path");
        std::process::exit(2);
    };
    let trace = codec::read_path(Path::new(path))?;
    let records = &trace.records;
    println!("{path}: {} records", records.len());
    let cycles: Vec<u64> = records.iter().map(|r| r.cycle).collect();
    if let (Some(min), Some(max)) = (cycles.iter().min(), cycles.iter().max()) {
        println!("cycle span: {min} .. {max}");
    }
    let mut counts = std::collections::BTreeMap::new();
    for rec in records {
        *counts.entry(rec.event.kind().to_string()).or_insert(0u64) += 1;
        if let Event::Command { cmd } = &rec.event {
            *counts
                .entry(format!("command:{}", cmd.mnemonic()))
                .or_insert(0) += 1;
        }
    }
    for (kind, n) in &counts {
        println!("  {kind:<24} {n}");
    }
    Ok(())
}

fn trace_lint(args: &[String]) -> Result<()> {
    let mut path: Option<&String> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut self_test = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--report" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--report needs an output file path");
                    std::process::exit(2);
                };
                report_out = Some(PathBuf::from(value));
                i += 1;
            }
            "--self-test" => self_test = true,
            other if path.is_none() && !other.starts_with("--") => path = Some(&args[i]),
            other => {
                eprintln!("trace lint: unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("trace lint needs a trace file path");
        std::process::exit(2);
    };
    let trace = codec::read_path(Path::new(path))?;
    let report = hammertime_check::lint_trace(&trace);
    println!(
        "linted {} commands across {} device segment(s): {} violation(s)",
        report.commands,
        report.devices,
        report.violations.len()
    );
    for v in &report.violations {
        println!("  {v}");
    }
    if let Some(out) = report_out {
        std::fs::write(&out, report.to_jsonl())
            .map_err(|e| Error::Config(format!("cannot write {}: {e}", out.display())))?;
        println!("violation report written to {}", out.display());
    }
    if self_test {
        let st = hammertime_check::mutate::self_test(&trace.records);
        print!("{}", st.summary());
        if !st.passed() {
            return Err(Error::Fault(
                "mutation self-test failed: a corrupted trace went undetected".into(),
            ));
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(Error::Fault(format!(
            "{path}: {} protocol-invariant violation(s)",
            report.violations.len()
        )))
    }
}

fn cmd_trace(args: &[String]) -> Result<()> {
    match args.first().map(String::as_str) {
        Some("record") => trace_record(&args[1..]),
        Some("replay") => trace_replay(&args[1..]),
        Some("diff") => trace_diff(&args[1..]),
        Some("stats") => trace_stats(&args[1..]),
        Some("lint") => trace_lint(&args[1..]),
        _ => {
            eprintln!("trace needs a subcommand: record | replay | diff | stats | lint");
            std::process::exit(2);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "hammertime-cli — Rowhammer mitigation simulator (HotOS '21 'Stop! Hammer Time')\n\
         \n\
         USAGE:\n\
           hammertime-cli catalog\n\
           hammertime-cli attack [--defense NAME] [--attack double|many:N|fuzzed:N|dma]\n\
                             [--allocator A] [--hammerer H] [--victim V] [--list-combos]\n\
                             [--accesses N] [--mac N] [--seed N] [--windows N] [--trace PATH]\n\
           hammertime-cli experiments [--all] [--full] [--jobs N] [--filter IDS] [IDS...]\n\
                             [--faults PLAN.json] [--step-budget N] [--strict]\n\
           hammertime-cli fleet run [--machines N] [--tenants M] [--jobs K] [--epochs E]\n\
                             [--windows W] [--seed S] [--full] [--faults PLAN.json]\n\
                             [--slates NAME,...] [--attack-triples A/H/V,...]\n\
                             [--step-budget N] [--json PATH]\n\
                             [--trace-machine ID --trace-out PATH] [--strict]\n\
                             (exit codes: 0 ok, 1 error, 2 usage)\n\
           hammertime-cli trace record --out PATH [experiments flags]\n\
           hammertime-cli trace replay PATH\n\
           hammertime-cli trace diff A B\n\
           hammertime-cli trace stats PATH\n\
           hammertime-cli trace lint PATH [--report OUT.jsonl] [--self-test]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let result = match cmd.as_str() {
        "catalog" => {
            cmd_catalog();
            Ok(())
        }
        "attack" => cmd_attack(&args[1..]),
        "experiments" => cmd_experiments(&args[1..]),
        "fleet" => cmd_fleet(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_spec_parsing() {
        assert_eq!(AttackSpec::parse("double"), Some(AttackSpec::Double));
        assert_eq!(AttackSpec::parse("dma"), Some(AttackSpec::Dma));
        assert_eq!(AttackSpec::parse("many:8"), Some(AttackSpec::Many(8)));
        assert_eq!(AttackSpec::parse("fuzzed:5"), Some(AttackSpec::Fuzzed(5)));
        assert_eq!(AttackSpec::parse("bogus"), None);
        assert_eq!(AttackSpec::parse("many:x"), None);
    }

    fn parse(args: &[&str]) -> std::result::Result<ExperimentArgs, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_experiment_args(&args)
    }

    #[test]
    fn experiment_args_parsing() {
        let parsed = parse(&["--quick", "--jobs", "3", "--filter", "t1,e2", "E10"]).unwrap();
        assert!(parsed.opts.quick);
        assert_eq!(parsed.opts.jobs, 3);
        assert_eq!(
            parsed.opts.filter.as_deref(),
            Some(&["T1".to_string(), "E2".into(), "E10".into()][..])
        );
        assert_eq!(parsed.bench_json, None);
        // --all overrides any id selection.
        assert_eq!(parse(&["--all", "E1"]).unwrap().opts.filter, None);
    }

    #[test]
    fn duplicate_and_overlapping_filter_ids_collapse() {
        // The same id via --filter, a bare id, and a second --filter
        // must select the experiment exactly once.
        let parsed = parse(&["--filter", "T1,E2,t1", "e2", "--filter", "T1"]).unwrap();
        assert_eq!(
            parsed.opts.filter.as_deref(),
            Some(&["T1".to_string(), "E2".into()][..])
        );
        // Empty segments (trailing comma, double comma) are ignored.
        let parsed = parse(&["--filter", "T1,,E2,"]).unwrap();
        assert_eq!(
            parsed.opts.filter.as_deref(),
            Some(&["T1".to_string(), "E2".into()][..])
        );
    }

    #[test]
    fn jobs_zero_is_an_error() {
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("positive integer"), "got: {err}");
        // As are a missing and a non-numeric value.
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn unknown_experiment_ids_are_an_error() {
        let err = parse(&["--filter", "T1,E99"]).unwrap_err();
        assert!(err.contains("unknown experiment id 'E99'"), "got: {err}");
        // The message lists the valid ids so the fix is self-evident.
        assert!(err.contains("T1") && err.contains("E11"), "got: {err}");
        // Bare ids get the same validation as --filter values.
        assert!(parse(&["BOGUS"]).is_err());
        // ...but --all does not mask a bad explicit id.
        assert!(parse(&["--all", "BOGUS"]).is_err());
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&["--filter"]).is_err());
        assert!(parse(&["--bench-json"]).is_err());
    }

    #[test]
    fn faults_strict_and_step_budget_parsing() {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/chaos-plan.json"
        );
        let parsed = parse(&["--faults", fixture, "--strict", "--step-budget", "5000000"]).unwrap();
        assert!(parsed.strict);
        assert_eq!(parsed.opts.step_budget, Some(5_000_000));
        let plan = parsed.opts.faults.expect("plan loaded");
        assert_eq!(plan.seed, 3203334829);
        assert!(!plan.is_inert());
        // Defaults: no plan, no budget, not strict.
        let plain = parse(&["T1"]).unwrap();
        assert!(plain.opts.faults.is_none());
        assert_eq!(plain.opts.step_budget, None);
        assert!(!plain.strict);
        // A missing file, a malformed plan, and a zero budget are
        // errors at parse time, not at run time.
        assert!(parse(&["--faults", "/no/such/plan.json"])
            .unwrap_err()
            .contains("cannot read"));
        assert!(parse(&["--faults"]).is_err());
        assert!(parse(&["--step-budget", "0"])
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn bench_json_path_is_captured() {
        let parsed = parse(&["--bench-json", "out/bench.json", "T1"]).unwrap();
        assert_eq!(
            parsed.bench_json.as_deref(),
            Some(std::path::Path::new("out/bench.json"))
        );
    }

    #[test]
    fn out_flag_splits_off_cleanly() {
        let args: Vec<String> = ["--out", "run.trace", "--quick", "T1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (out, rest) = split_out_flag(&args).unwrap();
        assert_eq!(out.as_deref(), Some(Path::new("run.trace")));
        assert_eq!(rest, ["--quick", "T1"]);
        // The remainder still parses as experiments flags.
        let parsed = parse_experiment_args(&rest).unwrap();
        assert!(parsed.opts.quick);
        // A later --out wins; a trailing bare --out is an error.
        let args: Vec<String> = ["--out", "a", "--out", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            split_out_flag(&args).unwrap().0.as_deref(),
            Some(Path::new("b"))
        );
        let args: Vec<String> = vec!["--out".into()];
        assert!(split_out_flag(&args).is_err());
        // No --out at all: everything passes through.
        let args: Vec<String> = vec!["T1".into()];
        assert_eq!(
            split_out_flag(&args).unwrap(),
            (None, vec!["T1".to_string()])
        );
    }

    #[test]
    fn defense_parsing_matches_catalog() {
        for d in DefenseKind::catalog(100) {
            assert_eq!(parse_defense(d.name(), 100), Some(d));
        }
        assert_eq!(parse_defense("nope", 100), None);
    }
}
