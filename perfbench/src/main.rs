//! End-to-end and per-layer benchmark of the hammertime simulator.
//!
//! ```text
//! perfbench --workload suite_quick|suite_full|fleet_1k --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`), it repeats the workload in child processes
//! for about `--seconds` seconds, checks every output, and prints the
//! median end-to-end metrics. Fleet repetitions run a fresh population
//! every second repetition, so a run's median covers several
//! populations instead of hinging on one seed's draw; the repeat must
//! reproduce its population byte for byte. Traced (`--trace 1`), it
//! runs the per-layer probes once and prints their metrics. The last
//! line of standard output is always the JSON result; the exit code is
//! 0 only when every check passed.

mod checks;
mod probes;
mod rep;
mod report;
mod spans;
mod sys;
mod traced;

use rep::{Rep, Workload};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs this binary as a child (`rep` or `fleet-ref`) and parses the
/// JSON line it prints.
fn child(args: &[&str]) -> Result<serde::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    serde::parse_json(line).map_err(|e| format!("child printed bad JSON: {e}"))
}

fn untraced(args: &Args) -> Result<(bool, String), String> {
    let seed = args.seed.to_string();
    let fleet = args.workload == Workload::Fleet1k;
    let population = |rep: usize| if fleet { rep as u64 / 2 } else { 0 };
    // Expected digest per population. The fleet must produce the same
    // bytes at any worker count: population 0 is pinned to a serial run.
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    if fleet {
        let v = child(&["fleet-ref", &seed])?;
        let hex = v
            .get("digest")
            .and_then(serde::Value::as_str)
            .ok_or("bad fleet-ref output")?;
        expected.insert(0, u64::from_str_radix(hex, 16).map_err(|e| e.to_string())?);
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t = Instant::now();
        let v = child(&[
            "rep",
            args.workload.name(),
            &seed,
            &population(reps.len()).to_string(),
        ])?;
        let rep = Rep::from_json(&v).ok_or("bad rep output")?;
        eprintln!(
            "perfbench: {} rep {}: wall {:.3} s, cpu {:.3} s, setup {:.6} s",
            args.workload.name(),
            reps.len() + 1,
            rep.wall_s,
            rep.cpu_s,
            rep.setup_s
        );
        reps.push(rep);
        // Start another repetition only if it should end in budget.
        if started.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let mut errors = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        if *expected.entry(population(i)).or_insert(r.digest) != r.digest {
            errors.push(format!(
                "rep {}: output differs from its reference run",
                i + 1
            ));
        }
    }
    errors.extend(reps.iter().flat_map(|r| r.errors.iter().cloned()));
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let metrics: Vec<(String, &str, f64)> = report::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let of = |r: &Rep| match name {
                "wall_s" => r.wall_s,
                "cpu_s" => r.cpu_s,
                "setup_s" => r.setup_s,
                "sim_cycles_per_s" => r.sim_cycles as f64 / r.wall_s,
                "slowest_cell_s" => r.slowest_cell_s,
                "peak_rss_mb" => r.peak_rss_mb,
                _ => unreachable!("end-to-end metric {name} has no value"),
            };
            let mut values: Vec<f64> = reps.iter().map(of).collect();
            (name.to_string(), unit, rep::median(&mut values))
        })
        .collect();
    for e in &errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let correct = errors.is_empty();
    Ok((
        correct,
        report::result_line(correct, attempted, errors.len() as u64, &metrics),
    ))
}

fn traced(args: &Args) -> (bool, String) {
    let mut t = traced::run(args.workload, args.seed);
    eprintln!(
        "perfbench: per-layer report written to {}",
        t.report_path.display()
    );
    let values: BTreeMap<String, f64> = t.metrics.into_iter().collect();
    let mut metrics = Vec::new();
    for (name, unit) in report::per_layer() {
        match values.get(&name) {
            Some(&v) => metrics.push((name, unit, v)),
            None => t
                .errors
                .push(format!("no value for per-layer metric {name}")),
        }
    }
    for e in &t.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let correct = t.errors.is_empty();
    let line = report::result_line(correct, t.attempted, t.errors.len() as u64, &metrics);
    (correct, line)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("rep") => {
            const USAGE: &str = "rep WORKLOAD SEED POPULATION";
            let workload = argv.get(1).and_then(|w| Workload::parse(w)).expect(USAGE);
            let seed = argv.get(2).and_then(|s| s.parse().ok()).expect(USAGE);
            let population = argv.get(3).and_then(|s| s.parse().ok()).expect(USAGE);
            println!(
                "{}",
                report::compact(&rep::run(workload, seed, population).to_json())
            );
        }
        Some("fleet-ref") => {
            let seed = argv
                .get(1)
                .and_then(|s| s.parse().ok())
                .expect("fleet-ref SEED");
            let cfg = rep::fleet_config(seed, 0, 1);
            let report = hammertime_fleet::run_fleet(&cfg).expect("fleet runs");
            let digest = format!("{:016x}", rep::fleet_digest(&cfg, &report));
            println!(
                "{}",
                report::compact(&report::obj(vec![("digest", serde::Value::Str(digest))]))
            );
        }
        _ => {
            let args = parse_args(&argv).unwrap_or_else(|e| {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            });
            let (correct, line) = if args.trace {
                traced(&args)
            } else {
                untraced(&args).unwrap_or_else(|e| {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                })
            };
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
    }
}
