//! One untraced repetition of a workload. Each repetition runs in a
//! child process of its own, so its CPU time and peak memory are the
//! workload's alone.

use crate::checks;
use crate::sys;
use hammertime::experiments::{run_suite, CellCtx, CellProgress, RunOptions};
use hammertime::metrics::sim_cycles;
use hammertime_fleet::{
    full_registry, population::synthesize, run_fleet, FleetConfig, FleetReport,
};
use serde::Value;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up is short next to the workload, so it is repeated this many
/// times per repetition and the median is reported.
const SETUP_REPS: usize = 201;

pub const POISONED: &str = "a progress callback panicked";

/// Machines in the `fleet_1k` population.
pub const FLEET_MACHINES: u32 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `experiments --all` at quick scale, serial.
    SuiteQuick,
    /// `experiments --all --full --jobs 2`.
    SuiteFull,
    /// `fleet run --machines 1000 --full --jobs 2`.
    Fleet1k,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite_quick" => Some(Workload::SuiteQuick),
            "suite_full" => Some(Workload::SuiteFull),
            "fleet_1k" => Some(Workload::Fleet1k),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteQuick => "suite_quick",
            Workload::SuiteFull => "suite_full",
            Workload::Fleet1k => "fleet_1k",
        }
    }

    /// Scale of the traced run's engine pass and probes.
    pub fn quick(self) -> bool {
        self != Workload::SuiteFull
    }
}

/// Spreads a benchmark seed over 64 bits; seed 0 maps to 0, so it
/// keeps every canonical simulator seed.
pub fn mix(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The `fleet_1k` configuration of population `population` at the
/// given benchmark seed. Seed 0, population 0 is the canonical fleet.
pub fn fleet_config(seed: u64, population: u64, jobs: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(FLEET_MACHINES).jobs(jobs);
    cfg.quick = false;
    cfg.seed ^= mix(seed ^ (population << 32));
    cfg
}

/// FNV-1a, to compare large outputs across processes cheaply.
pub fn digest(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain([0xff]) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The population table and every machine outcome, as one digest.
pub fn fleet_digest(cfg: &FleetConfig, report: &FleetReport) -> u64 {
    let table = report
        .stats
        .table(
            "FLEET",
            &format!(
                "population of {} machines (seed {:#x})",
                cfg.machines, cfg.seed
            ),
        )
        .to_string();
    let outcomes = serde_json::to_string(&report.outcomes).expect("outcomes serialize");
    digest(&[&table, &outcomes])
}

/// What one repetition measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub sim_cycles: u64,
    pub slowest_cell_s: f64,
    pub peak_rss_mb: f64,
    /// Cells (suites) or machines (fleet) run.
    pub attempted: u64,
    pub digest: u64,
    /// Failed cells or machines, and failed output checks.
    pub errors: Vec<String>,
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Runs `f` as the measured workload: wall, CPU and simulated cycles.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Duration, Duration, u64) {
    let (cycles, cpu) = (sim_cycles(), sys::usage().cpu);
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed();
    (out, wall, sys::usage().cpu - cpu, sim_cycles() - cycles)
}

/// Runs one repetition. The suites ignore the seed and population:
/// their tables are the paper's, at canonical seeds.
pub fn run(workload: Workload, seed: u64, population: u64) -> Rep {
    let mut rep = match workload {
        Workload::SuiteQuick => suite(true),
        Workload::SuiteFull => suite(false),
        Workload::Fleet1k => fleet(seed, population),
    };
    rep.peak_rss_mb = sys::usage().peak_rss_mb;
    rep
}

fn suite(quick: bool) -> Rep {
    let ctx = CellCtx::new(quick);
    let mut cells = 0;
    let setup_s = median_time(SETUP_REPS, || {
        let registry = full_registry();
        cells = registry.iter().map(|e| e.cells(&ctx).len() as u64).sum();
    });
    let opts = RunOptions::new(quick).jobs(if quick { 1 } else { 2 });
    let slowest = Mutex::new(Duration::ZERO);
    let progress = |p: &CellProgress<'_>| {
        let mut s = slowest.lock().expect(POISONED);
        *s = (*s).max(p.elapsed);
    };
    let (report, wall, cpu, cycles) = measured(|| run_suite(&full_registry(), &opts, &progress));
    let mut rep = Rep {
        setup_s,
        wall_s: wall.as_secs_f64(),
        cpu_s: cpu.as_secs_f64(),
        sim_cycles: cycles,
        slowest_cell_s: slowest.into_inner().expect(POISONED).as_secs_f64(),
        attempted: cells,
        ..Rep::default()
    };
    match report {
        Ok(report) => {
            rep.errors = report
                .failures()
                .map(|(id, f)| format!("{id}/{}: cell failed [{}]: {}", f.label, f.kind, f.message))
                .collect();
            rep.errors
                .extend(checks::check_tables(&report.tables, quick));
            let text: Vec<String> = report.tables.iter().map(|t| t.to_string()).collect();
            rep.digest = digest(&text.iter().map(String::as_str).collect::<Vec<_>>());
        }
        Err(e) => rep.errors.push(format!("suite failed to run: {e}")),
    }
    rep
}

fn fleet(seed: u64, population: u64) -> Rep {
    let cfg = fleet_config(seed, population, 2);
    let setup_s = median_time(SETUP_REPS, || {
        black_box(synthesize(&cfg));
    });
    let (report, wall, cpu, cycles) = measured(|| run_fleet(&cfg));
    let mut rep = Rep {
        setup_s,
        wall_s: wall.as_secs_f64(),
        cpu_s: cpu.as_secs_f64(),
        sim_cycles: cycles,
        // The population runs as one unit of work: there are no cells.
        slowest_cell_s: wall.as_secs_f64(),
        attempted: u64::from(cfg.machines),
        ..Rep::default()
    };
    match report {
        Ok(report) => {
            rep.errors = report
                .failures()
                .map(|(id, f)| format!("machine {id} failed [{}]: {}", f.kind, f.message))
                .collect();
            rep.digest = fleet_digest(&cfg, &report);
        }
        Err(e) => rep.errors.push(format!("fleet failed to run: {e}")),
    }
    rep
}

impl Rep {
    pub fn to_json(&self) -> Value {
        use crate::report::{num, obj};
        obj(vec![
            ("setup_s", num(self.setup_s)),
            ("wall_s", num(self.wall_s)),
            ("cpu_s", num(self.cpu_s)),
            ("sim_cycles", num(self.sim_cycles as f64)),
            ("slowest_cell_s", num(self.slowest_cell_s)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
            ("attempted", num(self.attempted as f64)),
            ("digest", Value::Str(format!("{:016x}", self.digest))),
            (
                "errors",
                Value::Arr(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Rep> {
        let f = |k: &str| v.get(k)?.as_num()?.parse::<f64>().ok();
        Some(Rep {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            sim_cycles: f("sim_cycles")? as u64,
            slowest_cell_s: f("slowest_cell_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            attempted: f("attempted")? as u64,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            errors: v
                .get("errors")?
                .as_arr()?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_round_trips_through_json() {
        let rep = Rep {
            setup_s: 0.001,
            wall_s: 7.5,
            cpu_s: 7.4,
            sim_cycles: 123_456_789,
            slowest_cell_s: 1.2,
            peak_rss_mb: 50.5,
            attempted: 120,
            digest: 0xdead_beef_0123_4567,
            errors: vec!["T1: differs".into()],
        };
        let text = crate::report::compact(&rep.to_json());
        let back = Rep::from_json(&serde::parse_json(&text).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{rep:?}"));
    }

    #[test]
    fn seed_zero_keeps_the_canonical_fleet() {
        assert_eq!(fleet_config(0, 0, 2).seed, FleetConfig::new(1).seed);
        assert_ne!(fleet_config(1, 0, 2).seed, fleet_config(2, 0, 2).seed);
        assert_ne!(fleet_config(1, 0, 2).seed, fleet_config(1, 1, 2).seed);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
