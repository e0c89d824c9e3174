//! Per-layer probes: small scenarios rebuilt through the simulator's
//! public API and timed from outside, one layer at a time.
//!
//! - `conv`: T1's convoluted-refresh benign machine (three tenants
//!   under `VictimRefreshConvoluted`), the cell that dominates the
//!   full suite.
//! - `hammer`: a double-sided hammer beside a victim, undefended.
//! - `memctrl`: a standalone controller drained from a given depth.
//! - `fleet`: population synthesis, machine builds, tenant migration
//!   and the statistics fold of a `fleet_1k` run.
//!
//! Each machine probe runs twice: untraced (its times are the probe's
//! figures) and traced — event tracer on, timing decorators around
//! every workload — and both runs must simulate the same thing.

use crate::rep::{fleet_config, mix};
use crate::report::Metrics;
use crate::spans::Spans;
use hammertime::common::{CacheLineAddr, DetRng, DomainId, RequestSource};
use hammertime::common::{Error, Result};
use hammertime::dram::{replay_records, DramConfig};
use hammertime::experiments::FAST_MAC;
use hammertime::memctrl::request::{MemRequest, RequestKind};
use hammertime::memctrl::{MemCtrl, MemCtrlConfig};
use hammertime::workloads::{
    AccessOp, HammerPattern, RandomWorkload, StreamWorkload, Workload, ZipfianWorkload,
};
use hammertime::{DefenseKind, Machine, MachineConfig, SimReport};
use hammertime_fleet::{fold, population::synthesize, run_fleet};
use hammertime_telemetry::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queue depths the standalone controller is drained from.
pub const QUEUE_DEPTHS: [usize; 3] = [16, 256, 4096];

/// Requests drained per depth (in rounds of `depth` requests).
const MEMCTRL_REQUESTS: usize = 8192;

/// Machine pairs the fleet probe migrates a tenant between.
const MIGRATIONS: usize = 64;

/// Times every `next_op` of the wrapped workload into a shared total.
struct Timed {
    inner: Box<dyn Workload>,
    nanos: Arc<AtomicU64>,
}

impl Workload for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn source(&self) -> RequestSource {
        self.inner.source()
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        let t = Instant::now();
        let op = self.inner.next_op();
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        op
    }

    fn box_clone(&self) -> Option<Box<dyn Workload>> {
        let inner = self.inner.box_clone()?;
        Some(Box::new(Timed {
            inner,
            nanos: self.nanos.clone(),
        }))
    }

    fn snapshot(&self) -> Option<hammertime::workloads::WorkloadSnapshot> {
        self.inner.snapshot()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineProbe {
    Conv,
    Hammer,
}

impl MachineProbe {
    pub fn name(self) -> &'static str {
        match self {
            MachineProbe::Conv => "conv",
            MachineProbe::Hammer => "hammer",
        }
    }
}

/// The machine a probe drives, set up and ready to run.
struct Rig {
    machine: Machine,
    windows: u64,
    /// Stop once every tenant finished (makespan runs, like T1's
    /// benign cell) rather than after a fixed window count.
    until_finished: bool,
}

/// Wraps a workload in a [`Timed`] decorator when `nanos` is given.
fn maybe_timed(w: Box<dyn Workload>, nanos: &Option<Arc<AtomicU64>>) -> Box<dyn Workload> {
    match nanos {
        Some(n) => Box::new(Timed {
            inner: w,
            nanos: n.clone(),
        }),
        None => w,
    }
}

/// T1's benign cell (`run_benign` in the experiments), convoluted.
fn conv_rig(cfg: MachineConfig, quick: bool, nanos: &Option<Arc<AtomicU64>>) -> Result<Rig> {
    let (windows, n) = if quick {
        (100, 2_500 / 4)
    } else {
        (400, 8_000 / 4)
    };
    let mut m = Machine::new(cfg)?;
    let seed = m.config().seed;
    let arenas = [
        m.add_tenant(DomainId(1), 2)?,
        m.add_tenant(DomainId(2), 2)?,
        m.add_tenant(DomainId(3), 2)?,
    ];
    let [a1, a2, a3] = arenas;
    let loads: [Box<dyn Workload>; 3] = [
        Box::new(StreamWorkload::new(a1, n, 8)),
        Box::new(RandomWorkload::new(a2, n, 0.2, DetRng::new(seed ^ 2))),
        Box::new(ZipfianWorkload::new(a3, n, 0.99, DetRng::new(seed ^ 3))),
    ];
    for (d, w) in (1..).zip(loads) {
        m.set_workload(DomainId(d), maybe_timed(w, nanos))?;
    }
    Ok(Rig {
        machine: m,
        windows,
        until_finished: true,
    })
}

/// Two attacker rows sandwiching a victim row in one bank, else any
/// two attacker rows sharing a bank.
fn double_sided_pair(
    m: &Machine,
    attacker: DomainId,
    victim: DomainId,
) -> (CacheLineAddr, CacheLineAddr) {
    let rows = m.rows_of_domain(attacker);
    let pairs = || {
        rows.iter()
            .flat_map(|a| rows.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.0 == b.0 && a.1 < b.1)
    };
    pairs()
        .find(|(a, b)| b.1 == a.1 + 2 && m.owner_of_row(&a.0, a.1 + 1) == Some(victim))
        .or_else(|| pairs().next())
        .map(|(a, b)| (a.2[0], b.2[0]))
        .expect("attacker owns two rows in one bank")
}

/// T1's undefended double-sided attack cell.
fn hammer_rig(cfg: MachineConfig, quick: bool, nanos: &Option<Arc<AtomicU64>>) -> Result<Rig> {
    let (windows, n, reads) = if quick {
        (40, 2_500, 100)
    } else {
        (150, 8_000, 400)
    };
    let (attacker, victim) = (DomainId(1), DomainId(2));
    let mut m = Machine::new(cfg)?;
    m.add_tenant(attacker, 4)?;
    m.add_tenant(victim, 4)?;
    m.add_tenant(attacker, 4)?;
    let (above, below) = double_sided_pair(&m, attacker, victim);
    let hammer = Box::new(HammerPattern::double_sided(above, below, n));
    m.set_workload(attacker, maybe_timed(hammer, nanos))?;
    let lines: Vec<CacheLineAddr> = m
        .rows_of_domain(victim)
        .into_iter()
        .flat_map(|(_, _, l)| l)
        .collect();
    m.set_workload(
        victim,
        maybe_timed(Box::new(StreamWorkload::new(lines, reads, 0)), nanos),
    )?;
    Ok(Rig {
        machine: m,
        windows,
        until_finished: false,
    })
}

/// One run of a machine probe.
struct Run {
    build: Duration,
    run: Duration,
    next_op: Duration,
    depth_max: usize,
    depth_mean: f64,
    wheel_events: u64,
    report: SimReport,
}

/// Builds and runs the probe machine window by window, sampling the
/// controller queue after each window. With `spans`, the run is the
/// traced one: tracer and decorators on, every window a span.
fn run_probe(
    probe: MachineProbe,
    quick: bool,
    seed: u64,
    tracer: Option<Tracer>,
    mut spans: Option<&mut Spans>,
) -> Result<Run> {
    let defense = match probe {
        MachineProbe::Conv => DefenseKind::VictimRefreshConvoluted,
        MachineProbe::Hammer => DefenseKind::None,
    };
    let mut cfg = MachineConfig::fast(defense, FAST_MAC);
    cfg.seed ^= mix(seed);
    cfg.tracer = tracer;
    let nanos = spans.is_some().then(|| Arc::new(AtomicU64::new(0)));
    let t = Instant::now();
    let mut rig = match probe {
        MachineProbe::Conv => conv_rig(cfg, quick, &nanos)?,
        MachineProbe::Hammer => hammer_rig(cfg, quick, &nanos)?,
    };
    let build = t.elapsed();
    if let Some(s) = spans.as_deref_mut() {
        s.record("core", format!("{}.build", probe.name()), t, build);
    }
    let t_refw = rig.machine.config().timing.t_refw;
    let (mut depth_max, mut depth_sum, mut windows) = (0, 0, 0u64);
    let started = Instant::now();
    for w in 0..rig.windows {
        let m = &mut rig.machine;
        match spans.as_deref_mut() {
            Some(s) => {
                let before = nanos.as_ref().map_or(0, |n| n.load(Ordering::Relaxed));
                s.time("core", format!("{}.window.{w}", probe.name()), |s| {
                    let t = Instant::now();
                    m.run(t_refw);
                    let spent = nanos.as_ref().map_or(0, |n| n.load(Ordering::Relaxed)) - before;
                    s.record("workloads", "next_op", t, Duration::from_nanos(spent));
                });
            }
            None => m.run(t_refw),
        }
        let depth = m.mc().queue_len();
        depth_max = depth_max.max(depth);
        depth_sum += depth as u64;
        windows += 1;
        if rig.until_finished && m.all_finished() {
            break;
        }
    }
    let run = started.elapsed();
    Ok(Run {
        build,
        run,
        next_op: Duration::from_nanos(nanos.map_or(0, |n| n.load(Ordering::Relaxed))),
        depth_max,
        depth_mean: depth_sum as f64 / windows as f64,
        wheel_events: rig.machine.mc().wheel_counters().0,
        report: rig.machine.report(),
    })
}

/// Runs a machine probe untraced, then traced, and replays the traced
/// run's DRAM command stream. Returns the per-layer figures and every
/// failed consistency check.
pub fn machine_probe(
    probe: MachineProbe,
    quick: bool,
    seed: u64,
    spans: &mut Spans,
) -> Result<(Metrics, Vec<String>)> {
    let name = probe.name();
    let plain = run_probe(probe, quick, seed, None, None)?;
    let tracer = Tracer::buffer();
    let traced = run_probe(probe, quick, seed, Some(tracer.clone()), Some(spans))?;
    // The device closes its trace segment when the machine drops.
    let records = tracer.take_records();
    let t = Instant::now();
    let replay = spans.time("dram", format!("{name}.replay_records"), |_| {
        replay_records(&records)
    });
    let replay_s = t.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    let strip = |r: &SimReport| {
        let mut r = r.clone();
        r.metrics = None;
        serde_json::to_string(&r).expect("report serializes")
    };
    if strip(&plain.report) != strip(&traced.report) {
        errors.push(format!(
            "{name}: traced run simulated differently from the untraced run \
             ({} flips untraced, {} traced)",
            plain.report.flips_total, traced.report.flips_total
        ));
    }
    // At the canonical seed the conv probe is T1's convoluted cell.
    if probe == MachineProbe::Conv && seed == 0 {
        let got = format!("{:.2}", plain.report.throughput());
        let want = crate::checks::reference_table("T1", quick)
            .map(|t| crate::checks::table_cell(&t, "victim-refresh/convoluted", "benign ops/kcyc"));
        if want != Ok(Some(got.clone())) {
            errors.push(format!("conv: {got} ops/kcyc, T1 has {want:?}"));
        }
    }
    let commands = match replay {
        Ok(summary) => summary.commands,
        Err(e) => {
            errors.push(format!("{name}: DRAM replay diverged: {e}"));
            0
        }
    };

    let r = &plain.report;
    let run_s = plain.run.as_secs_f64();
    let accesses = r.cache.hits + r.cache.misses;
    let mut metrics = vec![
        ("core.build_s", plain.build.as_secs_f64()),
        ("core.run_s", run_s),
        ("workloads.next_op_s", traced.next_op.as_secs_f64()),
        ("memctrl.sched_steps", r.mc.sched_steps as f64),
        (
            "memctrl.ns_per_sched_step",
            run_s * 1e9 / r.mc.sched_steps.max(1) as f64,
        ),
        ("memctrl.queue_depth_max", plain.depth_max as f64),
        ("memctrl.queue_depth_mean", plain.depth_mean),
        ("memctrl.wheel_events", plain.wheel_events as f64),
        ("cache.accesses", accesses as f64),
        (
            "cache.hit_rate",
            r.cache.hits as f64 / accesses.max(1) as f64,
        ),
        ("dram.commands", commands as f64),
        ("dram.replay_s", replay_s),
        (
            "trace_overhead_frac",
            traced.run.as_secs_f64() / run_s - 1.0,
        ),
    ];
    match probe {
        MachineProbe::Conv => {
            metrics.push((
                "os.convoluted_refreshes",
                r.overhead.convoluted_refreshes as f64,
            ));
            metrics.push(("os.actions", r.overhead.actions as f64));
        }
        MachineProbe::Hammer => metrics.push(("dram.flips", r.flips_total as f64)),
    }
    Ok((
        metrics
            .into_iter()
            .map(|(k, v)| (format!("{name}.{k}"), v))
            .collect(),
        errors,
    ))
}

/// Fills a standalone controller with `depth` host reads and drains
/// it, repeatedly. Returns `(ns per request, scheduling steps per
/// request)` over all rounds.
pub fn memctrl_probe(depth: usize, seed: u64, spans: &mut Spans) -> Result<(f64, f64)> {
    // The fast machine's device and the controller a `Machine` builds.
    let fast = MachineConfig::fast(DefenseKind::None, FAST_MAC);
    let dram = DramConfig {
        geometry: fast.geometry,
        timing: fast.timing,
        disturbance: fast.disturbance,
        trr: None,
        remap: fast.remap,
        seed: (fast.seed ^ 0xD12A) ^ mix(seed),
        ecc: fast.ecc,
        batched_pressure: false,
        faults: None,
        tracer: None,
    };
    let mut cfg = MemCtrlConfig::baseline();
    cfg.queue_capacity = 65_536;
    let mut mc = MemCtrl::new(cfg, dram, fast.seed ^ mix(seed))?;
    let lines = mc.map().geometry().total_lines();
    let mut rng = DetRng::new(0x3e3c ^ mix(seed));
    let rounds = (MEMCTRL_REQUESTS / depth).max(1);
    let mut drained = Duration::ZERO;
    let mut completed = 0;
    let mut id = 0;
    for round in 0..rounds {
        for _ in 0..depth {
            mc.submit(MemRequest {
                id,
                line: CacheLineAddr(rng.below(lines)),
                kind: RequestKind::Read,
                source: RequestSource::Core(0),
                domain: DomainId::HOST,
                arrival: mc.now(),
            })?;
            id += 1;
        }
        let t = Instant::now();
        spans.time("memctrl", format!("drain.q{depth}.{round}"), |_| mc.drain());
        drained += t.elapsed();
        completed += mc.drain_completions().len();
    }
    let requests = rounds * depth;
    if completed != requests {
        return Err(Error::Config(format!(
            "q{depth}: {completed} of {requests} requests completed"
        )));
    }
    Ok((
        drained.as_secs_f64() * 1e9 / requests as f64,
        mc.stats().sched_steps as f64 / requests as f64,
    ))
}

/// Fleet-layer probe over the `fleet_1k` population.
pub fn fleet_probe(seed: u64, spans: &mut Spans) -> Result<(Metrics, Vec<String>)> {
    let cfg = fleet_config(seed, 0, 2);
    let t = Instant::now();
    let specs = spans.time("fleet", "synthesize", |_| synthesize(&cfg));
    let synthesize_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let machines = spans.time("fleet", "build_population", |s| {
        specs
            .iter()
            .map(|spec| {
                s.time("core", "Machine::new", |_| {
                    Machine::new(spec.machine_config())
                })
            })
            .collect::<Result<Vec<Machine>>>()
    })?;
    let build_s = t.elapsed().as_secs_f64();

    // Migrate a mid-stream tenant between neighbouring machines.
    let tenant = DomainId(16);
    let mut migrate = Duration::ZERO;
    let mut pairs = machines.into_iter();
    for _ in 0..MIGRATIONS {
        let (Some(mut a), Some(mut b)) = (pairs.next(), pairs.next()) else {
            break;
        };
        let arena = a.add_tenant(tenant, 2)?;
        a.set_workload(tenant, Box::new(StreamWorkload::new(arena, 1_500, 8)))?;
        a.run(a.config().timing.t_refw);
        let t = Instant::now();
        spans.time("core", "detach+admit", |_| {
            b.admit_tenant(a.detach_tenant(tenant)?)
        })?;
        migrate += t.elapsed();
    }
    // Free the built population before the fleet run.
    drop(pairs);

    let report = spans.time("fleet", "run_fleet", |_| run_fleet(&cfg))?;
    let t = Instant::now();
    let stats = spans.time("fleet", "fold", |_| fold(&report.outcomes));
    let fold_s = t.elapsed().as_secs_f64();
    let mut errors: Vec<String> = report
        .failures()
        .map(|(id, f)| format!("fleet machine {id} failed [{}]: {}", f.kind, f.message))
        .collect();
    if stats.table("FLEET", "").to_string() != report.stats.table("FLEET", "").to_string() {
        errors.push("fleet: stats::fold disagrees with the run's population table".into());
    }
    let migrations: u32 = report.outcomes.iter().map(|o| o.migrations_in).sum();
    let metrics = vec![
        ("synthesize_s", synthesize_s),
        ("machine_build_s", build_s),
        ("migrate_s", migrate.as_secs_f64()),
        ("fold_s", fold_s),
        ("machines", report.outcomes.len() as f64),
        ("migrations", f64::from(migrations)),
    ];
    Ok((
        metrics
            .into_iter()
            .map(|(k, v)| (format!("fleet.{k}"), v))
            .collect(),
        errors,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_probe_reproduces_t1_at_quick_scale() {
        // At seed 0 the probe checks itself against T1's golden row.
        let (metrics, errors) =
            machine_probe(MachineProbe::Conv, true, 0, &mut Spans::new()).unwrap();
        assert!(errors.is_empty(), "{errors:?}");
        assert!(metrics
            .iter()
            .any(|(k, v)| k == "conv.memctrl.queue_depth_max" && *v > 0.0));
    }

    #[test]
    fn hammer_probe_flips_and_agrees_with_its_traced_run() {
        let (metrics, errors) =
            machine_probe(MachineProbe::Hammer, true, 3, &mut Spans::new()).unwrap();
        assert!(errors.is_empty(), "{errors:?}");
        let flips = metrics
            .iter()
            .find(|(k, _)| k == "hammer.dram.flips")
            .unwrap()
            .1;
        assert!(
            flips > 0.0,
            "an undefended double-sided hammer must flip bits"
        );
    }

    #[test]
    fn memctrl_probe_completes_every_request() {
        let mut spans = Spans::new();
        let (ns, steps) = memctrl_probe(16, 0, &mut spans).unwrap();
        assert!(ns > 0.0 && steps >= 1.0);
    }
}
