//! Shared step-loop benchmark scenarios.
//!
//! Both the criterion family (`benches/step_loop.rs`) and the
//! `step_loop` runner binary (which seeds `BENCH_step_loop.json`)
//! drive these exact workloads, so the numbers they report describe
//! the same code paths: the memoized fast scheduler vs. the reference
//! linear scan, and batched vs. per-ACT disturbance accounting.

use hammertime::machine::{Machine, MachineConfig};
use hammertime::taxonomy::DefenseKind;
use hammertime_check::ShadowChecker;
use hammertime_common::geometry::BankId;
use hammertime_common::{CacheLineAddr, Cycle, DetRng, DomainId, Geometry, RequestSource};
use hammertime_dram::{DramConfig, DramModule, TimingParams, TrrConfig};
use hammertime_fleet::{run_fleet, FleetConfig, FleetReport};
use hammertime_memctrl::request::{MemRequest, RequestKind};
use hammertime_memctrl::{McMitigationConfig, MemCtrl, MemCtrlConfig, PagePolicy};
use hammertime_telemetry::Tracer;
use hammertime_workloads::StreamWorkload;

/// Polling quantum for the idle scenario: mirrors how `Machine::run`
/// nudges the controller forward in small time slices.
pub const IDLE_QUANTUM: u64 = 200;

/// Idle-heavy scenario: a server-geometry controller with refresh on
/// and an empty queue, polled forward in [`IDLE_QUANTUM`]-cycle slices
/// for `cycles` cycles. The fast path answers each poll from the
/// memoized scan in O(1); the reference rescans every refresh
/// scheduler per poll. Returns `sched_steps` so callers can assert
/// both drivers took the same number of scheduling decisions.
pub fn idle_poll(cycles: u64, fast: bool) -> u64 {
    idle_poll_on(&mut idle_mc(), cycles, fast)
}

/// Builds the idle-scenario controller; separated from the poll loop
/// so timed runs exclude construction (a server-geometry build
/// allocates per-row state for 32 banks x 4096 rows).
pub fn idle_mc() -> MemCtrl {
    let mut dram_cfg = DramConfig::test_config(1_000_000);
    dram_cfg.geometry = Geometry::server();
    // Realistic refresh cadence: with tiny_test timing (tREFI = 100)
    // every poll lands on a refresh slot and both drivers degenerate
    // to the same scan-per-step; DDR4 spacing leaves genuinely idle
    // stretches for the memoized scan to skip.
    dram_cfg.timing = TimingParams::ddr4_2400();
    MemCtrl::new(MemCtrlConfig::baseline(), dram_cfg, 42).unwrap()
}

/// The poll loop of [`idle_poll`], driving an already-built controller.
pub fn idle_poll_on(mc: &mut MemCtrl, cycles: u64, fast: bool) -> u64 {
    let end = mc.now().raw() + cycles;
    let mut target = mc.now().raw();
    while target < end {
        target = (target + IDLE_QUANTUM).min(end);
        if fast {
            mc.advance_to(Cycle(target));
        } else {
            mc.advance_to_reference(Cycle(target));
        }
    }
    mc.stats().sched_steps
}

/// Single-row hammer burst at the device level: `acts` ACT/PRE pairs
/// on one aggressor, then a sync. With `batched` accounting the burst
/// costs O(1) log entries; per-ACT walks the blast radius every time.
/// Returns the flip count (identical across modes by construction).
pub fn hammer_burst(acts: u32, batched: bool) -> u64 {
    hammer_burst_with_tracer(acts, batched, None)
}

/// [`hammer_burst`] with an optional tracer attached to the device —
/// the scenario behind the tracing-overhead comparison: `None` takes
/// the one-`is_none()`-check disabled path, `Some` pays for full
/// command/flip recording.
pub fn hammer_burst_with_tracer(acts: u32, batched: bool, tracer: Option<Tracer>) -> u64 {
    hammer_burst_impl(acts, batched, tracer, false)
}

/// [`hammer_burst`] issued through the tracer-check bypass — the
/// "telemetry layer absent" baseline the zero-cost-when-off bench
/// gate compares the disabled path against.
pub fn hammer_burst_bypassing_tracer(acts: u32, batched: bool) -> u64 {
    hammer_burst_impl(acts, batched, None, true)
}

fn hammer_burst_impl(acts: u32, batched: bool, tracer: Option<Tracer>, bypass: bool) -> u64 {
    let mut cfg = DramConfig::test_config(1_000_000);
    // A wide blast radius is where the batching matters: per-ACT
    // accounting walks 2 x radius victims on every activation, the
    // batched log walks them once per run at the sync.
    cfg.disturbance.blast_radius = 6;
    cfg.batched_pressure = batched;
    cfg.tracer = tracer;
    let mut m = DramModule::new(cfg).unwrap();
    let bank = BankId {
        channel: 0,
        rank: 0,
        bank_group: 0,
        bank: 0,
    };
    // The burst entry point is state-identical to issuing the ACT/PRE
    // pairs one command at a time (the device enforces this in its
    // tests) but keeps the timing recurrence in registers — the
    // hammer loop is a pure measure of device-model throughput, so it
    // uses the fastest correct driving idiom. On a traced device it
    // degrades to per-command issue internally, so the tracing
    // scenarios still record every command.
    let now = if bypass {
        m.issue_hammer_pairs_bypassing_tracer(&bank, 8, acts, Cycle::ZERO)
            .unwrap()
    } else {
        m.issue_hammer_pairs(&bank, 8, acts, Cycle::ZERO).unwrap()
    };
    m.sync_disturbances(now);
    m.stats().flips
}

/// Controller-level hammer burst: `bursts` rounds of a double-sided
/// hammer pair plus row-conflict traffic scattered over a server-rank
/// worth of banks, each round drained to empty. The event wheel
/// reprices only the banks each issue dirties; the reference scan
/// re-walks the whole queue per decision. Returns `(final cycle,
/// completions)` — identical for both drivers, which is how callers
/// cross-check before trusting the timings.
pub fn hammer_burst_wheel(bursts: u64, fast: bool) -> (Cycle, usize) {
    let mut cfg = MemCtrlConfig::baseline();
    // Closed-page: every access pays a fresh ACT, so the scheduler
    // decides per-command instead of streaming row hits.
    cfg.page_policy = PagePolicy::Closed;
    let mut dram_cfg = DramConfig::test_config(1_000_000);
    dram_cfg.geometry = Geometry::server();
    dram_cfg.timing = TimingParams::ddr4_2400();
    let mut mc = MemCtrl::new(cfg, dram_cfg, 42).unwrap();
    let total_lines = mc.map().geometry().total_lines();
    let mut rng = DetRng::new(13);
    let mut id = 0u64;
    let mut completions = 0usize;
    for _ in 0..bursts {
        for i in 0..48u64 {
            // Half the burst hammers one double-sided pair; the rest
            // scatters across banks so many wheel slots hold work.
            let line = if i % 2 == 0 {
                CacheLineAddr((8 + 2 * (i % 4)) % total_lines)
            } else {
                CacheLineAddr(rng.below(total_lines))
            };
            let _ = mc.submit(MemRequest {
                id,
                line,
                kind: RequestKind::Read,
                source: RequestSource::Core(0),
                domain: DomainId(1),
                arrival: mc.now(),
            });
            id += 1;
        }
        if fast {
            mc.drain();
        } else {
            mc.drain_reference();
        }
        completions += mc.drain_completions().len();
    }
    (mc.now(), completions)
}

/// Builds the checkpoint-resume machine: epoch checkpoints on, one
/// streaming tenant that never finishes, run for `windows` refresh
/// windows plus half a window of tail. Returns the machine (holding
/// its last epoch checkpoint) and the end cycle it reached.
pub fn resume_setup(windows: u64) -> (Machine, u64) {
    let mut cfg = MachineConfig::fast(DefenseKind::None, 1_000_000);
    cfg.epoch_checkpoints = true;
    let t_refw = cfg.timing.t_refw;
    // End mid-window so the replayed tail is genuinely shorter than
    // the full timeline (a run ending exactly on a boundary would
    // leave the checkpoint at the end and nothing to replay).
    let end = windows * t_refw + t_refw / 2;
    let mut m = Machine::new(cfg).unwrap();
    let d = DomainId(1);
    let arena = m.add_tenant(d, 4).unwrap();
    m.set_workload(d, Box::new(StreamWorkload::new(arena, u64::MAX / 2, 0)))
        .unwrap();
    m.run(end);
    (m, end)
}

/// End-state digest for the resume scenario cross-checks.
pub fn resume_digest(m: &mut Machine) -> (u64, u64, u64) {
    let r = m.report();
    (r.cycles, r.dram.acts, r.mc.demand_completed())
}

/// Reproduces the end state of `resume_setup` by rewinding to the last
/// epoch checkpoint and replaying only the tail — the optimized side
/// of the `checkpoint_resume` scenario. Leaves the machine back at the
/// end state (and the checkpoint in place), so the call is repeatable.
pub fn replay_from_checkpoint(m: &mut Machine, end: u64) -> (u64, u64, u64) {
    let at = m
        .restore_last_checkpoint()
        .expect("epoch checkpoints enabled")
        .raw();
    m.run(end - at);
    resume_digest(m)
}

/// Fleet-sweep scenario: one deterministic quick-mode population of
/// `machines` heterogeneous machines driven through the fleet runner
/// with `jobs` workers. The baseline side is the serial loop
/// (`jobs = 1`), the optimized side the sharded runner; the two are
/// byte-identical by the fleet determinism contract, which callers
/// cross-check before trusting the timings. Per-machine depth stays
/// quick — the sweep scales the *population*, the axis fleet mode
/// adds.
pub fn fleet_sweep(machines: u32, jobs: usize) -> FleetReport {
    let mut cfg = FleetConfig::new(machines).jobs(jobs);
    cfg.quick = true;
    run_fleet(&cfg).expect("fleet sweep runs")
}

/// Reproduces the same end state the slow way: a fresh machine
/// re-simulating the whole timeline from cycle zero — the baseline
/// side of the `checkpoint_resume` scenario (construction excluded;
/// callers build the machine outside the timed region via
/// [`resume_setup`] semantics).
pub fn replay_from_scratch(end: u64) -> (u64, u64, u64) {
    let mut cfg = MachineConfig::fast(DefenseKind::None, 1_000_000);
    cfg.epoch_checkpoints = true;
    let mut m = Machine::new(cfg).unwrap();
    let d = DomainId(1);
    let arena = m.add_tenant(d, 4).unwrap();
    m.set_workload(d, Box::new(StreamWorkload::new(arena, u64::MAX / 2, 0)))
        .unwrap();
    m.run(end);
    resume_digest(&mut m)
}
/// per hardware mitigation the paper's Table 1 compares (plus the
/// in-DRAM TRR baseline, expressed through the device config).
pub fn t1_defense_catalog() -> Vec<(&'static str, McMitigationConfig, bool)> {
    vec![
        ("none", McMitigationConfig::None, false),
        ("trr", McMitigationConfig::None, true),
        (
            "para",
            McMitigationConfig::Para {
                prob: 0.3,
                radius: 1,
            },
            false,
        ),
        (
            "graphene",
            McMitigationConfig::Graphene {
                table_size: 4,
                threshold: 12,
                radius: 1,
            },
            false,
        ),
        (
            "blockhammer",
            McMitigationConfig::BlockHammer {
                cbf_counters: 32,
                hashes: 2,
                threshold: 12,
                delay: 60,
                epoch: 20_000,
            },
            false,
        ),
        (
            "twice_lite",
            McMitigationConfig::TwiceLite {
                table_size: 4,
                threshold: 12,
                radius: 1,
                prune_interval: 10_000,
            },
            false,
        ),
    ]
}

/// Drives one T1-style cell: a double-sided hammer interleaved with
/// scattered benign traffic and quantum polling, under the given
/// mitigation. Returns `(final cycle, completions)` — identical for
/// the fast and reference drivers, which is how the runner
/// cross-checks itself before trusting the timings.
pub fn drive_t1_cell(
    mitigation: McMitigationConfig,
    trr: bool,
    fast: bool,
    quick: bool,
) -> (Cycle, usize) {
    drive_t1_cell_shadowed(mitigation, trr, fast, quick, None)
}

/// [`drive_t1_cell`] with an optional live protocol shadow checker
/// attached to the controller — the scenario behind the
/// shadow-overhead comparison: `None` takes the one-`is_none()`-check
/// disabled path, `Some` replays every issued command through the full
/// invariant engine.
pub fn drive_t1_cell_shadowed(
    mitigation: McMitigationConfig,
    trr: bool,
    fast: bool,
    quick: bool,
    shadow: Option<ShadowChecker>,
) -> (Cycle, usize) {
    let mut cfg = MemCtrlConfig::baseline();
    cfg.mitigation = mitigation;
    cfg.page_policy = PagePolicy::Closed;
    cfg.shadow = shadow;
    // Medium geometry with DDR4 timing: enough banks that the fast
    // path's bank-level pruning has something to prune, and a
    // realistic refresh cadence so the gaps between bursts are
    // genuinely idle (tiny_test's tREFI = 100 would put a refresh in
    // every poll and mask the memoized scan entirely).
    let mut dram_cfg = DramConfig::test_config(24);
    dram_cfg.geometry = Geometry::medium();
    dram_cfg.timing = TimingParams::ddr4_2400();
    if trr {
        dram_cfg.trr = Some(TrrConfig::vendor_default());
    }
    let mut mc = MemCtrl::new(cfg, dram_cfg, 42).unwrap();
    let total_lines = mc.map().geometry().total_lines();
    let bursts = if quick { 24 } else { 96 };
    let mut rng = DetRng::new(7);
    let mut id = 0u64;
    for _ in 0..bursts {
        // A burst of demand: the double-sided hammer pair plus
        // scattered benign traffic, like a machine quantum where the
        // attacker and victims both run.
        for i in 0..16u64 {
            let line = if i % 4 == 3 {
                CacheLineAddr(rng.below(total_lines))
            } else {
                CacheLineAddr((8 + 2 * (i % 2)) % total_lines)
            };
            let kind = if i % 5 == 0 {
                RequestKind::Write
            } else {
                RequestKind::Read
            };
            let _ = mc.submit(MemRequest {
                id,
                line,
                kind,
                source: RequestSource::Core(0),
                domain: DomainId(1),
                arrival: mc.now(),
            });
            id += 1;
        }
        // Then the machine's quantum polling: fixed 200-cycle slices,
        // most of which find nothing to issue once the burst drains.
        for _ in 0..40 {
            let target = Cycle(mc.now().raw() + 200);
            if fast {
                mc.advance_to(target);
            } else {
                mc.advance_to_reference(target);
            }
        }
    }
    if fast {
        mc.drain();
    } else {
        mc.drain_reference();
    }
    (mc.now(), mc.drain_completions().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_poll_drivers_agree_on_step_count() {
        assert_eq!(idle_poll(20_000, true), idle_poll(20_000, false));
    }

    #[test]
    fn hammer_burst_flip_counts_agree() {
        assert_eq!(hammer_burst(500, false), hammer_burst(500, true));
    }

    #[test]
    fn traced_hammer_burst_flip_count_matches_untraced() {
        let tracer = Tracer::buffer();
        let traced = hammer_burst_with_tracer(500, true, Some(tracer.clone()));
        assert_eq!(traced, hammer_burst(500, true));
        // The trace saw every ACT/PRE pair plus the recorded flips.
        let records = tracer.take_records();
        assert!(records.len() as u64 >= 1000 + traced);
    }

    #[test]
    fn bypass_hammer_burst_flip_count_matches_issue_path() {
        assert_eq!(
            hammer_burst_bypassing_tracer(500, true),
            hammer_burst(500, true)
        );
    }

    #[test]
    fn shadowed_t1_cell_matches_unshadowed_and_is_clean() {
        let shadow = ShadowChecker::new();
        let shadowed = drive_t1_cell_shadowed(
            McMitigationConfig::None,
            false,
            true,
            true,
            Some(shadow.clone()),
        );
        assert_eq!(
            shadowed,
            drive_t1_cell(McMitigationConfig::None, false, true, true)
        );
        shadow.finish(shadowed.0);
        assert!(shadow.commands_checked() > 0);
        assert!(shadow.violations().is_empty(), "live stream not clean");
    }

    #[test]
    fn hammer_burst_wheel_drivers_agree() {
        assert_eq!(hammer_burst_wheel(6, true), hammer_burst_wheel(6, false));
    }

    #[test]
    fn checkpoint_resume_reproduces_end_state() {
        let (mut m, end) = resume_setup(3);
        let original = resume_digest(&mut m);
        assert_eq!(
            original,
            replay_from_scratch(end),
            "scratch replay diverged"
        );
        assert_eq!(
            original,
            replay_from_checkpoint(&mut m, end),
            "checkpoint replay diverged"
        );
        // Repeatable: the checkpoint survives the first replay.
        assert_eq!(original, replay_from_checkpoint(&mut m, end));
    }

    #[test]
    fn fleet_sweep_reports_agree_across_jobs() {
        let serial = fleet_sweep(8, 1);
        let sharded = fleet_sweep(8, 4);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&sharded).unwrap(),
            "sharded fleet diverged from the serial loop"
        );
    }

    #[test]
    fn t1_cells_drivers_agree() {
        for (name, mitigation, trr) in t1_defense_catalog() {
            let fast = drive_t1_cell(mitigation, trr, true, true);
            let reference = drive_t1_cell(mitigation, trr, false, true);
            assert_eq!(fast, reference, "cell {name} diverged");
        }
    }
}
