//! Differential tests: the fast-path scheduler must be observationally
//! identical to the reference linear scan.
//!
//! `MemCtrl::step` prices every bank with queued work against one
//! timing snapshot, walking only the requests that can still win;
//! `MemCtrl::step_reference` keeps the original O(queue ×
//! device-probe) loop. These tests drive both through identical
//! request scripts and demand byte-for-byte agreement on every
//! externally observable artifact: the completion sequence, the flip
//! log (which pins down RNG draw order), controller and device stats
//! (including `sched_steps`, so the drivers take the *same number* of
//! scheduling decisions), and the final clock.

use hammertime_common::{CacheLineAddr, Cycle, DomainId, Geometry, RequestSource};
use hammertime_dram::disturb::FlipEvent;
use hammertime_dram::{DramConfig, DramStats, TrrConfig};
use hammertime_memctrl::request::{Completion, MemRequest, RequestKind};
use hammertime_memctrl::{McMitigationConfig, McStats, MemCtrl, MemCtrlConfig, PagePolicy};
use proptest::prelude::*;

/// One scripted interaction with the controller: submit something,
/// then (maybe) advance time. Derived deterministically from the
/// proptest-generated `(sel, line, gap)` tuples so the fast and
/// reference runs replay the exact same script.
type Op = (u8, u64, u64);

/// Everything a caller can observe about a finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    now: Cycle,
    completions: Vec<Completion>,
    flips: Vec<FlipEvent>,
    stats: McStats,
    dram_stats: DramStats,
}

fn run_script(mut mc: MemCtrl, ops: &[Op], fast: bool) -> Observed {
    let total_lines = mc.map().geometry().total_lines();
    for (i, &(sel, line, gap)) in ops.iter().enumerate() {
        // Concentrate half the traffic on a handful of lines so row
        // conflicts, hammering, and mitigations actually trigger.
        let space = if sel % 2 == 0 {
            total_lines.min(64)
        } else {
            total_lines
        };
        let line = CacheLineAddr(line % space);
        let id = i as u64;
        let arrival = mc.now();
        let kind = match sel % 10 {
            0..=4 => Some(RequestKind::Read),
            5..=7 => Some(RequestKind::Write),
            _ => None,
        };
        let result = match kind {
            Some(kind) => mc.submit(MemRequest {
                id,
                line,
                kind,
                source: RequestSource::Core(0),
                domain: DomainId(1),
                arrival,
            }),
            None if sel % 10 == 8 => mc.refresh_row(id, line, sel % 3 == 0),
            None => mc.ref_neighbors(id, line, 1 + u32::from(sel) % 2),
        };
        // Rejections (queue exhaustion etc.) are part of the observable
        // behavior too: both runs hit the same ones, so just drop them.
        drop(result);
        match sel % 3 {
            0 => {
                let target = Cycle(mc.now().raw() + gap);
                if fast {
                    mc.advance_to(target);
                } else {
                    mc.advance_to_reference(target);
                }
            }
            1 => {
                if fast {
                    mc.run_while_busy(Cycle(mc.now().raw() + gap));
                } else {
                    mc.run_while_busy_reference(Cycle(mc.now().raw() + gap));
                }
            }
            _ => {} // back-to-back submit: deeper queues for the scan
        }
    }
    finish(mc, fast)
}

/// Drains what is left and collects the observation.
fn finish(mut mc: MemCtrl, fast: bool) -> Observed {
    if fast {
        mc.drain();
    } else {
        mc.drain_reference();
    }
    Observed {
        now: mc.now(),
        completions: mc.drain_completions(),
        flips: mc.drain_flips(),
        stats: mc.stats(),
        dram_stats: mc.dram_stats(),
    }
}

fn arb_mitigation() -> impl Strategy<Value = McMitigationConfig> {
    prop_oneof![
        Just(McMitigationConfig::None),
        (0.05f64..0.9, 1u32..3)
            .prop_map(|(prob, radius)| McMitigationConfig::Para { prob, radius }),
        (1usize..6, 2u64..24, 1u32..3).prop_map(|(table_size, threshold, radius)| {
            McMitigationConfig::Graphene {
                table_size,
                threshold,
                radius,
            }
        }),
        // delay deliberately starts at 0: the zero-delay clamp must
        // behave identically (and terminate) in both schedulers.
        (4usize..32, 1u32..3, 2u64..24, 0u64..150, 5_000u64..50_000).prop_map(
            |(cbf_counters, hashes, threshold, delay, epoch)| McMitigationConfig::BlockHammer {
                cbf_counters,
                hashes,
                threshold,
                delay,
                epoch,
            },
        ),
        (1usize..6, 2u64..24, 1u32..3, 2_000u64..20_000).prop_map(
            |(table_size, threshold, radius, prune_interval)| McMitigationConfig::TwiceLite {
                table_size,
                threshold,
                radius,
                prune_interval,
            },
        ),
    ]
}

/// `Geometry::small_test()` (one channel, one rank, two banks) or, with
/// `multi_rank`, two channels of two ranks of 2×2 banks each, so that
/// rank-scope refresh and tRRD/tFAW windows run beside per-channel
/// command and data buses.
fn geometry(multi_rank: bool) -> Geometry {
    let small = Geometry::small_test();
    if multi_rank {
        Geometry {
            channels: 2,
            ranks: 2,
            bank_groups: 2,
            banks_per_group: 2,
            ..small
        }
    } else {
        small
    }
}

fn make_pair(
    geometry: Geometry,
    mitigation: McMitigationConfig,
    page_policy: PagePolicy,
    refresh_enabled: bool,
    trr: bool,
    mac: u64,
    seed: u64,
) -> Option<(MemCtrl, MemCtrl)> {
    let mut cfg = MemCtrlConfig::baseline();
    cfg.mitigation = mitigation;
    cfg.page_policy = page_policy;
    cfg.refresh_enabled = refresh_enabled;
    let mut dram_cfg = DramConfig::test_config(mac);
    dram_cfg.geometry = geometry;
    if trr {
        dram_cfg.trr = Some(TrrConfig::vendor_default());
    }
    let a = MemCtrl::new(cfg.clone(), dram_cfg.clone(), seed).ok()?;
    let b = MemCtrl::new(cfg, dram_cfg, seed).ok()?;
    Some((a, b))
}

proptest! {
    /// Arbitrary request scripts over arbitrary controller
    /// configurations observe identical behavior under the fast and
    /// reference schedulers.
    #[test]
    fn fast_scheduler_matches_reference(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u64..500), 1..48),
        mitigation in arb_mitigation(),
        closed_page in any::<bool>(),
        refresh_enabled in any::<bool>(),
        trr in any::<bool>(),
        mac in prop_oneof![Just(24u64), Just(1_000_000u64)],
        multi_rank in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = if closed_page { PagePolicy::Closed } else { PagePolicy::Open };
        let Some((fast, reference)) = make_pair(
            geometry(multi_rank),
            mitigation,
            policy,
            refresh_enabled,
            trr,
            mac,
            seed,
        ) else {
            return Ok(());
        };
        let got = run_script(fast, &ops, true);
        let want = run_script(reference, &ops, false);
        prop_assert_eq!(got, want);
    }
}

/// One burst of a deep-queue script: `(sel, line)` requests submitted
/// back to back, mostly on the script's hot lines; a scattered tail of
/// the same shape over all lines; an arrival lead for every third
/// request (0 for none); and the horizon of the `run_while_busy` that
/// follows.
type Burst = (Vec<(u8, u64)>, Vec<(u8, u64)>, u64, u64);

/// Replays `bursts` against `mc`. `hot` lists `(column, row)` pairs
/// that pick the hot lines: a few columns of the first banks over a
/// few rows, so a bank holds row hits, row conflicts and (under the
/// mitigations) throttled rows at once.
fn run_bursts(mut mc: MemCtrl, hot: &[(u64, u64)], bursts: &[Burst], fast: bool) -> Observed {
    let g = *mc.map().geometry();
    let total_lines = g.total_lines();
    let stripe = total_lines / u64::from(g.rows_per_bank());
    let hot: Vec<u64> = hot.iter().map(|&(col, row)| col + row * stripe).collect();
    let mut id = 0;
    for (ops, tail, lead, horizon) in bursts {
        let hot_ops = ops
            .iter()
            .map(|&(sel, v)| (sel, hot[v as usize % hot.len()]));
        let tail_ops = tail.iter().map(|&(sel, v)| (sel, v % total_lines));
        for (i, (sel, line)) in hot_ops.chain(tail_ops).enumerate() {
            let line = CacheLineAddr(line);
            let arrival = if *lead > 0 && i % 3 == 2 {
                Cycle(mc.now().raw() + lead)
            } else {
                mc.now()
            };
            let demand = |kind| MemRequest {
                id,
                line,
                kind,
                source: RequestSource::Core(0),
                domain: DomainId(1),
                arrival,
            };
            let result = match sel % 16 {
                0..=8 => mc.submit(demand(RequestKind::Read)),
                9..=13 => mc.submit(demand(RequestKind::Write)),
                14 => mc.refresh_row(id, line, sel & 16 == 0),
                _ => mc.ref_neighbors(id, line, 1 + u32::from(sel >> 5) % 2),
            };
            drop(result);
            id += 1;
        }
        let target = Cycle(mc.now().raw() + horizon);
        if fast {
            mc.run_while_busy(target);
        } else {
            mc.run_while_busy_reference(target);
        }
    }
    finish(mc, fast)
}

proptest! {
    /// Deep bank queues with future arrivals: the per-bank index stops
    /// pricing a command class once its oldest candidates are
    /// decided, and that early stop must never skip the winner. Bursts
    /// of up to 127 back-to-back requests on a few hot rows (plus a
    /// scattered tail) stack hundreds deep when the horizon is short;
    /// reads, writes, refresh instructions and REF_NEIGHBORS share
    /// each bank, and every third request of some bursts arrives in
    /// the future.
    #[test]
    fn deep_queues_match_reference(
        hot in prop::collection::vec((0u64..4, 0u64..3), 1..6),
        bursts in prop::collection::vec(
            (
                prop::collection::vec((any::<u8>(), any::<u64>()), 32..128),
                prop::collection::vec((any::<u8>(), any::<u64>()), 0..16),
                prop_oneof![Just(0u64), 1u64..300],
                0u64..3_000,
            ),
            1..4,
        ),
        mitigation in arb_mitigation(),
        closed_page in any::<bool>(),
        refresh_enabled in any::<bool>(),
        mac in prop_oneof![Just(24u64), Just(1_000_000u64)],
        multi_rank in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = if closed_page { PagePolicy::Closed } else { PagePolicy::Open };
        let Some((fast, reference)) = make_pair(
            geometry(multi_rank),
            mitigation,
            policy,
            refresh_enabled,
            false,
            mac,
            seed,
        ) else {
            return Ok(());
        };
        let got = run_bursts(fast, &hot, &bursts, true);
        let want = run_bursts(reference, &hot, &bursts, false);
        prop_assert_eq!(got, want);
    }
}

/// Builds one instrumented controller for the observability combo
/// sweep: `faults` arms an aggressive fault plan on both the device
/// and controller sides, and `traced` attaches a buffering tracer to
/// both.
fn observed_mc(
    faults: bool,
    traced: bool,
    seed: u64,
) -> (MemCtrl, Option<hammertime_telemetry::Tracer>) {
    let mut cfg = MemCtrlConfig::baseline();
    cfg.page_policy = PagePolicy::Closed;
    let mut dram_cfg = DramConfig::test_config(24);
    if faults {
        let plan = hammertime_common::FaultPlan {
            seed: seed ^ 0x5EED,
            dropped_ref: 0.2,
            ghost_ref: 0.1,
            trr_miss: 0.3,
            dropped_interrupt: 0.2,
            delayed_interrupt: 0.2,
            stuck_act_count: 0.1,
            refresh_nack: 0.3,
            remap_corrupt: 0.1,
            disturb_saturation: 40,
            ..hammertime_common::FaultPlan::default()
        };
        cfg.faults = Some(plan);
        dram_cfg.faults = Some(plan);
    }
    let tracer = traced.then(hammertime_telemetry::Tracer::buffer);
    if let Some(t) = &tracer {
        cfg.tracer = Some(t.clone());
        dram_cfg.tracer = Some(t.clone());
    }
    let mc = MemCtrl::new(cfg, dram_cfg, seed).unwrap();
    (mc, tracer)
}

proptest! {
    /// The fast scheduler must stay byte-identical to the reference
    /// scan under every observability combination: fault injection
    /// (which adds RNG draws on the scheduling path) and event tracing
    /// (which records the full command stream), in all four on/off
    /// combos. Completions, flips, stats and the recorded trace must
    /// agree.
    #[test]
    fn fast_scheduler_matches_reference_under_observability_combos(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u64..500), 1..40),
        faults in any::<bool>(),
        traced in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (fast_mc, fast_tracer) = observed_mc(faults, traced, seed);
        let (ref_mc, ref_tracer) = observed_mc(faults, traced, seed);
        let got = run_script(fast_mc, &ops, true);
        let want = run_script(ref_mc, &ops, false);
        prop_assert_eq!(got, want);
        if let (Some(a), Some(b)) = (&fast_tracer, &ref_tracer) {
            prop_assert_eq!(
                a.take_records(),
                b.take_records(),
                "stats agree but the command streams diverge"
            );
        }
    }
}

/// A sustained double-sided hammer past the MAC: the flip log (row,
/// cycle, and RNG-chosen bit positions) must be identical, proving the
/// fast path preserves the exact RNG draw order.
#[test]
fn hammer_flips_match_reference() {
    let script: Vec<Op> = (0..400)
        .map(|i| ((i % 2) as u8 * 5, (i % 2) as u64 * 8, 40))
        .collect();
    let (fast, reference) = make_pair(
        Geometry::small_test(),
        McMitigationConfig::None,
        PagePolicy::Closed,
        true,
        false,
        30,
        7,
    )
    .unwrap();
    let got = run_script(fast, &script, true);
    let want = run_script(reference, &script, false);
    assert!(
        !want.flips.is_empty(),
        "hammer script must actually flip bits"
    );
    assert_eq!(got, want);
}

/// Rank-level constraints under saturation: a closed-page ACT storm
/// scattered over a server-geometry rank (16 banks) with compressed
/// timing floods the tRRD/tFAW window while REF falls due every
/// `t_refi = 100` cycles. The fast and reference schedulers must agree
/// not just on the observable summary but on the *entire command
/// stream, cycle by cycle* — and that stream must satisfy the
/// independently implemented protocol-invariant catalog (bank FSM,
/// tRRD/tFAW, bus occupancy, refresh deadlines, conservation).
#[test]
fn act_storm_under_faw_and_refresh_pressure_matches_reference_and_lints_clean() {
    use hammertime_telemetry::Tracer;

    fn storm_mc(tracer: &Tracer) -> MemCtrl {
        let mut cfg = MemCtrlConfig::baseline();
        // Closed-page: every access pays a fresh ACT, maximizing the
        // ACT rate the rank rules have to ration.
        cfg.page_policy = PagePolicy::Closed;
        let mut dram_cfg = DramConfig::test_config(1_000_000);
        dram_cfg.geometry = hammertime_common::Geometry::server();
        dram_cfg.timing = hammertime_dram::TimingParams::tiny_test();
        dram_cfg.tracer = Some(tracer.clone());
        MemCtrl::new(cfg, dram_cfg, 11).unwrap()
    }

    // Phase 1 — saturation: back-to-back submits (gap 0 → deep queues
    // → the scheduler always has a legal ACT waiting). Demand ACTs
    // outprioritize REF the whole way (REF needs all banks settled),
    // so this phase genuinely postpones refresh; keep it shorter than
    // the 9×tREFI starvation limit. Phase 2 — calm: sparse submits
    // with long advances so the postponed REFs catch back up.
    let mut script: Vec<Op> = (0..440).map(|i| ((i % 2) as u8, i * 37, 0)).collect();
    script.extend((0..24).map(|i| (0u8, i, 300u64)));

    let fast_tracer = Tracer::buffer();
    let reference_tracer = Tracer::buffer();
    let got = run_script(storm_mc(&fast_tracer), &script, true);
    let want = run_script(storm_mc(&reference_tracer), &script, false);
    assert_eq!(got, want);

    let fast_records = fast_tracer.take_records();
    let reference_records = reference_tracer.take_records();
    assert_eq!(
        fast_records, reference_records,
        "schedulers agree on stats but diverge in the command stream"
    );

    // The storm must actually exercise the rank rules: plenty of ACTs
    // and real refresh pressure.
    assert!(got.dram_stats.acts >= 440, "acts: {}", got.dram_stats.acts);
    assert!(got.dram_stats.refs > 0, "storm saw no refresh pressure");

    let report = hammertime_check::lint_records(&fast_records);
    assert!(
        report.is_clean(),
        "scheduler violated protocol invariants:\n{}",
        report.to_jsonl()
    );
    assert!(report.commands > 0 && report.devices == 1);
}

/// An idle advance must cost O(refresh slots) scheduling steps, not
/// O(cycles): each query finds the next refresh slot and the clock
/// jumps straight to it.
#[test]
fn idle_advance_steps_are_bounded() {
    let mut mc = MemCtrl::new(
        MemCtrlConfig::baseline(),
        DramConfig::test_config(1_000_000),
        3,
    )
    .unwrap();
    mc.advance_to(Cycle(1_000_000));
    let s = mc.stats();
    assert!(s.refs_issued > 0, "refresh scheduler must have run");
    assert!(
        s.sched_steps <= s.refs_issued + 2,
        "idle advance took {} steps for {} REFs: the scheduler is re-probing \
         instead of jumping between refresh slots",
        s.sched_steps,
        s.refs_issued,
    );
}

/// With refresh disabled there is nothing to schedule at all: one probe
/// settles a million idle cycles.
#[test]
fn idle_advance_without_refresh_is_one_step() {
    let mut cfg = MemCtrlConfig::baseline();
    cfg.refresh_enabled = false;
    let mut mc = MemCtrl::new(cfg, DramConfig::test_config(1_000_000), 3).unwrap();
    mc.advance_to(Cycle(1_000_000));
    assert_eq!(mc.now(), Cycle(1_000_000));
    assert_eq!(mc.stats().sched_steps, 1);
}

/// Regression: a BlockHammer `delay: 0` blacklisting used to re-elect
/// the same ACT at the same cycle forever, hanging `advance_to`. The
/// throttle now clamps to at least one cycle, so the drain terminates
/// (a clamped ACT creeps forward until the filter epoch resets — keep
/// the epoch short or this test measures that creep, not termination).
#[test]
fn zero_delay_throttle_terminates() {
    let mut cfg = MemCtrlConfig::baseline();
    cfg.page_policy = PagePolicy::Closed;
    cfg.mitigation = McMitigationConfig::BlockHammer {
        cbf_counters: 16,
        hashes: 2,
        threshold: 3,
        delay: 0,
        epoch: 2_000,
    };
    let mut mc = MemCtrl::new(cfg, DramConfig::test_config(1_000_000), 3).unwrap();
    for i in 0..64 {
        mc.submit(MemRequest {
            id: i,
            line: CacheLineAddr(0),
            kind: RequestKind::Read,
            source: RequestSource::Core(0),
            domain: DomainId(1),
            arrival: mc.now(),
        })
        .unwrap();
    }
    mc.drain();
    assert_eq!(mc.drain_completions().len(), 64);
    assert!(mc.stats().throttle_events > 0, "throttle must have fired");
}
