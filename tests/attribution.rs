//! Per-tenant trigger-attribution regressions.
//!
//! The controller charges every mitigation trigger (TRR sample,
//! throttle delay, neighbor refresh, forced REF, ACT interrupt) to
//! the tenant that earned it. These tests pin the two ways that
//! accounting can go wrong for a *bystander*: a degraded counter
//! (stuck ACT-count window under the canonical chaos plan) must not
//! blame whoever happens to share the counter, and the BreakHammer
//! quota throttle must slow the suspect without taxing co-tenants.

use hammertime::machine::MachineConfig;
use hammertime::scenario::{BenignKind, CloudScenario};
use hammertime::taxonomy::DefenseKind;
use hammertime_common::FaultPlan;
use proptest::prelude::*;

const MAC: u64 = 24;

fn breakhammer() -> DefenseKind {
    DefenseKind::BreakHammer { score_threshold: 4 }
}

fn chaos_plan() -> FaultPlan {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/chaos-plan.json"
    ))
    .expect("chaos fixture is readable");
    serde_json::from_str(&json).expect("chaos fixture parses")
}

/// Under the canonical 0xF3F3 chaos plan, `StuckActCountWindow`
/// faults freeze ACT-count windows mid-flight; when a stuck window
/// finally overflows, its per-domain composition is garbage. The
/// counter block therefore swallows such windows instead of
/// attributing them. The regression this pins: an innocent streaming
/// tenant whose own activation rate stays below the MAC must end the
/// run with zero interrupt charges and zero throttle charges, while
/// the hammering tenant is still caught.
#[test]
fn stuck_act_windows_do_not_inflate_innocent_tenants() {
    let mut cfg = MachineConfig::fast(breakhammer(), MAC);
    cfg.faults = Some(chaos_plan());
    let mut s = CloudScenario::build(cfg).unwrap();
    // Wide arena, few sweeps: the bystander's per-row ACT count stays
    // well under the MAC, so any interrupt charged to it is spurious.
    let innocent = s.add_benign(BenignKind::Stream, 8, 2_000).unwrap();
    s.arm_double_sided(3_000).unwrap();
    s.run_windows(40);

    let report = s.report();
    let mc = s.machine.mc();
    assert!(
        mc.fault_injections() > 0,
        "the chaos plan must actually inject faults"
    );

    let hot = mc.trigger_counts(s.attacker);
    let cold = mc.trigger_counts(innocent);
    assert!(
        hot.act_interrupts > 0,
        "the hammer must still overflow counters under chaos: {hot:?}"
    );
    assert_eq!(
        cold.act_interrupts, 0,
        "innocent tenant charged for a shared/stuck counter: {cold:?}"
    );
    assert_eq!(
        cold.throttle_delays, 0,
        "innocent tenant was quota-throttled: {cold:?}"
    );
    assert!(
        mc.mitigation().suspect_score(innocent) < mc.mitigation().suspect_score(s.attacker),
        "suspicion must concentrate on the hammer"
    );
    // The report mirrors the ledger for every charged tenant.
    assert_eq!(
        report.triggers_by_tenant.get(&s.attacker.0),
        Some(&hot),
        "report must carry the attacker's ledger entry"
    );
}

proptest! {
    /// BreakHammer differential, throttle-on vs throttle-off: the
    /// hammering tenant's completed-request count measurably drops,
    /// while the co-tenant victim completes no fewer of its own reads
    /// and suffers no more cross-domain flips. Throttling punishes
    /// the suspect, not the neighbourhood.
    #[test]
    fn throttle_differential_hits_only_the_suspect(seed in 0u64..1024) {
        let run = |defense: DefenseKind| {
            let mut cfg = MachineConfig::fast(defense, MAC);
            cfg.seed = 0x7417 ^ seed;
            let mut s = CloudScenario::build(cfg).unwrap();
            s.arm_double_sided(5_000).unwrap();
            s.victim_reads(400).unwrap();
            s.run_windows(12);
            s.report()
        };
        let off = run(DefenseKind::None);
        let on = run(breakhammer());
        let ops = |r: &hammertime::metrics::SimReport, d: u32| {
            r.ops_by_tenant.get(&d).copied().unwrap_or(0)
        };

        prop_assert!(
            on.overhead.quota_throttles > 0,
            "the hammer must trip the quota (seed {seed})"
        );
        prop_assert!(
            ops(&on, 1) < ops(&off, 1),
            "throttle must slow the hammer: {} !< {} (seed {seed})",
            ops(&on, 1), ops(&off, 1)
        );
        prop_assert!(
            ops(&on, 2) >= ops(&off, 2),
            "victim service must not degrade: {} < {} (seed {seed})",
            ops(&on, 2), ops(&off, 2)
        );
        prop_assert!(
            on.cross_flips_against(2) <= off.cross_flips_against(2),
            "victim flip exposure must not grow (seed {seed})"
        );
    }
}
