//! **E4** (§4.2): frequency-centric defenses — remapping and line
//! locking under a straight hammer, and counter-pacing evasion vs the
//! randomized-reset countermeasure.

use super::common::{accesses, RunSpec, Scenario, FAST_MAC};
use super::engine::{Cell, CellCtx, CellRows};
use super::Experiment;
use crate::machine::MachineConfig;
use crate::metrics::SimReport;
use crate::scenario::CloudScenario;
use crate::taxonomy::DefenseKind;

pub struct E4;

impl Experiment for E4 {
    fn id(&self) -> &'static str {
        "E4"
    }

    fn title(&self) -> &'static str {
        "Frequency-centric defenses and counter evasion"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scenario",
            "xdom flips",
            "remaps/refreshes",
            "locks",
            "interrupts",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        let ctx = *ctx;
        let quick = ctx.quick;
        let n = accesses(quick);
        let mut cells = Vec::new();
        // Straight hammers vs both defenses.
        for defense in [DefenseKind::AggressorRemap, DefenseKind::LineLocking] {
            cells.push(Cell::runs(
                format!("{} vs double-sided", defense.name()),
                vec![RunSpec::fast(defense, Scenario::DoubleSided, &ctx)],
                straight_row,
            ));
        }
        // Evasion: paced attack against deterministic vs randomized
        // resets. The defense is victim-refresh (its maintenance ACTs
        // don't feed the counters, so the attacker's phase tracking
        // stays intact — the cleanest demonstration of the evasion).
        for (label, randomize) in [
            ("paced vs fixed reset", false),
            ("paced vs randomized reset", true),
        ] {
            cells.push(Cell::new(label, move || {
                use hammertime_workloads::HammerPattern;
                let mut cfg = MachineConfig::fast(DefenseKind::VictimRefreshInstr, FAST_MAC);
                cfg.randomize_counter_resets = randomize;
                cfg.faults = ctx.faults;
                let threshold = cfg.disturbance.mac / 8; // matches machine auto-threshold
                let mut s = CloudScenario::build_sized(cfg, 4)?;
                // Extra attacker pages so a decoy row exists far from
                // the aggressors in the same bank.
                s.machine.add_tenant(s.attacker, 8)?;
                let (above, below, _) = s.find_double_sided();
                // The attacker knows the threshold and inserts a decoy
                // access right where the counter overflows, so the
                // reported address is the decoy, not the aggressors.
                // The decoy must live in the same bank as the
                // aggressors (so it row-conflicts and its access
                // really is an ACT) but outside their neighborhood.
                let decoy = {
                    let rows = s.machine.rows_of_domain(s.attacker);
                    let (bank_a, row_a) = s
                        .machine
                        .translate(s.attacker, above)
                        .and_then(|p| s.machine.mc().locate(p))
                        .expect("aggressor locates");
                    rows.iter()
                        .find(|(b, r, _)| *b == bank_a && r.abs_diff(row_a) > 4)
                        .map(|(_, _, l)| l[0])
                        .expect("attacker owns a far row in the bank")
                };
                // Period must equal the counter threshold so the decoy
                // access is always the one that overflows the
                // (predictable) counter.
                let pattern = HammerPattern::double_sided(above, below, n)
                    .paced(threshold.saturating_sub(1).max(1), decoy);
                s.machine.set_workload(s.attacker, Box::new(pattern))?;
                s.run_windows(if quick { 40 } else { 150 });
                let r = s.report();
                Ok(vec![vec![
                    label.to_string(),
                    r.cross_flips_against(2).to_string(),
                    r.overhead.refresh_ops.to_string(),
                    r.overhead.lines_locked.to_string(),
                    r.overhead.interrupts.to_string(),
                ]])
            }));
        }
        cells
    }
}

fn straight_row(specs: &[RunSpec], r: &[&SimReport]) -> CellRows {
    let r = r[0];
    vec![vec![
        format!("{} vs double-sided", specs[0].defense.name()),
        r.cross_flips_against(2).to_string(),
        r.overhead.pages_remapped.to_string(),
        r.overhead.lines_locked.to_string(),
        r.overhead.interrupts.to_string(),
    ]]
}
