//! **E1** (§3): the worsening-Rowhammer trend — flips and
//! time-to-first-flip across DRAM generations (MACs scaled 1/1000 for
//! tractable runs; ratios preserved).

use super::common::accesses;
use super::engine::{Cell, CellCtx};
use super::Experiment;
use crate::machine::MachineConfig;
use crate::scenario::CloudScenario;
use crate::taxonomy::DefenseKind;
use hammertime_dram::DisturbanceProfile;

pub struct E1;

impl Experiment for E1 {
    fn id(&self) -> &'static str {
        "E1"
    }

    fn title(&self) -> &'static str {
        "DRAM generations: same attack, worsening outcomes (MAC/1000 scale)"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "generation",
            "mac",
            "blast radius",
            "flips",
            "first flip (cycles)",
            "victim rows hit",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        let ctx = *ctx;
        let quick = ctx.quick;
        DisturbanceProfile::generations()
            .into_iter()
            .map(|(name, profile)| {
                Cell::new(name, move || {
                    let scaled = profile.scaled_down(1_000);
                    let mut cfg = MachineConfig::fast(DefenseKind::None, scaled.mac);
                    cfg.disturbance = DisturbanceProfile {
                        mac: scaled.mac.max(4),
                        flip_prob: 1.0,
                        ..scaled
                    };
                    cfg.assumed_radius = scaled.blast_radius;
                    cfg.faults = ctx.faults;
                    let mut s = CloudScenario::build_sized(cfg, 4)?;
                    s.arm_double_sided(accesses(quick))?;
                    s.run_windows(if quick { 40 } else { 150 });
                    let mut first = None;
                    let flips = s.machine.drain_annotated_flips();
                    let mut victims = std::collections::HashSet::new();
                    for f in &flips {
                        first = Some(first.map_or(f.time.raw(), |t: u64| t.min(f.time.raw())));
                        victims.insert((f.flat_bank, f.victim_row));
                    }
                    Ok(vec![vec![
                        name.to_string(),
                        scaled.mac.max(4).to_string(),
                        scaled.blast_radius.to_string(),
                        flips.len().to_string(),
                        first.map(|f| f.to_string()).unwrap_or_else(|| "-".into()),
                        victims.len().to_string(),
                    ]])
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::run_checked;

    #[test]
    fn e1_trend_worsens() {
        let t = run_checked("E1", true);
        let flips: Vec<u64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // Even the DDR3-era module flips (the original Rowhammer
        // finding), but successive generations flip far more, faster.
        assert!(flips[0] > 0, "DDR3 flips too (Kim et al. '14): {flips:?}");
        assert!(
            flips.windows(2).all(|w| w[1] >= w[0]),
            "flips must be monotone non-decreasing across generations: {flips:?}"
        );
        assert!(
            *flips.last().unwrap() > flips[0] * 10,
            "future node must flip >10x more than DDR3: {flips:?}"
        );
        let first_flip: Vec<u64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(
            first_flip.first() > first_flip.last(),
            "time-to-first-flip must shrink: {first_flip:?}"
        );
    }
}
