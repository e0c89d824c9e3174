//! **E10** (ablation; paper §1 cites ECC-aware attacks): SEC-DED ECC
//! masks isolated flips but multi-bit words survive as detectable-but-
//! uncorrectable errors once the hammer runs long enough.

use super::common::{accesses, FAST_MAC};
use super::engine::{Cell, CellCtx};
use super::Experiment;
use crate::machine::MachineConfig;
use crate::scenario::CloudScenario;
use crate::taxonomy::DefenseKind;
use hammertime_dram::module::EccMode;

pub struct E10;

impl Experiment for E10 {
    fn id(&self) -> &'static str {
        "E10"
    }

    fn title(&self) -> &'static str {
        "ECC ablation: identical raw damage, different software visibility"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "ecc",
            "attack accesses",
            "raw flips",
            "damaged victim lines",
            "visible corrupted lines",
        ]
    }

    fn cells(&self, ctx: &CellCtx) -> Vec<Cell> {
        let ctx = *ctx;
        let quick = ctx.quick;
        // Short: just past the MAC — isolated flips, the correctable
        // regime. Long: sustained hammer — multi-bit words accumulate.
        let short = FAST_MAC * 2;
        let long = accesses(quick) * 2;
        let mut cells = Vec::new();
        for ecc in [EccMode::None, EccMode::SecDed] {
            for n in [short, long] {
                cells.push(Cell::new(format!("{ecc:?} n={n}"), move || {
                    let mut cfg = MachineConfig::fast(DefenseKind::None, FAST_MAC);
                    cfg.ecc = ecc;
                    cfg.faults = ctx.faults;
                    let mut s = CloudScenario::build_sized(cfg, 4)?;
                    s.arm_double_sided(n)?;
                    s.run_windows(if quick { 60 } else { 200 });
                    let victim = s.victim;
                    let (_, corrected, uncorrectable) = s.machine.scan_domain_ecc(victim);
                    let damaged = corrected + uncorrectable;
                    let visible = match ecc {
                        EccMode::None => damaged,
                        EccMode::SecDed => uncorrectable,
                    };
                    let r = s.report();
                    Ok(vec![vec![
                        format!("{ecc:?}"),
                        n.to_string(),
                        r.flips_total.to_string(),
                        damaged.to_string(),
                        visible.to_string(),
                    ]])
                }));
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::run_checked;

    #[test]
    fn e10_ecc_masks_isolated_flips_only() {
        let t = run_checked("E10", true);
        let get = |row: usize, col: &str| -> u64 {
            let ci = t.columns.iter().position(|c| c == col).unwrap();
            t.rows[row][ci].parse().unwrap()
        };
        // Rows: [None/short, None/long, SecDed/short, SecDed/long].
        // Raw damage identical between modes at equal attack length.
        assert_eq!(get(0, "raw flips"), get(2, "raw flips"));
        assert_eq!(get(1, "raw flips"), get(3, "raw flips"));
        // Without ECC everything is visible.
        assert_eq!(
            get(0, "visible corrupted lines"),
            get(0, "damaged victim lines")
        );
        // SEC-DED hides the short attack entirely...
        assert!(get(2, "damaged victim lines") > 0);
        assert_eq!(get(2, "visible corrupted lines"), 0);
        // ...but the sustained attack overwhelms it.
        assert!(get(3, "visible corrupted lines") > 0);
    }
}
