//! **E6** (§3): scalability — hardware tracker SRAM vs MAC, against
//! the flat footprint of the software primitives. Area is computed
//! for a server-scale system (32 banks x 64 K rows); entries scale as
//! the number of rows that can reach the threshold within a refresh
//! window.

use super::engine::{Cell, CellCtx};
use super::Experiment;
use hammertime_memctrl::mitigation::McMitigationConfig;

pub struct E6;

impl Experiment for E6 {
    fn id(&self) -> &'static str {
        "E6"
    }

    fn title(&self) -> &'static str {
        "Hardware tracker SRAM (bits) vs MAC; software cost stays flat"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "mac",
            "graphene bits",
            "blockhammer bits",
            "twice bits",
            "per-row oracle bits",
            "sw defense bits",
        ]
    }

    // Pure arithmetic — no machine, so faults cannot apply.
    fn cells(&self, _ctx: &CellCtx) -> Vec<Cell> {
        let banks: u64 = 32;
        let rows_per_bank: u32 = 65_536;
        [139_000u64, 50_000, 16_000, 10_000, 4_800, 1_000]
            .into_iter()
            .map(|mac| {
                Cell::new(format!("mac={mac}"), move || {
                    // DDR4-2400 hammer budget per window.
                    let budget = hammertime_dram::TimingParams::ddr4_2400().max_acts_per_window();
                    // A tracker must hold every row that could reach
                    // mac/2 within one window: budget / (mac/2)
                    // entries (Graphene's bound).
                    let entries = ((budget * 2) / mac).max(1) as usize;
                    let graphene = McMitigationConfig::Graphene {
                        table_size: entries,
                        threshold: mac / 2,
                        radius: 2,
                    }
                    .sram_bits(banks, rows_per_bank);
                    // BlockHammer sizes its CBF so false-positive
                    // throttling stays low: counters scale with the
                    // same bound (x8 headroom).
                    let blockhammer = McMitigationConfig::BlockHammer {
                        cbf_counters: entries * 8,
                        hashes: 3,
                        threshold: mac / 2,
                        delay: 1_000,
                        epoch: 1,
                    }
                    .sram_bits(banks, rows_per_bank);
                    let twice = McMitigationConfig::TwiceLite {
                        table_size: entries,
                        threshold: mac / 2,
                        radius: 2,
                        prune_interval: 1,
                    }
                    .sram_bits(banks, rows_per_bank);
                    let oracle = McMitigationConfig::Oracle {
                        fraction: 0.7,
                        mac,
                        radius: 2,
                    }
                    .sram_bits(banks, rows_per_bank);
                    Ok(vec![vec![
                        mac.to_string(),
                        graphene.to_string(),
                        blockhammer.to_string(),
                        twice.to_string(),
                        oracle.to_string(),
                        // The software defenses need only the ACT
                        // counter block: one counter + one address
                        // register per channel.
                        (2u64 * (64 + 64)).to_string(),
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
    fn e6_sram_grows_as_mac_shrinks() {
        let t = run_checked("E6", false);
        let col = |row: usize, name: &str| -> u64 {
            let ci = t.columns.iter().position(|c| c == name).unwrap();
            t.rows[row][ci].parse().unwrap()
        };
        for name in ["graphene bits", "blockhammer bits", "twice bits"] {
            for w in 0..t.rows.len() - 1 {
                assert!(
                    col(w + 1, name) >= col(w, name),
                    "{name} must not shrink as MAC drops"
                );
            }
            assert!(
                col(t.rows.len() - 1, name) > col(0, name) * 10,
                "{name} must grow by >10x across the sweep"
            );
        }
        // Software cost is constant.
        let sw0 = col(0, "sw defense bits");
        let swn = col(t.rows.len() - 1, "sw defense bits");
        assert_eq!(sw0, swn);
    }
}
