//! Software Rowhammer defenses (the host-OS side of the co-design).
//!
//! Each defense is a policy daemon: the machine feeds it the inputs it
//! is entitled to — precise ACT interrupts for the paper's defenses
//! (§4.2–4.3), PMU miss samples for the ANVIL baseline — and executes
//! the [`DefenseAction`]s it returns, charging their true timing cost
//! through the memory controller.
//!
//! Isolation-centric defenses have no runtime daemon: they are
//! allocator placement policies ([`crate::frame_alloc`]) plus the
//! matching mapping scheme, configured at machine build time.
//!
//! Submodules:
//!
//! - [`frequency`]: aggressor remapping and cache-line locking (§4.2);
//! - [`refresh`]: victim refresh via the refresh instruction or
//!   REF_NEIGHBORS (§4.3);
//! - [`anvil`]: the PMU-sampling baseline with the convoluted
//!   flush+load refresh path and the DMA blind spot (§1).

pub mod anvil;
pub mod frequency;
pub mod refresh;

use hammertime_cache::MissSample;
use hammertime_common::geometry::BankId;
use hammertime_common::{CacheLineAddr, Cycle, DramCoord, Result};
use hammertime_memctrl::addrmap::AddressMap;
use hammertime_memctrl::ActInterrupt;
use serde::{Deserialize, Serialize};

/// A host-OS view of the memory topology: how lines relate to rows and
/// which lines refresh which potential victims. Built from the MC's
/// known physical→DDR mapping (paper §4.1 notes this knowledge is
/// already available to software).
#[derive(Debug, Clone)]
pub struct Topology {
    map: AddressMap,
    /// The blast radius the OS assumes (its belief about the module).
    pub assumed_radius: u32,
}

impl Topology {
    /// Creates a topology view over the controller's address map.
    pub fn new(map: AddressMap, assumed_radius: u32) -> Topology {
        Topology {
            map,
            assumed_radius,
        }
    }

    /// The underlying address map.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Bank and in-bank row of a line.
    ///
    /// # Errors
    ///
    /// [`hammertime_common::Error::Translation`] for unmapped lines.
    pub fn locate(&self, line: CacheLineAddr) -> Result<(BankId, u32)> {
        let c = self.map.to_coord(line)?;
        Ok((BankId::of(&c), c.row))
    }

    /// A canonical line (column 0) within `(bank, row)`.
    ///
    /// # Errors
    ///
    /// Propagates coordinate validation failures.
    pub fn line_of_row(&self, bank: &BankId, row: u32) -> Result<CacheLineAddr> {
        self.map.to_line(&DramCoord {
            channel: bank.channel,
            rank: bank.rank,
            bank_group: bank.bank_group,
            bank: bank.bank,
            row,
            col: 0,
        })
    }

    /// Canonical lines of every row within `radius` of the row holding
    /// `line` (the potential victims of that aggressor).
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn neighbor_row_lines(
        &self,
        line: CacheLineAddr,
        radius: u32,
    ) -> Result<Vec<CacheLineAddr>> {
        let (bank, row) = self.locate(line)?;
        let rows_per_bank = self.map.geometry().rows_per_bank();
        let mut out = Vec::new();
        for d in 1..=radius {
            if let Some(r) = row.checked_sub(d) {
                out.push(self.line_of_row(&bank, r)?);
            }
            let r = row + d;
            if r < rows_per_bank {
                out.push(self.line_of_row(&bank, r)?);
            }
        }
        Ok(out)
    }
}

/// An action a software defense asks the machine to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefenseAction {
    /// Issue the refresh instruction on the row containing `line`.
    RefreshRow {
        /// Any line in the target row.
        line: CacheLineAddr,
        /// Auto-precharge after the activation.
        auto_pre: bool,
    },
    /// Issue REF_NEIGHBORS around the row containing `line`.
    RefNeighbors {
        /// Any line in the aggressor row.
        line: CacheLineAddr,
        /// Blast radius to cover.
        radius: u32,
    },
    /// Refresh via the convoluted software path: clflush then load
    /// with fences (the only mechanism available without the paper's
    /// primitive, §4.3). Unreliable when the row buffer already holds
    /// the row.
    ConvolutedRefresh {
        /// Any line in the target row.
        line: CacheLineAddr,
    },
    /// Pin `line` into the LLC so it stops generating ACTs (§4.2).
    LockLine {
        /// The hot line to pin.
        line: CacheLineAddr,
    },
    /// Release all cache locks (refresh-interval boundary).
    UnlockAll,
    /// Move the page at `frame` to a fresh frame and update the owning
    /// page table (ACT wear-leveling, §4.2).
    RemapFrame {
        /// The frame to migrate away from.
        frame: u64,
    },
}

/// The interface every software defense daemon implements.
pub trait SoftwareDefense: std::fmt::Debug {
    /// Short display name for reports.
    fn name(&self) -> &'static str;

    /// Handles a batch of precise (or legacy) ACT interrupts.
    fn on_act_interrupts(&mut self, ints: &[ActInterrupt]) -> Vec<DefenseAction> {
        let _ = ints;
        Vec::new()
    }

    /// Handles a batch of PMU miss samples.
    fn on_pmu_samples(&mut self, samples: &[MissSample]) -> Vec<DefenseAction> {
        let _ = samples;
        Vec::new()
    }

    /// Called when a refresh window rolls over: per-window state (lock
    /// budgets, counters) resets here.
    fn on_window_rollover(&mut self, now: Cycle) -> Vec<DefenseAction> {
        let _ = now;
        Vec::new()
    }

    /// Feedback: a requested [`DefenseAction::LockLine`] failed for
    /// lack of lockable ways; the defense may fall back (e.g. remap).
    fn on_lock_failed(&mut self, line: CacheLineAddr) -> Vec<DefenseAction> {
        let _ = line;
        Vec::new()
    }
}

/// The do-nothing defense (vulnerable baseline).
#[derive(Debug, Default, Clone)]
pub struct NoDefense;

impl SoftwareDefense for NoDefense {
    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::Geometry;
    use hammertime_memctrl::MappingScheme;

    fn topo() -> Topology {
        let map = AddressMap::new(MappingScheme::CacheLineInterleave, Geometry::medium()).unwrap();
        Topology::new(map, 2)
    }

    #[test]
    fn locate_and_line_of_row_round_trip() {
        let t = topo();
        let line = CacheLineAddr(1234);
        let (bank, row) = t.locate(line).unwrap();
        let canonical = t.line_of_row(&bank, row).unwrap();
        let (bank2, row2) = t.locate(canonical).unwrap();
        assert_eq!(bank, bank2);
        assert_eq!(row, row2);
    }

    #[test]
    fn neighbor_lines_map_to_neighbor_rows() {
        let t = topo();
        let line = CacheLineAddr(5000);
        let (bank, row) = t.locate(line).unwrap();
        let neighbors = t.neighbor_row_lines(line, 2).unwrap();
        assert!(!neighbors.is_empty());
        for n in neighbors {
            let (nb, nr) = t.locate(n).unwrap();
            assert_eq!(nb, bank, "victims live in the same bank");
            let d = nr.abs_diff(row);
            assert!((1..=2).contains(&d));
        }
    }

    #[test]
    fn neighbor_lines_clamp_at_bank_edges() {
        let t = topo();
        let (bank, _) = t.locate(CacheLineAddr(0)).unwrap();
        let first_row_line = t.line_of_row(&bank, 0).unwrap();
        let neighbors = t.neighbor_row_lines(first_row_line, 3).unwrap();
        for n in neighbors {
            let (_, r) = t.locate(n).unwrap();
            assert!((1..=3).contains(&r), "row 0 has only upward neighbors");
        }
    }

    #[test]
    fn no_defense_is_inert() {
        let mut d = NoDefense;
        assert_eq!(d.name(), "none");
        assert!(d.on_act_interrupts(&[]).is_empty());
        assert!(d.on_pmu_samples(&[]).is_empty());
        assert!(d.on_window_rollover(Cycle::ZERO).is_empty());
        assert!(d.on_lock_failed(CacheLineAddr(0)).is_empty());
    }
}
