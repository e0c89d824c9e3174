//! Frequency-centric software defenses (paper §4.2).
//!
//! Both daemons consume the paper's *precise* ACT interrupts — the
//! reported cache-line address is what makes any of this possible.
//! Handed a legacy (address-free) interrupt they can do nothing,
//! which experiment E4 demonstrates.
//!
//! - [`AggressorRemap`]: ACT wear-leveling. The page containing a hot
//!   line is migrated to a fresh frame, severing the attacker's
//!   carefully-derived physical adjacency.
//! - [`LineLocking`]: pin hot lines in the LLC for the rest of the
//!   refresh interval; a locked line generates no further ACTs. When
//!   the lockable ways fill, fall back to remapping — exactly the
//!   fallback order the paper prescribes.

use super::{DefenseAction, SoftwareDefense};
use hammertime_common::{CacheLineAddr, Cycle};
use hammertime_memctrl::ActInterrupt;
use std::collections::HashSet;

/// Remap-on-interrupt (ACT wear-leveling).
#[derive(Debug, Clone)]
pub struct AggressorRemap {
    /// Frames already migrated this window (rate limit: one migration
    /// per frame per refresh window).
    remapped_this_window: HashSet<u64>,
    /// Total remaps requested (stats).
    pub remaps_requested: u64,
    /// Interrupts that carried no address (legacy counters) and were
    /// therefore unactionable.
    pub blind_interrupts: u64,
}

impl AggressorRemap {
    /// Creates the daemon.
    pub fn new() -> AggressorRemap {
        AggressorRemap {
            remapped_this_window: HashSet::new(),
            remaps_requested: 0,
            blind_interrupts: 0,
        }
    }
}

impl Default for AggressorRemap {
    fn default() -> Self {
        AggressorRemap::new()
    }
}

impl SoftwareDefense for AggressorRemap {
    fn name(&self) -> &'static str {
        "aggressor-remap"
    }

    fn on_act_interrupts(&mut self, ints: &[ActInterrupt]) -> Vec<DefenseAction> {
        let mut actions = Vec::new();
        for int in ints {
            let Some(line) = int.addr else {
                self.blind_interrupts += 1;
                continue;
            };
            let frame = line.page_frame();
            if self.remapped_this_window.insert(frame) {
                self.remaps_requested += 1;
                actions.push(DefenseAction::RemapFrame { frame });
            }
        }
        actions
    }

    fn on_window_rollover(&mut self, _now: Cycle) -> Vec<DefenseAction> {
        self.remapped_this_window.clear();
        Vec::new()
    }
}

/// Lock-then-remap (cache line locking with remap fallback).
#[derive(Debug, Clone)]
pub struct LineLocking {
    locked: HashSet<CacheLineAddr>,
    /// Locks requested (stats).
    pub locks_requested: u64,
    /// Fallback remaps after lock exhaustion (stats).
    pub fallback_remaps: u64,
    /// Address-free interrupts that could not be acted on.
    pub blind_interrupts: u64,
}

impl LineLocking {
    /// Creates the daemon.
    pub fn new() -> LineLocking {
        LineLocking {
            locked: HashSet::new(),
            locks_requested: 0,
            fallback_remaps: 0,
            blind_interrupts: 0,
        }
    }
}

impl Default for LineLocking {
    fn default() -> Self {
        LineLocking::new()
    }
}

impl SoftwareDefense for LineLocking {
    fn name(&self) -> &'static str {
        "line-locking"
    }

    fn on_act_interrupts(&mut self, ints: &[ActInterrupt]) -> Vec<DefenseAction> {
        let mut actions = Vec::new();
        let mut just_locked = std::collections::HashSet::new();
        let mut just_remapped = std::collections::HashSet::new();
        for int in ints {
            let Some(line) = int.addr else {
                self.blind_interrupts += 1;
                continue;
            };
            if self.locked.insert(line) {
                self.locks_requested += 1;
                just_locked.insert(line);
                actions.push(DefenseAction::LockLine { line });
            } else if !just_locked.contains(&line) && just_remapped.insert(line.page_frame()) {
                // The line was pinned in an earlier batch yet still
                // generates ACTs — a cache-bypassing access path (DMA,
                // §1). The lock cannot help; escalate to migration.
                self.fallback_remaps += 1;
                actions.push(DefenseAction::RemapFrame {
                    frame: line.page_frame(),
                });
            }
        }
        actions
    }

    fn on_lock_failed(&mut self, line: CacheLineAddr) -> Vec<DefenseAction> {
        // The way(s) reserved for locked lines are full: migrate the
        // page instead (paper §4.2's fallback).
        self.locked.remove(&line);
        self.fallback_remaps += 1;
        vec![DefenseAction::RemapFrame {
            frame: line.page_frame(),
        }]
    }

    fn on_window_rollover(&mut self, _now: Cycle) -> Vec<DefenseAction> {
        // Locks only need to survive one refresh interval: afterwards
        // the victims have been refreshed and the budget restarts.
        self.locked.clear();
        vec![DefenseAction::UnlockAll]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::DomainId;

    fn precise(line: u64) -> ActInterrupt {
        ActInterrupt {
            channel: 0,
            time: Cycle(10),
            addr: Some(CacheLineAddr(line)),
            domain: Some(DomainId(1)),
        }
    }

    fn legacy() -> ActInterrupt {
        ActInterrupt {
            channel: 0,
            time: Cycle(10),
            addr: None,
            domain: None,
        }
    }

    #[test]
    fn remap_defense_migrates_hot_frame_once_per_window() {
        let mut d = AggressorRemap::new();
        // Two hot lines in the same frame: one remap.
        let a = d.on_act_interrupts(&[precise(0), precise(1)]);
        assert_eq!(a, vec![DefenseAction::RemapFrame { frame: 0 }]);
        // Same frame again: rate-limited.
        assert!(d.on_act_interrupts(&[precise(2)]).is_empty());
        // New window: actionable again.
        d.on_window_rollover(Cycle(100));
        assert_eq!(d.on_act_interrupts(&[precise(0)]).len(), 1);
        assert_eq!(d.remaps_requested, 2);
    }

    #[test]
    fn remap_defense_is_blind_without_addresses() {
        let mut d = AggressorRemap::new();
        assert!(d.on_act_interrupts(&[legacy(), legacy()]).is_empty());
        assert_eq!(d.blind_interrupts, 2, "legacy interrupts are unactionable");
    }

    #[test]
    fn locking_defense_locks_each_line_once() {
        let mut d = LineLocking::new();
        // A repeat within the same batch is not escalated: the lock
        // hasn't had a chance to take effect yet.
        let a = d.on_act_interrupts(&[precise(5), precise(5), precise(6)]);
        assert_eq!(
            a,
            vec![
                DefenseAction::LockLine {
                    line: CacheLineAddr(5)
                },
                DefenseAction::LockLine {
                    line: CacheLineAddr(6)
                },
            ]
        );
        assert_eq!(d.locks_requested, 2);
    }

    #[test]
    fn repeat_interrupt_on_locked_line_escalates_to_remap() {
        let mut d = LineLocking::new();
        d.on_act_interrupts(&[precise(64)]);
        // A later batch still reporting the pinned line means the
        // accesses bypass the cache (DMA): escalate.
        let a = d.on_act_interrupts(&[precise(64), precise(64)]);
        assert_eq!(a, vec![DefenseAction::RemapFrame { frame: 1 }]);
        assert_eq!(d.fallback_remaps, 1);
    }

    #[test]
    fn lock_failure_falls_back_to_remap() {
        let mut d = LineLocking::new();
        d.on_act_interrupts(&[precise(64)]);
        let fallback = d.on_lock_failed(CacheLineAddr(64));
        assert_eq!(fallback, vec![DefenseAction::RemapFrame { frame: 1 }]);
        assert_eq!(d.fallback_remaps, 1);
        // The line can be re-locked later (it was dropped from the set).
        assert_eq!(d.on_act_interrupts(&[precise(64)]).len(), 1);
    }

    #[test]
    fn window_rollover_unlocks_everything() {
        let mut d = LineLocking::new();
        d.on_act_interrupts(&[precise(1)]);
        let a = d.on_window_rollover(Cycle(999));
        assert_eq!(a, vec![DefenseAction::UnlockAll]);
        // Fresh window: same line locks again.
        assert_eq!(d.on_act_interrupts(&[precise(1)]).len(), 1);
    }

    #[test]
    fn locking_defense_blind_without_addresses() {
        let mut d = LineLocking::new();
        assert!(d.on_act_interrupts(&[legacy()]).is_empty());
        assert_eq!(d.blind_interrupts, 1);
    }
}
