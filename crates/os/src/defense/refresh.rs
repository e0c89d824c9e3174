//! Refresh-centric software defense (paper §4.3).
//!
//! [`VictimRefresh`] identifies suspected aggressors from precise ACT
//! interrupts (§4.2 supplies the identification mechanism) and
//! proactively refreshes their potential victims before the aggressor
//! reaches the module's MAC. Three refresh mechanisms are supported,
//! matching the paper's design space:
//!
//! - [`RefreshMechanism::Instruction`] — the proposed host-privileged
//!   `refresh` instruction: precise, one PRE+ACT+PRE per victim row.
//! - [`RefreshMechanism::RefNeighbors`] — the optional DRAM-assisted
//!   command: one submission covers the whole blast radius.
//! - [`RefreshMechanism::Convoluted`] — the status-quo fallback:
//!   clflush + load and hope the access actually ACTs the row
//!   (it silently fails to refresh when the row buffer already holds
//!   the row — the imprecision the paper calls out).

use super::{DefenseAction, SoftwareDefense, Topology};
use hammertime_common::Cycle;
use hammertime_memctrl::ActInterrupt;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How victims get refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefreshMechanism {
    /// The proposed `refresh` instruction (§4.3).
    Instruction,
    /// The proposed REF_NEIGHBORS DRAM command (§4.3).
    RefNeighbors,
    /// clflush + load: the only path on today's hardware.
    Convoluted,
}

/// Victim-refresh daemon configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VictimRefreshConfig {
    /// Interrupts on the same row before acting (1 = act immediately;
    /// higher values trade latency for fewer false positives).
    pub interrupts_before_action: u32,
    /// Refresh mechanism.
    pub mechanism: RefreshMechanism,
}

impl Default for VictimRefreshConfig {
    fn default() -> Self {
        VictimRefreshConfig {
            interrupts_before_action: 1,
            mechanism: RefreshMechanism::Instruction,
        }
    }
}

/// The refresh-centric daemon.
#[derive(Debug, Clone)]
pub struct VictimRefresh {
    config: VictimRefreshConfig,
    topology: Topology,
    /// Interrupt counts per (flat-ish bank key, row) this window.
    counts: HashMap<(u64, u32), u32>,
    /// Victim-refresh operations requested (stats).
    pub refreshes_requested: u64,
    /// Address-free interrupts that could not be acted on.
    pub blind_interrupts: u64,
}

impl VictimRefresh {
    /// Creates the daemon over the host's topology knowledge.
    pub fn new(config: VictimRefreshConfig, topology: Topology) -> VictimRefresh {
        VictimRefresh {
            config,
            topology,
            counts: HashMap::new(),
            refreshes_requested: 0,
            blind_interrupts: 0,
        }
    }

    fn bank_key(bank: &hammertime_common::geometry::BankId) -> u64 {
        ((bank.channel as u64) << 24)
            | ((bank.rank as u64) << 16)
            | ((bank.bank_group as u64) << 8)
            | bank.bank as u64
    }
}

impl SoftwareDefense for VictimRefresh {
    fn name(&self) -> &'static str {
        match self.config.mechanism {
            RefreshMechanism::Instruction => "victim-refresh/instr",
            RefreshMechanism::RefNeighbors => "victim-refresh/refn",
            RefreshMechanism::Convoluted => "victim-refresh/convoluted",
        }
    }

    fn on_act_interrupts(&mut self, ints: &[ActInterrupt]) -> Vec<DefenseAction> {
        let mut actions = Vec::new();
        for int in ints {
            let Some(line) = int.addr else {
                self.blind_interrupts += 1;
                continue;
            };
            let Ok((bank, row)) = self.topology.locate(line) else {
                continue;
            };
            let key = (Self::bank_key(&bank), row);
            let count = self.counts.entry(key).or_insert(0);
            *count += 1;
            if *count < self.config.interrupts_before_action {
                continue;
            }
            *count = 0;
            self.refreshes_requested += 1;
            let radius = self.topology.assumed_radius;
            match self.config.mechanism {
                RefreshMechanism::Instruction => {
                    if let Ok(victims) = self.topology.neighbor_row_lines(line, radius) {
                        for v in victims {
                            actions.push(DefenseAction::RefreshRow {
                                line: v,
                                auto_pre: true,
                            });
                        }
                    }
                }
                RefreshMechanism::RefNeighbors => {
                    actions.push(DefenseAction::RefNeighbors { line, radius });
                }
                RefreshMechanism::Convoluted => {
                    if let Ok(victims) = self.topology.neighbor_row_lines(line, radius) {
                        for v in victims {
                            actions.push(DefenseAction::ConvolutedRefresh { line: v });
                        }
                    }
                }
            }
        }
        actions
    }

    fn on_window_rollover(&mut self, _now: Cycle) -> Vec<DefenseAction> {
        self.counts.clear();
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::{CacheLineAddr, DomainId, Geometry};
    use hammertime_memctrl::addrmap::AddressMap;
    use hammertime_memctrl::MappingScheme;

    fn topo() -> Topology {
        let map = AddressMap::new(MappingScheme::CacheLineInterleave, Geometry::medium()).unwrap();
        Topology::new(map, 2)
    }

    fn daemon(mechanism: RefreshMechanism, threshold: u32) -> VictimRefresh {
        VictimRefresh::new(
            VictimRefreshConfig {
                interrupts_before_action: threshold,
                mechanism,
            },
            topo(),
        )
    }

    fn precise(line: u64) -> ActInterrupt {
        ActInterrupt {
            channel: 0,
            time: Cycle(5),
            addr: Some(CacheLineAddr(line)),
            domain: Some(DomainId(1)),
        }
    }

    #[test]
    fn instruction_mechanism_refreshes_every_neighbor() {
        let mut d = daemon(RefreshMechanism::Instruction, 1);
        let line = CacheLineAddr(4096);
        let actions = d.on_act_interrupts(&[ActInterrupt {
            channel: 0,
            time: Cycle(0),
            addr: Some(line),
            domain: Some(DomainId(1)),
        }]);
        let expected = d.topology.neighbor_row_lines(line, 2).unwrap().len();
        assert_eq!(actions.len(), expected);
        assert!(actions
            .iter()
            .all(|a| matches!(a, DefenseAction::RefreshRow { auto_pre: true, .. })));
        assert_eq!(d.refreshes_requested, 1);
    }

    #[test]
    fn ref_neighbors_mechanism_emits_single_command() {
        let mut d = daemon(RefreshMechanism::RefNeighbors, 1);
        let actions = d.on_act_interrupts(&[precise(0)]);
        assert_eq!(
            actions,
            vec![DefenseAction::RefNeighbors {
                line: CacheLineAddr(0),
                radius: 2
            }]
        );
    }

    #[test]
    fn convoluted_mechanism_uses_flush_load_path() {
        let mut d = daemon(RefreshMechanism::Convoluted, 1);
        let actions = d.on_act_interrupts(&[precise(0)]);
        assert!(!actions.is_empty());
        assert!(actions
            .iter()
            .all(|a| matches!(a, DefenseAction::ConvolutedRefresh { .. })));
    }

    #[test]
    fn threshold_defers_action_until_enough_interrupts() {
        let mut d = daemon(RefreshMechanism::RefNeighbors, 3);
        assert!(d.on_act_interrupts(&[precise(0)]).is_empty());
        assert!(d.on_act_interrupts(&[precise(0)]).is_empty());
        assert_eq!(d.on_act_interrupts(&[precise(0)]).len(), 1);
        // Counter reset after firing.
        assert!(d.on_act_interrupts(&[precise(0)]).is_empty());
    }

    #[test]
    fn window_rollover_clears_counts() {
        let mut d = daemon(RefreshMechanism::RefNeighbors, 2);
        d.on_act_interrupts(&[precise(0)]);
        d.on_window_rollover(Cycle(100));
        assert!(
            d.on_act_interrupts(&[precise(0)]).is_empty(),
            "count restarted"
        );
    }

    #[test]
    fn blind_without_addresses() {
        let mut d = daemon(RefreshMechanism::Instruction, 1);
        let legacy = ActInterrupt {
            channel: 0,
            time: Cycle(0),
            addr: None,
            domain: None,
        };
        assert!(d.on_act_interrupts(&[legacy]).is_empty());
        assert_eq!(d.blind_interrupts, 1);
    }

    #[test]
    fn names_reflect_mechanism() {
        assert_eq!(
            daemon(RefreshMechanism::Instruction, 1).name(),
            "victim-refresh/instr"
        );
        assert_eq!(
            daemon(RefreshMechanism::RefNeighbors, 1).name(),
            "victim-refresh/refn"
        );
        assert_eq!(
            daemon(RefreshMechanism::Convoluted, 1).name(),
            "victim-refresh/convoluted"
        );
    }
}
