//! The incremental invariant engine: a shadow of the device's timing
//! state, fed one command at a time.
//!
//! [`InvariantChecker`] re-implements the *constraint arithmetic* of
//! `hammertime-dram`'s bank FSM (`bank.rs`) and rank state
//! (`module.rs`) independently — it shares no code with the device
//! model, so a bug in the model cannot hide from the checker. On top
//! of the device-level rules it enforces two controller-level
//! invariants the device itself cannot see: per-channel command-bus
//! exclusivity (the controller issues at most one command per channel
//! per cycle) and data-bus occupancy (CAS bursts on one channel never
//! overlap, CL/CWL lead + tBL burst).
//!
//! Commands address *logical* rows; internal row remapping is invisible
//! on the bus and none of the enforced constraints depend on which
//! physical row is hit, so the checker works entirely in logical
//! coordinates. The one remap-sensitive quantity — how many rows a
//! REFN actually refreshes, which sets its occupancy — is bounded from
//! below (one row cycle), keeping the checker sound (no false
//! positives) at the cost of not flagging an early reuse of a bank a
//! multi-victim REFN would still be occupying.

use crate::rules::{Rule, Violation};
use crate::MAX_REF_GAP_TREFI;
use hammertime_common::geometry::BankId;
use hammertime_common::{Cycle, Geometry};
use hammertime_dram::stats::DramStats;
use hammertime_dram::timing::TimingParams;
use hammertime_telemetry::CmdEvent;
use std::collections::VecDeque;

/// Shadow of one bank's FSM and timing windows (mirrors
/// `hammertime-dram`'s `Bank`, state only — no disturbance model).
#[derive(Debug, Clone)]
struct BankShadow {
    /// `Some((row, opened_at))` while a row is open.
    open: Option<(u32, Cycle)>,
    /// tRP component of the next legal ACT (closing PRE + tRP).
    ready_act_pre: Cycle,
    /// tRC component of the next legal ACT (previous ACT + tRC).
    ready_act_rc: Cycle,
    /// Refresh-occupancy component of the next legal ACT (REF/REFN).
    ready_act_block: Cycle,
    /// Earliest legal PRE while open (max of tRAS/tRTP/tWR effects).
    ready_pre: Cycle,
    /// Earliest legal RD/WR while open (ACT + tRCD).
    ready_rdwr: Cycle,
}

impl BankShadow {
    fn new() -> BankShadow {
        BankShadow {
            open: None,
            ready_act_pre: Cycle::ZERO,
            ready_act_rc: Cycle::ZERO,
            ready_act_block: Cycle::ZERO,
            ready_pre: Cycle::ZERO,
            ready_rdwr: Cycle::ZERO,
        }
    }

    fn ready_act(&self) -> Cycle {
        self.ready_act_pre
            .max(self.ready_act_rc)
            .max(self.ready_act_block)
    }

    /// Closes the open row: PRE at `pre_time` of a row opened at
    /// `opened_at` (mirrors `Bank::close`).
    fn close(&mut self, pre_time: Cycle, opened_at: Cycle, t: &TimingParams) {
        self.open = None;
        self.ready_act_pre = pre_time + t.t_rp;
        self.ready_act_rc = opened_at + t.t_rc;
    }
}

/// Shadow of one rank's ACT spacing and refresh state (mirrors
/// `hammertime-dram`'s `RankState`).
#[derive(Debug, Clone)]
struct RankShadow {
    /// Last ACT in this rank: (time, bank group) — tRRD_S/L reference.
    last_act: Option<(Cycle, u32)>,
    /// Times of the most recent 4 ACTs (tFAW window).
    faw: VecDeque<Cycle>,
    /// Rank unusable until this time (tRFC after REF).
    busy_until: Cycle,
    /// Last REF to this rank, if any (refresh-deadline rule).
    last_ref: Option<Cycle>,
}

impl RankShadow {
    fn new() -> RankShadow {
        RankShadow {
            last_act: None,
            faw: VecDeque::with_capacity(4),
            busy_until: Cycle::ZERO,
            last_ref: None,
        }
    }

    fn record_act(&mut self, now: Cycle, bank_group: u32) {
        self.last_act = Some((now, bank_group));
        if self.faw.len() == 4 {
            self.faw.pop_front();
        }
        self.faw.push_back(now);
    }
}

/// Per-channel bus state: the controller-level invariants.
#[derive(Debug, Clone)]
struct ChannelShadow {
    /// Cycle of the last command on this channel's command bus.
    last_cmd: Option<Cycle>,
    /// Data bus occupied until this cycle (exclusive).
    data_bus_free: Cycle,
}

/// Command counts accumulated for the conservation check against the
/// device's final `DramStats`.
#[derive(Debug, Clone, Copy, Default)]
struct CmdCounts {
    acts: u64,
    pres: u64,
    rds: u64,
    wrs: u64,
    refs: u64,
    /// REF_NEIGHBORS commands. `DramStats` counts the rows they
    /// refresh, not the commands, so no conservation law covers them.
    refns: u64,
    flips: u64,
}

/// The incremental invariant engine for one device segment.
///
/// Feed it every command of one device's lifetime in emission order
/// via [`InvariantChecker::command`]; violations accumulate and are
/// retrieved with [`InvariantChecker::violations`]. For a recorded
/// trace, [`crate::lint_records`] drives this over each device
/// segment.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    geometry: Geometry,
    timing: TimingParams,
    /// Batched disturbance accounting changes flip *timing* (flips can
    /// settle outside traced commands), so flip conservation is only
    /// checked when off.
    batched: bool,
    banks: Vec<BankShadow>,
    ranks: Vec<RankShadow>,
    channels: Vec<ChannelShadow>,
    counts: CmdCounts,
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// Creates a checker for a fresh (just reset) device.
    pub fn new(geometry: Geometry, timing: TimingParams, batched: bool) -> InvariantChecker {
        InvariantChecker {
            banks: (0..geometry.total_banks())
                .map(|_| BankShadow::new())
                .collect(),
            ranks: (0..(geometry.channels * geometry.ranks) as usize)
                .map(|_| RankShadow::new())
                .collect(),
            channels: (0..geometry.channels as usize)
                .map(|_| ChannelShadow {
                    last_cmd: None,
                    data_bus_free: Cycle::ZERO,
                })
                .collect(),
            counts: CmdCounts::default(),
            violations: Vec::new(),
            geometry,
            timing,
            batched,
        }
    }

    /// Violations detected so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Consumes the checker, returning its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// Total commands checked so far.
    pub fn commands_checked(&self) -> u64 {
        let c = &self.counts;
        c.acts + c.pres + c.rds + c.wrs + c.refs + c.refns
    }

    fn rank_index(&self, channel: u32, rank: u32) -> usize {
        (channel * self.geometry.ranks + rank) as usize
    }

    fn push(&mut self, cycle: Cycle, rule: Rule, bank: Option<BankId>, detail: String) {
        self.violations.push(Violation {
            cycle: cycle.raw(),
            rule,
            bank,
            detail,
        });
    }

    /// Command-bus exclusivity: one command per channel per cycle, in
    /// cycle order (the controller reserves the bus for one cycle per
    /// issued command).
    fn check_cmd_bus(&mut self, now: Cycle, channel: u32) {
        let ch = channel as usize;
        if ch >= self.channels.len() {
            self.push(
                now,
                Rule::AddressRange,
                None,
                format!("channel {channel} out of range ({})", self.channels.len()),
            );
            return;
        }
        if let Some(last) = self.channels[ch].last_cmd {
            if now <= last {
                self.push(
                    now,
                    Rule::CmdBusConflict,
                    None,
                    format!("command on channel {channel} at {now} not after previous at {last}"),
                );
            }
        }
        let slot = &mut self.channels[ch];
        slot.last_cmd = Some(slot.last_cmd.map_or(now, |l| l.max(now)));
    }

    /// Attributes an early-ACT-class violation on `bank` to the
    /// binding constraint (refresh occupancy, tRP, or tRC).
    fn check_bank_act_ready(&mut self, now: Cycle, bank: BankId, what: &str) {
        let b = bank.flat(&self.geometry);
        let shadow = &self.banks[b];
        if now >= shadow.ready_act() {
            return;
        }
        let (rule, earliest) = if shadow.ready_act_block > now {
            (Rule::RankBusy, shadow.ready_act_block)
        } else if shadow.ready_act_pre >= shadow.ready_act_rc {
            (Rule::TRp, shadow.ready_act_pre)
        } else {
            (Rule::TRc, shadow.ready_act_rc)
        };
        self.push(
            now,
            rule,
            Some(bank),
            format!("{what} at {now} before bank ready at {earliest}"),
        );
    }

    fn check_rank_busy(&mut self, now: Cycle, channel: u32, rank: u32, what: &str) {
        let r = self.rank_index(channel, rank);
        let busy = self.ranks[r].busy_until;
        if now < busy {
            self.push(
                now,
                Rule::RankBusy,
                None,
                format!("{what} at {now} to ch{channel}:rk{rank} busy with refresh until {busy}"),
            );
        }
    }

    /// Checks and applies one command. `now` is the record's cycle
    /// stamp. Violations accumulate; state is updated best-effort even
    /// for violating commands so downstream checking stays meaningful.
    pub fn command(&mut self, now: Cycle, cmd: &CmdEvent) {
        match *cmd {
            CmdEvent::Act { bank, row } => self.act(now, bank, row),
            CmdEvent::Pre { bank } => self.pre(now, bank),
            CmdEvent::PreAll { channel, rank } => self.pre_all(now, channel, rank),
            CmdEvent::Rd {
                bank,
                col,
                auto_pre,
            } => self.cas(now, bank, col, auto_pre, false),
            CmdEvent::Wr {
                bank,
                col,
                auto_pre,
            } => self.cas(now, bank, col, auto_pre, true),
            CmdEvent::Ref { channel, rank } => self.refresh(now, channel, rank),
            CmdEvent::RefNeighbors { bank, row, radius } => {
                self.ref_neighbors(now, bank, row, radius)
            }
        }
    }

    /// Records one `Flip` event (for the flip-conservation check).
    pub fn flip(&mut self) {
        self.counts.flips += 1;
    }

    fn act(&mut self, now: Cycle, bank: BankId, row: u32) {
        self.check_cmd_bus(now, bank.channel);
        let t = self.timing;
        if row >= self.geometry.rows_per_bank() {
            self.push(
                now,
                Rule::AddressRange,
                Some(bank),
                format!(
                    "ACT row {row} out of range ({} rows/bank)",
                    self.geometry.rows_per_bank()
                ),
            );
        }
        let b = bank.flat(&self.geometry);
        if let Some((open_row, _)) = self.banks[b].open {
            self.push(
                now,
                Rule::ActOnOpenBank,
                Some(bank),
                format!("ACT r{row} while r{open_row} is open (PRE first)"),
            );
        } else {
            self.check_bank_act_ready(now, bank, "ACT");
        }
        // Rank-level spacing (tRRD_S/L, tFAW, tRFC occupancy) — the
        // constraints of module.rs's RankState::earliest_act.
        self.check_rank_busy(now, bank.channel, bank.rank, "ACT");
        let r = self.rank_index(bank.channel, bank.rank);
        if let Some((when, bg)) = self.ranks[r].last_act {
            let (gap, which) = if bg == bank.bank_group {
                (t.t_rrd_l, "tRRD_L")
            } else {
                (t.t_rrd_s, "tRRD_S")
            };
            if now < when + gap {
                self.push(
                    now,
                    Rule::TRrd,
                    Some(bank),
                    format!("ACT at {now} within {which} {gap} of rank ACT at {when}"),
                );
            }
        }
        if self.ranks[r].faw.len() == 4 {
            let window_open = *self.ranks[r].faw.front().expect("len checked");
            if now < window_open + t.t_faw {
                self.push(
                    now,
                    Rule::TFaw,
                    Some(bank),
                    format!(
                        "5th ACT at {now} inside window opened at {window_open} (tFAW {})",
                        t.t_faw
                    ),
                );
            }
        }
        // Apply.
        self.banks[b].open = Some((row, now));
        self.banks[b].ready_rdwr = now + t.t_rcd;
        self.banks[b].ready_pre = now + t.t_ras;
        self.ranks[r].record_act(now, bank.bank_group);
        self.counts.acts += 1;
    }

    /// Closes one bank as a PRE at `now` would, checking tRAS-class
    /// timing. PRE of an idle bank is a legal no-op.
    fn pre_one(&mut self, now: Cycle, bank: BankId) {
        let t = self.timing;
        let b = bank.flat(&self.geometry);
        if let Some((_, opened_at)) = self.banks[b].open {
            if now < self.banks[b].ready_pre {
                let earliest = self.banks[b].ready_pre;
                self.push(
                    now,
                    Rule::TRas,
                    Some(bank),
                    format!(
                        "PRE at {now} before earliest close at {earliest} \
                         (tRAS/tRTP/write recovery)"
                    ),
                );
            }
            self.banks[b].close(now, opened_at, &t);
        }
    }

    fn pre(&mut self, now: Cycle, bank: BankId) {
        self.check_cmd_bus(now, bank.channel);
        self.check_rank_busy(now, bank.channel, bank.rank, "PRE");
        self.pre_one(now, bank);
        self.counts.pres += 1;
    }

    fn pre_all(&mut self, now: Cycle, channel: u32, rank: u32) {
        self.check_cmd_bus(now, channel);
        self.check_rank_busy(now, channel, rank, "PREA");
        for bank in self.rank_banks(channel, rank) {
            self.pre_one(now, bank);
        }
        self.counts.pres += 1;
    }

    fn cas(&mut self, now: Cycle, bank: BankId, col: u32, auto_pre: bool, is_write: bool) {
        self.check_cmd_bus(now, bank.channel);
        let t = self.timing;
        let name = if is_write { "WR" } else { "RD" };
        if col >= self.geometry.columns {
            self.push(
                now,
                Rule::AddressRange,
                Some(bank),
                format!(
                    "{name} col {col} out of range ({} columns)",
                    self.geometry.columns
                ),
            );
        }
        self.check_rank_busy(now, bank.channel, bank.rank, name);
        let b = bank.flat(&self.geometry);
        match self.banks[b].open {
            None => {
                self.push(
                    now,
                    Rule::CasOnClosedBank,
                    Some(bank),
                    format!("{name} with no open row"),
                );
            }
            Some((_, opened_at)) => {
                if now < self.banks[b].ready_rdwr {
                    let earliest = self.banks[b].ready_rdwr;
                    self.push(
                        now,
                        Rule::TRcd,
                        Some(bank),
                        format!("{name} at {now} before tRCD satisfied at {earliest}"),
                    );
                }
                // Per-bank close window updates (Bank::rd / Bank::wr).
                if is_write {
                    let data_end = now + t.cwl + t.t_bl;
                    self.banks[b].ready_pre = self.banks[b].ready_pre.max(data_end + t.t_wr);
                } else {
                    self.banks[b].ready_pre = self.banks[b].ready_pre.max(now + t.t_rtp);
                }
                if auto_pre {
                    let pre_time = self.banks[b].ready_pre;
                    self.banks[b].close(pre_time, opened_at, &t);
                }
            }
        }
        // Data-bus occupancy: the burst holds the channel's data bus
        // for [now + lead, now + lead + tBL); the controller schedules
        // CAS commands so bursts never overlap.
        let lead = if is_write { t.cwl } else { t.cl };
        let start = now + lead;
        let end = start + t.t_bl;
        let ch = bank.channel as usize;
        if ch < self.channels.len() {
            let free = self.channels[ch].data_bus_free;
            if start < free {
                self.push(
                    now,
                    Rule::DataBusOverlap,
                    Some(bank),
                    format!(
                        "{name} burst starts at {start} while data bus busy until {free} \
                         (lead {lead}, tBL {})",
                        t.t_bl
                    ),
                );
            }
            self.channels[ch].data_bus_free = free.max(end);
        }
        if is_write {
            self.counts.wrs += 1;
        } else {
            self.counts.rds += 1;
        }
    }

    fn refresh(&mut self, now: Cycle, channel: u32, rank: u32) {
        self.check_cmd_bus(now, channel);
        let t = self.timing;
        self.check_rank_busy(now, channel, rank, "REF");
        for bank in self.rank_banks(channel, rank) {
            let b = bank.flat(&self.geometry);
            if let Some((row, _)) = self.banks[b].open {
                self.push(
                    now,
                    Rule::RefWithOpenBank,
                    Some(bank),
                    format!("REF with r{row} open (PRE first)"),
                );
            } else {
                self.check_bank_act_ready(now, bank, "REF");
            }
        }
        // Refresh-deadline rule: consecutive REFs to one rank must be
        // within the pull-in window (first REF measured from reset).
        let limit = MAX_REF_GAP_TREFI * t.t_refi;
        let r = self.rank_index(channel, rank);
        let since = self.ranks[r].last_ref.map_or(0, Cycle::raw);
        if now.raw().saturating_sub(since) > limit {
            let origin = if self.ranks[r].last_ref.is_some() {
                "previous REF"
            } else {
                "reset"
            };
            self.push(
                now,
                Rule::RefStarved,
                None,
                format!(
                    "REF to ch{channel}:rk{rank} at {now}, {} cycles after {origin} \
                     (limit {MAX_REF_GAP_TREFI}×tREFI = {limit})",
                    now.raw() - since
                ),
            );
        }
        // Apply: rank busy for tRFC, every bank blocked.
        let done = now + t.t_rfc;
        for bank in self.rank_banks(channel, rank) {
            let b = bank.flat(&self.geometry);
            self.banks[b].ready_act_block = self.banks[b].ready_act_block.max(done);
        }
        self.ranks[r].busy_until = done;
        self.ranks[r].last_ref = Some(now);
        self.counts.refs += 1;
    }

    fn ref_neighbors(&mut self, now: Cycle, bank: BankId, row: u32, _radius: u32) {
        self.check_cmd_bus(now, bank.channel);
        let t = self.timing;
        if row >= self.geometry.rows_per_bank() {
            self.push(
                now,
                Rule::AddressRange,
                Some(bank),
                format!(
                    "REFN row {row} out of range ({} rows/bank)",
                    self.geometry.rows_per_bank()
                ),
            );
        }
        self.check_rank_busy(now, bank.channel, bank.rank, "REFN");
        let b = bank.flat(&self.geometry);
        if let Some((open_row, _)) = self.banks[b].open {
            self.push(
                now,
                Rule::RefWithOpenBank,
                Some(bank),
                format!("REFN with r{open_row} open (PRE first)"),
            );
        } else {
            self.check_bank_act_ready(now, bank, "REFN");
        }
        // Occupancy lower bound: the device charges one row cycle per
        // refreshed victim; the victim count depends on internal
        // remapping, so the checker blocks for the guaranteed minimum.
        self.banks[b].ready_act_block = self.banks[b].ready_act_block.max(now + t.t_rc);
        self.counts.refns += 1;
    }

    /// Validates the device's final counters against the commands this
    /// checker saw (the trace-side conservation laws).
    pub fn device_stats(&mut self, cycle: Cycle, stats: &DramStats) {
        let pairs = [
            ("acts", self.counts.acts, stats.acts),
            ("pres", self.counts.pres, stats.pres),
            ("rds", self.counts.rds, stats.rds),
            ("wrs", self.counts.wrs, stats.wrs),
            ("refs", self.counts.refs, stats.refs),
        ];
        for (name, traced, device) in pairs {
            if traced != device {
                self.push(
                    cycle,
                    Rule::CommandConservation,
                    None,
                    format!("trace has {traced} {name} but DramStats.{name} = {device}"),
                );
            }
        }
        if !self.batched && self.counts.flips != stats.flips {
            self.push(
                cycle,
                Rule::FlipConservation,
                None,
                format!(
                    "trace has {} flip events but DramStats.flips = {}",
                    self.counts.flips, stats.flips
                ),
            );
        }
    }

    /// Closes the segment at `end` (the last cycle covered by the
    /// trace): ranks that refresh must not have gone silent for longer
    /// than the pull-in window before the end of the recording.
    pub fn finish(&mut self, end: Cycle) {
        let limit = MAX_REF_GAP_TREFI * self.timing.t_refi;
        for r in 0..self.ranks.len() {
            let Some(last) = self.ranks[r].last_ref else {
                // Rank never refreshed: refresh is disabled for this
                // run (a legitimate configuration), not starvation.
                continue;
            };
            let gap = end.raw().saturating_sub(last.raw());
            if gap > limit {
                let channel = r as u32 / self.geometry.ranks;
                let rank = r as u32 % self.geometry.ranks;
                self.push(
                    end,
                    Rule::RefStarved,
                    None,
                    format!(
                        "ch{channel}:rk{rank} last REF at {last}, {gap} cycles before \
                         end of segment (limit {MAX_REF_GAP_TREFI}×tREFI = {limit})"
                    ),
                );
            }
        }
    }

    // ---- state peeks for the mutation harness ----
    // The harness replays a trace prefix through a checker to find
    // mutation sites where a specific rule is *guaranteed* to fire
    // (e.g. an idle, ready bank for an inserted fifth ACT).

    /// Whether `bank` currently has an open row.
    pub(crate) fn peek_bank_open(&self, bank: &BankId) -> bool {
        self.banks[bank.flat(&self.geometry)].open.is_some()
    }

    /// Earliest legal ACT for `bank` (Cycle::MAX-free: only meaningful
    /// while the bank is closed).
    pub(crate) fn peek_bank_ready_act(&self, bank: &BankId) -> Cycle {
        self.banks[bank.flat(&self.geometry)].ready_act()
    }

    /// The rank's refresh-occupancy horizon.
    pub(crate) fn peek_rank_busy_until(&self, channel: u32, rank: u32) -> Cycle {
        self.ranks[self.rank_index(channel, rank)].busy_until
    }

    /// The rank's tFAW window: `(len, oldest ACT time)`.
    pub(crate) fn peek_rank_faw(&self, channel: u32, rank: u32) -> (usize, Option<Cycle>) {
        let r = &self.ranks[self.rank_index(channel, rank)];
        (r.faw.len(), r.faw.front().copied())
    }

    /// The checker's geometry.
    pub(crate) fn peek_geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// All bank IDs of one rank.
    fn rank_banks(&self, channel: u32, rank: u32) -> Vec<BankId> {
        let g = self.geometry;
        let mut out = Vec::with_capacity(g.banks_per_rank() as usize);
        for bank_group in 0..g.bank_groups {
            for bank in 0..g.banks_per_group {
                out.push(BankId {
                    channel,
                    rank,
                    bank_group,
                    bank,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank0() -> BankId {
        BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
        }
    }

    fn bank(bank_group: u32, bank: u32) -> BankId {
        BankId {
            channel: 0,
            rank: 0,
            bank_group,
            bank,
        }
    }

    fn checker() -> InvariantChecker {
        // medium(): 1 channel, 1 rank, 2 bank groups × 2 banks.
        InvariantChecker::new(Geometry::medium(), TimingParams::tiny_test(), false)
    }

    fn rules_of(c: &InvariantChecker) -> Vec<Rule> {
        c.violations().iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_open_read_close_cycle_has_no_violations() {
        let t = TimingParams::tiny_test();
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 3,
            },
        );
        c.command(
            Cycle(t.t_rcd),
            &CmdEvent::Rd {
                bank: bank0(),
                col: 0,
                auto_pre: false,
            },
        );
        c.command(Cycle(t.t_ras), &CmdEvent::Pre { bank: bank0() });
        c.command(
            Cycle(t.t_rc),
            &CmdEvent::Act {
                bank: bank0(),
                row: 4,
            },
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn act_on_open_bank_fires() {
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        c.command(
            Cycle(100),
            &CmdEvent::Act {
                bank: bank0(),
                row: 2,
            },
        );
        assert!(rules_of(&c).contains(&Rule::ActOnOpenBank));
    }

    #[test]
    fn cas_on_closed_bank_and_trcd_fire() {
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Rd {
                bank: bank0(),
                col: 0,
                auto_pre: false,
            },
        );
        assert!(rules_of(&c).contains(&Rule::CasOnClosedBank));

        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        // tRCD = 4: RD at 3 is one cycle early.
        c.command(
            Cycle(3),
            &CmdEvent::Rd {
                bank: bank0(),
                col: 0,
                auto_pre: false,
            },
        );
        assert!(rules_of(&c).contains(&Rule::TRcd));
    }

    #[test]
    fn early_pre_and_early_act_fire() {
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        // tRAS = 10: PRE at 9 is early.
        c.command(Cycle(9), &CmdEvent::Pre { bank: bank0() });
        assert!(rules_of(&c).contains(&Rule::TRas));

        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        c.command(Cycle(10), &CmdEvent::Pre { bank: bank0() });
        // ready_act = max(10 + tRP, 0 + tRC) = 14; 13 is early (tRC
        // and tRP bind equally here; tRP wins the attribution).
        c.command(
            Cycle(13),
            &CmdEvent::Act {
                bank: bank0(),
                row: 2,
            },
        );
        let rules = rules_of(&c);
        assert!(
            rules.contains(&Rule::TRp) || rules.contains(&Rule::TRc),
            "{rules:?}"
        );
    }

    #[test]
    fn trrd_and_tfaw_fire() {
        let mut c = checker();
        // tRRD_S = 2 (different group): ACT at 1 after ACT at 0 is early.
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank(0, 0),
                row: 1,
            },
        );
        c.command(
            Cycle(1),
            &CmdEvent::Act {
                bank: bank(1, 0),
                row: 1,
            },
        );
        assert!(rules_of(&c).contains(&Rule::TRrd));

        // 4 ACTs at 0,3,6,9 (legal spacing); 5th at 11 < 0 + tFAW = 12.
        let mut c = InvariantChecker::new(Geometry::server(), TimingParams::tiny_test(), false);
        for (i, at) in [0u64, 3, 6, 9].into_iter().enumerate() {
            c.command(
                Cycle(at),
                &CmdEvent::Act {
                    bank: BankId {
                        channel: 0,
                        rank: 0,
                        bank_group: i as u32,
                        bank: 0,
                    },
                    row: 1,
                },
            );
        }
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        c.command(
            Cycle(11),
            &CmdEvent::Act {
                bank: BankId {
                    channel: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 1,
                },
                row: 1,
            },
        );
        assert!(rules_of(&c).contains(&Rule::TFaw));
    }

    #[test]
    fn ref_with_open_bank_and_rank_busy_fire() {
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        c.command(
            Cycle(20),
            &CmdEvent::Ref {
                channel: 0,
                rank: 0,
            },
        );
        assert!(rules_of(&c).contains(&Rule::RefWithOpenBank));

        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Ref {
                channel: 0,
                rank: 0,
            },
        );
        // tRFC = 20: rank busy until 20.
        c.command(
            Cycle(19),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        assert!(rules_of(&c).contains(&Rule::RankBusy));
    }

    #[test]
    fn cmd_bus_conflict_fires_on_same_cycle() {
        let mut c = checker();
        c.command(
            Cycle(5),
            &CmdEvent::Act {
                bank: bank(0, 0),
                row: 1,
            },
        );
        c.command(
            Cycle(5),
            &CmdEvent::Act {
                bank: bank(1, 0),
                row: 1,
            },
        );
        let rules = rules_of(&c);
        assert!(rules.contains(&Rule::CmdBusConflict), "{rules:?}");
    }

    #[test]
    fn data_bus_overlap_fires() {
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank(0, 0),
                row: 1,
            },
        );
        // Same bank group: tRRD_L = 3.
        c.command(
            Cycle(3),
            &CmdEvent::Act {
                bank: bank(0, 1),
                row: 1,
            },
        );
        // First burst occupies [6+cl, 6+cl+tBL) = [11, 13).
        c.command(
            Cycle(6),
            &CmdEvent::Rd {
                bank: bank(0, 0),
                col: 0,
                auto_pre: false,
            },
        );
        // Second burst [12, 14) starts before 13 — overlap. tRCD for
        // the bank opened at 3 is satisfied (7 >= 3 + 4).
        c.command(
            Cycle(7),
            &CmdEvent::Rd {
                bank: bank(0, 1),
                col: 0,
                auto_pre: false,
            },
        );
        assert!(
            rules_of(&c).contains(&Rule::DataBusOverlap),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn ref_starvation_fires_on_gap_and_tail() {
        let t = TimingParams::tiny_test();
        let limit = MAX_REF_GAP_TREFI * t.t_refi;
        let mut c = checker();
        c.command(
            Cycle(10),
            &CmdEvent::Ref {
                channel: 0,
                rank: 0,
            },
        );
        c.command(
            Cycle(10 + limit + 1),
            &CmdEvent::Ref {
                channel: 0,
                rank: 0,
            },
        );
        assert!(rules_of(&c).contains(&Rule::RefStarved));

        let mut c = checker();
        c.command(
            Cycle(10),
            &CmdEvent::Ref {
                channel: 0,
                rank: 0,
            },
        );
        c.finish(Cycle(10 + limit + 1));
        assert!(rules_of(&c).contains(&Rule::RefStarved));

        // No REF at all: refresh disabled, not starvation.
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        c.finish(Cycle(1_000_000));
        assert!(c.violations().is_empty());
    }

    #[test]
    fn conservation_mismatch_fires() {
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        let stats = DramStats {
            acts: 2, // trace saw 1
            ..DramStats::default()
        };
        c.device_stats(Cycle(0), &stats);
        assert!(rules_of(&c).contains(&Rule::CommandConservation));
    }

    #[test]
    fn auto_pre_reopens_only_after_trp() {
        let t = TimingParams::tiny_test();
        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        c.command(
            Cycle(t.t_rcd),
            &CmdEvent::Rd {
                bank: bank0(),
                col: 0,
                auto_pre: true,
            },
        );
        // Auto-pre time = max(tRAS=10, 4+tRTP=7) = 10; next ACT legal
        // at max(10 + tRP, 0 + tRC) = 14.
        c.command(
            Cycle(13),
            &CmdEvent::Act {
                bank: bank0(),
                row: 2,
            },
        );
        let rules = rules_of(&c);
        assert!(
            rules.contains(&Rule::TRp) || rules.contains(&Rule::TRc),
            "{rules:?}"
        );

        let mut c = checker();
        c.command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        c.command(
            Cycle(t.t_rcd),
            &CmdEvent::Rd {
                bank: bank0(),
                col: 0,
                auto_pre: true,
            },
        );
        c.command(
            Cycle(14),
            &CmdEvent::Act {
                bank: bank0(),
                row: 2,
            },
        );
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }
}
