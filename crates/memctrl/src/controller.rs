//! The integrated memory controller.
//!
//! [`MemCtrl`] owns the [`DramModule`] and drives it with DDR commands
//! under an FR-FCFS scheduler: row-buffer hits are served before
//! misses, oldest first within a class, overlapped across banks and
//! channels. It also houses everything the paper proposes adding to
//! the MC:
//!
//! - the address map, including subarray-isolated interleaving with
//!   per-domain group ownership enforcement (§4.1);
//! - the ACT counter block with precise interrupts (§4.2);
//! - the host-privileged refresh instruction and REF_NEIGHBORS
//!   submission paths (§4.3);
//! - hardware mitigation baselines consulted around each demand ACT
//!   ([`crate::mitigation`]).
//!
//! Simulated time advances as commands issue; [`MemCtrl::advance_to`]
//! processes queued work up to a target cycle and parks. Each command
//! occupies the channel command bus for one cycle; RD/WR bursts occupy
//! the channel data bus for `tBL`.

use crate::act_counter::{ActCounterBlock, ActCounterConfig, ActInterrupt};
use crate::addrmap::{AddressMap, MappingScheme};
use crate::bank_queue::{BankQueue, Entry, Op};
use crate::mitigation::{ActAction, McMitigation, McMitigationConfig};
use crate::request::{Completion, MemRequest, RequestKind};
use crate::stats::McStats;
use hammertime_common::geometry::BankId;
use hammertime_common::{
    CacheLineAddr, Cycle, DetRng, DomainId, DramCoord, Error, FaultClock, FaultKind, FaultPlan,
    Result, TriggerCounts,
};
use hammertime_dram::{BankTiming, DdrCommand, DramConfig, DramModule, DramStats, FlipEvent};
use hammertime_telemetry::{Event, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PagePolicy {
    /// Open-page: rows stay open after CAS, betting on locality
    /// (production default; what makes bank conflicts — and therefore
    /// flush+conflict hammers — possible).
    Open,
    /// Closed-page: every CAS auto-precharges. Locality is lost, but
    /// each access costs a full row cycle, which *reduces* the
    /// achievable hammer rate — the E11 ablation measures the trade.
    Closed,
}

/// Controller configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemCtrlConfig {
    /// Address-mapping scheme.
    pub mapping: MappingScheme,
    /// Hardware mitigation baseline.
    pub mitigation: McMitigationConfig,
    /// ACT counter block configuration.
    pub act_counters: ActCounterConfig,
    /// Whether the periodic REF scheduler runs (disable only for
    /// refresh-starvation failure injection).
    pub refresh_enabled: bool,
    /// Enforce that requests touch only subarray groups owned by their
    /// domain (requires [`MappingScheme::SubarrayIsolated`]).
    pub enforce_domain_groups: bool,
    /// Maximum queued requests before `submit` reports exhaustion.
    pub queue_capacity: usize,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Fault-injection plan for controller-side faults (dropped or
    /// delayed ACT-interrupts, stuck ACT_COUNT, refresh-instruction
    /// NACK, transient remap corruption). `None` — the default — is
    /// byte-identical to a faultless controller.
    pub faults: Option<FaultPlan>,
    /// Cycle-stamped event tracer for controller-level events (refresh
    /// instructions, injected faults, scheduler wedges) and scheduler
    /// metrics. `None` — the default — adds no work to the scheduling
    /// path. Serializes as `null` either way.
    pub tracer: Option<Tracer>,
}

impl MemCtrlConfig {
    /// A production-flavored default: interleaved mapping, no
    /// mitigation, legacy counters, refresh on.
    pub fn baseline() -> MemCtrlConfig {
        MemCtrlConfig {
            mapping: MappingScheme::CacheLineInterleave,
            mitigation: McMitigationConfig::None,
            act_counters: ActCounterConfig::legacy(0),
            refresh_enabled: true,
            enforce_domain_groups: false,
            queue_capacity: 4096,
            page_policy: PagePolicy::Open,
            faults: None,
            tracer: None,
        }
    }
}

/// One schedulable command candidate.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    issue_at: Cycle,
    /// Lower is better: 0 = refresh scheduler, 1 = CAS (row hit) and
    /// maintenance, 2 = ACT/PRE for misses.
    priority: u8,
    seq: u64,
    kind: CandidateKind,
}

#[derive(Debug, Clone, Copy)]
enum CandidateKind {
    /// Periodic refresh for (channel, rank): precharge-all then REF.
    RankRefresh {
        channel: u32,
        rank: u32,
        need_pre: bool,
    },
    /// Next command for queued request at `queue` index.
    Request { index: usize, cmd: DdrCommand },
}

/// FR-FCFS comparison: earliest issue first, then priority class, then
/// age. Strict, so equal tuples keep the earlier-scanned candidate —
/// the tie rule both scheduler implementations must share.
fn better(a: &Candidate, b: &Candidate) -> bool {
    key_of(a) < key_of(b)
}

/// The FR-FCFS ordering key of a candidate, `(issue_at, priority,
/// seq)`. Request candidates carry unique `seq` and a priority of at
/// least 1, so only refresh candidates (seq 0, priority 0) can tie.
fn key_of(c: &Candidate) -> (Cycle, u8, u64) {
    (c.issue_at, c.priority, c.seq)
}

/// Per-request progress for multi-command kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing issued yet (or still opening the row).
    Init,
    /// Refresh instruction: the ACT has been performed.
    Acted,
}

#[derive(Debug, Clone)]
struct Pending {
    req: MemRequest,
    seq: u64,
    coord: DramCoord,
    bank: BankId,
    phase: Phase,
    /// Set once the request needed an ACT/PRE (so completion can report
    /// whether it was a pure row-buffer hit).
    had_miss: bool,
    /// Internal maintenance spawned by a mitigation (not reported as a
    /// completion to the submitter).
    internal: bool,
}

impl Pending {
    /// This request's key in its bank's index, at queue position
    /// `index`.
    fn entry(&self, index: usize) -> Entry {
        let op = match self.req.kind {
            RequestKind::Read => Op::Read,
            RequestKind::Write => Op::Write,
            RequestKind::Refresh { .. } | RequestKind::RefNeighbors { .. } => Op::Maintenance,
        };
        Entry {
            seq: self.seq,
            index,
            row: self.coord.row,
            op,
        }
    }
}

/// The integrated memory controller.
#[derive(Debug)]
pub struct MemCtrl {
    config: MemCtrlConfig,
    map: AddressMap,
    dram: DramModule,
    now: Cycle,
    queue: Vec<Pending>,
    completions: Vec<Completion>,
    counters: ActCounterBlock,
    mitigation: McMitigation,
    group_owner: Vec<Option<DomainId>>,
    /// Per-rank next scheduled REF.
    next_ref: Vec<Cycle>,
    /// Per-channel command-bus free time.
    cmd_bus_free: Vec<Cycle>,
    /// Per-channel data-bus free time.
    data_bus_free: Vec<Cycle>,
    /// Throttled (bank, row) pairs: no ACT before the stored cycle.
    throttle: HashMap<(usize, u32), Cycle>,
    /// Per-bank request index, keyed by flat bank: demand requests by
    /// age and by `(row, op, seq)`, maintenance requests beside them.
    /// The fast scheduler prices a bank against a single timing
    /// snapshot and, through this index, only the few requests that
    /// can still win ([`MemCtrl::bank_candidate`]).
    by_bank: Vec<BankQueue>,
    /// Banks with queued work priced by the fast scheduler, over the
    /// run ([`MemCtrl::wheel_counters`]).
    bank_pricings: u64,
    /// Queue index of a `Refresh { auto_pre: false }` whose ACT has
    /// issued; it completes on the next step, before any other command.
    acted_refresh: Option<usize>,
    /// Controller-side fault clock ([`MemCtrlConfig::faults`]).
    faults: Option<FaultClock>,
    /// ACT-interrupts held back by the delayed-delivery fault, released
    /// by [`MemCtrl::drain_interrupts`] once their (delayed) time has
    /// passed.
    delayed_interrupts: Vec<ActInterrupt>,
    /// Per-channel count of remaining ACTs the stuck-ACT_COUNT fault
    /// swallows.
    stuck_acts: Vec<u64>,
    /// Per-domain mitigation-trigger ledger: every trigger (TRR
    /// sample, throttle delay, neighbor refresh, forced REF, ACT
    /// interrupt) is charged to the domain whose traffic caused it.
    /// BTreeMap for deterministic iteration; travels with tenants via
    /// [`MemCtrl::export_triggers`] / [`MemCtrl::import_triggers`].
    triggers: BTreeMap<u32, TriggerCounts>,
    /// Per-channel domain of the most recent demand ACT: forced REFs
    /// have no request context of their own, so the starvation that
    /// forced them is attributed to the channel's latest activator.
    last_act_domain: Vec<Option<DomainId>>,
    /// Set when the scheduler computed a command the device rejected —
    /// the controller wedges (no further commands issue) instead of
    /// panicking, and submitters see the error.
    wedged: Option<Error>,
    /// Demand misses completed since the last row-buffer hit; feeds the
    /// `mc.row_hit_distance` histogram. Only maintained when tracing.
    completions_since_hit: u64,
    stats: McStats,
    seq: u64,
}

/// Component salt separating the controller's fault-decision streams
/// from the DRAM module's under one [`FaultPlan`].
const MC_FAULT_SALT: u64 = 0xAC7C;

/// How many tREFI a rank's REF may be postponed past its due cycle
/// before the scheduler stops feeding that rank request commands and
/// forces the refresh through. Seven postponements plus the bank-drain
/// tail (tRAS + tRP ≪ tREFI) keeps every REF-to-REF gap inside the
/// 9×tREFI starvation bound the protocol checker enforces, while still
/// letting FR-FCFS exploit most of the JEDEC pull-in window.
const FORCED_REF_LEAD: u64 = 7;

impl MemCtrl {
    /// Builds a controller over a fresh DRAM module.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the address map or device.
    pub fn new(config: MemCtrlConfig, dram_config: DramConfig, seed: u64) -> Result<MemCtrl> {
        let map = AddressMap::new(config.mapping, dram_config.geometry)?;
        if config.enforce_domain_groups && config.mapping != MappingScheme::SubarrayIsolated {
            return Err(Error::Config(
                "domain-group enforcement requires subarray-isolated interleaving".into(),
            ));
        }
        let g = dram_config.geometry;
        let t = dram_config.timing;
        let dram = DramModule::new(dram_config)?;
        let mut rng = DetRng::new(seed ^ 0xC0FF_EE00);
        let counters = ActCounterBlock::new(config.act_counters, g.channels, rng.fork(1));
        let mitigation = McMitigation::new(
            config.mitigation,
            g.total_banks() as usize,
            g.rows_per_bank(),
            rng.fork(2),
        );
        let ranks = (g.channels * g.ranks) as usize;
        let next_ref = (0..ranks)
            .map(|r| {
                if config.refresh_enabled {
                    // Stagger ranks across the interval.
                    Cycle(t.t_refi * (r as u64 + 1) / ranks as u64 + 1)
                } else {
                    Cycle::MAX
                }
            })
            .collect();
        Ok(MemCtrl {
            group_owner: vec![None; map.subarray_groups() as usize],
            map,
            dram,
            now: Cycle::ZERO,
            queue: Vec::new(),
            completions: Vec::new(),
            counters,
            mitigation,
            next_ref,
            cmd_bus_free: vec![Cycle::ZERO; g.channels as usize],
            data_bus_free: vec![Cycle::ZERO; g.channels as usize],
            throttle: HashMap::new(),
            by_bank: vec![BankQueue::default(); g.total_banks() as usize],
            bank_pricings: 0,
            acted_refresh: None,
            faults: config.faults.map(|p| FaultClock::new(p, MC_FAULT_SALT)),
            delayed_interrupts: Vec::new(),
            stuck_acts: vec![0; g.channels as usize],
            triggers: BTreeMap::new(),
            last_act_domain: vec![None; g.channels as usize],
            wedged: None,
            completions_since_hit: 0,
            stats: McStats::default(),
            seq: 0,
            config,
        })
    }

    /// Current controller time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The address map in force.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Reconfigures the address-mapping scheme in place (host
    /// BIOS-style switch). Bumps the map's generation so downstream
    /// translation caches invalidate. Queued coordinates would be stale
    /// under the new map, so the queue must be empty.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if requests are still queued or the geometry
    /// cannot support `scheme`; the map is unchanged on error.
    pub fn set_mapping(&mut self, scheme: MappingScheme) -> Result<()> {
        if !self.queue.is_empty() {
            return Err(Error::Config(format!(
                "cannot reconfigure the address map with {} queued requests",
                self.queue.len()
            )));
        }
        self.map.reconfigure(scheme)?;
        self.group_owner = vec![None; self.map.subarray_groups() as usize];
        Ok(())
    }

    /// Controller statistics, with the live fault-injection tally and
    /// the mitigation engine's quota-throttle count folded in.
    pub fn stats(&self) -> McStats {
        let mut s = self.stats;
        s.fault_injections = self.fault_injections();
        s.quota_throttles = self.mitigation.quota_throttles;
        s
    }

    /// The per-domain mitigation-trigger ledger (domain id →
    /// accumulated trigger counts).
    pub fn trigger_ledger(&self) -> &BTreeMap<u32, TriggerCounts> {
        &self.triggers
    }

    /// Trigger counts charged to `domain` so far (zero if none).
    pub fn trigger_counts(&self, domain: DomainId) -> TriggerCounts {
        self.triggers.get(&domain.0).copied().unwrap_or_default()
    }

    /// Removes and returns `domain`'s trigger counts (tenant detach).
    /// Also clears the domain's suspect score and any stale
    /// last-activator attribution so triggers cannot stick to the
    /// source machine's domain slot after the tenant leaves.
    pub fn export_triggers(&mut self, domain: DomainId) -> TriggerCounts {
        self.mitigation.take_suspect(domain);
        for slot in &mut self.last_act_domain {
            if *slot == Some(domain) {
                *slot = None;
            }
        }
        self.triggers.remove(&domain.0).unwrap_or_default()
    }

    /// Merges migrated trigger counts into `domain`'s ledger entry
    /// (tenant admit) and re-seeds the mitigation engine's suspect
    /// score from their total, so suspicion follows the tenant.
    pub fn import_triggers(&mut self, domain: DomainId, counts: TriggerCounts) {
        if counts == TriggerCounts::default() {
            return;
        }
        self.triggers.entry(domain.0).or_default().merge(&counts);
        self.mitigation.seed_suspect(domain, counts.total());
    }

    /// Charges `weight` triggers of the ledger field selected by
    /// `slot` to `domain`, and feeds the mitigation engine's suspect
    /// scoring (BreakHammer).
    fn charge(&mut self, domain: DomainId, weight: u64, slot: fn(&mut TriggerCounts) -> &mut u64) {
        if weight == 0 {
            return;
        }
        *slot(self.triggers.entry(domain.0).or_default()) += weight;
        self.mitigation.charge_trigger(domain, weight);
    }

    /// Total controller-side faults injected so far.
    pub fn fault_injections(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultClock::total_injected)
    }

    /// The error that wedged the scheduler, if any. A wedged controller
    /// issues no further commands; submissions return the error.
    pub fn fault_state(&self) -> Option<&Error> {
        self.wedged.as_ref()
    }

    /// Wedges the scheduler with a fault: no further commands issue and
    /// every subsequent submission returns [`Error::Fault`]. Called
    /// internally when the device rejects a scheduled command (instead
    /// of panicking); public so hosts and tests can model an external
    /// controller failure.
    pub fn record_fault(&mut self, msg: String) {
        if self.wedged.is_none() {
            if let Some(tracer) = &self.config.tracer {
                tracer.emit(
                    self.now,
                    Event::SchedulerWedge {
                        message: msg.clone(),
                    },
                );
            }
            self.wedged = Some(Error::Fault(msg));
        }
    }

    /// Device statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// White-box access to the device (oracle defenses, tests).
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// Mutable white-box access to the device's functional data path.
    pub fn dram_mut(&mut self) -> &mut DramModule {
        &mut self.dram
    }

    /// Queue depth (pending requests, including internal maintenance).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Drains disturbance flip events recorded by the device.
    pub fn drain_flips(&mut self) -> Vec<FlipEvent> {
        self.dram.drain_flips()
    }

    /// Drains finished requests.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Drains pending ACT-counter interrupts (host OS handler input).
    ///
    /// Fault hooks: each freshly raised interrupt may be dropped
    /// outright or delivered late; delayed interrupts are held here and
    /// released (timestamped with their delayed delivery time) once the
    /// controller clock passes it.
    pub fn drain_interrupts(&mut self) -> Vec<ActInterrupt> {
        let raised = self.counters.drain();
        let Some(fc) = &mut self.faults else {
            return raised;
        };
        let mut out = Vec::new();
        for intr in raised {
            if fc.fire(FaultKind::DroppedActInterrupt) {
                if let Some(tracer) = &self.config.tracer {
                    tracer.emit(
                        intr.time,
                        Event::FaultInjected {
                            kind: FaultKind::DroppedActInterrupt.name().into(),
                        },
                    );
                }
                continue;
            }
            if fc.fire(FaultKind::DelayedActInterrupt) {
                if let Some(tracer) = &self.config.tracer {
                    tracer.emit(
                        intr.time,
                        Event::FaultInjected {
                            kind: FaultKind::DelayedActInterrupt.name().into(),
                        },
                    );
                }
                self.delayed_interrupts.push(ActInterrupt {
                    time: intr.time + fc.plan().interrupt_delay,
                    ..intr
                });
                continue;
            }
            out.push(intr);
        }
        if !self.delayed_interrupts.is_empty() {
            let now = self.now;
            let mut i = 0;
            while i < self.delayed_interrupts.len() {
                if self.delayed_interrupts[i].time <= now {
                    out.push(self.delayed_interrupts.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        out
    }

    /// Reprograms the ACT counter block (host MSR write).
    pub fn configure_act_counters(&mut self, config: ActCounterConfig) {
        self.counters.reconfigure(config);
    }

    /// Mitigation bookkeeping (throttle totals etc.).
    pub fn mitigation(&self) -> &McMitigation {
        &self.mitigation
    }

    /// Assigns subarray `group` to `domain` (host ↔ MC coordination of
    /// the paper's ASID tags, §4.1).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if the group is out of range.
    pub fn assign_group(&mut self, group: u32, domain: Option<DomainId>) -> Result<()> {
        let slot = self
            .group_owner
            .get_mut(group as usize)
            .ok_or_else(|| Error::Config(format!("subarray group {group} out of range")))?;
        *slot = domain;
        Ok(())
    }

    /// The domain owning subarray `group`, if assigned.
    pub fn group_owner(&self, group: u32) -> Option<DomainId> {
        self.group_owner.get(group as usize).copied().flatten()
    }

    /// Translates a cache line to its bank and in-bank row.
    ///
    /// # Errors
    ///
    /// [`Error::Translation`] for out-of-range lines.
    pub fn locate(&self, line: CacheLineAddr) -> Result<(BankId, u32)> {
        let coord = self.map.to_coord(line)?;
        Ok((BankId::of(&coord), coord.row))
    }

    /// Submits a demand or maintenance request.
    ///
    /// # Errors
    ///
    /// - [`Error::Exhausted`] when the queue is full.
    /// - [`Error::Privilege`] when a non-host domain submits a
    ///   maintenance request, or touches a subarray group owned by a
    ///   different domain under enforcement.
    /// - [`Error::Translation`] for unmapped lines.
    /// - [`Error::Fault`] when the controller is wedged
    ///   ([`MemCtrl::fault_state`]) or the refresh-NACK fault fires on
    ///   a `refresh`-instruction submission.
    pub fn submit(&mut self, req: MemRequest) -> Result<()> {
        if let Some(e) = &self.wedged {
            return Err(e.clone());
        }
        if self.queue.len() >= self.config.queue_capacity {
            return Err(Error::Exhausted(format!(
                "request queue full ({} entries)",
                self.config.queue_capacity
            )));
        }
        if req.kind.is_maintenance() && !req.domain.is_host() {
            return Err(Error::Privilege(format!(
                "{} attempted host-privileged maintenance",
                req.domain
            )));
        }
        // Fault hook: the refresh instruction is NACKed — the submitter
        // sees a typed fault and must cope (retry, fall back, or report
        // a missed mitigation).
        if matches!(req.kind, RequestKind::Refresh { .. }) {
            let nacked = self
                .faults
                .as_mut()
                .is_some_and(|fc| fc.fire(FaultKind::RefreshNack));
            if let Some(tracer) = &self.config.tracer {
                tracer.emit(
                    self.now,
                    Event::RefreshInstr {
                        line: req.line.0,
                        nacked,
                    },
                );
                if nacked {
                    tracer.emit(
                        self.now,
                        Event::FaultInjected {
                            kind: FaultKind::RefreshNack.name().into(),
                        },
                    );
                }
            }
            if nacked {
                return Err(Error::Fault(format!(
                    "refresh instruction for {} NACKed by the memory controller",
                    req.line
                )));
            }
        }
        let mut coord = self.map.to_coord(req.line)?;
        // Fault hook: a transient remap-table disturbance sends this
        // one request to a bit-flipped (but in-range) row; the table
        // self-corrects afterwards.
        if self
            .faults
            .as_mut()
            .is_some_and(|fc| fc.fire(FaultKind::RemapCorruption))
            && self.map.geometry().rows_per_bank() > 1
        {
            coord.row ^= 1;
            if let Some(tracer) = &self.config.tracer {
                tracer.emit(
                    self.now,
                    Event::FaultInjected {
                        kind: FaultKind::RemapCorruption.name().into(),
                    },
                );
            }
        }
        if self.config.enforce_domain_groups && !req.domain.is_host() {
            let group = self.map.group_of_frame(req.line.page_frame());
            if self.group_owner(group) != Some(req.domain) {
                self.stats.domain_violations += 1;
                return Err(Error::Privilege(format!(
                    "{} touched subarray group {group} it does not own",
                    req.domain
                )));
            }
        }
        self.push_pending(req, coord, false);
        Ok(())
    }

    fn push_pending(&mut self, req: MemRequest, coord: DramCoord, internal: bool) {
        let seq = self.seq;
        self.seq += 1;
        let bank = BankId::of(&coord);
        let flat = bank.flat(self.map.geometry());
        let p = Pending {
            bank,
            req,
            seq,
            coord,
            phase: Phase::Init,
            had_miss: false,
            internal,
        };
        self.by_bank[flat].insert(p.entry(self.queue.len()));
        self.queue.push(p);
    }

    /// Host-privileged refresh instruction (§4.3): refresh the row
    /// containing `line`, optionally auto-precharging. Queued with
    /// maintenance priority; completes like any request.
    ///
    /// # Errors
    ///
    /// See [`MemCtrl::submit`].
    pub fn refresh_row(&mut self, id: u64, line: CacheLineAddr, auto_pre: bool) -> Result<()> {
        self.submit(MemRequest {
            id,
            line,
            kind: RequestKind::Refresh { auto_pre },
            source: hammertime_common::RequestSource::Core(0),
            domain: DomainId::HOST,
            arrival: self.now,
        })
    }

    /// Submits a REF_NEIGHBORS maintenance operation around `line`.
    ///
    /// # Errors
    ///
    /// See [`MemCtrl::submit`].
    pub fn ref_neighbors(&mut self, id: u64, line: CacheLineAddr, radius: u32) -> Result<()> {
        self.submit(MemRequest {
            id,
            line,
            kind: RequestKind::RefNeighbors { radius },
            source: hammertime_common::RequestSource::Core(0),
            domain: DomainId::HOST,
            arrival: self.now,
        })
    }

    /// Functional data write of one cache line.
    pub fn write_data(&mut self, line: CacheLineAddr, data: &[u8]) -> Result<()> {
        let coord = self.map.to_coord(line)?;
        self.dram
            .write_line(&BankId::of(&coord), coord.row, coord.col, data);
        Ok(())
    }

    /// Functional data read of one cache line; the flag reports
    /// software-visible corruption (after ECC, if configured).
    pub fn read_data(&self, line: CacheLineAddr) -> Result<(Vec<u8>, bool)> {
        let coord = self.map.to_coord(line)?;
        Ok(self
            .dram
            .read_line(&BankId::of(&coord), coord.row, coord.col))
    }

    /// Functional data read with the full ECC classification of the
    /// underlying damage (E10 ablation).
    pub fn read_data_detailed(
        &self,
        line: CacheLineAddr,
    ) -> Result<(Vec<u8>, hammertime_dram::data::EccOutcome)> {
        let coord = self.map.to_coord(line)?;
        Ok(self
            .dram
            .read_line_detailed(&BankId::of(&coord), coord.row, coord.col))
    }

    /// Advances simulated time to `target`, issuing all commands that
    /// can legally issue before it. Queued work that cannot issue by
    /// `target` stays queued.
    pub fn advance_to(&mut self, target: Cycle) {
        while self.step(target) {}
        if self.now < target {
            self.now = target;
        }
    }

    /// Advances time only as far as needed to drain the request queue,
    /// capped at `target`. Unlike [`MemCtrl::advance_to`], the clock
    /// stops at the last issued command when the queue empties early,
    /// so callers observe precise completion times instead of
    /// quantized ones. If work remains that cannot issue by `target`,
    /// the clock lands exactly on `target`.
    pub fn run_while_busy(&mut self, target: Cycle) -> Cycle {
        while !self.queue.is_empty() {
            if !self.step(target) {
                break;
            }
        }
        if !self.queue.is_empty() && self.now < target {
            self.now = target;
        }
        self.now
    }

    /// Runs until the queue drains completely, then returns the time
    /// of the last command. Refresh continues to be scheduled while
    /// demand work remains.
    pub fn drain(&mut self) -> Cycle {
        while !self.queue.is_empty() {
            if !self.step(Cycle::MAX) {
                break;
            }
        }
        self.now
    }

    /// [`MemCtrl::advance_to`] driven by the reference scheduler
    /// ([`MemCtrl::step_reference`]), for the differential tests.
    pub fn advance_to_reference(&mut self, target: Cycle) {
        while self.step_reference(target) {}
        if self.now < target {
            self.now = target;
        }
    }

    /// [`MemCtrl::run_while_busy`] driven by the reference scheduler.
    pub fn run_while_busy_reference(&mut self, target: Cycle) -> Cycle {
        while !self.queue.is_empty() {
            if !self.step_reference(target) {
                break;
            }
        }
        if !self.queue.is_empty() && self.now < target {
            self.now = target;
        }
        self.now
    }

    /// [`MemCtrl::drain`] driven by the reference scheduler.
    pub fn drain_reference(&mut self) -> Cycle {
        while !self.queue.is_empty() {
            if !self.step_reference(Cycle::MAX) {
                break;
            }
        }
        self.now
    }

    fn rank_index(&self, channel: u32, rank: u32) -> usize {
        (channel * self.map.geometry().ranks + rank) as usize
    }

    /// Fast-scheduler telemetry: `(bank_pricings, 0, 0)`, where
    /// `bank_pricings` counts the banks with queued work that scheduling
    /// queries priced. The two zeros keep the tuple's shape for
    /// perfbench, which reads the first element. Kept out of
    /// [`McStats`] because the reference scheduler prices requests, not
    /// banks, and the differential suites compare full stats structs;
    /// hosts flush the count into the tracer's metrics registry at
    /// report time.
    pub fn wheel_counters(&self) -> (u64, u64, u64) {
        (self.bank_pricings, 0, 0)
    }

    /// Computes the next command a pending request needs.
    fn next_cmd(&self, p: &Pending) -> Option<DdrCommand> {
        self.next_cmd_given(p, self.dram.open_row(&p.bank))
    }

    /// [`MemCtrl::next_cmd`] with the bank's open row supplied by the
    /// caller (the fast path reuses one snapshot per bank).
    fn next_cmd_given(&self, p: &Pending, open: Option<u32>) -> Option<DdrCommand> {
        match p.req.kind {
            RequestKind::Read | RequestKind::Write => {
                let is_write = matches!(p.req.kind, RequestKind::Write);
                let auto_pre = self.config.page_policy == PagePolicy::Closed;
                match open {
                    Some(r) if r == p.coord.row => Some(if is_write {
                        DdrCommand::Wr {
                            bank: p.bank,
                            col: p.coord.col,
                            auto_pre,
                        }
                    } else {
                        DdrCommand::Rd {
                            bank: p.bank,
                            col: p.coord.col,
                            auto_pre,
                        }
                    }),
                    Some(_) => Some(DdrCommand::Pre { bank: p.bank }),
                    None => Some(DdrCommand::Act {
                        bank: p.bank,
                        row: p.coord.row,
                    }),
                }
            }
            RequestKind::Refresh { auto_pre } => match p.phase {
                Phase::Init => match open {
                    Some(_) => Some(DdrCommand::Pre { bank: p.bank }),
                    None => Some(DdrCommand::Act {
                        bank: p.bank,
                        row: p.coord.row,
                    }),
                },
                Phase::Acted => {
                    if auto_pre {
                        Some(DdrCommand::Pre { bank: p.bank })
                    } else {
                        None // complete immediately
                    }
                }
            },
            RequestKind::RefNeighbors { radius } => match open {
                Some(_) => Some(DdrCommand::Pre { bank: p.bank }),
                None => Some(DdrCommand::RefNeighbors {
                    bank: p.bank,
                    row: p.coord.row,
                    radius,
                }),
            },
        }
    }

    fn candidate_for(&self, index: usize) -> Option<Candidate> {
        let p = &self.queue[index];
        let cmd = self.next_cmd(p)?;
        let ch = cmd.channel() as usize;
        let at = self
            .dram
            .earliest(&cmd)
            .max(p.req.arrival)
            .max(self.cmd_bus_free[ch])
            .max(self.now);
        self.finish_candidate(index, cmd, at)
    }

    /// [`MemCtrl::candidate_for`] with the device probe replaced by a
    /// per-bank timing snapshot: `bt` carries the earliest legal cycle
    /// of every command class for this request's bank, so pricing a
    /// whole bank's ready queue costs one probe total.
    fn candidate_from_snapshot(&self, index: usize, bt: &BankTiming) -> Option<Candidate> {
        let p = &self.queue[index];
        let cmd = self.next_cmd_given(p, bt.open_row)?;
        let class_at = match cmd {
            DdrCommand::Act { .. } => bt.act,
            DdrCommand::Pre { .. } => bt.pre,
            DdrCommand::Rd { .. } | DdrCommand::Wr { .. } => bt.rdwr,
            DdrCommand::RefNeighbors { .. } => bt.act_local,
            DdrCommand::PreAll { .. } | DdrCommand::Ref { .. } => {
                unreachable!("requests never need rank-scope commands")
            }
        };
        let ch = cmd.channel() as usize;
        let at = class_at
            .max(p.req.arrival)
            .max(self.cmd_bus_free[ch])
            .max(self.now);
        self.finish_candidate(index, cmd, at)
    }

    /// Shared tail of candidate pricing: throttle blacklist, data-bus
    /// occupancy, and priority class.
    fn finish_candidate(&self, index: usize, cmd: DdrCommand, mut at: Cycle) -> Option<Candidate> {
        if at == Cycle::MAX {
            return None;
        }
        let p = &self.queue[index];
        let timing = self.dram.config().timing;
        let ch = cmd.channel() as usize;
        // Throttle map: blacklisted ACTs wait.
        if let DdrCommand::Act { bank, row } = cmd {
            let g = self.map.geometry();
            if let Some(&until) = self.throttle.get(&(bank.flat(g), row)) {
                at = at.max(until);
            }
        }
        // Data-bus occupancy for CAS commands.
        let priority = match cmd {
            DdrCommand::Rd { .. } | DdrCommand::Wr { .. } => {
                let lead = if matches!(cmd, DdrCommand::Rd { .. }) {
                    timing.cl
                } else {
                    timing.cwl
                };
                let bus_free = self.data_bus_free[ch];
                if at + lead < bus_free {
                    at = Cycle(bus_free.raw().saturating_sub(lead));
                }
                1
            }
            _ if p.req.kind.is_maintenance() => 1,
            _ => 2,
        };
        // Forced refresh: once a rank's pending REF has been postponed
        // to the edge of its pull-in window, the rank stops accepting
        // request commands. Its banks then drain (tRAS + tRP, well
        // under one tREFI), the refresh candidate is the only one
        // left, and the REF lands inside the JEDEC 9×tREFI bound that
        // `hammertime-check` enforces. Without this barrier a
        // saturating workload starves REF indefinitely under FR-FCFS,
        // because a demand candidate's issue slot is always earlier
        // than a REF that must first settle every bank.
        let due = self.next_ref[self.rank_index(p.bank.channel, p.bank.rank)];
        if due != Cycle::MAX && timing.t_refi > 0 && at >= due + FORCED_REF_LEAD * timing.t_refi {
            return None;
        }
        Some(Candidate {
            issue_at: at,
            priority,
            seq: p.seq,
            kind: CandidateKind::Request { index, cmd },
        })
    }

    fn refresh_candidate(&self, channel: u32, rank: u32) -> Option<Candidate> {
        let due = self.next_ref[self.rank_index(channel, rank)];
        if due == Cycle::MAX {
            return None;
        }
        // If any bank in the rank is open we must precharge-all first.
        let ref_cmd = DdrCommand::Ref { channel, rank };
        let (cmd, need_pre) = if self.dram.earliest(&ref_cmd) == Cycle::MAX {
            (DdrCommand::PreAll { channel, rank }, true)
        } else {
            (ref_cmd, false)
        };
        let at = self
            .dram
            .earliest(&cmd)
            .max(due)
            .max(self.cmd_bus_free[channel as usize])
            .max(self.now);
        if at == Cycle::MAX {
            return None;
        }
        Some(Candidate {
            issue_at: at,
            priority: 0,
            seq: 0,
            kind: CandidateKind::RankRefresh {
                channel,
                rank,
                need_pre,
            },
        })
    }

    /// Issues at most one command at or before `target`. Returns `true`
    /// if it made progress (issued, or resolved a throttle decision).
    /// Thin wrapper over [`MemCtrl::run_until`] — as are `advance_to`,
    /// `run_while_busy`, and `drain`, which just loop it.
    fn step(&mut self, target: Cycle) -> bool {
        self.run_until(target)
    }

    /// Issues the earliest candidate if it falls at or before `target`.
    ///
    /// Every call is one fresh scheduling query
    /// ([`MemCtrl::compute_best`]); no scheduler state survives between
    /// calls, so no mutation has to tell the scheduler what it changed.
    /// Byte-identical to [`MemCtrl::step_reference`]; the differential
    /// suites in `tests/` enforce it.
    fn run_until(&mut self, target: Cycle) -> bool {
        if self.wedged.is_some() {
            return false;
        }
        self.stats.sched_steps += 1;
        // A refresh instruction without auto-precharge completes as
        // soon as its ACT has issued, before any further command.
        if let Some(index) = self.acted_refresh.take() {
            self.complete(index, self.now);
            return true;
        }
        let Some(c) = self.compute_best() else {
            return false;
        };
        if c.issue_at > target {
            return false;
        }
        self.issue_candidate(c)
    }

    /// One scheduling query: the earliest candidate across the rank
    /// refresh timers and every bank with queued work.
    fn compute_best(&mut self) -> Option<Candidate> {
        let g = *self.map.geometry();
        // Rank refresh timers first, in (channel, rank) order: equal
        // tuples keep the earlier scan position, exactly as in the
        // reference scan. `due.max(bus).max(now)` lower-bounds the full
        // candidate, so ranks that cannot win (`>=`: ties lose to the
        // earlier position) skip the device probe entirely.
        let mut best: Option<Candidate> = None;
        for ch in 0..g.channels {
            for rk in 0..g.ranks {
                let due = self.next_ref[self.rank_index(ch, rk)];
                if due == Cycle::MAX {
                    continue;
                }
                let lb = due.max(self.cmd_bus_free[ch as usize]).max(self.now);
                if best.as_ref().is_some_and(|b| lb >= b.issue_at) {
                    continue;
                }
                if let Some(c) = self.refresh_candidate(ch, rk) {
                    if best.as_ref().is_none_or(|b| better(&c, b)) {
                        best = Some(c);
                    }
                }
            }
        }
        // Then each bank's best request. Request tuples can never
        // exactly tie a refresh candidate (priority 0 vs >= 1) or each
        // other (unique seq), so the bank order cannot change the
        // winner.
        for b in 0..self.by_bank.len() {
            if self.by_bank[b].first().is_none() {
                continue;
            }
            self.bank_pricings += 1;
            if let Some(c) = self.bank_candidate(b) {
                if best.as_ref().is_none_or(|x| better(&c, x)) {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// Prices one bank against a single timing snapshot: the bank's
    /// best candidate, or `None` when it has no issuable work (empty,
    /// or parked behind a forced refresh of its rank).
    ///
    /// Only requests that can still win are priced. Every demand
    /// request needs one of three commands, and each class is walked
    /// oldest first ([`MemCtrl::walk_class`]):
    ///
    /// - with a row open, the reads and then the writes to it (CAS);
    /// - with a row open, every request to another row (PRE);
    /// - with the bank closed, every request (ACT). The throttle map
    ///   can delay an ACT per row, so the oldest request need not win
    ///   and the walk goes on past throttled rows.
    ///
    /// Maintenance requests need a command that depends on their
    /// phase, so each of them is priced.
    fn bank_candidate(&self, b: usize) -> Option<Candidate> {
        let q = &self.by_bank[b];
        let bank_id = self.queue[q.first()?.index].bank;
        let ch = bank_id.channel as usize;
        let bt = self.dram.bank_timing(&bank_id);
        let base = self.cmd_bus_free[ch].max(self.now);
        let mut best = None;
        // Floor zero at priority zero: no candidate beats it, so the
        // walk prices every maintenance request.
        self.walk_class(q.maintenance(), Cycle::ZERO, 0, &bt, &mut best);
        match bt.open_row {
            Some(row) => {
                let timing = &self.dram.config().timing;
                let cas = base.max(bt.rdwr);
                for (op, lead) in [(Op::Read, timing.cl), (Op::Write, timing.cwl)] {
                    // A CAS is lifted so that its burst starts once
                    // the data bus is free.
                    let floor = cas.max(Cycle(self.data_bus_free[ch].raw().saturating_sub(lead)));
                    self.walk_class(q.to_row(row, op), floor, 1, &bt, &mut best);
                }
                let misses = q.oldest_first().filter(|e| e.row != row);
                self.walk_class(misses, base.max(bt.pre), 2, &bt, &mut best);
            }
            None => self.walk_class(q.oldest_first(), base.max(bt.act), 2, &bt, &mut best),
        }
        best
    }

    /// Prices one command class of a bank, oldest first, into `best`.
    /// Every candidate in the class is `(at, priority, seq)` with
    /// `at >= floor`, so once `best` beats `(floor, priority, seq)` of
    /// the next entry it beats that entry and every younger one, and
    /// the walk stops. A future arrival or a throttled row only keeps
    /// it going. `None` from pricing is a request parked behind a
    /// forced refresh of its rank (the acted-refresh completion case
    /// is intercepted in `run_until` before the query).
    fn walk_class<'a>(
        &self,
        class: impl IntoIterator<Item = &'a Entry>,
        floor: Cycle,
        priority: u8,
        bt: &BankTiming,
        best: &mut Option<Candidate>,
    ) {
        for e in class {
            if best
                .as_ref()
                .is_some_and(|b| key_of(b) < (floor, priority, e.seq))
            {
                break;
            }
            let Some(c) = self.candidate_from_snapshot(e.index, bt) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| better(&c, b)) {
                *best = Some(c);
            }
        }
    }

    /// The pre-optimization scheduler: one linear FR-FCFS scan over
    /// every refresh scheduler and queued request, re-probing timing
    /// legality per request per step. Kept verbatim as the differential
    /// oracle for [`MemCtrl::step`].
    pub fn step_reference(&mut self, target: Cycle) -> bool {
        if self.wedged.is_some() {
            return false;
        }
        self.stats.sched_steps += 1;
        let g = *self.map.geometry();
        let mut best: Option<Candidate> = None;
        for ch in 0..g.channels {
            for rk in 0..g.ranks {
                if let Some(c) = self.refresh_candidate(ch, rk) {
                    if best.as_ref().is_none_or(|b| better(&c, b)) {
                        best = Some(c);
                    }
                }
            }
        }
        for i in 0..self.queue.len() {
            if let Some(c) = self.candidate_for(i) {
                if best.as_ref().is_none_or(|b| better(&c, b)) {
                    best = Some(c);
                }
            } else if matches!(
                self.queue[i].req.kind,
                RequestKind::Refresh { auto_pre: false }
            ) && self.queue[i].phase == Phase::Acted
            {
                // Refresh instruction without auto-precharge completes
                // as soon as its ACT has issued.
                self.complete(i, self.now);
                return true;
            }
        }
        let Some(c) = best else {
            return false;
        };
        if c.issue_at > target {
            return false;
        }
        self.issue_candidate(c)
    }

    fn issue_candidate(&mut self, c: Candidate) -> bool {
        match c.kind {
            CandidateKind::RankRefresh {
                channel,
                rank,
                need_pre,
            } => {
                let cmd = if need_pre {
                    DdrCommand::PreAll { channel, rank }
                } else {
                    DdrCommand::Ref { channel, rank }
                };
                let outcome = match self.dram.issue(&cmd, c.issue_at) {
                    Ok(o) => o,
                    Err(e) => {
                        // A scheduler/device disagreement is a wedge,
                        // not a panic: record it and stop issuing.
                        self.record_fault(format!(
                            "scheduler issued illegal {cmd} at {}: {e}",
                            c.issue_at
                        ));
                        return false;
                    }
                };
                self.now = c.issue_at;
                self.cmd_bus_free[channel as usize] = c.issue_at + 1;
                if !need_pre {
                    let idx = self.rank_index(channel, rank);
                    let due = self.next_ref[idx];
                    if c.issue_at < due {
                        // Pulled-in REF (issued before its deadline,
                        // e.g. via the JEDEC postpone/pull-in window or
                        // a host refresh instruction racing the
                        // scheduler). `delta` would underflow here, so
                        // it gets its own counter and metric.
                        self.stats.early_refs += 1;
                        if let Some(tracer) = &self.config.tracer {
                            tracer.observe("mc.refresh_pull_in", due.delta(c.issue_at));
                        }
                    } else if let Some(tracer) = &self.config.tracer {
                        // Slack between when the REF was due and when
                        // the scheduler actually got it onto the bus —
                        // the margin an attack must exhaust to starve
                        // refresh.
                        tracer.observe("mc.refresh_slack", c.issue_at.delta(due));
                    }
                    let t_refi = self.dram.config().timing.t_refi;
                    if t_refi > 0 && c.issue_at >= due + FORCED_REF_LEAD * t_refi {
                        // This REF only got through because the forced-
                        // refresh barrier stopped feeding the rank. The
                        // starvation is charged to the channel's most
                        // recent activator — the traffic that kept the
                        // rank busy.
                        self.stats.refs_forced += 1;
                        if let Some(d) = self.last_act_domain[channel as usize] {
                            self.charge(d, 1, |t| &mut t.forced_refs);
                        }
                    }
                    self.next_ref[idx] += t_refi;
                    self.stats.refs_issued += 1;
                    let _ = outcome;
                }
                true
            }
            CandidateKind::Request { index, cmd } => self.issue_request_cmd(index, cmd, c.issue_at),
        }
    }

    fn issue_request_cmd(&mut self, index: usize, cmd: DdrCommand, at: Cycle) -> bool {
        let g = *self.map.geometry();
        // Throttling decision happens at the moment an ACT would issue.
        if let DdrCommand::Act { bank, row } = cmd {
            let is_demand = !self.queue[index].req.kind.is_maintenance();
            if is_demand {
                let flat = bank.flat(&g);
                let domain = self.queue[index].req.domain;
                match self.mitigation.on_act(flat, row, domain, at) {
                    ActAction::Proceed => {
                        self.throttle.remove(&(flat, row));
                    }
                    ActAction::Delay(d) => {
                        self.stats.throttle_events += 1;
                        self.charge(domain, 1, |t| &mut t.throttle_delays);
                        // A zero-cycle delay would re-elect the same
                        // candidate at the same time forever, spinning
                        // `advance_to`; postpone by at least one cycle.
                        self.throttle.insert((flat, row), at + d.max(1));
                        return true; // decision made; retry later
                    }
                }
            }
        }
        let trr_before = self.dram.trr_samples();
        let outcome = match self.dram.issue(&cmd, at) {
            Ok(o) => o,
            Err(e) => {
                // A scheduler/device disagreement is a wedge, not a
                // panic: record it and stop issuing.
                self.record_fault(format!("scheduler issued illegal {cmd} at {at}: {e}"));
                return false;
            }
        };
        self.now = at;
        let ch = cmd.channel() as usize;
        self.cmd_bus_free[ch] = at + 1;

        let p = &mut self.queue[index];
        match cmd {
            DdrCommand::Act { bank, row } => {
                p.had_miss = true;
                if let RequestKind::Refresh { auto_pre } = p.req.kind {
                    p.phase = Phase::Acted;
                    if !auto_pre {
                        // Completes on the next step, before any other
                        // command (see `step`).
                        self.acted_refresh = Some(index);
                    }
                }
                let is_demand = !p.req.kind.is_maintenance();
                let line = p.req.line;
                let domain = p.req.domain;
                if is_demand {
                    // Demand ACTs feed the counters and trackers; ACTs
                    // performed *by* defenses do not, preventing
                    // defense-induced interrupt feedback loops.
                    let ch_idx = bank.channel as usize;
                    self.last_act_domain[ch_idx] = Some(domain);
                    // The in-DRAM TRR sampler just consumed this ACT
                    // (if present); charge the sample to its issuer.
                    let trr_delta = self.dram.trr_samples() - trr_before;
                    self.charge(domain, trr_delta, |t| &mut t.trr_samples);
                    let mut counted = true;
                    if self.stuck_acts[ch_idx] > 0 {
                        // A stuck ACT_COUNT window swallows this ACT.
                        self.stuck_acts[ch_idx] -= 1;
                        counted = false;
                    } else if let Some(fc) = &mut self.faults {
                        if fc.fire(FaultKind::StuckActCount) {
                            self.stuck_acts[ch_idx] = fc.plan().stuck_window;
                            counted = false;
                            if let Some(tracer) = &self.config.tracer {
                                tracer.emit(
                                    at,
                                    Event::FaultInjected {
                                        kind: FaultKind::StuckActCount.name().into(),
                                    },
                                );
                            }
                        }
                    }
                    if counted {
                        // The swallowed window also skips attribution:
                        // a saturated shared counter must not inflate
                        // any tenant's ledger (let alone an innocent
                        // one's suspect score).
                        let row_key = ((bank.flat(&g) as u64) << 32) | u64::from(row);
                        if let Some(charged) =
                            self.counters
                                .on_act(bank.channel, line, domain, row_key, at)
                        {
                            self.charge(charged, 1, |t| &mut t.act_interrupts);
                        }
                    }
                    let flat = bank.flat(&g);
                    if let Some(radius) = self.mitigation.after_act(flat, row, at) {
                        self.charge(domain, 1, |t| &mut t.mitigations);
                        self.spawn_neighbor_refresh(line, radius);
                    }
                }
                true
            }
            DdrCommand::Pre { .. } => {
                let was_refresh_tail =
                    matches!(p.req.kind, RequestKind::Refresh { .. }) && p.phase == Phase::Acted;
                if p.phase == Phase::Init {
                    p.had_miss = true;
                }
                if was_refresh_tail {
                    self.complete(index, at);
                }
                true
            }
            DdrCommand::Rd { .. } | DdrCommand::Wr { .. } => {
                self.data_bus_free[ch] = outcome.done;
                self.complete(index, outcome.done);
                true
            }
            DdrCommand::RefNeighbors { bank, row, .. } => {
                // Tell stateful trackers these rows are clean now.
                let flat = bank.flat(&g);
                let radius = match cmd {
                    DdrCommand::RefNeighbors { radius, .. } => radius,
                    _ => unreachable!(),
                };
                let rows: Vec<u32> = (1..=radius)
                    .flat_map(|d| [row.checked_sub(d), row.checked_add(d)])
                    .flatten()
                    .collect();
                self.mitigation.on_rows_refreshed(flat, &rows);
                self.complete(index, outcome.done);
                true
            }
            DdrCommand::PreAll { .. } | DdrCommand::Ref { .. } => {
                unreachable!("rank refresh handled separately")
            }
        }
    }

    fn spawn_neighbor_refresh(&mut self, line: CacheLineAddr, radius: u32) {
        let coord = match self.map.to_coord(line) {
            Ok(c) => c,
            Err(_) => return,
        };
        let req = MemRequest {
            id: u64::MAX,
            line,
            kind: RequestKind::RefNeighbors { radius },
            source: hammertime_common::RequestSource::Core(0),
            domain: DomainId::HOST,
            arrival: self.now,
        };
        self.push_pending(req, coord, true);
    }

    fn complete(&mut self, index: usize, done: Cycle) {
        let g = *self.map.geometry();
        let last = self.queue.len() - 1;
        // Keep the per-bank index and the acted-refresh pointer in sync
        // with the swap_remove below: `index` leaves, `last` moves to
        // `index`.
        let leaving = &self.queue[index];
        let flat = leaving.bank.flat(&g);
        self.by_bank[flat].remove(leaving.entry(index));
        if index != last {
            let moved = &self.queue[last];
            let moved_flat = moved.bank.flat(&g);
            self.by_bank[moved_flat].reindex(moved.entry(last), index);
        }
        match self.acted_refresh {
            Some(i) if i == index => self.acted_refresh = None,
            Some(i) if i == last => self.acted_refresh = Some(index),
            _ => {}
        }
        let p = self.queue.swap_remove(index);
        match p.req.kind {
            RequestKind::Read => {
                self.stats.reads += 1;
                self.stats.latency_sum += done.delta(p.req.arrival);
            }
            RequestKind::Write => {
                self.stats.writes += 1;
                self.stats.latency_sum += done.delta(p.req.arrival);
            }
            _ => self.stats.maintenance_ops += 1,
        }
        if !p.req.kind.is_maintenance() {
            if p.had_miss {
                // Classify: conflict if another row was open when the
                // request was first considered — approximated as a miss
                // here; precise conflict classification is kept simple.
                self.stats.row_misses += 1;
                self.completions_since_hit += 1;
            } else {
                self.stats.row_hits += 1;
                if let Some(tracer) = &self.config.tracer {
                    // Row-buffer hit distance: demand misses completed
                    // since the previous hit (0 = back-to-back hits).
                    tracer.observe("mc.row_hit_distance", self.completions_since_hit);
                }
                self.completions_since_hit = 0;
            }
        }
        if !p.internal {
            self.completions.push(Completion {
                id: p.req.id,
                line: p.req.line,
                kind: p.req.kind,
                done,
                arrival: p.req.arrival,
                row_hit: !p.had_miss,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::RequestSource;

    fn dram_cfg(mac: u64) -> DramConfig {
        DramConfig::test_config(mac)
    }

    fn mc(config: MemCtrlConfig, mac: u64) -> MemCtrl {
        MemCtrl::new(config, dram_cfg(mac), 7).unwrap()
    }

    fn read(id: u64, line: u64, at: u64) -> MemRequest {
        MemRequest {
            id,
            line: CacheLineAddr(line),
            kind: RequestKind::Read,
            source: RequestSource::Core(0),
            domain: DomainId(1),
            arrival: Cycle(at),
        }
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        m.submit(read(1, 0, 0)).unwrap();
        m.drain();
        let c = m.drain_completions();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].id, 1);
        assert!(!c[0].row_hit);
        let t = m.dram().config().timing;
        // ACT at arrival, RD after tRCD, data CL + tBL later.
        assert_eq!(c[0].done, Cycle(t.t_rcd + t.cl + t.t_bl));
        assert_eq!(m.stats().reads, 1);
        assert_eq!(m.stats().row_misses, 1);
    }

    #[test]
    fn second_read_same_row_is_a_hit() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        m.submit(read(1, 0, 0)).unwrap();
        m.submit(read(2, 1, 0)).unwrap(); // next line: same row, next col? depends on map
        m.drain();
        let c = m.drain_completions();
        assert_eq!(c.len(), 2);
        // With small_test geometry (2 banks), line 1 maps to the other
        // bank; line 2 maps back to bank 0 same row. Use stats instead.
        assert!(m.stats().row_hits + m.stats().row_misses == 2);
    }

    #[test]
    fn reads_to_same_row_hit_row_buffer() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        // small_test: interleave layout [ch0][bg0][bank1][col3][rank0][row...]
        // lines 0 and 2 share bank 0; col differs, same row 0.
        m.submit(read(1, 0, 0)).unwrap();
        m.submit(read(2, 2, 0)).unwrap();
        m.drain();
        let c = m.drain_completions();
        assert_eq!(c.len(), 2);
        let hit = c.iter().find(|c| c.id == 2).unwrap();
        assert!(hit.row_hit, "same-row follow-up must be a row-buffer hit");
        assert_eq!(m.stats().row_hits, 1);
    }

    #[test]
    fn conflicting_rows_force_precharge() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        let g = *m.map().geometry();
        // Two lines in the same bank, different rows: line 0 and the
        // line one full row-stripe away.
        let lines_per_row_stripe = g.total_lines() / g.rows_per_bank() as u64;
        m.submit(read(1, 0, 0)).unwrap();
        m.submit(read(2, lines_per_row_stripe, 0)).unwrap();
        m.drain();
        let c = m.drain_completions();
        assert_eq!(c.len(), 2);
        let second = c.iter().find(|c| c.id == 2).unwrap();
        let t = m.dram().config().timing;
        assert!(
            second.latency() >= t.t_ras + t.t_rp + t.t_rcd,
            "conflict pays full row cycle: {}",
            second.latency()
        );
    }

    #[test]
    fn banks_overlap_for_parallel_requests() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        // Lines 0 and 1 hit different banks under interleaving: their
        // ACTs overlap, so total time is far less than 2x serial.
        m.submit(read(1, 0, 0)).unwrap();
        m.submit(read(2, 1, 0)).unwrap();
        let end = m.drain();
        let t = m.dram().config().timing;
        let serial = 2 * (t.t_rcd + t.cl + t.t_bl);
        assert!(
            end.raw() < serial,
            "parallel banks should beat serial: {end} vs {serial}"
        );
    }

    #[test]
    fn refresh_scheduler_issues_refs() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        let t = m.dram().config().timing;
        m.advance_to(Cycle(t.t_refi * 10));
        assert!(
            m.stats().refs_issued >= 8,
            "expected ~10 REFs, got {}",
            m.stats().refs_issued
        );
        assert_eq!(m.dram_stats().refs, m.stats().refs_issued);
    }

    #[test]
    fn refresh_disabled_issues_none() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.refresh_enabled = false;
        let mut m = mc(cfg, 1_000_000);
        let t = m.dram().config().timing;
        m.advance_to(Cycle(t.t_refi * 10));
        assert_eq!(m.stats().refs_issued, 0);
    }

    #[test]
    fn early_ref_under_tracing_counts_pull_in_instead_of_underflowing() {
        // Regression: `mc.refresh_slack` was computed as
        // `issue_at.delta(next_ref)` unconditionally, which underflows
        // (debug-asserts) when a REF lands *before* its deadline. The
        // scheduler itself never pulls a REF in, so forge the race a
        // host refresh instruction can create: issue the REF candidate
        // while the rank's deadline sits in the future.
        let mut cfg = MemCtrlConfig::baseline();
        cfg.tracer = Some(Tracer::buffer());
        let mut m = mc(cfg, 1_000_000);
        let at = m.dram.earliest(&DdrCommand::Ref {
            channel: 0,
            rank: 0,
        });
        m.next_ref[0] = at + 1_000; // deadline far in the future
        let issued = m.issue_candidate(Candidate {
            issue_at: at,
            priority: 0,
            seq: 0,
            kind: CandidateKind::RankRefresh {
                channel: 0,
                rank: 0,
                need_pre: false,
            },
        });
        assert!(issued);
        assert_eq!(m.stats().refs_issued, 1);
        assert_eq!(m.stats().early_refs, 1);
        // An on-time REF afterwards records slack, not pull-in.
        let at2 = m
            .dram
            .earliest(&DdrCommand::Ref {
                channel: 0,
                rank: 0,
            })
            .max(m.next_ref[0]);
        let issued = m.issue_candidate(Candidate {
            issue_at: at2,
            priority: 0,
            seq: 1,
            kind: CandidateKind::RankRefresh {
                channel: 0,
                rank: 0,
                need_pre: false,
            },
        });
        assert!(issued);
        assert_eq!(m.stats().early_refs, 1);
        assert_eq!(m.stats().refs_issued, 2);
    }

    #[test]
    fn refresh_instruction_executes_pre_act_pre() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        // Open a row first so the refresh has to precharge.
        m.submit(read(1, 0, 0)).unwrap();
        m.drain();
        m.drain_completions();
        m.refresh_row(99, CacheLineAddr(0), true).unwrap();
        m.drain();
        let c = m.drain_completions();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].id, 99);
        assert!(matches!(c[0].kind, RequestKind::Refresh { auto_pre: true }));
        assert_eq!(m.stats().maintenance_ops, 1);
        // The ACT refreshed the row and the auto-precharge closed it.
        let (bank, row) = m.locate(CacheLineAddr(0)).unwrap();
        assert_eq!(m.dram().row_pressure(&bank, row), 0.0);
        assert_eq!(m.dram().open_row(&bank), None);
        // One demand ACT plus the refresh ACT reached the device.
        assert_eq!(m.dram_stats().acts, 2);
    }

    #[test]
    fn refresh_instruction_without_auto_pre_leaves_row_open() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        m.refresh_row(5, CacheLineAddr(0), false).unwrap();
        m.drain();
        let c = m.drain_completions();
        assert_eq!(c.len(), 1);
        let (bank, row) = m.locate(CacheLineAddr(0)).unwrap();
        assert_eq!(m.dram().open_row(&bank), Some(row));
    }

    #[test]
    fn guest_cannot_issue_maintenance() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        let bad = MemRequest {
            id: 1,
            line: CacheLineAddr(0),
            kind: RequestKind::Refresh { auto_pre: true },
            source: RequestSource::Core(1),
            domain: DomainId(2),
            arrival: Cycle::ZERO,
        };
        assert!(matches!(m.submit(bad), Err(Error::Privilege(_))));
    }

    #[test]
    fn ref_neighbors_clears_victim_pressure() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        // Hammer line 0's row via repeated conflicting reads.
        let g = *m.map().geometry();
        let stripe = g.total_lines() / g.rows_per_bank() as u64;
        for i in 0..20 {
            m.submit(read(i, 0, 0)).unwrap();
            m.submit(read(100 + i, stripe, 0)).unwrap();
            m.drain();
        }
        let (bank, row) = m.locate(CacheLineAddr(0)).unwrap();
        let neighbor = row + 1;
        assert!(m.dram().row_pressure(&bank, neighbor) > 0.0);
        m.ref_neighbors(7, CacheLineAddr(0), 2).unwrap();
        m.drain();
        assert_eq!(m.dram().row_pressure(&bank, neighbor), 0.0);
        assert!(m.drain_completions().iter().any(|c| c.id == 7));
    }

    #[test]
    fn act_counters_fire_with_addresses() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.act_counters = ActCounterConfig::precise(4);
        cfg.act_counters.randomize_reset_window = 0;
        let mut m = mc(cfg, 1_000_000);
        let g = *m.map().geometry();
        let stripe = g.total_lines() / g.rows_per_bank() as u64;
        // Alternate two rows in one bank: every access ACTs.
        for i in 0..6 {
            m.submit(read(2 * i, 0, 0)).unwrap();
            m.submit(read(2 * i + 1, stripe, 0)).unwrap();
            m.drain();
        }
        let ints = m.drain_interrupts();
        assert!(!ints.is_empty());
        for int in &ints {
            assert!(int.addr.is_some(), "precise mode must carry addresses");
            let line = int.addr.unwrap();
            assert!(line == CacheLineAddr(0) || line == CacheLineAddr(stripe));
        }
    }

    #[test]
    fn para_mitigation_spawns_neighbor_refreshes() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.mitigation = McMitigationConfig::Para {
            prob: 1.0,
            radius: 1,
        };
        let mut m = mc(cfg, 1_000_000);
        let g = *m.map().geometry();
        let stripe = g.total_lines() / g.rows_per_bank() as u64;
        for i in 0..5 {
            m.submit(read(2 * i, 0, 0)).unwrap();
            m.submit(read(2 * i + 1, stripe, 0)).unwrap();
        }
        m.drain();
        assert!(
            m.dram_stats().ref_neighbor_rows > 0,
            "PARA at p=1 must refresh"
        );
        // Internal maintenance does not surface as completions.
        assert!(m
            .drain_completions()
            .iter()
            .all(|c| !c.kind.is_maintenance()));
    }

    #[test]
    fn blockhammer_throttles_hammer_stream() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.mitigation = McMitigationConfig::BlockHammer {
            cbf_counters: 64,
            hashes: 2,
            threshold: 5,
            delay: 500,
            epoch: 1_000_000,
        };
        let mut m = mc(cfg, 1_000_000);
        let g = *m.map().geometry();
        let stripe = g.total_lines() / g.rows_per_bank() as u64;
        for i in 0..15 {
            m.submit(read(2 * i, 0, 0)).unwrap();
            m.submit(read(2 * i + 1, stripe, 0)).unwrap();
            m.drain();
        }
        assert!(m.stats().throttle_events > 0, "hot rows must be throttled");
        assert!(m.mitigation().throttle_cycles > 0);
    }

    #[test]
    fn domain_enforcement_blocks_foreign_groups() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.mapping = MappingScheme::SubarrayIsolated;
        cfg.enforce_domain_groups = true;
        let mut dc = dram_cfg(1_000_000);
        dc.geometry = hammertime_common::Geometry::medium();
        let mut m = MemCtrl::new(cfg, dc, 7).unwrap();
        m.assign_group(0, Some(DomainId(1))).unwrap();
        m.assign_group(1, Some(DomainId(2))).unwrap();
        // Domain 1 may touch group 0.
        let group0_line = 0;
        assert!(m.submit(read(1, group0_line, 0)).is_ok());
        // Domain 1 may not touch group 1.
        let group1_first_frame = m.map().frames_of_group(1).unwrap().start;
        let line_in_group1 = group1_first_frame * 64;
        let mut bad = read(2, line_in_group1, 0);
        bad.domain = DomainId(1);
        assert!(matches!(m.submit(bad), Err(Error::Privilege(_))));
        assert_eq!(m.stats().domain_violations, 1);
        // Host can touch anything.
        let mut host = read(3, line_in_group1, 0);
        host.domain = DomainId::HOST;
        assert!(m.submit(host).is_ok());
    }

    #[test]
    fn enforcement_requires_subarray_mapping() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.enforce_domain_groups = true;
        assert!(MemCtrl::new(cfg, dram_cfg(100), 7).is_err());
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.queue_capacity = 2;
        let mut m = mc(cfg, 1_000_000);
        m.submit(read(1, 0, 0)).unwrap();
        m.submit(read(2, 1, 0)).unwrap();
        assert!(matches!(m.submit(read(3, 2, 0)), Err(Error::Exhausted(_))));
    }

    #[test]
    fn data_path_round_trips_through_translation() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        let data = vec![0x3C; 64];
        m.write_data(CacheLineAddr(5), &data).unwrap();
        let (read_back, poisoned) = m.read_data(CacheLineAddr(5)).unwrap();
        assert_eq!(read_back, data);
        assert!(!poisoned);
    }

    #[test]
    fn advance_to_does_not_overrun_target() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        m.submit(read(1, 0, 1_000)).unwrap();
        m.advance_to(Cycle(500));
        assert_eq!(m.now(), Cycle(500));
        assert!(m.drain_completions().is_empty(), "arrival in the future");
        m.advance_to(Cycle(2_000));
        assert_eq!(m.drain_completions().len(), 1);
    }

    fn fault_cfg(plan: FaultPlan) -> MemCtrlConfig {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.faults = Some(plan);
        cfg
    }

    #[test]
    fn inert_fault_plan_matches_no_plan() {
        let mut plain = mc(MemCtrlConfig::baseline(), 1_000_000);
        let mut faulty = mc(fault_cfg(FaultPlan::none()), 1_000_000);
        for m in [&mut plain, &mut faulty] {
            for i in 0..20 {
                m.submit(read(i, i % 8, 0)).unwrap();
            }
            m.drain();
        }
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(plain.drain_completions(), faulty.drain_completions());
        assert_eq!(faulty.fault_injections(), 0);
    }

    #[test]
    fn refresh_nack_is_a_typed_fault() {
        let mut plan = FaultPlan::none();
        plan.refresh_nack = 1.0;
        let mut m = mc(fault_cfg(plan), 1_000_000);
        let err = m.refresh_row(1, CacheLineAddr(0), true).unwrap_err();
        assert!(matches!(err, Error::Fault(_)), "got {err:?}");
        // Demand traffic is unaffected.
        m.submit(read(2, 0, 0)).unwrap();
        m.drain();
        assert_eq!(m.drain_completions().len(), 1);
        assert_eq!(m.fault_injections(), 1);
    }

    #[test]
    fn wedged_controller_refuses_work_without_panicking() {
        let mut m = mc(MemCtrlConfig::baseline(), 1_000_000);
        m.submit(read(1, 0, 0)).unwrap();
        m.drain();
        m.record_fault("scheduler issued illegal ACT".into());
        assert!(matches!(m.fault_state(), Some(Error::Fault(_))));
        let err = m.submit(read(2, 1, 0)).unwrap_err();
        assert!(matches!(err, Error::Fault(_)));
        // Stepping a wedged controller is a no-op, not a panic.
        assert!(!m.step(Cycle::MAX));
        assert!(!m.step_reference(Cycle::MAX));
    }

    fn hammer_two_rows(m: &mut MemCtrl, pairs: u64) {
        let g = *m.map().geometry();
        let stripe = g.total_lines() / g.rows_per_bank() as u64;
        for i in 0..pairs {
            m.submit(read(2 * i, 0, 0)).unwrap();
            m.submit(read(2 * i + 1, stripe, 0)).unwrap();
            m.drain();
        }
    }

    #[test]
    fn dropped_interrupts_never_reach_the_host() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.act_counters = ActCounterConfig::precise(4);
        cfg.act_counters.randomize_reset_window = 0;
        let mut plan = FaultPlan::none();
        plan.dropped_interrupt = 1.0;
        cfg.faults = Some(plan);
        let mut m = mc(cfg, 1_000_000);
        hammer_two_rows(&mut m, 6);
        assert!(m.drain_interrupts().is_empty());
        assert!(m.fault_injections() > 0);
    }

    #[test]
    fn delayed_interrupts_arrive_late_with_shifted_timestamps() {
        let mut cfg = MemCtrlConfig::baseline();
        cfg.act_counters = ActCounterConfig::precise(4);
        cfg.act_counters.randomize_reset_window = 0;
        let delay = 10_000_000;
        let mut plan = FaultPlan::none();
        plan.delayed_interrupt = 1.0;
        plan.interrupt_delay = delay;
        cfg.faults = Some(plan);
        let mut m = mc(cfg, 1_000_000);
        hammer_two_rows(&mut m, 6);
        let raised_by = m.now();
        // Every interrupt is held back: nothing is deliverable yet.
        assert!(m.drain_interrupts().is_empty());
        assert!(m.fault_injections() > 0);
        // Once the clock passes the delayed delivery time they land,
        // timestamped after the original raise.
        m.advance_to(Cycle(raised_by.raw() + delay));
        let ints = m.drain_interrupts();
        assert!(!ints.is_empty(), "delayed interrupts must eventually land");
        for int in &ints {
            assert!(int.time > raised_by);
            assert!(int.time <= m.now());
        }
    }

    #[test]
    fn stuck_act_count_suppresses_counting_for_a_window() {
        let mut base = MemCtrlConfig::baseline();
        base.act_counters = ActCounterConfig::precise(4);
        base.act_counters.randomize_reset_window = 0;
        let mut stuck = base.clone();
        let mut plan = FaultPlan::none();
        plan.stuck_act_count = 1.0;
        plan.stuck_window = u64::MAX;
        stuck.faults = Some(plan);

        let mut healthy = mc(base, 1_000_000);
        let mut wedged = mc(stuck, 1_000_000);
        hammer_two_rows(&mut healthy, 6);
        hammer_two_rows(&mut wedged, 6);
        assert!(!healthy.drain_interrupts().is_empty());
        // With the counter stuck from the first ACT on, no threshold
        // crossing ever happens.
        assert!(wedged.drain_interrupts().is_empty());
        assert!(wedged.fault_injections() > 0);
    }

    #[test]
    fn remap_corruption_keeps_requests_completing() {
        let mut plan = FaultPlan::none();
        plan.remap_corrupt = 1.0;
        let mut m = mc(fault_cfg(plan), 1_000_000);
        for i in 0..8 {
            m.submit(read(i, i, 0)).unwrap();
        }
        m.drain();
        // Requests land on bit-flipped rows, but they still complete:
        // corruption degrades placement, not liveness.
        assert_eq!(m.drain_completions().len(), 8);
        assert_eq!(m.fault_injections(), 8);
    }

    #[test]
    fn fault_decisions_are_reproducible_across_runs() {
        let mut plan = FaultPlan::none();
        plan.refresh_nack = 0.5;
        plan.seed = 0xFEED;
        let outcomes = |_: ()| {
            let mut m = mc(fault_cfg(plan), 1_000_000);
            (0..32)
                .map(|i| m.refresh_row(i, CacheLineAddr(0), true).is_err())
                .collect::<Vec<_>>()
        };
        let a = outcomes(());
        let b = outcomes(());
        assert_eq!(a, b);
        assert!(a.iter().any(|&e| e) && a.iter().any(|&e| !e));
    }
}
