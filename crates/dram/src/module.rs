//! The DRAM module: ranks of banks behind one command interface.
//!
//! [`DramModule`] is the device the memory controller programs. It
//! owns:
//!
//! - per-bank FSMs with bank-local timing ([`crate::bank`]);
//! - rank-level constraints (tRRD same/different bank group, the tFAW
//!   four-activate window, tRFC refresh occupancy);
//! - the refresh-group cursor each REF advances through (every row is
//!   covered once per tREFW, paper §2.1);
//! - internal row remapping ([`crate::remap`]) — commands address
//!   *logical* rows; disturbance physics run on *internal* rows;
//! - the disturbance model and flip sampling ([`crate::disturb`]);
//! - the optional in-DRAM TRR engine ([`crate::trr`]);
//! - sparse row data with poison tracking ([`crate::data`]).
//!
//! Flip events are queued and drained by the caller
//! ([`DramModule::drain_flips`]); rows in those events are reported in
//! logical coordinates, the only ones visible outside the device.

use crate::bank::{Bank, Disturbance, TimingSoA};
use crate::command::DdrCommand;
use crate::data::{EccOutcome, RowDataStore, RowKey};
use crate::disturb::{DisturbanceProfile, FlipEvent};
use crate::remap::{RemapConfig, RowRemap};
use crate::stats::DramStats;
use crate::timing::TimingParams;
use crate::trr::{TrrConfig, TrrEngine};
use hammertime_common::geometry::BankId;
use hammertime_common::{Cycle, DetRng, Error, FaultClock, FaultKind, FaultPlan, Geometry, Result};
use hammertime_telemetry::{Event, Tracer};
use serde::{Deserialize, Serialize};

/// Whether the module/controller pair runs ECC on the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EccMode {
    /// Non-ECC DIMM: every flip reaches software.
    None,
    /// SEC-DED over 64-bit words: single-bit flips corrected, double
    /// flips detected (the server-DIMM configuration; Cojocar et al.
    /// showed it raises, not removes, the bar — experiment E10).
    SecDed,
}

/// Full device configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DramConfig {
    /// Organization.
    pub geometry: Geometry,
    /// Timing constraints.
    pub timing: TimingParams,
    /// Disturbance (Rowhammer) parameters.
    pub disturbance: DisturbanceProfile,
    /// In-DRAM TRR, if the module ships one.
    pub trr: Option<TrrConfig>,
    /// Internal row remapping.
    pub remap: RemapConfig,
    /// RNG seed for flip sampling, remap layout, and TRR reservoirs.
    pub seed: u64,
    /// ECC mode on the data path.
    pub ecc: EccMode,
    /// Opt-in batched disturbance accounting: ACTs log `(aggressor,
    /// count)` runs in O(1) and victims settle at flush boundaries
    /// (refresh, RD/WR, [`DramModule::sync_disturbances`]), so an
    /// N-ACT hammer burst costs O(unique aggressor runs) instead of
    /// O(N x blast diameter). Aggregated pressure is bit-exact with
    /// the per-ACT path for dyadic decays (0.5, 1.0) and within FP
    /// rounding otherwise, but flip *timing* and RNG draw order differ
    /// — leave this off (the default) whenever byte-identical output
    /// matters.
    pub batched_pressure: bool,
    /// Fault-injection plan for device-side faults (dropped/ghost REF,
    /// TRR sampler misses, counter saturation). `None` — the default —
    /// is byte-identical to a faultless device: no hook draws from any
    /// RNG.
    pub faults: Option<FaultPlan>,
    /// Cycle-stamped event tracer. `None` — the default — costs one
    /// `is_none()` check per issued command and nothing else; `Some`
    /// records every accepted command, flip, retention check, TRR
    /// action, and injected fault. Serializes as `null` either way, so
    /// a traced config's JSON (as embedded in the trace itself) equals
    /// the untraced one.
    pub tracer: Option<Tracer>,
}

impl DramConfig {
    /// A small, fast configuration for tests: tiny geometry and timing,
    /// aggressive disturbance, no TRR, no remapping.
    pub fn test_config(mac: u64) -> DramConfig {
        DramConfig {
            geometry: Geometry::small_test(),
            timing: TimingParams::tiny_test(),
            disturbance: DisturbanceProfile {
                mac,
                blast_radius: 2,
                distance_decay: 0.5,
                flip_prob: 1.0,
                overshoot_step: 0.05,
            },
            trr: None,
            remap: RemapConfig::identity(),
            seed: 42,
            ecc: EccMode::None,
            batched_pressure: false,
            faults: None,
            tracer: None,
        }
    }

    /// Validates the whole configuration.
    pub fn validate(&self) -> Result<()> {
        self.geometry.validate()?;
        self.timing.validate()?;
        self.disturbance.validate()?;
        Ok(())
    }
}

/// Rank-level timing state.
#[derive(Debug, Clone)]
struct RankState {
    /// Last ACT in this rank: (time, bank group).
    last_act: Option<(Cycle, u32)>,
    /// Times of the most recent 4 ACTs (tFAW window): a fixed ring —
    /// `faw[faw_head]` is the oldest entry once `faw_len` reaches 4.
    faw: [Cycle; 4],
    faw_len: u8,
    faw_head: u8,
    /// Rank unusable until this time (tRFC after REF).
    busy_until: Cycle,
    /// Next refresh group the REF cursor will cover.
    next_group: u32,
}

impl RankState {
    fn new() -> RankState {
        RankState {
            last_act: None,
            faw: [Cycle::ZERO; 4],
            faw_len: 0,
            faw_head: 0,
            busy_until: Cycle::ZERO,
            next_group: 0,
        }
    }

    #[inline]
    fn earliest_act(&self, bank_group: u32, t: &TimingParams) -> Cycle {
        let mut earliest = self.busy_until;
        if let Some((when, bg)) = self.last_act {
            let gap = if bg == bank_group {
                t.t_rrd_l
            } else {
                t.t_rrd_s
            };
            earliest = earliest.max(when + gap);
        }
        if self.faw_len == 4 {
            earliest = earliest.max(self.faw[self.faw_head as usize] + t.t_faw);
        }
        earliest
    }

    #[inline]
    fn record_act(&mut self, now: Cycle, bank_group: u32) {
        self.last_act = Some((now, bank_group));
        if self.faw_len == 4 {
            // Overwrite the oldest entry and advance the ring head.
            self.faw[self.faw_head as usize] = now;
            self.faw_head = (self.faw_head + 1) & 3;
        } else {
            self.faw[((self.faw_head + self.faw_len) & 3) as usize] = now;
            self.faw_len += 1;
        }
    }
}

/// Outcome of issuing one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandOutcome {
    /// When the command's effect completes: data on the bus for RD/WR,
    /// rank free again for REF, bank free for REF_NEIGHBORS; equals the
    /// issue time for ACT/PRE.
    pub done: Cycle,
    /// Bit flips this command's disturbance generated.
    pub flips_generated: u32,
}

/// The simulated DRAM device.
#[derive(Debug)]
pub struct DramModule {
    config: DramConfig,
    /// FSM/timing state of every bank, struct-of-arrays: scheduler
    /// probes touch one contiguous column per field. Column `b` pairs
    /// with `banks[b]`.
    soa: TimingSoA,
    banks: Vec<Bank>,
    remaps: Vec<RowRemap>,
    ranks: Vec<RankState>,
    trr: Option<TrrEngine>,
    data: RowDataStore,
    rng: DetRng,
    flips: Vec<FlipEvent>,
    stats: DramStats,
    rows_per_group: u32,
    faults: Option<FaultClock>,
    /// Latest traced command issue time; stamps the final
    /// [`Event::DeviceStats`] record. Only maintained when tracing.
    last_issue: Cycle,
}

/// Component salt separating the device's fault-decision streams from
/// the memory controller's under one [`FaultPlan`].
const DRAM_FAULT_SALT: u64 = 0xD1AA;

/// Builds the uniform too-early rejection off the hot path: the error
/// string is only formatted when a command actually violates timing.
#[cold]
#[inline(never)]
fn too_early(cmd: &DdrCommand, now: Cycle, earliest: Cycle) -> Error {
    Error::Timing(format!("{cmd} at {now} before earliest {earliest}"))
}

impl DramModule {
    /// Builds a device from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the configuration is inconsistent.
    pub fn new(config: DramConfig) -> Result<DramModule> {
        config.validate()?;
        let g = config.geometry;
        let mut rng = DetRng::new(config.seed);
        let mut remap_rng = rng.fork(0xEEAA);
        let total_banks = g.total_banks() as usize;
        let faults = config.faults.map(|p| FaultClock::new(p, DRAM_FAULT_SALT));
        let banks: Vec<Bank> = (0..total_banks)
            .map(|_| {
                let mut bank = Bank::new(
                    g.rows_per_bank(),
                    g.rows_per_subarray,
                    config.disturbance,
                    config.batched_pressure,
                );
                if let Some(p) = &config.faults {
                    bank.set_act_saturation(p.disturb_saturation);
                }
                bank
            })
            .collect();
        let remaps: Vec<RowRemap> = (0..total_banks)
            .map(|_| {
                RowRemap::new(
                    g.rows_per_bank(),
                    g.rows_per_subarray,
                    config.remap,
                    &mut remap_rng,
                )
            })
            .collect();
        let trr = config
            .trr
            .map(|c| TrrEngine::new(c, total_banks, rng.fork(0x7171)));
        let refs_per_window = config.timing.refs_per_window().max(1);
        let rows_per_group = (g.rows_per_bank() as u64).div_ceil(refs_per_window).max(1) as u32;
        let module = DramModule {
            soa: TimingSoA::new(total_banks),
            banks,
            remaps,
            ranks: (0..(g.channels * g.ranks) as usize)
                .map(|_| RankState::new())
                .collect(),
            trr,
            data: RowDataStore::new(g.row_bytes() as usize),
            rng,
            flips: Vec::new(),
            stats: DramStats::default(),
            rows_per_group,
            faults,
            last_issue: Cycle::ZERO,
            config,
        };
        if let Some(tracer) = &module.config.tracer {
            // The embedded config (tracer rendered as `null`) makes the
            // trace self-describing: replay rebuilds this exact device.
            let config_json =
                serde_json::to_string(&module.config).expect("device config serializes");
            tracer.emit(Cycle::ZERO, Event::DeviceReset { config_json });
        }
        Ok(module)
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Device statistics so far, with the live fault-injection tally
    /// folded in.
    pub fn stats(&self) -> DramStats {
        let mut s = self.stats;
        s.fault_injections = self.fault_injections();
        s
    }

    /// Total ACTs the in-DRAM TRR sampler has observed so far (0 when
    /// TRR is absent). The memory controller snapshots this around a
    /// demand ACT to charge sampler work to the issuing tenant.
    pub fn trr_samples(&self) -> u64 {
        self.trr.as_ref().map_or(0, |t| t.samples)
    }

    /// Total device-side faults injected so far: rate-based decisions
    /// that fired (dropped/ghost REFs, TRR sampler misses) plus ACT
    /// increments swallowed by counter saturation.
    pub fn fault_injections(&self) -> u64 {
        let clamps: u64 = self.banks.iter().map(|b| b.saturation_clamps).sum();
        self.faults.as_ref().map_or(0, FaultClock::total_injected) + clamps
    }

    /// Drains and returns accumulated flip events (logical rows).
    pub fn drain_flips(&mut self) -> Vec<FlipEvent> {
        std::mem::take(&mut self.flips)
    }

    /// Rows covered per REF command.
    pub fn rows_per_refresh_group(&self) -> u32 {
        self.rows_per_group
    }

    fn rank_index(&self, channel: u32, rank: u32) -> usize {
        (channel * self.config.geometry.ranks + rank) as usize
    }

    fn flat_bank(&self, bank: &BankId) -> usize {
        bank.flat(&self.config.geometry)
    }

    /// The earliest cycle at which `cmd` may legally issue, or
    /// [`Cycle::MAX`] if it is not legal in the current state (e.g. REF
    /// with a bank open — the controller must precharge first).
    #[inline]
    pub fn earliest(&self, cmd: &DdrCommand) -> Cycle {
        let t = &self.config.timing;
        match cmd {
            DdrCommand::Act { bank, .. } => {
                let b = self.flat_bank(bank);
                let r = self.rank_index(bank.channel, bank.rank);
                self.soa
                    .earliest_act(b)
                    .max(self.ranks[r].earliest_act(bank.bank_group, t))
            }
            DdrCommand::Pre { bank } => {
                let b = self.flat_bank(bank);
                let r = self.rank_index(bank.channel, bank.rank);
                self.soa.earliest_pre(b).max(self.ranks[r].busy_until)
            }
            DdrCommand::PreAll { channel, rank } => {
                let r = self.rank_index(*channel, *rank);
                let mut earliest = self.ranks[r].busy_until;
                for i in self.bank_range(*channel, *rank) {
                    earliest = earliest.max(self.soa.earliest_pre(i));
                }
                earliest
            }
            DdrCommand::Rd { bank, .. } | DdrCommand::Wr { bank, .. } => {
                let b = self.flat_bank(bank);
                let r = self.rank_index(bank.channel, bank.rank);
                self.soa.earliest_rdwr(b).max(self.ranks[r].busy_until)
            }
            DdrCommand::Ref { channel, rank } => {
                let r = self.rank_index(*channel, *rank);
                let mut earliest = self.ranks[r].busy_until;
                for i in self.bank_range(*channel, *rank) {
                    if self.soa.is_active(i) {
                        return Cycle::MAX; // must PRE first
                    }
                    earliest = earliest.max(self.soa.earliest_act(i));
                }
                earliest
            }
            DdrCommand::RefNeighbors { bank, .. } => {
                let b = self.flat_bank(bank);
                if self.soa.is_active(b) {
                    return Cycle::MAX;
                }
                let r = self.rank_index(bank.channel, bank.rank);
                self.soa.earliest_act(b).max(self.ranks[r].busy_until)
            }
        }
    }

    /// Flat-bank index range of one rank. Banks are laid out
    /// rank-contiguously (`flat = rank_index * banks_per_rank + bank`),
    /// so a rank's banks form one dense range — no per-bank membership
    /// filtering needed on the REF/PRE-all paths.
    fn bank_range(&self, channel: u32, rank: u32) -> std::ops::Range<usize> {
        let per_rank = self.config.geometry.banks_per_rank() as usize;
        let start = self.rank_index(channel, rank) * per_rank;
        start..start + per_rank
    }

    /// Issues `cmd` at time `now`.
    ///
    /// # Errors
    ///
    /// [`Error::Timing`] if `now` precedes [`DramModule::earliest`];
    /// [`Error::Protocol`] for illegal state transitions.
    // Inlined so untraced callers compile down to the one `is_none()`
    // branch plus a direct call of the real issue path.
    #[inline]
    pub fn issue(&mut self, cmd: &DdrCommand, now: Cycle) -> Result<CommandOutcome> {
        // Zero-cost-when-off contract: this check is the whole overhead
        // of the telemetry layer on an untraced device.
        if self.config.tracer.is_none() {
            return self.issue_inner(cmd, now);
        }
        self.issue_traced(cmd, now)
    }

    /// [`DramModule::issue`] minus the tracer check: the "telemetry
    /// layer absent" baseline for the zero-cost-when-off gate
    /// (`tests/tracer_off.rs`).
    /// Not part of the simulator API — on a traced device this would
    /// silently drop records.
    #[doc(hidden)]
    #[inline]
    pub fn issue_bypassing_tracer(
        &mut self,
        cmd: &DdrCommand,
        now: Cycle,
    ) -> Result<CommandOutcome> {
        self.issue_inner(cmd, now)
    }

    /// The traced issue path: runs the command, then records it and
    /// any flips it generated.
    #[cold]
    fn issue_traced(&mut self, cmd: &DdrCommand, now: Cycle) -> Result<CommandOutcome> {
        let pre_flips = self.flips.len();
        let out = self.issue_inner(cmd, now)?;
        self.last_issue = self.last_issue.max(now);
        let tracer = self.config.tracer.clone().expect("tracer checked above");
        tracer.emit(now, Event::Command { cmd: cmd.into() });
        // Flips this command generated (including batched settles it
        // triggered) trail their command, in sampling order.
        for f in &self.flips[pre_flips..] {
            tracer.emit(
                now,
                Event::Flip {
                    flat_bank: f.flat_bank as u64,
                    victim_row: f.victim_row,
                    aggressor_row: f.aggressor_row,
                    bit: f.bit,
                },
            );
        }
        Ok(out)
    }

    /// The ACT state transition, after the caller has gated `now`
    /// against the ACT earliest for flat bank `b` / rank `r`.
    #[inline]
    fn act_body(
        &mut self,
        bank: BankId,
        row: u32,
        b: usize,
        r: usize,
        now: Cycle,
    ) -> Result<CommandOutcome> {
        let g = self.config.geometry;
        if row >= g.rows_per_bank() {
            return Err(Error::Protocol(format!(
                "ACT row {row} out of range ({} rows/bank)",
                g.rows_per_bank()
            )));
        }
        let internal = self.remaps[b].to_internal(row);
        self.soa
            .act(b, internal, now, &self.config.timing)
            .expect("gated on earliest_act");
        let disturbances = self.banks[b].record_act(internal, now);
        self.ranks[r].record_act(now, bank.bank_group);
        self.stats.acts += 1;
        if let Some(trr) = &mut self.trr {
            // Fault hook: a blackbox sampler sometimes misses
            // the ACT entirely (what TRRespass patterns bank on).
            let missed = self
                .faults
                .as_mut()
                .is_some_and(|fc| fc.fire(FaultKind::TrrSamplerMiss));
            if !missed {
                trr.observe_act(b, internal);
            } else if let Some(tracer) = &self.config.tracer {
                tracer.emit(
                    now,
                    Event::FaultInjected {
                        kind: FaultKind::TrrSamplerMiss.name().into(),
                    },
                );
            }
        }
        let flips_generated = if disturbances.is_empty() {
            0
        } else {
            self.sample_flips_of(b, now, internal, &disturbances)
        };
        Ok(CommandOutcome {
            done: now,
            flips_generated,
        })
    }

    /// The PRE state transition, after the caller has gated `now`
    /// against the PRE earliest for flat bank `b`. Infallible: PRE on
    /// an idle bank is a counted no-op.
    #[inline]
    fn pre_body(&mut self, b: usize, now: Cycle) -> CommandOutcome {
        if self
            .soa
            .pre(b, now, &self.config.timing)
            .expect("gated on earliest_pre")
        {
            self.banks[b].pres += 1;
        }
        self.stats.pres += 1;
        CommandOutcome {
            done: now,
            flips_generated: 0,
        }
    }

    /// The untraced issue path; all device state changes live here.
    ///
    /// Each arm computes its own earliest-legal cycle (exactly
    /// [`DramModule::earliest`] for that command class), gates on it
    /// once, and then applies the state transition — the legality
    /// check and the transition share one pass over the SoA columns
    /// instead of recomputing `earliest` twice per issue.
    fn issue_inner(&mut self, cmd: &DdrCommand, now: Cycle) -> Result<CommandOutcome> {
        match *cmd {
            DdrCommand::Act { bank, row } => {
                let b = self.flat_bank(&bank);
                let r = self.rank_index(bank.channel, bank.rank);
                let earliest = self
                    .soa
                    .earliest_act(b)
                    .max(self.ranks[r].earliest_act(bank.bank_group, &self.config.timing));
                if now < earliest {
                    return Err(too_early(cmd, now, earliest));
                }
                self.act_body(bank, row, b, r, now)
            }
            DdrCommand::Pre { bank } => {
                let b = self.flat_bank(&bank);
                let r = self.rank_index(bank.channel, bank.rank);
                let earliest = self.soa.earliest_pre(b).max(self.ranks[r].busy_until);
                if now < earliest {
                    return Err(too_early(cmd, now, earliest));
                }
                Ok(self.pre_body(b, now))
            }
            DdrCommand::PreAll { channel, rank } => {
                let r = self.rank_index(channel, rank);
                let range = self.bank_range(channel, rank);
                let t = &self.config.timing;
                let mut earliest = self.ranks[r].busy_until;
                for i in range.clone() {
                    earliest = earliest.max(self.soa.earliest_pre(i));
                }
                if now < earliest {
                    return Err(too_early(cmd, now, earliest));
                }
                for i in range {
                    if self.soa.pre(i, now, t).expect("gated on earliest_pre") {
                        self.banks[i].pres += 1;
                    }
                }
                self.stats.pres += 1;
                Ok(CommandOutcome {
                    done: now,
                    flips_generated: 0,
                })
            }
            DdrCommand::Rd {
                bank,
                col,
                auto_pre,
            } => {
                let b = self.flat_bank(&bank);
                let r = self.rank_index(bank.channel, bank.rank);
                let earliest = self.soa.earliest_rdwr(b).max(self.ranks[r].busy_until);
                if now < earliest {
                    return Err(too_early(cmd, now, earliest));
                }
                if col >= self.config.geometry.columns {
                    return Err(Error::Protocol(format!("RD col {col} out of range")));
                }
                // A read observes data: settle deferred disturbance so
                // its poison is in place before the burst.
                self.settle_bank(b, now);
                let t = &self.config.timing;
                let (_, done) = self
                    .soa
                    .rd(b, now, auto_pre, t)
                    .expect("gated on earliest_rdwr");
                if auto_pre {
                    self.banks[b].pres += 1;
                }
                self.stats.rds += 1;
                Ok(CommandOutcome {
                    done,
                    flips_generated: 0,
                })
            }
            DdrCommand::Wr {
                bank,
                col,
                auto_pre,
            } => {
                let b = self.flat_bank(&bank);
                let r = self.rank_index(bank.channel, bank.rank);
                let earliest = self.soa.earliest_rdwr(b).max(self.ranks[r].busy_until);
                if now < earliest {
                    return Err(too_early(cmd, now, earliest));
                }
                if col >= self.config.geometry.columns {
                    return Err(Error::Protocol(format!("WR col {col} out of range")));
                }
                self.settle_bank(b, now);
                let t = &self.config.timing;
                let (_, done) = self
                    .soa
                    .wr(b, now, auto_pre, t)
                    .expect("gated on earliest_rdwr");
                if auto_pre {
                    self.banks[b].pres += 1;
                }
                self.stats.wrs += 1;
                Ok(CommandOutcome {
                    done,
                    flips_generated: 0,
                })
            }
            DdrCommand::Ref { channel, rank } => {
                let r = self.rank_index(channel, rank);
                let mut earliest = self.ranks[r].busy_until;
                for i in self.bank_range(channel, rank) {
                    if self.soa.is_active(i) {
                        // Must PRE first; never legal in this state.
                        return Err(too_early(cmd, now, Cycle::MAX));
                    }
                    earliest = earliest.max(self.soa.earliest_act(i));
                }
                if now < earliest {
                    return Err(too_early(cmd, now, earliest));
                }
                let done = now + self.config.timing.t_rfc;
                let banks: Vec<usize> = self.bank_range(channel, rank).collect();
                // Refresh the current group of internal rows in every bank.
                let group = self.ranks[r].next_group;
                let lo = group * self.rows_per_group;
                let hi = (lo + self.rows_per_group).min(self.config.geometry.rows_per_bank());
                // Fault hooks. A *dropped* REF keeps its timing, cursor
                // and busy accounting (the controller believes it
                // happened) but restores no rows. A *ghost* REF reports
                // covering two cursor groups while restoring one, so the
                // skipped group silently loses a slot per wrap.
                let dropped = self
                    .faults
                    .as_mut()
                    .is_some_and(|fc| fc.fire(FaultKind::DroppedRef));
                let ghost = self
                    .faults
                    .as_mut()
                    .is_some_and(|fc| fc.fire(FaultKind::GhostRef));
                if let Some(tracer) = &self.config.tracer {
                    if dropped {
                        tracer.emit(
                            now,
                            Event::FaultInjected {
                                kind: FaultKind::DroppedRef.name().into(),
                            },
                        );
                    }
                    if ghost {
                        tracer.emit(
                            now,
                            Event::FaultInjected {
                                kind: FaultKind::GhostRef.name().into(),
                            },
                        );
                    }
                }
                for &b in &banks {
                    // Pending ACTs precede this REF: settle (and flip)
                    // before the covered rows reset.
                    self.settle_bank(b, now);
                    if !dropped {
                        for internal in lo..hi {
                            self.banks[b].refresh_row(internal, now);
                        }
                    }
                    self.soa.block_until(b, done);
                }
                let groups = self
                    .config
                    .geometry
                    .rows_per_bank()
                    .div_ceil(self.rows_per_group);
                let advance = if ghost { 2 } else { 1 };
                self.ranks[r].next_group = (group + advance) % groups;
                self.ranks[r].busy_until = done;
                self.stats.refs += 1;
                // TRR piggybacks targeted refreshes on the REF.
                if let Some(trr) = &mut self.trr {
                    let radius = trr.radius();
                    let targets = trr.on_ref(&banks);
                    for (b, aggressor_rows) in targets {
                        for agg in aggressor_rows {
                            for victim in self.banks[b].neighbors_within(agg, radius) {
                                self.banks[b].refresh_row(victim, now);
                                self.stats.trr_refresh_rows += 1;
                                if let Some(tracer) = &self.config.tracer {
                                    tracer.emit(
                                        now,
                                        Event::TrrRefresh {
                                            flat_bank: b as u64,
                                            row: self.remaps[b].to_logical(victim),
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                Ok(CommandOutcome {
                    done,
                    flips_generated: 0,
                })
            }
            DdrCommand::RefNeighbors { bank, row, radius } => {
                let b = self.flat_bank(&bank);
                let r = self.rank_index(bank.channel, bank.rank);
                if self.soa.is_active(b) {
                    // Must PRE first; never legal in this state.
                    return Err(too_early(cmd, now, Cycle::MAX));
                }
                let earliest = self.soa.earliest_act(b).max(self.ranks[r].busy_until);
                if now < earliest {
                    return Err(too_early(cmd, now, earliest));
                }
                let g = self.config.geometry;
                if row >= g.rows_per_bank() {
                    return Err(Error::Protocol(format!("REFN row {row} out of range")));
                }
                let internal = self.remaps[b].to_internal(row);
                self.settle_bank(b, now);
                let victims = self.banks[b].neighbors_within(internal, radius);
                // Each refreshed row costs one internal row cycle.
                let done = now + self.config.timing.t_rc * victims.len().max(1) as u64;
                for v in &victims {
                    self.banks[b].refresh_row(*v, now);
                    self.stats.ref_neighbor_rows += 1;
                }
                self.soa.block_until(b, done);
                Ok(CommandOutcome {
                    done,
                    flips_generated: 0,
                })
            }
        }
    }

    /// Functional data write of one cache line (logical coordinates).
    ///
    /// The timing of the enclosing WR command is handled by
    /// [`DramModule::issue`]; this is the data path.
    pub fn write_line(&mut self, bank: &BankId, logical_row: u32, col: u32, data: &[u8]) {
        let key = self.row_key(bank, logical_row);
        self.data.write_line(key, col, data);
    }

    /// Functional data read of one cache line (logical coordinates).
    ///
    /// Returns the bytes and whether software observes corruption:
    /// without ECC, any poisoned bit; with SEC-DED, only uncorrectable
    /// (multi-bit-per-word) damage — single flips are silently
    /// corrected in the returned data.
    pub fn read_line(&self, bank: &BankId, logical_row: u32, col: u32) -> (Vec<u8>, bool) {
        let (data, outcome) = self.read_line_detailed(bank, logical_row, col);
        let visible = match (self.config.ecc, outcome) {
            (EccMode::None, EccOutcome::Clean) => false,
            (EccMode::None, _) => true,
            (EccMode::SecDed, EccOutcome::Uncorrectable(_)) => true,
            (EccMode::SecDed, _) => false,
        };
        (data, visible)
    }

    /// Like [`DramModule::read_line`] but reporting the full ECC
    /// outcome (used by the ECC ablation, E10). Without ECC the raw
    /// bytes are returned but the outcome still classifies the
    /// underlying damage.
    pub fn read_line_detailed(
        &self,
        bank: &BankId,
        logical_row: u32,
        col: u32,
    ) -> (Vec<u8>, EccOutcome) {
        let key = self.row_key(bank, logical_row);
        self.data
            .read_line_ecc(key, col, self.config.ecc == EccMode::SecDed)
    }

    /// Copies one cache line between logical coordinates: a
    /// [`DramModule::read_line`] of the source (raw without ECC,
    /// corrected under SEC-DED) followed by a
    /// [`DramModule::write_line`] of the bytes read, which heals the
    /// destination line's poison.
    pub fn copy_line(&mut self, from: (&BankId, u32, u32), to: (&BankId, u32, u32)) {
        let (from_key, to_key) = (self.row_key(from.0, from.1), self.row_key(to.0, to.1));
        let ecc = self.config.ecc == EccMode::SecDed;
        self.data.copy_line(from_key, from.2, to_key, to.2, ecc);
    }

    /// The data-store key of a logical row.
    fn row_key(&self, bank: &BankId, logical_row: u32) -> RowKey {
        let b = self.flat_bank(bank);
        (b, self.remaps[b].to_internal(logical_row))
    }

    /// Returns `true` if any bit of the logical row is poisoned.
    pub fn row_is_poisoned(&self, bank: &BankId, logical_row: u32) -> bool {
        self.data.row_is_poisoned(self.row_key(bank, logical_row))
    }

    /// Checks retention of a logical row at `now`: if the row has gone
    /// unrefreshed for longer than `margin` refresh windows, its cells
    /// decay — a retention failure is recorded and the method returns
    /// `true`. Models what happens when a defense (or attack) starves
    /// the refresh schedule.
    pub fn check_retention(
        &mut self,
        bank: &BankId,
        logical_row: u32,
        now: Cycle,
        margin: f64,
    ) -> bool {
        let b = self.flat_bank(bank);
        let internal = self.remaps[b].to_internal(logical_row);
        let last = self.banks[b].row_state(internal).victim.last_refresh;
        let limit = (self.config.timing.t_refw as f64 * margin) as u64;
        let decayed = now.delta(last) > limit;
        if decayed {
            self.stats.retention_decays += 1;
        }
        if let Some(tracer) = &self.config.tracer {
            tracer.emit(
                now,
                Event::RetentionCheck {
                    bank: *bank,
                    row: logical_row,
                    margin,
                    decayed,
                },
            );
        }
        decayed
    }

    /// Hammer pressure currently accumulated on a logical row —
    /// white-box introspection for tests and the oracle defense.
    pub fn row_pressure(&self, bank: &BankId, logical_row: u32) -> f64 {
        let b = self.flat_bank(bank);
        let internal = self.remaps[b].to_internal(logical_row);
        self.banks[b].row_state(internal).victim.pressure
    }

    /// ACT count of a logical row since its last refresh (white-box).
    pub fn row_acts_since_refresh(&self, bank: &BankId, logical_row: u32) -> u32 {
        let b = self.flat_bank(bank);
        let internal = self.remaps[b].to_internal(logical_row);
        self.banks[b].row_state(internal).acts_since_refresh
    }

    /// The logical rows whose *internal* position differs from their
    /// logical one, per bank (used by inference accuracy scoring).
    pub fn remapped_logical_rows(&self, bank: &BankId) -> Vec<u32> {
        let b = self.flat_bank(bank);
        (0..self.config.geometry.rows_per_bank())
            .filter(|&r| self.remaps[b].to_internal(r) != r)
            .collect()
    }

    /// The open row of a bank, if any (controller-visible state).
    pub fn open_row(&self, bank: &BankId) -> Option<u32> {
        let b = self.flat_bank(bank);
        self.soa
            .open_row(b)
            .map(|internal| self.remaps[b].to_logical(internal))
    }

    /// Draws bit flips for a batch of disturbances in `(internal
    /// aggressor row, disturbance)` form: one Bernoulli(`flip_prob`)
    /// draw per opportunity, poisoning the data store and recording a
    /// [`FlipEvent`] (logical coordinates) per flip.
    fn sample_flips(&mut self, b: usize, now: Cycle, disturbances: Vec<(u32, Disturbance)>) -> u32 {
        let profile = self.config.disturbance;
        let row_bits = self.config.geometry.row_bytes() * 8;
        let mut flips_generated = 0;
        for (aggressor, d) in disturbances {
            for _ in 0..d.opportunities {
                if self.rng.chance(profile.flip_prob) {
                    let bit = self.rng.below(row_bits);
                    self.data.flip_bit((b, d.victim_row), bit);
                    self.stats.flips += 1;
                    flips_generated += 1;
                    self.flips.push(FlipEvent {
                        time: now,
                        flat_bank: b,
                        victim_row: self.remaps[b].to_logical(d.victim_row),
                        aggressor_row: self.remaps[b].to_logical(aggressor),
                        bit,
                        victim_domain: None,
                        aggressor_domain: None,
                    });
                }
            }
        }
        flips_generated
    }

    /// [`DramModule::sample_flips`] specialized for one ACT's
    /// disturbances (a single internal `aggressor` row): identical RNG
    /// draw order, no intermediate pair vector.
    fn sample_flips_of(
        &mut self,
        b: usize,
        now: Cycle,
        aggressor: u32,
        disturbances: &[Disturbance],
    ) -> u32 {
        let profile = self.config.disturbance;
        let row_bits = self.config.geometry.row_bytes() * 8;
        let mut flips_generated = 0;
        for d in disturbances {
            for _ in 0..d.opportunities {
                if self.rng.chance(profile.flip_prob) {
                    let bit = self.rng.below(row_bits);
                    self.data.flip_bit((b, d.victim_row), bit);
                    self.stats.flips += 1;
                    flips_generated += 1;
                    self.flips.push(FlipEvent {
                        time: now,
                        flat_bank: b,
                        victim_row: self.remaps[b].to_logical(d.victim_row),
                        aggressor_row: self.remaps[b].to_logical(aggressor),
                        bit,
                        victim_domain: None,
                        aggressor_domain: None,
                    });
                }
            }
        }
        flips_generated
    }

    /// Settles one bank's deferred disturbance (batched mode): flushes
    /// its pending ACT log and samples flips for the result. No-op in
    /// the default per-ACT mode.
    fn settle_bank(&mut self, b: usize, now: Cycle) {
        if !self.config.batched_pressure {
            return;
        }
        self.banks[b].flush_disturbances(now);
        let flushed = self.banks[b].take_flushed();
        if !flushed.is_empty() {
            self.sample_flips(b, now, flushed);
        }
    }

    /// Settles deferred disturbance in every bank (batched mode): all
    /// pending aggressor runs are applied and their flips sampled as
    /// of `now`. Call before inspecting white-box state
    /// ([`DramModule::row_pressure`], [`DramModule::drain_flips`],
    /// data reads) when `batched_pressure` is on; a no-op otherwise.
    pub fn sync_disturbances(&mut self, now: Cycle) {
        for b in 0..self.banks.len() {
            self.settle_bank(b, now);
        }
    }

    /// One-probe scheduler snapshot of a bank: the open row plus the
    /// earliest legal cycle per command class, exactly as
    /// [`DramModule::earliest`] would report them. The controller's
    /// fast path takes one snapshot per bank per scheduling scan and
    /// prices every queued request against it, instead of re-deriving
    /// the same rank/bank constraints once per request.
    pub fn bank_timing(&self, bank: &BankId) -> BankTiming {
        let b = self.flat_bank(bank);
        let r = self.rank_index(bank.channel, bank.rank);
        let t = &self.config.timing;
        let rank = &self.ranks[r];
        BankTiming {
            open_row: self
                .soa
                .open_row(b)
                .map(|internal| self.remaps[b].to_logical(internal)),
            act: self
                .soa
                .earliest_act(b)
                .max(rank.earliest_act(bank.bank_group, t)),
            act_local: self.soa.earliest_act(b).max(rank.busy_until),
            pre: self.soa.earliest_pre(b).max(rank.busy_until),
            rdwr: self.soa.earliest_rdwr(b).max(rank.busy_until),
        }
    }
}

impl Drop for DramModule {
    /// A traced device closes its trace with a [`Event::DeviceStats`]
    /// record so replay can verify the cumulative counters without a
    /// side channel. Stamped with the last traced command's issue
    /// cycle (the device has no clock of its own). No-op when
    /// untraced.
    fn drop(&mut self) {
        let Some(tracer) = self.config.tracer.clone() else {
            return;
        };
        let stats = self.stats();
        let stats_json = serde_json::to_string(&stats).expect("device stats serialize");
        tracer.emit(self.last_issue, Event::DeviceStats { stats_json });
    }
}

/// Per-bank scheduler snapshot returned by [`DramModule::bank_timing`]:
/// the earliest legal issue cycle for each command class a queued
/// request can need next, with rank-level constraints already folded
/// in. Values match [`DramModule::earliest`] for the same command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankTiming {
    /// Open row in logical coordinates, if any.
    pub open_row: Option<u32>,
    /// Earliest ACT (bank FSM + rank tRRD/tFAW/tRFC); [`Cycle::MAX`]
    /// while a row is open.
    pub act: Cycle,
    /// Earliest REF_NEIGHBORS (bank FSM + rank busy, no inter-ACT
    /// spacing); [`Cycle::MAX`] while a row is open.
    pub act_local: Cycle,
    /// Earliest PRE.
    pub pre: Cycle,
    /// Earliest RD/WR; [`Cycle::MAX`] while precharged.
    pub rdwr: Cycle,
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

    fn bank1() -> BankId {
        BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 1,
        }
    }

    fn module(mac: u64) -> DramModule {
        DramModule::new(DramConfig::test_config(mac)).unwrap()
    }

    /// Open/close a row repeatedly, respecting timing.
    fn hammer(m: &mut DramModule, bank: BankId, row: u32, times: usize) -> (Cycle, u32) {
        let mut now = Cycle::ZERO;
        let mut flips = 0;
        for _ in 0..times {
            let act = DdrCommand::Act { bank, row };
            now = now.max(m.earliest(&act));
            flips += m.issue(&act, now).unwrap().flips_generated;
            let pre = DdrCommand::Pre { bank };
            now = now.max(m.earliest(&pre));
            m.issue(&pre, now).unwrap();
        }
        (now, flips)
    }

    #[test]
    fn act_rd_pre_sequence_works() {
        let mut m = module(1_000_000);
        let act = DdrCommand::Act {
            bank: bank0(),
            row: 3,
        };
        m.issue(&act, Cycle::ZERO).unwrap();
        let rd = DdrCommand::Rd {
            bank: bank0(),
            col: 2,
            auto_pre: false,
        };
        let t = m.earliest(&rd);
        let out = m.issue(&rd, t).unwrap();
        assert!(out.done > t);
        assert_eq!(m.open_row(&bank0()), Some(3));
        let pre = DdrCommand::Pre { bank: bank0() };
        m.issue(&pre, m.earliest(&pre)).unwrap();
        assert_eq!(m.open_row(&bank0()), None);
        let s = m.stats();
        assert_eq!((s.acts, s.rds, s.pres), (1, 1, 1));
    }

    #[test]
    fn timing_violation_rejected() {
        let mut m = module(1_000_000);
        m.issue(
            &DdrCommand::Act {
                bank: bank0(),
                row: 0,
            },
            Cycle::ZERO,
        )
        .unwrap();
        let rd = DdrCommand::Rd {
            bank: bank0(),
            col: 0,
            auto_pre: false,
        };
        assert!(matches!(m.issue(&rd, Cycle(1)), Err(Error::Timing(_))));
    }

    #[test]
    fn trrd_separates_acts_across_banks() {
        let m0 = module(1_000_000);
        let t = m0.config().timing;
        let mut m = m0;
        m.issue(
            &DdrCommand::Act {
                bank: bank0(),
                row: 0,
            },
            Cycle::ZERO,
        )
        .unwrap();
        let act1 = DdrCommand::Act {
            bank: bank1(),
            row: 0,
        };
        // Same bank group: tRRD_L applies.
        assert_eq!(m.earliest(&act1), Cycle(t.t_rrd_l));
        assert!(matches!(
            m.issue(&act1, Cycle(t.t_rrd_l - 1)),
            Err(Error::Timing(_))
        ));
        m.issue(&act1, Cycle(t.t_rrd_l)).unwrap();
    }

    #[test]
    fn faw_limits_act_bursts() {
        // Give the geometry more banks so 5 ACTs can target distinct banks.
        let mut cfg = DramConfig::test_config(1_000_000);
        cfg.geometry.banks_per_group = 8;
        let t = cfg.timing;
        let mut m = DramModule::new(cfg).unwrap();
        let mut now = Cycle::ZERO;
        let mut acts = Vec::new();
        for i in 0..5u32 {
            let bank = BankId {
                channel: 0,
                rank: 0,
                bank_group: 0,
                bank: i,
            };
            let act = DdrCommand::Act { bank, row: 0 };
            now = now.max(m.earliest(&act));
            m.issue(&act, now).unwrap();
            acts.push(now);
        }
        // The 5th ACT must wait for the tFAW window of the first.
        assert!(acts[4] >= acts[0] + t.t_faw, "tFAW not enforced: {acts:?}");
    }

    #[test]
    fn ref_requires_precharged_banks_and_occupies_rank() {
        let mut m = module(1_000_000);
        let t = m.config().timing;
        m.issue(
            &DdrCommand::Act {
                bank: bank0(),
                row: 0,
            },
            Cycle::ZERO,
        )
        .unwrap();
        let rf = DdrCommand::Ref {
            channel: 0,
            rank: 0,
        };
        assert_eq!(m.earliest(&rf), Cycle::MAX, "REF with open row illegal");
        let pre = DdrCommand::Pre { bank: bank0() };
        let pt = m.earliest(&pre);
        m.issue(&pre, pt).unwrap();
        let rt = m.earliest(&rf).max(pt);
        let out = m.issue(&rf, rt).unwrap();
        assert_eq!(out.done, rt + t.t_rfc);
        // Bank busy during tRFC.
        let act = DdrCommand::Act {
            bank: bank0(),
            row: 1,
        };
        assert!(m.earliest(&act) >= out.done);
    }

    #[test]
    fn hammering_generates_flips_and_neighbors_get_hit() {
        let mut m = module(10);
        let (_, flips) = hammer(&mut m, bank0(), 8, 40);
        assert!(flips > 0, "MAC 10 x 40 ACTs must flip");
        let events = m.drain_flips();
        assert_eq!(events.len() as u64, m.stats().flips);
        for e in &events {
            assert_eq!(e.aggressor_row, 8);
            let d = (e.victim_row as i64 - 8).unsigned_abs() as u32;
            assert!(d >= 1 && d <= m.config().disturbance.blast_radius);
        }
        // Draining empties the queue.
        assert!(m.drain_flips().is_empty());
    }

    #[test]
    fn refresh_clears_pressure_and_prevents_flips() {
        let mut m = module(30);
        // Hammer row 8 for 20 ACTs: below MAC, no flips.
        let (mut now, flips) = hammer(&mut m, bank0(), 8, 20);
        assert_eq!(flips, 0);
        assert!(m.row_pressure(&bank0(), 7) > 0.0);
        // Refresh the whole bank by cycling REF through all groups.
        let groups = m.config().geometry.rows_per_bank() / m.rows_per_refresh_group();
        for _ in 0..groups {
            let rf = DdrCommand::Ref {
                channel: 0,
                rank: 0,
            };
            now = now.max(m.earliest(&rf));
            now = m.issue(&rf, now).unwrap().done;
        }
        assert_eq!(
            m.row_pressure(&bank0(), 7),
            0.0,
            "REF cycle must clear pressure"
        );
        // Another 20 ACTs still below MAC: still no flips.
        let mut flips2 = 0;
        for _ in 0..20 {
            let act = DdrCommand::Act {
                bank: bank0(),
                row: 8,
            };
            now = now.max(m.earliest(&act));
            flips2 += m.issue(&act, now).unwrap().flips_generated;
            let pre = DdrCommand::Pre { bank: bank0() };
            now = now.max(m.earliest(&pre));
            m.issue(&pre, now).unwrap();
        }
        assert_eq!(flips2, 0, "refresh must reset the hammer budget");
    }

    #[test]
    fn ref_neighbors_protects_victims() {
        let mut m = module(30);
        hammer(&mut m, bank0(), 8, 25);
        let refn = DdrCommand::RefNeighbors {
            bank: bank0(),
            row: 8,
            radius: 2,
        };
        let now = m.earliest(&refn);
        assert!(now < Cycle::MAX);
        m.issue(&refn, now).unwrap();
        assert_eq!(m.row_pressure(&bank0(), 7), 0.0);
        assert_eq!(m.row_pressure(&bank0(), 9), 0.0);
        assert_eq!(m.row_pressure(&bank0(), 10), 0.0);
        assert!(m.stats().ref_neighbor_rows >= 4);
    }

    #[test]
    fn trr_defends_single_aggressor_but_not_many_sided() {
        let trr = TrrConfig {
            table_size: 2,
            kind: crate::trr::TrrSamplerKind::MisraGries,
            targets_per_ref: 1,
            radius: 2,
            min_count: 1,
        };

        // Scenario A: one aggressor, REFs interleaved: TRR keeps up.
        let mut cfg = DramConfig::test_config(25);
        cfg.trr = Some(trr);
        let mut m = DramModule::new(cfg).unwrap();
        let mut now = Cycle::ZERO;
        let mut flips_single = 0;
        for i in 0..60 {
            let act = DdrCommand::Act {
                bank: bank0(),
                row: 8,
            };
            now = now.max(m.earliest(&act));
            flips_single += m.issue(&act, now).unwrap().flips_generated;
            let pre = DdrCommand::Pre { bank: bank0() };
            now = now.max(m.earliest(&pre));
            m.issue(&pre, now).unwrap();
            if i % 10 == 9 {
                let rf = DdrCommand::Ref {
                    channel: 0,
                    rank: 0,
                };
                now = now.max(m.earliest(&rf));
                now = m.issue(&rf, now).unwrap().done;
            }
        }
        assert_eq!(flips_single, 0, "TRR must stop a single-aggressor hammer");

        // Scenario B: many-sided (6 aggressors > table 2): TRR loses.
        let mut cfg = DramConfig::test_config(25);
        cfg.trr = Some(trr);
        let mut m = DramModule::new(cfg).unwrap();
        let mut now = Cycle::ZERO;
        let mut flips_many = 0;
        let aggressors = [2u32, 5, 8, 11, 14, 1];
        for i in 0..60 {
            for &row in &aggressors {
                let act = DdrCommand::Act { bank: bank0(), row };
                now = now.max(m.earliest(&act));
                flips_many += m.issue(&act, now).unwrap().flips_generated;
                let pre = DdrCommand::Pre { bank: bank0() };
                now = now.max(m.earliest(&pre));
                m.issue(&pre, now).unwrap();
            }
            if i % 10 == 9 {
                let rf = DdrCommand::Ref {
                    channel: 0,
                    rank: 0,
                };
                now = now.max(m.earliest(&rf));
                now = m.issue(&rf, now).unwrap().done;
            }
        }
        assert!(flips_many > 0, "many-sided hammer must bypass small TRR");
    }

    #[test]
    fn data_write_read_and_poison() {
        let mut m = module(10);
        let data = vec![0x5A; 64];
        m.write_line(&bank0(), 7, 1, &data);
        let (read, poisoned) = m.read_line(&bank0(), 7, 1);
        assert_eq!(read, data);
        assert!(!poisoned);
        hammer(&mut m, bank0(), 8, 40);
        assert!(m.stats().flips > 0);
        // Some neighbor row got poisoned; row 7 is within radius 2 of 8.
        let any_poisoned = (5..=10).any(|r| m.row_is_poisoned(&bank0(), r));
        assert!(any_poisoned);
    }

    #[test]
    fn remapped_rows_report_logical_coordinates() {
        let mut cfg = DramConfig::test_config(8);
        cfg.remap = RemapConfig {
            remap_fraction: 0.5,
            within_subarray: true,
        };
        cfg.geometry = Geometry::medium();
        let mut m = DramModule::new(cfg).unwrap();
        let remapped = m.remapped_logical_rows(&bank0());
        assert!(!remapped.is_empty(), "expected some remapped rows");
        // Hammer a remapped logical row; flips must be reported against
        // logical victims whose *internal* rows neighbor the internal
        // aggressor.
        let agg = remapped[0];
        hammer(&mut m, bank0(), agg, 60);
        let events = m.drain_flips();
        assert!(!events.is_empty());
        for e in &events {
            assert_eq!(e.aggressor_row, agg);
            assert!(e.victim_row < m.config().geometry.rows_per_bank());
        }
    }

    #[test]
    fn retention_check_fires_without_refresh() {
        let mut m = module(1_000_000);
        let t_refw = m.config().timing.t_refw;
        assert!(!m.check_retention(&bank0(), 3, Cycle(t_refw / 2), 1.0));
        assert!(m.check_retention(&bank0(), 3, Cycle(t_refw * 2), 1.0));
        assert_eq!(m.stats().retention_decays, 1);
    }

    #[test]
    fn refresh_groups_cycle_through_all_rows() {
        let mut m = module(1_000_000);
        let g = m.config().geometry;
        let groups = g.rows_per_bank() / m.rows_per_refresh_group();
        // Pressure a row, then check exactly one full REF cycle clears it.
        hammer(&mut m, bank0(), 8, 5);
        assert!(m.row_pressure(&bank0(), 9) > 0.0);
        let mut now = Cycle(100_000);
        let mut cleared_at_ref: Option<u32> = None;
        for i in 0..groups {
            let rf = DdrCommand::Ref {
                channel: 0,
                rank: 0,
            };
            now = now.max(m.earliest(&rf));
            now = m.issue(&rf, now).unwrap().done;
            if cleared_at_ref.is_none() && m.row_pressure(&bank0(), 9) == 0.0 {
                cleared_at_ref = Some(i);
            }
        }
        assert!(cleared_at_ref.is_some(), "full REF cycle must cover row 9");
        assert_eq!(m.stats().refs as u32, groups);
    }

    #[test]
    fn inert_fault_plan_is_byte_identical_to_none() {
        let mut plain = module(10);
        let mut cfg = DramConfig::test_config(10);
        cfg.faults = Some(FaultPlan {
            seed: 12345,
            ..FaultPlan::default()
        });
        let mut faulted = DramModule::new(cfg).unwrap();
        let (_, f_plain) = hammer(&mut plain, bank0(), 8, 40);
        let (_, f_faulted) = hammer(&mut faulted, bank0(), 8, 40);
        assert_eq!(f_plain, f_faulted);
        assert_eq!(plain.stats(), faulted.stats());
        assert_eq!(plain.drain_flips(), faulted.drain_flips());
        assert_eq!(faulted.fault_injections(), 0);
    }

    #[test]
    fn tracer_observes_without_perturbing_the_device() {
        let mut plain = module(10);
        let mut cfg = DramConfig::test_config(10);
        let tracer = Tracer::buffer();
        cfg.tracer = Some(tracer.clone());
        let mut traced = DramModule::new(cfg).unwrap();
        let (_, f_plain) = hammer(&mut plain, bank0(), 8, 40);
        let (_, f_traced) = hammer(&mut traced, bank0(), 8, 40);
        assert_eq!(f_plain, f_traced);
        assert_eq!(plain.stats(), traced.stats());
        let flips = traced.drain_flips();
        assert_eq!(plain.drain_flips(), flips);
        drop(traced);
        let records = tracer.take_records();
        assert!(matches!(records[0].event, Event::DeviceReset { .. }));
        assert!(matches!(
            records.last().unwrap().event,
            Event::DeviceStats { .. }
        ));
        let commands = records
            .iter()
            .filter(|r| matches!(r.event, Event::Command { .. }))
            .count();
        let traced_flips = records
            .iter()
            .filter(|r| matches!(r.event, Event::Flip { .. }))
            .count();
        assert!(commands > 0, "hammer issues commands");
        assert_eq!(traced_flips, flips.len());
    }

    #[test]
    fn dropped_ref_leaves_pressure_in_place() {
        let mut cfg = DramConfig::test_config(30);
        cfg.faults = Some(FaultPlan {
            seed: 1,
            dropped_ref: 1.0,
            ..FaultPlan::default()
        });
        let mut m = DramModule::new(cfg).unwrap();
        let (mut now, _) = hammer(&mut m, bank0(), 8, 20);
        assert!(m.row_pressure(&bank0(), 7) > 0.0);
        let groups = m.config().geometry.rows_per_bank() / m.rows_per_refresh_group();
        for _ in 0..groups {
            let rf = DdrCommand::Ref {
                channel: 0,
                rank: 0,
            };
            now = now.max(m.earliest(&rf));
            now = m.issue(&rf, now).unwrap().done;
        }
        assert!(
            m.row_pressure(&bank0(), 7) > 0.0,
            "dropped REFs must not restore rows"
        );
        assert_eq!(m.stats().refs as u32, groups, "timing side still counted");
        assert!(m.fault_injections() >= u64::from(groups));
    }

    #[test]
    fn ghost_ref_skips_cursor_groups() {
        let mut cfg = DramConfig::test_config(1_000_000);
        cfg.faults = Some(FaultPlan {
            seed: 2,
            ghost_ref: 1.0,
            ..FaultPlan::default()
        });
        let mut m = DramModule::new(cfg).unwrap();
        hammer(&mut m, bank0(), 8, 5);
        assert!(m.row_pressure(&bank0(), 9) > 0.0);
        // With every REF ghosting, the cursor advances two groups per
        // command: a full nominal REF cycle covers only half the rows.
        let groups = m.config().geometry.rows_per_bank() / m.rows_per_refresh_group();
        let mut now = Cycle(100_000);
        for _ in 0..groups {
            let rf = DdrCommand::Ref {
                channel: 0,
                rank: 0,
            };
            now = now.max(m.earliest(&rf));
            now = m.issue(&rf, now).unwrap().done;
        }
        assert_eq!(m.fault_injections(), u64::from(groups));
        // Only even-indexed groups were restored; if groups is even the
        // odd half is starved forever, otherwise coverage needs two
        // nominal cycles instead of one.
        if groups.is_multiple_of(2) {
            let g9 = 9 / m.rows_per_refresh_group();
            if !g9.is_multiple_of(2) {
                assert!(m.row_pressure(&bank0(), 9) > 0.0);
            }
        }
    }

    #[test]
    fn trr_sampler_miss_blinds_trr() {
        // Scenario A of `trr_defends_single_aggressor...`, but with a
        // sampler that misses every ACT: TRR never sees the aggressor.
        let trr = TrrConfig {
            table_size: 2,
            kind: crate::trr::TrrSamplerKind::MisraGries,
            targets_per_ref: 1,
            radius: 2,
            min_count: 1,
        };
        let mut cfg = DramConfig::test_config(25);
        cfg.trr = Some(trr);
        cfg.faults = Some(FaultPlan {
            seed: 3,
            trr_miss: 1.0,
            ..FaultPlan::default()
        });
        let mut m = DramModule::new(cfg).unwrap();
        let mut now = Cycle::ZERO;
        let mut flips = 0;
        for i in 0..60 {
            let act = DdrCommand::Act {
                bank: bank0(),
                row: 8,
            };
            now = now.max(m.earliest(&act));
            flips += m.issue(&act, now).unwrap().flips_generated;
            let pre = DdrCommand::Pre { bank: bank0() };
            now = now.max(m.earliest(&pre));
            m.issue(&pre, now).unwrap();
            if i % 10 == 9 {
                let rf = DdrCommand::Ref {
                    channel: 0,
                    rank: 0,
                };
                now = now.max(m.earliest(&rf));
                now = m.issue(&rf, now).unwrap().done;
            }
        }
        assert!(flips > 0, "a blind sampler must let the hammer through");
        assert_eq!(m.stats().trr_refresh_rows, 0);
    }

    #[test]
    fn disturb_saturation_caps_act_counter() {
        let mut cfg = DramConfig::test_config(1_000_000);
        cfg.faults = Some(FaultPlan {
            seed: 4,
            disturb_saturation: 5,
            ..FaultPlan::default()
        });
        let mut m = DramModule::new(cfg).unwrap();
        hammer(&mut m, bank0(), 8, 20);
        assert_eq!(m.row_acts_since_refresh(&bank0(), 8), 5);
        assert_eq!(m.fault_injections(), 15);
        assert_eq!(m.stats().fault_injections, 15);
    }

    #[test]
    fn fault_decisions_are_reproducible() {
        let mk = || {
            let mut cfg = DramConfig::test_config(10);
            cfg.faults = Some(FaultPlan {
                seed: 777,
                dropped_ref: 0.5,
                ghost_ref: 0.25,
                ..FaultPlan::default()
            });
            DramModule::new(cfg).unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        let drive = |m: &mut DramModule| {
            let mut now = Cycle::ZERO;
            let mut flips = 0;
            for i in 0..50 {
                let act = DdrCommand::Act {
                    bank: bank0(),
                    row: 8,
                };
                now = now.max(m.earliest(&act));
                flips += m.issue(&act, now).unwrap().flips_generated;
                let pre = DdrCommand::Pre { bank: bank0() };
                now = now.max(m.earliest(&pre));
                m.issue(&pre, now).unwrap();
                if i % 5 == 4 {
                    let rf = DdrCommand::Ref {
                        channel: 0,
                        rank: 0,
                    };
                    now = now.max(m.earliest(&rf));
                    now = m.issue(&rf, now).unwrap().done;
                }
            }
            flips
        };
        assert_eq!(drive(&mut a), drive(&mut b));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.fault_injections(), b.fault_injections());
        assert_eq!(a.drain_flips(), b.drain_flips());
    }

    #[test]
    fn out_of_range_commands_rejected() {
        let mut m = module(100);
        let bad_act = DdrCommand::Act {
            bank: bank0(),
            row: 9999,
        };
        assert!(matches!(
            m.issue(&bad_act, Cycle::ZERO),
            Err(Error::Protocol(_))
        ));
        m.issue(
            &DdrCommand::Act {
                bank: bank0(),
                row: 0,
            },
            Cycle::ZERO,
        )
        .unwrap();
        let bad_rd = DdrCommand::Rd {
            bank: bank0(),
            col: 999,
            auto_pre: false,
        };
        let t = m.earliest(&bad_rd);
        assert!(matches!(m.issue(&bad_rd, t), Err(Error::Protocol(_))));
    }
}
