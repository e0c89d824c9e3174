//! The full simulated machine: cores + LLC + memory controller + DRAM
//! + host OS + defenses + tenants.
//!
//! [`Machine`] wires every substrate together and runs the closed
//! loop the paper's co-design implies:
//!
//! ```text
//! tenant workloads ──(virtual lines)──> page tables ──> LLC ──misses──> MC ──DDR──> DRAM
//!        ▲                                                │                      │
//!        │                                   PMU samples  │   ACT interrupts     │ flips
//!        └──────── defense daemon <────────────────────────┴──────────────────────┘
//!                        │ actions: refresh instr / REF_NEIGHBORS / lock / remap
//!                        └────────────> MC maintenance + LLC locks + page remaps
//! ```
//!
//! Tenants issue [`AccessOp`]s against *virtual* lines; the machine
//! translates through the owning domain's page table on every
//! operation, so the remap defense (§4.2) genuinely severs an
//! attacker's physical adjacency. Core traffic goes through the LLC;
//! DMA traffic goes straight to the controller (and is therefore
//! invisible to PMU-based defenses — the paper's §1 blind spot).

use crate::metrics::{DefenseOverhead, SimReport};
use crate::taxonomy::DefenseKind;
use hammertime_cache::{CacheConfig, Llc};
use hammertime_common::addr::LINES_PER_PAGE;
use hammertime_common::geometry::BankId;
use hammertime_common::{
    CacheLineAddr, Cycle, DomainId, Error, FaultPlan, Geometry, RequestSource, Result,
};
use hammertime_dram::disturb::FlipEvent;
use hammertime_dram::remap::RemapConfig;
use hammertime_dram::{DisturbanceProfile, DramConfig, TimingParams, TrrConfig};
use hammertime_memctrl::addrmap::MappingScheme;
use hammertime_memctrl::mitigation::McMitigationConfig;
use hammertime_memctrl::request::{MemRequest, RequestKind};
use hammertime_memctrl::{ActCounterConfig, MemCtrl, MemCtrlConfig};
use hammertime_os::defense::anvil::{Anvil, AnvilConfig};
use hammertime_os::defense::frequency::{AggressorRemap, LineLocking};
use hammertime_os::defense::refresh::{RefreshMechanism, VictimRefresh, VictimRefreshConfig};
use hammertime_telemetry::{Event, Tracer};
use serde::{Deserialize, Serialize};

use hammertime_os::{
    AddressSpaces, AttackResponse, DefenseAction, Enclave, EnclaveReaction, EnclaveStatus,
    FrameAllocator, NoDefense, PlacementPolicy, SoftwareDefense, Topology,
};
use hammertime_workloads::{AccessOp, Workload};
use std::collections::BTreeMap;

/// Machine-wide configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// DRAM organization.
    pub geometry: Geometry,
    /// DDR timing.
    pub timing: TimingParams,
    /// Disturbance model.
    pub disturbance: DisturbanceProfile,
    /// Internal row remapping in the device.
    pub remap: RemapConfig,
    /// In-DRAM TRR independent of the defense choice (the defense
    /// [`DefenseKind::InDramTrr`] overrides this).
    pub trr: Option<TrrConfig>,
    /// LLC shape.
    pub cache: CacheConfig,
    /// The defense under test.
    pub defense: DefenseKind,
    /// RNG seed for the whole machine.
    pub seed: u64,
    /// The blast radius the *software* assumes (its belief; may lag
    /// the true radius — E5 sweeps this).
    pub assumed_radius: u32,
    /// LLC hit service time, cycles.
    pub llc_hit_cycles: u64,
    /// clflush cost, cycles.
    pub flush_cycles: u64,
    /// Scheduler quantum: how often completions/interrupts are
    /// serviced, cycles.
    pub quantum: u64,
    /// Periodic REF on/off (failure injection).
    pub refresh_enabled: bool,
    /// Enable precise ACT counters even when the defense doesn't need
    /// them (enclave-visible interrupts, §4.4).
    pub force_act_counters: bool,
    /// Randomize counter reset values (the paper's anti-evasion
    /// measure, §4.2); `false` models a predictable counter an
    /// attacker can pace around.
    pub randomize_counter_resets: bool,
    /// ECC mode on the DRAM data path (E10 ablation).
    pub ecc: hammertime_dram::module::EccMode,
    /// Row-buffer management policy (E11 ablation).
    pub page_policy: hammertime_memctrl::controller::PagePolicy,
    /// Deterministic fault-injection plan, threaded into both the DRAM
    /// device and the memory controller (each derives an independent
    /// stream from the plan seed). `None` models healthy hardware and
    /// is byte-identical to a build without the fault subsystem.
    pub faults: Option<FaultPlan>,
    /// Cycle-stamped event tracer, threaded into the DRAM device and
    /// the memory controller and used for machine-level events
    /// (ACT-interrupt servicing, page remaps). `None` — the default —
    /// falls back to the experiment engine's ambient per-cell tracer
    /// (also usually `None`) and costs nothing on the simulation path.
    pub tracer: Option<Tracer>,
}

impl MachineConfig {
    /// A fast test configuration: medium geometry, compressed timing,
    /// aggressive disturbance with the given `mac`.
    pub fn fast(defense: DefenseKind, mac: u64) -> MachineConfig {
        MachineConfig {
            geometry: Geometry::medium(),
            timing: TimingParams::tiny_wide(),
            disturbance: DisturbanceProfile {
                mac,
                blast_radius: 2,
                distance_decay: 0.5,
                flip_prob: 1.0,
                overshoot_step: 0.05,
            },
            remap: RemapConfig::identity(),
            trr: None,
            cache: CacheConfig::small_test(),
            defense,
            seed: 42,
            assumed_radius: 2,
            llc_hit_cycles: 4,
            flush_cycles: 2,
            quantum: 200,
            refresh_enabled: true,
            force_act_counters: false,
            randomize_counter_resets: true,
            ecc: hammertime_dram::module::EccMode::None,
            page_policy: hammertime_memctrl::controller::PagePolicy::Open,
            faults: None,
            tracer: None,
        }
    }

    /// A realistic configuration: server geometry, DDR4-2400 timing,
    /// the supplied disturbance profile (typically scaled down for
    /// tractable runs — document the factor in EXPERIMENTS.md).
    pub fn realistic(defense: DefenseKind, profile: DisturbanceProfile) -> MachineConfig {
        MachineConfig {
            geometry: Geometry::server(),
            timing: TimingParams::ddr4_2400(),
            disturbance: profile,
            remap: RemapConfig::identity(),
            trr: None,
            cache: CacheConfig::server(),
            defense,
            seed: 42,
            assumed_radius: profile.blast_radius,
            llc_hit_cycles: 40,
            flush_cycles: 8,
            quantum: 2_000,
            refresh_enabled: true,
            force_act_counters: false,
            randomize_counter_resets: true,
            ecc: hammertime_dram::module::EccMode::None,
            page_policy: hammertime_memctrl::controller::PagePolicy::Open,
            faults: None,
            tracer: None,
        }
    }
}

struct Tenant {
    domain: DomainId,
    workload: Option<Box<dyn Workload>>,
    source: RequestSource,
    ready_at: Cycle,
    waiting_on: Option<u64>,
    waiting_line: Option<CacheLineAddr>,
    ops_done: u64,
    finished: bool,
}

/// A tenant detached from its machine, ready to be admitted elsewhere.
///
/// This is the migration unit of the fleet layer: the boxed workload
/// itself is moved out of the source machine, never copied, so the
/// stream resumes on the destination exactly where it stopped and
/// nothing but the destination can advance it. Migration therefore
/// needs only `Workload: Send`. Addresses inside the workload are
/// *virtual* lines of the tenant's arena; re-admitting the export with
/// the same page count onto a fresh domain reproduces that arena
/// (vpages `0..pages`), so the stream stays valid even when the
/// destination machine has a different geometry — only the physical
/// placement changes.
pub struct TenantExport {
    /// The tenant's trust domain id (fleet-unique by convention).
    pub domain: DomainId,
    /// Pages the tenant had mapped on the source machine.
    pub pages: u64,
    /// The workload, mid-stream (`None` if none was attached).
    pub workload: Option<Box<dyn Workload>>,
    /// Operations the tenant completed on the source machine.
    pub ops_done: u64,
    /// Mitigation triggers the source controller charged to this
    /// tenant. They travel with the export: the destination merges
    /// them into its own ledger (and re-seeds its suspect score from
    /// the total), so a hammering tenant cannot shed its history by
    /// migrating.
    pub triggers: hammertime_common::TriggerCounts,
}

impl std::fmt::Debug for TenantExport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantExport")
            .field("domain", &self.domain)
            .field("pages", &self.pages)
            .field("ops_done", &self.ops_done)
            .field("triggers", &self.triggers)
            .finish()
    }
}

/// Memoized row→frames translations, keyed `(address-map generation,
/// per-(bank, row) results)`; see the `frames_cache` field.
type FramesMemo = (u64, std::collections::HashMap<(usize, u32), Vec<u64>>);

/// Most interrupts the machine keeps for
/// [`Machine::drain_interrupt_log`] between drains. Nothing in a run
/// reads the log, and an unbounded one grows with simulated time
/// (about 20 MB over a full-scale convoluted-refresh cell).
const INTERRUPT_LOG_CAP: usize = 256;

/// The assembled machine.
pub struct Machine {
    cfg: MachineConfig,
    mc: MemCtrl,
    llc: Llc,
    allocator: FrameAllocator,
    spaces: AddressSpaces,
    daemon: Box<dyn SoftwareDefense>,
    enclaves: BTreeMap<u32, Enclave>,
    tenants: Vec<Tenant>,
    next_id: u64,
    window_start: Cycle,
    overhead: DefenseOverhead,
    flips: Vec<FlipEvent>,
    /// Frames already migrated this refresh window (rate limit).
    remapped_this_window: std::collections::HashSet<u64>,
    /// The first [`INTERRUPT_LOG_CAP`] interrupts serviced since the
    /// last [`Machine::drain_interrupt_log`] (observability only).
    interrupt_log: Vec<hammertime_memctrl::ActInterrupt>,
    /// Memoized [`Machine::frames_of_row`] results, keyed on the
    /// address map's generation: the interrupt path asks about the same
    /// few victim rows on every overflow and would otherwise redo
    /// O(columns) translations each time. A map reconfiguration bumps
    /// the generation and the whole memo is discarded on next use —
    /// stale translations must never leak across a remap.
    frames_cache: std::cell::RefCell<FramesMemo>,
    lockup: Option<String>,
    /// When the first [`Machine::run`] call began (`None` until then);
    /// lets callers distinguish warm-up work from the measured run.
    run_start: Option<Cycle>,
    /// The resolved tracer (config or ambient); also threaded into the
    /// controller and device configs.
    tracer: Option<Tracer>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("defense", &self.cfg.defense.name())
            .field("now", &self.mc.now())
            .field("tenants", &self.tenants.len())
            .finish()
    }
}

/// What a latency measurement over a pair of lines reveals: the
/// attacker-observable output of [`Machine::probe_pair`]. Timing
/// distinguishes exactly these three cases on real DRAM — nothing
/// finer — which is why a SPOILER-style inference can recover the
/// bank/row *partition* of its arena but not absolute row numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeOutcome {
    /// Same bank, same row: the second access hits the open row
    /// buffer (fast).
    RowHit,
    /// Same bank, different row: the second access forces a
    /// precharge/activate round trip (slow).
    RowConflict,
    /// Different banks: no interaction (intermediate).
    NoConflict,
}

/// Inverts a flat bank index back to a [`BankId`].
fn bank_from_flat(g: &Geometry, flat: usize) -> BankId {
    let per_rank = g.banks_per_rank() as usize;
    let rank_idx = flat / per_rank;
    let in_rank = (flat % per_rank) as u32;
    BankId {
        channel: rank_idx as u32 / g.ranks,
        rank: rank_idx as u32 % g.ranks,
        bank_group: in_rank / g.banks_per_group,
        bank: in_rank % g.banks_per_group,
    }
}

impl Machine {
    /// Builds the machine for the configured defense.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any substrate.
    pub fn new(cfg: MachineConfig) -> Result<Machine> {
        let mac = cfg.disturbance.mac;
        let radius = cfg.assumed_radius;
        let t = cfg.timing;

        // Derive per-substrate configuration from the defense kind.
        let (mapping, policy, enforce) = match cfg.defense {
            DefenseKind::SubarrayIsolation => (
                MappingScheme::SubarrayIsolated,
                PlacementPolicy::SubarrayGroup,
                true,
            ),
            DefenseKind::BankPartitionIsolation => (
                MappingScheme::BankPartition,
                PlacementPolicy::BankPartition,
                false,
            ),
            DefenseKind::ZebramGuard => (
                MappingScheme::CacheLineInterleave,
                PlacementPolicy::ZebramGuard { radius },
                false,
            ),
            // The scramble seed is derived from the machine seed so two
            // machines with the same config install the same permutation
            // (determinism) while distinct seeds get distinct mappings.
            DefenseKind::RubixMapping => (
                MappingScheme::RubixScramble {
                    seed: cfg.seed ^ 0x5CB1,
                },
                PlacementPolicy::Default,
                false,
            ),
            DefenseKind::CattPartition => (
                MappingScheme::CacheLineInterleave,
                PlacementPolicy::CattPartition { radius },
                false,
            ),
            _ => (
                MappingScheme::CacheLineInterleave,
                PlacementPolicy::Default,
                false,
            ),
        };
        let mitigation = match cfg.defense {
            DefenseKind::Para { prob } => McMitigationConfig::Para { prob, radius },
            DefenseKind::Graphene { table_size } => McMitigationConfig::Graphene {
                table_size,
                threshold: (mac / 4).max(1),
                radius,
            },
            DefenseKind::BlockHammer { delay } => McMitigationConfig::BlockHammer {
                cbf_counters: 1024,
                hashes: 3,
                threshold: (mac / 4).max(1),
                delay,
                epoch: t.t_refw / 2,
            },
            DefenseKind::TwiceLite { table_size } => McMitigationConfig::TwiceLite {
                table_size,
                threshold: (mac / 4).max(1),
                radius,
                prune_interval: t.t_refi * 8,
            },
            // A double-sided pair splits the victim's pressure across
            // two aggressors, so the per-aggressor trigger must fire
            // well below MAC/2.
            DefenseKind::Oracle => McMitigationConfig::Oracle {
                fraction: 0.3,
                mac,
                radius: cfg.disturbance.blast_radius,
            },
            // The quota scales with the MAC (a tenant hammering at the
            // MAC per window is exactly who the throttle is for) and
            // decays on the same half-refresh-window epoch BlockHammer
            // uses, so rehabilitated tenants recover quickly.
            DefenseKind::BreakHammer { score_threshold } => McMitigationConfig::BreakHammer {
                score_threshold,
                quota: mac.max(8),
                delay: 1_000,
                epoch: t.t_refw / 2,
            },
            _ => McMitigationConfig::None,
        };
        let trr = match cfg.defense {
            DefenseKind::InDramTrr { table_size } => Some(TrrConfig {
                table_size,
                kind: hammertime_dram::TrrSamplerKind::MisraGries,
                targets_per_ref: 1,
                radius,
                min_count: 4,
            }),
            _ => cfg.trr,
        };
        let act_counters = if cfg.defense.needs_precise_interrupts() || cfg.force_act_counters {
            // ACT-interrupt threshold MAC / 8 (EXPERIMENTS.md parameters).
            let mut c = ActCounterConfig::precise((cfg.disturbance.mac / 8).max(1));
            if !cfg.randomize_counter_resets {
                c.randomize_reset_window = 0;
            }
            c
        } else {
            ActCounterConfig::legacy(0)
        };
        let mut cache_cfg = cfg.cache;
        cache_cfg.pmu_sample_period = match cfg.defense {
            DefenseKind::Anvil { .. } => cfg.cache.pmu_sample_period.max(1),
            _ => 0,
        };

        // An explicit tracer on the config wins; otherwise inherit the
        // experiment engine's ambient per-cell tracer (set only while
        // `trace record` runs a cell on this thread).
        let tracer = cfg
            .tracer
            .clone()
            .or_else(crate::experiments::engine::ambient_tracer);
        let dram_config = DramConfig {
            geometry: cfg.geometry,
            timing: cfg.timing,
            disturbance: cfg.disturbance,
            trr,
            remap: cfg.remap,
            seed: cfg.seed ^ 0xD12A,
            ecc: cfg.ecc,
            // Machine runs demand byte-identical flip logs across
            // schedulers and job counts; keep per-ACT accounting.
            batched_pressure: false,
            faults: cfg.faults,
            tracer: tracer.clone(),
        };
        let mc_config = MemCtrlConfig {
            mapping,
            mitigation,
            act_counters,
            refresh_enabled: cfg.refresh_enabled,
            enforce_domain_groups: enforce,
            queue_capacity: 65_536,
            page_policy: cfg.page_policy,
            faults: cfg.faults,
            tracer: tracer.clone(),
        };
        let mc = MemCtrl::new(mc_config, dram_config, cfg.seed ^ 0x3C3C)?;
        let llc = Llc::new(cache_cfg)?;
        let allocator = FrameAllocator::new(policy, mc.map().clone())?;
        let topology = Topology::new(mc.map().clone(), radius);
        let daemon: Box<dyn SoftwareDefense> = match cfg.defense {
            DefenseKind::AggressorRemap => Box::new(AggressorRemap::new()),
            DefenseKind::LineLocking => Box::new(LineLocking::new()),
            DefenseKind::VictimRefreshInstr => Box::new(VictimRefresh::new(
                VictimRefreshConfig {
                    interrupts_before_action: 1,
                    mechanism: RefreshMechanism::Instruction,
                },
                topology,
            )),
            DefenseKind::VictimRefreshRefNeighbors => Box::new(VictimRefresh::new(
                VictimRefreshConfig {
                    interrupts_before_action: 1,
                    mechanism: RefreshMechanism::RefNeighbors,
                },
                topology,
            )),
            DefenseKind::VictimRefreshConvoluted => Box::new(VictimRefresh::new(
                VictimRefreshConfig {
                    interrupts_before_action: 1,
                    mechanism: RefreshMechanism::Convoluted,
                },
                topology,
            )),
            DefenseKind::Anvil { miss_threshold } => {
                Box::new(Anvil::new(AnvilConfig { miss_threshold }, topology))
            }
            _ => Box::new(NoDefense),
        };
        let overhead = DefenseOverhead {
            sram_bits: mitigation
                .sram_bits(cfg.geometry.total_banks(), cfg.geometry.rows_per_bank()),
            ..DefenseOverhead::default()
        };
        Ok(Machine {
            mc,
            llc,
            allocator,
            spaces: AddressSpaces::new(),
            daemon,
            enclaves: BTreeMap::new(),
            tenants: Vec::new(),
            next_id: 1,
            window_start: Cycle::ZERO,
            overhead,
            flips: Vec::new(),
            remapped_this_window: std::collections::HashSet::new(),
            interrupt_log: Vec::new(),
            frames_cache: std::cell::RefCell::new((0, std::collections::HashMap::new())),
            lockup: None,
            run_start: None,
            tracer,
            cfg,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.mc.now()
    }

    /// The cycle at which the first [`Machine::run`] call started, or
    /// `None` if the machine has never run.
    pub fn run_start(&self) -> Option<Cycle> {
        self.run_start
    }

    /// The host's topology view (for attack/defense construction).
    pub fn topology(&self) -> Topology {
        Topology::new(self.mc.map().clone(), self.cfg.assumed_radius)
    }

    /// Reconfigures the controller's address-mapping scheme, bumping
    /// the map generation (which invalidates the `frames_of_row` memo
    /// on next use).
    ///
    /// Only legal on a cold machine: queued requests or attached
    /// tenants hold translations under the old map, and silently
    /// reinterpreting them would corrupt the experiment.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if any tenant is attached or the controller
    /// has queued work; propagates scheme construction errors.
    pub fn set_mapping(&mut self, scheme: MappingScheme) -> Result<()> {
        if !self.tenants.is_empty() {
            return Err(Error::Config(
                "cannot change the address mapping with tenants attached".into(),
            ));
        }
        self.mc.set_mapping(scheme)
    }

    /// Registers a tenant and allocates `pages` pages, returning its
    /// *virtual* cache-line arena (the addresses its workload uses).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (region exhaustion etc.).
    pub fn add_tenant(&mut self, domain: DomainId, pages: u64) -> Result<Vec<CacheLineAddr>> {
        self.allocator.register_domain(domain)?;
        if let Some(region) = self.allocator.region_of(domain) {
            if self.cfg.defense == DefenseKind::SubarrayIsolation {
                self.mc.assign_group(region, Some(domain))?;
            }
        }
        let table = self.spaces.table_mut(domain);
        let base_vpage = table.len() as u64;
        let mut arena = Vec::with_capacity((pages * LINES_PER_PAGE) as usize);
        for i in 0..pages {
            let frame = self.allocator.alloc(domain)?;
            let vpage = base_vpage + i;
            self.spaces.table_mut(domain).map(vpage, frame)?;
            for l in 0..LINES_PER_PAGE {
                arena.push(CacheLineAddr(vpage * LINES_PER_PAGE + l));
            }
        }
        if !self.tenants.iter().any(|t| t.domain == domain) {
            self.tenants.push(Tenant {
                domain,
                workload: None,
                source: RequestSource::Core(self.tenants.len() as u32),
                ready_at: self.mc.now(),
                waiting_on: None,
                waiting_line: None,
                ops_done: 0,
                finished: false,
            });
        }
        Ok(arena)
    }

    /// Marks `domain` as an enclave with the given integrity and
    /// response configuration (§4.4). Must already be a tenant.
    pub fn make_enclave(
        &mut self,
        domain: DomainId,
        integrity_checked: bool,
        response: AttackResponse,
    ) {
        self.enclaves
            .insert(domain.0, Enclave::new(domain, integrity_checked, response));
    }

    /// Attaches a workload to a tenant. The workload's
    /// [`Workload::source`] decides whether it runs as core traffic
    /// (through the LLC) or DMA (bypassing it).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for unknown domains.
    pub fn set_workload(&mut self, domain: DomainId, workload: Box<dyn Workload>) -> Result<()> {
        let t = self
            .tenants
            .iter_mut()
            .find(|t| t.domain == domain)
            .ok_or_else(|| Error::Config(format!("{domain} is not a tenant")))?;
        t.source = workload.source();
        t.workload = Some(workload);
        t.finished = false;
        Ok(())
    }

    /// Detaches a tenant (ASID destroy / migration source): removes it
    /// from the scheduler, tears down its address space, and
    /// quarantines its frames under [`DomainId::HOST`] so they are
    /// never handed to another tenant on this machine. Returns the
    /// [`TenantExport`] a destination machine needs to resume the
    /// tenant; dropping the export instead models plain destruction.
    ///
    /// An in-flight memory request of the detached tenant is
    /// deliberately left to drain: the completion path ignores
    /// requests whose issuer is gone.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for unknown domains.
    pub fn detach_tenant(&mut self, domain: DomainId) -> Result<TenantExport> {
        let pos = self
            .tenants
            .iter()
            .position(|t| t.domain == domain)
            .ok_or_else(|| Error::Config(format!("{domain} is not a tenant")))?;
        let tenant = self.tenants.remove(pos);
        self.enclaves.remove(&domain.0);
        let pages = self
            .spaces
            .remove_table(domain)
            .map(|t| t.len() as u64)
            .unwrap_or(0);
        for frame in self.allocator.frames_of(domain) {
            self.allocator.reassign(frame, DomainId::HOST)?;
        }
        Ok(TenantExport {
            domain,
            pages,
            workload: tenant.workload,
            ops_done: tenant.ops_done,
            triggers: self.mc.export_triggers(domain),
        })
    }

    /// Admits a detached tenant (migration destination): allocates a
    /// fresh arena of `export.pages` pages under the export's domain
    /// and resumes its workload mid-stream. The arena's *virtual*
    /// lines are the same `0..pages` range the tenant had on the
    /// source machine — [`TenantExport`] documents why that keeps the
    /// stream valid across geometries — while physical placement is
    /// decided by this machine's allocator and defense policy.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if the domain is already a tenant here;
    /// propagates allocation failures.
    pub fn admit_tenant(&mut self, export: TenantExport) -> Result<()> {
        if self.tenants.iter().any(|t| t.domain == export.domain) {
            return Err(Error::Config(format!(
                "{} is already a tenant of this machine",
                export.domain
            )));
        }
        self.add_tenant(export.domain, export.pages)?;
        self.mc.import_triggers(export.domain, export.triggers);
        if let Some(workload) = export.workload {
            self.set_workload(export.domain, workload)?;
        }
        Ok(())
    }

    /// Translates a tenant's virtual line to its current physical
    /// line.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn translate(&self, domain: DomainId, vline: CacheLineAddr) -> Result<CacheLineAddr> {
        let pa = self
            .spaces
            .translate(domain, hammertime_common::VirtAddr(vline.0 * 64))?;
        Ok(pa.line())
    }

    /// Groups a domain's virtual lines by their current physical
    /// (bank, row): the attacker's reverse-engineered view used to
    /// build hammer patterns. Returns `(bank, row, virtual lines)`
    /// sorted by bank then row.
    pub fn rows_of_domain(&self, domain: DomainId) -> Vec<(BankId, u32, Vec<CacheLineAddr>)> {
        let mut groups: BTreeMap<(usize, u32), Vec<CacheLineAddr>> = BTreeMap::new();
        let g = self.cfg.geometry;
        if let Some(table) = self.spaces.table(domain) {
            for (vpage, _) in table.iter() {
                for l in 0..LINES_PER_PAGE {
                    let vline = CacheLineAddr(vpage * LINES_PER_PAGE + l);
                    let Ok(pline) = self.translate(domain, vline) else {
                        continue;
                    };
                    let Ok((bank, row)) = self.mc.locate(pline) else {
                        continue;
                    };
                    groups.entry((bank.flat(&g), row)).or_default().push(vline);
                }
            }
        }
        groups
            .into_iter()
            .map(|((flat, row), lines)| (bank_from_flat(&g, flat), row, lines))
            .collect()
    }

    /// The domain owning the physical row (flip attribution).
    pub fn owner_of_row(&self, bank: &BankId, row: u32) -> Option<DomainId> {
        self.allocator.owner_of_row(bank, row)
    }

    /// Runs the machine for `cycles` cycles (stops early on platform
    /// lockup).
    pub fn run(&mut self, cycles: u64) {
        let start = self.mc.now();
        self.run_inner(cycles);
        crate::metrics::credit_sim_cycles(self.mc.now().raw() - start.raw());
    }

    fn run_inner(&mut self, cycles: u64) {
        let end = self.mc.now() + cycles;
        if self.run_start.is_none() {
            self.run_start = Some(self.mc.now());
        }
        loop {
            if self.lockup.is_some() {
                break;
            }
            // 1. Issue every op that is ready at the current time.
            let now = self.mc.now();
            let mut progressed = true;
            while progressed {
                progressed = false;
                for i in 0..self.tenants.len() {
                    if self.lockup.is_some() {
                        return;
                    }
                    let t = &self.tenants[i];
                    if t.finished
                        || t.workload.is_none()
                        || t.waiting_on.is_some()
                        || t.ready_at > now
                    {
                        continue;
                    }
                    let op = self.tenants[i]
                        .workload
                        .as_mut()
                        .expect("checked above")
                        .next_op();
                    match op {
                        None => self.tenants[i].finished = true,
                        Some(op) => {
                            self.execute_op(i, op);
                            progressed = true;
                        }
                    }
                }
            }
            // 2. Pick the next interesting time.
            let waiting = self.tenants.iter().any(|t| t.waiting_on.is_some());
            let next_ready = self
                .tenants
                .iter()
                .filter(|t| !t.finished && t.workload.is_some() && t.waiting_on.is_none())
                .map(|t| t.ready_at)
                .min();
            if waiting {
                // Advance precisely until the outstanding requests
                // complete (or the quantum expires so interrupts get
                // serviced even under continuous congestion).
                let step = Cycle(now.raw() + self.cfg.quantum);
                let target = match next_ready {
                    Some(r) if r > now => step.min(r).min(end),
                    _ => step.min(end),
                };
                self.mc.run_while_busy(target);
            } else {
                let target = match next_ready {
                    Some(r) if r > now => r.min(end),
                    Some(_) => Cycle(now.raw() + 1).min(end),
                    None => end,
                };
                self.mc.advance_to(target);
            }
            // 3. Service completions, defenses, windows, flips.
            self.service_completions();
            self.service_defense();
            self.roll_windows();
            self.collect_flips();
            // Charge the engine's per-cell step budget in *simulated
            // cycles* (no-op outside a budgeted suite run), so a budget
            // buys the same simulated span on every run. The `.max(1)`
            // stall guard charges a wedged machine that stops
            // advancing, so runaway loops still terminate.
            crate::experiments::engine::charge_step_budget(
                (self.mc.now().raw() - now.raw()).max(1),
            );
            if self.mc.now() >= end {
                break;
            }
        }
        // Final drain of anything recorded at the boundary.
        self.service_completions();
        self.collect_flips();
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn execute_op(&mut self, idx: usize, op: AccessOp) {
        let domain = self.tenants[idx].domain;
        let source = self.tenants[idx].source;
        let now = self.mc.now();
        // Translate the virtual line through the domain's page table
        // (DMA goes through the IOMMU view of the same table).
        let Ok(pline) = self.translate(domain, op.line()) else {
            // Unmapped access: fault, drop the op.
            self.tenants[idx].ready_at = now + self.cfg.llc_hit_cycles;
            return;
        };
        match (op, source) {
            (AccessOp::Flush(_), RequestSource::Core(_)) => {
                if let Some(dirty) = self.llc.flush(pline) {
                    self.submit_host_write(dirty, now);
                }
                self.tenants[idx].ready_at = now + self.cfg.flush_cycles;
            }
            (AccessOp::Flush(_), RequestSource::Dma(_)) => {
                // DMA has no cache to flush; treat as a no-op delay.
                self.tenants[idx].ready_at = now + 1;
            }
            (AccessOp::Read(_), RequestSource::Core(_)) => {
                let r = self.llc.access(pline, false);
                if let Some(dirty) = r.writeback {
                    self.submit_host_write(dirty, now);
                }
                if r.hit {
                    self.tenants[idx].ready_at = now + self.cfg.llc_hit_cycles;
                    self.tenants[idx].ops_done += 1;
                    self.check_enclave_read(idx, pline);
                } else {
                    self.submit_tenant(idx, pline, RequestKind::Read, now);
                }
            }
            (AccessOp::Write(_, fill), RequestSource::Core(_)) => {
                // Functional write-through; write-back timing.
                let _ = self.mc.write_data(pline, &[fill; 64]);
                let r = self.llc.access(pline, true);
                if let Some(dirty) = r.writeback {
                    self.submit_host_write(dirty, now);
                }
                if r.hit {
                    self.tenants[idx].ready_at = now + self.cfg.llc_hit_cycles;
                    self.tenants[idx].ops_done += 1;
                } else {
                    self.submit_tenant(idx, pline, RequestKind::Write, now);
                }
            }
            (AccessOp::Read(_), RequestSource::Dma(_)) => {
                self.submit_tenant(idx, pline, RequestKind::Read, now);
            }
            (AccessOp::Write(_, fill), RequestSource::Dma(_)) => {
                let _ = self.mc.write_data(pline, &[fill; 64]);
                self.submit_tenant(idx, pline, RequestKind::Write, now);
            }
        }
    }

    fn submit_tenant(&mut self, idx: usize, pline: CacheLineAddr, kind: RequestKind, now: Cycle) {
        let id = self.fresh_id();
        let t = &self.tenants[idx];
        let req = MemRequest {
            id,
            line: pline,
            kind,
            source: t.source,
            domain: t.domain,
            arrival: now,
        };
        match self.mc.submit(req) {
            Ok(()) => {
                self.tenants[idx].waiting_on = Some(id);
                self.tenants[idx].waiting_line = Some(pline);
            }
            Err(_) => {
                // Privilege/translation rejection (e.g. subarray-group
                // enforcement): the access faults; the tenant moves on.
                self.tenants[idx].ready_at = now + self.cfg.llc_hit_cycles;
            }
        }
    }

    fn submit_host_write(&mut self, pline: CacheLineAddr, now: Cycle) {
        let id = self.fresh_id();
        let _ = self.mc.submit(MemRequest {
            id,
            line: pline,
            kind: RequestKind::Write,
            source: RequestSource::Core(0),
            domain: DomainId::HOST,
            arrival: now,
        });
    }

    fn service_completions(&mut self) {
        for c in self.mc.drain_completions() {
            if let Some(idx) = self.tenants.iter().position(|t| t.waiting_on == Some(c.id)) {
                self.tenants[idx].waiting_on = None;
                self.tenants[idx].ready_at = c.done;
                self.tenants[idx].ops_done += 1;
                if matches!(c.kind, RequestKind::Read) {
                    if let Some(line) = self.tenants[idx].waiting_line.take() {
                        self.check_enclave_read(idx, line);
                    }
                }
                self.tenants[idx].waiting_line = None;
            }
        }
    }

    fn check_enclave_read(&mut self, idx: usize, pline: CacheLineAddr) {
        let domain = self.tenants[idx].domain;
        let Some(enclave) = self.enclaves.get_mut(&domain.0) else {
            return;
        };
        if enclave.status != EnclaveStatus::Running {
            return;
        }
        let poisoned = self.mc.read_data(pline).map(|(_, p)| p).unwrap_or(false);
        match enclave.on_read(poisoned, self.mc.now()) {
            Ok(()) => {}
            Err(Error::MachineLockup(msg)) => {
                self.lockup = Some(msg);
            }
            Err(_) => {}
        }
    }

    fn service_defense(&mut self) {
        let ints = self.mc.drain_interrupts();
        self.overhead.interrupts += ints.len() as u64;
        let room = INTERRUPT_LOG_CAP.saturating_sub(self.interrupt_log.len());
        self.interrupt_log.extend(ints.iter().take(room).copied());
        if let Some(tracer) = &self.tracer {
            let now = self.mc.now();
            for int in &ints {
                // Latency from the counter overflow raising the
                // interrupt to the quantum boundary servicing it.
                let latency = now.delta(int.time);
                tracer.emit(
                    now,
                    Event::ActInterrupt {
                        channel: int.channel,
                        raised_at: int.time.raw(),
                        latency,
                    },
                );
                tracer.observe("machine.act_interrupt_latency", latency);
            }
        }
        // Enclave-visible interrupts (§4.4): the CPU knows which rows
        // neighbor the reported aggressor, so it notifies enclaves
        // whose memory sits inside the blast radius — the enclave then
        // protects *its own* page (exit, or ask for it to be moved).
        let mut enclave_remaps: Vec<u64> = Vec::new();
        let mut enclave_exits: Vec<DomainId> = Vec::new();
        if !self.enclaves.is_empty() {
            let topo = self.topology();
            for int in &ints {
                let Some(line) = int.addr else { continue };
                let aggressor_owner = self.allocator.owner_of(line.page_frame());
                let Ok(victims) = topo.neighbor_row_lines(line, self.cfg.assumed_radius) else {
                    continue;
                };
                for vline in victims.into_iter().chain([line]) {
                    let Ok((vbank, vrow)) = topo.locate(vline) else {
                        continue;
                    };
                    for frame in self.frames_of_row(&vbank, vrow) {
                        let Some(owner) = self.allocator.owner_of(frame) else {
                            continue;
                        };
                        // An enclave's own accesses are not an attack on it.
                        if aggressor_owner == Some(owner) {
                            continue;
                        }
                        if let Some(enclave) = self.enclaves.get_mut(&owner.0) {
                            match enclave.on_act_interrupt() {
                                EnclaveReaction::None => {}
                                EnclaveReaction::Exit => enclave_exits.push(owner),
                                EnclaveReaction::Remap => enclave_remaps.push(frame),
                            }
                        }
                    }
                }
            }
        }
        for domain in enclave_exits {
            if let Some(t) = self.tenants.iter_mut().find(|t| t.domain == domain) {
                t.finished = true;
            }
        }
        for frame in enclave_remaps {
            self.do_remap(frame);
        }
        let mut actions = self.daemon.on_act_interrupts(&ints);
        let samples = self.llc.drain_samples();
        actions.extend(self.daemon.on_pmu_samples(&samples));
        self.execute_actions(actions);
    }

    fn roll_windows(&mut self) {
        let t_refw = self.cfg.timing.t_refw;
        while self.mc.now().delta(self.window_start) >= t_refw {
            self.window_start += t_refw;
            self.remapped_this_window.clear();
            let actions = self.daemon.on_window_rollover(self.mc.now());
            self.execute_actions(actions);
        }
    }

    fn execute_actions(&mut self, actions: Vec<DefenseAction>) {
        for a in actions {
            self.overhead.actions += 1;
            match a {
                DefenseAction::RefreshRow { line, auto_pre } => {
                    let id = self.fresh_id();
                    if self.mc.refresh_row(id, line, auto_pre).is_ok() {
                        self.overhead.refresh_ops += 1;
                    }
                }
                DefenseAction::RefNeighbors { line, radius } => {
                    let id = self.fresh_id();
                    if self.mc.ref_neighbors(id, line, radius).is_ok() {
                        self.overhead.refresh_ops += 1;
                    }
                }
                DefenseAction::ConvolutedRefresh { line } => {
                    self.overhead.convoluted_refreshes += 1;
                    if let Some(dirty) = self.llc.flush(line) {
                        self.submit_host_write(dirty, self.mc.now());
                    }
                    // The load may or may not ACT the row; the MC's row
                    // buffer state decides — exactly the imprecision of
                    // the status-quo path (§4.3).
                    let id = self.fresh_id();
                    let now = self.mc.now();
                    let _ = self.mc.submit(MemRequest {
                        id,
                        line,
                        kind: RequestKind::Read,
                        source: RequestSource::Core(0),
                        domain: DomainId::HOST,
                        arrival: now,
                    });
                }
                DefenseAction::LockLine { line } => match self.llc.lock(line) {
                    Ok(_) => self.overhead.lines_locked += 1,
                    Err(_) => {
                        self.overhead.lock_fallbacks += 1;
                        let more = self.daemon.on_lock_failed(line);
                        // One level of fallback is all the protocol
                        // defines; recursion is bounded by construction.
                        for m in more {
                            if let DefenseAction::RemapFrame { frame } = m {
                                self.overhead.actions += 1;
                                self.do_remap(frame);
                            }
                        }
                    }
                },
                DefenseAction::UnlockAll => self.llc.unlock_all(),
                DefenseAction::RemapFrame { frame } => self.do_remap(frame),
            }
        }
    }

    fn do_remap(&mut self, frame: u64) {
        let Some(owner) = self.allocator.owner_of(frame) else {
            return;
        };
        if owner.is_host() {
            return; // never migrate host/quarantined frames
        }
        if !self.remapped_this_window.insert(frame) {
            return; // one migration per frame per window
        }
        // Isolation-aware destination: first-fit would drop the page
        // next to other tenants' (possibly also-migrated) pages and
        // re-create the cross-domain adjacency we are escaping.
        let Ok(new_frame) = self
            .allocator
            .alloc_isolated(owner, self.cfg.assumed_radius)
        else {
            return; // no room to migrate: defense degrades, attack may proceed
        };
        let now = self.mc.now();
        if let Some(tracer) = &self.tracer {
            tracer.emit(now, Event::Remap { frame, new_frame });
        }
        for l in 0..LINES_PER_PAGE {
            let old = CacheLineAddr(frame * LINES_PER_PAGE + l);
            let new = CacheLineAddr(new_frame * LINES_PER_PAGE + l);
            if let Ok((data, _)) = self.mc.read_data(old) {
                let _ = self.mc.write_data(new, &data);
            }
            self.llc.flush(old);
            // Charge the copy: one read of the old line, one write of
            // the new line, as host traffic.
            let id = self.fresh_id();
            let _ = self.mc.submit(MemRequest {
                id,
                line: old,
                kind: RequestKind::Read,
                source: RequestSource::Core(0),
                domain: DomainId::HOST,
                arrival: now,
            });
            let id = self.fresh_id();
            let _ = self.mc.submit(MemRequest {
                id,
                line: new,
                kind: RequestKind::Write,
                source: RequestSource::Core(0),
                domain: DomainId::HOST,
                arrival: now,
            });
            self.overhead.remap_copy_lines += 1;
        }
        // Update the owning page table.
        if let Some(table) = self.spaces.table(owner) {
            if let Some(vpage) = table.vpage_of_frame(frame) {
                let _ = self.spaces.table_mut(owner).remap(vpage, new_frame);
            }
        }
        // Retire the hammered frame to the host quarantine pool.
        let _ = self.allocator.reassign(frame, DomainId::HOST);
        self.overhead.frames_retired += 1;
        self.overhead.pages_remapped += 1;
    }

    fn collect_flips(&mut self) {
        let g = self.cfg.geometry;
        for mut f in self.mc.drain_flips() {
            let bank = bank_from_flat(&g, f.flat_bank);
            // A row spans several page frames (one per column group),
            // so the victim owner is determined by the frame holding
            // the flipped bit, not the row's first frame.
            f.victim_domain = self.owner_of_bit(&bank, f.victim_row, f.bit);
            f.aggressor_domain = self.allocator.owner_of_row(&bank, f.aggressor_row);
            self.flips.push(f);
        }
    }

    /// The domain owning the frame that holds `bit` of `(bank, row)`.
    fn owner_of_bit(&self, bank: &BankId, row: u32, bit: u64) -> Option<DomainId> {
        let col = (bit / (hammertime_common::addr::CACHE_LINE_BYTES * 8)) as u32;
        let coord = hammertime_common::DramCoord {
            channel: bank.channel,
            rank: bank.rank,
            bank_group: bank.bank_group,
            bank: bank.bank,
            row,
            col,
        };
        let line = self.mc.map().to_line(&coord).ok()?;
        self.allocator.owner_of(line.page_frame())
    }

    /// Every distinct page frame overlapping `(bank, row)` — the unit
    /// an isolation- or migration-based response must cover.
    /// Memoized per address-map generation: each `(bank, row)` is
    /// translated once, and the whole memo is discarded when the map is
    /// reconfigured (the generation counter changes).
    pub fn frames_of_row(&self, bank: &BankId, row: u32) -> Vec<u64> {
        let g = self.cfg.geometry;
        let key = (bank.flat(&g), row);
        let generation = self.mc.map().generation();
        {
            let mut cache = self.frames_cache.borrow_mut();
            if cache.0 != generation {
                cache.0 = generation;
                cache.1.clear();
            } else if let Some(frames) = cache.1.get(&key) {
                return frames.clone();
            }
        }
        let mut frames: Vec<u64> = (0..g.columns)
            .filter_map(|col| {
                let coord = hammertime_common::DramCoord {
                    channel: bank.channel,
                    rank: bank.rank,
                    bank_group: bank.bank_group,
                    bank: bank.bank,
                    row,
                    col,
                };
                self.mc.map().to_line(&coord).ok().map(|l| l.page_frame())
            })
            .collect();
        frames.sort_unstable();
        frames.dedup();
        self.frames_cache.borrow_mut().1.insert(key, frames.clone());
        frames
    }

    /// Drains the annotated flip events accumulated so far.
    pub fn drain_annotated_flips(&mut self) -> Vec<FlipEvent> {
        self.collect_flips();
        std::mem::take(&mut self.flips)
    }

    /// Hammer-probes a row directly from the host (the inference
    /// methodology of §2.1/§4.1): alternates `rounds` read pairs
    /// between `row` and `dummy_row` in `bank` (forcing an ACT per
    /// read via bank conflicts) and returns the fresh flip events.
    /// The caller filters by `aggressor_row` to attribute victims.
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn probe_hammer(
        &mut self,
        bank: &BankId,
        row: u32,
        dummy_row: u32,
        rounds: u64,
    ) -> Result<Vec<FlipEvent>> {
        let topo = self.topology();
        let line_a = topo.line_of_row(bank, row)?;
        let line_d = topo.line_of_row(bank, dummy_row)?;
        for _ in 0..rounds {
            for line in [line_a, line_d] {
                let id = self.fresh_id();
                let now = self.mc.now();
                self.mc.submit(MemRequest {
                    id,
                    line,
                    kind: RequestKind::Read,
                    source: RequestSource::Core(0),
                    domain: DomainId::HOST,
                    arrival: now,
                })?;
            }
            self.mc.drain();
            self.mc.drain_completions();
        }
        self.collect_flips();
        Ok(std::mem::take(&mut self.flips))
    }

    /// Direct white-box access to the controller (experiments and
    /// probing campaigns).
    pub fn mc(&self) -> &MemCtrl {
        &self.mc
    }

    /// Read access to the LLC (lock accounting, stats).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Scans every line a domain currently owns and classifies the
    /// damage ECC would report: `(clean, corrected, uncorrectable)`
    /// line counts. The E10 ablation's observable.
    pub fn scan_domain_ecc(&self, domain: DomainId) -> (u64, u64, u64) {
        use hammertime_dram::data::EccOutcome;
        let (mut clean, mut corrected, mut uncorrectable) = (0u64, 0u64, 0u64);
        if let Some(table) = self.spaces.table(domain) {
            for (vpage, _) in table.iter() {
                for l in 0..LINES_PER_PAGE {
                    let vline = CacheLineAddr(vpage * LINES_PER_PAGE + l);
                    let Ok(pline) = self.translate(domain, vline) else {
                        continue;
                    };
                    match self.mc.read_data_detailed(pline) {
                        Ok((_, EccOutcome::Clean)) => clean += 1,
                        Ok((_, EccOutcome::Corrected(_))) => corrected += 1,
                        Ok((_, EccOutcome::Uncorrectable(_))) => uncorrectable += 1,
                        Err(_) => {}
                    }
                }
            }
        }
        (clean, corrected, uncorrectable)
    }

    /// Retention check on a physical row (failure injection): records
    /// and reports decay if the row has gone unrefreshed longer than
    /// `margin` refresh windows.
    pub fn check_retention(&mut self, bank: &BankId, row: u32, margin: f64) -> bool {
        let now = self.mc.now();
        self.mc.dram_mut().check_retention(bank, row, now, margin)
    }

    /// Reprograms the ACT counter block (host MSR write, §4.2).
    pub fn configure_act_counters(&mut self, config: ActCounterConfig) {
        self.mc.configure_act_counters(config);
    }

    /// Drains the log of ACT interrupts serviced since the last drain:
    /// the first 256 of them, oldest first. The report's
    /// `overhead.interrupts` counts every one.
    pub fn drain_interrupt_log(&mut self) -> Vec<hammertime_memctrl::ActInterrupt> {
        std::mem::take(&mut self.interrupt_log)
    }

    /// Host-issued refresh instruction on the row containing the
    /// physical `line` (§4.3).
    ///
    /// # Errors
    ///
    /// Propagates controller submission failures.
    pub fn host_refresh_row(&mut self, line: CacheLineAddr, auto_pre: bool) -> Result<()> {
        let id = self.fresh_id();
        self.mc.refresh_row(id, line, auto_pre)
    }

    /// Host-issued REF_NEIGHBORS around the row containing the
    /// physical `line` (§4.3).
    ///
    /// # Errors
    ///
    /// Propagates controller submission failures.
    pub fn host_ref_neighbors(&mut self, line: CacheLineAddr, radius: u32) -> Result<()> {
        let id = self.fresh_id();
        self.mc.ref_neighbors(id, line, radius)
    }

    /// Submits a raw request to the controller, bypassing the tenant
    /// machinery (privilege testing, probing).
    ///
    /// # Errors
    ///
    /// Propagates controller submission failures.
    pub fn submit_raw(&mut self, req: MemRequest) -> Result<()> {
        self.mc.submit(req)
    }

    /// The pfn-leak surface ([`hammertime_os::AddressSpaces::pfn_map`]
    /// forwarded through the machine): `domain`'s `(vpage, frame)`
    /// pairs in ascending vpage order. This is the privileged oracle
    /// the pfn-based allocation strategy in `crates/attack` consumes;
    /// the SPOILER-style strategy deliberately avoids it and uses
    /// [`Machine::probe_pair`] instead.
    pub fn leak_pfns(&self, domain: DomainId) -> Vec<(u64, u64)> {
        self.spaces.pfn_map(domain)
    }

    /// A timing side-channel probe over two of `domain`'s own virtual
    /// lines, classifying the pair the way access-latency measurement
    /// would: row hit (same bank, same row — fast), row conflict (same
    /// bank, different row — slow), or no conflict (different banks).
    /// The probe leaks *only* what timing leaks on real hardware; it
    /// never exposes frame numbers or row indices, which is exactly
    /// the budget a SPOILER-like contiguity inference operates on.
    ///
    /// # Errors
    ///
    /// Propagates translation failures for unmapped lines.
    pub fn probe_pair(
        &self,
        domain: DomainId,
        a: CacheLineAddr,
        b: CacheLineAddr,
    ) -> Result<ProbeOutcome> {
        let (bank_a, row_a) = self.mc.locate(self.translate(domain, a)?)?;
        let (bank_b, row_b) = self.mc.locate(self.translate(domain, b)?)?;
        Ok(if bank_a != bank_b {
            ProbeOutcome::NoConflict
        } else if row_a == row_b {
            ProbeOutcome::RowHit
        } else {
            ProbeOutcome::RowConflict
        })
    }

    /// Inverts a flat bank index (as carried by
    /// [`FlipEvent::flat_bank`]) back to a [`BankId`] under this
    /// machine's geometry — the hook victim orchestrators use to
    /// attribute a flip to the frames of its row.
    pub fn bank_at(&self, flat: usize) -> BankId {
        bank_from_flat(&self.cfg.geometry, flat)
    }

    /// Produces the report for everything run so far.
    pub fn report(&mut self) -> SimReport {
        self.collect_flips();
        let mut report = SimReport {
            defense: self.cfg.defense.name().to_string(),
            cycles: self.mc.now().raw(),
            flips_total: self.flips.len() as u64,
            flips_cross_domain: self.flips.iter().filter(|f| f.is_cross_domain()).count() as u64,
            mc: self.mc.stats(),
            dram: self.mc.dram_stats(),
            cache: self.llc.stats(),
            overhead: self.overhead,
            lockup: self.lockup.clone(),
            ..Default::default()
        };
        report.overhead.guard_frames = self.allocator.guard_frames;
        report.overhead.throttle_cycles = self.mc.mitigation().throttle_cycles;
        report.overhead.quota_throttles = self.mc.mitigation().quota_throttles;
        for (&domain, &counts) in self.mc.trigger_ledger() {
            report.triggers_by_tenant.insert(domain, counts);
        }
        for f in &self.flips {
            if let Some(v) = f.victim_domain {
                *report.flips_by_victim.entry(v.0).or_insert(0) += 1;
                if f.is_cross_domain() {
                    *report.flips_cross_by_victim.entry(v.0).or_insert(0) += 1;
                }
            }
        }
        for t in &self.tenants {
            *report.ops_by_tenant.entry(t.domain.0).or_insert(0) += t.ops_done;
        }
        for (id, e) in &self.enclaves {
            report.enclaves.insert(*id, format!("{:?}", e.status));
        }
        report.finalize_energy(&hammertime_common::energy::EnergyModel::ddr4());
        if let Some(tracer) = &self.tracer {
            report.dram.register_metrics(tracer);
            report.mc.register_metrics(tracer);
            // The bank-pricing count lives outside `McStats` (the
            // reference path must produce identical stats), so it
            // reaches observability through the metrics registry only.
            tracer.counter_set("mc.bank_pricings", self.mc.wheel_counters().0);
            report.metrics = Some(tracer.snapshot_metrics());
        }
        report
    }

    /// The enclave record for `domain`, if any.
    pub fn enclave(&self, domain: DomainId) -> Option<&Enclave> {
        self.enclaves.get(&domain.0)
    }

    /// Returns `true` when every attached workload has run to
    /// completion (makespan measurement).
    pub fn all_finished(&self) -> bool {
        self.tenants
            .iter()
            .filter(|t| t.workload.is_some())
            .all(|t| t.finished && t.waiting_on.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_workloads::{HammerPattern, StreamWorkload};

    #[test]
    fn bank_from_flat_round_trips() {
        let g = Geometry::server();
        for flat in 0..g.total_banks() as usize {
            let bank = bank_from_flat(&g, flat);
            assert_eq!(bank.flat(&g), flat);
        }
    }

    #[test]
    fn frames_of_row_memo_matches_fresh_translation() {
        let m = Machine::new(MachineConfig::fast(DefenseKind::None, 1_000_000)).unwrap();
        let g = m.cfg.geometry;
        let bank = bank_from_flat(&g, 0);
        let first = m.frames_of_row(&bank, 3);
        assert!(!first.is_empty());
        // Second call is served from the cache and must be identical.
        assert_eq!(m.frames_of_row(&bank, 3), first);
        // A different row misses the cache and translates on its own.
        assert_ne!(m.frames_of_row(&bank, 4), first);
    }

    #[test]
    fn run_start_records_first_run_cycle() {
        let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 1_000_000)).unwrap();
        let d = DomainId(1);
        let arena = m.add_tenant(d, 4).unwrap();
        m.set_workload(d, Box::new(StreamWorkload::new(arena, 500, 0)))
            .unwrap();
        assert_eq!(m.run_start(), None, "never ran yet");
        m.run(1_000);
        let first = m.run_start().expect("recorded on first run");
        assert!(m.now() > first, "time advanced past the recorded start");
        m.run(1_000);
        assert_eq!(m.run_start(), Some(first), "start is sticky across runs");
    }

    #[test]
    fn benign_tenant_completes_work() {
        let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 1_000_000)).unwrap();
        let d = DomainId(1);
        let arena = m.add_tenant(d, 4).unwrap();
        assert_eq!(arena.len(), 4 * 64);
        m.set_workload(d, Box::new(StreamWorkload::new(arena, 500, 0)))
            .unwrap();
        m.run(500_000);
        let r = m.report();
        assert_eq!(r.ops_by_tenant[&1], 500);
        assert_eq!(r.flips_total, 0);
        assert!(r.mc.demand_completed() > 0);
    }

    #[test]
    fn undefended_double_sided_attack_flips_victim() {
        let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 24)).unwrap();
        let attacker = DomainId(1);
        let victim = DomainId(2);
        // Interleave allocations so the attacker's rows sandwich a
        // victim row: attacker takes row stripe 0, victim stripe 1,
        // attacker stripe 2.
        let _a1 = m.add_tenant(attacker, 2).unwrap();
        let _v = m.add_tenant(victim, 2).unwrap();
        let _a2 = m.add_tenant(attacker, 2).unwrap();
        // Find two attacker rows sandwiching a victim row.
        let rows = m.rows_of_domain(attacker);
        let mut pattern = None;
        'outer: for (b1, r1, l1) in &rows {
            for (b2, r2, l2) in &rows {
                if b1 == b2 && *r2 == r1 + 2 {
                    let mid = r1 + 1;
                    if m.owner_of_row(b1, mid) == Some(victim) {
                        pattern = Some((l1[0], l2[0]));
                        break 'outer;
                    }
                }
            }
        }
        let (above, below) = pattern.expect("interleaved allocation must sandwich");
        m.set_workload(
            attacker,
            Box::new(HammerPattern::double_sided(above, below, 4_000)),
        )
        .unwrap();
        m.run(4_000_000);
        let r = m.report();
        assert!(r.flips_total > 0, "undefended hammer must flip");
        assert!(r.flips_cross_domain > 0, "victim domain must be hit");
    }

    #[test]
    fn interrupt_log_is_capped_between_drains() {
        let mut cfg = MachineConfig::fast(DefenseKind::None, 1_000_000);
        cfg.force_act_counters = true;
        let mut m = Machine::new(cfg).unwrap();
        let d = DomainId(1);
        m.add_tenant(d, 4).unwrap();
        m.configure_act_counters(hammertime_memctrl::ActCounterConfig {
            threshold: 2,
            randomize_reset_window: 0,
            precision: hammertime_memctrl::Precision::AddressReporting,
        });
        let rows = m.rows_of_domain(d);
        let (a, b) = (rows[0].2[0], rows[1].2[0]);
        m.set_workload(d, Box::new(HammerPattern::double_sided(a, b, 10_000_000)))
            .unwrap();
        m.run(2_000_000);
        let serviced = m.report().overhead.interrupts;
        assert!(
            serviced > INTERRUPT_LOG_CAP as u64,
            "only {serviced} interrupts"
        );
        assert_eq!(m.drain_interrupt_log().len(), INTERRUPT_LOG_CAP);
        assert!(
            m.drain_interrupt_log().is_empty(),
            "a drain empties the log"
        );
        m.run(2_000_000);
        assert_eq!(m.drain_interrupt_log().len(), INTERRUPT_LOG_CAP);
    }

    #[test]
    fn frames_of_row_memo_invalidates_on_map_reconfigure() {
        let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 1_000_000)).unwrap();
        let g = m.cfg.geometry;
        let bank = bank_from_flat(&g, 0);
        // Warm the memo under the original mapping.
        let before = m.frames_of_row(&bank, 3);
        assert!(!before.is_empty());
        m.set_mapping(MappingScheme::BankPartition).unwrap();
        // A fresh machine built directly on the new scheme is the
        // oracle: a stale memo entry would diverge from it.
        let after = m.frames_of_row(&bank, 3);
        let mut oracle_machine =
            Machine::new(MachineConfig::fast(DefenseKind::None, 1_000_000)).unwrap();
        oracle_machine
            .set_mapping(MappingScheme::BankPartition)
            .unwrap();
        assert_eq!(after, oracle_machine.frames_of_row(&bank, 3));
        assert_ne!(after, before, "schemes chosen to translate differently");
        // With tenants attached the reconfigure must refuse.
        let d = DomainId(1);
        m.add_tenant(d, 2).unwrap();
        assert!(m.set_mapping(MappingScheme::CacheLineInterleave).is_err());
    }

    #[test]
    fn deterministic_same_seed_same_report() {
        let run = || {
            let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 24)).unwrap();
            let d = DomainId(1);
            let arena = m.add_tenant(d, 2).unwrap();
            let rows = m.rows_of_domain(d);
            let (_, _, l1) = &rows[0];
            let (_, _, l2) = &rows[2];
            m.set_workload(
                d,
                Box::new(HammerPattern::double_sided(l1[0], l2[0], 1_000)),
            )
            .unwrap();
            let _ = arena;
            m.run(1_000_000);
            let r = m.report();
            (r.flips_total, r.mc.reads, r.dram.acts, r.cycles)
        };
        assert_eq!(run(), run());
    }
}
