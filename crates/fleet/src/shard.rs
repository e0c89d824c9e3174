//! The sharded fleet runner: thousands of machines on a worker pool,
//! byte-identical output for any `--jobs`.
//!
//! # Sharding model
//!
//! Machine ids are split into contiguous chunks, one per worker; each
//! worker *owns* its machines for the whole run (no work stealing —
//! ownership is what lets a machine keep unboxed mutable state).
//! Time advances in **epochs** of `windows_per_epoch` refresh windows.
//! Within an epoch every machine is independent, so workers never
//! synchronize mid-epoch; a [`std::sync::Barrier`] separates epochs.
//!
//! # Migration protocol
//!
//! A tenant migrating from machine A to machine B is detached during
//! A's epoch `e` (`Machine::detach_tenant` moves the boxed workload
//! out of A, mid-stream; nothing copies it) and posted to a
//! double-buffered mailbox keyed by destination id.
//! B admits it at the start of epoch `e + 1`, **sorted by source
//! machine id**: arrival order in the mailbox depends on worker
//! scheduling, the sort erases that. Since every routing decision is
//! drawn from per-machine RNG streams and admission order is
//! canonical, the mailbox contents — and therefore every machine's
//! timeline — are identical for any worker count.
//!
//! # Budget scope
//!
//! Each machine runs under its own step-budget scope
//! ([`hammertime::experiments::StepBudgetScope`] via `run_budgeted`):
//! a machine that exhausts `step_budget` simulated cycles becomes a
//! structured `Timeout` outcome, and its siblings on the same worker
//! keep their full budgets. Shards run on threads of their own, so a
//! caller's thread-local budget does not reach them: FL1 hands its
//! cell's remaining budget in through `step_budget`.
//!
//! # One barrier per epoch
//!
//! Each epoch ends in a single barrier wait, which is all the
//! double-buffered mailbox needs. During epoch `e` every worker drains
//! buffer `e % 2` and posts into buffer `(e + 1) % 2`; no worker passes
//! the barrier until every worker has done both, so in epoch `e + 1`
//! the drained buffer is free for new posts and the filled one is
//! complete.

use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};

use hammertime::experiments::{run_budgeted, CellFailure, FailureProgress};
use hammertime::machine::TenantExport;
use hammertime::metrics::SimReport;
use hammertime::scenario::CloudScenario;
use hammertime::taxonomy::DefenseKind;
use hammertime_common::{DetRng, DomainId, Error, FaultPlan, Result};
use hammertime_telemetry::{TraceRecord, Tracer};
use hammertime_workloads::{RandomWorkload, StreamWorkload, Workload, ZipfianWorkload};
use serde::Serialize;

use crate::population::{synthesize, MachineSpec};
use crate::stats::{fold, PopulationStats};

/// First benign domain id; ids below it are reserved (host 0,
/// attacker 1, victim 2).
const TENANT_BASE: u32 = 16;

/// Per-machine stride of the fleet-unique tenant id space: benign
/// tenant `k` born on machine `m` is `TENANT_BASE + m * STRIDE + k`.
/// Uniqueness matters because migrated tenants keep their id on the
/// destination machine; 2048 births per machine is far above any
/// realistic churn in a run.
const TENANT_STRIDE: u32 = 2048;

/// How a fleet run is sized, scaled, parallelized, and guarded.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Machines in the fleet.
    pub machines: u32,
    /// Mean benign tenants seeded per machine (each machine adds
    /// 0 or 1 more from its spec stream).
    pub tenants: u32,
    /// Epochs to run; migrations land at epoch boundaries.
    pub epochs: u32,
    /// Refresh windows per epoch (each machine's own tREFW).
    pub windows_per_epoch: u64,
    /// Worker threads owning contiguous machine shards (1 = the
    /// serial loop; output is byte-identical either way).
    pub jobs: usize,
    /// The fleet seed at the root of the forking tree.
    pub seed: u64,
    /// Quick scale: shrinks per-tenant access counts (for tests/CI).
    pub quick: bool,
    /// Fraction of machines carrying an attacker tenant.
    pub attack_fraction: f64,
    /// Per-machine, per-epoch chance of emigrating one benign tenant.
    pub migration_chance: f64,
    /// Per-machine, per-epoch chance of an ASID destroy and of an
    /// ASID create (drawn independently).
    pub churn_chance: f64,
    /// Defense slates, assigned round-robin across machine ids.
    pub slates: Vec<DefenseKind>,
    /// Fault plan for the canonical degraded subset
    /// ([`crate::population::is_faulty_machine`]); `None` = healthy
    /// fleet.
    pub faults: Option<FaultPlan>,
    /// Attack-pipeline triples (`allocator/hammerer/victim`, see
    /// `hammertime-attack`) for attacked machines to draw from. Empty
    /// (the default) keeps the legacy double/many/DMA mix — and the
    /// legacy workload-stream draws — byte-identical.
    pub attack_triples: Vec<String>,
    /// Per-machine budget of simulated cycles for the *whole* run
    /// (build + all epochs); exhaustion makes that machine a
    /// `Timeout` outcome. `None` runs the machines unbudgeted: the
    /// shards run on threads of their own, which do not see the
    /// calling thread's budget.
    pub step_budget: Option<u64>,
    /// Record a cycle-stamped event trace of this machine id (must be
    /// below `machines`).
    pub trace_machine: Option<u32>,
}

impl FleetConfig {
    /// Quick-scale defaults for a fleet of `machines` machines.
    pub fn new(machines: u32) -> FleetConfig {
        FleetConfig {
            machines,
            tenants: 2,
            epochs: 2,
            windows_per_epoch: 6,
            jobs: 1,
            seed: 0xF1EE7,
            quick: true,
            attack_fraction: 0.25,
            migration_chance: 0.35,
            churn_chance: 0.5,
            slates: FleetConfig::default_slates(),
            faults: None,
            attack_triples: Vec::new(),
            step_budget: None,
            trace_machine: None,
        }
    }

    /// The default slate set: one representative per taxonomy class
    /// plus the undefended baseline (4 slates, satisfying the ≥3 the
    /// population table promises).
    pub fn default_slates() -> Vec<DefenseKind> {
        vec![
            DefenseKind::None,
            DefenseKind::Para { prob: 8.0 / 24.0 },
            DefenseKind::Graphene { table_size: 16 },
            DefenseKind::VictimRefreshInstr,
        ]
    }

    /// Sets the worker count.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> FleetConfig {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the fleet seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> FleetConfig {
        self.seed = seed;
        self
    }

    /// Per-tenant access count at the configured scale.
    fn accesses(&self) -> u64 {
        if self.quick {
            300
        } else {
            1_500
        }
    }
}

/// What one machine contributed to the population: its spec summary,
/// churn counters, and either a final report or a structured failure.
#[derive(Debug, Clone, Serialize)]
pub struct MachineOutcome {
    /// Fleet-wide machine id.
    pub id: u32,
    /// Defense slate name.
    pub defense: String,
    /// Hardware class name.
    pub class: &'static str,
    /// DRAM generation name.
    pub gen: &'static str,
    /// Whether an attacker tenant was seeded.
    pub attacked: bool,
    /// Whether the machine ran the degraded-subset fault plan.
    pub faulty: bool,
    /// Tenants admitted from other machines.
    pub migrations_in: u32,
    /// Tenants emigrated to other machines.
    pub migrations_out: u32,
    /// Benign tenants created after build (ASID creates).
    pub tenants_created: u32,
    /// Benign tenants destroyed (ASID destroys).
    pub tenants_destroyed: u32,
    /// Final report (`None` when the machine failed).
    pub report: Option<SimReport>,
    /// The failure, if the machine errored, panicked, or timed out.
    pub failure: Option<CellFailure>,
}

/// Everything a fleet run produced, in machine-id order throughout —
/// the serialized form is byte-identical for any worker count.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// One outcome per machine, in id order.
    pub outcomes: Vec<MachineOutcome>,
    /// Population-level distributions per slate.
    pub stats: PopulationStats,
    /// Event trace of [`FleetConfig::trace_machine`] (empty
    /// otherwise).
    pub trace: Vec<TraceRecord>,
}

impl FleetReport {
    /// Machines that did not complete, in id order.
    pub fn failures(&self) -> impl Iterator<Item = (u32, &CellFailure)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.failure.as_ref().map(|f| (o.id, f)))
    }

    /// `true` when at least one machine failed.
    pub fn has_failures(&self) -> bool {
        self.outcomes.iter().any(|o| o.failure.is_some())
    }
}

/// One live machine owned by a worker.
struct FleetMachine {
    spec: MachineSpec,
    scenario: CloudScenario,
    /// Churn/routing stream (forked from the spec stream, so shard-
    /// independent).
    rng: DetRng,
    /// Workload-shape stream, separate from routing so adding a churn
    /// decision never perturbs workload contents.
    wl_rng: DetRng,
    tracer: Option<Tracer>,
    /// Live benign tenants in admission order.
    benign: Vec<DomainId>,
    next_seq: u32,
    migrations_in: u32,
    migrations_out: u32,
    tenants_created: u32,
    tenants_destroyed: u32,
}

impl FleetMachine {
    fn build(spec: &MachineSpec, cfg: &FleetConfig) -> Result<FleetMachine> {
        let mut mc = spec.machine_config();
        let tracer = if cfg.trace_machine == Some(spec.id) {
            let t = Tracer::buffer();
            mc.tracer = Some(t.clone());
            Some(t)
        } else {
            None
        };
        let mut scenario = CloudScenario::build(mc)?;
        let rng = MachineSpec::stream(cfg.seed, spec.id, 0xc404);
        let mut wl_rng = MachineSpec::stream(cfg.seed, spec.id, 0x301d);
        let accesses = cfg.accesses();
        if spec.attacked {
            if cfg.attack_triples.is_empty() {
                // Attack mix mirrors the paper's methodologies: CPU
                // double-sided, many-sided (TRRespass-style), DMA.
                match wl_rng.below(3) {
                    0 => scenario.arm_double_sided(accesses)?,
                    1 => scenario.arm_many_sided(4, accesses)?,
                    _ => scenario.arm_dma(accesses)?,
                };
            } else {
                // Opt-in: attack-pipeline triples as tenant workloads.
                // The draw replaces the legacy mix draw on the same
                // stream, so machine populations stay deterministic.
                let pick = wl_rng.below(cfg.attack_triples.len() as u64) as usize;
                let spec_str = &cfg.attack_triples[pick];
                let triple = hammertime_attack::AttackSpec::parse(spec_str)?;
                hammertime_attack::arm_on_scenario(&triple, &mut scenario, accesses)?;
            }
        } else {
            // Unattacked machine: the "attacker" allocation is just
            // another benign tenant streaming over its own arena.
            let rows = scenario.machine.rows_of_domain(scenario.attacker);
            let arena: Vec<_> = rows.iter().flat_map(|(_, _, l)| l.clone()).collect();
            scenario.machine.set_workload(
                scenario.attacker,
                Box::new(StreamWorkload::new(arena, accesses / 2, 16)),
            )?;
        }
        scenario.victim_reads(accesses / 4)?;
        let mut fm = FleetMachine {
            spec: spec.clone(),
            scenario,
            rng,
            wl_rng,
            tracer,
            benign: Vec::new(),
            next_seq: 0,
            migrations_in: 0,
            migrations_out: 0,
            tenants_created: 0,
            tenants_destroyed: 0,
        };
        for _ in 0..spec.benign_tenants {
            fm.create_benign(cfg)?;
        }
        Ok(fm)
    }

    /// ASID create: a fresh fleet-unique domain with a benign workload
    /// drawn from the machine's workload stream.
    fn create_benign(&mut self, cfg: &FleetConfig) -> Result<()> {
        if self.next_seq >= TENANT_STRIDE {
            return Err(Error::Exhausted("tenant id space for machine".into()));
        }
        let domain = DomainId(TENANT_BASE + self.spec.id * TENANT_STRIDE + self.next_seq);
        self.next_seq += 1;
        let pages = 1 + self.wl_rng.below(2);
        let arena = self.scenario.machine.add_tenant(domain, pages)?;
        let accesses = cfg.accesses();
        let rng = self.wl_rng.fork(domain.0 as u64);
        let workload: Box<dyn Workload> = match self.wl_rng.below(3) {
            0 => Box::new(StreamWorkload::new(arena, accesses, 8)),
            1 => Box::new(RandomWorkload::new(arena, accesses, 0.2, rng)),
            _ => Box::new(ZipfianWorkload::new(arena, accesses, 0.99, rng)),
        };
        self.scenario.machine.set_workload(domain, workload)?;
        self.benign.push(domain);
        self.tenants_created += 1;
        Ok(())
    }

    /// One epoch: admit, churn, emigrate, run. Returns `(dest, src,
    /// export)` postings for the next epoch's mailbox.
    fn run_epoch(
        &mut self,
        cfg: &FleetConfig,
        inbox: Vec<(u32, TenantExport)>,
        total: u32,
    ) -> Result<Vec<(u32, u32, TenantExport)>> {
        // Admission in canonical (source id, domain) order — the
        // mailbox's arrival order is scheduling noise.
        for (_src, export) in inbox {
            let domain = export.domain;
            self.scenario.machine.admit_tenant(export)?;
            self.benign.push(domain);
            self.migrations_in += 1;
        }
        // ASID destroy: retire one benign tenant outright.
        if self.rng.chance(cfg.churn_chance) && self.benign.len() > 1 {
            let idx = self.rng.below(self.benign.len() as u64) as usize;
            let domain = self.benign.remove(idx);
            drop(self.scenario.machine.detach_tenant(domain)?);
            self.tenants_destroyed += 1;
        }
        // ASID create.
        if self.rng.chance(cfg.churn_chance) {
            self.create_benign(cfg)?;
        }
        // Emigration: detach one benign tenant and route it to a
        // deterministic destination.
        let mut out = Vec::new();
        if total > 1 && !self.benign.is_empty() && self.rng.chance(cfg.migration_chance) {
            let idx = self.rng.below(self.benign.len() as u64) as usize;
            let domain = self.benign.remove(idx);
            let export = self.scenario.machine.detach_tenant(domain)?;
            let dest = (self.spec.id + 1 + self.rng.below(total as u64 - 1) as u32) % total;
            out.push((dest, self.spec.id, export));
            self.migrations_out += 1;
        }
        self.scenario.run_windows(cfg.windows_per_epoch);
        Ok(out)
    }

    fn counters(&self) -> (u32, u32, u32, u32) {
        (
            self.migrations_in,
            self.migrations_out,
            self.tenants_created,
            self.tenants_destroyed,
        )
    }

    fn outcome(mut self) -> MachineOutcome {
        let report = self.scenario.report();
        MachineOutcome {
            id: self.spec.id,
            defense: self.spec.defense.name().to_string(),
            class: self.spec.class.name(),
            gen: self.spec.gen.name(),
            attacked: self.spec.attacked,
            faulty: self.spec.faults.is_some(),
            migrations_in: self.migrations_in,
            migrations_out: self.migrations_out,
            tenants_created: self.tenants_created,
            tenants_destroyed: self.tenants_destroyed,
            report: Some(report),
            failure: None,
        }
    }

    fn failed_outcome(
        spec: &MachineSpec,
        counters: (u32, u32, u32, u32),
        f: CellFailure,
    ) -> MachineOutcome {
        MachineOutcome {
            id: spec.id,
            defense: spec.defense.name().to_string(),
            class: spec.class.name(),
            gen: spec.gen.name(),
            attacked: spec.attacked,
            faulty: spec.faults.is_some(),
            migrations_in: counters.0,
            migrations_out: counters.1,
            tenants_created: counters.2,
            tenants_destroyed: counters.3,
            report: None,
            failure: Some(f),
        }
    }
}

/// One worker's shard: builds its machines and advances them epoch by
/// epoch, admitting from and posting to the migration mailbox.
struct ShardSim<'a> {
    cfg: &'a FleetConfig,
    shard: &'a [MachineSpec],
    total: u32,
    machines: Vec<std::result::Result<FleetMachine, Box<MachineOutcome>>>,
}

impl<'a> ShardSim<'a> {
    /// Builds every machine in the shard; a machine that fails to
    /// build becomes a structured outcome.
    fn build(cfg: &'a FleetConfig, shard: &'a [MachineSpec], total: u32) -> ShardSim<'a> {
        let machines = shard
            .iter()
            .map(|spec| {
                let label = machine_label(spec);
                // Boxed Err: a failed machine's outcome record is ~10x
                // the size of the live-machine handle, and it rides
                // through every epoch match.
                run_budgeted(&label, cfg.step_budget, || FleetMachine::build(spec, cfg))
                    .map_err(|f| Box::new(FleetMachine::failed_outcome(spec, (0, 0, 0, 0), f)))
            })
            .collect();
        ShardSim {
            cfg,
            shard,
            total,
            machines,
        }
    }

    /// Runs one epoch over the shard, admitting each machine's inbox
    /// from `mailbox` in canonical order; returns the shard's postings
    /// for the next epoch.
    fn run_epoch(&mut self, epoch: u32, mailbox: &Mailbox) -> Vec<(u32, u32, TenantExport)> {
        let (cfg, total) = (self.cfg, self.total);
        let mut out = Vec::new();
        for (spec, m) in self.shard.iter().zip(self.machines.iter_mut()) {
            // Drain the inbox even for dead machines so stale entries
            // never alias a future epoch's buffer; tenants migrated to
            // a dead machine are lost (counted nowhere — the dead
            // machine's failure record is the signal).
            let inbox = take_inbox(mailbox, spec.id);
            let failure = match m {
                Err(_) => None,
                Ok(fm) => {
                    // The budget covers the whole machine lifetime:
                    // re-arm with what it has not yet consumed.
                    let remaining = cfg
                        .step_budget
                        .map(|b| b.saturating_sub(fm.scenario.machine.now().raw()));
                    let label = machine_label(spec);
                    match run_budgeted(&label, remaining, || fm.run_epoch(cfg, inbox, total)) {
                        Ok(posts) => {
                            out.extend(posts);
                            None
                        }
                        Err(f) => Some(f),
                    }
                }
            };
            if let Some(mut f) = failure {
                let (counters, cycle) = match m {
                    Ok(fm) => (fm.counters(), fm.scenario.machine.now().raw()),
                    Err(_) => ((0, 0, 0, 0), 0),
                };
                // Outcome attribution: how far the machine got before
                // dying, in epochs and simulated cycles.
                f.progress = Some(FailureProgress {
                    epochs_done: epoch,
                    cycle,
                });
                *m = Err(Box::new(FleetMachine::failed_outcome(spec, counters, f)));
            }
        }
        out
    }

    /// Tears the shard down into final outcomes plus the traced
    /// machine's records (empty unless this shard owns it).
    fn finish(self) -> (Vec<MachineOutcome>, Vec<TraceRecord>) {
        let mut outcomes = Vec::with_capacity(self.machines.len());
        let mut trace = Vec::new();
        for m in self.machines {
            outcomes.push(match m {
                Ok(mut fm) => {
                    let tracer = fm.tracer.take();
                    // Report first, then drain: the report's snapshot
                    // registers final metrics into the tracer, so the
                    // drained record stream is complete.
                    let out = fm.outcome();
                    if let Some(tracer) = tracer {
                        trace = tracer.take_records();
                    }
                    out
                }
                Err(outcome) => *outcome,
            });
        }
        (outcomes, trace)
    }
}

/// The double-buffered migration mailbox: postings made during epoch
/// `e` (into buffer `(e + 1) % 2`) are delivered at the start of epoch
/// `e + 1`. Keyed by destination machine id; values carry the source
/// id so admission can sort canonically.
type Mailbox = Mutex<BTreeMap<u32, Vec<(u32, TenantExport)>>>;

fn post(mailbox: &Mailbox, items: Vec<(u32, u32, TenantExport)>) {
    if items.is_empty() {
        return;
    }
    let mut box_ = mailbox.lock().expect("mailbox poisoned");
    for (dest, src, export) in items {
        box_.entry(dest).or_default().push((src, export));
    }
}

fn take_inbox(mailbox: &Mailbox, id: u32) -> Vec<(u32, TenantExport)> {
    let mut items = mailbox
        .lock()
        .expect("mailbox poisoned")
        .remove(&id)
        .unwrap_or_default();
    // Canonical admission order: source machine id, then domain id
    // (one source can emigrate at most one tenant per epoch today,
    // but the domain tiebreak keeps the contract future-proof).
    items.sort_by_key(|(src, e)| (*src, e.domain.0));
    items
}

/// Runs the fleet and reduces it to a [`FleetReport`].
///
/// Determinism contract: the returned report — outcomes, population
/// stats, metrics, trace — is **byte-identical for any `jobs`**,
/// because every decision is drawn from id-keyed RNG streams, epochs
/// are barrier-separated, mailbox admission is canonically sorted,
/// and outcomes are collected in machine-id order.
///
/// # Errors
///
/// Configuration errors of the run itself: an empty fleet, or a
/// `trace_machine` that names no machine. Per-machine errors, panics,
/// and budget exhaustions never abort the run: they become structured
/// [`MachineOutcome::failure`] records while every sibling machine
/// completes.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport> {
    if cfg.machines == 0 {
        return Err(Error::Config("fleet needs at least one machine".into()));
    }
    if let Some(id) = cfg.trace_machine.filter(|&id| id >= cfg.machines) {
        return Err(Error::Config(format!(
            "trace machine {id} is not in a fleet of {} machines",
            cfg.machines
        )));
    }
    let specs = synthesize(cfg);
    let total = specs.len() as u32;
    let jobs = cfg.jobs.clamp(1, specs.len());
    let mailboxes: [Mailbox; 2] = [Mutex::new(BTreeMap::new()), Mutex::new(BTreeMap::new())];
    let slots: Vec<Mutex<Option<MachineOutcome>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let trace_slot: Mutex<Vec<TraceRecord>> = Mutex::new(Vec::new());

    // Contiguous shards: worker w owns machines [w*chunk ..
    // min((w+1)*chunk, n)). Rounding can leave fewer (non-empty)
    // shards than `jobs`; the barrier must count actual workers.
    let chunk = specs.len().div_ceil(jobs);
    let shards: Vec<&[MachineSpec]> = specs.chunks(chunk).collect();
    let barrier = Barrier::new(shards.len());
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(shards.len());
        for shard in &shards {
            let (mailboxes, barrier, slots, trace_slot) =
                (&mailboxes, &barrier, &slots, &trace_slot);
            workers.push(scope.spawn(move || {
                let mut sim = ShardSim::build(cfg, shard, total);
                for epoch in 0..cfg.epochs {
                    let inbox = &mailboxes[(epoch % 2) as usize];
                    let outbox = &mailboxes[((epoch + 1) % 2) as usize];
                    post(outbox, sim.run_epoch(epoch, inbox));
                    barrier.wait();
                }
                let (outcomes, trace) = sim.finish();
                if !trace.is_empty() {
                    *trace_slot.lock().expect("trace slot poisoned") = trace;
                }
                for outcome in outcomes {
                    let id = outcome.id as usize;
                    *slots[id].lock().expect("outcome slot poisoned") = Some(outcome);
                }
            }));
        }
        // The scope's implicit join only waits for each closure to
        // return; joining waits for the thread itself to exit, so no
        // worker is still tearing down (and holding its allocator
        // arena) when `run_fleet` returns and the next fleet starts.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let mut outcomes: Vec<MachineOutcome> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("outcome slot poisoned")
                .expect("every machine produces an outcome")
        })
        .collect();
    outcomes.sort_by_key(|o| o.id);
    let stats = fold(&outcomes);
    Ok(FleetReport {
        trace: trace_slot.into_inner().expect("trace slot poisoned"),
        outcomes,
        stats,
    })
}

/// Display label: `machine-0042/<defense>`.
fn machine_label(spec: &MachineSpec) -> String {
    format!("machine-{:04}/{}", spec.id, spec.defense.name())
}
