//! The mutation harness: prove every rule class actually fires.
//!
//! A checker that never fires is indistinguishable from a correct
//! simulator — so this module deliberately breaks recorded traces in
//! targeted ways (drop a closing PRE, shift an ACT inside tRP, insert
//! a fifth ACT into a full tFAW window, starve a rank's refresh, ...)
//! and [`self_test`] verifies the linter reports the expected rule
//! class for each applicable mutation. This is the "lint of the lint"
//! run by the `trace lint --self-test` CLI mode and the golden
//! integration test.
//!
//! Mutations are *site-searched*: each one replays the trace through
//! an [`InvariantChecker`] to find a position where its violation is
//! guaranteed to fire (e.g. an inserted fifth ACT targets a bank that
//! is idle and past its tRP at the insertion cycle). A mutation that
//! finds no site in the given trace is reported as skipped, not failed
//! — e.g. a refresh-disabled trace cannot demonstrate refresh
//! starvation.

use crate::checker::InvariantChecker;
use crate::lint::lint_records;
use crate::rules::{Rule, RuleClass};
use hammertime_common::geometry::BankId;
use hammertime_common::Cycle;
use hammertime_dram::DramConfig;
use hammertime_telemetry::{CmdEvent, Event, TraceRecord};

/// Minimum number of distinct rule classes a passing self-test must
/// prove (the acceptance bar for "the checker demonstrably works").
pub const MIN_CLASSES_PROVEN: usize = 4;

/// One targeted trace corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Remove a PRE that closes a row which a later ACT/REF needs
    /// closed → `ActOnOpenBank` / `RefWithOpenBank`.
    DropPre,
    /// Move an ACT to one cycle after its bank's closing PRE →
    /// `TRp`/`TRc`.
    ActBeforeTrp,
    /// Move a RD/WR to one cycle after its row's ACT → `TRcd`.
    CasBeforeTrcd,
    /// Insert a fifth ACT inside a rank's full tFAW window → `TFaw`.
    FifthActInFaw,
    /// Drop every REF after a rank's first → `RefStarved`.
    StarveRef,
    /// Remove an ACT whose row a later RD/WR expects open →
    /// `CasOnClosedBank` (plus a conservation mismatch).
    DropAct,
    /// Stamp a command with the same cycle as the previous command on
    /// its channel → `CmdBusConflict`.
    DupCycle,
}

impl Mutation {
    /// Every mutation, in the order the self-test runs them.
    pub const ALL: [Mutation; 7] = [
        Mutation::DropPre,
        Mutation::ActBeforeTrp,
        Mutation::CasBeforeTrcd,
        Mutation::FifthActInFaw,
        Mutation::StarveRef,
        Mutation::DropAct,
        Mutation::DupCycle,
    ];

    /// Kebab-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::DropPre => "drop-pre",
            Mutation::ActBeforeTrp => "act-before-trp",
            Mutation::CasBeforeTrcd => "cas-before-trcd",
            Mutation::FifthActInFaw => "fifth-act-in-tfaw",
            Mutation::StarveRef => "starve-ref",
            Mutation::DropAct => "drop-act",
            Mutation::DupCycle => "dup-cycle",
        }
    }

    /// The rule classes this mutation is expected to trip (any one of
    /// them counts as the mutation firing correctly).
    pub fn expected_classes(&self) -> &'static [RuleClass] {
        match self {
            Mutation::DropPre | Mutation::DropAct => &[RuleClass::Protocol],
            Mutation::ActBeforeTrp | Mutation::CasBeforeTrcd => &[RuleClass::BankTiming],
            Mutation::FifthActInFaw => &[RuleClass::Rank],
            Mutation::StarveRef => &[RuleClass::Refresh],
            Mutation::DupCycle => &[RuleClass::Bus],
        }
    }

    /// Applies the mutation to `records`, or `None` when the trace has
    /// no site where this mutation's violation is guaranteed.
    pub fn apply(&self, records: &[TraceRecord]) -> Option<Vec<TraceRecord>> {
        let seg = Segment::first(records)?;
        match self {
            Mutation::DropPre => drop_pre(records, &seg),
            Mutation::ActBeforeTrp => act_before_trp(records, &seg),
            Mutation::CasBeforeTrcd => cas_before_trcd(records, &seg),
            Mutation::FifthActInFaw => fifth_act_in_faw(records, &seg),
            Mutation::StarveRef => starve_ref(records, &seg),
            Mutation::DropAct => drop_act(records, &seg),
            Mutation::DupCycle => dup_cycle(records, &seg),
        }
    }
}

/// The first device segment of a trace: record index range plus the
/// device config parsed from its `DeviceReset`.
struct Segment {
    /// Index of the `DeviceReset` record.
    start: usize,
    /// Exclusive end: index of the closing `DeviceStats` (or of the
    /// next `DeviceReset`, or `records.len()`).
    end: usize,
    config: DramConfig,
}

impl Segment {
    fn first(records: &[TraceRecord]) -> Option<Segment> {
        let start = records
            .iter()
            .position(|r| matches!(r.event, Event::DeviceReset { .. }))?;
        let Event::DeviceReset { config_json } = &records[start].event else {
            unreachable!("position matched DeviceReset");
        };
        let config: DramConfig = serde_json::from_str(config_json).ok()?;
        let end = records[start + 1..]
            .iter()
            .position(|r| {
                matches!(
                    r.event,
                    Event::DeviceStats { .. } | Event::DeviceReset { .. }
                )
            })
            .map_or(records.len(), |p| start + 1 + p);
        Some(Segment { start, end, config })
    }

    fn checker(&self) -> InvariantChecker {
        InvariantChecker::new(
            self.config.geometry,
            self.config.timing,
            self.config.batched_pressure,
        )
    }

    /// Command records of the segment as `(record index, cycle, cmd)`.
    fn commands<'a>(
        &self,
        records: &'a [TraceRecord],
    ) -> impl Iterator<Item = (usize, Cycle, &'a CmdEvent)> {
        let start = self.start;
        records[start + 1..self.end]
            .iter()
            .enumerate()
            .filter_map(move |(off, r)| match &r.event {
                Event::Command { cmd } => Some((start + 1 + off, Cycle(r.cycle), cmd)),
                _ => None,
            })
    }
}

fn channel_of(cmd: &CmdEvent) -> u32 {
    match *cmd {
        CmdEvent::Act { bank, .. }
        | CmdEvent::Pre { bank }
        | CmdEvent::Rd { bank, .. }
        | CmdEvent::Wr { bank, .. }
        | CmdEvent::RefNeighbors { bank, .. } => bank.channel,
        CmdEvent::PreAll { channel, .. } | CmdEvent::Ref { channel, .. } => channel,
    }
}

fn command_record(cycle: Cycle, cmd: CmdEvent) -> TraceRecord {
    TraceRecord {
        cycle: cycle.raw(),
        event: Event::Command { cmd },
    }
}

/// Removes record `idx`.
fn without(records: &[TraceRecord], idx: usize) -> Vec<TraceRecord> {
    let mut out = records.to_vec();
    out.remove(idx);
    out
}

/// Moves record `from` to just after `after` with a new cycle stamp.
fn moved(records: &[TraceRecord], from: usize, after: usize, cycle: Cycle) -> Vec<TraceRecord> {
    debug_assert!(after < from);
    let mut out = records.to_vec();
    let mut rec = out.remove(from);
    rec.cycle = cycle.raw();
    out.insert(after + 1, rec);
    out
}

/// After dropping a closing PRE of `bank`, scan forward: does an
/// ACT/REF/REFN hit the still-open bank before anything else closes it?
fn open_bank_trigger_follows(
    records: &[TraceRecord],
    seg: &Segment,
    from: usize,
    bank: BankId,
) -> bool {
    for (_, _, cmd) in seg.commands(records).filter(|(i, _, _)| *i > from) {
        match *cmd {
            CmdEvent::Act { bank: b, .. } if b == bank => return true,
            CmdEvent::Ref { channel, rank } if channel == bank.channel && rank == bank.rank => {
                return true;
            }
            CmdEvent::RefNeighbors { bank: b, .. } if b == bank => return true,
            // Anything that would (legally) close the row again ends
            // the window in which the drop is observable.
            CmdEvent::Pre { bank: b } if b == bank => return false,
            CmdEvent::PreAll { channel, rank } if channel == bank.channel && rank == bank.rank => {
                return false;
            }
            CmdEvent::Rd {
                bank: b,
                auto_pre: true,
                ..
            }
            | CmdEvent::Wr {
                bank: b,
                auto_pre: true,
                ..
            } if b == bank => return false,
            _ => {}
        }
    }
    false
}

fn drop_pre(records: &[TraceRecord], seg: &Segment) -> Option<Vec<TraceRecord>> {
    let mut checker = seg.checker();
    for (i, cycle, cmd) in seg.commands(records) {
        if let CmdEvent::Pre { bank } = *cmd {
            if checker.peek_bank_open(&bank) && open_bank_trigger_follows(records, seg, i, bank) {
                return Some(without(records, i));
            }
        }
        checker.command(cycle, cmd);
    }
    None
}

fn act_before_trp(records: &[TraceRecord], seg: &Segment) -> Option<Vec<TraceRecord>> {
    if seg.config.timing.t_rp < 2 {
        return None;
    }
    let mut checker = seg.checker();
    // Last closing PRE per flat bank: (record index, cycle).
    let banks = seg.config.geometry.total_banks() as usize;
    let mut last_close: Vec<Option<(usize, Cycle)>> = vec![None; banks];
    for (i, cycle, cmd) in seg.commands(records) {
        match *cmd {
            CmdEvent::Pre { bank } if checker.peek_bank_open(&bank) => {
                last_close[bank.flat(&seg.config.geometry)] = Some((i, cycle));
            }
            CmdEvent::Act { bank, .. } => {
                if let Some((pre_idx, pre_cycle)) = last_close[bank.flat(&seg.config.geometry)] {
                    if cycle > pre_cycle + 1 {
                        // One cycle after the PRE is always inside tRP.
                        return Some(moved(records, i, pre_idx, pre_cycle + 1));
                    }
                }
                last_close[bank.flat(&seg.config.geometry)] = None;
            }
            _ => {}
        }
        checker.command(cycle, cmd);
    }
    None
}

fn cas_before_trcd(records: &[TraceRecord], seg: &Segment) -> Option<Vec<TraceRecord>> {
    if seg.config.timing.t_rcd < 2 {
        return None;
    }
    let banks = seg.config.geometry.total_banks() as usize;
    // Opening ACT per flat bank: (record index, cycle).
    let mut last_open: Vec<Option<(usize, Cycle)>> = vec![None; banks];
    for (i, cycle, cmd) in seg.commands(records) {
        match *cmd {
            CmdEvent::Act { bank, .. } => {
                last_open[bank.flat(&seg.config.geometry)] = Some((i, cycle));
            }
            CmdEvent::Rd { bank, .. } | CmdEvent::Wr { bank, .. } => {
                if let Some((act_idx, act_cycle)) = last_open[bank.flat(&seg.config.geometry)] {
                    if cycle > act_cycle + 1 {
                        // One cycle after the ACT is always inside tRCD.
                        return Some(moved(records, i, act_idx, act_cycle + 1));
                    }
                }
                last_open[bank.flat(&seg.config.geometry)] = None;
            }
            CmdEvent::Pre { bank } | CmdEvent::RefNeighbors { bank, .. } => {
                last_open[bank.flat(&seg.config.geometry)] = None;
            }
            CmdEvent::PreAll { channel, rank } | CmdEvent::Ref { channel, rank } => {
                for slot in last_open.iter_mut().enumerate().filter_map(|(b, s)| {
                    let per_rank = seg.config.geometry.banks_per_rank() as usize;
                    let r = (channel * seg.config.geometry.ranks + rank) as usize;
                    (b / per_rank == r).then_some(s)
                }) {
                    *slot = None;
                }
            }
        }
    }
    None
}

fn fifth_act_in_faw(records: &[TraceRecord], seg: &Segment) -> Option<Vec<TraceRecord>> {
    let t_faw = seg.config.timing.t_faw;
    let mut checker = seg.checker();
    for (i, cycle, cmd) in seg.commands(records) {
        checker.command(cycle, cmd);
        let CmdEvent::Act { bank, .. } = *cmd else {
            continue;
        };
        let (len, front) = checker.peek_rank_faw(bank.channel, bank.rank);
        let Some(window_open) = front else { continue };
        let insert_at = cycle + 1;
        if len < 4 || insert_at >= window_open + t_faw {
            continue;
        }
        // Find an idle, ready bank in the rank for the illegal ACT so
        // the only new rank-class violations are the intended ones.
        if checker.peek_rank_busy_until(bank.channel, bank.rank) > insert_at {
            continue;
        }
        let g = *checker.peek_geometry();
        for bank_group in 0..g.bank_groups {
            for b in 0..g.banks_per_group {
                let victim = BankId {
                    channel: bank.channel,
                    rank: bank.rank,
                    bank_group,
                    bank: b,
                };
                if !checker.peek_bank_open(&victim)
                    && checker.peek_bank_ready_act(&victim) <= insert_at
                {
                    let mut out = records.to_vec();
                    out.insert(
                        i + 1,
                        command_record(
                            insert_at,
                            CmdEvent::Act {
                                bank: victim,
                                row: 0,
                            },
                        ),
                    );
                    return Some(out);
                }
            }
        }
    }
    None
}

fn starve_ref(records: &[TraceRecord], seg: &Segment) -> Option<Vec<TraceRecord>> {
    let limit = crate::MAX_REF_GAP_TREFI * seg.config.timing.t_refi;
    let end_cycle = records[seg.start..seg.end.min(records.len())]
        .iter()
        .map(|r| r.cycle)
        .max()
        .unwrap_or(0);
    // Per (channel, rank): indices of its REF records.
    let mut refs: std::collections::BTreeMap<(u32, u32), Vec<usize>> = Default::default();
    for (i, _, cmd) in seg.commands(records) {
        if let CmdEvent::Ref { channel, rank } = *cmd {
            refs.entry((channel, rank)).or_default().push(i);
        }
    }
    for indices in refs.values() {
        if indices.len() < 2 {
            continue;
        }
        let first_cycle = records[indices[0]].cycle;
        if end_cycle.saturating_sub(first_cycle) <= limit {
            continue; // segment too short to demonstrate starvation
        }
        let drop: std::collections::HashSet<usize> = indices[1..].iter().copied().collect();
        let out = records
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        return Some(out);
    }
    None
}

fn drop_act(records: &[TraceRecord], seg: &Segment) -> Option<Vec<TraceRecord>> {
    let banks = seg.config.geometry.total_banks() as usize;
    let mut candidate: Vec<Option<usize>> = vec![None; banks];
    for (i, _, cmd) in seg.commands(records) {
        match *cmd {
            CmdEvent::Act { bank, .. } => {
                candidate[bank.flat(&seg.config.geometry)] = Some(i);
            }
            CmdEvent::Rd { bank, .. } | CmdEvent::Wr { bank, .. } => {
                if let Some(act_idx) = candidate[bank.flat(&seg.config.geometry)] {
                    // Dropping that ACT leaves this CAS with no open row.
                    return Some(without(records, act_idx));
                }
            }
            CmdEvent::Pre { bank } | CmdEvent::RefNeighbors { bank, .. } => {
                candidate[bank.flat(&seg.config.geometry)] = None;
            }
            CmdEvent::PreAll { .. } | CmdEvent::Ref { .. } => {
                candidate.iter_mut().for_each(|c| *c = None);
            }
        }
    }
    None
}

fn dup_cycle(records: &[TraceRecord], seg: &Segment) -> Option<Vec<TraceRecord>> {
    let mut last_on_channel: std::collections::HashMap<u32, u64> = Default::default();
    for (i, cycle, cmd) in seg.commands(records) {
        let ch = channel_of(cmd);
        if let Some(prev) = last_on_channel.get(&ch) {
            if cycle.raw() > *prev {
                let mut out = records.to_vec();
                out[i].cycle = *prev;
                return Some(out);
            }
        }
        last_on_channel.insert(ch, cycle.raw());
    }
    None
}

/// Outcome of one mutation in a self-test run.
#[derive(Debug, Clone)]
pub struct SelfTestOutcome {
    /// Which mutation ran.
    pub mutation: Mutation,
    /// Rules the linter reported on the mutated trace; `None` when the
    /// trace had no applicable mutation site.
    pub fired: Option<Vec<Rule>>,
    /// Whether an expected-class rule fired (vacuously `true` for a
    /// skipped mutation).
    pub ok: bool,
}

/// The full self-test result: one outcome per mutation.
#[derive(Debug, Clone)]
pub struct SelfTestReport {
    /// Outcomes in [`Mutation::ALL`] order.
    pub outcomes: Vec<SelfTestOutcome>,
}

impl SelfTestReport {
    /// Distinct rule classes proven to fire across all mutations.
    pub fn classes_proven(&self) -> usize {
        let mut classes = std::collections::HashSet::new();
        for o in &self.outcomes {
            if let Some(fired) = &o.fired {
                classes.extend(fired.iter().map(Rule::class));
            }
        }
        classes.len()
    }

    /// `true` when every applicable mutation tripped its expected rule
    /// class and at least [`MIN_CLASSES_PROVEN`] classes fired overall.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.ok) && self.classes_proven() >= MIN_CLASSES_PROVEN
    }

    /// One line per mutation, human-readable.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            let status = match &o.fired {
                None => "skipped (no applicable site)".to_string(),
                Some(rules) if o.ok => format!(
                    "fired {}",
                    rules.iter().map(Rule::name).collect::<Vec<_>>().join(", ")
                ),
                Some(rules) => format!(
                    "FAILED: expected {:?}, got [{}]",
                    o.mutation.expected_classes(),
                    rules.iter().map(Rule::name).collect::<Vec<_>>().join(", ")
                ),
            };
            out.push_str(&format!("{:<18} {status}\n", o.mutation.name()));
        }
        out.push_str(&format!(
            "classes proven: {} (need >= {MIN_CLASSES_PROVEN})\n",
            self.classes_proven()
        ));
        out
    }
}

/// Runs every mutation against `records` and lints each mutated trace:
/// the checker's own regression test.
pub fn self_test(records: &[TraceRecord]) -> SelfTestReport {
    let outcomes = Mutation::ALL
        .iter()
        .map(|m| match m.apply(records) {
            None => SelfTestOutcome {
                mutation: *m,
                fired: None,
                ok: true,
            },
            Some(mutated) => {
                let report = lint_records(&mutated);
                let fired = report.rules_fired();
                let ok = fired
                    .iter()
                    .any(|r| m.expected_classes().contains(&r.class()));
                SelfTestOutcome {
                    mutation: *m,
                    fired: Some(fired),
                    ok,
                }
            }
        })
        .collect();
    SelfTestReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_dram::{DdrCommand, DramModule};
    use hammertime_telemetry::Tracer;

    /// A legal single-bank open/read/close session, recorded from a
    /// real traced device.
    fn recorded_session() -> Vec<TraceRecord> {
        let tracer = Tracer::buffer();
        let mut config = DramConfig::test_config(1_000_000);
        config.tracer = Some(tracer.clone());
        let bank = BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
        };
        {
            let mut dram = DramModule::new(config).unwrap();
            let t = hammertime_dram::TimingParams::tiny_test();
            let mut now = Cycle(1);
            for _ in 0..3 {
                dram.issue(&DdrCommand::Act { bank, row: 2 }, now).unwrap();
                now += t.t_rcd;
                dram.issue(
                    &DdrCommand::Rd {
                        bank,
                        col: 0,
                        auto_pre: false,
                    },
                    now,
                )
                .unwrap();
                now += t.t_ras - t.t_rcd;
                dram.issue(&DdrCommand::Pre { bank }, now).unwrap();
                now += t.t_rc;
            }
        }
        tracer.take_records()
    }

    #[test]
    fn every_applied_mutation_fires_its_class() {
        let records = recorded_session();
        // Sanity: the unmutated trace is clean, so every rule fired
        // below is caused by the mutation.
        assert!(lint_records(&records).is_clean());
        let report = self_test(&records);
        assert!(report.passed(), "{}", report.summary());
        // This simple trace has sites for at least these five.
        for m in [
            Mutation::DropPre,
            Mutation::ActBeforeTrp,
            Mutation::CasBeforeTrcd,
            Mutation::DropAct,
            Mutation::DupCycle,
        ] {
            let o = report.outcomes.iter().find(|o| o.mutation == m).unwrap();
            assert!(o.fired.is_some(), "{} found no site", m.name());
        }
    }

    #[test]
    fn faw_and_refresh_mutations_skip_gracefully_without_sites() {
        let records = recorded_session();
        // Three same-bank ACTs can't fill a tFAW window, and the
        // session is refresh-free — both mutations must report None,
        // not a bogus failure.
        assert!(Mutation::FifthActInFaw.apply(&records).is_none());
        assert!(Mutation::StarveRef.apply(&records).is_none());
    }

    #[test]
    fn mutation_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            Mutation::ALL.iter().map(Mutation::name).collect();
        assert_eq!(names.len(), Mutation::ALL.len());
    }
}
