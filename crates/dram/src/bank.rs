//! Per-bank state machines with DDR timing enforcement.
//!
//! A bank is a grid of rows with one shared row buffer (paper Fig. 1).
//! The FSM enforces protocol legality — commands in an illegal state or
//! before their earliest legal cycle return [`Error::Protocol`] /
//! [`Error::Timing`] rather than silently corrupting the model.
//!
//! Bank-local constraints enforced here: tRCD (ACT→RD/WR), tRAS
//! (ACT→PRE), tRP (PRE→ACT), tRC (ACT→ACT same bank), tRTP (RD→PRE),
//! write recovery (WR data→PRE). Rank-level constraints (tRRD, tFAW,
//! tRFC) live in [`crate::module`].
//!
//! The FSM/timing state of *all* banks lives in one [`TimingSoA`]
//! (struct-of-arrays) owned by the module: scheduler probes
//! (`earliest_*`, the per-bank timing snapshot) touch one contiguous
//! column per field instead of striding over whole per-bank structs.
//! [`Bank`] remains the per-bank view type for what is genuinely
//! per-bank and cold: row disturbance bookkeeping ([`VictimState`]),
//! activation counters, and the batched-pressure log. The module
//! pairs column `b` of the SoA with `banks[b]`.

use crate::disturb::{DisturbanceProfile, PressureTable, VictimState};
use crate::timing::TimingParams;
use hammertime_common::{Cycle, Error, Result};
use serde::{Deserialize, Serialize};

/// Sentinel in [`TimingSoA`]'s open-row column: bank idle, no row open.
pub const NO_OPEN_ROW: u32 = u32::MAX;

// Error construction stays out of line so the checked SoA operations
// inline down to a few compares and stores on their success path.
#[cold]
#[inline(never)]
fn act_while_open(row: u32, open: u32) -> Error {
    Error::Protocol(format!("ACT r{row} while r{open} is open (PRE first)"))
}

#[cold]
#[inline(never)]
fn timing_err(what: &str, now: Cycle, earliest: Cycle) -> Error {
    Error::Timing(format!("{what} at {now} before earliest {earliest}"))
}

/// The row-buffer state of a bank (view over [`TimingSoA`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankState {
    /// All rows precharged; the row buffer is empty.
    Idle,
    /// `row` is connected to the row buffer.
    Active {
        /// The open row.
        row: u32,
        /// When the ACT was issued (for tRAS/tRC accounting).
        opened_at: Cycle,
    },
}

/// Struct-of-arrays FSM and timing state for every bank of a device.
///
/// Column `b` holds bank `b`'s row-buffer state and per-class
/// readiness. The open-row column uses [`NO_OPEN_ROW`] as the idle
/// sentinel so the hot "is a row open?" probe is one `u32` compare.
///
/// Methods mirror the per-bank FSM exactly: each checked operation
/// validates protocol state and timing before mutating, so driving a
/// column directly (as the property tests do) behaves identically to
/// driving it through [`crate::module::DramModule`] — the module's
/// per-command earliest gate merely makes the internal checks
/// unreachable.
#[derive(Debug, Clone)]
pub struct TimingSoA {
    /// Open internal row per bank; [`NO_OPEN_ROW`] when idle.
    open_row: Vec<u32>,
    /// When the open row's ACT issued (tRAS/tRC accounting).
    opened_at: Vec<Cycle>,
    /// Earliest cycle an ACT may issue (tRP/tRC effects).
    ready_act: Vec<Cycle>,
    /// Earliest cycle a PRE may issue (tRAS/tRTP/tWR effects).
    ready_pre: Vec<Cycle>,
    /// Earliest cycle a RD/WR may issue (tRCD effect); meaningful only
    /// while a row is open.
    ready_rdwr: Vec<Cycle>,
}

impl TimingSoA {
    /// All-idle timing state for `banks` banks.
    pub fn new(banks: usize) -> TimingSoA {
        TimingSoA {
            open_row: vec![NO_OPEN_ROW; banks],
            opened_at: vec![Cycle::ZERO; banks],
            ready_act: vec![Cycle::ZERO; banks],
            ready_pre: vec![Cycle::ZERO; banks],
            ready_rdwr: vec![Cycle::ZERO; banks],
        }
    }

    /// Number of banks tracked.
    pub fn banks(&self) -> usize {
        self.open_row.len()
    }

    /// Whether bank `b` has a row open.
    #[inline]
    pub fn is_active(&self, b: usize) -> bool {
        self.open_row[b] != NO_OPEN_ROW
    }

    /// The open (internal) row of bank `b`, if any.
    #[inline]
    pub fn open_row(&self, b: usize) -> Option<u32> {
        match self.open_row[b] {
            NO_OPEN_ROW => None,
            row => Some(row),
        }
    }

    /// Bank `b`'s FSM state as the classic enum view.
    pub fn state(&self, b: usize) -> BankState {
        match self.open_row[b] {
            NO_OPEN_ROW => BankState::Idle,
            row => BankState::Active {
                row,
                opened_at: self.opened_at[b],
            },
        }
    }

    /// Earliest cycle an ACT may legally issue on bank `b`.
    #[inline]
    pub fn earliest_act(&self, b: usize) -> Cycle {
        if self.open_row[b] == NO_OPEN_ROW {
            self.ready_act[b]
        } else {
            // Must PRE first; an ACT is never legal while active.
            Cycle::MAX
        }
    }

    /// Earliest cycle a RD/WR may legally issue on bank `b` (only
    /// while active).
    #[inline]
    pub fn earliest_rdwr(&self, b: usize) -> Cycle {
        if self.open_row[b] == NO_OPEN_ROW {
            Cycle::MAX
        } else {
            self.ready_rdwr[b]
        }
    }

    /// Earliest cycle a PRE may legally issue on bank `b`. PRE of an
    /// idle bank is a legal no-op, available immediately.
    #[inline]
    pub fn earliest_pre(&self, b: usize) -> Cycle {
        if self.open_row[b] == NO_OPEN_ROW {
            Cycle::ZERO
        } else {
            self.ready_pre[b]
        }
    }

    /// Activates `row` on bank `b` at `now`.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if the bank is active; [`Error::Timing`] if
    /// `now` is before the earliest legal ACT.
    #[inline]
    pub fn act(&mut self, b: usize, row: u32, now: Cycle, timing: &TimingParams) -> Result<()> {
        let open = self.open_row[b];
        if open != NO_OPEN_ROW {
            return Err(act_while_open(row, open));
        }
        if now < self.ready_act[b] {
            return Err(timing_err("ACT", now, self.ready_act[b]));
        }
        self.open_row[b] = row;
        self.opened_at[b] = now;
        self.ready_rdwr[b] = now + timing.t_rcd;
        self.ready_pre[b] = now + timing.t_ras;
        Ok(())
    }

    /// Precharges bank `b` at `now`. PRE of an idle bank is a legal
    /// no-op (the paper's refresh-instruction sequence begins with an
    /// unconditional PRE, §4.3).
    ///
    /// Returns whether a row was actually closed (so the caller can
    /// count real closes and skip the no-op case).
    ///
    /// # Errors
    ///
    /// [`Error::Timing`] if the bank is active and `now` is before the
    /// earliest legal PRE.
    #[inline]
    pub fn pre(&mut self, b: usize, now: Cycle, timing: &TimingParams) -> Result<bool> {
        if self.open_row[b] == NO_OPEN_ROW {
            return Ok(false); // No-op; does not reset ready_act.
        }
        if now < self.ready_pre[b] {
            return Err(timing_err("PRE", now, self.ready_pre[b]));
        }
        self.close(b, now, timing);
        Ok(true)
    }

    #[inline]
    fn close(&mut self, b: usize, pre_time: Cycle, timing: &TimingParams) {
        self.open_row[b] = NO_OPEN_ROW;
        self.ready_act[b] = (pre_time + timing.t_rp).max(self.opened_at[b] + timing.t_rc);
    }

    /// Reads from the open row of bank `b` at `now`.
    ///
    /// Returns the open row and the cycle at which data completes on
    /// the bus (`now + CL + tBL`). With `auto_pre` the bank precharges
    /// itself at the earliest legal point after the read.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if no row is open; [`Error::Timing`] before
    /// tRCD has elapsed.
    #[inline]
    pub fn rd(
        &mut self,
        b: usize,
        now: Cycle,
        auto_pre: bool,
        timing: &TimingParams,
    ) -> Result<(u32, Cycle)> {
        let row = self.open_row[b];
        if row == NO_OPEN_ROW {
            return Err(Error::Protocol("RD with no open row".into()));
        }
        if now < self.ready_rdwr[b] {
            return Err(timing_err("RD", now, self.ready_rdwr[b]));
        }
        let data_done = now + timing.cl + timing.t_bl;
        self.ready_pre[b] = self.ready_pre[b].max(now + timing.t_rtp);
        if auto_pre {
            let pre_time = self.ready_pre[b];
            self.close(b, pre_time, timing);
        }
        Ok((row, data_done))
    }

    /// Writes to the open row of bank `b` at `now`.
    ///
    /// Returns the open row and the cycle at which the write burst (and
    /// recovery) completes. With `auto_pre` the bank precharges itself
    /// at the earliest legal point after write recovery.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if no row is open; [`Error::Timing`] before
    /// tRCD has elapsed.
    #[inline]
    pub fn wr(
        &mut self,
        b: usize,
        now: Cycle,
        auto_pre: bool,
        timing: &TimingParams,
    ) -> Result<(u32, Cycle)> {
        let row = self.open_row[b];
        if row == NO_OPEN_ROW {
            return Err(Error::Protocol("WR with no open row".into()));
        }
        if now < self.ready_rdwr[b] {
            return Err(timing_err("WR", now, self.ready_rdwr[b]));
        }
        let data_end = now + timing.cwl + timing.t_bl;
        self.ready_pre[b] = self.ready_pre[b].max(data_end + timing.t_wr);
        if auto_pre {
            let pre_time = self.ready_pre[b];
            self.close(b, pre_time, timing);
        }
        Ok((row, data_end))
    }

    /// Blocks bank `b` until `until` (used while a rank-level REF or a
    /// multi-row REF_NEIGHBORS occupies it).
    #[inline]
    pub fn block_until(&mut self, b: usize, until: Cycle) {
        self.ready_act[b] = self.ready_act[b].max(until);
    }
}

/// Per-row bookkeeping within a bank.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RowState {
    /// Disturbance accumulation for this row as a *victim*.
    pub victim: VictimState,
    /// ACTs of this row since its own last refresh (its life as an
    /// *aggressor*); the ground truth frequency-centric defenses try
    /// to bound.
    pub acts_since_refresh: u32,
    /// Lifetime ACT count (wear statistics).
    pub total_acts: u64,
}

/// A disturbance notification produced by an ACT: the victim row and
/// how many new flip opportunities the pressure crossing created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disturbance {
    /// Victim row (in-bank index).
    pub victim_row: u32,
    /// Fresh flip opportunities (see [`VictimState::add_pressure`]).
    pub opportunities: u32,
}

/// One bank's rows-and-disturbance view. Timing/FSM state lives in the
/// module-owned [`TimingSoA`]; this type carries what is per-row or
/// cold: victim pressure, activation counters, the batched-pressure
/// log, and the counter-saturation fault.
#[derive(Debug, Clone)]
pub struct Bank {
    rows: Vec<RowState>,
    rows_per_subarray: u32,
    profile: DisturbanceProfile,
    /// Precomputed `w(d)` weights (bit-exact with
    /// [`DisturbanceProfile::pressure_at`]).
    weights: PressureTable,
    /// Opt-in deferred disturbance accounting (see
    /// `DramConfig::batched_pressure`): ACTs append to `pending` in
    /// O(1) and victims are settled at the next flush boundary.
    batched: bool,
    /// Run-length log of ACTs whose disturbance is not yet applied
    /// (batched mode): `(aggressor row, consecutive ACT count)` in
    /// issue order, so a flush replays aggressor interleavings exactly.
    pending: Vec<(u32, u64)>,
    /// Disturbances produced by a flush, awaiting flip sampling by the
    /// module: `(aggressor row, disturbance)`.
    flushed: Vec<(u32, Disturbance)>,
    /// Fault injection: ceiling at which `acts_since_refresh` saturates
    /// (0 = count accurately). Models a wedged per-row activation
    /// counter that undercounts sustained hammering.
    act_saturation: u32,
    /// How many ACT-count increments the saturation ceiling swallowed.
    pub saturation_clamps: u64,
    /// ACT count of this bank (row-buffer statistics).
    pub acts: u64,
    /// Real row closes (PRE and auto-precharge; idle-PRE no-ops are
    /// not counted). Maintained by the module alongside
    /// [`TimingSoA`] closes.
    pub pres: u64,
}

impl Bank {
    /// Creates a bank view with `rows` rows organized in subarrays of
    /// `rows_per_subarray`, disturbed according to `profile`. With
    /// `batched` the per-ACT victim walk is deferred to flush
    /// boundaries (refresh or an explicit flush) — an opt-in
    /// approximation that makes an N-ACT burst cost O(unique aggressor
    /// runs) instead of O(N x blast diameter).
    pub fn new(
        rows: u32,
        rows_per_subarray: u32,
        profile: DisturbanceProfile,
        batched: bool,
    ) -> Bank {
        assert!(rows > 0 && rows_per_subarray > 0 && rows.is_multiple_of(rows_per_subarray));
        Bank {
            rows: vec![RowState::default(); rows as usize],
            rows_per_subarray,
            weights: PressureTable::new(&profile),
            profile,
            batched,
            pending: Vec::new(),
            flushed: Vec::new(),
            act_saturation: 0,
            saturation_clamps: 0,
            acts: 0,
            pres: 0,
        }
    }

    /// Enables the disturbance-counter saturation fault: per-row
    /// `acts_since_refresh` counters cap at `ceiling` instead of
    /// counting accurately (`0` restores accurate counting). Swallowed
    /// increments are tallied in [`Bank::saturation_clamps`].
    pub fn set_act_saturation(&mut self, ceiling: u32) {
        self.act_saturation = ceiling;
    }

    /// Number of rows in the bank.
    pub fn rows(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Immutable view of a row's state.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_state(&self, row: u32) -> &RowState {
        &self.rows[row as usize]
    }

    fn subarray_bounds(&self, row: u32) -> (u32, u32) {
        let sa = row / self.rows_per_subarray;
        let lo = sa * self.rows_per_subarray;
        (lo, lo + self.rows_per_subarray - 1)
    }

    /// Applies the disturbance side of an ACT of `row` at `now` (the
    /// FSM/timing side lives in [`TimingSoA::act`]), disturbing the
    /// row's in-subarray neighbors.
    ///
    /// Returns the set of victims whose pressure crossed flip
    /// thresholds; the caller samples actual bit flips from these
    /// opportunities. The ACT also refreshes `row` itself (paper §2.1:
    /// "an ACT of a row also repairs the row as a side effect").
    ///
    /// In batched mode the ACT is appended to the pending log instead
    /// and the returned set is empty; victims settle at the next flush
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range (the module validates range
    /// before the FSM transition).
    pub fn record_act(&mut self, row: u32, now: Cycle) -> Vec<Disturbance> {
        self.acts += 1;

        if self.batched {
            // Defer the victim walk: extend the current run or open a
            // new one. Per-row bookkeeping happens at flush, in order.
            match self.pending.last_mut() {
                Some((last, count)) if *last == row => *count += 1,
                _ => self.pending.push((row, 1)),
            }
            return Vec::new();
        }

        // The aggressor row itself is repaired by its own activation.
        let sat = self.act_saturation;
        let rs = &mut self.rows[row as usize];
        rs.victim.refresh(now);
        if sat > 0 && rs.acts_since_refresh >= sat {
            self.saturation_clamps += 1;
        } else {
            rs.acts_since_refresh += 1;
        }
        rs.total_acts += 1;

        // Disturb in-subarray neighbors out to the blast radius.
        // Subarrays are electromagnetically isolated (paper §4.1), so
        // pressure never crosses a subarray boundary — the physical
        // fact the isolation-centric primitive builds on.
        let profile = self.profile;
        let (lo, hi) = self.subarray_bounds(row);
        let mut out = Vec::new();
        for d in 1..=profile.blast_radius {
            let w = self.weights.at(d);
            for victim in [row.checked_sub(d), row.checked_add(d)]
                .into_iter()
                .flatten()
            {
                if victim < lo || victim > hi {
                    continue;
                }
                let fresh = self.rows[victim as usize].victim.add_pressure(w, &profile);
                if fresh > 0 {
                    out.push(Disturbance {
                        victim_row: victim,
                        opportunities: fresh,
                    });
                }
            }
        }
        out
    }

    /// Settles the pending ACT log (batched mode): replays each
    /// aggressor run in issue order, applying `count x w(d)` pressure
    /// per victim, and queues the resulting disturbances for
    /// [`Bank::take_flushed`]. A run's aggregated pressure equals the
    /// per-ACT sum exactly for dyadic decays (0.5, 1.0) and to within
    /// FP rounding otherwise; flip opportunities and row refreshes are
    /// stamped with the flush time rather than each ACT's own cycle.
    ///
    /// No-op when the log is empty (always, in non-batched mode).
    pub fn flush_disturbances(&mut self, now: Cycle) {
        if self.pending.is_empty() {
            return;
        }
        let profile = self.profile;
        let pending = std::mem::take(&mut self.pending);
        let sat = self.act_saturation;
        for (row, count) in pending {
            let rs = &mut self.rows[row as usize];
            rs.victim.refresh(now);
            rs.acts_since_refresh = rs.acts_since_refresh.saturating_add(count as u32);
            if sat > 0 && rs.acts_since_refresh > sat {
                self.saturation_clamps += u64::from(rs.acts_since_refresh - sat);
                rs.acts_since_refresh = sat;
            }
            rs.total_acts += count;
            let (lo, hi) = self.subarray_bounds(row);
            for d in 1..=profile.blast_radius {
                let w = self.weights.at(d) * count as f64;
                for victim in [row.checked_sub(d), row.checked_add(d)]
                    .into_iter()
                    .flatten()
                {
                    if victim < lo || victim > hi {
                        continue;
                    }
                    let fresh = self.rows[victim as usize].victim.add_pressure(w, &profile);
                    if fresh > 0 {
                        self.flushed.push((
                            row,
                            Disturbance {
                                victim_row: victim,
                                opportunities: fresh,
                            },
                        ));
                    }
                }
            }
        }
    }

    /// Takes the disturbances produced by flushes since the last call,
    /// as `(aggressor row, disturbance)` pairs awaiting flip sampling.
    pub fn take_flushed(&mut self) -> Vec<(u32, Disturbance)> {
        std::mem::take(&mut self.flushed)
    }

    /// Whether the batched-pressure log has unsettled ACTs.
    pub fn has_pending_disturbance(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Refreshes `row` in place (REF slot coverage, REF_NEIGHBORS, or
    /// the refresh instruction's ACT): clears its disturbance pressure
    /// and aggressor counter.
    ///
    /// This is a state update, not a timed command — the *caller*
    /// accounts for the bank-busy time of whichever command performed
    /// the refresh.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn refresh_row(&mut self, row: u32, now: Cycle) {
        // Pending ACTs happened before this refresh: settle them first
        // so their pressure lands (and can flip) before the reset.
        self.flush_disturbances(now);
        let rs = &mut self.rows[row as usize];
        rs.victim.refresh(now);
        rs.acts_since_refresh = 0;
    }

    /// Returns the in-subarray neighbors of `row` within `radius`
    /// (potential victims of `row` as an aggressor).
    pub fn neighbors_within(&self, row: u32, radius: u32) -> Vec<u32> {
        let (lo, hi) = self.subarray_bounds(row);
        let mut out = Vec::new();
        for d in 1..=radius {
            if let Some(v) = row.checked_sub(d) {
                if v >= lo {
                    out.push(v);
                }
            }
            if let Some(v) = row.checked_add(d) {
                if v <= hi {
                    out.push(v);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp() -> TimingParams {
        TimingParams::tiny_test()
    }

    fn profile(mac: u64) -> DisturbanceProfile {
        DisturbanceProfile {
            mac,
            blast_radius: 2,
            distance_decay: 0.5,
            flip_prob: 1.0,
            overshoot_step: 0.05,
        }
    }

    /// One bank driven the way the module drives it: FSM transitions
    /// through a one-column [`TimingSoA`], disturbance through the
    /// [`Bank`] view.
    struct Harness {
        soa: TimingSoA,
        bank: Bank,
    }

    fn bank_with(profile: DisturbanceProfile) -> Harness {
        Harness {
            soa: TimingSoA::new(1),
            bank: Bank::new(32, 16, profile, false),
        }
    }

    impl Harness {
        fn act(&mut self, row: u32, now: Cycle, t: &TimingParams) -> Result<Vec<Disturbance>> {
            self.soa.act(0, row, now, t)?;
            Ok(self.bank.record_act(row, now))
        }

        fn pre(&mut self, now: Cycle, t: &TimingParams) -> Result<()> {
            if self.soa.pre(0, now, t)? {
                self.bank.pres += 1;
            }
            Ok(())
        }

        fn rd(&mut self, now: Cycle, auto_pre: bool, t: &TimingParams) -> Result<(u32, Cycle)> {
            let out = self.soa.rd(0, now, auto_pre, t)?;
            if auto_pre {
                self.bank.pres += 1;
            }
            Ok(out)
        }

        fn wr(&mut self, now: Cycle, auto_pre: bool, t: &TimingParams) -> Result<(u32, Cycle)> {
            let out = self.soa.wr(0, now, auto_pre, t)?;
            if auto_pre {
                self.bank.pres += 1;
            }
            Ok(out)
        }

        fn earliest_act(&self) -> Cycle {
            self.soa.earliest_act(0)
        }
    }

    #[test]
    fn act_then_rd_respects_trcd() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.act(3, Cycle(0), &t).unwrap();
        assert_eq!(b.soa.open_row(0), Some(3));
        // Too early: tRCD = 4.
        assert!(matches!(b.rd(Cycle(3), false, &t), Err(Error::Timing(_))));
        let (row, done) = b.rd(Cycle(4), false, &t).unwrap();
        assert_eq!(row, 3);
        assert_eq!(done, Cycle(4 + t.cl + t.t_bl));
    }

    #[test]
    fn act_while_active_is_protocol_error() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.act(1, Cycle(0), &t).unwrap();
        assert!(matches!(b.act(2, Cycle(100), &t), Err(Error::Protocol(_))));
        assert_eq!(b.earliest_act(), Cycle::MAX);
    }

    #[test]
    fn rd_wr_without_open_row_is_protocol_error() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        assert!(matches!(b.rd(Cycle(0), false, &t), Err(Error::Protocol(_))));
        assert!(matches!(b.wr(Cycle(0), false, &t), Err(Error::Protocol(_))));
    }

    #[test]
    fn pre_respects_tras_and_enables_act_after_trp() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.act(1, Cycle(0), &t).unwrap();
        // tRAS = 10: PRE at 9 illegal.
        assert!(matches!(b.pre(Cycle(9), &t), Err(Error::Timing(_))));
        b.pre(Cycle(10), &t).unwrap();
        // Next ACT: max(pre + tRP, act + tRC) = max(14, 14) = 14.
        assert_eq!(b.earliest_act(), Cycle(14));
        assert!(matches!(b.act(2, Cycle(13), &t), Err(Error::Timing(_))));
        b.act(2, Cycle(14), &t).unwrap();
    }

    #[test]
    fn pre_idle_bank_is_noop() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        assert_eq!(b.soa.earliest_pre(0), Cycle::ZERO);
        b.pre(Cycle(0), &t).unwrap();
        assert_eq!(b.soa.state(0), BankState::Idle);
        assert_eq!(b.bank.pres, 0, "idle PRE should not count as a row close");
    }

    #[test]
    fn read_pushes_out_pre_via_trtp() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.act(1, Cycle(0), &t).unwrap();
        // Read late so now + tRTP exceeds tRAS.
        b.rd(Cycle(9), false, &t).unwrap();
        // ready_pre = max(0+tRAS, 9+tRTP) = max(10, 12) = 12.
        assert!(matches!(b.pre(Cycle(11), &t), Err(Error::Timing(_))));
        b.pre(Cycle(12), &t).unwrap();
    }

    #[test]
    fn write_recovery_delays_pre() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.act(1, Cycle(0), &t).unwrap();
        let (_, data_end) = b.wr(Cycle(4), false, &t).unwrap();
        assert_eq!(data_end, Cycle(4 + t.cwl + t.t_bl));
        let earliest = data_end + t.t_wr;
        assert!(matches!(
            b.pre(Cycle(earliest.raw() - 1), &t),
            Err(Error::Timing(_))
        ));
        b.pre(earliest, &t).unwrap();
    }

    #[test]
    fn auto_precharge_closes_bank() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.act(1, Cycle(0), &t).unwrap();
        b.rd(Cycle(4), true, &t).unwrap();
        assert_eq!(b.soa.state(0), BankState::Idle);
        // Auto-pre time = max(ready_pre) = max(tRAS=10, 4+tRTP=7) = 10;
        // next ACT = max(10 + tRP, 0 + tRC) = 14.
        assert_eq!(b.earliest_act(), Cycle(14));
    }

    #[test]
    fn act_disturbs_neighbors_within_subarray_only() {
        let t = tp(); // MAC 2: flips fast
        let mut b = bank_with(profile(2));
        // Row 15 is the last row of subarray 0 (rows 0..16); its +1 and
        // +2 neighbors (16, 17) are in subarray 1 and must be immune.
        let mut now = Cycle(0);
        let mut victims = std::collections::HashSet::new();
        for _ in 0..20 {
            for d in b.act(15, now, &t).unwrap() {
                victims.insert(d.victim_row);
            }
            now += t.t_ras;
            b.pre(now, &t).unwrap();
            now = b.earliest_act();
        }
        assert!(victims.contains(&13));
        assert!(victims.contains(&14));
        assert!(!victims.contains(&16), "cross-subarray disturbance");
        assert!(!victims.contains(&17), "cross-subarray disturbance");
    }

    #[test]
    fn own_act_refreshes_row() {
        let t = tp();
        let mut b = bank_with(profile(3));
        let mut now = Cycle(0);
        // Hammer row 5; row 6 accumulates pressure. Then activate row 6
        // itself: its pressure must clear.
        for _ in 0..3 {
            b.act(5, now, &t).unwrap();
            now += t.t_ras;
            b.pre(now, &t).unwrap();
            now = b.earliest_act();
        }
        assert!(b.bank.row_state(6).victim.pressure > 0.0);
        b.act(6, now, &t).unwrap();
        assert_eq!(b.bank.row_state(6).victim.pressure, 0.0);
        assert_eq!(b.bank.row_state(6).acts_since_refresh, 1);
    }

    #[test]
    fn refresh_row_clears_counters() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.act(5, Cycle(0), &t).unwrap();
        b.pre(Cycle(10), &t).unwrap();
        assert_eq!(b.bank.row_state(5).acts_since_refresh, 1);
        assert_eq!(b.bank.row_state(5).total_acts, 1);
        b.bank.refresh_row(5, Cycle(20));
        assert_eq!(b.bank.row_state(5).acts_since_refresh, 0);
        assert_eq!(b.bank.row_state(5).total_acts, 1, "lifetime count survives");
        assert_eq!(b.bank.row_state(5).victim.last_refresh, Cycle(20));
    }

    #[test]
    fn neighbors_within_respects_subarray_and_edges() {
        let b = bank_with(profile(1000)).bank;
        assert_eq!(b.neighbors_within(0, 2), vec![1, 2]);
        let n15 = b.neighbors_within(15, 2);
        assert!(n15.contains(&14) && n15.contains(&13));
        assert!(!n15.contains(&16) && !n15.contains(&17));
        let n16 = b.neighbors_within(16, 2);
        assert!(n16.contains(&17) && n16.contains(&18));
        assert!(!n16.contains(&15));
    }

    #[test]
    fn block_until_delays_act() {
        let t = tp();
        let mut b = bank_with(profile(1000));
        b.soa.block_until(0, Cycle(50));
        assert!(matches!(b.act(0, Cycle(49), &t), Err(Error::Timing(_))));
        b.act(0, Cycle(50), &t).unwrap();
    }

    #[test]
    fn sustained_hammer_crosses_mac() {
        let t = tp();
        let mut b = bank_with(profile(10));
        let mut now = Cycle(0);
        let mut opportunities = 0;
        for _ in 0..30 {
            for d in b.act(8, now, &t).unwrap() {
                opportunities += d.opportunities;
            }
            now += t.t_ras;
            b.pre(now, &t).unwrap();
            now = b.earliest_act();
        }
        assert!(
            opportunities > 0,
            "30 ACTs at MAC 10 must create flip opportunities"
        );
    }
}
