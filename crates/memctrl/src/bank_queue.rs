//! Per-bank request index for the fast scheduler.
//!
//! The scheduler prices a bank against one timing snapshot. Within one
//! command class (CAS to the open row, PRE, ACT) a demand request's
//! candidate is `(max(class floor, arrival, throttle), priority, seq)`,
//! so the oldest request that reaches the class floor beats every
//! younger one in its class. [`BankIndex`] keeps each bank's demand
//! requests in the two shapes that let the scheduler walk each class
//! oldest first and stop early:
//!
//! - age (`seq`) order, for the PRE and ACT classes;
//! - per row, the reads and the writes to it as two oldest-first runs,
//!   found with one keyed lookup of the open row. A row leaves its
//!   bank's map once both runs are empty.
//!
//! The runs live in one pool shared by every bank. An emptied pool
//! slot keeps its buffers for the next new row, so that the usual
//! request, one of a few in flight and each to its own row, does not
//! allocate, and the pool holds only as many rows as were ever live at
//! once.
//!
//! Maintenance requests (refresh instruction, REF_NEIGHBORS) need a
//! command that depends on their phase. They sit in a short side list
//! that is priced in full.

use std::collections::hash_map::{self, HashMap};
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

/// What a queued request asks of its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Read,
    Write,
    Maintenance,
}

/// One queued request as the index sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Submission order: unique, and FR-FCFS's age tie-break.
    pub seq: u64,
    /// Position in the controller's request queue.
    pub index: usize,
    /// Target row within the bank.
    pub row: u32,
    /// Read, write or maintenance.
    pub op: Op,
}

/// The demand requests to one row: reads and writes, each oldest
/// first. At least one of the two is non-empty while a bank's map
/// points at them.
#[derive(Debug, Default)]
pub(crate) struct RowRuns {
    pub reads: VecDeque<Entry>,
    pub writes: VecDeque<Entry>,
}

impl RowRuns {
    #[inline]
    fn run_mut(&mut self, op: Op) -> &mut VecDeque<Entry> {
        match op {
            Op::Read => &mut self.reads,
            Op::Write => &mut self.writes,
            Op::Maintenance => unreachable!("maintenance requests have no row run"),
        }
    }
}

/// Hashes a row number with one multiply (Fibonacci hashing). Rows
/// are in-bank row numbers the controller computed, not outside
/// input, and the map is only ever probed by key, never iterated, so
/// neither collision resistance nor a stable order is needed. SipHash,
/// the std default, made the scheduler measurably slower.
#[derive(Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One bank's queued requests, indexed by age and by row.
#[derive(Debug, Clone, Default)]
pub(crate) struct BankQueue {
    /// Demand requests, oldest first. A deque because FR-FCFS mostly
    /// completes old requests, so removals cluster at the front.
    by_age: VecDeque<Entry>,
    /// Row → its slot in [`BankIndex`]'s run pool, for every row with
    /// a queued demand request. Never iterated: its order would leak
    /// into scheduling.
    by_row: HashMap<u32, u32, BuildHasherDefault<RowHasher>>,
    /// Maintenance requests, in no particular order.
    maintenance: Vec<Entry>,
}

impl BankQueue {
    /// Any queued request, or `None` when the bank has none.
    #[inline]
    pub fn first(&self) -> Option<&Entry> {
        self.by_age.front().or(self.maintenance.first())
    }

    /// Maintenance requests.
    #[inline]
    pub fn maintenance(&self) -> &[Entry] {
        &self.maintenance
    }

    /// Demand requests, oldest first.
    #[inline]
    pub fn oldest_first(&self) -> impl Iterator<Item = &Entry> {
        self.by_age.iter()
    }

    fn maintenance_pos(&self, seq: u64) -> usize {
        self.maintenance
            .iter()
            .position(|x| x.seq == seq)
            .expect("queued maintenance request tracked in its bank index")
    }
}

/// Every bank's [`BankQueue`], keyed by flat bank, and the pool of
/// per-row runs they point into.
#[derive(Debug)]
pub(crate) struct BankIndex {
    banks: Vec<BankQueue>,
    /// Per-row runs, addressed by the banks' row maps.
    runs: Vec<RowRuns>,
    /// Slots of `runs` no row points at; their runs are empty.
    free: Vec<u32>,
}

// The controller calls these on every submit, completion and bank
// repricing. `#[inline]` lets them inline across codegen units; without
// it the call overhead showed on the shallow queues most machines run
// (perfbench `fleet_1k`).
impl BankIndex {
    /// An empty index over `banks` banks.
    pub fn new(banks: usize) -> BankIndex {
        BankIndex {
            banks: vec![BankQueue::default(); banks],
            runs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of banks.
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Bank `b`'s queue.
    #[inline]
    pub fn bank(&self, b: usize) -> &BankQueue {
        &self.banks[b]
    }

    /// The reads and the writes to `row` of bank `b`, or `None` when
    /// the row has no queued demand request.
    #[inline]
    pub fn row_runs(&self, b: usize, row: u32) -> Option<&RowRuns> {
        let slot = *self.banks[b].by_row.get(&row)?;
        Some(&self.runs[slot as usize])
    }

    /// Adds a newly submitted request to bank `b`. Submissions carry
    /// increasing `seq`, so appending keeps every order.
    #[inline]
    pub fn insert(&mut self, b: usize, e: Entry) {
        let q = &mut self.banks[b];
        if e.op == Op::Maintenance {
            q.maintenance.push(e);
            return;
        }
        debug_assert!(q.by_age.back().is_none_or(|last| last.seq < e.seq));
        q.by_age.push_back(e);
        let slot = *q.by_row.entry(e.row).or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| {
                self.runs.push(RowRuns::default());
                u32::try_from(self.runs.len() - 1).expect("fewer than 2^32 live rows")
            })
        });
        self.runs[slot as usize].run_mut(e.op).push_back(e);
    }

    /// Removes the request `e` names (by `seq`, `row` and `op`) from
    /// bank `b`.
    #[inline]
    pub fn remove(&mut self, b: usize, e: Entry) {
        let q = &mut self.banks[b];
        if e.op == Op::Maintenance {
            let pos = q.maintenance_pos(e.seq);
            q.maintenance.swap_remove(pos);
            return;
        }
        let age = seq_pos(&q.by_age, e.seq);
        q.by_age.remove(age);
        let hash_map::Entry::Occupied(row) = q.by_row.entry(e.row) else {
            unreachable!("queued request tracked in its bank's row map");
        };
        let slot = *row.get();
        let runs = &mut self.runs[slot as usize];
        let run = runs.run_mut(e.op);
        run.remove(seq_pos(run, e.seq));
        if runs.reads.is_empty() && runs.writes.is_empty() {
            row.remove();
            self.free.push(slot);
        }
    }

    /// Points the request `e` names in bank `b` at queue position
    /// `index`, after the controller's `swap_remove` moved it there.
    #[inline]
    pub fn reindex(&mut self, b: usize, e: Entry, index: usize) {
        let q = &mut self.banks[b];
        if e.op == Op::Maintenance {
            let pos = q.maintenance_pos(e.seq);
            q.maintenance[pos].index = index;
            return;
        }
        let age = seq_pos(&q.by_age, e.seq);
        q.by_age[age].index = index;
        let slot = q.by_row[&e.row];
        let run = self.runs[slot as usize].run_mut(e.op);
        let pos = seq_pos(run, e.seq);
        run[pos].index = index;
    }
}

/// Position of the request `seq` in `run`, an oldest-first run.
#[inline]
fn seq_pos(run: &VecDeque<Entry>, seq: u64) -> usize {
    // FR-FCFS completes a run's oldest request most of the time.
    if run.front().is_some_and(|x| x.seq == seq) {
        0
    } else {
        run.binary_search_by_key(&seq, |x| x.seq)
            .expect("queued request tracked in its bank index")
    }
}
