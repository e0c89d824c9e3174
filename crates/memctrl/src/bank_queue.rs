//! Per-bank request index for the fast scheduler.
//!
//! The scheduler prices a bank against one timing snapshot. Within one
//! command class (CAS to the open row, PRE, ACT) a demand request's
//! candidate is `(max(class floor, arrival, throttle), priority, seq)`,
//! so the oldest request that reaches the class floor beats every
//! younger one in its class. [`BankQueue`] keeps a bank's demand
//! requests in the two orders that let the scheduler walk each class
//! oldest first and stop early:
//!
//! - age (`seq`) order, for the PRE and ACT classes;
//! - `(row, op, seq)` order, in which the reads and the writes to the
//!   open row are each one contiguous, oldest-first run.
//!
//! Maintenance requests (refresh instruction, REF_NEIGHBORS) need a
//! command that depends on their phase. They sit in a short side list
//! that is priced in full.

use std::collections::VecDeque;

/// What a queued request asks of its bank. The derived order puts
/// reads before writes to the same row in the row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

impl Entry {
    fn row_key(&self) -> (u32, Op, u64) {
        (self.row, self.op, self.seq)
    }
}

/// One bank's queued requests, indexed by age and by row.
#[derive(Debug, Clone, Default)]
pub(crate) struct BankQueue {
    /// Demand requests, oldest first. A deque because FR-FCFS mostly
    /// completes old requests, so removals cluster at the front.
    by_age: VecDeque<Entry>,
    /// The same demand requests, sorted by `(row, op, seq)`.
    by_row: Vec<Entry>,
    /// Maintenance requests, in no particular order.
    maintenance: Vec<Entry>,
}

// The controller calls these on every submit, completion and bank
// repricing. `#[inline]` lets them inline across codegen units; without
// it the call overhead showed on the shallow queues most machines run
// (perfbench `fleet_1k`).
impl BankQueue {
    /// Adds a newly submitted request. Submissions carry increasing
    /// `seq`, so appending keeps the age order.
    #[inline]
    pub fn insert(&mut self, e: Entry) {
        if e.op == Op::Maintenance {
            self.maintenance.push(e);
            return;
        }
        debug_assert!(self.by_age.back().is_none_or(|last| last.seq < e.seq));
        self.by_age.push_back(e);
        let pos = self.by_row.partition_point(|x| x.row_key() < e.row_key());
        self.by_row.insert(pos, e);
    }

    /// Removes the request `e` names (by `seq`, `row` and `op`).
    #[inline]
    pub fn remove(&mut self, e: Entry) {
        if e.op == Op::Maintenance {
            let pos = self.maintenance_pos(e.seq);
            self.maintenance.swap_remove(pos);
        } else {
            let (age, row) = self.demand_pos(e);
            self.by_age.remove(age);
            self.by_row.remove(row);
        }
    }

    /// Points the request `e` names at queue position `index`, after
    /// the controller's `swap_remove` moved it there.
    #[inline]
    pub fn reindex(&mut self, e: Entry, index: usize) {
        if e.op == Op::Maintenance {
            let pos = self.maintenance_pos(e.seq);
            self.maintenance[pos].index = index;
        } else {
            let (age, row) = self.demand_pos(e);
            self.by_age[age].index = index;
            self.by_row[row].index = index;
        }
    }

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

    /// Demand requests of kind `op` to `row`, oldest first.
    #[inline]
    pub fn to_row(&self, row: u32, op: Op) -> impl Iterator<Item = &Entry> {
        let start = self.by_row.partition_point(|x| (x.row, x.op) < (row, op));
        self.by_row[start..]
            .iter()
            .take_while(move |x| (x.row, x.op) == (row, op))
    }

    fn maintenance_pos(&self, seq: u64) -> usize {
        self.maintenance
            .iter()
            .position(|x| x.seq == seq)
            .expect("queued maintenance request tracked in its bank index")
    }

    #[inline]
    fn demand_pos(&self, e: Entry) -> (usize, usize) {
        // FR-FCFS completes a bank's oldest request most of the time.
        let age = if self.by_age.front().is_some_and(|x| x.seq == e.seq) {
            0
        } else {
            self.by_age
                .binary_search_by_key(&e.seq, |x| x.seq)
                .expect("queued request tracked in its bank's age order")
        };
        let row = self
            .by_row
            .binary_search_by_key(&e.row_key(), Entry::row_key)
            .expect("queued request tracked in its bank's row order");
        (age, row)
    }
}
