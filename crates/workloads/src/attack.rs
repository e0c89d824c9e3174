//! Rowhammer attack pattern generators.
//!
//! An attack is a repeated flush+access loop over a set of aggressor
//! lines: the flush guarantees the access misses the cache, and
//! alternating aggressors within one bank guarantees row-buffer
//! conflicts, so every access becomes an ACT (paper §2.1). The
//! aggressor line sets themselves are chosen by the experiment layer
//! (which knows the address map); the generators here only encode the
//! *temporal pattern*:
//!
//! - [`HammerPattern::single_sided`] — one aggressor (classic).
//! - [`HammerPattern::double_sided`] — two aggressors sandwiching a
//!   victim (the strongest classic pattern).
//! - [`HammerPattern::many_sided`] — N aggressors round-robin, the
//!   TRRespass pattern that defeats small in-DRAM trackers (§3).
//! - [`HammerPattern::paced`] — inserts idle gaps to dodge
//!   deterministic ACT-counter sampling (the evasion the paper's
//!   randomized counter resets defeat, §4.2).
//!
//! [`DmaHammer`] wraps any pattern with a DMA source so it bypasses
//! the cache hierarchy and PMU sampling entirely (§1).

use crate::ops::{AccessOp, Workload};
use hammertime_common::{CacheLineAddr, RequestSource};
use serde::{Deserialize, Serialize};

/// A flush+read hammer over a set of aggressor lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HammerPattern {
    name: &'static str,
    aggressors: Vec<CacheLineAddr>,
    /// Aggressor accesses (each is one flush + one read) to perform.
    /// Decoy accesses inserted by pacing are *extra*: they never
    /// consume this budget, so a paced pattern delivers the same
    /// aggressor ACT pressure as an unpaced one.
    accesses: u64,
    /// Idle `None`-free pacing: after every `burst` aggressor accesses
    /// the pattern would pause; encoded by interleaving reads of a
    /// decoy line (0 = no pacing).
    pace_burst: u64,
    decoy: Option<CacheLineAddr>,
    /// Aggressor accesses issued so far (decoys excluded).
    issued: u64,
    /// Decoy accesses issued so far.
    decoys_issued: u64,
    /// Aggressor accesses since the last decoy insertion.
    since_decoy: u64,
    pending_read: Option<CacheLineAddr>,
}

impl HammerPattern {
    /// A custom aggressor set hammered round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `aggressors` is empty.
    pub fn new(name: &'static str, aggressors: Vec<CacheLineAddr>, accesses: u64) -> HammerPattern {
        assert!(
            !aggressors.is_empty(),
            "attack needs at least one aggressor"
        );
        HammerPattern {
            name,
            aggressors,
            accesses,
            pace_burst: 0,
            decoy: None,
            issued: 0,
            decoys_issued: 0,
            since_decoy: 0,
            pending_read: None,
        }
    }

    /// Classic single-sided hammer.
    pub fn single_sided(aggressor: CacheLineAddr, accesses: u64) -> HammerPattern {
        HammerPattern::new("single-sided", vec![aggressor], accesses)
    }

    /// Double-sided hammer around a victim.
    pub fn double_sided(
        above: CacheLineAddr,
        below: CacheLineAddr,
        accesses: u64,
    ) -> HammerPattern {
        HammerPattern::new("double-sided", vec![above, below], accesses)
    }

    /// TRRespass-style many-sided hammer.
    pub fn many_sided(aggressors: Vec<CacheLineAddr>, accesses: u64) -> HammerPattern {
        HammerPattern::new("many-sided", aggressors, accesses)
    }

    /// Adds deterministic pacing: after every `burst` aggressor
    /// accesses, one *extra* access goes to `decoy` — an attacker
    /// trying to keep each aggressor just under a predictable counter
    /// threshold. Decoy accesses are pure overhead for the attacker;
    /// they do not consume the aggressor access budget, so
    /// [`HammerPattern::remaining`] always reports aggressor ACT
    /// pressure still to come, never pending decoys.
    pub fn paced(mut self, burst: u64, decoy: CacheLineAddr) -> HammerPattern {
        self.name = "paced";
        self.pace_burst = burst;
        self.decoy = Some(decoy);
        self
    }

    /// The aggressor set.
    pub fn aggressors(&self) -> &[CacheLineAddr] {
        &self.aggressors
    }

    /// Aggressor accesses remaining (decoys excluded: the budget is
    /// aggressor ACT pressure, and decoys ride along for free).
    pub fn remaining(&self) -> u64 {
        self.accesses.saturating_sub(self.issued)
    }

    /// Decoy accesses issued so far by a paced pattern.
    pub fn decoys_issued(&self) -> u64 {
        self.decoys_issued
    }
}

impl Workload for HammerPattern {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        // Each access is a Flush followed by a Read of the same line.
        if let Some(line) = self.pending_read.take() {
            return Some(AccessOp::Read(line));
        }
        // A decoy is due after every `pace_burst` aggressor accesses —
        // and only while aggressor budget remains, so the stream never
        // ends on a useless decoy.
        if self.pace_burst > 0 && self.since_decoy >= self.pace_burst && self.issued < self.accesses
        {
            let decoy = self.decoy.expect("paced() sets a decoy");
            self.since_decoy = 0;
            self.decoys_issued += 1;
            self.pending_read = Some(decoy);
            return Some(AccessOp::Flush(decoy));
        }
        if self.issued >= self.accesses {
            return None;
        }
        let line = self.aggressors[(self.issued % self.aggressors.len() as u64) as usize];
        self.issued += 1;
        self.since_decoy += 1;
        self.pending_read = Some(line);
        Some(AccessOp::Flush(line))
    }
}

/// A Blacksmith-style fuzzed hammer: non-uniform per-aggressor
/// intensities and a shuffled schedule.
///
/// Uniform round-robin patterns are what samplers are tuned for;
/// Blacksmith (Jattke et al.) showed that *frequency-fuzzed* patterns
/// slip past mitigations that survive uniform many-sided hammers. The
/// generator assigns each aggressor a random intensity (1–4 slots per
/// period) and shuffles the period, so trackers see a ragged,
/// phase-shifted access distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzedHammer {
    schedule: Vec<CacheLineAddr>,
    accesses: u64,
    issued: u64,
    pending_read: Option<CacheLineAddr>,
}

impl FuzzedHammer {
    /// Generates a fuzzed pattern over `aggressors` from a dedicated
    /// [`DetRng`](hammertime_common::DetRng) fork, taken by value: the
    /// caller hands over a stream derived *only* from configuration
    /// (seed, salt, pattern parameters), never from ambient machine
    /// state, so the same seed produces the same schedule no matter
    /// how many machines were built before this one or on which
    /// worker thread the cell runs.
    ///
    /// # Panics
    ///
    /// Panics if `aggressors` is empty.
    pub fn generate(
        mut rng: hammertime_common::DetRng,
        aggressors: &[CacheLineAddr],
        accesses: u64,
    ) -> FuzzedHammer {
        assert!(
            !aggressors.is_empty(),
            "attack needs at least one aggressor"
        );
        let mut schedule = Vec::new();
        for &a in aggressors {
            let intensity = 1 + rng.below(4);
            for _ in 0..intensity {
                schedule.push(a);
            }
        }
        rng.shuffle(&mut schedule);
        FuzzedHammer {
            schedule,
            accesses,
            issued: 0,
            pending_read: None,
        }
    }

    /// The (shuffled, weighted) per-period schedule.
    pub fn schedule(&self) -> &[CacheLineAddr] {
        &self.schedule
    }
}

impl Workload for FuzzedHammer {
    fn name(&self) -> &'static str {
        "fuzzed"
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        if let Some(line) = self.pending_read.take() {
            return Some(AccessOp::Read(line));
        }
        if self.issued >= self.accesses {
            return None;
        }
        let line = self.schedule[(self.issued % self.schedule.len() as u64) as usize];
        self.issued += 1;
        self.pending_read = Some(line);
        Some(AccessOp::Flush(line))
    }
}

/// A hammer issued by a DMA-capable device: same temporal pattern, but
/// the machine routes it around the cache and the PMU (no flushes
/// needed — DMA always reaches DRAM).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmaHammer {
    aggressors: Vec<CacheLineAddr>,
    accesses: u64,
    issued: u64,
    device: u32,
}

impl DmaHammer {
    /// A DMA hammer from device `device` over `aggressors`.
    ///
    /// # Panics
    ///
    /// Panics if `aggressors` is empty.
    pub fn new(device: u32, aggressors: Vec<CacheLineAddr>, accesses: u64) -> DmaHammer {
        assert!(
            !aggressors.is_empty(),
            "attack needs at least one aggressor"
        );
        DmaHammer {
            aggressors,
            accesses,
            issued: 0,
            device,
        }
    }
}

impl Workload for DmaHammer {
    fn name(&self) -> &'static str {
        "dma-hammer"
    }

    fn source(&self) -> RequestSource {
        RequestSource::Dma(self.device)
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        if self.issued >= self.accesses {
            return None;
        }
        let line = self.aggressors[(self.issued % self.aggressors.len() as u64) as usize];
        self.issued += 1;
        Some(AccessOp::Read(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut dyn Workload) -> Vec<AccessOp> {
        std::iter::from_fn(|| w.next_op()).collect()
    }

    #[test]
    fn single_sided_alternates_flush_read() {
        let a = CacheLineAddr(10);
        let mut w = HammerPattern::single_sided(a, 3);
        let ops = drain(&mut w);
        assert_eq!(
            ops,
            vec![
                AccessOp::Flush(a),
                AccessOp::Read(a),
                AccessOp::Flush(a),
                AccessOp::Read(a),
                AccessOp::Flush(a),
                AccessOp::Read(a),
            ]
        );
        assert_eq!(w.remaining(), 0);
    }

    #[test]
    fn double_sided_round_robins_both_aggressors() {
        let (a, b) = (CacheLineAddr(1), CacheLineAddr(2));
        let mut w = HammerPattern::double_sided(a, b, 4);
        let reads: Vec<_> = drain(&mut w)
            .into_iter()
            .filter(|o| matches!(o, AccessOp::Read(_)))
            .map(|o| o.line())
            .collect();
        assert_eq!(reads, vec![a, b, a, b]);
    }

    #[test]
    fn many_sided_covers_all_aggressors() {
        let aggs: Vec<CacheLineAddr> = (0..8).map(CacheLineAddr).collect();
        let mut w = HammerPattern::many_sided(aggs.clone(), 16);
        let reads: std::collections::HashSet<_> = drain(&mut w)
            .into_iter()
            .filter(|o| matches!(o, AccessOp::Read(_)))
            .map(|o| o.line())
            .collect();
        assert_eq!(reads.len(), 8);
        assert_eq!(w.name(), "many-sided");
    }

    #[test]
    fn paced_pattern_inserts_decoys() {
        let a = CacheLineAddr(1);
        let decoy = CacheLineAddr(99);
        let mut w = HammerPattern::single_sided(a, 9).paced(2, decoy);
        let reads: Vec<_> = drain(&mut w)
            .into_iter()
            .filter(|o| matches!(o, AccessOp::Read(_)))
            .map(|o| o.line())
            .collect();
        // A decoy follows every second aggressor access; the 9
        // aggressor accesses are all delivered on top.
        assert_eq!(reads.iter().filter(|&&l| l == decoy).count(), 4);
        assert_eq!(reads.iter().filter(|&&l| l == a).count(), 9);
        assert_eq!(w.name(), "paced");
    }

    #[test]
    fn paced_decoys_excluded_from_aggressor_budget() {
        // Regression: decoys used to consume the access budget, so a
        // paced pattern delivered fewer aggressor ACTs than an unpaced
        // one and remaining() conflated pending decoys with pending
        // aggressor pressure.
        let (a, b) = (CacheLineAddr(1), CacheLineAddr(3));
        let decoy = CacheLineAddr(77);
        let accesses = 30;
        let mut paced = HammerPattern::double_sided(a, b, accesses).paced(4, decoy);
        let mut plain = HammerPattern::double_sided(a, b, accesses);
        let aggr_reads = |ops: Vec<AccessOp>| -> Vec<CacheLineAddr> {
            ops.into_iter()
                .filter(|o| matches!(o, AccessOp::Read(_)))
                .map(|o| o.line())
                .filter(|&l| l != decoy)
                .collect()
        };
        assert_eq!(paced.remaining(), accesses);
        let paced_aggr = aggr_reads(drain(&mut paced));
        let plain_aggr = aggr_reads(drain(&mut plain));
        // Same aggressor ACT pressure, in the same order.
        assert_eq!(paced_aggr, plain_aggr);
        assert_eq!(paced_aggr.len() as u64, accesses);
        assert_eq!(paced.remaining(), 0);
        // Decoys were issued, as extras: one per full burst of 4.
        assert_eq!(paced.decoys_issued(), (accesses - 1) / 4);
    }

    #[test]
    fn fuzzed_hammer_is_nonuniform_but_reproducible() {
        use hammertime_common::DetRng;
        let aggressors: Vec<CacheLineAddr> = (0..6).map(|i| CacheLineAddr(i * 10)).collect();
        let w1 = FuzzedHammer::generate(DetRng::new(5), &aggressors, 100);
        let w2 = FuzzedHammer::generate(DetRng::new(5), &aggressors, 100);
        assert_eq!(w1.schedule(), w2.schedule(), "same seed, same pattern");
        // The schedule covers every aggressor with weighted repeats.
        let mut counts = std::collections::HashMap::new();
        for a in w1.schedule() {
            *counts.entry(*a).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 6);
        for c in counts.values() {
            assert!((1..=4).contains(c));
        }
        // Flush+read structure like other hammers.
        let mut w = w1.clone();
        let ops: Vec<_> = std::iter::from_fn(|| w.next_op()).collect();
        assert_eq!(ops.len(), 200);
        assert!(matches!(ops[0], AccessOp::Flush(_)));
        assert!(matches!(ops[1], AccessOp::Read(_)));
    }

    #[test]
    fn dma_hammer_reads_without_flushes() {
        let aggs = vec![CacheLineAddr(1), CacheLineAddr(2)];
        let mut w = DmaHammer::new(3, aggs, 4);
        assert_eq!(w.source(), RequestSource::Dma(3));
        let ops = drain(&mut w);
        assert_eq!(ops.len(), 4);
        assert!(ops.iter().all(|o| matches!(o, AccessOp::Read(_))));
    }

    #[test]
    #[should_panic(expected = "at least one aggressor")]
    fn empty_aggressor_set_rejected() {
        let _ = HammerPattern::new("x", vec![], 10);
    }
}
