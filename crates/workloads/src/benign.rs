//! Benign workload generators.
//!
//! Defenses are only deployable if production traffic doesn't pay for
//! them (the paper's "efficient and practical" bar, §4). These
//! generators model the traffic classes the overhead experiments (F2,
//! E9) sweep:
//!
//! - [`StreamWorkload`] — sequential sweeps (bandwidth-bound, loves
//!   bank-level parallelism: the >18% interleaving benefit \[49\]).
//! - [`RandomWorkload`] — uniform random lines (row-buffer hostile).
//! - [`ZipfianWorkload`] — skewed hot-set access (cloud key-value
//!   flavored); its hot rows stress false-positive-prone defenses.
//! - [`RowConflictWorkload`] — adversarially alternates two rows per
//!   bank (worst case for open-page policies, benign analogue of a
//!   hammer's bank-conflict behaviour).

use crate::ops::{AccessOp, Workload};
use hammertime_common::{CacheLineAddr, DetRng, Error, Result};
use serde::{Deserialize, Serialize};

/// A serializable mid-stream snapshot of a benign workload, so a
/// tenant's stream can leave the process and resume bit-exactly.
///
/// Floating-point parameters travel as IEEE-754 bit patterns and RNG
/// state as raw words, so the restored generator continues the
/// *identical* draw sequence. RNG state is a `Vec` rather than an
/// array purely for codec reasons; [`WorkloadSnapshot::restore`]
/// length-checks it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSnapshot {
    /// A [`StreamWorkload`] mid-sweep.
    Stream {
        /// Lines swept, in order.
        arena: Vec<CacheLineAddr>,
        /// Total operations to issue.
        accesses: u64,
        /// Operations already issued.
        issued: u64,
        /// Store cadence (0 = read-only).
        write_every: u64,
    },
    /// A [`RandomWorkload`] mid-stream.
    Random {
        /// Candidate lines.
        arena: Vec<CacheLineAddr>,
        /// Total operations to issue.
        accesses: u64,
        /// Operations already issued.
        issued: u64,
        /// `write_ratio` as IEEE-754 bits.
        write_ratio_bits: u64,
        /// Raw RNG state words (always 4).
        rng: Vec<u64>,
    },
    /// A [`ZipfianWorkload`] mid-stream.
    Zipfian {
        /// Candidate lines, rank order.
        arena: Vec<CacheLineAddr>,
        /// Precomputed CDF as IEEE-754 bits (the constructor's `theta`
        /// is not retained, so the CDF itself travels).
        cdf_bits: Vec<u64>,
        /// Total operations to issue.
        accesses: u64,
        /// Operations already issued.
        issued: u64,
        /// Raw RNG state words (always 4).
        rng: Vec<u64>,
    },
}

fn rng_state_words(rng: &DetRng) -> Vec<u64> {
    rng.state().to_vec()
}

fn rng_from_words(words: &[u64], what: &str) -> Result<DetRng> {
    let state: [u64; 4] = words.try_into().map_err(|_| {
        Error::Config(format!(
            "{what} snapshot carries {} RNG state words, want 4",
            words.len()
        ))
    })?;
    if state.iter().all(|&w| w == 0) {
        return Err(Error::Config(format!(
            "{what} snapshot carries the all-zero RNG state"
        )));
    }
    Ok(DetRng::from_state(state))
}

impl WorkloadSnapshot {
    /// Rebuilds the boxed workload this snapshot captured, positioned
    /// to continue the identical operation stream.
    ///
    /// Structured `Err` (never a panic) on a malformed snapshot — an
    /// empty arena or a wrong-length/all-zero RNG state, which a
    /// tampered or hand-built snapshot could carry.
    pub fn restore(&self) -> Result<Box<dyn Workload>> {
        match self {
            WorkloadSnapshot::Stream {
                arena,
                accesses,
                issued,
                write_every,
            } => {
                if arena.is_empty() {
                    return Err(Error::Config("stream snapshot has an empty arena".into()));
                }
                Ok(Box::new(StreamWorkload {
                    arena: arena.clone(),
                    accesses: *accesses,
                    issued: *issued,
                    write_every: *write_every,
                }))
            }
            WorkloadSnapshot::Random {
                arena,
                accesses,
                issued,
                write_ratio_bits,
                rng,
            } => {
                if arena.is_empty() {
                    return Err(Error::Config("random snapshot has an empty arena".into()));
                }
                Ok(Box::new(RandomWorkload {
                    arena: arena.clone(),
                    accesses: *accesses,
                    issued: *issued,
                    write_ratio: f64::from_bits(*write_ratio_bits),
                    rng: rng_from_words(rng, "random")?,
                }))
            }
            WorkloadSnapshot::Zipfian {
                arena,
                cdf_bits,
                accesses,
                issued,
                rng,
            } => {
                if arena.is_empty() {
                    return Err(Error::Config("zipfian snapshot has an empty arena".into()));
                }
                if cdf_bits.len() != arena.len() {
                    return Err(Error::Config(format!(
                        "zipfian snapshot CDF length {} does not match arena length {}",
                        cdf_bits.len(),
                        arena.len()
                    )));
                }
                Ok(Box::new(ZipfianWorkload {
                    arena: arena.clone(),
                    cdf: cdf_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                    accesses: *accesses,
                    issued: *issued,
                    rng: rng_from_words(rng, "zipfian")?,
                }))
            }
        }
    }
}

/// Sequential sweep over an arena of lines.
#[derive(Debug, Clone)]
pub struct StreamWorkload {
    arena: Vec<CacheLineAddr>,
    accesses: u64,
    issued: u64,
    write_every: u64,
}

impl StreamWorkload {
    /// Sweeps `arena` in order for `accesses` operations; every
    /// `write_every`-th access is a store (0 = read-only).
    ///
    /// # Panics
    ///
    /// Panics if `arena` is empty.
    pub fn new(arena: Vec<CacheLineAddr>, accesses: u64, write_every: u64) -> StreamWorkload {
        assert!(!arena.is_empty());
        StreamWorkload {
            arena,
            accesses,
            issued: 0,
            write_every,
        }
    }
}

impl Workload for StreamWorkload {
    fn box_clone(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn snapshot(&self) -> Option<WorkloadSnapshot> {
        Some(WorkloadSnapshot::Stream {
            arena: self.arena.clone(),
            accesses: self.accesses,
            issued: self.issued,
            write_every: self.write_every,
        })
    }

    fn name(&self) -> &'static str {
        "stream"
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        if self.issued >= self.accesses {
            return None;
        }
        let line = self.arena[(self.issued % self.arena.len() as u64) as usize];
        let op = if self.write_every > 0 && self.issued % self.write_every == self.write_every - 1 {
            AccessOp::Write(line, (self.issued & 0xFF) as u8)
        } else {
            AccessOp::Read(line)
        };
        self.issued += 1;
        Some(op)
    }
}

/// Uniform random access over an arena.
#[derive(Debug, Clone)]
pub struct RandomWorkload {
    arena: Vec<CacheLineAddr>,
    accesses: u64,
    issued: u64,
    write_ratio: f64,
    rng: DetRng,
}

impl RandomWorkload {
    /// Uniform random reads/writes; `write_ratio` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `arena` is empty.
    pub fn new(
        arena: Vec<CacheLineAddr>,
        accesses: u64,
        write_ratio: f64,
        rng: DetRng,
    ) -> RandomWorkload {
        assert!(!arena.is_empty());
        RandomWorkload {
            arena,
            accesses,
            issued: 0,
            write_ratio,
            rng,
        }
    }
}

impl Workload for RandomWorkload {
    fn box_clone(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn snapshot(&self) -> Option<WorkloadSnapshot> {
        Some(WorkloadSnapshot::Random {
            arena: self.arena.clone(),
            accesses: self.accesses,
            issued: self.issued,
            write_ratio_bits: self.write_ratio.to_bits(),
            rng: rng_state_words(&self.rng),
        })
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        if self.issued >= self.accesses {
            return None;
        }
        self.issued += 1;
        let line = *self.rng.pick(&self.arena);
        Some(if self.rng.chance(self.write_ratio) {
            AccessOp::Write(line, 0xAB)
        } else {
            AccessOp::Read(line)
        })
    }
}

/// Zipf-distributed access over an arena (rank 1 hottest).
#[derive(Debug, Clone)]
pub struct ZipfianWorkload {
    arena: Vec<CacheLineAddr>,
    cdf: Vec<f64>,
    accesses: u64,
    issued: u64,
    rng: DetRng,
}

impl ZipfianWorkload {
    /// Builds a Zipf(`theta`) sampler over `arena` (`theta` ~ 0.99 for
    /// YCSB-like skew).
    ///
    /// # Panics
    ///
    /// Panics if `arena` is empty or `theta < 0`.
    pub fn new(
        arena: Vec<CacheLineAddr>,
        accesses: u64,
        theta: f64,
        rng: DetRng,
    ) -> ZipfianWorkload {
        assert!(!arena.is_empty() && theta >= 0.0);
        let mut weights: Vec<f64> = (1..=arena.len())
            .map(|k| 1.0 / (k as f64).powf(theta))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        ZipfianWorkload {
            arena,
            cdf: weights,
            accesses,
            issued: 0,
            rng,
        }
    }
}

impl Workload for ZipfianWorkload {
    fn box_clone(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn snapshot(&self) -> Option<WorkloadSnapshot> {
        Some(WorkloadSnapshot::Zipfian {
            arena: self.arena.clone(),
            cdf_bits: self.cdf.iter().map(|c| c.to_bits()).collect(),
            accesses: self.accesses,
            issued: self.issued,
            rng: rng_state_words(&self.rng),
        })
    }

    fn name(&self) -> &'static str {
        "zipfian"
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        if self.issued >= self.accesses {
            return None;
        }
        self.issued += 1;
        let u = self.rng.unit();
        let idx = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.arena.len() - 1);
        Some(AccessOp::Read(self.arena[idx]))
    }
}

/// Alternates two conflicting lines (different rows, same bank).
///
/// The experiment layer picks the line pair; alternation plus the
/// per-access flush forces an ACT per access without being an attack —
/// this is the benign worst case for row-buffer locality.
#[derive(Debug, Clone)]
pub struct RowConflictWorkload {
    pair: [CacheLineAddr; 2],
    accesses: u64,
    issued: u64,
    pending_read: Option<CacheLineAddr>,
}

impl RowConflictWorkload {
    /// Alternates `a` and `b` for `accesses` flush+read pairs.
    pub fn new(a: CacheLineAddr, b: CacheLineAddr, accesses: u64) -> RowConflictWorkload {
        RowConflictWorkload {
            pair: [a, b],
            accesses,
            issued: 0,
            pending_read: None,
        }
    }
}

impl Workload for RowConflictWorkload {
    fn box_clone(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        "row-conflict"
    }

    fn next_op(&mut self) -> Option<AccessOp> {
        if let Some(line) = self.pending_read.take() {
            return Some(AccessOp::Read(line));
        }
        if self.issued >= self.accesses {
            return None;
        }
        let line = self.pair[(self.issued % 2) as usize];
        self.issued += 1;
        self.pending_read = Some(line);
        Some(AccessOp::Flush(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(n: u64) -> Vec<CacheLineAddr> {
        (0..n).map(CacheLineAddr).collect()
    }

    fn drain(w: &mut dyn Workload) -> Vec<AccessOp> {
        std::iter::from_fn(|| w.next_op()).collect()
    }

    #[test]
    fn stream_sweeps_in_order_with_writes() {
        let mut w = StreamWorkload::new(arena(4), 8, 4);
        let ops = drain(&mut w);
        assert_eq!(ops.len(), 8);
        assert_eq!(ops[0], AccessOp::Read(CacheLineAddr(0)));
        assert_eq!(ops[1], AccessOp::Read(CacheLineAddr(1)));
        assert!(matches!(ops[3], AccessOp::Write(_, _)));
        assert!(matches!(ops[7], AccessOp::Write(_, _)));
        assert_eq!(ops[4], AccessOp::Read(CacheLineAddr(0)), "wraps around");
    }

    #[test]
    fn random_respects_write_ratio_and_arena() {
        let a = arena(16);
        let mut w = RandomWorkload::new(a.clone(), 2000, 0.25, DetRng::new(1));
        let ops = drain(&mut w);
        assert_eq!(ops.len(), 2000);
        let writes = ops
            .iter()
            .filter(|o| matches!(o, AccessOp::Write(_, _)))
            .count();
        assert!((350..650).contains(&writes), "write ratio off: {writes}");
        assert!(ops.iter().all(|o| a.contains(&o.line())));
    }

    #[test]
    fn zipfian_is_skewed_toward_rank_one() {
        let a = arena(64);
        let mut w = ZipfianWorkload::new(a, 10_000, 0.99, DetRng::new(2));
        let mut counts = std::collections::HashMap::new();
        for op in drain(&mut w) {
            *counts.entry(op.line()).or_insert(0u64) += 1;
        }
        let hottest = counts[&CacheLineAddr(0)];
        let coldest = counts.get(&CacheLineAddr(63)).copied().unwrap_or(0);
        assert!(
            hottest > coldest * 5,
            "zipf skew missing: hot={hottest} cold={coldest}"
        );
    }

    #[test]
    fn zipfian_theta_zero_is_uniform_ish() {
        let a = arena(4);
        let mut w = ZipfianWorkload::new(a, 8_000, 0.0, DetRng::new(3));
        let mut counts = std::collections::HashMap::new();
        for op in drain(&mut w) {
            *counts.entry(op.line()).or_insert(0u64) += 1;
        }
        for (_, c) in counts {
            assert!(
                (1_600..2_400).contains(&c),
                "uniform expectation violated: {c}"
            );
        }
    }

    /// Runs `w` for `k` ops, snapshots, and asserts the restored copy
    /// and the original produce identical remaining streams.
    fn assert_snapshot_fidelity(mut w: Box<dyn Workload>, k: usize) {
        for _ in 0..k {
            w.next_op().expect("workload ended before snapshot point");
        }
        let snap = w.snapshot().expect("benign workload must snapshot");
        // Round-trip through the JSON encoding.
        let wire = serde_json::to_string(&snap).unwrap();
        let back: WorkloadSnapshot = serde_json::from_str(&wire).unwrap();
        assert_eq!(snap, back);
        let mut restored = back.restore().unwrap();
        assert_eq!(restored.name(), w.name());
        loop {
            let a = w.next_op();
            let b = restored.next_op();
            assert_eq!(a, b, "streams diverged after restore");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshots_resume_streams_bit_exactly() {
        let a = arena(16);
        assert_snapshot_fidelity(Box::new(StreamWorkload::new(a.clone(), 200, 3)), 37);
        assert_snapshot_fidelity(
            Box::new(RandomWorkload::new(a.clone(), 200, 0.31, DetRng::new(5))),
            37,
        );
        assert_snapshot_fidelity(
            Box::new(ZipfianWorkload::new(a, 200, 0.99, DetRng::new(6))),
            37,
        );
    }

    #[test]
    fn snapshot_at_zero_ops_matches_fresh_workload() {
        assert_snapshot_fidelity(Box::new(StreamWorkload::new(arena(4), 20, 0)), 0);
    }

    #[test]
    fn malformed_snapshots_are_structured_errors() {
        let empty_arena = WorkloadSnapshot::Stream {
            arena: vec![],
            accesses: 10,
            issued: 0,
            write_every: 0,
        };
        assert!(empty_arena.restore().is_err());

        let bad_rng = WorkloadSnapshot::Random {
            arena: arena(4),
            accesses: 10,
            issued: 0,
            write_ratio_bits: 0.5f64.to_bits(),
            rng: vec![1, 2, 3],
        };
        assert!(bad_rng.restore().is_err());

        let zero_rng = WorkloadSnapshot::Random {
            arena: arena(4),
            accesses: 10,
            issued: 0,
            write_ratio_bits: 0.5f64.to_bits(),
            rng: vec![0, 0, 0, 0],
        };
        assert!(zero_rng.restore().is_err());

        let bad_cdf = WorkloadSnapshot::Zipfian {
            arena: arena(4),
            cdf_bits: vec![0; 3],
            accesses: 10,
            issued: 0,
            rng: vec![1, 2, 3, 4],
        };
        assert!(bad_cdf.restore().is_err());
    }

    #[test]
    fn row_conflict_alternates_with_flushes() {
        let (a, b) = (CacheLineAddr(1), CacheLineAddr(2));
        let mut w = RowConflictWorkload::new(a, b, 4);
        let ops = drain(&mut w);
        assert_eq!(
            ops,
            vec![
                AccessOp::Flush(a),
                AccessOp::Read(a),
                AccessOp::Flush(b),
                AccessOp::Read(b),
                AccessOp::Flush(a),
                AccessOp::Read(a),
                AccessOp::Flush(b),
                AccessOp::Read(b),
            ]
        );
    }
}
