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

use crate::ops::{AccessOp, Workload};
use hammertime_common::{CacheLineAddr, DetRng};

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
}
