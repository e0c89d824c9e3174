//! Deterministic randomness.
//!
//! Every stochastic choice in the simulator — disturbance bit
//! sampling, PARA coin flips, randomized ACT-counter resets, workload
//! address streams — draws from a [`DetRng`] seeded from the experiment
//! configuration. The same seed therefore yields an identical
//! simulation, which the `determinism` integration test asserts.
//!
//! [`DetRng`] wraps `rand`'s small fast PRNG behind a minimal interface
//! so the dependency surface stays contained, and offers [`DetRng::fork`]
//! for handing independent streams to subcomponents without coupling
//! their draw orders.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seedable random number generator.
///
/// # Examples
///
/// ```
/// use hammertime_common::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> DetRng {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent generator for a subcomponent.
    ///
    /// The fork is keyed by `salt` so sibling components get unrelated
    /// streams even when forked in sequence.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let seed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(seed)
    }

    /// Returns the next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        self.inner.gen_range(0..bound)
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.inner.gen_range(lo..hi)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.gen_bool(p)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        // Walk down from the end, swapping each element with a uniform
        // earlier position — the classic unbiased shuffle.
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniform element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "pick from empty slice");
        &slice[self.below(slice.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should differ");
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let mut root1 = DetRng::new(9);
        let mut root2 = DetRng::new(9);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut g1 = root1.fork(2);
        // A different salt on the same parent state gives a different stream.
        let mut g2 = root2.fork(3);
        assert_ne!(g1.next_u64(), g2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
        for _ in 0..100 {
            let v = rng.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = DetRng::new(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = DetRng::new(8);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items)));
        }
    }
}
