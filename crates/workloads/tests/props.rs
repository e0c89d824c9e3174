//! Property tests for the workload generators.

use hammertime_common::{CacheLineAddr, DetRng};
use hammertime_workloads::{
    AccessOp, DmaHammer, HammerPattern, RandomWorkload, StreamWorkload, Workload, ZipfianWorkload,
};
use proptest::prelude::*;

fn drain(w: &mut dyn Workload) -> Vec<AccessOp> {
    std::iter::from_fn(|| w.next_op()).collect()
}

proptest! {
    /// A hammer of N accesses emits exactly N flush+read pairs, reads
    /// only aggressor lines, and round-robins them fairly.
    #[test]
    fn hammer_structure(n_aggr in 1usize..8, accesses in 1u64..500) {
        let aggressors: Vec<CacheLineAddr> =
            (0..n_aggr as u64).map(|i| CacheLineAddr(i * 100)).collect();
        let mut w = HammerPattern::many_sided(aggressors.clone(), accesses);
        let ops = drain(&mut w);
        prop_assert_eq!(ops.len() as u64, accesses * 2);
        let mut counts = std::collections::HashMap::new();
        for pair in ops.chunks(2) {
            prop_assert!(matches!(pair[0], AccessOp::Flush(_)));
            prop_assert!(matches!(pair[1], AccessOp::Read(_)));
            prop_assert_eq!(pair[0].line(), pair[1].line());
            prop_assert!(aggressors.contains(&pair[1].line()));
            *counts.entry(pair[1].line()).or_insert(0u64) += 1;
        }
        // Round-robin fairness: per-aggressor counts differ by <= 1.
        let max = counts.values().max().copied().unwrap_or(0);
        let min = counts.values().min().copied().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }

    /// DMA hammers emit exactly N reads, no flushes.
    #[test]
    fn dma_hammer_structure(accesses in 1u64..500) {
        let mut w = DmaHammer::new(0, vec![CacheLineAddr(1), CacheLineAddr(2)], accesses);
        let ops = drain(&mut w);
        prop_assert_eq!(ops.len() as u64, accesses);
        prop_assert!(ops.iter().all(|o| matches!(o, AccessOp::Read(_))));
    }

    /// Benign generators emit exactly the requested number of accesses
    /// and stay inside their arena.
    #[test]
    fn benign_generators_bounded(arena_size in 1u64..64, accesses in 0u64..400, seed in any::<u64>()) {
        let arena: Vec<CacheLineAddr> = (0..arena_size).map(CacheLineAddr).collect();
        let mut generators: Vec<Box<dyn Workload>> = vec![
            Box::new(StreamWorkload::new(arena.clone(), accesses, 5)),
            Box::new(RandomWorkload::new(arena.clone(), accesses, 0.3, DetRng::new(seed))),
            Box::new(ZipfianWorkload::new(arena.clone(), accesses, 0.9, DetRng::new(seed))),
        ];
        for w in &mut generators {
            let ops = drain(w.as_mut());
            prop_assert_eq!(ops.len() as u64, accesses);
            prop_assert!(ops.iter().all(|o| arena.contains(&o.line())));
        }
    }

    /// Zipfian skew is monotone: lower-ranked arena entries are
    /// accessed at least as often as higher-ranked ones (within noise)
    /// for a strongly skewed distribution.
    #[test]
    fn zipf_rank_monotonicity(seed in any::<u64>()) {
        let arena: Vec<CacheLineAddr> = (0..16).map(CacheLineAddr).collect();
        let mut w = ZipfianWorkload::new(arena, 20_000, 1.2, DetRng::new(seed));
        let mut counts = vec![0u64; 16];
        while let Some(op) = w.next_op() {
            counts[op.line().line_index() as usize] += 1;
        }
        // Rank 0 must clearly dominate rank 8+.
        prop_assert!(counts[0] > counts[8] * 2, "{counts:?}");
        prop_assert!(counts[0] > counts[15].max(1) * 2, "{counts:?}");
    }

    /// Paced patterns deliver the full aggressor access budget (decoys
    /// are extras, excluded from it) and insert decoys at exactly the
    /// configured period.
    #[test]
    fn paced_decoy_period(burst in 1u64..10, accesses in 1u64..300) {
        let decoy = CacheLineAddr(999);
        let aggr = CacheLineAddr(1);
        let mut w = HammerPattern::single_sided(aggr, accesses).paced(burst, decoy);
        let reads: Vec<CacheLineAddr> = drain(&mut w)
            .into_iter()
            .filter(|o| matches!(o, AccessOp::Read(_)))
            .map(|o| o.line())
            .collect();
        // Aggressor budget is preserved exactly; decoys ride on top,
        // one after every completed burst (never trailing the stream).
        let decoys = (accesses - 1) / burst;
        prop_assert_eq!(reads.iter().filter(|&&l| l == aggr).count() as u64, accesses);
        prop_assert_eq!(reads.iter().filter(|&&l| l == decoy).count() as u64, decoys);
        prop_assert_eq!(reads.len() as u64, accesses + decoys);
        prop_assert_eq!(w.remaining(), 0);
        for (i, line) in reads.iter().enumerate() {
            let is_decoy_slot = (i as u64) % (burst + 1) == burst;
            prop_assert_eq!(*line == decoy, is_decoy_slot, "position {}", i);
        }
    }

    /// Fuzzed-hammer schedules are a pure function of the rng fork
    /// handed in: the same seed yields the same schedule no matter how
    /// many unrelated draws other machines made first (the property
    /// that makes A1 byte-identical across `--jobs 1/8`).
    #[test]
    fn fuzzed_schedule_is_seed_deterministic(
        seed in any::<u64>(),
        n_aggr in 1usize..8,
        noise_draws in 0u64..64,
    ) {
        use hammertime_workloads::FuzzedHammer;
        let aggressors: Vec<CacheLineAddr> =
            (0..n_aggr as u64).map(|i| CacheLineAddr(i * 100)).collect();
        let reference = FuzzedHammer::generate(DetRng::new(seed), &aggressors, 50);
        // Simulate another worker interleaving arbitrary machine
        // construction: ambient draws must not shift the schedule.
        let mut ambient = DetRng::new(seed ^ 0xDEAD);
        for _ in 0..noise_draws {
            ambient.next_u64();
        }
        let again = FuzzedHammer::generate(DetRng::new(seed), &aggressors, 50);
        prop_assert_eq!(reference.schedule(), again.schedule());
        // And the ops streams match end to end.
        let (mut a, mut b) = (reference.clone(), again.clone());
        prop_assert_eq!(drain(&mut a), drain(&mut b));
    }
}
