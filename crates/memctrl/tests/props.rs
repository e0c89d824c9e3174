//! Property tests for the memory controller.

use hammertime_common::{CacheLineAddr, Cycle, DetRng, DomainId, Geometry, RequestSource};
use hammertime_dram::DramConfig;
use hammertime_memctrl::addrmap::{AddressMap, MappingScheme};
use hammertime_memctrl::request::{MemRequest, RequestKind};
use hammertime_memctrl::{ActCounterConfig, MemCtrl, MemCtrlConfig, Precision};
use proptest::prelude::*;

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    (
        0u32..2,
        0u32..2,
        0u32..2,
        0u32..3,
        1u32..3,
        4u32..7,
        4u32..7,
    )
        .prop_map(|(ch, rk, bg, ba, sa, rows, cols)| Geometry {
            channels: 1 << ch,
            ranks: 1 << rk,
            bank_groups: 1 << bg,
            banks_per_group: 1 << ba,
            subarrays_per_bank: 1 << sa,
            rows_per_subarray: 1 << rows,
            columns: 1 << cols,
        })
}

fn schemes() -> impl Strategy<Value = MappingScheme> {
    prop_oneof![
        Just(MappingScheme::CacheLineInterleave),
        Just(MappingScheme::BankPartition),
        Just(MappingScheme::SubarrayIsolated),
    ]
}

proptest! {
    /// Every address map is a bijection: line → coord → line for
    /// arbitrary geometries and schemes.
    #[test]
    fn addrmap_round_trips(g in arb_geometry(), scheme in schemes(), seed in any::<u64>()) {
        let Ok(map) = AddressMap::new(scheme, g) else {
            return Ok(()); // geometry too small for this scheme: fine
        };
        let mut rng = DetRng::new(seed);
        for _ in 0..64 {
            let line = CacheLineAddr(rng.below(g.total_lines()));
            let coord = map.to_coord(line).unwrap();
            prop_assert!(coord.validate(&g).is_ok());
            prop_assert_eq!(map.to_line(&coord).unwrap(), line);
        }
    }

    /// Subarray isolation invariant: for arbitrary geometries, no page
    /// ever straddles two subarray groups.
    #[test]
    fn pages_never_straddle_groups(g in arb_geometry(), frame_seed in any::<u64>()) {
        let Ok(map) = AddressMap::new(MappingScheme::SubarrayIsolated, g) else {
            return Ok(());
        };
        let mut rng = DetRng::new(frame_seed);
        for _ in 0..16 {
            let frame = rng.below(g.total_frames());
            let group = map.group_of_frame(frame);
            for l in 0..64u64 {
                let coord = map.to_coord(CacheLineAddr(frame * 64 + l)).unwrap();
                prop_assert_eq!(coord.subarray(&g), group);
            }
        }
    }

    /// Group ranges partition the frame space exactly.
    #[test]
    fn groups_partition_frames(g in arb_geometry()) {
        let Ok(map) = AddressMap::new(MappingScheme::SubarrayIsolated, g) else {
            return Ok(());
        };
        let mut total = 0u64;
        for group in 0..map.subarray_groups() {
            let r = map.frames_of_group(group).unwrap();
            total += r.end - r.start;
        }
        prop_assert_eq!(total, g.total_frames());
    }

    /// ACT counters: overflow count is within one of
    /// `acts / (threshold - window)` and `acts / threshold` bounds.
    #[test]
    fn act_counter_overflow_bounds(
        threshold in 2u64..200,
        window_frac in 0u64..4,
        acts in 1u64..5_000,
        seed in any::<u64>(),
    ) {
        use hammertime_memctrl::act_counter::ActCounterBlock;
        let window = threshold / 4 * window_frac / 3; // 0..threshold/4ish
        let config = ActCounterConfig {
            threshold,
            randomize_reset_window: window,
            precision: Precision::AddressReporting,
        };
        let mut b = ActCounterBlock::new(config, 1, DetRng::new(seed));
        for i in 0..acts {
            b.on_act(0, CacheLineAddr(i), DomainId(1), i, Cycle(i));
        }
        let min_period = threshold - window;
        prop_assert!(b.overflows <= acts / min_period.max(1) + 1);
        prop_assert!(b.overflows >= acts / threshold);
    }

    /// A random mix of reads/writes across the whole address space
    /// always completes under the baseline controller: no request is
    /// lost or duplicated.
    #[test]
    fn all_requests_complete_exactly_once(
        ops in prop::collection::vec((any::<u64>(), any::<bool>()), 1..60),
    ) {
        let mut dram_cfg = DramConfig::test_config(1_000_000);
        dram_cfg.geometry = Geometry::small_test();
        let total_lines = dram_cfg.geometry.total_lines();
        let mut mc = MemCtrl::new(MemCtrlConfig::baseline(), dram_cfg, 3).unwrap();
        let n = ops.len();
        for (i, (line, is_write)) in ops.into_iter().enumerate() {
            mc.submit(MemRequest {
                id: i as u64,
                line: CacheLineAddr(line % total_lines),
                kind: if is_write { RequestKind::Write } else { RequestKind::Read },
                source: RequestSource::Core(0),
                domain: DomainId(1),
                arrival: mc.now(),
            })
            .unwrap();
        }
        mc.drain();
        let completions = mc.drain_completions();
        prop_assert_eq!(completions.len(), n);
        let mut ids: Vec<u64> = completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        // Latencies are sane: every completion at/after its arrival.
        for c in &completions {
            prop_assert!(c.done >= c.arrival);
        }
    }

    /// Functional data path: writes then reads round-trip through
    /// translation for every scheme.
    #[test]
    fn data_round_trips_through_any_scheme(scheme in schemes(), seed in any::<u64>()) {
        let mut dram_cfg = DramConfig::test_config(1_000_000);
        dram_cfg.geometry = Geometry::medium();
        let mut cfg = MemCtrlConfig::baseline();
        cfg.mapping = scheme;
        let mut mc = MemCtrl::new(cfg, dram_cfg, 3).unwrap();
        let total = mc.map().geometry().total_lines();
        let mut rng = DetRng::new(seed);
        let mut expected = std::collections::HashMap::new();
        for i in 0..32u8 {
            let line = CacheLineAddr(rng.below(total));
            mc.write_data(line, &[i; 64]).unwrap();
            expected.insert(line, i);
        }
        for (line, fill) in expected {
            let (data, poisoned) = mc.read_data(line).unwrap();
            prop_assert!(!poisoned);
            prop_assert_eq!(data, vec![fill; 64]);
        }
    }
}
