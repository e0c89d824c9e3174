//! Physical-address → DRAM-coordinate mapping.
//!
//! The memory controller converts CPU physical addresses into DDR
//! logical coordinates according to a fixed mapping (paper §2.1). The
//! choice of mapping is where the paper's isolation-centric primitive
//! lives:
//!
//! - [`MappingScheme::CacheLineInterleave`] — production default:
//!   consecutive cache lines spread across channels and banks for
//!   bank-level parallelism, mixing all tenants in every bank.
//! - [`MappingScheme::BankPartition`] — interleaving disabled (the
//!   BIOS option the paper deems an undesirable fix, §4.1): each page
//!   lives in a single bank, enabling bank-aware allocation at the
//!   cost of parallelism.
//! - [`MappingScheme::SubarrayIsolated`] — the paper's proposal:
//!   interleaving stays fully enabled across channels/banks, but the
//!   *subarray* bits sit at the top of the address, partitioning the
//!   physical address space into per-subarray-group regions the host
//!   allocator can hand to distinct trust domains (§4.1, Fig. 2).
//! - [`MappingScheme::RubixScramble`] — Rubix-style randomized
//!   line-to-row mapping: the interleaved layout plus a seeded
//!   bijective permutation of the row index, so physically adjacent
//!   rows hold logically unrelated frames. An attacker who knows its
//!   own addresses no longer knows which *victim* frames are blast-
//!   radius neighbors; the cost is row-buffer locality for workloads
//!   that stream across row boundaries.
//!
//! Every scheme is a bijection between [`CacheLineAddr`] and
//! [`DramCoord`]; property tests verify the round trip for arbitrary
//! geometries (including arbitrary Rubix seeds).

use hammertime_common::addr::LINES_PER_PAGE;
use hammertime_common::geometry::BankId;
use hammertime_common::{CacheLineAddr, DramCoord, Error, Geometry, Result};
use serde::{Deserialize, Serialize};

/// Which address-mapping scheme the controller uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingScheme {
    /// Consecutive lines interleave across channels, then banks.
    CacheLineInterleave,
    /// No interleaving: a page occupies a single bank.
    BankPartition,
    /// Subarray-isolated interleaving (the paper's primitive).
    SubarrayIsolated,
    /// Interleave plus a seeded bijective permutation of the row index
    /// (Rubix-style randomized line-to-row mapping).
    RubixScramble {
        /// Key for the row permutation; two maps with equal seeds
        /// translate identically.
        seed: u64,
    },
}

/// A field of the line-address bit layout, LSB-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Channel,
    Rank,
    BankGroup,
    Bank,
    Col,
    Row,
    RowInSub,
    Subarray,
}

/// One round of the Rubix row permutation: multiply by an odd
/// constant (with its precomputed modular inverse), xorshift, xor a
/// key. Each step is bijective on `w`-bit integers, so the composition
/// is too.
#[derive(Debug, Clone, Copy)]
struct RubixRound {
    mul: u64,
    inv: u64,
    xor: u64,
}

/// The keyed row permutation for [`MappingScheme::RubixScramble`].
#[derive(Debug, Clone, Copy)]
struct RubixKeys {
    /// Row-field width in bits (0 = single row, identity).
    width: u32,
    rounds: [RubixRound; 3],
}

/// SplitMix64 step (the key-derivation stream).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multiplicative inverse of odd `a` modulo 2^64 (Newton iteration;
/// masking the product reduces it to the inverse modulo any 2^w).
fn odd_inverse(a: u64) -> u64 {
    let mut inv = a; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
    }
    inv
}

impl RubixKeys {
    fn derive(seed: u64, width: u32) -> RubixKeys {
        let mut state = seed;
        let rounds = std::array::from_fn(|_| {
            let mul = splitmix(&mut state) | 1; // odd → invertible
            RubixRound {
                mul,
                inv: odd_inverse(mul),
                xor: splitmix(&mut state),
            }
        });
        RubixKeys { width, rounds }
    }

    fn shift(&self) -> u32 {
        (self.width / 2).max(1)
    }

    /// The forward row permutation.
    fn permute(&self, row: u32) -> u32 {
        if self.width == 0 {
            return row;
        }
        let mask = (1u64 << self.width) - 1;
        let s = self.shift();
        let mut x = row as u64;
        for r in &self.rounds {
            x = x.wrapping_mul(r.mul) & mask;
            x ^= x >> s;
            x = (x ^ r.xor) & mask;
        }
        x as u32
    }

    /// The inverse row permutation.
    fn invert(&self, row: u32) -> u32 {
        if self.width == 0 {
            return row;
        }
        let mask = (1u64 << self.width) - 1;
        let s = self.shift();
        let mut x = row as u64;
        for r in self.rounds.iter().rev() {
            x = (x ^ r.xor) & mask;
            // Invert y = x ^ (x >> s) by fixpoint iteration: each pass
            // corrects `s` more bits, and width ≤ 32.
            let y = x;
            for _ in 0..32 {
                x = y ^ (x >> s);
            }
            x = x.wrapping_mul(r.inv) & mask;
        }
        x as u32
    }
}

/// The concrete mapping for one geometry.
#[derive(Debug, Clone)]
pub struct AddressMap {
    scheme: MappingScheme,
    geometry: Geometry,
    /// (field, bit width), lowest-order field first.
    layout: Vec<(Field, u32)>,
    /// The seeded row permutation (RubixScramble only).
    rubix: Option<RubixKeys>,
}

/// Bit width of a power-of-two field count, as a typed error rather
/// than a debug assertion: a non-power-of-two count coming in through a
/// config must surface as [`Error::Config`], never as a silently wrong
/// layout in release builds.
fn log2(what: &str, v: u32) -> Result<u32> {
    if !v.is_power_of_two() {
        return Err(Error::Config(format!(
            "{what} must be a power of two, got {v}"
        )));
    }
    Ok(v.trailing_zeros())
}

impl AddressMap {
    /// Builds the mapping for `geometry` under `scheme`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if the geometry is invalid or too small for
    /// the scheme's page-granularity guarantees (a 4 KiB page must fit
    /// within one subarray group for [`MappingScheme::SubarrayIsolated`]
    /// and within one bank for [`MappingScheme::BankPartition`]).
    pub fn new(scheme: MappingScheme, geometry: Geometry) -> Result<AddressMap> {
        geometry.validate()?;
        let g = &geometry;
        let ch = log2("channels", g.channels)?;
        let rk = log2("ranks", g.ranks)?;
        let bg = log2("bank groups", g.bank_groups)?;
        let ba = log2("banks per group", g.banks_per_group)?;
        let co = log2("columns", g.columns)?;
        let ro = log2("rows per bank", g.rows_per_bank())?;
        let rs = log2("rows per subarray", g.rows_per_subarray)?;
        let sa = log2("subarrays per bank", g.subarrays_per_bank)?;
        let page_bits = LINES_PER_PAGE.trailing_zeros();

        let layout: Vec<(Field, u32)> = match scheme {
            MappingScheme::CacheLineInterleave | MappingScheme::RubixScramble { .. } => vec![
                (Field::Channel, ch),
                (Field::BankGroup, bg),
                (Field::Bank, ba),
                (Field::Col, co),
                (Field::Rank, rk),
                (Field::Row, ro),
            ],
            MappingScheme::BankPartition => {
                if co + ro < page_bits {
                    return Err(Error::Config(format!(
                        "bank partition needs col+row bits >= {page_bits} to keep a page in one bank"
                    )));
                }
                vec![
                    (Field::Col, co),
                    (Field::Row, ro),
                    (Field::Bank, ba),
                    (Field::BankGroup, bg),
                    (Field::Rank, rk),
                    (Field::Channel, ch),
                ]
            }
            MappingScheme::SubarrayIsolated => {
                if ch + bg + ba + co + rk + rs < page_bits {
                    return Err(Error::Config(format!(
                        "subarray isolation needs >= {page_bits} bits below the subarray field"
                    )));
                }
                vec![
                    (Field::Channel, ch),
                    (Field::BankGroup, bg),
                    (Field::Bank, ba),
                    (Field::Col, co),
                    (Field::Rank, rk),
                    (Field::RowInSub, rs),
                    (Field::Subarray, sa),
                ]
            }
        };
        let rubix = match scheme {
            MappingScheme::RubixScramble { seed } => Some(RubixKeys::derive(seed, ro)),
            _ => None,
        };
        Ok(AddressMap {
            scheme,
            geometry,
            layout,
            rubix,
        })
    }

    /// The scheme this map implements.
    pub fn scheme(&self) -> MappingScheme {
        self.scheme
    }

    /// The geometry this map covers.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Maps a cache line to its DRAM coordinate.
    ///
    /// # Errors
    ///
    /// [`Error::Translation`] if the line is beyond the installed
    /// capacity.
    pub fn to_coord(&self, line: CacheLineAddr) -> Result<DramCoord> {
        let mut v = line.line_index();
        if v >= self.geometry.total_lines() {
            return Err(Error::Translation(format!(
                "{line} beyond capacity ({} lines)",
                self.geometry.total_lines()
            )));
        }
        let (mut channel, mut rank, mut bank_group, mut bank) = (0u32, 0u32, 0u32, 0u32);
        let (mut col, mut row, mut row_in_sub, mut subarray) = (0u32, 0u32, 0u32, 0u32);
        for &(field, bits) in &self.layout {
            let part = (v & ((1u64 << bits) - 1)) as u32;
            v >>= bits;
            match field {
                Field::Channel => channel = part,
                Field::Rank => rank = part,
                Field::BankGroup => bank_group = part,
                Field::Bank => bank = part,
                Field::Col => col = part,
                Field::Row => row = part,
                Field::RowInSub => row_in_sub = part,
                Field::Subarray => subarray = part,
            }
        }
        if self.scheme == MappingScheme::SubarrayIsolated {
            row = subarray * self.geometry.rows_per_subarray + row_in_sub;
        }
        if let Some(rubix) = &self.rubix {
            row = rubix.permute(row);
        }
        Ok(DramCoord {
            channel,
            rank,
            bank_group,
            bank,
            row,
            col,
        })
    }

    /// Maps a DRAM coordinate back to its cache line (inverse of
    /// [`AddressMap::to_coord`]).
    pub fn to_line(&self, coord: &DramCoord) -> Result<CacheLineAddr> {
        coord.validate(&self.geometry)?;
        // Under Rubix the coordinate's row is the scrambled one; pack
        // the unscrambled index back into the line.
        let row = match &self.rubix {
            Some(rubix) => rubix.invert(coord.row),
            None => coord.row,
        };
        let row_in_sub = coord.row % self.geometry.rows_per_subarray;
        let subarray = coord.row / self.geometry.rows_per_subarray;
        let mut v = 0u64;
        let mut shift = 0u32;
        for &(field, bits) in &self.layout {
            let part = match field {
                Field::Channel => coord.channel,
                Field::Rank => coord.rank,
                Field::BankGroup => coord.bank_group,
                Field::Bank => coord.bank,
                Field::Col => coord.col,
                Field::Row => row,
                Field::RowInSub => row_in_sub,
                Field::Subarray => subarray,
            };
            debug_assert!(part < (1 << bits) || bits == 0);
            v |= (part as u64) << shift;
            shift += bits;
        }
        Ok(CacheLineAddr(v))
    }

    /// Number of subarray groups the scheme exposes (1 for schemes
    /// without subarray isolation).
    pub fn subarray_groups(&self) -> u32 {
        match self.scheme {
            MappingScheme::SubarrayIsolated => self.geometry.subarrays_per_bank,
            _ => 1,
        }
    }

    /// The subarray group a page frame belongs to under subarray-
    /// isolated interleaving (`0` under other schemes).
    pub fn group_of_frame(&self, frame: u64) -> u32 {
        if self.scheme != MappingScheme::SubarrayIsolated {
            return 0;
        }
        let frames_per_group = self.frames_per_group();
        (frame / frames_per_group) as u32
    }

    /// Frames per subarray group (the allocation granule the host
    /// allocator partitions among trust domains).
    pub fn frames_per_group(&self) -> u64 {
        self.geometry.total_frames() / self.subarray_groups() as u64
    }

    /// The contiguous frame range forming subarray group `group`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if `group` is out of range.
    pub fn frames_of_group(&self, group: u32) -> Result<std::ops::Range<u64>> {
        if group >= self.subarray_groups() {
            return Err(Error::Config(format!(
                "group {group} out of range ({} groups)",
                self.subarray_groups()
            )));
        }
        let per = self.frames_per_group();
        Ok(group as u64 * per..(group as u64 + 1) * per)
    }

    /// The flat bank a frame occupies under [`MappingScheme::BankPartition`].
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for other schemes (frames span many banks);
    /// [`Error::Translation`] if out of range.
    pub fn bank_of_frame(&self, frame: u64) -> Result<BankId> {
        if self.scheme != MappingScheme::BankPartition {
            return Err(Error::Config(
                "bank_of_frame only meaningful under BankPartition".into(),
            ));
        }
        let line = CacheLineAddr(frame * LINES_PER_PAGE);
        let coord = self.to_coord(line)?;
        Ok(BankId::of(&coord))
    }

    /// The row-stripe index of a frame: the in-bank row its lines map
    /// to. Meaningful for interleaved schemes where a frame's lines all
    /// share one row index across banks; used by guard-row placement.
    ///
    /// # Errors
    ///
    /// [`Error::Translation`] if the frame is out of range, or
    /// [`Error::Config`] if the frame's lines straddle two rows (the
    /// scheme does not form row stripes).
    pub fn row_stripe_of_frame(&self, frame: u64) -> Result<u32> {
        let first = self.to_coord(CacheLineAddr(frame * LINES_PER_PAGE))?;
        let last = self.to_coord(CacheLineAddr((frame + 1) * LINES_PER_PAGE - 1))?;
        if first.row != last.row {
            return Err(Error::Config(format!(
                "frame {frame} straddles rows {} and {}",
                first.row, last.row
            )));
        }
        Ok(first.row)
    }

    /// All frames whose lines map to in-bank row `row` (the inverse of
    /// [`AddressMap::row_stripe_of_frame`] for stripe-forming schemes).
    pub fn frames_of_row_stripe(&self, row: u32) -> Vec<u64> {
        (0..self.geometry.total_frames())
            .filter(|&f| {
                self.row_stripe_of_frame(f)
                    .map(|r| r == row)
                    .unwrap_or(false)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schemes() -> [MappingScheme; 4] {
        [
            MappingScheme::CacheLineInterleave,
            MappingScheme::BankPartition,
            MappingScheme::SubarrayIsolated,
            MappingScheme::RubixScramble { seed: 0xA5A5 },
        ]
    }

    #[test]
    fn round_trip_all_schemes_medium_geometry() {
        let g = Geometry::medium();
        for scheme in schemes() {
            let map = AddressMap::new(scheme, g).unwrap();
            for idx in 0..g.total_lines() {
                let line = CacheLineAddr(idx);
                let coord = map.to_coord(line).unwrap();
                coord.validate(&g).unwrap();
                assert_eq!(map.to_line(&coord).unwrap(), line, "{scheme:?} at {idx}");
            }
        }
    }

    #[test]
    fn out_of_range_line_rejected() {
        let g = Geometry::small_test();
        let map = AddressMap::new(MappingScheme::CacheLineInterleave, g).unwrap();
        assert!(map.to_coord(CacheLineAddr(g.total_lines())).is_err());
    }

    #[test]
    fn interleave_spreads_consecutive_lines_across_banks() {
        let g = Geometry::medium(); // 1 channel, 4 banks
        let map = AddressMap::new(MappingScheme::CacheLineInterleave, g).unwrap();
        let banks: std::collections::HashSet<usize> = (0..4)
            .map(|i| map.to_coord(CacheLineAddr(i)).unwrap().flat_bank(&g))
            .collect();
        assert_eq!(banks.len(), 4, "4 consecutive lines should hit 4 banks");
    }

    #[test]
    fn bank_partition_keeps_page_in_one_bank() {
        let g = Geometry::medium();
        let map = AddressMap::new(MappingScheme::BankPartition, g).unwrap();
        for frame in 0..g.total_frames() {
            let banks: std::collections::HashSet<usize> = (0..LINES_PER_PAGE)
                .map(|i| {
                    map.to_coord(CacheLineAddr(frame * LINES_PER_PAGE + i))
                        .unwrap()
                        .flat_bank(&g)
                })
                .collect();
            assert_eq!(banks.len(), 1, "frame {frame} spans banks");
            assert_eq!(
                map.bank_of_frame(frame).unwrap().flat(&g),
                *banks.iter().next().unwrap()
            );
        }
    }

    #[test]
    fn subarray_isolated_keeps_page_in_one_group_but_spreads_banks() {
        let g = Geometry::medium(); // 4 subarrays
        let map = AddressMap::new(MappingScheme::SubarrayIsolated, g).unwrap();
        assert_eq!(map.subarray_groups(), 4);
        for frame in 0..g.total_frames() {
            let group = map.group_of_frame(frame);
            let mut banks = std::collections::HashSet::new();
            for i in 0..LINES_PER_PAGE {
                let coord = map
                    .to_coord(CacheLineAddr(frame * LINES_PER_PAGE + i))
                    .unwrap();
                assert_eq!(
                    coord.subarray(&g),
                    group,
                    "frame {frame} line {i} left its group"
                );
                banks.insert(coord.flat_bank(&g));
            }
            assert!(
                banks.len() > 1,
                "subarray isolation must preserve bank-level interleaving"
            );
        }
    }

    #[test]
    fn frames_of_group_partition_the_frame_space() {
        let g = Geometry::medium();
        let map = AddressMap::new(MappingScheme::SubarrayIsolated, g).unwrap();
        let mut covered = 0;
        for group in 0..map.subarray_groups() {
            let range = map.frames_of_group(group).unwrap();
            for f in range.clone() {
                assert_eq!(map.group_of_frame(f), group);
            }
            covered += range.end - range.start;
        }
        assert_eq!(covered, g.total_frames());
        assert!(map.frames_of_group(map.subarray_groups()).is_err());
    }

    #[test]
    fn row_stripes_are_consistent_for_interleaved_schemes() {
        let g = Geometry::medium();
        for scheme in [
            MappingScheme::CacheLineInterleave,
            MappingScheme::SubarrayIsolated,
            MappingScheme::RubixScramble { seed: 17 },
        ] {
            let map = AddressMap::new(scheme, g).unwrap();
            for frame in 0..g.total_frames() {
                let row = map.row_stripe_of_frame(frame).unwrap();
                assert!(map.frames_of_row_stripe(row).contains(&frame));
            }
        }
    }

    #[test]
    fn bank_of_frame_rejected_for_interleaved_scheme() {
        let g = Geometry::medium();
        let map = AddressMap::new(MappingScheme::CacheLineInterleave, g).unwrap();
        assert!(map.bank_of_frame(0).is_err());
    }

    #[test]
    fn non_power_of_two_geometry_is_a_typed_config_error() {
        let mut g = Geometry::medium();
        g.columns = 3;
        let err = AddressMap::new(MappingScheme::CacheLineInterleave, g).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "got {err:?}");
    }

    #[test]
    fn rubix_scrambles_rows_but_permutes_the_stripe_space() {
        let g = Geometry::medium();
        let plain = AddressMap::new(MappingScheme::CacheLineInterleave, g).unwrap();
        let rubix = AddressMap::new(MappingScheme::RubixScramble { seed: 0xDEAD }, g).unwrap();
        let rows = g.rows_per_bank();
        let mut plain_stripes = Vec::new();
        let mut rubix_stripes = Vec::new();
        let frames_per_stripe = g.total_frames() / rows as u64;
        for frame in 0..g.total_frames() {
            plain_stripes.push(plain.row_stripe_of_frame(frame).unwrap());
            rubix_stripes.push(rubix.row_stripe_of_frame(frame).unwrap());
        }
        assert_ne!(plain_stripes, rubix_stripes, "scramble must move rows");
        // Still a permutation of the stripe space: every row hosts the
        // same number of frames as under the identity layout.
        let mut counts = vec![0u64; rows as usize];
        for &s in &rubix_stripes {
            counts[s as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == frames_per_stripe));
        // Blast-radius dilution: logically consecutive stripes land on
        // physically non-adjacent rows for most frames.
        let adjacent = rubix_stripes
            .windows(2)
            .filter(|w| w[0] != w[1])
            .filter(|w| w[0].abs_diff(w[1]) == 1)
            .count();
        let moved = rubix_stripes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            adjacent * 4 < moved,
            "scrambled neighbors should rarely stay adjacent ({adjacent}/{moved})"
        );
    }

    #[test]
    fn rubix_seed_selects_the_permutation() {
        let g = Geometry::medium();
        let a = AddressMap::new(MappingScheme::RubixScramble { seed: 1 }, g).unwrap();
        let b = AddressMap::new(MappingScheme::RubixScramble { seed: 2 }, g).unwrap();
        let c = AddressMap::new(MappingScheme::RubixScramble { seed: 1 }, g).unwrap();
        let rows_a: Vec<u32> = (0..g.total_frames())
            .map(|f| a.row_stripe_of_frame(f).unwrap())
            .collect();
        let rows_b: Vec<u32> = (0..g.total_frames())
            .map(|f| b.row_stripe_of_frame(f).unwrap())
            .collect();
        let rows_c: Vec<u32> = (0..g.total_frames())
            .map(|f| c.row_stripe_of_frame(f).unwrap())
            .collect();
        assert_ne!(rows_a, rows_b, "different seeds, different scrambles");
        assert_eq!(rows_a, rows_c, "equal seeds translate identically");
    }

    #[test]
    fn too_small_geometry_rejected_for_subarray_isolation() {
        // Only 2 bits (1 col + 1 row-in-sub) below the subarray field —
        // cannot hold a 64-line page within one subarray group.
        let g = Geometry {
            channels: 1,
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 1,
            subarrays_per_bank: 8,
            rows_per_subarray: 2,
            columns: 2,
        };
        assert!(AddressMap::new(MappingScheme::SubarrayIsolated, g).is_err());
    }

    mod rubix_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The raw row permutation is a bijection over the row
            /// space for arbitrary seeds and field widths, and
            /// `invert` is its exact inverse.
            #[test]
            fn row_permutation_bijects(seed in any::<u64>(), width in 0u32..13) {
                let keys = RubixKeys::derive(seed, width);
                let rows = 1u64 << width;
                let mut seen = vec![false; rows as usize];
                for r in 0..rows as u32 {
                    let p = keys.permute(r);
                    prop_assert!((p as u64) < rows, "out of range");
                    prop_assert!(!seen[p as usize], "collision at {r}");
                    seen[p as usize] = true;
                    prop_assert_eq!(keys.invert(p), r);
                }
            }

            /// The full line→coordinate map stays a bijection over the
            /// line space for arbitrary seeds and geometries.
            #[test]
            fn line_space_bijects(
                seed in any::<u64>(),
                channels_log in 0u32..2,
                banks_log in 0u32..2,
                subarrays_log in 1u32..3,
                rows_log in 1u32..4,
                cols_log in 2u32..5,
            ) {
                let g = Geometry {
                    channels: 1 << channels_log,
                    ranks: 1,
                    bank_groups: 1,
                    banks_per_group: 1 << banks_log,
                    subarrays_per_bank: 1 << subarrays_log,
                    rows_per_subarray: 1 << rows_log,
                    columns: 1 << cols_log,
                };
                let map = AddressMap::new(MappingScheme::RubixScramble { seed }, g).unwrap();
                let mut seen = std::collections::HashSet::new();
                for idx in 0..g.total_lines() {
                    let line = CacheLineAddr(idx);
                    let coord = map.to_coord(line).unwrap();
                    coord.validate(&g).unwrap();
                    prop_assert!(seen.insert((coord.channel, coord.rank, coord.bank_group, coord.bank, coord.row, coord.col)), "coordinate collision");
                    prop_assert_eq!(map.to_line(&coord).unwrap(), line);
                }
                prop_assert_eq!(seen.len() as u64, g.total_lines());
            }
        }
    }
}
