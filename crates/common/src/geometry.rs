//! DRAM organization and coordinates.
//!
//! A [`Geometry`] describes the shape of the memory system: channels ×
//! ranks × bank groups × banks × subarrays × rows × columns. A
//! [`DramCoord`] locates one cache-line-sized column burst within that
//! shape. The memory controller's address map (in `hammertime-memctrl`)
//! is a bijection between [`CacheLineAddr`](crate::CacheLineAddr) and
//! [`DramCoord`]; this module only defines the shape and coordinate
//! arithmetic.
//!
//! Subarrays matter: the paper's isolation-centric primitive
//! (subarray-isolated interleaving, §4.1) relies on the fact that
//! subarrays within a bank are electromagnetically isolated from one
//! another, so rows in different subarrays can never be in an
//! aggressor/victim relationship.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a simulated memory system.
///
/// All fields are counts and must be non-zero; rows per subarray and
/// most counts should be powers of two so the address map can use bit
/// slicing, which [`Geometry::validate`] enforces.
///
/// # Examples
///
/// ```
/// use hammertime_common::Geometry;
///
/// let g = Geometry::small_test();
/// g.validate().unwrap();
/// assert_eq!(g.rows_per_bank(), g.subarrays_per_bank * g.rows_per_subarray);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Independent DDR channels, each with its own command/data bus.
    pub channels: u32,
    /// Ranks per channel (chip selects sharing the channel bus).
    pub ranks: u32,
    /// Bank groups per rank (DDR4+; use 1 to model DDR3).
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Subarrays per bank (each with local sense amps, isolated from
    /// its neighbors).
    pub subarrays_per_bank: u32,
    /// Rows per subarray.
    pub rows_per_subarray: u32,
    /// Cache-line-sized column bursts per row. A row of `columns * 64`
    /// bytes; 128 columns models the common 8 KB row.
    pub columns: u32,
}

impl Geometry {
    /// A deliberately tiny geometry for unit tests: 1 channel, 1 rank,
    /// 1 bank group, 2 banks, 2 subarrays x 16 rows, 8 columns.
    pub fn small_test() -> Geometry {
        Geometry {
            channels: 1,
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 16,
            columns: 8,
        }
    }

    /// A medium geometry for integration tests and fast experiments:
    /// 1 channel, 1 rank, 2 bank groups x 2 banks, 4 subarrays x 128
    /// rows, 32 columns (64 MiB).
    pub fn medium() -> Geometry {
        Geometry {
            channels: 1,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            subarrays_per_bank: 4,
            rows_per_subarray: 128,
            columns: 32,
        }
    }

    /// A server-ish geometry used by the full-scale runs: 2 channels,
    /// 1 rank, 4 bank groups x 4 banks, 8 subarrays x 512 rows, 128
    /// columns (8 GiB).
    pub fn server() -> Geometry {
        Geometry {
            channels: 2,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            subarrays_per_bank: 8,
            rows_per_subarray: 512,
            columns: 128,
        }
    }

    /// Checks the geometry is usable: every count non-zero and every
    /// count a power of two (required by the bit-sliced address maps).
    ///
    /// # Examples
    ///
    /// ```
    /// use hammertime_common::Geometry;
    ///
    /// let mut g = Geometry::small_test();
    /// g.columns = 3;
    /// assert!(g.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<()> {
        let fields = [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("subarrays_per_bank", self.subarrays_per_bank),
            ("rows_per_subarray", self.rows_per_subarray),
            ("columns", self.columns),
        ];
        for (name, v) in fields {
            if v == 0 {
                return Err(Error::Config(format!("geometry field {name} is zero")));
            }
            if !v.is_power_of_two() {
                return Err(Error::Config(format!(
                    "geometry field {name} = {v} is not a power of two"
                )));
            }
        }
        Ok(())
    }

    /// Banks per rank.
    #[inline]
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Total banks across the whole system.
    #[inline]
    pub fn total_banks(&self) -> u64 {
        self.channels as u64 * self.ranks as u64 * self.banks_per_rank() as u64
    }

    /// Rows per bank.
    #[inline]
    pub fn rows_per_bank(&self) -> u32 {
        self.subarrays_per_bank * self.rows_per_subarray
    }

    /// Total rows across the whole system.
    #[inline]
    pub fn total_rows(&self) -> u64 {
        self.total_banks() * self.rows_per_bank() as u64
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_rows() * self.row_bytes()
    }

    /// Bytes per row.
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        self.columns as u64 * crate::addr::CACHE_LINE_BYTES
    }

    /// Total cache lines across the whole system.
    #[inline]
    pub fn total_lines(&self) -> u64 {
        self.capacity_bytes() / crate::addr::CACHE_LINE_BYTES
    }

    /// Total page frames across the whole system.
    #[inline]
    pub fn total_frames(&self) -> u64 {
        self.capacity_bytes() / crate::addr::PAGE_BYTES
    }

    /// Returns the subarray index containing `row` (an in-bank row
    /// index).
    #[inline]
    pub fn subarray_of_row(&self, row: u32) -> u32 {
        debug_assert!(row < self.rows_per_bank());
        row / self.rows_per_subarray
    }

    /// Returns `true` if in-bank rows `a` and `b` lie in the same
    /// subarray (and can therefore disturb each other).
    #[inline]
    pub fn same_subarray(&self, a: u32, b: u32) -> bool {
        self.subarray_of_row(a) == self.subarray_of_row(b)
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}ch x {}rk x {}bg x {}ba x {}sa x {}row x {}col ({} MiB)",
            self.channels,
            self.ranks,
            self.bank_groups,
            self.banks_per_group,
            self.subarrays_per_bank,
            self.rows_per_subarray,
            self.columns,
            self.capacity_bytes() / (1024 * 1024)
        )
    }
}

/// The location of one cache-line-sized burst in DRAM.
///
/// `row` is the in-bank row index (subarray-relative rows are derived
/// via [`Geometry::subarray_of_row`]); `col` is the cache-line-sized
/// column burst index within the row.
///
/// # Examples
///
/// ```
/// use hammertime_common::{DramCoord, Geometry};
///
/// let g = Geometry::small_test();
/// let c = DramCoord { channel: 0, rank: 0, bank_group: 0, bank: 1, row: 17, col: 3 };
/// assert!(c.validate(&g).is_ok());
/// assert_eq!(c.subarray(&g), 1); // rows 16..31 are subarray 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramCoord {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank group index within the rank.
    pub bank_group: u32,
    /// Bank index within the bank group.
    pub bank: u32,
    /// Row index within the bank (spanning all subarrays).
    pub row: u32,
    /// Cache-line-sized column burst index within the row.
    pub col: u32,
}

impl DramCoord {
    /// Checks every index is in range for `g`.
    pub fn validate(&self, g: &Geometry) -> Result<()> {
        if self.channel >= g.channels
            || self.rank >= g.ranks
            || self.bank_group >= g.bank_groups
            || self.bank >= g.banks_per_group
            || self.row >= g.rows_per_bank()
            || self.col >= g.columns
        {
            return Err(Error::Config(format!(
                "coordinate {self:?} out of range for geometry {g}"
            )));
        }
        Ok(())
    }

    /// Returns the subarray index containing this coordinate's row.
    #[inline]
    pub fn subarray(&self, g: &Geometry) -> u32 {
        g.subarray_of_row(self.row)
    }

    /// Returns a flat bank identifier unique across the system, useful
    /// as an index into per-bank state tables.
    #[inline]
    pub fn flat_bank(&self, g: &Geometry) -> usize {
        let per_rank = g.banks_per_rank();
        let bank_in_rank = self.bank_group * g.banks_per_group + self.bank;
        ((self.channel * g.ranks + self.rank) * per_rank + bank_in_rank) as usize
    }

    /// Returns the coordinate of the same column in a different row of
    /// the same bank.
    #[inline]
    pub fn with_row(&self, row: u32) -> DramCoord {
        DramCoord { row, ..*self }
    }
}

impl fmt::Display for DramCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/rk{}/bg{}/ba{}/r{}/c{}",
            self.channel, self.rank, self.bank_group, self.bank, self.row, self.col
        )
    }
}

/// Identifies a bank (without row/column), e.g. for per-bank queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankId {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank group index within the rank.
    pub bank_group: u32,
    /// Bank index within the bank group.
    pub bank: u32,
}

impl BankId {
    /// Extracts the bank identifier from a full coordinate.
    #[inline]
    pub fn of(c: &DramCoord) -> BankId {
        BankId {
            channel: c.channel,
            rank: c.rank,
            bank_group: c.bank_group,
            bank: c.bank,
        }
    }

    /// Returns a flat bank index unique across the system.
    #[inline]
    pub fn flat(&self, g: &Geometry) -> usize {
        let per_rank = g.banks_per_rank();
        let bank_in_rank = self.bank_group * g.banks_per_group + self.bank;
        ((self.channel * g.ranks + self.rank) * per_rank + bank_in_rank) as usize
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/rk{}/bg{}/ba{}",
            self.channel, self.rank, self.bank_group, self.bank
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Geometry::small_test().validate().unwrap();
        Geometry::medium().validate().unwrap();
        Geometry::server().validate().unwrap();
    }

    #[test]
    fn derived_counts() {
        let g = Geometry::small_test();
        assert_eq!(g.banks_per_rank(), 2);
        assert_eq!(g.total_banks(), 2);
        assert_eq!(g.rows_per_bank(), 32);
        assert_eq!(g.total_rows(), 64);
        assert_eq!(g.row_bytes(), 8 * 64);
        assert_eq!(g.capacity_bytes(), 64 * 8 * 64);
        assert_eq!(g.total_lines(), 64 * 8);
        assert_eq!(g.total_frames(), g.capacity_bytes() / 4096);
    }

    #[test]
    fn subarray_boundaries() {
        let g = Geometry::small_test();
        assert_eq!(g.subarray_of_row(0), 0);
        assert_eq!(g.subarray_of_row(15), 0);
        assert_eq!(g.subarray_of_row(16), 1);
        assert!(g.same_subarray(0, 15));
        assert!(!g.same_subarray(15, 16));
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut g = Geometry::small_test();
        g.rows_per_subarray = 12;
        assert!(g.validate().is_err());
        g.rows_per_subarray = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn coord_validation() {
        let g = Geometry::small_test();
        let ok = DramCoord {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 1,
            row: 31,
            col: 7,
        };
        assert!(ok.validate(&g).is_ok());
        assert!(ok.with_row(32).validate(&g).is_err());
        let bad = DramCoord { col: 8, ..ok };
        assert!(bad.validate(&g).is_err());
    }

    #[test]
    fn flat_bank_is_unique_and_dense() {
        let g = Geometry::server();
        let mut seen = std::collections::HashSet::new();
        for ch in 0..g.channels {
            for rk in 0..g.ranks {
                for bg in 0..g.bank_groups {
                    for ba in 0..g.banks_per_group {
                        let id = BankId {
                            channel: ch,
                            rank: rk,
                            bank_group: bg,
                            bank: ba,
                        };
                        let flat = id.flat(&g);
                        assert!(flat < g.total_banks() as usize);
                        assert!(seen.insert(flat), "duplicate flat bank {flat}");
                    }
                }
            }
        }
        assert_eq!(seen.len(), g.total_banks() as usize);
    }

    #[test]
    fn flat_bank_matches_coord_flat_bank() {
        let g = Geometry::medium();
        let c = DramCoord {
            channel: 0,
            rank: 0,
            bank_group: 1,
            bank: 1,
            row: 3,
            col: 0,
        };
        assert_eq!(c.flat_bank(&g), BankId::of(&c).flat(&g));
    }
}
