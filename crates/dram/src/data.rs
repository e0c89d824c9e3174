//! Sparse row-data storage with bit-flip application.
//!
//! Simulated capacities reach gigabytes, but only rows a workload
//! actually wrote need backing bytes, so storage is a sparse map from
//! `(flat_bank, internal_row)` to a boxed row buffer. Disturbance flips
//! XOR a bit in the stored row when present; flips against unwritten
//! rows are still tracked in a *poisoned-bits* set so later readers and
//! integrity checks observe the corruption (the enclave path, §4.4,
//! detects exactly this).

use hammertime_common::addr::CACHE_LINE_BYTES;
use std::collections::{BTreeSet, HashMap};

/// Key addressing one row's backing store.
pub type RowKey = (usize, u32);

const LINE_BYTES: usize = CACHE_LINE_BYTES as usize;

/// Data bits per ECC codeword (SEC-DED over 64-bit words, as on
/// server DIMMs).
pub const ECC_WORD_BITS: u64 = 64;

/// What ECC observed while reading one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EccOutcome {
    /// No flipped bits in the line.
    Clean,
    /// Every flipped word had a single flipped bit: all corrected
    /// (count of corrected bits).
    Corrected(u32),
    /// At least one word held two or more flips: detected but
    /// uncorrectable (count of such words). Cojocar et al. (S&P'19,
    /// cited in the paper's §1) show attackers can even aim for
    /// miscorrection; we model the detectable-failure case.
    Uncorrectable(u32),
}

/// Sparse backing store for row contents.
///
/// Poison is indexed per row so the hot read/write paths touch only
/// the queried row's flipped bits, never the device-wide set: a
/// defense that remaps thousands of pages while thousands of bits are
/// poisoned pays O(bits in this row), not O(bits in the device), per
/// line. Rows with no poisoned bits carry no entry, so the common
/// clean read is one hash probe.
#[derive(Debug, Clone, Default)]
pub struct RowDataStore {
    row_bytes: usize,
    rows: HashMap<RowKey, Box<[u8]>>,
    /// Bits flipped per row (written or not). Invariant: no empty
    /// sets — a row key is present iff at least one bit is poisoned.
    poisoned: HashMap<RowKey, BTreeSet<u64>>,
    /// Total poisoned bits across all rows (kept in step with
    /// `poisoned` so the metrics read is O(1)).
    poisoned_total: usize,
}

impl RowDataStore {
    /// Creates a store for rows of `row_bytes` bytes.
    pub fn new(row_bytes: usize) -> RowDataStore {
        assert!(row_bytes > 0 && row_bytes.is_multiple_of(CACHE_LINE_BYTES as usize));
        RowDataStore {
            row_bytes,
            rows: HashMap::new(),
            poisoned: HashMap::new(),
            poisoned_total: 0,
        }
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Writes one cache line (`col`-th 64-byte burst) of a row,
    /// materializing the row (zero-filled) if needed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one cache line or `col` is out
    /// of range.
    pub fn write_line(&mut self, key: RowKey, col: u32, data: &[u8]) {
        assert_eq!(data.len(), CACHE_LINE_BYTES as usize);
        let off = col as usize * CACHE_LINE_BYTES as usize;
        assert!(off + data.len() <= self.row_bytes, "column out of range");
        let row = self
            .rows
            .entry(key)
            .or_insert_with(|| vec![0u8; self.row_bytes].into_boxed_slice());
        row[off..off + data.len()].copy_from_slice(data);
        // A write re-establishes the intended value of these bits.
        let lo = off as u64 * 8;
        let hi = lo + CACHE_LINE_BYTES * 8;
        if let Some(bits) = self.poisoned.get_mut(&key) {
            let healed: Vec<u64> = bits.range(lo..hi).copied().collect();
            for bit in healed {
                bits.remove(&bit);
                self.poisoned_total -= 1;
            }
            if bits.is_empty() {
                self.poisoned.remove(&key);
            }
        }
    }

    /// Reads one cache line of a row. Returns zeros for never-written
    /// rows (DRAM powers up to an arbitrary-but-stable pattern; zero is
    /// the conventional model).
    pub fn read_line(&self, key: RowKey, col: u32) -> Vec<u8> {
        self.line(key, col).to_vec()
    }

    /// [`RowDataStore::read_line`] into a stack buffer.
    fn line(&self, key: RowKey, col: u32) -> [u8; LINE_BYTES] {
        let off = col as usize * LINE_BYTES;
        assert!(off + LINE_BYTES <= self.row_bytes);
        let mut data = [0u8; LINE_BYTES];
        if let Some(row) = self.rows.get(&key) {
            data.copy_from_slice(&row[off..off + LINE_BYTES]);
        }
        data
    }

    /// Applies a disturbance flip of `bit` in the row, XORing backing
    /// data if present and recording the poison either way.
    ///
    /// # Panics
    ///
    /// Panics if `bit` exceeds the row size.
    pub fn flip_bit(&mut self, key: RowKey, bit: u64) {
        assert!((bit as usize) < self.row_bytes * 8, "bit out of range");
        if let Some(row) = self.rows.get_mut(&key) {
            row[bit as usize / 8] ^= 1 << (bit % 8);
        }
        // Poison set is a toggle: flipping the same bit twice restores it.
        let bits = self.poisoned.entry(key).or_default();
        if bits.remove(&bit) {
            self.poisoned_total -= 1;
            if bits.is_empty() {
                self.poisoned.remove(&key);
            }
        } else {
            bits.insert(bit);
            self.poisoned_total += 1;
        }
    }

    /// Reads one cache line and classifies its damage through a
    /// SEC-DED ECC model. With `correct`, single-bit flips per 64-bit
    /// word are corrected in the returned data; multi-bit words are
    /// returned as-is and reported uncorrectable. Without it the raw
    /// bytes are returned.
    pub fn read_line_ecc(&self, key: RowKey, col: u32, correct: bool) -> (Vec<u8>, EccOutcome) {
        let mut data = self.line(key, col);
        let outcome = self.ecc_check(key, col, &mut data, correct);
        (data.to_vec(), outcome)
    }

    /// Copies one cache line to another location, as a read of `from`
    /// (raw, or SEC-DED corrected under `ecc`) followed by a write of
    /// the bytes read to `to`, which heals the destination's poison.
    pub fn copy_line(&mut self, from: RowKey, from_col: u32, to: RowKey, to_col: u32, ecc: bool) {
        let mut data = self.line(from, from_col);
        if ecc {
            self.ecc_check(from, from_col, &mut data, true);
        }
        self.write_line(to, to_col, &data);
    }

    /// Classifies the poisoned bits of line `col` of `key` by 64-bit
    /// ECC word and, with `correct`, flips each word's lone bad bit
    /// back in `data` (the line as stored).
    fn ecc_check(&self, key: RowKey, col: u32, data: &mut [u8], correct: bool) -> EccOutcome {
        let lo = col as u64 * CACHE_LINE_BYTES * 8;
        let hi = lo + CACHE_LINE_BYTES * 8;
        let Some(bits) = self.poisoned.get(&key) else {
            return EccOutcome::Clean;
        };
        let mut corrected = 0u32;
        let mut uncorrectable = 0u32;
        // The set is sorted, so a word's poisoned bits are adjacent.
        let mut line_bits = bits.range(lo..hi).map(|&bit| bit - lo).peekable();
        while let Some(bit) = line_bits.next() {
            let word = bit / ECC_WORD_BITS;
            let mut in_word = 1;
            while line_bits.next_if(|b| b / ECC_WORD_BITS == word).is_some() {
                in_word += 1;
            }
            if in_word == 1 {
                if correct {
                    data[bit as usize / 8] ^= 1 << (bit % 8);
                }
                corrected += 1;
            } else {
                uncorrectable += 1;
            }
        }
        if uncorrectable > 0 {
            EccOutcome::Uncorrectable(uncorrectable)
        } else if corrected > 0 {
            EccOutcome::Corrected(corrected)
        } else {
            EccOutcome::Clean
        }
    }

    /// Returns `true` if any bit of the given cache line is poisoned —
    /// the integrity-check primitive enclaves rely on (§4.4).
    pub fn line_is_poisoned(&self, key: RowKey, col: u32) -> bool {
        let lo = col as u64 * CACHE_LINE_BYTES * 8;
        let hi = lo + CACHE_LINE_BYTES * 8;
        self.poisoned
            .get(&key)
            .is_some_and(|bits| bits.range(lo..hi).next().is_some())
    }

    /// Returns `true` if any bit of the row is poisoned.
    pub fn row_is_poisoned(&self, key: RowKey) -> bool {
        self.poisoned.contains_key(&key)
    }

    /// Total poisoned bits across the device (metrics).
    pub fn poisoned_bits(&self) -> usize {
        self.poisoned_total
    }

    /// Number of materialized rows (memory accounting).
    pub fn materialized_rows(&self) -> usize {
        self.rows.len()
    }

    /// Copies an entire row's contents to another location (the OS
    /// remap/wear-leveling path uses this via the data path; provided
    /// here for verification in tests).
    pub fn copy_row(&mut self, from: RowKey, to: RowKey) {
        let data = self.rows.get(&from).cloned();
        match data {
            Some(d) => {
                self.rows.insert(to, d);
            }
            None => {
                self.rows.remove(&to);
            }
        }
        // Poison travels with the data.
        if let Some(old) = self.poisoned.remove(&to) {
            self.poisoned_total -= old.len();
        }
        if let Some(bits) = self.poisoned.remove(&from) {
            self.poisoned.insert(to, bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: usize = CACHE_LINE_BYTES as usize;

    fn store() -> RowDataStore {
        RowDataStore::new(8 * LINE)
    }

    fn line(fill: u8) -> Vec<u8> {
        vec![fill; LINE]
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = store();
        s.write_line((0, 5), 3, &line(0xAB));
        assert_eq!(s.read_line((0, 5), 3), line(0xAB));
        assert_eq!(s.read_line((0, 5), 2), line(0x00), "untouched column");
        assert_eq!(s.materialized_rows(), 1);
    }

    #[test]
    fn unwritten_rows_read_zero() {
        let s = store();
        assert_eq!(s.read_line((1, 9), 0), line(0));
        assert_eq!(s.materialized_rows(), 0);
    }

    #[test]
    fn flip_corrupts_written_data_and_is_detectable() {
        let mut s = store();
        s.write_line((0, 1), 0, &line(0x00));
        s.flip_bit((0, 1), 10); // byte 1, bit 2
        let read = s.read_line((0, 1), 0);
        assert_eq!(read[1], 0b100);
        assert!(s.line_is_poisoned((0, 1), 0));
        assert!(!s.line_is_poisoned((0, 1), 1));
        assert!(s.row_is_poisoned((0, 1)));
        assert_eq!(s.poisoned_bits(), 1);
    }

    #[test]
    fn flip_on_unwritten_row_is_tracked() {
        let mut s = store();
        s.flip_bit((2, 7), 100);
        assert!(s.row_is_poisoned((2, 7)));
        assert_eq!(s.materialized_rows(), 0);
    }

    #[test]
    fn double_flip_restores_bit() {
        let mut s = store();
        s.write_line((0, 0), 0, &line(0xFF));
        s.flip_bit((0, 0), 4);
        s.flip_bit((0, 0), 4);
        assert_eq!(s.read_line((0, 0), 0), line(0xFF));
        assert!(!s.row_is_poisoned((0, 0)));
    }

    #[test]
    fn rewrite_clears_poison_for_that_line_only() {
        let mut s = store();
        s.write_line((0, 0), 0, &line(0));
        s.write_line((0, 0), 1, &line(0));
        s.flip_bit((0, 0), 5); // line 0
        s.flip_bit((0, 0), LINE as u64 * 8 + 5); // line 1
        s.write_line((0, 0), 0, &line(0x11));
        assert!(!s.line_is_poisoned((0, 0), 0), "rewrite heals line 0");
        assert!(s.line_is_poisoned((0, 0), 1), "line 1 still poisoned");
    }

    #[test]
    fn copy_row_moves_data_and_poison() {
        let mut s = store();
        s.write_line((0, 3), 2, &line(0x77));
        s.flip_bit((0, 3), 9);
        s.copy_row((0, 3), (1, 8));
        assert_eq!(s.read_line((1, 8), 2), line(0x77));
        assert!(s.row_is_poisoned((1, 8)));
        // Destination had stale poison? ensure copy overwrote cleanly.
        s.write_line((0, 4), 0, &line(1));
        s.copy_row((0, 9), (0, 4)); // copy from unwritten row clears dest
        assert_eq!(s.read_line((0, 4), 0), line(0));
    }

    #[test]
    fn copy_line_is_a_read_then_a_write() {
        for ecc in [false, true] {
            let mut s = store();
            s.write_line((0, 0), 1, &line(0x00));
            s.flip_bit((0, 0), LINE as u64 * 8 + 3); // line 1, word 0
            s.flip_bit((1, 2), 5); // the destination line is poisoned
            s.copy_line((0, 0), 1, (1, 2), 0, ecc);
            let (read, _) = s.read_line_ecc((0, 0), 1, ecc);
            assert_eq!(s.read_line((1, 2), 0), read);
            assert_eq!(read[0], if ecc { 0x00 } else { 0x08 });
            assert!(!s.line_is_poisoned((1, 2), 0), "the write heals it");
            assert!(s.line_is_poisoned((0, 0), 1), "the source keeps its flip");
        }
    }

    #[test]
    #[should_panic(expected = "bit out of range")]
    fn flip_out_of_range_panics() {
        let mut s = store();
        s.flip_bit((0, 0), (8 * LINE * 8) as u64);
    }

    #[test]
    fn ecc_clean_line_reads_clean() {
        let mut s = store();
        s.write_line((0, 0), 0, &line(0x42));
        let (data, outcome) = s.read_line_ecc((0, 0), 0, true);
        assert_eq!(outcome, EccOutcome::Clean);
        assert_eq!(data, line(0x42));
    }

    #[test]
    fn ecc_corrects_single_bit_per_word() {
        let mut s = store();
        s.write_line((0, 0), 0, &line(0x00));
        // Two flips in two *different* 64-bit words of the same line.
        s.flip_bit((0, 0), 3); // word 0
        s.flip_bit((0, 0), 64 + 7); // word 1
        let (data, outcome) = s.read_line_ecc((0, 0), 0, true);
        assert_eq!(outcome, EccOutcome::Corrected(2));
        assert_eq!(data, line(0x00), "corrected data matches the original");
        // The raw read still shows the corruption.
        assert_ne!(s.read_line((0, 0), 0), line(0x00));
    }

    #[test]
    fn ecc_detects_double_bit_in_one_word() {
        let mut s = store();
        s.write_line((0, 0), 0, &line(0x00));
        s.flip_bit((0, 0), 10); // word 0
        s.flip_bit((0, 0), 20); // word 0 again
        s.flip_bit((0, 0), 70); // word 1: single, correctable
        let (data, outcome) = s.read_line_ecc((0, 0), 0, true);
        assert_eq!(outcome, EccOutcome::Uncorrectable(1));
        // Word 1's bit was still corrected; word 0 stays corrupted.
        assert_eq!(data[8], 0, "word 1 corrected");
        assert_ne!(data[1] & 0b100, 0, "word 0 bit 10 still flipped");
    }

    #[test]
    fn ecc_is_scoped_to_the_requested_line() {
        let mut s = store();
        s.write_line((0, 0), 0, &line(0));
        s.write_line((0, 0), 1, &line(0));
        s.flip_bit((0, 0), 5); // line 0
        let (_, outcome1) = s.read_line_ecc((0, 0), 1, true);
        assert_eq!(outcome1, EccOutcome::Clean, "line 1 unaffected");
    }
}
