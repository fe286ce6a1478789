//! Byte-level (de)serialization of the core Phi data structures.
//!
//! The compiled-artifact runtime (`phi-runtime`) persists calibrated
//! [`PatternSet`]s / [`LayerPatterns`] — and, for cached traces, whole
//! [`Decomposition`]s — in a compact binary layout: little-endian integers,
//! `u32` length prefixes, no padding, no external dependencies. This module
//! owns the encoding of the *core* types only; artifact-level concerns
//! (magic, format version, checksum) live in `phi-runtime`, which frames
//! these records.
//!
//! Every `read_*` function is safe on untrusted bytes: truncation and
//! domain violations surface as [`WireError`], never as panics or oversized
//! allocations.
//!
//! # Example
//!
//! ```
//! use phi_core::wire::{read_pattern_set, write_pattern_set, Reader};
//! use phi_core::{Pattern, PatternSet};
//!
//! let set = PatternSet::new(4, vec![Pattern::new(0b0110, 4), Pattern::new(0b1011, 4)]);
//! let mut bytes = Vec::new();
//! write_pattern_set(&set, &mut bytes);
//! let back = read_pattern_set(&mut Reader::new(&bytes))?;
//! assert_eq!(back, set);
//! # Ok::<(), phi_core::wire::WireError>(())
//! ```

use crate::calibrate::LayerPatterns;
use crate::decompose::{Decomposition, L2Entry, LayerMatchIndex, MatchIndex};
use crate::pattern::{Pattern, PatternSet};
use std::fmt;

/// Errors produced while decoding untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a record was complete.
    Truncated {
        /// Byte offset at which more data was expected.
        at: usize,
        /// Number of bytes the pending read required.
        needed: usize,
    },
    /// A structurally complete record carried an out-of-domain value.
    Corrupt {
        /// Byte offset of the offending record.
        at: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at, needed } => {
                write!(f, "truncated input: needed {needed} more bytes at offset {at}")
            }
            WireError::Corrupt { at, reason } => {
                write!(f, "corrupt record at offset {at}: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias for wire decoding results.
pub type Result<T> = std::result::Result<T, WireError>;

/// A bounds-checked cursor over a byte buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated { at: self.pos, needed: n - self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` stored as its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` stored as its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on short input and
    /// [`WireError::Corrupt`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<String> {
        let at = self.pos;
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt { at, reason: "invalid UTF-8 string".to_owned() })
    }

    /// Reads a `u32` element count for records of `elem_size` bytes each,
    /// rejecting counts the remaining buffer cannot possibly satisfy (so a
    /// corrupted length cannot trigger a huge allocation).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when the declared payload exceeds
    /// the remaining bytes.
    pub fn count(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(elem_size);
        if self.remaining() < needed {
            return Err(WireError::Truncated { at: self.pos, needed: needed - self.remaining() });
        }
        Ok(n)
    }

    fn corrupt(&self, reason: impl Into<String>) -> WireError {
        WireError::Corrupt { at: self.pos, reason: reason.into() }
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern (bit-exact roundtrip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends an `f32` as its little-endian bit pattern (bit-exact roundtrip).
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
///
/// # Panics
///
/// Panics if the string exceeds `u32::MAX` bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32 length"));
    out.extend_from_slice(s.as_bytes());
}

/// Serializes a [`PatternSet`]: `width u32, count u32, bits u64 × count`.
pub fn write_pattern_set(set: &PatternSet, out: &mut Vec<u8>) {
    put_u32(out, set.width() as u32);
    put_u32(out, set.len() as u32);
    for p in set.patterns() {
        put_u64(out, p.bits());
    }
}

/// Deserializes a [`PatternSet`] written by [`write_pattern_set`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation, an out-of-range width, more than
/// [`PatternSet::MAX_PATTERNS`] patterns, or pattern bits set beyond the
/// declared width.
pub fn read_pattern_set(r: &mut Reader<'_>) -> Result<PatternSet> {
    let width = r.u32()? as usize;
    if !(1..=64).contains(&width) {
        return Err(r.corrupt(format!("pattern width {width} outside 1..=64")));
    }
    let count = r.count(8)?;
    if count > PatternSet::MAX_PATTERNS {
        return Err(r.corrupt(format!(
            "pattern count {count} exceeds the {} a set can index",
            PatternSet::MAX_PATTERNS
        )));
    }
    let mut patterns = Vec::with_capacity(count);
    for _ in 0..count {
        let bits = r.u64()?;
        if width < 64 && bits >> width != 0 {
            return Err(r.corrupt(format!("pattern bits {bits:#x} exceed width {width}")));
        }
        patterns.push(Pattern::new(bits, width));
    }
    Ok(PatternSet::new(width, patterns))
}

/// Serializes [`LayerPatterns`]: `k u32, partitions u32`, then each
/// partition's [`write_pattern_set`] record.
pub fn write_layer_patterns(patterns: &LayerPatterns, out: &mut Vec<u8>) {
    put_u32(out, patterns.k() as u32);
    put_u32(out, patterns.num_partitions() as u32);
    for set in patterns.sets() {
        write_pattern_set(set, out);
    }
}

/// Deserializes [`LayerPatterns`] written by [`write_layer_patterns`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation, invalid widths, or a partition
/// whose width disagrees with the layer's `k`.
pub fn read_layer_patterns(r: &mut Reader<'_>) -> Result<LayerPatterns> {
    let k = r.u32()? as usize;
    // Validate k even when zero partitions follow (downstream geometry
    // arithmetic divides by it).
    if !(1..=64).contains(&k) {
        return Err(r.corrupt(format!("layer k {k} outside 1..=64")));
    }
    // A pattern-set record is at least 8 bytes (width + count).
    let parts = r.count(8)?;
    let mut sets = Vec::with_capacity(parts);
    for _ in 0..parts {
        let set = read_pattern_set(r)?;
        if set.width() != k {
            return Err(r.corrupt(format!("partition width {} != layer k {k}", set.width())));
        }
        sets.push(set);
    }
    Ok(LayerPatterns::new(k, sets))
}

/// Serializes a [`MatchIndex`]: `width u32`, then per popcount bucket
/// (`0..=width` buckets): `count u32, pattern index u32 × count`.
///
/// Pattern bits are not stored — the index is derived state over a
/// [`PatternSet`] that is always serialized alongside it, so
/// [`read_match_index`] resolves the bits from (and validates the record
/// against) that set.
pub fn write_match_index(index: &MatchIndex, out: &mut Vec<u8>) {
    put_u32(out, index.width() as u32);
    for pc in 0..=index.width() {
        let bucket = index.bucket_indices(pc);
        put_u32(out, bucket.len() as u32);
        for &idx in bucket {
            put_u32(out, idx);
        }
    }
}

/// Deserializes a [`MatchIndex`] written by [`write_match_index`],
/// resolving pattern bits from `set`.
///
/// The validation is complete: every index must be in range, sit in the
/// bucket of its pattern's popcount, ascend within its bucket, and the
/// buckets must cover the whole set — which together pin the record to
/// exactly [`MatchIndex::new`]\(`set`\). Corrupted bytes can therefore
/// never smuggle in an index that disagrees with its pattern set.
///
/// # Errors
///
/// Returns [`WireError`] on truncation or any of the violations above.
pub fn read_match_index(r: &mut Reader<'_>, set: &PatternSet) -> Result<MatchIndex> {
    let width = r.u32()? as usize;
    if width != set.width() {
        return Err(r.corrupt(format!("match index width {width} != set width {}", set.width())));
    }
    let mut buckets = Vec::with_capacity(width + 1);
    let mut total = 0usize;
    for pc in 0..=width {
        let count = r.count(4)?;
        let mut bucket = Vec::with_capacity(count);
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let idx = r.u32()?;
            if idx as usize >= set.len() {
                return Err(r.corrupt(format!("pattern index {idx} >= set size {}", set.len())));
            }
            if set.popcount(idx as usize) != pc as u32 {
                return Err(r.corrupt(format!(
                    "pattern {idx} (popcount {}) filed under bucket {pc}",
                    set.popcount(idx as usize)
                )));
            }
            if prev.is_some_and(|p| p >= idx) {
                return Err(r.corrupt("bucket indices not strictly ascending"));
            }
            prev = Some(idx);
            bucket.push((set.pattern(idx as usize).bits(), idx));
        }
        total += count;
        buckets.push(bucket);
    }
    if total != set.len() {
        return Err(r.corrupt(format!("index covers {total} of {} patterns", set.len())));
    }
    Ok(MatchIndex::from_buckets(buckets))
}

/// Serializes a [`LayerMatchIndex`]: `partitions u32`, then each
/// partition's [`write_match_index`] record.
pub fn write_layer_match_index(index: &LayerMatchIndex, out: &mut Vec<u8>) {
    put_u32(out, index.num_partitions() as u32);
    for midx in index.indexes() {
        write_match_index(midx, out);
    }
}

/// Deserializes a [`LayerMatchIndex`] written by
/// [`write_layer_match_index`], resolving and validating each partition
/// against `patterns` (see [`read_match_index`]).
///
/// # Errors
///
/// Returns [`WireError`] on truncation, a partition-count mismatch, or
/// any per-partition violation.
pub fn read_layer_match_index(
    r: &mut Reader<'_>,
    patterns: &LayerPatterns,
) -> Result<LayerMatchIndex> {
    // A match-index record is at least 8 bytes (width + one bucket count).
    let parts = r.count(8)?;
    if parts != patterns.num_partitions() {
        return Err(r.corrupt(format!(
            "match index covers {parts} partitions, patterns have {}",
            patterns.num_partitions()
        )));
    }
    let mut indexes = Vec::with_capacity(parts);
    for part in 0..parts {
        indexes.push(read_match_index(r, patterns.set(part))?);
    }
    Ok(LayerMatchIndex::from_indexes(indexes))
}

/// Serializes a [`Decomposition`]: shape, its [`LayerPatterns`], the
/// Level-1 index matrix (`u16` per tile, `0xFFFF` = no pattern), and the
/// per-row Level-2 runs (`count u32`, then `col u32, sign u8` per entry).
pub fn write_decomposition(decomp: &Decomposition, out: &mut Vec<u8>) {
    put_u64(out, decomp.rows() as u64);
    put_u64(out, decomp.cols() as u64);
    write_layer_patterns(decomp.patterns(), out);
    for row in 0..decomp.rows() {
        for part in 0..decomp.num_partitions() {
            let idx = decomp.l1_index(row, part).unwrap_or(u16::MAX);
            out.extend_from_slice(&idx.to_le_bytes());
        }
    }
    for row in 0..decomp.rows() {
        let entries = decomp.l2_row(row);
        put_u32(out, entries.len() as u32);
        for e in entries {
            put_u32(out, e.col);
            out.push(if e.value > 0 { 0 } else { 1 });
        }
    }
}

/// Deserializes a [`Decomposition`] written by [`write_decomposition`],
/// revalidating every index against the embedded pattern sets and
/// recomputing the sparsity counters (so corrupted bytes cannot smuggle in
/// inconsistent statistics).
///
/// # Errors
///
/// Returns [`WireError`] on truncation, a pattern index out of range for
/// its partition, unsorted or out-of-bounds Level-2 columns, or an invalid
/// sign byte.
pub fn read_decomposition(r: &mut Reader<'_>) -> Result<Decomposition> {
    let rows = r.u64()? as usize;
    let cols = r.u64()? as usize;
    let patterns = read_layer_patterns(r)?;
    let k = patterns.k();
    let parts = patterns.num_partitions();
    if parts != cols.div_ceil(k) {
        return Err(r.corrupt(format!("{parts} partitions cannot tile {cols} columns at k {k}")));
    }
    let tiles = rows.checked_mul(parts).ok_or_else(|| r.corrupt("tile count overflow"))?;
    // Bound the declared geometry by the remaining bytes before any
    // allocation: every tile costs 2 bytes and every row at least 4 (its
    // L2 count), so an absurd `rows` cannot trigger a huge reservation —
    // even with zero partitions.
    let min_needed = tiles
        .checked_mul(2)
        .and_then(|t| t.checked_add(rows.checked_mul(4)?))
        .ok_or_else(|| r.corrupt("row/tile byte count overflow"))?;
    if r.remaining() < min_needed {
        return Err(WireError::Truncated { at: r.position(), needed: min_needed - r.remaining() });
    }
    let mut l1 = Vec::with_capacity(tiles);
    let mut l1_ones = 0u64;
    for i in 0..tiles {
        let part = i % parts;
        let raw = u16::from_le_bytes(r.bytes(2)?.try_into().expect("2 bytes"));
        if raw == u16::MAX {
            l1.push(None);
            continue;
        }
        let set = patterns.set(part);
        if raw as usize >= set.len() {
            return Err(r.corrupt(format!("pattern index {raw} >= set size {}", set.len())));
        }
        let width = k.min(cols - part * k);
        let width_mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        l1_ones += u64::from((set.pattern(raw as usize).bits() & width_mask).count_ones());
        l1.push(Some(raw));
    }
    let mut l2 = Vec::with_capacity(rows);
    let mut l2_pos = 0u64;
    let mut l2_neg = 0u64;
    for _ in 0..rows {
        let count = r.count(5)?;
        let mut entries = Vec::with_capacity(count);
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let col = r.u32()?;
            if col as usize >= cols {
                return Err(r.corrupt(format!("L2 column {col} outside {cols} columns")));
            }
            if prev.is_some_and(|p| p >= col) {
                return Err(r.corrupt("L2 columns not strictly ascending"));
            }
            prev = Some(col);
            let value = match r.u8()? {
                0 => {
                    l2_pos += 1;
                    1
                }
                1 => {
                    l2_neg += 1;
                    -1
                }
                other => return Err(r.corrupt(format!("invalid L2 sign byte {other}"))),
            };
            entries.push(L2Entry { col, value });
        }
        l2.push(entries);
    }
    // bit_nnz is an identity of the lossless decomposition, not independent
    // information — recompute it rather than trusting the wire. A negative
    // correction needs a covering pattern one, so an underflow here means
    // the bytes never came from a real decomposition.
    let bit_nnz = (l1_ones + l2_pos).checked_sub(l2_neg).ok_or_else(|| {
        r.corrupt(format!("{l2_neg} negative corrections exceed {l1_ones} pattern ones"))
    })?;
    Ok(Decomposition::from_raw_parts(
        rows, cols, patterns, l1, l2, l1_ones, l2_pos, l2_neg, bit_nnz,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{CalibrationConfig, Calibrator};
    use crate::decompose::decompose;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_core::SpikeMatrix;

    fn calibrated(seed: u64, rows: usize, cols: usize, q: usize) -> (SpikeMatrix, LayerPatterns) {
        let mut rng = StdRng::seed_from_u64(seed);
        let acts = SpikeMatrix::random(rows, cols, 0.2, &mut rng);
        let patterns = Calibrator::new(CalibrationConfig { q, ..Default::default() })
            .calibrate(&acts, &mut rng);
        (acts, patterns)
    }

    #[test]
    fn pattern_set_roundtrips_byte_identically() {
        let (_, patterns) = calibrated(1, 200, 50, 16);
        for set in patterns.sets() {
            let mut bytes = Vec::new();
            write_pattern_set(set, &mut bytes);
            let back = read_pattern_set(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back, *set);
            let mut again = Vec::new();
            write_pattern_set(&back, &mut again);
            assert_eq!(again, bytes);
        }
    }

    #[test]
    fn layer_patterns_roundtrip() {
        let (_, patterns) = calibrated(2, 300, 70, 32);
        let mut bytes = Vec::new();
        write_layer_patterns(&patterns, &mut bytes);
        let mut r = Reader::new(&bytes);
        let back = read_layer_patterns(&mut r).unwrap();
        assert_eq!(back, patterns);
        assert!(r.is_exhausted());
    }

    #[test]
    fn match_index_roundtrips_and_equals_the_rebuilt_index() {
        let (_, patterns) = calibrated(11, 250, 60, 16);
        let index = LayerMatchIndex::new(&patterns);
        let mut bytes = Vec::new();
        write_layer_match_index(&index, &mut bytes);
        let mut r = Reader::new(&bytes);
        let back = read_layer_match_index(&mut r, &patterns).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, index);
        let mut again = Vec::new();
        write_layer_match_index(&back, &mut again);
        assert_eq!(again, bytes);
        // Truncation at every length is rejected.
        for len in 0..bytes.len() {
            assert!(
                read_layer_match_index(&mut Reader::new(&bytes[..len]), &patterns).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn corrupt_match_index_records_are_rejected() {
        let set = PatternSet::new(
            4,
            vec![Pattern::new(0b0110, 4), Pattern::new(0b1000, 4), Pattern::new(0b0111, 4)],
        );
        let index = MatchIndex::new(&set);
        let mut good = Vec::new();
        write_match_index(&index, &mut good);

        // Width disagreeing with the set.
        let mut bytes = good.clone();
        bytes[0..4].copy_from_slice(&5u32.to_le_bytes());
        assert!(read_match_index(&mut Reader::new(&bytes), &set).is_err());

        // An index filed under the wrong popcount bucket: swap the
        // single-entry buckets of popcounts 1 and 2 by rewriting their
        // counts. Layout: width, c0, c1, idx(pc1), c2, idx(pc2), ...
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 4); // width
        put_u32(&mut bytes, 0); // popcount-0 bucket
        put_u32(&mut bytes, 1);
        put_u32(&mut bytes, 0); // pattern 0 has popcount 2: wrong bucket
        put_u32(&mut bytes, 1);
        put_u32(&mut bytes, 1);
        put_u32(&mut bytes, 1);
        put_u32(&mut bytes, 2);
        put_u32(&mut bytes, 0);
        assert!(matches!(
            read_match_index(&mut Reader::new(&bytes), &set),
            Err(WireError::Corrupt { .. })
        ));

        // A record that silently drops a pattern fails the coverage check.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 4);
        put_u32(&mut bytes, 0); // pc 0
        put_u32(&mut bytes, 1); // pc 1: pattern 1
        put_u32(&mut bytes, 1);
        put_u32(&mut bytes, 1); // pc 2: pattern 0 only (pattern 2's pc-3 slot empty)
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, 0); // pc 3: empty — pattern 2 missing
        put_u32(&mut bytes, 0); // pc 4
        assert!(matches!(
            read_match_index(&mut Reader::new(&bytes), &set),
            Err(WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn decomposition_roundtrip_preserves_everything() {
        let (acts, patterns) = calibrated(3, 120, 40, 16);
        let d = decompose(&acts, &patterns);
        let mut bytes = Vec::new();
        write_decomposition(&d, &mut bytes);
        let mut r = Reader::new(&bytes);
        let back = read_decomposition(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.rows(), d.rows());
        assert_eq!(back.cols(), d.cols());
        assert_eq!(back.patterns(), d.patterns());
        for row in 0..d.rows() {
            assert_eq!(back.l2_row(row), d.l2_row(row));
            for part in 0..d.num_partitions() {
                assert_eq!(back.l1_index(row, part), d.l1_index(row, part));
            }
        }
        assert_eq!(back.stats(), d.stats());
        assert!(back.verify_lossless(&acts));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let (acts, patterns) = calibrated(4, 20, 20, 8);
        let d = decompose(&acts, &patterns);
        let mut bytes = Vec::new();
        write_decomposition(&d, &mut bytes);
        for len in 0..bytes.len() {
            let err = read_decomposition(&mut Reader::new(&bytes[..len]))
                .expect_err("truncated input must fail");
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::Corrupt { .. }),
                "unexpected error at {len}: {err}"
            );
        }
    }

    #[test]
    fn out_of_domain_values_are_corrupt_not_panics() {
        // Pattern width 0.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, 0);
        assert!(matches!(
            read_pattern_set(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt { .. })
        ));

        // Pattern bits beyond the width.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 4);
        put_u32(&mut bytes, 1);
        put_u64(&mut bytes, 0b10000);
        assert!(matches!(
            read_pattern_set(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt { .. })
        ));

        // A declared element count far beyond the buffer must not allocate.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 16);
        put_u32(&mut bytes, u32::MAX);
        assert!(matches!(
            read_pattern_set(&mut Reader::new(&bytes)),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn pattern_counts_beyond_the_l1_index_space_are_corrupt() {
        // 65535 well-formed width-20 patterns: structurally complete, but
        // one more than u16 Level-1 indices can address next to the
        // reserved "no pattern" index. The loader must return a typed
        // error instead of reaching the constructor's panic.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 20);
        put_u32(&mut bytes, (PatternSet::MAX_PATTERNS + 1) as u32);
        for i in 0..=PatternSet::MAX_PATTERNS as u64 {
            put_u64(&mut bytes, i & 0xF_FFFF);
        }
        let err = read_pattern_set(&mut Reader::new(&bytes)).expect_err("count over the limit");
        assert!(
            matches!(&err, WireError::Corrupt { reason, .. } if reason.contains("65535")),
            "{err}"
        );
    }

    #[test]
    fn hostile_geometry_is_rejected_without_panicking() {
        // k = 0 with zero partitions must not reach div_ceil.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1); // rows
        put_u64(&mut bytes, 4); // cols
        put_u32(&mut bytes, 0); // k = 0
        put_u32(&mut bytes, 0); // partitions = 0
        assert!(matches!(
            read_decomposition(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt { .. })
        ));

        // An absurd row count with zero-cost tiles (cols = 0) must be
        // bounded by the buffer, not allocated.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX); // rows
        put_u64(&mut bytes, 0); // cols
        put_u32(&mut bytes, 5); // k
        put_u32(&mut bytes, 0); // partitions
        assert!(matches!(
            read_decomposition(&mut Reader::new(&bytes)),
            Err(WireError::Truncated { .. } | WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn unbacked_negative_correction_is_corrupt() {
        // One unassigned tile plus a −1 correction: no pattern one covers
        // it, so the bit_nnz identity would underflow. Must be Corrupt.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1); // rows
        put_u64(&mut bytes, 4); // cols
        put_u32(&mut bytes, 4); // k
        put_u32(&mut bytes, 1); // partitions
        put_u32(&mut bytes, 4); // set width
        put_u32(&mut bytes, 0); // set is empty
        bytes.extend_from_slice(&u16::MAX.to_le_bytes()); // tile unassigned
        put_u32(&mut bytes, 1); // one L2 entry
        put_u32(&mut bytes, 2); // col
        bytes.push(1); // sign −1
        assert!(matches!(
            read_decomposition(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn corrupt_l1_index_is_rejected() {
        // Every row matches the single pattern exactly, so tile (0, 0) is
        // guaranteed to be assigned.
        let proto = 0b0110_1001_0110_1001u64;
        let acts = SpikeMatrix::from_fn(10, 16, |_, c| (proto >> c) & 1 == 1);
        let patterns =
            LayerPatterns::new(16, vec![PatternSet::new(16, vec![Pattern::new(proto, 16)])]);
        let d = decompose(&acts, &patterns);
        let mut bytes = Vec::new();
        write_decomposition(&d, &mut bytes);
        // Find the first assigned tile and overwrite its index with an
        // out-of-range value.
        let mut header = Vec::new();
        put_u64(&mut header, d.rows() as u64);
        put_u64(&mut header, d.cols() as u64);
        write_layer_patterns(d.patterns(), &mut header);
        let tile_base = header.len();
        let assigned = (0..d.rows() * d.num_partitions())
            .find(|i| d.l1_index(i / d.num_partitions(), i % d.num_partitions()).is_some())
            .expect("some tile is assigned");
        bytes[tile_base + assigned * 2..tile_base + assigned * 2 + 2]
            .copy_from_slice(&0x7FFFu16.to_le_bytes());
        assert!(matches!(
            read_decomposition(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt { .. })
        ));
    }
}
