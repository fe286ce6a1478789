//! Binary activation patterns.
//!
//! A *pattern* is a pre-defined combination of 0s and 1s of width `k ≤ 64`
//! (the paper uses `k = 16`). Patterns live in one machine word, so the two
//! quantities the whole framework is built on — Hamming distance to an
//! activation row-tile, and the set of mismatching bit positions — are a
//! `popcount(xor)` and the xor word itself.
//!
//! A [`PatternSet`] of width ≤ 16 with at most
//! [`snn_core::simd::PLANE16_MAX_LEN`] patterns is *packed*: it also keeps
//! its patterns as one `u16` plane, which a single brute-force
//! [`snn_core::simd::min_hamming16`] probe decides a tile against — the
//! shape of Phi's systolic matcher, which compares every tile with all q
//! patterns of its partition. Every served layer is packed (k = 16,
//! q ≤ 128). When every set of a layer is packed,
//! [`crate::LayerPatterns`] also regroups the planes pattern-major,
//! 32 partitions to a group ([`snn_core::simd::LanePlanes16`]), so the
//! full decomposition sweep decides 32 tiles per vector step.

use snn_core::simd;
use std::fmt;

/// A binary pattern of width `len ≤ 64`, stored in the low bits of a `u64`.
///
/// # Example
///
/// ```
/// use phi_core::Pattern;
///
/// let p = Pattern::new(0b0110, 4);
/// assert_eq!(p.hamming(0b1110), 1);
/// assert_eq!(p.popcount(), 2);
/// assert!(!p.is_one_hot());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pattern {
    bits: u64,
    len: u8,
}

impl Pattern {
    /// Creates a pattern from its bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or exceeds 64, or if `bits` has bits set at or
    /// above `len`.
    pub fn new(bits: u64, len: usize) -> Self {
        assert!((1..=64).contains(&len), "pattern length must be within 1..=64");
        if len < 64 {
            assert_eq!(bits >> len, 0, "bits set beyond pattern length");
        }
        Pattern { bits, len: len as u8 }
    }

    /// The all-zero pattern of width `len` (used as the "no pattern" row).
    pub fn zero(len: usize) -> Self {
        Pattern::new(0, len)
    }

    /// Raw bits, low-aligned.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Pattern width in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the pattern has zero width (never constructible; provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of ones.
    #[inline]
    pub fn popcount(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Hamming distance to a raw tile word of the same width (routed
    /// through the workspace's one distance primitive,
    /// [`snn_core::simd::hamming64`]).
    #[inline]
    pub fn hamming(&self, tile: u64) -> u32 {
        simd::hamming64(self.bits, tile)
    }

    /// Whether this is the all-zero pattern.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// Whether exactly one bit is set. One-hot patterns are filtered during
    /// calibration: their PWP is just a weight row, so they add no value
    /// (§3.2).
    #[inline]
    pub fn is_one_hot(&self) -> bool {
        self.bits != 0 && self.bits & (self.bits - 1) == 0
    }

    /// Bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit {i} out of range");
        (self.bits >> i) & 1 == 1
    }

    /// Iterates over the positions of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern({:0width$b})", self.bits, width = self.len())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.bits, width = self.len())
    }
}

impl fmt::Binary for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

/// The calibrated pattern set for one K-partition of one layer.
///
/// Pattern index 0 is reserved by the hardware for "no pattern assigned"
/// (§3.1), so stored patterns are addressed 1-based by
/// [`PatternSet::pattern`]-style lookups in the decomposition; this type
/// stores only the real patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    width: usize,
    patterns: Vec<Pattern>,
    /// `(bits, lowest index)` sorted by bits — the matcher's exact-match
    /// shortcut. Derived from `patterns` in the constructor.
    exact: Vec<(u64, u32)>,
    /// Per-pattern popcounts, precomputed once so the pruned scan of
    /// [`Self::best_match`] does not recount bits per probe. Derived from
    /// `patterns` in the constructor.
    popcounts: Vec<u32>,
    /// Union of all single-bit patterns: bit `b` is set iff some pattern
    /// equals `1 << b`. Calibration filters one-hot patterns (§3.2), so
    /// this is normally 0 — letting the decomposition's single-bit tiles
    /// skip their exact-match probe with one AND. Derived from `patterns`
    /// in the constructor.
    one_hot: u64,
    /// The patterns' raw bits as one contiguous, index-ordered plane —
    /// the layout the [`simd`] kernels batch-probe 4–8 patterns per
    /// vector iteration. Derived from `patterns` in the constructor.
    bits: Vec<u64>,
    /// The same bits as `u16` lanes when the set is packed (width ≤ 16,
    /// at most [`simd::PLANE16_MAX_LEN`] patterns), `None` otherwise.
    /// Derived from `patterns` in the constructor.
    plane16: Option<Vec<u16>>,
}

impl PatternSet {
    /// The most patterns one set may hold: Level-1 indices are `u16`, and
    /// `u16::MAX` is the decomposition's reserved "no pattern" index.
    pub const MAX_PATTERNS: usize = u16::MAX as usize - 1;

    /// Creates a set from patterns of uniform width.
    ///
    /// # Panics
    ///
    /// Panics if patterns disagree on width, or if there are more than
    /// [`Self::MAX_PATTERNS`] (65534) of them.
    pub fn new(width: usize, patterns: Vec<Pattern>) -> Self {
        assert!(
            patterns.len() <= Self::MAX_PATTERNS,
            "a pattern set holds at most {} patterns, got {}",
            Self::MAX_PATTERNS,
            patterns.len()
        );
        for p in &patterns {
            assert_eq!(p.len(), width, "pattern width mismatch");
        }
        let mut exact: Vec<(u64, u32)> =
            patterns.iter().enumerate().map(|(i, p)| (p.bits(), i as u32)).collect();
        // Sorting by (bits, index) then deduping by bits keeps the lowest
        // index per value, matching the tie rule of [`Self::best_match`].
        exact.sort_unstable();
        exact.dedup_by_key(|&mut (bits, _)| bits);
        let popcounts = patterns.iter().map(Pattern::popcount).collect();
        let one_hot = patterns.iter().filter(|p| p.is_one_hot()).fold(0, |m, p| m | p.bits());
        let bits = patterns.iter().map(Pattern::bits).collect();
        let plane16 = packed(width, patterns.len())
            .then(|| patterns.iter().map(|p| p.bits() as u16).collect());
        PatternSet { width, patterns, exact, popcounts, one_hot, bits, plane16 }
    }

    /// An empty set (every row falls back to bit sparsity).
    pub fn empty(width: usize) -> Self {
        PatternSet {
            width,
            patterns: Vec::new(),
            exact: Vec::new(),
            popcounts: Vec::new(),
            one_hot: 0,
            bits: Vec::new(),
            plane16: packed(width, 0).then(Vec::new),
        }
    }

    /// Pattern width `k`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored patterns `q`.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The stored patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Pattern at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn pattern(&self, idx: usize) -> Pattern {
        self.patterns[idx]
    }

    /// Union of all single-bit (one-hot) patterns in the set: bit `b` is
    /// set iff some pattern equals `1 << b`. A single-bit tile with
    /// `tile & one_hot_mask() == 0` therefore cannot have an exact match,
    /// without probing [`Self::exact_match`]. Calibrated sets filter
    /// one-hot patterns (§3.2), so this is usually 0.
    #[inline]
    pub fn one_hot_mask(&self) -> u64 {
        self.one_hot
    }

    /// The patterns' raw bits as one contiguous, index-ordered plane —
    /// the layout the [`simd`] distance kernels consume.
    #[inline]
    pub fn pattern_bits(&self) -> &[u64] {
        &self.bits
    }

    /// The patterns as `u16` lanes, index-ordered — `Some` exactly when
    /// the set is packed (width ≤ 16 and at most
    /// [`simd::PLANE16_MAX_LEN`] patterns).
    #[inline]
    pub(crate) fn plane16(&self) -> Option<&[u16]> {
        self.plane16.as_deref()
    }

    /// Finds the pattern minimizing Hamming distance to `tile`, returning
    /// `(index, distance)`, or `None` if the set is empty. Ties resolve to
    /// the lowest index (deterministic, matching the hardware matcher's
    /// minimum-selection tree).
    ///
    /// At a vector [`simd::level`], a packed set answers with one
    /// brute-force [`simd::min_hamming16`] call over its `u16` plane,
    /// exact and inexact hits alike; its lane key
    /// `(distance << 11) | index` makes the unsigned minimum this
    /// function's tie rule. Other sets answer an exact match from a
    /// sorted lookup in O(log q) and otherwise run one batched
    /// [`simd::min_hamming`] probe over the contiguous pattern bit-plane,
    /// whose first-minimum lane rule is the same tie rule.
    ///
    /// At scalar level every set takes the exact lookup and then the
    /// pruned scan — the *linear reference matcher* the faster paths are
    /// tested against. The scan skips any pattern whose precomputed
    /// popcount puts the Hamming lower bound
    /// `|popcount(p) − popcount(tile)|` at or above the best distance so
    /// far (such a pattern can never strictly improve, so the skip is
    /// bit-identical), and stops outright at distance 1 (the minimum
    /// still attainable once the exact lookup ruled out distance 0). The
    /// `match_cache` suite property-tests every level against the
    /// first-minimum [`simd::scalar::min_hamming`] scan.
    pub fn best_match(&self, tile: u64) -> Option<(usize, u32)> {
        let vector = simd::level() != simd::SimdLevel::Scalar;
        if let (true, Some(plane), Ok(tile16)) = (vector, self.plane16(), u16::try_from(tile)) {
            return simd::min_hamming16(plane, tile16);
        }
        if let Some(idx) = self.exact_match(tile) {
            return Some((idx, 0));
        }
        if vector {
            return simd::min_hamming(&self.bits, tile);
        }
        let tp = tile.count_ones();
        let mut best: Option<(usize, u32)> = None;
        for (i, p) in self.patterns.iter().enumerate() {
            if let Some((_, bd)) = best {
                if self.popcounts[i].abs_diff(tp) >= bd {
                    continue;
                }
            }
            let d = p.hamming(tile);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
                if d <= 1 {
                    break;
                }
            }
        }
        best
    }

    /// Answers only the distance-0 half of [`Self::best_match`]: the
    /// lowest-index pattern exactly equal to `tile`, from the sorted
    /// lookup in O(log q). Decomposition uses this alone for tiles whose
    /// own bit count rules out any inexact assignment.
    pub fn exact_match(&self, tile: u64) -> Option<usize> {
        self.exact
            .binary_search_by_key(&tile, |&(bits, _)| bits)
            .ok()
            .map(|pos| self.exact[pos].1 as usize)
    }
}

/// Whether a set of `len` width-`width` patterns fits a `u16` plane that
/// one [`simd::min_hamming16`] probe covers.
fn packed(width: usize, len: usize) -> bool {
    width <= 16 && len <= simd::PLANE16_MAX_LEN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_counts_differing_bits() {
        let p = Pattern::new(0b1011, 4);
        assert_eq!(p.hamming(0b1110), 2);
        assert_eq!(p.hamming(0b1011), 0);
        assert_eq!(p.hamming(0b0100), 4);
    }

    #[test]
    fn one_hot_detection() {
        assert!(Pattern::new(0b0100, 4).is_one_hot());
        assert!(!Pattern::new(0b0110, 4).is_one_hot());
        assert!(!Pattern::new(0, 4).is_one_hot());
        assert!(Pattern::zero(4).is_zero());
    }

    #[test]
    fn ones_iterates_set_bits() {
        let p = Pattern::new(0b1010_0001, 8);
        assert_eq!(p.ones().collect::<Vec<_>>(), vec![0, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "bits set beyond pattern length")]
    fn new_rejects_overflow_bits() {
        Pattern::new(0b10000, 4);
    }

    #[test]
    fn full_width_pattern_is_allowed() {
        let p = Pattern::new(u64::MAX, 64);
        assert_eq!(p.popcount(), 64);
        assert_eq!(p.hamming(0), 64);
    }

    #[test]
    fn best_match_prefers_min_distance_then_min_index() {
        let set = PatternSet::new(
            4,
            vec![Pattern::new(0b1100, 4), Pattern::new(0b0011, 4), Pattern::new(0b1100, 4)],
        );
        // 0b1101 is distance 1 from pattern 0 and pattern 2; index 0 wins.
        assert_eq!(set.best_match(0b1101), Some((0, 1)));
        assert_eq!(set.best_match(0b0011), Some((1, 0)));
    }

    #[test]
    fn empty_set_matches_nothing() {
        assert_eq!(PatternSet::empty(16).best_match(0b1), None);
    }

    #[test]
    #[should_panic(expected = "pattern width mismatch")]
    fn set_rejects_mixed_widths() {
        PatternSet::new(4, vec![Pattern::new(0b1, 4), Pattern::new(0b1, 5)]);
    }

    #[test]
    fn sets_pack_up_to_width_16_and_2048_patterns() {
        let ones = |width, n| PatternSet::new(width, vec![Pattern::new(0b11, width); n]);
        assert!(ones(16, simd::PLANE16_MAX_LEN).plane16().is_some());
        assert!(ones(16, simd::PLANE16_MAX_LEN + 1).plane16().is_none());
        assert!(ones(17, 4).plane16().is_none());
        assert_eq!(PatternSet::empty(16).plane16(), Some(&[][..]));
        assert!(PatternSet::empty(20).plane16().is_none());
    }

    #[test]
    #[should_panic(expected = "at most 65534 patterns, got 65535")]
    fn set_rejects_more_patterns_than_l1_indices() {
        // Level-1 indices are u16 with u16::MAX reserved for "no
        // pattern": a larger set would alias or wrap its indices.
        PatternSet::new(20, vec![Pattern::new(0b1, 20); PatternSet::MAX_PATTERNS + 1]);
    }

    #[test]
    fn display_pads_to_width() {
        assert_eq!(Pattern::new(0b0101, 6).to_string(), "000101");
    }
}
