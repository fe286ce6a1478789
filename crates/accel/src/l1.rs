//! The L1 processor (§4.4): pattern-index-driven PWP retrieval and
//! reduction.
//!
//! Per cycle the processor examines a window of 16 consecutive entries of
//! one row of the pattern-index matrix (16 partitions), routes up to 8
//! non-zero indices through the 16→8 crossbar to the adder tree, and
//! accumulates their PWP rows into the row's L1 partial sum. Windows with
//! more than 8 assigned patterns take an extra cycle per additional 8
//! (§4.4's two-case logic); windows with none still cost the scan cycle
//! (the paper's "straightforward zero-skipping mechanism with little
//! compromise" — the index matrix is ~50% dense so perfect skipping would
//! save little).
//!
//! The simulator reads each index row once, as an assignment bitmap
//! ([`assignment_bitmap`]): a window's assigned entries are a popcount of
//! its bits ([`L1Model::row_census`]), and the same bitmap tells the PWP
//! prefetcher which tiles to visit ([`crate::traffic::PrefetchSets`]).

use phi_core::Decomposition;

/// Timing model of the L1 processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Model {
    /// Pattern-index entries examined per cycle (16).
    pub window: usize,
    /// Adder-tree input channels (8).
    pub channels: usize,
}

impl L1Model {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `channels` is zero.
    pub fn new(window: usize, channels: usize) -> Self {
        assert!(window > 0 && channels > 0, "window and channels must be nonzero");
        L1Model { window, channels }
    }

    /// The cycles of a window by its assigned entries, for every
    /// occupancy a row of `parts` partitions can reach (`0..=window`,
    /// capped at `parts`): one per started group of `channels` through
    /// the adder tree, and the scan cycle when there are none.
    /// [`L1Model::row_census`] looks windows up in this table.
    pub fn window_costs(&self, parts: usize) -> Vec<u64> {
        (0..=self.window.min(parts))
            .map(|assigned| assigned.div_ceil(self.channels).max(1) as u64)
            .collect()
    }

    /// One row of the pattern-index matrix, for one `n`-tile, from its
    /// assignment bitmap ([`assignment_bitmap`] of the row's `parts`
    /// indices): its cycles and its assigned tiles (the row's PWP
    /// accumulations), one popcount per window. `costs` is
    /// [`L1Model::window_costs`] of `parts`.
    #[inline]
    pub fn row_census(&self, bitmap: &[u64], parts: usize, costs: &[u64]) -> (u64, u32) {
        let (mut cycles, mut assigned) = (0u64, 0u32);
        for lo in (0..parts).step_by(self.window) {
            let nnz = ones_in(bitmap, lo, (lo + self.window).min(parts));
            cycles += costs[nnz as usize];
            assigned += nnz;
        }
        (cycles, assigned)
    }
}

/// Set bits of `bitmap` in the bit range `lo..hi` (`lo < hi`).
#[inline]
fn ones_in(bitmap: &[u64], lo: usize, hi: usize) -> u32 {
    let (first, last) = (lo / 64, (hi - 1) / 64);
    let head = bitmap[first] >> (lo % 64);
    if first == last {
        return (head & (u64::MAX >> (63 - (hi - 1 - lo)))).count_ones();
    }
    let middle: u32 = bitmap[first + 1..last].iter().map(|w| w.count_ones()).sum();
    head.count_ones() + middle + (bitmap[last] & (u64::MAX >> (63 - (hi - 1) % 64))).count_ones()
}

/// Writes the assignment bitmap of a Level-1 index row: bit `p % 64` of
/// `bitmap[p / 64]` is set when partition `p` has a pattern. `bitmap`
/// holds `indices.len().div_ceil(64)` words; bits past the row are
/// cleared.
#[inline]
pub fn assignment_bitmap(indices: &[u16], bitmap: &mut [u64]) {
    for (word, chunk) in bitmap.iter_mut().zip(indices.chunks(64)) {
        *word = chunk
            .iter()
            .enumerate()
            .fold(0, |word, (i, &idx)| word | u64::from(idx != Decomposition::NO_PATTERN) << i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_core::{decompose, LayerPatterns, Pattern, PatternSet};
    use snn_core::SpikeMatrix;

    /// Decomposition where every tile of every row matches the single
    /// pattern exactly (index matrix all-assigned).
    fn fully_assigned(rows: usize, parts: usize) -> Decomposition {
        let k = 4;
        let pattern = 0b0110u64;
        let sets = vec![PatternSet::new(k, vec![Pattern::new(pattern, k)]); parts];
        let patterns = LayerPatterns::new(k, sets);
        let acts = SpikeMatrix::from_fn(rows, parts * k, |_, c| (pattern >> (c % k)) & 1 == 1);
        decompose(&acts, &patterns)
    }

    /// Decomposition with no assignments at all.
    fn fully_unassigned(rows: usize, parts: usize) -> Decomposition {
        let k = 4;
        let patterns = LayerPatterns::new(k, vec![PatternSet::empty(k); parts]);
        let acts = SpikeMatrix::zeros(rows, parts * k);
        decompose(&acts, &patterns)
    }

    /// Cycles and assigned tiles of rows `lo..hi`.
    fn census(m: &L1Model, d: &Decomposition, lo: usize, hi: usize) -> (u64, u32) {
        let parts = d.num_partitions();
        let mut bitmap = vec![0; parts.div_ceil(64)];
        let costs = m.window_costs(parts);
        (lo..hi)
            .map(|r| {
                assignment_bitmap(d.l1_row(r), &mut bitmap);
                m.row_census(&bitmap, parts, &costs)
            })
            .fold((0, 0), |(c, a), (rc, ra)| (c + rc, a + ra))
    }

    #[test]
    fn dense_index_matrix_needs_two_cycles_per_window() {
        // 16 assigned entries per window, 8 channels: 2 cycles.
        let d = fully_assigned(4, 16);
        let m = L1Model::new(16, 8);
        assert_eq!(census(&m, &d, 0, 4), (4 * 2, 4 * 16));
    }

    #[test]
    fn empty_window_still_costs_a_scan_cycle() {
        let d = fully_unassigned(3, 16);
        let m = L1Model::new(16, 8);
        assert_eq!(census(&m, &d, 0, 3), (3, 0));
    }

    #[test]
    fn partial_window_rounds_up() {
        // 20 partitions: windows of 16 + 4; fully assigned → 2 + 1 cycles.
        let d = fully_assigned(1, 20);
        assert_eq!(census(&L1Model::new(16, 8), &d, 0, 1), (3, 20));
        // Windows of 6 + 6 + 6 + 2: 1 + 1 + 1 + 1.
        assert_eq!(census(&L1Model::new(6, 8), &d, 0, 1), (4, 20));
    }

    #[test]
    fn windows_may_straddle_and_span_bitmap_words() {
        // 150 partitions, every third assigned: 50 assigned tiles. Windows
        // of 100 span two words (34 assigned → 5 cycles at 8 channels)
        // and 50 (16 → 2); windows of 48 straddle words.
        let k = 4;
        let sets = vec![PatternSet::new(k, vec![Pattern::new(0b0110, k)]); 150];
        let acts =
            SpikeMatrix::from_fn(1, 150 * k, |_, c| c / k % 3 == 0 && (c % k == 1 || c % k == 2));
        let d = decompose(&acts, &LayerPatterns::new(k, sets));
        assert_eq!(census(&L1Model::new(100, 8), &d, 0, 1), (5 + 2, 50));
        let per_window: u64 = (0..150)
            .step_by(48)
            .map(|lo| {
                ((lo..(lo + 48).min(150)).filter(|p| p % 3 == 0).count().div_ceil(8)).max(1) as u64
            })
            .sum();
        assert_eq!(census(&L1Model::new(48, 8), &d, 0, 1), (per_window, 50));
    }
}
