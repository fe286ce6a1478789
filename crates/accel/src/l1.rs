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

    /// Cycles to process rows `row_lo..row_hi` of the pattern-index matrix
    /// for one `n`-tile.
    pub fn tile_cycles(&self, decomp: &Decomposition, row_lo: usize, row_hi: usize) -> u64 {
        let mut cycles = 0u64;
        for r in row_lo..row_hi.min(decomp.rows()) {
            for window in decomp.l1_row(r).chunks(self.window) {
                let nnz = assigned(window);
                cycles += (nnz.div_ceil(self.channels)).max(1) as u64;
            }
        }
        cycles
    }

    /// PWP accumulations performed in the same region (energy events).
    pub fn accumulations(&self, decomp: &Decomposition, row_lo: usize, row_hi: usize) -> u64 {
        (row_lo..row_hi.min(decomp.rows())).map(|r| assigned(decomp.l1_row(r)) as u64).sum()
    }
}

/// Assigned tiles among `indices` (a slice of a Level-1 index row).
fn assigned(indices: &[u16]) -> usize {
    indices.iter().filter(|&&i| i != Decomposition::NO_PATTERN).count()
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

    #[test]
    fn dense_index_matrix_needs_two_cycles_per_window() {
        // 16 assigned entries per window, 8 channels: 2 cycles.
        let d = fully_assigned(4, 16);
        let m = L1Model::new(16, 8);
        assert_eq!(m.tile_cycles(&d, 0, 4), 4 * 2);
    }

    #[test]
    fn empty_window_still_costs_a_scan_cycle() {
        let d = fully_unassigned(3, 16);
        let m = L1Model::new(16, 8);
        assert_eq!(m.tile_cycles(&d, 0, 3), 3);
        assert_eq!(m.accumulations(&d, 0, 3), 0);
    }

    #[test]
    fn partial_window_rounds_up() {
        // 20 partitions: windows of 16 + 4; fully assigned → 2 + 1 cycles.
        let d = fully_assigned(1, 20);
        let m = L1Model::new(16, 8);
        assert_eq!(m.tile_cycles(&d, 0, 1), 3);
        assert_eq!(m.accumulations(&d, 0, 1), 20);
    }

    #[test]
    fn row_range_is_clamped() {
        let d = fully_assigned(2, 4);
        let m = L1Model::new(16, 8);
        assert_eq!(m.tile_cycles(&d, 0, 100), m.tile_cycles(&d, 0, 2));
    }
}
