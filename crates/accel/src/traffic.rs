//! Per-layer DRAM traffic accounting — the quantities behind Fig. 12 and
//! the memory side of Figs. 7c/7d.
//!
//! Conventions (bytes, per layer, full scale):
//!
//! * **Activation, dense** — the raw spike bitmap (`rows × cols / 8`), what
//!   a dense accelerator like Spiking Eyeriss streams.
//! * **Activation, Phi w/o compact structure** — a Level-2 presence bitmap
//!   plus per-correction sign/position metadata plus the pattern-index
//!   matrix.
//! * **Activation, Phi compact** — one byte per occupied pack unit (6-bit
//!   index + label + sign) plus per-pack metadata plus the pattern-index
//!   matrix (one byte per tile, `⌈log₂(q+1)⌉ ≤ 8` bits); empty row-tiles
//!   cost nothing.
//! * **Weights, dense** — `K × N` at 8-bit, ideal reuse (the Fig. 12b
//!   normalization base).
//! * **PWPs w/o prefetch** — all `q` PWPs of every partition, once per
//!   layer: `parts × q × N` bytes, i.e. `q/k ×` dense weights (the paper's
//!   9× for `q=128, k=16` counting weights too).
//! * **PWPs with prefetch** — only the PWPs a tile actually uses; if the
//!   PWP buffer can hold the layer's union working set, each used pattern
//!   is fetched once per layer, otherwise once per `m`-tile.
//!
//! The used patterns are per-partition bitsets ([`PrefetchSets`]) that the
//! simulator's per-row census fills from the same assignment bitmap of
//! each Level-1 index row that gives the row's L1 cycles, visiting only
//! the assigned tiles; [`layer_traffic`] takes their [`PrefetchCounts`].

use crate::config::PhiConfig;
use phi_core::{Decomposition, LayerPatterns};

/// Byte counts for one layer (already scaled to full layer size).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficReport {
    /// Dense activation bitmap bytes.
    pub act_dense: f64,
    /// Phi activation bytes without the compact pack structure.
    pub act_uncompressed: f64,
    /// Phi activation bytes with the compact pack structure.
    pub act_compressed: f64,
    /// Dense weight bytes (ideal reuse).
    pub weight_dense: f64,
    /// PWP bytes without prefetching (all patterns once).
    pub pwp_no_prefetch: f64,
    /// PWP bytes with prefetching (used patterns only).
    pub pwp_prefetch: f64,
    /// Output spike bitmap bytes.
    pub act_out: f64,
}

impl TrafficReport {
    /// Actual DRAM bytes for a configuration (compress/prefetch switches).
    pub fn total_bytes(&self, config: &PhiConfig) -> f64 {
        let act = if config.compress { self.act_compressed } else { self.act_uncompressed };
        let pwp = if config.prefetch { self.pwp_prefetch } else { self.pwp_no_prefetch };
        act + self.weight_dense + pwp + self.act_out
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &TrafficReport) {
        self.act_dense += other.act_dense;
        self.act_uncompressed += other.act_uncompressed;
        self.act_compressed += other.act_compressed;
        self.weight_dense += other.weight_dense;
        self.pwp_no_prefetch += other.pwp_no_prefetch;
        self.pwp_prefetch += other.pwp_prefetch;
        self.act_out += other.act_out;
    }
}

/// Computes the traffic report for one decomposed layer.
///
/// `n` is the output width, `packs`/`occupied_units` come from the packer
/// (packs built and units actually filled, for the sampled rows),
/// `prefetch` from the layer's [`PrefetchSets`], and `row_scale` is the
/// sampled-to-full-layer row factor.
pub fn layer_traffic(
    decomp: &Decomposition,
    n: usize,
    packs: u64,
    occupied_units: u64,
    prefetch: PrefetchCounts,
    config: &PhiConfig,
    row_scale: f64,
) -> TrafficReport {
    let rows = decomp.rows() as f64;
    let cols = decomp.cols() as f64;
    let parts = decomp.num_partitions();
    let act_dense = rows * cols / 8.0;
    // Pattern-index matrix: one byte per (row, partition) tile.
    let index_bytes = rows * parts as f64;
    // Without the compact structure: the Level-2 presence bitmap plus one
    // byte of sign/position metadata per correction, plus the index matrix.
    let act_uncompressed = rows * cols / 8.0 + decomp.l2_nnz() as f64 + index_bytes;
    // Compact: one byte per occupied pack unit + 2 bytes of metadata per
    // pack (row ids / unit counts) + the index matrix; empty tiles cost
    // nothing.
    let act_compressed = occupied_units as f64 + 2.0 * packs as f64 + index_bytes;

    let weight_dense = cols * n as f64 * config.weight_bytes as f64;
    // Without prefetching the full pre-allocated pattern store streams in:
    // q PWPs per partition (the paper's 9x = q/k + 1 for q = 128, k = 16).
    let pwp_no_prefetch =
        (parts * config.patterns_per_partition) as f64 * n as f64 * config.pwp_bytes as f64;

    // Prefetch: the used patterns per m-tile per partition, deduped across
    // tiles when the buffer can hold the union working set.
    let union_bytes = prefetch.union as f64 * n as f64 * config.pwp_bytes as f64;
    let pwp_prefetch = if union_bytes <= config.pwp_buffer_bytes as f64 {
        union_bytes
    } else {
        prefetch.per_tile as f64 * n as f64 * config.pwp_bytes as f64
    };

    let act_out = rows * n as f64 / 8.0;

    TrafficReport {
        act_dense: act_dense * row_scale,
        act_uncompressed: act_uncompressed * row_scale,
        act_compressed: act_compressed * row_scale,
        weight_dense,
        // PWP traffic does not scale with rows (patterns are per layer);
        // under per-tile reloads it scales with the number of m-tiles,
        // which the row subsampling reduces — compensate with row_scale on
        // the per-tile branch only.
        pwp_no_prefetch,
        pwp_prefetch: if union_bytes <= config.pwp_buffer_bytes as f64 {
            pwp_prefetch
        } else {
            pwp_prefetch * row_scale
        },
        act_out: act_out * row_scale,
    }
    .clamp_pwp()
}

/// The PWPs a layer's prefetcher loads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchCounts {
    /// The patterns each (m-tile, partition) uses, summed.
    pub per_tile: u64,
    /// The patterns any m-tile of a partition uses, summed.
    pub union: u64,
}

/// The prefetcher's working sets, filled one Level-1 index row at a time:
/// bit `i` of partition `p`'s words is pattern `i` of set `p`, one bitset
/// for the current m-tile and one for their union. Allocates once, at
/// construction.
#[derive(Debug, Clone)]
pub struct PrefetchSets {
    /// Partition `p` owns words `offsets[p]..offsets[p + 1]`, enough for
    /// every index its pattern set can hold.
    offsets: Vec<usize>,
    tile: Vec<u64>,
    union: Vec<u64>,
    per_tile: u64,
}

impl PrefetchSets {
    /// Empty sets for the partitions of `patterns`.
    pub fn new(patterns: &LayerPatterns) -> Self {
        let parts = patterns.num_partitions();
        let mut offsets = Vec::with_capacity(parts + 1);
        offsets.push(0usize);
        for p in 0..parts {
            offsets.push(offsets[p] + patterns.set(p).len().div_ceil(64));
        }
        let words = offsets[parts];
        PrefetchSets { offsets, tile: vec![0; words], union: vec![0; words], per_tile: 0 }
    }

    /// Adds the patterns one index row of the current m-tile uses,
    /// visiting only the assigned tiles: the set bits of the row's
    /// assignment bitmap ([`crate::l1::assignment_bitmap`]).
    #[inline]
    pub fn add_row(&mut self, indices: &[u16], bitmap: &[u64]) {
        debug_assert_eq!(indices.len() + 1, self.offsets.len());
        for (w, &word) in bitmap.iter().enumerate() {
            let mut assigned = word;
            while assigned != 0 {
                let part = 64 * w + assigned.trailing_zeros() as usize;
                assigned &= assigned - 1;
                let idx = indices[part];
                self.tile[self.offsets[part] + usize::from(idx / 64)] |= 1 << (idx % 64);
            }
        }
    }

    /// Closes the current m-tile: counts its sets into the per-tile total
    /// and folds them into the union.
    pub fn finish_tile(&mut self) {
        for (t, u) in self.tile.iter_mut().zip(&mut self.union) {
            self.per_tile += u64::from(t.count_ones());
            *u |= std::mem::take(t);
        }
    }

    /// The counts over the m-tiles closed so far.
    pub fn counts(&self) -> PrefetchCounts {
        PrefetchCounts {
            per_tile: self.per_tile,
            union: self.union.iter().map(|u| u64::from(u.count_ones())).sum(),
        }
    }
}

impl TrafficReport {
    /// Prefetch can never cost more than loading everything once per tile
    /// set; clamp pathological subsample extrapolations.
    fn clamp_pwp(mut self) -> Self {
        if self.pwp_prefetch > self.pwp_no_prefetch {
            self.pwp_prefetch = self.pwp_no_prefetch;
        }
        self
    }

    /// The paper's §5.2 "PWP utilization" statistic: prefetched fraction of
    /// all PWP bytes.
    pub fn pwp_utilization(&self) -> f64 {
        if self.pwp_no_prefetch == 0.0 {
            0.0
        } else {
            self.pwp_prefetch / self.pwp_no_prefetch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_core::{decompose, CalibrationConfig, Calibrator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_core::SpikeMatrix;

    /// The prefetch counts of `d` in m-tiles of `tile_m` rows.
    fn prefetch(d: &Decomposition, tile_m: usize) -> PrefetchCounts {
        let mut sets = PrefetchSets::new(d.patterns());
        let mut bitmap = vec![0; d.num_partitions().div_ceil(64)];
        for lo in (0..d.rows()).step_by(tile_m) {
            for r in lo..(lo + tile_m).min(d.rows()) {
                crate::l1::assignment_bitmap(d.l1_row(r), &mut bitmap);
                sets.add_row(d.l1_row(r), &bitmap);
            }
            sets.finish_tile();
        }
        sets.counts()
    }

    fn sample_decomp(rows: usize, cols: usize, density: f64, q: usize) -> Decomposition {
        let mut rng = StdRng::seed_from_u64(77);
        let acts = SpikeMatrix::random(rows, cols, density, &mut rng);
        let patterns = Calibrator::new(CalibrationConfig { q, ..Default::default() })
            .calibrate(&acts, &mut rng);
        decompose(&acts, &patterns)
    }

    #[test]
    fn compressed_activations_beat_uncompressed() {
        let d = sample_decomp(256, 128, 0.1, 32);
        let t = layer_traffic(&d, 64, 100, 600, prefetch(&d, 256), &PhiConfig::default(), 1.0);
        assert!(t.act_compressed < t.act_uncompressed);
    }

    #[test]
    fn prefetch_never_exceeds_full_load() {
        let d = sample_decomp(512, 256, 0.15, 128);
        let t = layer_traffic(&d, 64, 200, 1200, prefetch(&d, 256), &PhiConfig::default(), 4.0);
        assert!(t.pwp_prefetch <= t.pwp_no_prefetch + 1e-9);
        assert!(t.pwp_utilization() <= 1.0);
    }

    #[test]
    fn pwp_ratio_matches_q_over_k() {
        // With q patterns of width k, the no-prefetch PWP traffic is q/k ×
        // dense weights when every partition holds the full q (the paper's
        // 8× for q=128, k=16, on top of 1× raw weights = 9×).
        let d = sample_decomp(2048, 256, 0.2, 128);
        let t = layer_traffic(&d, 32, 100, 700, prefetch(&d, 256), &PhiConfig::default(), 1.0);
        let full_sets = (0..d.num_partitions()).all(|p| d.patterns().set(p).len() == 128);
        if full_sets {
            let ratio = t.pwp_no_prefetch / t.weight_dense;
            assert!((ratio - 8.0).abs() < 0.01, "ratio {ratio}");
        }
    }

    #[test]
    fn total_bytes_respects_switches() {
        let d = sample_decomp(128, 64, 0.1, 16);
        let t = layer_traffic(&d, 32, 50, 300, prefetch(&d, 256), &PhiConfig::default(), 1.0);
        let base = PhiConfig::default();
        let no_comp = PhiConfig { compress: false, ..base.clone() };
        let no_pref = PhiConfig { prefetch: false, ..base.clone() };
        assert!(t.total_bytes(&no_comp) >= t.total_bytes(&base));
        assert!(t.total_bytes(&no_pref) >= t.total_bytes(&base));
    }

    #[test]
    fn row_scale_scales_row_traffic_only() {
        let d = sample_decomp(128, 64, 0.1, 16);
        let t1 = layer_traffic(&d, 32, 50, 300, prefetch(&d, 256), &PhiConfig::default(), 1.0);
        let t2 = layer_traffic(&d, 32, 50, 300, prefetch(&d, 256), &PhiConfig::default(), 2.0);
        assert!((t2.act_dense - 2.0 * t1.act_dense).abs() < 1e-9);
        assert!((t2.weight_dense - t1.weight_dense).abs() < 1e-9);
    }
}
