//! The Phi calibration stage (§3.2): derive a pattern set per K-partition
//! from a calibration activation dump.
//!
//! Calibration is performed offline on a small subset of training-set
//! activations; the paper shows (Fig. 9a) that the row distribution within a
//! partition is stable between training and test data, so patterns
//! generalize. Each partition is calibrated independently to capture its
//! local distribution — and because each partition draws an *independent*
//! RNG seed up front, the partition walk runs in parallel with results
//! bit-equal to a sequential walk.

use crate::kmeans::{
    compress_tiles, hamming_kmeans_unweighted, weighted_hamming_kmeans, KmeansConfig,
};
use crate::pattern::{Pattern, PatternSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use snn_core::simd::LanePlanes16;
use snn_core::SpikeMatrix;
use std::fmt;
use std::sync::Arc;

/// Which k-means kernel calibrates each partition.
///
/// Both produce byte-identical pattern sets for the same outer RNG state:
/// the weighted kernel is a mathematically equivalent reformulation of the
/// reference sweep. `Reference` exists as the benchmark baseline and test
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CalibrationEngine {
    /// Unweighted Lloyd iterations over every raw tile — the original
    /// implementation, kept for speedup tracking and as the byte-identity
    /// oracle.
    Reference,
    /// Weight-compressed Lloyd iterations over deduplicated tiles.
    #[default]
    Weighted,
}

/// Configuration for the calibration stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationConfig {
    /// Partition width `k` (paper default 16).
    pub k: usize,
    /// Patterns per partition `q` (paper default 128).
    pub q: usize,
    /// Maximum k-means iterations.
    pub max_iters: usize,
    /// Cap on calibration rows sampled per partition (the paper uses a small
    /// subset of the training data; sampling keeps calibration linear).
    pub max_rows: usize,
    /// Whether to top up the pattern set with the most frequent unmatched
    /// tiles when k-means returns fewer than `q` distinct centers.
    pub fill_with_frequent: bool,
    /// k-means kernel (weighted by default; see [`CalibrationEngine`]).
    pub engine: CalibrationEngine,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            k: 16,
            q: 128,
            max_iters: 25,
            max_rows: 8192,
            fill_with_frequent: true,
            engine: CalibrationEngine::default(),
        }
    }
}

/// Calibrated pattern sets for one layer: one [`PatternSet`] per width-`k`
/// partition of the layer's K dimension.
///
/// The sets live behind an `Arc`, so cloning layer patterns — which every
/// [`crate::Decomposition`] does to stay self-contained — is a reference
/// bump, not a deep copy of `q × partitions` patterns.
///
/// When every set is packed (width ≤ 16, at most
/// [`snn_core::simd::PLANE16_MAX_LEN`] patterns), construction also
/// regroups the sets' planes pattern-major for the lane matcher
/// ([`LanePlanes16`]). That is derived state: it is never serialized and
/// takes no part in equality.
#[derive(Clone)]
pub struct LayerPatterns {
    k: usize,
    sets: Arc<[PatternSet]>,
    lanes: Option<Arc<LanePlanes16>>,
}

impl PartialEq for LayerPatterns {
    fn eq(&self, other: &Self) -> bool {
        // Clones share their sets, and `Decomposition::concat` compares
        // every part's patterns with the first part's: the pointer check
        // settles those without walking every pattern of every set.
        self.k == other.k && (Arc::ptr_eq(&self.sets, &other.sets) || self.sets == other.sets)
    }
}

impl Eq for LayerPatterns {}

impl fmt::Debug for LayerPatterns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LayerPatterns").field("k", &self.k).field("sets", &self.sets).finish()
    }
}

impl LayerPatterns {
    /// Creates layer patterns from per-partition sets.
    ///
    /// # Panics
    ///
    /// Panics if any set's width differs from `k`.
    pub fn new(k: usize, sets: Vec<PatternSet>) -> Self {
        for s in &sets {
            assert_eq!(s.width(), k, "pattern set width mismatch");
        }
        let planes: Option<Vec<&[u16]>> =
            if k <= 16 { sets.iter().map(PatternSet::plane16).collect() } else { None };
        let lanes = planes.map(|planes| Arc::new(LanePlanes16::new(&planes)));
        LayerPatterns { k, sets: sets.into(), lanes }
    }

    /// Partition width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.sets.len()
    }

    /// Pattern set of partition `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of bounds.
    pub fn set(&self, part: usize) -> &PatternSet {
        &self.sets[part]
    }

    /// All per-partition sets.
    pub fn sets(&self) -> &[PatternSet] {
        &self.sets
    }

    /// The sets' planes regrouped for the lane matcher, when every set
    /// is packed.
    pub(crate) fn lanes(&self) -> Option<&LanePlanes16> {
        self.lanes.as_deref()
    }

    /// Total number of stored patterns across partitions.
    pub fn total_patterns(&self) -> usize {
        self.sets.iter().map(PatternSet::len).sum()
    }
}

/// Runs the calibration stage.
///
/// # Example
///
/// ```
/// use phi_core::{CalibrationConfig, Calibrator};
/// use snn_core::SpikeMatrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let acts = SpikeMatrix::random(128, 48, 0.2, &mut rng);
/// let patterns = Calibrator::new(CalibrationConfig { q: 16, ..Default::default() })
///     .calibrate(&acts, &mut rng);
/// assert_eq!(patterns.num_partitions(), 3); // 48 / 16
/// assert!(patterns.set(0).len() <= 16);
/// ```
#[derive(Debug, Clone)]
pub struct Calibrator {
    config: CalibrationConfig,
}

impl Calibrator {
    /// Creates a calibrator.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not within `1..=64`, if `q == 0`, or if `q`
    /// exceeds [`PatternSet::MAX_PATTERNS`] (65534, the most a set's
    /// `u16` Level-1 indices can address).
    pub fn new(config: CalibrationConfig) -> Self {
        assert!(config.k >= 1 && config.k <= 64, "k must be within 1..=64");
        assert!(config.q > 0, "q must be nonzero");
        assert!(
            config.q <= PatternSet::MAX_PATTERNS,
            "q = {} exceeds the {} patterns a set can index",
            config.q,
            PatternSet::MAX_PATTERNS
        );
        Calibrator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Calibrates pattern sets from one activation matrix (rows from the
    /// calibration subset; multiple timesteps should be stacked as rows).
    pub fn calibrate<R: Rng + ?Sized>(
        &self,
        activations: &SpikeMatrix,
        rng: &mut R,
    ) -> LayerPatterns {
        self.calibrate_many(std::slice::from_ref(activations), rng)
    }

    /// Calibrates from several activation dumps with identical column
    /// counts (e.g. one dump per calibration batch).
    ///
    /// One independent seed per partition is drawn from `rng` before the
    /// walk, so the per-partition work is order-free and the parallel walk
    /// returns exactly what a sequential one would.
    ///
    /// # Panics
    ///
    /// Panics if `dumps` is empty or the dumps disagree on column count.
    pub fn calibrate_many<R: Rng + ?Sized>(
        &self,
        dumps: &[SpikeMatrix],
        rng: &mut R,
    ) -> LayerPatterns {
        assert!(!dumps.is_empty(), "need at least one activation dump");
        let cols = dumps[0].cols();
        for d in dumps {
            assert_eq!(d.cols(), cols, "activation dumps disagree on columns");
        }
        let k = self.config.k;
        let parts = cols.div_ceil(k);
        let seeded: Vec<(usize, u64)> = (0..parts).map(|part| (part, rng.gen::<u64>())).collect();
        let sets: Vec<PatternSet> = seeded
            .into_par_iter()
            .map(|(part, seed)| self.calibrate_partition(dumps, part, seed))
            .collect();
        LayerPatterns::new(k, sets)
    }

    /// Gathers the calibration tiles of one partition, filtering all-zero
    /// and one-hot rows (Algorithm 1 line 2): neither benefits from a
    /// pattern.
    fn gather_tiles(&self, dumps: &[SpikeMatrix], part: usize) -> Vec<u64> {
        let k = self.config.k;
        let mut tiles: Vec<u64> = Vec::new();
        let total_rows: usize = dumps.iter().map(SpikeMatrix::rows).sum();
        let stride = (total_rows / self.config.max_rows.max(1)).max(1);
        let mut global_row = 0usize;
        for dump in dumps {
            for r in 0..dump.rows() {
                global_row += 1;
                if !global_row.is_multiple_of(stride) {
                    continue;
                }
                let tile = dump.partition_tile(r, part, k);
                if tile == 0 || tile & (tile - 1) == 0 {
                    continue;
                }
                tiles.push(tile);
            }
        }
        tiles
    }

    /// Gathers one partition's tiles directly in compressed
    /// `(value, multiplicity)` form.
    ///
    /// For `k ≤ 16` the tiles index a 2^k counting table, so compression
    /// costs O(tiles) plus a sort of the distinct values only — the raw
    /// tile vector is never materialized. Wider partitions fall back to
    /// gather-then-[`compress_tiles`]. Both produce the exact output of
    /// `compress_tiles(gather_tiles(..))`.
    fn gather_compressed(&self, dumps: &[SpikeMatrix], part: usize) -> Vec<(u64, u64)> {
        let k = self.config.k;
        if k > 16 {
            return compress_tiles(&self.gather_tiles(dumps, part));
        }
        // Per-thread counting table, grown once and reset sparsely (only
        // the touched slots), so repeated partitions pay O(distinct) for
        // bookkeeping instead of a 2^k memset.
        thread_local! {
            static COUNTS: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        COUNTS.with(|cell| {
            let mut counts = cell.borrow_mut();
            if counts.len() < 1 << k {
                counts.resize(1 << k, 0);
            }
            let mut touched: Vec<u64> = Vec::new();
            let total_rows: usize = dumps.iter().map(SpikeMatrix::rows).sum();
            let stride = (total_rows / self.config.max_rows.max(1)).max(1);
            {
                let mut count_tile = |tile: u64| {
                    if tile == 0 || tile & (tile - 1) == 0 {
                        return;
                    }
                    if counts[tile as usize] == 0 {
                        touched.push(tile);
                    }
                    counts[tile as usize] += 1;
                };
                if stride == 1 {
                    // No subsampling: keep the hot scan free of the per-row
                    // `% stride` division.
                    for dump in dumps {
                        for tile in dump.partition_column_tiles(part, k) {
                            count_tile(tile);
                        }
                    }
                } else {
                    let mut global_row = 0usize;
                    for dump in dumps {
                        for tile in dump.partition_column_tiles(part, k) {
                            global_row += 1;
                            if !global_row.is_multiple_of(stride) {
                                continue;
                            }
                            count_tile(tile);
                        }
                    }
                }
            }
            touched.sort_unstable();
            let compressed: Vec<(u64, u64)> =
                touched.iter().map(|&v| (v, counts[v as usize])).collect();
            for &v in &touched {
                counts[v as usize] = 0;
            }
            compressed
        })
    }

    fn calibrate_partition(&self, dumps: &[SpikeMatrix], part: usize, seed: u64) -> PatternSet {
        let k = self.config.k;
        let mut rng = StdRng::seed_from_u64(seed);
        let kmeans_config =
            KmeansConfig { clusters: self.config.q, max_iters: self.config.max_iters };
        // Both engines share the compressed form: the weighted engine
        // clusters on it, and the frequency fill below reads it directly.
        let (compressed, mut centers) = match self.config.engine {
            CalibrationEngine::Reference => {
                let tiles = self.gather_tiles(dumps, part);
                let centers = hamming_kmeans_unweighted(&tiles, k, kmeans_config, &mut rng);
                (compress_tiles(&tiles), centers)
            }
            CalibrationEngine::Weighted => {
                let compressed = self.gather_compressed(dumps, part);
                let centers = weighted_hamming_kmeans(&compressed, k, kmeans_config, &mut rng);
                (compressed, centers)
            }
        };
        // k-means centers can collide after rounding; refill free slots with
        // the most frequent tiles not already covered. This is a pure win:
        // an exact-match pattern gives those rows 100% Level-2 sparsity.
        if self.config.fill_with_frequent && centers.len() < self.config.q {
            // `centers` is sorted ascending (both engines finalize that
            // way), so membership is a binary search.
            debug_assert!(centers.windows(2).all(|w| w[0] < w[1]));
            let mut by_freq: Vec<(u64, u64)> = compressed
                .iter()
                .filter(|(tile, _)| centers.binary_search(tile).is_err())
                .map(|&(tile, count)| (tile, count))
                .collect();
            by_freq.sort_unstable_by_key(|&(tile, count)| (std::cmp::Reverse(count), tile));
            for (tile, _) in by_freq {
                if centers.len() >= self.config.q {
                    break;
                }
                // Skip degenerate tiles (cannot help; zero collides with
                // the no-pattern index).
                if tile == 0 || tile & (tile - 1) == 0 {
                    continue;
                }
                centers.push(tile);
            }
        }
        centers.truncate(self.config.q);
        PatternSet::new(k, centers.into_iter().map(|c| Pattern::new(c, k)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn equality_compares_sets_by_value_behind_the_shared_pointer() {
        let sets = vec![
            PatternSet::new(16, vec![Pattern::new(0b1011, 16), Pattern::new(0b0110, 16)]),
            PatternSet::new(16, vec![Pattern::new(0b1100, 16)]),
        ];
        let lp = LayerPatterns::new(16, sets.clone());
        // A clone shares the sets: equal through the pointer check.
        assert_eq!(lp, lp.clone());
        // Equal but distinct sets still compare equal by value.
        let twin = LayerPatterns::new(16, sets.clone());
        assert!(!Arc::ptr_eq(&lp.sets, &twin.sets));
        assert_eq!(lp, twin);
        // One differing pattern, or a missing set, makes them unequal.
        let mut other = sets.clone();
        other[1] = PatternSet::new(16, vec![Pattern::new(0b1101, 16)]);
        assert_ne!(lp, LayerPatterns::new(16, other));
        assert_ne!(lp, LayerPatterns::new(16, sets[..1].to_vec()));
    }

    #[test]
    fn partitions_cover_ragged_k() {
        let acts = SpikeMatrix::zeros(4, 40);
        let cal = Calibrator::new(CalibrationConfig { q: 4, ..Default::default() });
        let lp = cal.calibrate(&acts, &mut rng());
        assert_eq!(lp.num_partitions(), 3);
        assert_eq!(lp.k(), 16);
    }

    #[test]
    fn all_zero_activations_produce_empty_sets() {
        let acts = SpikeMatrix::zeros(32, 32);
        let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
        let lp = cal.calibrate(&acts, &mut rng());
        assert!(lp.sets().iter().all(PatternSet::is_empty));
    }

    #[test]
    fn one_hot_rows_are_filtered() {
        // Matrix whose every row-tile is one-hot: no patterns should emerge.
        let acts = SpikeMatrix::from_fn(64, 16, |r, c| c == r % 16);
        let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
        let lp = cal.calibrate(&acts, &mut rng());
        assert!(lp.set(0).is_empty());
    }

    #[test]
    fn repeated_tile_becomes_a_pattern() {
        let acts = SpikeMatrix::from_fn(100, 16, |_, c| c == 2 || c == 7 || c == 11);
        let cal = Calibrator::new(CalibrationConfig { q: 4, ..Default::default() });
        let lp = cal.calibrate(&acts, &mut rng());
        let expected = (1u64 << 2) | (1 << 7) | (1 << 11);
        assert!(lp.set(0).patterns().iter().any(|p| p.bits() == expected));
    }

    #[test]
    fn fill_with_frequent_tops_up_patterns() {
        // Four distinct frequent tiles but q=8: k-means can only produce 4
        // distinct centers, and the fill stage cannot invent more.
        let tiles = [0b0011u64, 0b0110, 0b1100, 0b1001];
        let acts = SpikeMatrix::from_fn(80, 4, |r, c| (tiles[r % 4] >> c) & 1 == 1);
        let cal = Calibrator::new(CalibrationConfig { k: 4, q: 8, ..Default::default() });
        let lp = cal.calibrate(&acts, &mut rng());
        assert_eq!(lp.set(0).len(), 4);
        for t in tiles {
            assert!(lp.set(0).patterns().iter().any(|p| p.bits() == t));
        }
    }

    #[test]
    fn calibrate_many_stacks_dumps() {
        let mut r = rng();
        let a = SpikeMatrix::random(32, 16, 0.3, &mut r);
        let b = SpikeMatrix::random(32, 16, 0.3, &mut r);
        let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
        let lp = cal.calibrate_many(&[a, b], &mut r);
        assert_eq!(lp.num_partitions(), 1);
    }

    #[test]
    #[should_panic(expected = "q = 65535 exceeds the 65534 patterns a set can index")]
    fn calibrator_refuses_more_patterns_than_l1_indices() {
        Calibrator::new(CalibrationConfig {
            q: PatternSet::MAX_PATTERNS + 1,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "activation dumps disagree")]
    fn calibrate_many_rejects_mixed_widths() {
        let a = SpikeMatrix::zeros(2, 16);
        let b = SpikeMatrix::zeros(2, 32);
        Calibrator::new(CalibrationConfig::default()).calibrate_many(&[a, b], &mut rng());
    }

    #[test]
    fn max_rows_subsamples() {
        let mut r = rng();
        let acts = SpikeMatrix::random(4096, 16, 0.25, &mut r);
        let cal = Calibrator::new(CalibrationConfig { q: 16, max_rows: 128, ..Default::default() });
        // Just verify it runs fast and produces patterns.
        let lp = cal.calibrate(&acts, &mut r);
        assert!(!lp.set(0).is_empty());
    }

    #[test]
    fn engines_agree_byte_for_byte() {
        // The acceptance property at the calibration level: the reference
        // and weighted kernels produce identical LayerPatterns for the
        // same outer RNG state.
        let mut r = rng();
        for density in [0.1, 0.3] {
            let acts = SpikeMatrix::random(512, 50, density, &mut r);
            let mut results = Vec::new();
            for engine in [CalibrationEngine::Reference, CalibrationEngine::Weighted] {
                let cal = Calibrator::new(CalibrationConfig {
                    q: 16,
                    max_iters: 12,
                    engine,
                    ..Default::default()
                });
                results.push(cal.calibrate(&acts, &mut StdRng::seed_from_u64(41)));
            }
            assert_eq!(results[0], results[1], "reference vs weighted diverged");
        }
    }
}
