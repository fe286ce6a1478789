//! Property tests for the one matcher, [`PatternSet::best_match`], and
//! the memoizing [`TileCache`], which must be invisible in the results.
//!
//! * [`PatternSet::best_match`] equals the first-minimum scan
//!   [`simd::scalar::min_hamming`] bit for bit at the active SIMD level,
//!   including the lowest-index tie rule, over randomized pattern sets
//!   with duplicates.
//! * [`decompose_cached`] == [`decompose`] over randomized calibrated
//!   workloads at q ∈ {32, 128}, for cache capacities including 0
//!   (disabled, the matcher alone) and 1 (pure thrash), warm replays
//!   included, with eviction under pressure observed by its counter.
//!
//! The decomposition properties run at unpacked widths (k ∈ {20, 32}),
//! the only layers the cache still serves: a packed layer (k ≤ 16) is
//! decided by the brute-force kernel instead, which `packed_sweep.rs`
//! covers. Run the suite under each `PHI_SIMD` tier to cover every
//! matcher path.

use phi_core::{
    decompose, decompose_cached, CalibrationConfig, Calibrator, LayerMatchIndex, Pattern,
    PatternSet, TileCache,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::{simd, SpikeMatrix};

/// A pattern set with deliberate duplication and popcount clustering, so
/// ties (same distance, different index) are common.
fn pattern_set(width: usize, count: usize, prototypes: usize, seed: u64) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    let protos: Vec<u64> = (0..prototypes.max(1)).map(|_| rng.gen::<u64>() & mask).collect();
    let patterns = (0..count)
        .map(|_| {
            let p = protos[rng.gen_range(0..protos.len())];
            let bits = if rng.gen_bool(0.5) { p ^ (1u64 << rng.gen_range(0..width)) } else { p };
            Pattern::new(bits & mask, width)
        })
        .collect();
    PatternSet::new(width, patterns)
}

/// An activation matrix with tile-level repetition, like real spiking
/// traces (rows drawn from a small prototype pool plus noise).
fn repetitive_activations(rows: usize, cols: usize, seed: u64) -> SpikeMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let proto_rows: Vec<Vec<bool>> =
        (0..4).map(|_| (0..cols).map(|_| rng.gen_bool(0.25)).collect()).collect();
    let picks: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..proto_rows.len())).collect();
    let flips: Vec<(usize, usize)> =
        (0..rows).map(|r| (r, rng.gen_range(0..cols.max(1)))).collect();
    let mut m = SpikeMatrix::from_fn(rows, cols, |r, c| proto_rows[picks[r]][c]);
    for &(r, c) in flips.iter().filter(|_| rng.gen_bool(0.3)) {
        m.set(r, c, !m.get(r, c));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The matcher answers every probe exactly like the first-minimum
    /// scan over the index-ordered pattern plane, tiles of every popcount
    /// included.
    #[test]
    fn best_match_equals_first_minimum_scan(
        width in prop::sample::select(vec![4usize, 8, 16, 64]),
        count in 0usize..48,
        prototypes in 1usize..6,
        seed in any::<u64>(),
    ) {
        let set = pattern_set(width, count, prototypes, seed);
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
        for _ in 0..64 {
            // Mix uniform tiles with near-pattern tiles so exact hits,
            // distance-1 hits, and far misses all occur.
            let tile = if rng.gen_bool(0.5) || set.is_empty() {
                rng.gen::<u64>() & mask
            } else {
                let p = set.pattern(rng.gen_range(0..set.len())).bits();
                p ^ (1u64 << rng.gen_range(0..width))
            };
            let first_minimum = simd::scalar::min_hamming(set.pattern_bits(), tile);
            prop_assert_eq!(set.best_match(tile), first_minimum, "tile {:#b}", tile);
        }
    }

    /// Cached decompositions are bit-identical to the linear
    /// reference across cache capacities, including warm replays, and the
    /// capacity-1 cache actually evicts.
    #[test]
    fn cached_decompositions_equal_the_linear_reference(
        rows in 4usize..48,
        cols in 8usize..72,
        k in prop::sample::select(vec![20usize, 32]),
        q in prop::sample::select(vec![32usize, 128]),
        capacity in prop::sample::select(vec![0usize, 1, 64, 4096]),
        seed in any::<u64>(),
    ) {
        let acts = repetitive_activations(rows, cols, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCA11);
        let patterns = Calibrator::new(CalibrationConfig { k, q, ..Default::default() })
            .calibrate(&acts, &mut rng);

        let reference = decompose(&acts, &patterns);
        prop_assert!(reference.verify_lossless(&acts));
        let disabled = TileCache::disabled();
        prop_assert_eq!(&decompose_cached(&acts, &patterns, &LayerMatchIndex, &disabled), &reference);
        prop_assert_eq!(disabled.stats(), phi_core::TileCacheStats::default());

        let cache = TileCache::new(capacity);
        let cold = decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache);
        prop_assert_eq!(&cold, &reference);
        let warm = decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache);
        prop_assert_eq!(&warm, &reference);

        let stats = cache.stats();
        if capacity == 0 {
            prop_assert_eq!(stats.hits + stats.misses + stats.entries, 0);
        } else {
            prop_assert!(stats.entries <= stats.capacity);
            // The first insert fills an empty cache, so evictions always
            // trail misses; and a single-entry cache under pressure from
            // at least two distinct keys must have evicted (two sweeps
            // saw the same tiles, so a second distinct key missing twice
            // implies its entry was displaced in between).
            if stats.misses > 0 {
                prop_assert!(stats.evictions < stats.misses, "stats: {:?}", stats);
            }
            if capacity == 1 && stats.hits < stats.misses && stats.misses > 2 {
                prop_assert!(stats.evictions > 0, "stats: {:?}", stats);
            }
        }
    }

    /// One shared cache across differently shaped activation sweeps of
    /// the same layer (the serving fusion pattern: batch 1 vs batch N)
    /// still reproduces the reference for every sweep.
    #[test]
    fn shared_cache_across_batches_stays_exact(
        rows in 2usize..12,
        cols in 8usize..40,
        batches in 2usize..5,
        seed in any::<u64>(),
    ) {
        let calibration = repetitive_activations(rows * 4, cols, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7);
        let patterns = Calibrator::new(CalibrationConfig { k: 20, q: 32, ..Default::default() })
            .calibrate(&calibration, &mut rng);
        let cache = TileCache::new(256);
        for b in 0..batches {
            let acts = repetitive_activations(rows * (b + 1), cols, seed ^ b as u64);
            let cached = decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache);
            prop_assert_eq!(&cached, &decompose(&acts, &patterns));
            prop_assert!(cached.verify_lossless(&acts));
        }
    }
}
