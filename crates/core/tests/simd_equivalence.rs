//! SIMD == scalar, property-tested: every dispatched kernel in
//! [`phi_core::simd`] must be bit-identical to its scalar twin on random
//! inputs — random widths, ragged tails (lengths straddling the 4-, 8-,
//! 16- and 32-lane vector strides), tie-heavy pattern pools, and the full
//! decompose → matmul pipeline at q ∈ {32, 128}.
//!
//! The dispatched side runs at whatever level the host (or `PHI_SIMD`)
//! resolves to; on a scalar-only host these properties still hold
//! trivially, and the end-to-end case forces levels explicitly so the
//! dispatch plumbing itself is exercised everywhere.

use phi_core::simd::{self, scalar, SimdLevel};
use phi_core::{decompose, phi_matmul, CalibrationConfig, Calibrator, PwpTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::{Matrix, SpikeMatrix};
use std::sync::Mutex;

/// Serializes the tests that force the process-global dispatch level, so
/// the parallel test harness cannot interleave their force/restore pairs.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// A word pool with deliberate duplication (drawn from a few prototypes
/// plus single-bit noise), so minimum-distance ties are common and the
/// first-minimum tie rule is actually load-bearing.
fn tie_heavy_words(len: usize, width: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    let protos: Vec<u64> = (0..3).map(|_| rng.gen::<u64>() & mask).collect();
    (0..len)
        .map(|_| {
            let p = protos[rng.gen_range(0..protos.len())];
            if rng.gen_bool(0.5) {
                p ^ (1u64 << rng.gen_range(0..width))
            } else {
                p
            }
        })
        .map(|w| w & mask)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Popcount over random word slices, lengths covering empty, ragged
    /// tails, and multiples of both vector strides.
    #[test]
    fn popcount_words_matches_scalar(
        len in prop::sample::select(vec![0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 130]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
        prop_assert_eq!(simd::popcount_words(&words), scalar::popcount_words(&words));
    }

    /// The batched Hamming kernel fills the exact distances the per-word
    /// scalar loop computes.
    #[test]
    fn hamming_batch_matches_scalar(
        len in prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 7, 8, 9, 13, 32, 33, 100]),
        width in prop::sample::select(vec![8usize, 16, 31, 64]),
        seed in any::<u64>(),
    ) {
        let patterns = tie_heavy_words(len, width, seed);
        let tile = tie_heavy_words(1, width, seed ^ 0xABCD).pop().unwrap_or(0);
        let mut got = vec![0u32; len];
        let mut want = vec![u32::MAX; len];
        simd::hamming_batch(&patterns, tile, &mut got);
        scalar::hamming_batch(&patterns, tile, &mut want);
        prop_assert_eq!(got, want);
    }

    /// The batched probe returns the scalar first-minimum — min distance,
    /// then min position — on tie-heavy pools where many entries share
    /// the winning distance.
    #[test]
    fn min_hamming_matches_scalar_tie_rule(
        len in prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 7, 8, 9, 17, 32, 65]),
        width in prop::sample::select(vec![8usize, 16, 64]),
        seed in any::<u64>(),
    ) {
        let patterns = tie_heavy_words(len, width, seed);
        let tile = tie_heavy_words(1, width, seed ^ 0x5EED).pop().unwrap_or(0);
        prop_assert_eq!(simd::min_hamming(&patterns, tile), scalar::min_hamming(&patterns, tile));
    }

    /// An exact hit buried behind earlier ties still resolves to the
    /// first exact index (the d == 0 early exit must not skip a lower
    /// position).
    #[test]
    fn min_hamming_exact_hits_resolve_to_the_first(
        len in 1usize..40,
        pos in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let mut patterns = tie_heavy_words(len, 16, seed);
        let tile = patterns[pos % len];
        let expect = patterns.iter().position(|&p| p == tile).unwrap();
        prop_assert_eq!(simd::min_hamming(&patterns, tile), Some((expect, 0)));
        // A second copy later never changes the answer.
        patterns.push(tile);
        prop_assert_eq!(simd::min_hamming(&patterns, tile), Some((expect, 0)));
    }

    /// The packed width-16 probe returns what the scalar twin returns,
    /// and both return the first-minimum answer of the `u64` scan over
    /// the same values. Lengths straddle the 16- and 32-lane strides up
    /// to the plane's 2048-entry limit; tie-heavy pools keep the
    /// lowest-position rule load-bearing, and dense far-away tiles make
    /// a tail lane that read past the plane win if it were not masked.
    #[test]
    fn min_hamming16_matches_scalar(
        len in prop::sample::select(vec![0usize, 1, 2, 15, 16, 17, 31, 32, 33, 63, 100, 2047, 2048]),
        width in prop::sample::select(vec![4usize, 9, 16]),
        far in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let plane: Vec<u16> = tie_heavy_words(len, width, seed).iter().map(|&w| w as u16).collect();
        let tile = if far {
            // The complement of a pattern: distance `width` from it.
            plane.first().map_or(0, |&p| !p & ((1u32 << width) - 1) as u16)
        } else {
            tie_heavy_words(1, width, seed ^ 0x16).pop().unwrap_or(0) as u16
        };
        let wide: Vec<u64> = plane.iter().map(|&p| u64::from(p)).collect();
        let want = scalar::min_hamming(&wide, u64::from(tile));
        prop_assert_eq!(scalar::min_hamming16(&plane, tile), want);
        prop_assert_eq!(simd::min_hamming16(&plane, tile), want);
    }

    /// Elementwise f32 accumulation is bit-identical (compared through
    /// `to_bits`, so `-0.0` vs `0.0` and NaN payloads would be caught).
    #[test]
    fn add_sub_assign_match_scalar(
        len in prop::sample::select(vec![0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let (mut a, mut b) = (base.clone(), base.clone());
        simd::add_assign(&mut a, &src);
        scalar::add_assign(&mut b, &src);
        prop_assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let (mut a, mut b) = (base.clone(), base);
        simd::sub_assign(&mut a, &src);
        scalar::sub_assign(&mut b, &src);
        prop_assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The fused signed-accumulation kernel applies its whole term chain
    /// bit-identically to the scalar twin, across term counts from empty
    /// to deeper than the prefetch lookahead and mixed add/subtract flags.
    #[test]
    fn accumulate_signed_matches_scalar(
        len in prop::sample::select(vec![0usize, 1, 7, 8, 16, 17, 100]),
        nterms in 0usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(Vec<f32>, bool)> = (0..nterms)
            .map(|_| ((0..len).map(|_| rng.gen_range(-8.0..8.0)).collect(), rng.gen_bool(0.5)))
            .collect();
        let terms: Vec<(&[f32], bool)> = rows.iter().map(|(r, neg)| (r.as_slice(), *neg)).collect();
        let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let (mut a, mut b) = (base.clone(), base);
        simd::accumulate_signed(&mut a, &terms);
        scalar::accumulate_signed(&mut b, &terms);
        prop_assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Word-aligned tile extraction shears out exactly the tiles the
    /// iterator walk produces, for every divisor width and matrices whose
    /// last word is partially filled.
    #[test]
    fn extract_aligned_tiles_matches_the_iterator(
        k in prop::sample::select(vec![1usize, 2, 4, 8, 16, 32, 64]),
        rows in 1usize..6,
        cols in prop::sample::select(vec![16usize, 64, 100, 130]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = SpikeMatrix::from_fn(rows, cols, |_, _| rng.gen_bool(0.3));
        for r in 0..rows {
            let mut got = vec![0u64; m.num_partitions(k)];
            m.row_partition_tiles_into(r, k, &mut got);
            let want: Vec<u64> = m.row_partition_tiles(r, k).collect();
            prop_assert_eq!(&got, &want);
            let mut scalar_out = vec![0u64; got.len()];
            scalar::extract_aligned_tiles(m.row_words(r), k, &mut scalar_out);
            prop_assert_eq!(&got, &scalar_out);
        }
    }
}

proptest! {
    // The pipeline cases run full calibrations; keep the case count low
    // like match_cache.rs does for its decompose properties.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End to end at both paper pattern budgets: decomposition and Phi
    /// matmul are bit-identical between forced-scalar and the dispatched
    /// level (exercising the batched probe inside `PatternSet::best_match`
    /// and the vector adds inside the matmul).
    #[test]
    fn decompose_and_matmul_are_level_invariant(
        q in prop::sample::select(vec![32usize, 128]),
        rows in 8usize..40,
        cols in prop::sample::select(vec![24usize, 48, 100]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let acts = SpikeMatrix::random(rows, cols, 0.2, &mut rng);
        let weights = Matrix::random(cols, 10, &mut rng);
        let patterns = Calibrator::new(CalibrationConfig { q, ..Default::default() })
            .calibrate(&acts, &mut rng);

        let run = || {
            let d = decompose(&acts, &patterns);
            let pwp = PwpTable::new(&patterns, &weights).expect("shapes match");
            let out = phi_matmul(&d, &pwp, &weights).expect("shapes match");
            (d, out)
        };
        let _guard = FORCE_LOCK.lock().unwrap();
        let auto = run();
        let prev = simd::force(SimdLevel::Scalar);
        let forced = run();
        simd::force(prev);
        prop_assert_eq!(auto.0, forced.0);
        // Matrix == is exact f32 equality; no NaNs arise from finite
        // inputs under adds, so this pins the bits.
        prop_assert_eq!(auto.1, forced.1);
    }
}

/// The dispatch override plumbing itself: forcing each level round-trips
/// through `force` and never exceeds the host capability.
#[test]
fn force_round_trips_every_level() {
    let _guard = FORCE_LOCK.lock().unwrap();
    let original = simd::level();
    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512, SimdLevel::Neon] {
        simd::force(level);
        let got = simd::level();
        // Whatever clamping decided, the kernels must agree with scalar.
        let words = [0x0123_4567_89AB_CDEFu64, u64::MAX, 0, 42];
        assert_eq!(simd::popcount_words(&words), scalar::popcount_words(&words), "at {got}");
    }
    simd::force(original);
    assert_eq!(simd::level(), original);
}
