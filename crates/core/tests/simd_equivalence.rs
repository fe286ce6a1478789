//! SIMD == scalar, property-tested: every dispatched kernel in
//! [`phi_core::simd`] must be bit-identical to its scalar twin on random
//! inputs — random widths, ragged tails (lengths straddling the 4-, 8-,
//! 16- and 32-lane vector strides), tie-heavy pattern pools, and the full
//! decompose → matmul pipeline at q ∈ {32, 128}.
//!
//! The dispatched side runs at whatever level the host (or `PHI_SIMD`)
//! resolves to; on a scalar-only host these properties still hold
//! trivially, and the end-to-end case forces levels explicitly so the
//! dispatch plumbing itself is exercised everywhere. The lane matcher
//! (`Hamming16::match_lanes16`) is checked at every tier the host has,
//! each forced in turn through [`simd::sweep16`].

use phi_core::simd::{
    self, scalar, Hamming16, Hamming16Sweep, LanePlanes16, SimdLevel, LANE_GROUP, LANE_WORDS,
};
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
    fn add_assign_matches_scalar(
        len in prop::sample::select(vec![0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let (mut a, mut b) = (base.clone(), base);
        simd::add_assign(&mut a, &src);
        scalar::add_assign(&mut b, &src);
        prop_assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The fused signed-accumulation kernel applies its whole term chain
    /// bit-identically to the scalar twin at every tier the host has, each
    /// forced in turn: term counts from empty to a few dozen, random
    /// per-term signs (none, half or all negated), rows that mix signed
    /// zeros, tiny and huge magnitudes, and widths that straddle the 8-
    /// and 16-float blocks, their masked ragged ends and the four-block
    /// register groups (32 floats at AVX2, 64 at AVX-512).
    #[test]
    fn accumulate_signed_matches_scalar(
        len in prop::sample::select(
            vec![0usize, 1, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 130]
        ),
        nterms in 0usize..40,
        negative_share in prop::sample::select(vec![0.0f64, 0.5, 1.0]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => 0.0f32,
            1 => -0.0,
            2 => rng.gen_range(-1e-30f32..1e-30),
            3 => rng.gen_range(-1e30f32..1e30),
            _ => rng.gen_range(-8.0f32..8.0),
        };
        let rows: Vec<(Vec<f32>, bool)> = (0..nterms)
            .map(|_| ((0..len).map(|_| value(&mut rng)).collect(), rng.gen_bool(negative_share)))
            .collect();
        let terms: Vec<(&[f32], bool)> = rows.iter().map(|(r, neg)| (r.as_slice(), *neg)).collect();
        let base: Vec<f32> = (0..len).map(|_| value(&mut rng)).collect();
        let mut want = base.clone();
        scalar::accumulate_signed(&mut want, &terms);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let _guard = FORCE_LOCK.lock().unwrap();
        let original = simd::level();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            simd::force(level);
            let mut got = base.clone();
            simd::accumulate_signed(&mut got, &terms);
            let ok = bits(&got) == bits(&want);
            simd::force(original);
            prop_assert!(ok, "tier {:?}", level);
        }
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

/// One lane-matcher case: `lanes` planes, and per group of lanes the
/// tiles and masks to decide.
struct LaneCase {
    planes: Vec<Vec<u16>>,
    tiles: [u64; LANE_WORDS],
    masks: [u64; LANE_WORDS],
}

/// What deciding a case produces: the L1 slots and the correction words.
type LaneOutcome = ([u16; LANE_GROUP], [u64; LANE_WORDS]);

/// Lane `lane` of a lane-word array.
fn lane16(words: &[u64; LANE_WORDS], lane: usize) -> u16 {
    (words[lane / 4] >> (16 * (lane % 4))) as u16
}

/// Decides a case at whatever tier [`simd::sweep16`] picks.
struct DecideLanes<'a>(&'a LaneCase);

impl Hamming16Sweep for DecideLanes<'_> {
    type Output = LaneOutcome;

    fn run<H: Hamming16>(self, kernel: H) -> LaneOutcome {
        let case = self.0;
        let refs: Vec<&[u16]> = case.planes.iter().map(Vec::as_slice).collect();
        let planes = LanePlanes16::new(&refs);
        let (mut l1, mut diff) = ([0u16; LANE_GROUP], [0u64; LANE_WORDS]);
        kernel.match_lanes16(planes.group(0), &case.tiles, &case.masks, &mut l1, &mut diff);
        (l1, diff)
    }
}

/// The twin's answer.
fn twin(case: &LaneCase) -> LaneOutcome {
    let refs: Vec<&[u16]> = case.planes.iter().map(Vec::as_slice).collect();
    let planes = LanePlanes16::new(&refs);
    let (mut l1, mut diff) = ([0u16; LANE_GROUP], [0u64; LANE_WORDS]);
    scalar::match_lanes16(planes.group(0), &case.tiles, &case.masks, &mut l1, &mut diff);
    (l1, diff)
}

/// The rule itself, lane by lane: the first-minimum scan over the lane's
/// own plane, assigned only below the tile's bit count.
fn rule(case: &LaneCase) -> LaneOutcome {
    let (mut l1, mut diff) = ([u16::MAX; LANE_GROUP], [0u64; LANE_WORDS]);
    for lane in 0..LANE_GROUP {
        let tile = lane16(&case.tiles, lane);
        let plane: Vec<u64> =
            case.planes.get(lane).map_or(Vec::new(), |p| p.iter().map(|&x| u64::from(x)).collect());
        let mut bits = tile;
        if let Some((j, d)) = scalar::min_hamming(&plane, u64::from(tile)) {
            if d < tile.count_ones() {
                l1[lane] = j as u16;
                bits = (plane[j] as u16 & lane16(&case.masks, lane)) ^ tile;
            }
        }
        diff[lane / 4] |= u64::from(bits) << (16 * (lane % 4));
    }
    (l1, diff)
}

/// A random case: `lanes` planes of mixed lengths drawn from
/// {0, 1, 7, 31, 32, 33, 2048}, holding random, one-hot and duplicate
/// patterns; tiles that are empty, single-bit, dense or one bit from a
/// pattern of their lane; and, sometimes, a narrow mask on the last
/// lane.
fn lane_case(lanes: usize, seed: u64) -> LaneCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let lengths = [0usize, 1, 7, 31, 32, 33, 2048];
    let planes: Vec<Vec<u16>> = (0..lanes)
        .map(|_| {
            let len = lengths[rng.gen_range(0..lengths.len())];
            let mut plane: Vec<u16> = Vec::with_capacity(len);
            for i in 0..len {
                let p = match rng.gen_range(0..4) {
                    0 if i > 0 => plane[rng.gen_range(0..i)],
                    1 => 1u16 << rng.gen_range(0..16u32),
                    _ => rng.gen::<u32>() as u16,
                };
                plane.push(p);
            }
            plane
        })
        .collect();
    let mut tiles = [0u64; LANE_WORDS];
    for (lane, plane) in planes.iter().enumerate() {
        let tile: u16 = match rng.gen_range(0..5) {
            0 => 0,
            1 => 1u16 << rng.gen_range(0..16u32),
            2 => u16::MAX,
            3 if !plane.is_empty() => {
                plane[rng.gen_range(0..plane.len())] ^ (1u16 << rng.gen_range(0..16u32))
            }
            _ => rng.gen::<u32>() as u16,
        };
        tiles[lane / 4] |= u64::from(tile) << (16 * (lane % 4));
    }
    let mut masks = [u64::MAX; LANE_WORDS];
    if rng.gen_bool(0.5) {
        let last = lanes - 1;
        let narrow = (1u64 << rng.gen_range(1..16u32)) - 1;
        masks[last / 4] &= !(0xFFFF << (16 * (last % 4))) | narrow << (16 * (last % 4));
    }
    LaneCase { planes, tiles, masks }
}

/// Runs `case` at every tier the host has, returning each tier's
/// answer.
fn every_tier(case: &LaneCase) -> Vec<(SimdLevel, LaneOutcome)> {
    let _guard = FORCE_LOCK.lock().unwrap();
    let original = simd::level();
    let answers = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .map(|level| {
            simd::force(level);
            (simd::level(), simd::sweep16(DecideLanes(case)))
        })
        .collect();
    simd::force(original);
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lane matcher at every tier equals its scalar twin, and the
    /// twin equals the rule, on groups of 1 to 32 lanes (the narrow ones
    /// folded) with per-lane pattern counts mixed inside the group.
    #[test]
    fn lane_matcher_matches_the_twin_and_the_rule(
        lanes in 1usize..=LANE_GROUP,
        seed in any::<u64>(),
    ) {
        let case = lane_case(lanes, seed);
        let want = rule(&case);
        prop_assert_eq!(twin(&case), want);
        for (level, got) in every_tier(&case) {
            prop_assert!(got == want, "tier {} differs from the rule", level);
        }
    }
}

/// Ties go to the lowest index at every tier: duplicates, equal-distance
/// patterns on both sides of a fold's replica boundary, and an exact hit
/// behind an earlier near miss.
#[test]
fn lane_matcher_keeps_the_lowest_index_tie_rule() {
    for lanes in [1usize, 2, 5, 16, 17, 32] {
        let planes: Vec<Vec<u16>> = (0..lanes)
            .map(|lane| match lane % 3 {
                // Two patterns one bit from 0b0111, then an exact copy.
                0 => vec![0b0011, 0b0110, 0b0111, 0b0111],
                // Duplicates of the same pattern.
                1 => vec![0b1100; 40],
                // Equal distances 1 everywhere; index 0 must win.
                _ => (0..33).map(|i| 0b1110 ^ (1 << (i % 4))).collect(),
            })
            .collect();
        let mut tiles = [0u64; LANE_WORDS];
        for lane in 0..lanes {
            let tile: u16 = match lane % 3 {
                0 => 0b0111,
                1 => 0b1101,
                _ => 0b1110,
            };
            tiles[lane / 4] |= u64::from(tile) << (16 * (lane % 4));
        }
        let case = LaneCase { planes, tiles, masks: [u64::MAX; LANE_WORDS] };
        let want = rule(&case);
        for lane in 0..lanes {
            let index = match lane % 3 {
                0 => 2,
                _ => 0,
            };
            assert_eq!(want.0[lane], index, "lane {lane} of {lanes}");
        }
        assert_eq!(twin(&case), want, "{lanes} lanes");
        for (level, got) in every_tier(&case) {
            assert_eq!(got, want, "{lanes} lanes at {level}");
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
    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        simd::force(level);
        let got = simd::level();
        // Whatever clamping decided, the kernels must agree with scalar.
        let words = [0x0123_4567_89AB_CDEFu64, u64::MAX, 0, 42];
        assert_eq!(simd::popcount_words(&words), scalar::popcount_words(&words), "at {got}");
    }
    simd::force(original);
    assert_eq!(simd::level(), original);
}
