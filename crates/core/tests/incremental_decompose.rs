//! Property tests for the incremental (delta) decomposition path:
//! [`decompose_delta`] must be invisible in the results and exact in its
//! accounting.
//!
//! * A streamed sequence of frames, each swept sparse or full at random
//!   on one memo (as the streaming executor mixes them), equals the full
//!   [`decompose`] of each raw frame — or of its changed rows — bit for
//!   bit, at every delta rate, for packed layers (k ≤ 16, whose changed
//!   rows take the lane sweep) and unpacked ones (k = 20, 32) at every
//!   cache capacity (0 / 1 / ample). Every frame is ragged: its final
//!   partition is narrower than k, and its patterns carry bits beyond it.
//! * Every sweep's [`DeltaStats`] equals a brute-force count from the raw
//!   bits of the frame and the previous one.
//! * An identical frame re-decides zero tiles (every row takes the
//!   whole-row skip) and moves no cache counter.
//!
//! The cache-accounting tests run at k = 20: a packed layer never
//! consults the [`TileCache`], so its counters stay at zero. A changed
//! row of an unpacked layer is re-swept whole, so it probes the cache once
//! per nontrivial tile, exactly as [`decompose_cached`] would.
//! * Flipping a bit in exactly one tile re-decides exactly that tile.
//! * [`Decomposition::concat`] of per-frame decompositions equals the
//!   fused decomposition of the vstacked frames.
//! * [`decompose_delta_sparse`] keeps identical memo/stats accounting
//!   while emitting exactly the changed rows, each bit-identical to
//!   decomposing those activation rows alone.
//!
//! [`decompose_cached`]: phi_core::decompose_cached

use phi_core::{
    decompose, decompose_delta, decompose_delta_sparse, CalibrationConfig, Calibrator,
    Decomposition, DeltaStats, FrameMemo, LayerMatchIndex, LayerPatterns, TileCache,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::SpikeMatrix;

/// Calibrated patterns for frames of the given width, at partition
/// width `k`. Calibration sees whole partitions, so when `cols` leaves a
/// narrow final partition its patterns carry bits beyond the frame.
fn calibrated(cols: usize, k: usize, q: usize, seed: u64) -> LayerPatterns {
    let mut rng = StdRng::seed_from_u64(seed);
    let cal_acts = SpikeMatrix::random(96, cols.div_ceil(k) * k, 0.25, &mut rng);
    let cal = Calibrator::new(CalibrationConfig { k, q, ..Default::default() });
    cal.calibrate(&cal_acts, &mut rng)
}

/// The next timestep frame: each row of `prev` is resampled with
/// probability `delta`, otherwise kept bit-identical — the streaming
/// workload shape the delta path is built for.
fn next_frame(prev: &SpikeMatrix, delta: f64, rng: &mut StdRng) -> SpikeMatrix {
    let mut frame = prev.clone();
    for r in 0..prev.rows() {
        if rng.gen_bool(delta) {
            for c in 0..prev.cols() {
                frame.set(r, c, rng.gen_bool(0.25));
            }
        }
    }
    frame
}

/// `cols` moved off a multiple of `k`, so the final partition is narrow.
fn ragged(cols: usize, k: usize) -> usize {
    if cols.is_multiple_of(k) {
        cols - 1
    } else {
        cols
    }
}

/// The rows of `frame` that differ from `prev` (every row without one).
fn changed_rows(frame: &SpikeMatrix, prev: Option<&SpikeMatrix>) -> Vec<usize> {
    (0..frame.rows())
        .filter(|&r| prev.is_none_or(|p| frame.row_words(r) != p.row_words(r)))
        .collect()
}

/// A delta sweep's counters by brute force from the raw bits: a row equal
/// to `prev`'s is skipped, and each nonzero tile of any other row is
/// reused when `prev` holds the same bits at its position.
fn brute_stats(frame: &SpikeMatrix, prev: Option<&SpikeMatrix>, k: usize) -> DeltaStats {
    let mut stats = DeltaStats { rows_total: frame.rows() as u64, ..DeltaStats::default() };
    let changed = changed_rows(frame, prev);
    stats.rows_skipped = (frame.rows() - changed.len()) as u64;
    for r in changed {
        for part in 0..frame.num_partitions(k) {
            let width = k.min(frame.cols() - part * k);
            let tile = frame.tile(r, part * k, width);
            if tile == 0 {
                continue;
            }
            if prev.is_some_and(|p| p.tile(r, part * k, width) == tile) {
                stats.tiles_reused += 1;
            } else {
                stats.tiles_rematched += 1;
            }
        }
    }
    stats
}

/// The rows `rows` of `frame`, stacked.
fn subset(frame: &SpikeMatrix, rows: &[usize]) -> SpikeMatrix {
    SpikeMatrix::from_fn(rows.len(), frame.cols(), |r, c| frame.get(rows[r], c))
}

#[test]
fn identical_frame_skips_every_row_and_rematches_nothing() {
    let patterns = calibrated(50, 20, 32, 11);
    let mut rng = StdRng::seed_from_u64(12);
    let frame = SpikeMatrix::random(8, 50, 0.3, &mut rng);
    let cache = TileCache::new(1 << 12);
    let mut memo = FrameMemo::new();
    assert!(!memo.is_warm());

    let (first, cold) = decompose_delta(&frame, &patterns, &LayerMatchIndex, &cache, &mut memo);
    assert_eq!(first, decompose(&frame, &patterns));
    assert!(memo.is_warm());
    assert_eq!(cold.rows_total, 8);
    assert_eq!(cold.rows_skipped, 0);
    assert_eq!(cold.tiles_reused, 0);
    assert!(cold.tiles_rematched > 0, "a cold memo must re-decide its nonzero tiles");

    let counters_before = cache.stats();
    let (second, warm) = decompose_delta(&frame, &patterns, &LayerMatchIndex, &cache, &mut memo);
    assert_eq!(second, first);
    assert_eq!(warm.rows_skipped, 8, "every identical row must take the whole-row skip");
    assert_eq!(warm.tiles_rematched, 0);
    assert_eq!(warm.tiles_reused, 0, "skipped rows never reach the per-tile diff");
    assert_eq!(
        cache.stats(),
        counters_before,
        "the row-skip fast path must not move any cache counter"
    );
}

#[test]
fn single_tile_flip_rematches_exactly_that_tile() {
    let patterns = calibrated(50, 16, 32, 21);
    let k = patterns.k();
    let parts = patterns.num_partitions();
    let mut rng = StdRng::seed_from_u64(22);
    let frame = SpikeMatrix::random(6, 50, 0.3, &mut rng);
    let cache = TileCache::new(1 << 12);
    let mut memo = FrameMemo::new();
    decompose_delta(&frame, &patterns, &LayerMatchIndex, &cache, &mut memo);

    // Flip one bit in the tile at (row 3, partition 1); every other row
    // stays identical and every other tile of row 3 keeps its bits.
    let mut flipped = frame.clone();
    let (row, part) = (3usize, 1usize);
    let col = part * k + 2;
    flipped.set(row, col, !flipped.get(row, col));

    let (d, stats) = decompose_delta(&flipped, &patterns, &LayerMatchIndex, &cache, &mut memo);
    assert_eq!(d, decompose(&flipped, &patterns));
    assert_eq!(stats.rows_skipped, 5, "only the flipped row may re-unpack");
    assert_eq!(stats.tiles_rematched, 1, "exactly the flipped tile re-decides");
    // The flipped row's other nonzero tiles replay from the memo.
    let nonzero_in_row: u64 =
        (0..parts).filter(|&p| flipped.partition_tile(row, p, k) != 0).count() as u64;
    let flipped_tile_nonzero = u64::from(flipped.partition_tile(row, part, k) != 0);
    assert_eq!(stats.tiles_reused, nonzero_in_row - flipped_tile_nonzero);
}

#[test]
fn cache_counters_stay_exact_under_the_row_skip_fast_path() {
    let patterns = calibrated(48, 20, 32, 31);
    let mut rng = StdRng::seed_from_u64(32);
    let frame_a = SpikeMatrix::random(5, 48, 0.3, &mut rng);
    let frame_b = next_frame(&frame_a, 0.5, &mut rng);
    let cache = TileCache::new(1 << 12);
    let mut memo = FrameMemo::new();

    decompose_delta(&frame_a, &patterns, &LayerMatchIndex, &cache, &mut memo);
    decompose_delta(&frame_a, &patterns, &LayerMatchIndex, &cache, &mut memo);
    let before = cache.stats();
    // The replays above must not have counted: only the cold sweep's
    // nontrivial tiles probed the cache.
    assert_eq!(before.hits + before.misses, {
        let nontrivial: u64 = (0..frame_a.rows())
            .map(|r| {
                (0..patterns.num_partitions())
                    .filter(|&p| frame_a.partition_tile(r, p, patterns.k()).count_ones() >= 2)
                    .count() as u64
            })
            .sum();
        nontrivial
    });

    // A changed row is re-swept whole, so it probes the cache once per
    // nontrivial tile, as `decompose_cached` would; unchanged rows stay
    // silent.
    decompose_delta(&frame_b, &patterns, &LayerMatchIndex, &cache, &mut memo);
    let after = cache.stats();
    let probes = (after.hits + after.misses) - (before.hits + before.misses);
    let nontrivial: u64 = changed_rows(&frame_b, Some(&frame_a))
        .into_iter()
        .map(|r| {
            (0..patterns.num_partitions())
                .filter(|&p| frame_b.partition_tile(r, p, patterns.k()).count_ones() >= 2)
                .count() as u64
        })
        .sum();
    assert_eq!(probes, nontrivial, "a changed row probes once per nontrivial tile");
}

#[test]
fn shape_change_resets_the_memo_instead_of_corrupting_it() {
    let patterns = calibrated(48, 16, 32, 41);
    let cache = TileCache::new(1 << 12);
    let mut rng = StdRng::seed_from_u64(42);
    let mut memo = FrameMemo::new();
    let tall = SpikeMatrix::random(8, 48, 0.3, &mut rng);
    let short = SpikeMatrix::random(3, 48, 0.3, &mut rng);
    for frame in [&tall, &short, &tall] {
        let (d, _) = decompose_delta(frame, &patterns, &LayerMatchIndex, &cache, &mut memo);
        assert_eq!(d, decompose(frame, &patterns));
        assert!(d.verify_lossless(frame));
    }
    memo.reset();
    assert!(!memo.is_warm());
    let (d, stats) = decompose_delta(&tall, &patterns, &LayerMatchIndex, &cache, &mut memo);
    assert_eq!(d, decompose(&tall, &patterns));
    assert_eq!(stats.rows_skipped, 0, "a reset memo must run cold");
}

#[test]
fn concat_equals_the_fused_decomposition() {
    let patterns = calibrated(50, 16, 32, 51);
    let cache = TileCache::disabled();
    let mut rng = StdRng::seed_from_u64(52);
    let frames: Vec<SpikeMatrix> =
        (0..4).map(|_| SpikeMatrix::random(4, 50, 0.3, &mut rng)).collect();
    let mut memo = FrameMemo::new();
    let decomps: Vec<Decomposition> = frames
        .iter()
        .map(|f| decompose_delta(f, &patterns, &LayerMatchIndex, &cache, &mut memo).0)
        .collect();
    let refs: Vec<&Decomposition> = decomps.iter().collect();
    let fused_acts = SpikeMatrix::vstack(&frames.iter().collect::<Vec<_>>()).unwrap();
    assert_eq!(Decomposition::concat(&refs), decompose(&fused_acts, &patterns));
    assert_eq!(Decomposition::concat(&refs[..1]), decomps[0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A streamed window of frames decomposed incrementally on one memo,
    /// each step sparse or full at random, equals the full decomposition
    /// of each raw frame (a sparse step: of its changed rows), bit for
    /// bit, across delta rates, packed and unpacked widths, cache
    /// capacities (disabled / thrashing / ample), q, and ragged frame
    /// shapes — and every step's accounting equals the brute-force count.
    #[test]
    fn delta_stream_is_bit_identical_to_full_decomposition(
        seed in 0u64..1_000,
        rows in 1usize..9,
        cols in 17usize..200,
        k in prop::sample::select(vec![5usize, 12, 16, 20, 32]),
        q in prop::sample::select(vec![32usize, 128]),
        delta in prop::sample::select(vec![0.0f64, 0.1, 0.5, 1.0]),
        capacity in prop::sample::select(vec![0usize, 1, 1 << 12]),
    ) {
        let cols = ragged(cols, k);
        let patterns = calibrated(cols, k, q, seed);
        let cache = TileCache::new(capacity);
        let mut memo = FrameMemo::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        let mut frame = SpikeMatrix::random(rows, cols, 0.25, &mut rng);
        let mut prev: Option<SpikeMatrix> = None;
        for _ in 0..6 {
            let want = brute_stats(&frame, prev.as_ref(), k);
            let stats = if rng.gen_bool(0.5) {
                let (d, stats) = decompose_delta_sparse(
                    &frame, &patterns, &LayerMatchIndex, &cache, &mut memo,
                );
                let kept = changed_rows(&frame, prev.as_ref());
                prop_assert_eq!(&d, &decompose(&subset(&frame, &kept), &patterns));
                stats
            } else {
                let (d, stats) =
                    decompose_delta(&frame, &patterns, &LayerMatchIndex, &cache, &mut memo);
                prop_assert_eq!(&d, &decompose(&frame, &patterns));
                prop_assert!(d.verify_lossless(&frame));
                stats
            };
            prop_assert_eq!(stats, want);
            let next = next_frame(&frame, delta, &mut rng);
            prev = Some(std::mem::replace(&mut frame, next));
        }
    }

    /// The sparse sweep run in lockstep with the full sweep: identical
    /// stats (both the brute-force count) and per-row change flags, and
    /// its output is exactly the changed rows — bit-identical to
    /// decomposing just those activation rows (row independence under the
    /// matcher rule).
    #[test]
    fn sparse_sweep_matches_the_changed_rows_of_the_full_sweep(
        seed in 0u64..1_000,
        rows in 1usize..9,
        cols in 17usize..200,
        k in prop::sample::select(vec![5usize, 12, 16, 20, 32]),
        delta in prop::sample::select(vec![0.0f64, 0.1, 0.5, 1.0]),
    ) {
        let cols = ragged(cols, k);
        let patterns = calibrated(cols, k, 32, seed);
        let cache = TileCache::disabled();
        let mut full_memo = FrameMemo::new();
        let mut sparse_memo = FrameMemo::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5BA45E);
        let mut frame = SpikeMatrix::random(rows, cols, 0.25, &mut rng);
        let mut prev: Option<SpikeMatrix> = None;
        for _ in 0..5 {
            let (_, full_stats) =
                decompose_delta(&frame, &patterns, &LayerMatchIndex, &cache, &mut full_memo);
            let (sparse, sparse_stats) =
                decompose_delta_sparse(&frame, &patterns, &LayerMatchIndex, &cache, &mut sparse_memo);
            prop_assert_eq!(full_stats, brute_stats(&frame, prev.as_ref(), k));
            prop_assert_eq!(sparse_stats, full_stats);
            prop_assert_eq!(sparse_memo.row_changed(), full_memo.row_changed());
            let kept: Vec<usize> = sparse_memo
                .row_changed()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c)
                .map(|(r, _)| r)
                .collect();
            prop_assert_eq!(&kept, &changed_rows(&frame, prev.as_ref()));
            let subset = subset(&frame, &kept);
            prop_assert_eq!(&sparse, &decompose(&subset, &patterns));
            prop_assert!(sparse.verify_lossless(&subset));
            let next = next_frame(&frame, delta, &mut rng);
            prev = Some(std::mem::replace(&mut frame, next));
        }
    }
}
