//! Packed-sweep equivalence: the brute-force walk that decides every
//! tile of a packed layer (k ≤ 16, q ≤ 2048 per partition) must give the
//! decomposition the linear reference gives.
//!
//! The reference is [`decompose`] at forced scalar dispatch, where
//! `PatternSet::best_match` runs its exact lookup and pruned scan and no
//! packed kernel is involved. [`decompose_cached`], [`decompose_delta`]
//! and [`decompose_delta_sparse`] run at whatever level the host (or
//! `PHI_SIMD`) resolves to, all three through the lane matcher
//! (`Hamming16::match_lanes16`; the delta sweeps over each frame's
//! changed rows), so running this suite under the default level,
//! `PHI_SIMD=avx2` and `PHI_SIMD=scalar` covers every tier of it.
//!
//! The random layers cover widths that do and do not divide 64, column
//! counts with a narrow final partition, empty sets, one-hot and
//! duplicate patterns, pattern bits beyond the final partition's width,
//! q ∈ {1, 31, 32, 33, 2048} plus the unpacked q = 2049 fallback, and
//! all-zero, dense, near-pattern and random rows. Wider layers cross the
//! lane matcher's 32-partition groups (k = 16 at 496, 512, 513 and 1040
//! columns; k ∈ {5, 8, 12} past 32 partitions) with a different pattern
//! count in every partition and up to 300 rows. The served shape is
//! covered too: VGG-16 calibrated as the default compile does, with 8
//! batches of 32 four-row requests, every layer.

use phi_core::simd::{self, SimdLevel};
use phi_core::{
    decompose, decompose_cached, decompose_delta, decompose_delta_sparse, CalibrationConfig,
    Calibrator, Decomposition, FrameMemo, LayerMatchIndex, LayerPatterns, Pattern, PatternSet,
    TileCache, TileCacheStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::SpikeMatrix;
use snn_workloads::{DatasetId, ModelId, WorkloadConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests: the reference forces the process-global
/// dispatch level, which must not leak into another test's sweeps.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn force_lock() -> MutexGuard<'static, ()> {
    FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The linear reference at forced scalar dispatch.
fn reference(acts: &SpikeMatrix, patterns: &LayerPatterns) -> Decomposition {
    let prev = simd::force(SimdLevel::Scalar);
    let d = decompose(acts, patterns);
    simd::force(prev);
    d
}

/// `q` width-`k` patterns: random words, one-hot words and duplicates of
/// earlier entries, with bits anywhere below `k` (so the final partition
/// of a ragged layer sees pattern bits beyond its width).
fn pattern_set(k: usize, q: usize, rng: &mut StdRng) -> PatternSet {
    let mask = (1u64 << k) - 1;
    let mut bits: Vec<u64> = Vec::with_capacity(q);
    for i in 0..q {
        let b = match rng.gen_range(0..4) {
            0 if i > 0 => bits[rng.gen_range(0..i)],
            1 => 1 << rng.gen_range(0..k),
            _ => rng.gen::<u64>() & mask,
        };
        bits.push(b);
    }
    PatternSet::new(k, bits.into_iter().map(|b| Pattern::new(b, k)).collect())
}

/// One set per partition of a `cols`-wide layer, about a fifth of them
/// empty.
fn layer(k: usize, q: usize, cols: usize, rng: &mut StdRng) -> LayerPatterns {
    let sets = (0..cols.div_ceil(k))
        .map(|_| if rng.gen_bool(0.2) { PatternSet::empty(k) } else { pattern_set(k, q, rng) })
        .collect();
    LayerPatterns::new(k, sets)
}

/// Fills row `r` with one of four kinds: all-zero, dense (every bit
/// set), near-pattern (each tile a pattern with one bit flipped) or
/// random.
fn fill_row(m: &mut SpikeMatrix, r: usize, patterns: &LayerPatterns, rng: &mut StdRng) {
    let (k, cols) = (patterns.k(), m.cols());
    for part in 0..patterns.num_partitions() {
        let width = k.min(cols - part * k);
        let set = patterns.set(part);
        let tile = match rng.gen_range(0..4) {
            0 => 0,
            1 => u64::MAX,
            2 if !set.is_empty() => {
                set.pattern(rng.gen_range(0..set.len())).bits() ^ (1 << rng.gen_range(0..k))
            }
            _ => rng.gen::<u64>(),
        };
        m.set_tile(r, part * k, width, tile & ((1u64 << width) - 1));
    }
}

fn activations(
    rows: usize,
    cols: usize,
    patterns: &LayerPatterns,
    rng: &mut StdRng,
) -> SpikeMatrix {
    let mut m = SpikeMatrix::zeros(rows, cols);
    for r in 0..rows {
        match rng.gen_range(0..4) {
            0 => {}
            1 => (0..cols).for_each(|c| m.set(r, c, true)),
            _ => fill_row(&mut m, r, patterns, rng),
        }
    }
    m
}

/// One set per partition of a `cols`-wide layer, each with its own
/// pattern count: empty, small, straddling a vector stride, a few
/// hundred, or (rarely) the packed limit.
fn mixed_layer(k: usize, cols: usize, rng: &mut StdRng) -> LayerPatterns {
    let counts = [0usize, 1, 7, 31, 32, 33, 128];
    let sets = (0..cols.div_ceil(k))
        .map(|_| {
            let q = if rng.gen_bool(0.02) {
                simd::PLANE16_MAX_LEN
            } else {
                counts[rng.gen_range(0..counts.len())]
            };
            pattern_set(k, q, rng)
        })
        .collect();
    LayerPatterns::new(k, sets)
}

/// The activation rows `row_changed` marks, in order — what a sparse
/// delta sweep emits.
fn changed_rows(frame: &SpikeMatrix, row_changed: &[bool]) -> SpikeMatrix {
    let kept: Vec<usize> = (0..frame.rows()).filter(|&r| row_changed[r]).collect();
    SpikeMatrix::from_fn(kept.len(), frame.cols(), |r, c| frame.get(kept[r], c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cached sweep (twice, so a warm cache would show) and a
    /// four-frame delta stream, full and sparse in lockstep, equal the
    /// scalar reference; a packed layer leaves the cache's counters at 0.
    #[test]
    fn packed_sweeps_equal_the_scalar_reference(
        k in prop::sample::select(vec![5usize, 8, 12, 16]),
        q in prop::sample::select(vec![1usize, 31, 32, 33, 2048, 2049]),
        cols in prop::sample::select(vec![16usize, 27, 50, 64, 100]),
        rows in 1usize..20,
        seed in any::<u64>(),
    ) {
        let _guard = force_lock();
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns = layer(k, q, cols, &mut rng);
        let mut frame = activations(rows, cols, &patterns, &mut rng);
        let want = reference(&frame, &patterns);
        prop_assert!(want.verify_lossless(&frame));

        let cache = TileCache::new(1 << 12);
        for _ in 0..2 {
            prop_assert_eq!(&decompose_cached(&frame, &patterns, &LayerMatchIndex, &cache), &want);
        }
        prop_assert_eq!(&decompose_cached(&frame, &patterns, &LayerMatchIndex, &TileCache::disabled()), &want);

        let mut full = FrameMemo::new();
        let mut sparse = FrameMemo::new();
        for _ in 0..4 {
            let want = reference(&frame, &patterns);
            let (d, full_stats) = decompose_delta(&frame, &patterns, &LayerMatchIndex, &cache, &mut full);
            prop_assert_eq!(&d, &want);
            let (s, sparse_stats) =
                decompose_delta_sparse(&frame, &patterns, &LayerMatchIndex, &cache, &mut sparse);
            prop_assert_eq!(sparse_stats, full_stats);
            let subset = changed_rows(&frame, sparse.row_changed());
            prop_assert_eq!(&s, &reference(&subset, &patterns));
            // Resample about a third of the rows and flip one bit, so the
            // next frame mixes skipped rows, reused tiles and new tiles.
            for r in 0..rows {
                if rng.gen_bool(0.33) {
                    fill_row(&mut frame, r, &patterns, &mut rng);
                }
            }
            let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
            frame.set(r, c, !frame.get(r, c));
        }

        let stats = cache.stats();
        if q <= simd::PLANE16_MAX_LEN {
            prop_assert_eq!(stats, TileCacheStats { capacity: 1 << 12, ..Default::default() });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layers wider than one 32-partition group — k = 16 at column
    /// counts around group and word boundaries, and k ∈ {5, 8, 12}, whose
    /// tiles are repacked into lanes — with a different pattern count in
    /// every partition and up to 300 rows, so the sweep splits into
    /// several row chunks: the cached sweep and a delta frame equal the
    /// scalar reference.
    #[test]
    fn multi_group_layers_equal_the_scalar_reference(
        k in prop::sample::select(vec![5usize, 8, 12, 16]),
        cols in prop::sample::select(vec![496usize, 512, 513, 1040]),
        rows in 1usize..=300,
        seed in any::<u64>(),
    ) {
        let _guard = force_lock();
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns = mixed_layer(k, cols, &mut rng);
        let frame = activations(rows, cols, &patterns, &mut rng);
        let want = reference(&frame, &patterns);
        prop_assert!(want.verify_lossless(&frame));
        let cache = TileCache::disabled();
        prop_assert_eq!(&decompose_cached(&frame, &patterns, &LayerMatchIndex, &cache), &want);
        let (d, _) = decompose_delta(&frame, &patterns, &LayerMatchIndex, &cache, &mut FrameMemo::new());
        prop_assert_eq!(&d, &want);
    }
}

/// The `phibench fullsim` shape: VGG-16 calibrated as
/// `CompileOptions::default()` does (layer `i` with seed `7 + i`), eight
/// pool batches of 32 four-row requests, every layer decomposed fused.
#[test]
fn vgg16_fullsim_batches_equal_the_scalar_reference() {
    let _guard = force_lock();
    let workload = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let calibrator = Calibrator::new(CalibrationConfig::default());
    let layers: Vec<LayerPatterns> = workload
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            calibrator.calibrate(&l.calibration, &mut StdRng::seed_from_u64(7 + i as u64))
        })
        .collect();
    let requests = workload.sample_client_requests(1 << 20, 8 * 32, 4, 1);
    let cache = TileCache::new(1 << 15);
    for batch in requests.chunks(32) {
        for (l, patterns) in layers.iter().enumerate() {
            let frames: Vec<&SpikeMatrix> = batch.iter().map(|r| &r[l]).collect();
            let stacked = SpikeMatrix::vstack(&frames).expect("one layer width");
            let want = reference(&stacked, patterns);
            let name = &workload.layers[l].spec.name;
            assert_eq!(
                decompose_cached(&stacked, patterns, &LayerMatchIndex, &cache),
                want,
                "{name}"
            );
            let mut memo = FrameMemo::new();
            let (d, _) = decompose_delta(&stacked, patterns, &LayerMatchIndex, &cache, &mut memo);
            assert_eq!(d, want, "{name} (delta)");
        }
    }
    assert_eq!(cache.stats(), TileCacheStats { capacity: 1 << 15, ..Default::default() });
}
