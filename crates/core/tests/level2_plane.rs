//! Level 2 from first principles.
//!
//! Every correction of a decomposition follows from its activation and
//! its Level-1 assignment: a tile's corrections are
//! `activation XOR assigned pattern bits` (the pattern masked to the
//! partition's width, and no bits at all for an unassigned tile), `−1`
//! where the pattern's bit is 1 and `+1` elsewhere. This suite derives
//! exactly that from the raw activation bits — the assignment itself too,
//! by a brute-force scan of the matcher rule — and checks every Level-2
//! accessor against it: `l2_row`, `l2_tile`, `l2_tile_nnz`, `l2_nnz`,
//! `stats()` and `reconstruct`.
//!
//! It covers every entry point: `decompose`, `decompose_cached` on packed
//! (k ≤ 16) and unpacked (k = 32) layers with a disabled and an enabled
//! cache, both delta sweeps on a warm memo, and `concat` of parts from
//! different entry points. Widths are k ∈ {5, 12, 16, 32}, and four
//! column counts in five leave a narrow final partition, whose patterns
//! carry bits beyond its width.

use phi_core::{
    decompose, decompose_cached, decompose_delta, decompose_delta_sparse, Decomposition, FrameMemo,
    L2Entry, LayerMatchIndex, LayerPatterns, Pattern, PatternSet, TileCache,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::SpikeMatrix;

/// One partition's decision and corrections, derived from the raw bits.
struct Tile {
    pattern: Option<u16>,
    /// The assigned pattern's bits masked to the partition width (0 when
    /// unassigned).
    pattern_bits: u64,
    /// The signed corrections, ascending by column.
    corrections: Vec<L2Entry>,
}

/// The matcher rule by brute force: the nearest pattern (Hamming distance
/// over the pattern's full width), lowest index on ties, assigned iff its
/// distance is below the tile's bit count; then the corrections.
fn derive(tile: u64, set: &PatternSet, base: usize, width: usize) -> Tile {
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    let best =
        set.pattern_bits().iter().enumerate().map(|(j, &p)| ((p ^ tile).count_ones(), j)).min();
    let pattern = match best {
        Some((dist, j)) if dist < tile.count_ones() => Some(j as u16),
        _ => None,
    };
    let pattern_bits = pattern.map_or(0, |j| set.pattern_bits()[j as usize] & mask);
    let diff = pattern_bits ^ tile;
    let corrections = (0..width)
        .filter(|&b| (diff >> b) & 1 == 1)
        .map(|b| L2Entry {
            col: (base + b) as u32,
            value: if (pattern_bits >> b) & 1 == 1 { -1 } else { 1 },
        })
        .collect();
    Tile { pattern, pattern_bits, corrections }
}

/// Checks every Level-2 accessor of `d` against the corrections derived
/// from `acts`.
fn check(d: &Decomposition, acts: &SpikeMatrix, patterns: &LayerPatterns) {
    let (k, cols) = (patterns.k(), acts.cols());
    assert_eq!((d.rows(), d.cols()), (acts.rows(), cols));
    let (mut l1_ones, mut pos, mut neg, mut assigned) = (0u64, 0u64, 0u64, 0u64);
    for r in 0..acts.rows() {
        let mut row = Vec::new();
        for part in 0..patterns.num_partitions() {
            let width = k.min(cols - part * k);
            let tile = derive(acts.tile(r, part * k, width), patterns.set(part), part * k, width);
            assert_eq!(d.l1_index(r, part), tile.pattern, "row {} part {}", r, part);
            assert_eq!(d.l2_tile(r, part).collect::<Vec<_>>(), tile.corrections.clone());
            assert_eq!(d.l2_tile_nnz(r, part) as usize, tile.corrections.len());
            assert_eq!(d.assignment(r, part).l2_nnz as usize, tile.corrections.len());
            l1_ones += u64::from(tile.pattern_bits.count_ones());
            assigned += u64::from(tile.pattern.is_some());
            row.extend(tile.corrections);
        }
        pos += row.iter().filter(|e| e.value == 1).count() as u64;
        neg += row.iter().filter(|e| e.value == -1).count() as u64;
        assert_eq!(d.l2_row(r).len(), row.len());
        assert_eq!(d.l2_row(r).collect::<Vec<_>>(), row, "row {}", r);
    }
    assert_eq!(d.l2_nnz(), pos + neg);
    let s = d.stats();
    assert_eq!((s.l1_ones, s.l2_pos, s.l2_neg), (l1_ones, pos, neg));
    assert_eq!((s.bit_nnz, s.assigned_tiles), (acts.nnz() as u64, assigned));
    assert!(d.reconstruct() == *acts);
    assert!(d.verify_lossless(acts));
}

/// Per-partition prototype sets over the full width `k` — so the final
/// partition of a ragged layer holds bits beyond its width — with the
/// occasional one-hot pattern, and `q` patterns in all.
fn prototypes(k: usize, parts: usize, q: usize, rng: &mut StdRng) -> LayerPatterns {
    let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    let sets = (0..parts)
        .map(|_| {
            let bits = (0..q).map(|_| match rng.gen_range(0..8) {
                0 => 1u64 << rng.gen_range(0..k),
                _ => rng.gen::<u64>() & rng.gen::<u64>() & mask,
            });
            PatternSet::new(k, bits.map(|b| Pattern::new(b, k)).collect())
        })
        .collect();
    LayerPatterns::new(k, sets)
}

/// A frame whose tiles are empty, a prototype with a few bits flipped, or
/// random; one row in eight is empty.
fn frame(rows: usize, cols: usize, patterns: &LayerPatterns, rng: &mut StdRng) -> SpikeMatrix {
    let k = patterns.k();
    let mut acts = SpikeMatrix::zeros(rows, cols);
    for r in 0..rows {
        if rng.gen_range(0..8) == 0 {
            continue;
        }
        for part in 0..patterns.num_partitions() {
            let width = k.min(cols - part * k);
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let set = patterns.set(part).pattern_bits();
            let tile = match rng.gen_range(0..4) {
                0 => 0,
                1 | 2 if !set.is_empty() => {
                    let mut t = set[rng.gen_range(0..set.len())];
                    for _ in 0..rng.gen_range(0..3) {
                        t ^= 1 << rng.gen_range(0..k);
                    }
                    t
                }
                _ => rng.gen::<u64>() & rng.gen::<u64>(),
            };
            acts.set_tile(r, part * k, width, tile & mask);
        }
    }
    acts
}

/// `prev` with every fourth row and a share `delta` of the others drawn
/// afresh (a fresh row may repeat its old bits).
fn resample(
    prev: &SpikeMatrix,
    delta: f64,
    patterns: &LayerPatterns,
    rng: &mut StdRng,
) -> SpikeMatrix {
    let fresh = frame(prev.rows(), prev.cols(), patterns, rng);
    let redrawn: Vec<bool> = (0..prev.rows()).map(|r| r % 4 == 0 || rng.gen_bool(delta)).collect();
    SpikeMatrix::from_fn(prev.rows(), prev.cols(), |r, c| {
        if redrawn[r] {
            fresh.get(r, c)
        } else {
            prev.get(r, c)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_entry_point_matches_the_derived_level2(
        k in prop::sample::select(vec![5usize, 12, 16, 32]),
        full_parts in 1usize..40,
        short in 0usize..5,
        q in prop::sample::select(vec![0usize, 1, 3, 16, 40]),
        rows in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A final partition `short` columns narrower than k (short < k
        // for every k here), or a whole one.
        let cols = full_parts * k - short;
        let patterns = prototypes(k, full_parts, q, &mut rng);
        let first = frame(rows, cols, &patterns, &mut rng);
        let second = resample(&first, 0.3, &patterns, &mut rng);

        let linear = decompose(&first, &patterns);
        check(&linear, &first, &patterns);
        for cache in [TileCache::disabled(), TileCache::new(64)] {
            for _ in 0..2 {
                let cached = decompose_cached(&first, &patterns, &LayerMatchIndex, &cache);
                check(&cached, &first, &patterns);
            }
        }

        let cache = TileCache::new(64);
        let mut memo = FrameMemo::new();
        decompose_delta(&first, &patterns, &LayerMatchIndex, &cache, &mut memo);
        let delta = decompose_delta(&second, &patterns, &LayerMatchIndex, &cache, &mut memo).0;
        check(&delta, &second, &patterns);

        let mut memo = FrameMemo::new();
        decompose_delta_sparse(&first, &patterns, &LayerMatchIndex, &cache, &mut memo);
        let sparse =
            decompose_delta_sparse(&second, &patterns, &LayerMatchIndex, &cache, &mut memo).0;
        let changed: Vec<usize> = (0..rows).filter(|&r| memo.row_changed()[r]).collect();
        let changed_rows =
            SpikeMatrix::from_fn(changed.len(), cols, |i, c| second.get(changed[i], c));
        check(&sparse, &changed_rows, &patterns);

        let cached = decompose_cached(&second, &patterns, &LayerMatchIndex, &TileCache::disabled());
        let fused = Decomposition::concat(&[&linear, &delta, &sparse, &cached]);
        let stacked = SpikeMatrix::vstack(&[&first, &second, &changed_rows, &second]).unwrap();
        check(&fused, &stacked, &patterns);
    }
}
