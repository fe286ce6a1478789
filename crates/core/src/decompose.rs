//! The Phi sparsity decomposition (§3.1): split a binary activation matrix
//! into the Level-1 pattern-index matrix and the Level-2 `{+1, −1}`
//! correction matrix.
//!
//! For every row and every width-`k` partition, the *pattern matcher* rule
//! is applied (this paragraph is the authoritative statement of the rule;
//! every matcher in the workspace — [`crate::PatternSet::best_match`]
//! and the 32-partition lane matcher — implements it, and the
//! [`TileCache`] memoizes the former's decisions):
//!
//! * find the calibrated pattern with minimum Hamming distance to the
//!   tile, ties resolving to the lowest pattern index;
//! * if that distance beats the tile's own popcount (the "no pattern"
//!   baseline), assign the pattern and emit one `+1`/`−1` correction per
//!   mismatching bit (`+1` where activation has a 1 the pattern lacks, `−1`
//!   where the pattern has a 1 the activation lacks);
//! * otherwise assign no pattern and emit the tile's raw 1s as `+1`s.
//!
//! The decomposition is lossless by construction: summing the assigned
//! pattern row and the corrections reproduces the activation tile exactly.
//!
//! # Layout
//!
//! Level 1 is a `rows × partitions` matrix of `u16` pattern indices.
//! Level 2 is stored as one *correction bit plane* per row, in the
//! activation's word layout: bit `c % 64` of word `c / 64` is set when
//! column `c` carries a correction. Every correction equals
//! `activation XOR assigned pattern bits`, so its sign is derived, not
//! stored: `−1` where the assigned pattern's bit is 1, `+1` elsewhere
//! (every correction of an unassigned tile is a `+1`). [`L2Entry`] is the
//! signed view the iterators [`Decomposition::l2_row`] and
//! [`Decomposition::l2_tile`] yield; the counters ([`Decomposition::stats`],
//! [`Decomposition::l2_tile_nnz`]) are popcounts of plane words, and
//! [`Decomposition::reconstruct`] is a word XOR per row.
//!
//! # Entry points
//!
//! Four functions produce bit-identical [`Decomposition`]s:
//!
//! * [`decompose`] — the linear reference (§3.1 oracle): every tile probes
//!   [`crate::PatternSet::best_match`] (at scalar dispatch: an exact
//!   lookup, then the pruned scan).
//! * [`decompose_cached`] — the production sweep. A *packed* layer (every
//!   partition's set of width ≤ 16 with at most
//!   [`simd::PLANE16_MAX_LEN`] patterns — every served layer) is swept
//!   row-major, 32 partitions at a time: each row's tiles are gathered
//!   into `u16` lanes and [`Hamming16::match_lanes16`] compares all 32
//!   with one pattern each per step, against the pattern-major
//!   [`LanePlanes16`] the layer's patterns derive at construction — the
//!   way Phi's systolic matcher streams many tiles past its pattern
//!   registers. At k = 16 the matcher's correction words are the row's
//!   plane words as they stand; other widths place each lane's bits at
//!   its columns. The loop runs under one [`simd::sweep16`] dispatch with
//!   the kernel inlined, and never consults the cache. Any other layer
//!   (k > 16, or a partition with more patterns than one plane holds)
//!   decides each tile with [`crate::PatternSet::best_match`], the
//!   matcher [`decompose`] runs, and memoizes whole tile decisions in a
//!   shared, bounded [`TileCache`]; on [`TileCache::disabled`] it is the
//!   linear matcher alone.
//! * [`decompose_delta`] / [`decompose_delta_sparse`] — one frame of a
//!   stream, diffed row by row against the previous frame's
//!   [`FrameMemo`]. The rows that changed are re-swept, in place in the
//!   memo, by the same row sweep [`decompose_cached`] runs (the lane
//!   matcher, or the cache and [`crate::PatternSet::best_match`]); an
//!   unchanged row is the memo's L1 slice and plane words as they stand.
//!   The sparse variant emits the changed rows only.
//!
//! The [`LayerMatchIndex`] these entry points take carries no data.

use crate::calibrate::LayerPatterns;
use crate::pattern::PatternSet;
use crate::stats::SparsityStats;
use rayon::prelude::*;
use snn_core::simd::{self, Hamming16, Hamming16Sweep, LanePlanes16, LANE_GROUP, LANE_WORDS};
use snn_core::SpikeMatrix;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One signed Level-2 correction element, as [`Decomposition::l2_row`]
/// and [`Decomposition::l2_tile`] yield it. The decomposition stores only
/// the correction bit plane; the sign follows from the assigned pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L2Entry {
    /// Global column index in the activation matrix.
    pub col: u32,
    /// `+1` or `−1`.
    pub value: i8,
}

/// The pattern decision for one `(row, partition)` tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileAssignment {
    /// Index into the partition's [`crate::PatternSet`], or `None` when the
    /// tile keeps its raw bit sparsity.
    pub pattern: Option<u16>,
    /// Number of Level-2 corrections this tile produced.
    pub l2_nnz: u32,
}

/// A complete Phi decomposition of one activation matrix.
///
/// Holds the Level-1 index matrix (`rows × partitions`), the Level-2
/// correction bit plane (one row of `ceil(cols / 64)` words per activation
/// row, in the activation's word layout), and a copy of the pattern sets so
/// the decomposition is self-contained (the correction signs,
/// reconstruction and functional GEMM need the pattern bits).
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    rows: usize,
    cols: usize,
    patterns: LayerPatterns,
    /// Row-major `rows × parts` pattern indices; [`NO_PATTERN`] marks an
    /// unassigned tile (the hardware's reserved index, half the width of
    /// `Option<u16>` on the sweep's hottest write path).
    l1: Vec<u16>,
    /// The Level-2 correction plane, row-major `rows × ceil(cols / 64)`
    /// words: bit `c % 64` of a row's word `c / 64` is set when column `c`
    /// carries a correction. Bits past `cols` are zero.
    l2: Vec<u64>,
    /// Total popcount of all assigned patterns (Table 4's "L1 density"
    /// numerator).
    l1_ones: u64,
    l2_pos: u64,
    l2_neg: u64,
    bit_nnz: u64,
}

/// The sentinel [`Decomposition`] stores internally for "no pattern
/// assigned" — the same reserved value the wire format uses.
const NO_PATTERN: u16 = u16::MAX;

impl Decomposition {
    /// The sentinel value [`Decomposition::l1_row`] uses for an
    /// unassigned tile (the hardware's reserved index, also the wire
    /// format's).
    pub const NO_PATTERN: u16 = NO_PATTERN;
}

/// Decomposes `activations` against calibrated `patterns`.
///
/// # Panics
///
/// Panics if the pattern partition count does not match the activation
/// width (`ceil(cols / k)`).
///
/// # Example
///
/// ```
/// use phi_core::{decompose, LayerPatterns, Pattern, PatternSet};
/// use snn_core::SpikeMatrix;
///
/// // One partition of width 4 with a single pattern 0110.
/// let patterns = LayerPatterns::new(4, vec![PatternSet::new(4, vec![Pattern::new(0b0110, 4)])]);
/// let mut acts = SpikeMatrix::zeros(1, 4);
/// acts.set_tile(0, 0, 4, 0b0111); // differs from the pattern in bit 0
/// let phi = decompose(&acts, &patterns);
/// assert_eq!(phi.assignment(0, 0).pattern, Some(0));
/// assert_eq!(phi.l2_row(0).collect::<Vec<_>>(), [phi_core::L2Entry { col: 0, value: 1 }]);
/// assert!(phi.verify_lossless(&acts));
/// ```
pub fn decompose(activations: &SpikeMatrix, patterns: &LayerPatterns) -> Decomposition {
    check_partitioning(activations, patterns);
    sweep_chunks(activations, patterns, |lo, hi, out| {
        run_chunk(activations, patterns, lo..hi, out, |part, tile, baseline| {
            finish_decision(activations, patterns, part, tile, baseline, {
                patterns.set(part).best_match(tile)
            })
        })
    })
    .0
}

/// The production sweep: [`decompose`] with a faster matcher, bit-identical
/// to it.
///
/// A packed layer (k ≤ 16 and at most [`simd::PLANE16_MAX_LEN`] patterns
/// per partition) decides each row 32 partitions at a time with
/// [`Hamming16::match_lanes16`] under one [`simd::sweep16`] dispatch,
/// skipping groups whose tiles are all empty; `cache` is not consulted
/// and no cache counter moves.
///
/// Any other layer resolves every nontrivial tile with
/// [`PatternSet::best_match`], with a shared [`TileCache`] memoizing
/// whole tile decisions across calls: a hit skips the matcher
/// entirely and replays the stored decision. The cache is keyed by
/// `(partition, partition width, tile bits)` — the width matters because
/// the final partition of a narrower activation masks its corrections
/// differently — and every stored decision is a pure function of that
/// key, so the output is bit-identical to [`decompose`] regardless of
/// cache state, capacity, or eviction history (even when one cache is
/// shared across activations of different column counts), including a
/// disabled (capacity-0) cache, which is the matcher alone: no probe,
/// no commit, no counter movement.
///
/// An enabled sweep reads one immutable snapshot of the cache (lock-free
/// probes), resolves each distinct missed key through the matcher exactly
/// once (repeats within the sweep replay the in-flight decision), and
/// commits the resolved keys — with the sweep's hit/miss counts — in one
/// merge at the end.
///
/// # Panics
///
/// Panics if the pattern partition count does not match the activation
/// width, or if an enabled cache on an unpacked layer sees a partition
/// count beyond the key encoding's [`MAX_CACHE_PARTITIONS`].
pub fn decompose_cached(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    _index: &LayerMatchIndex,
    cache: &TileCache,
) -> Decomposition {
    let sweep = RowSweep::new(activations, patterns, cache);
    let (decomp, outcomes) =
        sweep_chunks(activations, patterns, |lo, hi, out| sweep.run(lo..hi, out));
    sweep.commit(outcomes);
    decomp
}

/// The row sweep of [`decompose_cached`], which the delta sweeps also run
/// over a frame's changed rows: the lane matcher on a packed layer,
/// otherwise [`PatternSet::best_match`] behind the [`TileCache`]
/// snapshot taken at construction (none on a disabled cache).
struct RowSweep<'a> {
    activations: &'a SpikeMatrix,
    patterns: &'a LayerPatterns,
    /// A packed layer's lane planes and the lane masks of its final group
    /// (see [`lane_masks`]).
    lanes: Option<(&'a LanePlanes16, [u64; LANE_WORDS])>,
    cache: &'a TileCache,
    snapshot: Option<Arc<TileMap>>,
}

/// One unpacked sweep's cache accounting: snapshot hits, missed probes,
/// and the decisions resolved for the misses.
type CacheOutcome = (u64, u64, TileMap);

impl<'a> RowSweep<'a> {
    /// # Panics
    ///
    /// Panics if the pattern partition count does not match the activation
    /// width, or if an enabled cache on an unpacked layer sees a partition
    /// count beyond [`MAX_CACHE_PARTITIONS`].
    fn new(
        activations: &'a SpikeMatrix,
        patterns: &'a LayerPatterns,
        cache: &'a TileCache,
    ) -> Self {
        check_partitioning(activations, patterns);
        let lanes = patterns
            .lanes()
            .map(|lanes| (lanes, lane_masks(activations.cols(), patterns.k(), lanes.partitions())));
        let parts = patterns.num_partitions();
        let snapshot = (lanes.is_none() && cache.is_enabled()).then(|| {
            assert!(
                parts <= MAX_CACHE_PARTITIONS,
                "partition count {parts} exceeds the cache key space"
            );
            cache.snapshot()
        });
        RowSweep { activations, patterns, lanes, cache, snapshot }
    }

    /// Decomposes `rows` into `out`, each row `r` at `out`'s row
    /// `r - out.first_row`.
    fn run(
        &self,
        rows: impl Iterator<Item = usize>,
        out: &mut ChunkDecomposition<'_>,
    ) -> CacheOutcome {
        let (activations, patterns, k) = (self.activations, self.patterns, self.patterns.k());
        if let Some((lanes, last_masks)) = &self.lanes {
            simd::sweep16(LaneSweep { activations, lanes, k, last_masks, rows, out });
            return CacheOutcome::default();
        }
        let parts = patterns.num_partitions();
        let mut hits = 0u64;
        let mut miss_probes = 0u64;
        let mut resolved = TileMap::default();
        // Only the final partition can be narrower than k; every probe below
        // needs its width in the key.
        let last_part = parts.wrapping_sub(1);
        let last_width =
            if parts == 0 { 0 } else { k.min(activations.cols() - last_part * k) as u32 };
        // Last decision per partition: spiking rows repeat the previous
        // row's tile ~30% of the time, the decision is a pure function of
        // `(partition, tile)`, and the snapshot is immutable for the whole
        // sweep, so a repeat replays the decision — and the same hit/miss
        // accounting — without running the matcher or touching the map.
        // (The linear [`decompose`] path deliberately stays memo-free: it
        // is the reference this path is benchmarked against.) Tile 0 never
        // reaches the closure (trivial tiles are decided inline), so it is
        // a free "empty" sentinel.
        let mut memo_tile = vec![0u64; parts];
        let mut memo_was_hit = vec![false; parts];
        let mut memo_dec = vec![TileDecision { pattern: None, diff: 0 }; parts];
        run_chunk(activations, patterns, rows, out, |part, tile, baseline| {
            if memo_tile[part] == tile {
                if memo_was_hit[part] {
                    hits += 1;
                } else {
                    miss_probes += 1;
                }
                return memo_dec[part];
            }
            let decision = match &self.snapshot {
                // Disabled cache: the matcher alone.
                None => resolve_tile(activations, patterns, part, tile, baseline),
                Some(snapshot) => {
                    let width = if part == last_part { last_width } else { k as u32 };
                    let key = tile_key(part as u32, width, tile);
                    match snapshot.get(&key) {
                        Some(&decision) => {
                            hits += 1;
                            memo_was_hit[part] = true;
                            decision
                        }
                        None => {
                            miss_probes += 1;
                            memo_was_hit[part] = false;
                            // Spiking tiles repeat heavily even within
                            // one sweep: resolve each distinct key once
                            // and replay it for the repeats.
                            *resolved.entry(key).or_insert_with(|| {
                                resolve_tile(activations, patterns, part, tile, baseline)
                            })
                        }
                    }
                }
            };
            memo_tile[part] = tile;
            memo_dec[part] = decision;
            decision
        });
        (hits, miss_probes, resolved)
    }

    /// Releases the snapshot and commits the sweep's cache outcomes, which
    /// only an unpacked layer on an enabled cache has.
    fn commit(self, outcomes: impl IntoIterator<Item = CacheOutcome>) {
        let RowSweep { cache, snapshot, .. } = self;
        let Some(snapshot) = snapshot else { return };
        // Release the snapshot before committing so the merge can usually
        // mutate the map in place instead of cloning it.
        drop(snapshot);
        let mut hits = 0u64;
        let mut miss_probes = 0u64;
        let mut resolved: Vec<(TileKey, TileDecision)> = Vec::new();
        for (chunk_hits, chunk_probes, chunk_resolved) in outcomes {
            hits += chunk_hits;
            miss_probes += chunk_probes;
            resolved.extend(chunk_resolved);
        }
        cache.commit(hits, miss_probes, resolved);
    }
}

/// Counters describing how much matcher work one [`decompose_delta`]
/// sweep avoided relative to a full decomposition of the same frame.
///
/// Empty tiles appear in no bucket, and every nonzero tile of a changed
/// row lands in exactly one of `tiles_reused` / `tiles_rematched`. Both
/// are counted from the raw words of this frame and the previous one; the
/// changed row itself is re-swept whole either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Rows in the frame.
    pub rows_total: u64,
    /// Rows bit-identical to the previous frame: taken from the memo
    /// without running any matcher or touching any cache counter.
    pub rows_skipped: u64,
    /// Nonzero tiles in *changed* rows whose bits equal the previous
    /// frame's tile at the same position.
    pub tiles_reused: u64,
    /// Nonzero tiles in changed rows whose bits differ from the previous
    /// frame's tile (every nonzero tile of a cold sweep).
    pub tiles_rematched: u64,
}

impl DeltaStats {
    /// Accumulates another sweep's counters (the per-session rollup over
    /// a streaming window).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.rows_total += other.rows_total;
        self.rows_skipped += other.rows_skipped;
        self.tiles_reused += other.tiles_reused;
        self.tiles_rematched += other.tiles_rematched;
    }
}

/// Per-stream memo of the previous frame consumed by
/// [`decompose_delta`]: per row, the frame's raw words (for the whole-row
/// diff), its Level-1 slice and its correction-plane words — the row's
/// decomposition, ready to emit when the next frame leaves the row
/// unchanged.
///
/// A memo is tied to one layer's patterns: replaying a memo built against
/// different patterns would produce garbage. Frame shape (`rows × cols`
/// at partition width `k`) may change between calls — a mismatch resets
/// the memo to cold, it never corrupts the output.
#[derive(Debug, Default)]
pub struct FrameMemo {
    rows: usize,
    cols: usize,
    k: usize,
    /// Whether the stored frame is trustworthy; false on a fresh or
    /// shape-reset memo (and while a sweep updates it), so the next sweep
    /// re-decides every row.
    valid: bool,
    /// The previous frame's raw row words, `rows × ceil(cols / 64)`.
    words: Vec<u64>,
    /// Its Level-1 indices, `rows × parts`.
    l1: Vec<u16>,
    /// Its correction plane, `rows × ceil(cols / 64)`.
    plane: Vec<u64>,
    /// Per-row outcome of the most recent sweep: `false` where the row
    /// was bit-identical to the previous frame and taken from the memo,
    /// `true` where it was re-swept. Cold sweeps mark every row changed.
    changed: Vec<bool>,
}

impl FrameMemo {
    /// A cold memo; the first [`decompose_delta`] sweep against it
    /// re-decides every tile (bit-identically to [`decompose`]).
    pub fn new() -> Self {
        FrameMemo::default()
    }

    /// Forgets the stored frame: the next sweep runs cold. Use when the
    /// memo is re-targeted at a different pattern set.
    pub fn reset(&mut self) {
        self.valid = false;
    }

    /// Whether the memo holds a previous frame to diff against.
    pub fn is_warm(&self) -> bool {
        self.valid
    }

    /// Per-row outcome of the most recent [`decompose_delta`] sweep:
    /// `false` where the row was bit-identical to the previous frame
    /// (its decomposition — and therefore any per-row product of it,
    /// like a readout row — is unchanged), `true` where it was
    /// re-decided. Empty before the first sweep.
    pub fn row_changed(&self) -> &[bool] {
        &self.changed
    }
}

/// [`decompose_cached`] for one timestep frame of a stream: diffs
/// `activations` row by row against the previous frame stored in `memo`,
/// re-sweeps only the changed rows, and takes every unchanged row's
/// decomposition from the memo — returning the new [`Decomposition`]
/// (bit-identical to [`decompose`] of the raw frame regardless of memo
/// or cache state) plus the sweep's [`DeltaStats`].
///
/// A changed row goes through [`decompose_cached`]'s own row sweep, with
/// its accounting: on a packed layer the lane matcher (no cache counter
/// moves), otherwise a probe of the [`TileCache`] per nontrivial tile —
/// or, on a disabled cache, the matcher directly. An unchanged row moves
/// no cache counter.
///
/// The sweep is sequential — streaming frames are a handful of rows, and
/// batch-level parallelism belongs to the caller fanning out sessions.
///
/// # Panics
///
/// Panics where [`decompose_cached`] does: if the pattern partition count
/// does not match the activation width, or if an enabled cache on an
/// unpacked layer sees a partition count beyond [`MAX_CACHE_PARTITIONS`].
pub fn decompose_delta(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    _index: &LayerMatchIndex,
    cache: &TileCache,
    memo: &mut FrameMemo,
) -> (Decomposition, DeltaStats) {
    delta_sweep(activations, patterns, cache, memo, true)
}

/// [`decompose_delta`] that emits only the rows whose activations changed
/// since the previous frame.
///
/// The returned decomposition has one row per changed activation row, in
/// activation-row order; [`FrameMemo::row_changed`] maps them back to
/// their original positions. Each emitted row is bit-identical to the
/// corresponding row of the full decomposition (rows are independent
/// under the matcher rule), so a caller that replays the unchanged rows'
/// previous per-row results — as the streaming executor replays readout
/// rows — reconstructs the full output exactly. Memo updates, delta
/// stats, and [`TileCache`] accounting are identical to
/// [`decompose_delta`]'s.
///
/// # Panics
///
/// Panics under the same conditions as [`decompose_delta`].
pub fn decompose_delta_sparse(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    _index: &LayerMatchIndex,
    cache: &TileCache,
    memo: &mut FrameMemo,
) -> (Decomposition, DeltaStats) {
    delta_sweep(activations, patterns, cache, memo, false)
}

/// The shared incremental sweep behind [`decompose_delta`]
/// (`emit_unchanged = true`) and [`decompose_delta_sparse`]
/// (`emit_unchanged = false`), in three steps: a whole-row diff against
/// the memo, the production [`RowSweep`] over the changed rows straight
/// into the memo, and the emitted rows copied out of it.
fn delta_sweep(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    cache: &TileCache,
    memo: &mut FrameMemo,
    emit_unchanged: bool,
) -> (Decomposition, DeltaStats) {
    let sweep = RowSweep::new(activations, patterns, cache);
    let (rows, cols, k) = (activations.rows(), activations.cols(), patterns.k());
    let (parts, words) = (patterns.num_partitions(), plane_words(cols));
    if memo.rows != rows || memo.cols != cols || memo.k != k {
        *memo = FrameMemo {
            rows,
            cols,
            k,
            valid: false,
            words: vec![0; rows * words],
            l1: vec![NO_PATTERN; rows * parts],
            plane: vec![0; rows * words],
            changed: vec![true; rows],
        };
    }
    let warm = memo.valid;
    memo.valid = false;
    let mut stats = DeltaStats { rows_total: rows as u64, ..DeltaStats::default() };
    // The unpack buffer of widths that do not divide 64.
    let mut scratch = vec![0u64; parts];
    for r in 0..rows {
        let row = activations.row_words(r);
        let prev = &mut memo.words[r * words..(r + 1) * words];
        memo.changed[r] = !warm || row != prev;
        if !memo.changed[r] {
            stats.rows_skipped += 1;
            continue;
        }
        for (part, tile) in nonzero_tiles(activations, r, k, &mut scratch) {
            if warm && read_bits(prev, part * k, k) == tile {
                stats.tiles_reused += 1;
            } else {
                stats.tiles_rematched += 1;
            }
        }
        prev.copy_from_slice(row);
        // The sweep writes only assigned tiles and corrections.
        memo.l1[r * parts..(r + 1) * parts].fill(NO_PATTERN);
        memo.plane[r * words..(r + 1) * words].fill(0);
    }
    let FrameMemo { l1, plane, changed, .. } = memo;
    let changed_rows = (0..rows).filter(|&r| changed[r]);
    let outcome = sweep.run(changed_rows, &mut ChunkDecomposition::new(0, parts, words, l1, plane));
    sweep.commit([outcome]);
    memo.valid = true;
    // The emitted rows' counters are popcounts of their memo words: with
    // `A` activation bits, `C` corrections and `P` of them `+1`s (the
    // corrections where the activation holds its bit), the assigned
    // pattern bits `words ^ plane` number `A + C − 2P`.
    let emitted: Vec<usize> = (0..rows).filter(|&r| emit_unchanged || memo.changed[r]).collect();
    let mut l1 = Vec::with_capacity(emitted.len() * parts);
    let mut l2 = Vec::with_capacity(emitted.len() * words);
    let (mut bit_nnz, mut l2_pos) = (0u64, 0u64);
    for &r in &emitted {
        let plane = &memo.plane[r * words..(r + 1) * words];
        let row = &memo.words[r * words..(r + 1) * words];
        l2_pos +=
            row.iter().zip(plane).map(|(&a, &c)| u64::from((a & c).count_ones())).sum::<u64>();
        bit_nnz += activations.row_nnz(r) as u64;
        l1.extend_from_slice(&memo.l1[r * parts..(r + 1) * parts]);
        l2.extend_from_slice(plane);
    }
    let corrections = simd::popcount_words(&l2);
    let d = Decomposition {
        rows: emitted.len(),
        cols,
        patterns: patterns.clone(),
        l1,
        l2,
        l1_ones: bit_nnz + corrections - 2 * l2_pos,
        l2_pos,
        l2_neg: corrections - l2_pos,
        bit_nnz,
    };
    (d, stats)
}

/// The rows `rows` of a packed layer's sweep, run under one
/// [`simd::sweep16`] dispatch: each row's tiles are gathered into `u16`
/// lanes and decided 32 partitions at a time by
/// [`Hamming16::match_lanes16`] against the layer's [`LanePlanes16`],
/// whose correction words become the row's Level-2 plane. Row `r` is
/// written at `out`'s row `r - out.first_row`.
struct LaneSweep<'a, 'b, R> {
    activations: &'a SpikeMatrix,
    lanes: &'a LanePlanes16,
    k: usize,
    /// The lane masks of the final group (see [`lane_masks`]).
    last_masks: &'a [u64; LANE_WORDS],
    rows: R,
    out: &'a mut ChunkDecomposition<'b>,
}

impl<R: Iterator<Item = usize>> Hamming16Sweep for LaneSweep<'_, '_, R> {
    type Output = ();

    #[inline(always)]
    fn run<H: Hamming16>(self, kernel: H) {
        let LaneSweep { activations, lanes, k, last_masks, rows, out } = self;
        let parts = lanes.partitions();
        let groups = lanes.groups();
        // The row's tiles and corrections as lane words, padded to whole
        // groups with empty lanes.
        let mut tiles = vec![0u64; groups * LANE_WORDS];
        let mut diff = vec![0u64; groups * LANE_WORDS];
        let mut unpacked = vec![0u64; if k == 16 { 0 } else { parts }];
        // The lane words that hold partitions; the rest are padding.
        let lane_words = parts.div_ceil(4);
        let words = out.words;
        let full = [u64::MAX; LANE_WORDS];
        for r in rows {
            let at = r - out.first_row;
            gather_lanes(activations, r, k, &mut tiles, &mut unpacked);
            let l1_row = &mut out.l1[at * parts..(at + 1) * parts];
            for (g, (t, d)) in
                tiles.chunks_exact(LANE_WORDS).zip(diff.chunks_exact_mut(LANE_WORDS)).enumerate()
            {
                let t: &[u64; LANE_WORDS] = t.try_into().expect("one group of lane words");
                let d: &mut [u64; LANE_WORDS] = d.try_into().expect("one group of lane words");
                if t.iter().all(|&w| w == 0) {
                    // An empty group assigns nothing and corrects nothing;
                    // its L1 slots already hold the sentinel.
                    *d = [0; LANE_WORDS];
                    continue;
                }
                let masks = if g + 1 == groups { last_masks } else { &full };
                let first = g * LANE_GROUP;
                match l1_row.get_mut(first..first + LANE_GROUP) {
                    Some(l1) => {
                        let l1 = l1.try_into().expect("one group of L1 slots");
                        kernel.match_lanes16(lanes.group(g), t, masks, l1, d);
                    }
                    None => {
                        // The final, partial group.
                        let mut l1 = [NO_PATTERN; LANE_GROUP];
                        kernel.match_lanes16(lanes.group(g), t, masks, &mut l1, d);
                        l1_row[first..].copy_from_slice(&l1[..parts - first]);
                    }
                }
            }
            let (tiles, diff) = (&tiles[..lane_words], &diff[..lane_words]);
            for (&t, &d) in tiles.iter().zip(diff) {
                // `t ^ d` is the assigned pattern bits (0 where none is),
                // and a correction is `+1` where the tile holds its bit.
                let (all, pos) = (u64::from(d.count_ones()), u64::from((d & t).count_ones()));
                out.l1_ones += u64::from((t ^ d).count_ones());
                out.l2_pos += pos;
                out.l2_neg += all - pos;
            }
            let plane = &mut out.l2[at * words..(at + 1) * words];
            if k == 16 {
                // The lanes are the row's words: the correction words are
                // its plane words.
                plane.copy_from_slice(diff);
            } else {
                for part in 0..parts {
                    let d = (diff[part / 4] >> (16 * (part % 4))) & 0xFFFF;
                    if d != 0 {
                        or_bits(plane, part * k, d);
                    }
                }
            }
        }
    }
}

/// Fills `tiles` with row `r`'s width-`k` tiles as `u16` lanes. At
/// k = 16 the row's words already are the lane words; other widths
/// unpack the row into `unpacked` (one tile per word) and pack it four
/// lanes to a word. Lanes past the last partition stay empty.
#[inline(always)]
fn gather_lanes(
    activations: &SpikeMatrix,
    r: usize,
    k: usize,
    tiles: &mut [u64],
    unpacked: &mut [u64],
) {
    if k == 16 {
        let words = activations.row_words(r);
        tiles[..words.len()].copy_from_slice(words);
    } else {
        activations.row_partition_tiles_into(r, k, unpacked);
        tiles.fill(0);
        for (part, &tile) in unpacked.iter().enumerate() {
            tiles[part / 4] |= tile << (16 * (part % 4));
        }
    }
}

/// The lane masks of a packed layer's final group: all ones, except the
/// final partition's lane when it is narrower than `k` — pattern bits
/// beyond it must not generate corrections.
fn lane_masks(cols: usize, k: usize, parts: usize) -> [u64; LANE_WORDS] {
    let mut masks = [u64::MAX; LANE_WORDS];
    if let Some(last) = parts.checked_sub(1) {
        let lane = last % LANE_GROUP;
        let narrow = partition_mask(cols, last, k) | !0xFFFF;
        masks[lane / 4] &= narrow.rotate_left(16 * (lane % 4) as u32);
    }
    masks
}

/// The nonzero width-`k` tiles of row `r` as `(partition, tile)`, in
/// partition order. A width dividing 64 walks the row's words lane by
/// lane, skipping zero words and zero lanes; any other width unpacks the
/// row into `scratch` (one tile per word) and walks that.
#[inline(always)]
fn nonzero_tiles<'a>(
    activations: &'a SpikeMatrix,
    r: usize,
    k: usize,
    scratch: &'a mut [u64],
) -> NonzeroTiles<'a> {
    if 64 % k == 0 {
        // Padding bits beyond the column count are zero, so the final
        // (narrower) partition's lane is already masked.
        NonzeroTiles::new(activations.row_words(r), k.trailing_zeros())
    } else {
        activations.row_partition_tiles_into(r, k, scratch);
        NonzeroTiles::new(scratch, 6)
    }
}

/// Iterates the nonzero `2^shift`-bit lanes of a word slice as
/// `(lane index, lane bits)`, lowest lane first.
struct NonzeroTiles<'a> {
    words: &'a [u64],
    /// Index of the word `rest` came from.
    word: usize,
    /// The current word with its visited lanes cleared.
    rest: u64,
    shift: u32,
    mask: u64,
}

impl<'a> NonzeroTiles<'a> {
    fn new(words: &'a [u64], shift: u32) -> Self {
        let rest = words.first().copied().unwrap_or(0);
        NonzeroTiles { words, word: 0, rest, shift, mask: u64::MAX >> (64 - (1u32 << shift)) }
    }
}

impl Iterator for NonzeroTiles<'_> {
    type Item = (usize, u64);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, u64)> {
        while self.rest == 0 {
            self.word += 1;
            self.rest = *self.words.get(self.word)?;
        }
        let at = self.rest.trailing_zeros() >> self.shift << self.shift;
        let tile = (self.rest >> at) & self.mask;
        self.rest &= !(self.mask << at);
        Some(((self.word << (6 - self.shift)) + (at >> self.shift) as usize, tile))
    }
}

/// Panics unless the pattern partitioning tiles the activation width.
fn check_partitioning(activations: &SpikeMatrix, patterns: &LayerPatterns) {
    assert_eq!(
        activations.num_partitions(patterns.k()),
        patterns.num_partitions(),
        "pattern partition count must match activation width"
    );
}

/// The buffers a row sweep writes into — one parallel worker's block of
/// the output, or a delta sweep's memo — and the swept rows' counters.
struct ChunkDecomposition<'a> {
    /// The activation row the buffers' row 0 holds.
    first_row: usize,
    parts: usize,
    /// Plane words per row.
    words: usize,
    /// Row-major `rows × parts` pattern indices, pre-filled with
    /// [`NO_PATTERN`] in every row a sweep writes.
    l1: &'a mut [u16],
    /// Row-major `rows × words` correction plane, pre-filled with zeros in
    /// every row a sweep writes.
    l2: &'a mut [u64],
    l1_ones: u64,
    l2_pos: u64,
    l2_neg: u64,
}

impl<'a> ChunkDecomposition<'a> {
    /// Buffers of `parts` indices and `words` plane words per row, from
    /// activation row `first_row` on.
    fn new(
        first_row: usize,
        parts: usize,
        words: usize,
        l1: &'a mut [u16],
        l2: &'a mut [u64],
    ) -> Self {
        ChunkDecomposition { first_row, parts, words, l1, l2, l1_ones: 0, l2_pos: 0, l2_neg: 0 }
    }
}

/// Runs `sweep(lo, hi, block)` over the row chunks of [`chunk_bounds`] in
/// parallel, each block a disjoint share of the output's buffers, and
/// assembles the decomposition (the parallel collect preserves input
/// order, keeping every output identical to a sequential sweep). Rows are
/// independent, which is also why batch fusion and caching cannot change
/// any output bit. L1 is bulk-filled with the sentinel and L2 with zeros
/// up front, so a sweep writes only the tiles that assign a pattern or
/// carry a correction — empty tiles (the common case in sparse spiking
/// data) touch neither. Returns each chunk's `sweep` result too.
fn sweep_chunks<T: Send>(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    sweep: impl Fn(usize, usize, &mut ChunkDecomposition<'_>) -> T + Sync,
) -> (Decomposition, Vec<T>) {
    let (rows, cols) = (activations.rows(), activations.cols());
    let (parts, words) = (patterns.num_partitions(), plane_words(cols));
    let mut l1 = vec![NO_PATTERN; rows * parts];
    let mut l2 = vec![0u64; rows * words];
    let mut blocks = Vec::new();
    let (mut l1_rest, mut l2_rest) = (&mut l1[..], &mut l2[..]);
    for (lo, hi) in chunk_bounds(rows) {
        let (l1_block, l1_next) = std::mem::take(&mut l1_rest).split_at_mut((hi - lo) * parts);
        let (l2_block, l2_next) = std::mem::take(&mut l2_rest).split_at_mut((hi - lo) * words);
        (l1_rest, l2_rest) = (l1_next, l2_next);
        blocks.push((lo, hi, ChunkDecomposition::new(lo, parts, words, l1_block, l2_block)));
    }
    let outcomes: Vec<_> = blocks
        .into_par_iter()
        .map(|(lo, hi, mut block)| {
            let result = sweep(lo, hi, &mut block);
            ([block.l1_ones, block.l2_pos, block.l2_neg], result)
        })
        .collect();
    let (mut l1_ones, mut l2_pos, mut l2_neg) = (0u64, 0u64, 0u64);
    let mut results = Vec::with_capacity(outcomes.len());
    for ([ones, pos, neg], result) in outcomes {
        l1_ones += ones;
        l2_pos += pos;
        l2_neg += neg;
        results.push(result);
    }
    let decomp = Decomposition {
        rows,
        cols,
        patterns: patterns.clone(),
        l1,
        l2,
        l1_ones,
        l2_pos,
        l2_neg,
        bit_nnz: activations.nnz() as u64,
    };
    (decomp, results)
}

/// Correction plane words per row of a `cols`-column activation: the
/// activation's own word count.
fn plane_words(cols: usize) -> usize {
    cols.div_ceil(64)
}

/// The `width` bits of `words` from bit `start` (`width <= 64`; bits past
/// the slice read as zero).
#[inline]
fn read_bits(words: &[u64], start: usize, width: usize) -> u64 {
    let (word, bit) = (start / 64, start % 64);
    let mut value = words.get(word).map_or(0, |&w| w >> bit);
    if bit != 0 {
        value |= words.get(word + 1).map_or(0, |&w| w << (64 - bit));
    }
    if width == 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// ORs `value` into `words` from bit `start`. Bits that would land past
/// the slice must be zero.
#[inline]
fn or_bits(words: &mut [u64], start: usize, value: u64) {
    let (word, bit) = (start / 64, start % 64);
    words[word] |= value << bit;
    if bit != 0 && value >> (64 - bit) != 0 {
        words[word + 1] |= value >> (64 - bit);
    }
}

/// The row ranges the parallel sweep splits into: one chunk per thread
/// the `rayon` pool runs a map on. Rows cost about the same, so equal
/// chunks already balance, and each extra chunk would cost its own
/// allocations and a merge step.
fn chunk_bounds(rows: usize) -> Vec<(usize, usize)> {
    let workers = rayon::current_num_threads();
    let size = rows.div_ceil(workers.min(rows.max(1))).max(1);
    (0..rows.div_ceil(size)).map(|c| (c * size, ((c + 1) * size).min(rows))).collect()
}

/// Decomposes `rows` into `out` (row `r` at `out`'s row
/// `r - out.first_row`): applies the matcher rule per partition tile and
/// writes each decision's L1 index and correction bits. `decide` resolves
/// nontrivial tiles; trivial ones — empty or single-bit — are decided
/// inline: an empty tile writes nothing, and a single-bit tile can only
/// win via an exact hit, which has no corrections.
fn run_chunk(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    rows: impl Iterator<Item = usize>,
    out: &mut ChunkDecomposition<'_>,
    mut decide: impl FnMut(usize, u64, u32) -> TileDecision,
) {
    let k = patterns.k();
    let parts = patterns.num_partitions();
    // One reusable tile buffer per sweep: each row's tiles are unpacked
    // in one pass (the SIMD shear kernel for word-aligned `k`, the
    // incremental scalar scan otherwise), then decided tile by tile.
    let mut tiles = vec![0u64; parts];
    for r in rows {
        activations.row_partition_tiles_into(r, k, &mut tiles);
        for (part, &tile) in tiles.iter().enumerate() {
            if tile == 0 {
                // Empty tiles need no decision, corrections, or
                // counter updates; their L1 slot is already the
                // sentinel.
                continue;
            }
            let decision = match tile.count_ones() {
                1 => single_bit_tile(patterns.set(part), tile),
                baseline => decide(part, tile, baseline),
            };
            emit_tile(out, decision, tile, r - out.first_row, part, k);
        }
    }
}

/// Writes one tile decision of `out`'s row `row`: its L1 index (into the
/// pre-filled slot) and its correction bits `diff` into the row's plane.
/// Each set bit of `diff` is one correction, `+1` where the tile holds the
/// 1 and `−1` where the pattern does; for an unassigned tile
/// `diff == tile`, so every correction is a `+1` (the raw-bit-sparsity
/// fallback).
#[inline]
fn emit_tile(
    out: &mut ChunkDecomposition<'_>,
    decision: TileDecision,
    tile: u64,
    row: usize,
    part: usize,
    k: usize,
) {
    let TileDecision { pattern, diff } = decision;
    if let Some(idx) = pattern {
        out.l1[row * out.parts + part] = idx;
        // The masked pattern bits are `tile ^ diff` by construction.
        out.l1_ones += u64::from(simd::hamming64(tile, diff));
    }
    out.l2_pos += u64::from((diff & tile).count_ones());
    out.l2_neg += u64::from((diff & !tile).count_ones());
    if diff != 0 {
        let words = out.words;
        or_bits(&mut out.l2[row * words..(row + 1) * words], part * k, diff);
    }
}

/// The matcher rule for a single-bit tile: it can only win via an exact
/// hit (its correction count would otherwise match or exceed its own bit
/// sparsity), and an exact hit has no corrections. The one-hot mask
/// answers the common case — calibration filters one-hot patterns, so
/// there is normally nothing to match — with one AND.
#[inline]
fn single_bit_tile(set: &PatternSet, tile: u64) -> TileDecision {
    if set.one_hot_mask() & tile == 0 {
        return TileDecision { pattern: None, diff: tile };
    }
    let pattern = set.exact_match(tile).map(|idx| idx as u16);
    TileDecision { pattern, diff: if pattern.is_some() { 0 } else { tile } }
}

/// The matcher rule for one nontrivial tile (popcount ≥ 2) of an
/// unpacked layer, resolved by [`PatternSet::best_match`] — the
/// cache-miss path of [`decompose_cached`]. Returns the decision in the
/// memoizable [`TileDecision`] form.
fn resolve_tile(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    part: usize,
    tile: u64,
    baseline: u32,
) -> TileDecision {
    finish_decision(activations, patterns, part, tile, baseline, {
        patterns.set(part).best_match(tile)
    })
}

/// Turns a matcher answer into the tile's decision: assign the pattern
/// only when its distance strictly beats the tile's own bit sparsity,
/// and derive the correction bitmask.
#[inline]
fn finish_decision(
    activations: &SpikeMatrix,
    patterns: &LayerPatterns,
    part: usize,
    tile: u64,
    baseline: u32,
    matched: Option<(usize, u32)>,
) -> TileDecision {
    let pattern = match matched {
        // Strictly better than bit sparsity: assign the pattern.
        Some((idx, dist)) if dist < baseline => Some(idx as u16),
        _ => None,
    };
    let diff = match pattern {
        Some(idx) => {
            (patterns.set(part).pattern(idx as usize).bits()
                & partition_mask(activations.cols(), part, patterns.k()))
                ^ tile
        }
        None => tile,
    };
    TileDecision { pattern, diff }
}

/// Bit mask of the columns partition `part` actually covers. The final
/// partition may be narrower than `k`; pattern bits in the padded region
/// are inert (their weights do not exist) and must not generate
/// corrections.
#[inline]
fn partition_mask(cols: usize, part: usize, k: usize) -> u64 {
    let width = k.min(cols - part * k);
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl Decomposition {
    /// Reassembles a decomposition from its stored parts (the
    /// deserialization path in [`crate::wire`]): `l1` row-major with
    /// [`NO_PATTERN`] for unassigned tiles, `l2` the correction plane.
    /// Callers must have validated the parts; only shape consistency is
    /// debug-asserted here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        patterns: LayerPatterns,
        l1: Vec<u16>,
        l2: Vec<u64>,
        l1_ones: u64,
        l2_pos: u64,
        l2_neg: u64,
        bit_nnz: u64,
    ) -> Self {
        debug_assert_eq!(l1.len(), rows * patterns.num_partitions());
        debug_assert_eq!(l2.len(), rows * plane_words(cols));
        Decomposition { rows, cols, patterns, l1, l2, l1_ones, l2_pos, l2_neg, bit_nnz }
    }

    /// Activation row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Activation column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Partition width `k`.
    pub fn k(&self) -> usize {
        self.patterns.k()
    }

    /// Number of K-partitions.
    pub fn num_partitions(&self) -> usize {
        self.patterns.num_partitions()
    }

    /// The pattern sets the decomposition was built against.
    pub fn patterns(&self) -> &LayerPatterns {
        &self.patterns
    }

    /// Level-1 pattern index for `(row, part)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn l1_index(&self, row: usize, part: usize) -> Option<u16> {
        assert!(row < self.rows && part < self.num_partitions(), "index out of bounds");
        let raw = self.l1[row * self.num_partitions() + part];
        (raw != NO_PATTERN).then_some(raw)
    }

    /// The raw Level-1 index row of `row` — one `u16` per partition, in
    /// partition order, with [`Decomposition::NO_PATTERN`] marking
    /// unassigned tiles. [`Decomposition::l1_index`] is the decoded
    /// single-tile accessor.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn l1_row(&self, row: usize) -> &[u16] {
        assert!(row < self.rows, "row out of bounds");
        let parts = self.num_partitions();
        &self.l1[row * parts..(row + 1) * parts]
    }

    /// Full assignment record for `(row, part)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn assignment(&self, row: usize, part: usize) -> TileAssignment {
        let pattern = self.l1_index(row, part);
        TileAssignment { pattern, l2_nnz: self.l2_tile_nnz(row, part) }
    }

    /// The Level-2 correction plane of `row`: `ceil(cols / 64)` words in
    /// the activation's layout, bit `c % 64` of word `c / 64` set when
    /// column `c` carries a correction (bits past `cols` are zero).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn l2_words(&self, row: usize) -> &[u64] {
        assert!(row < self.rows, "row out of bounds");
        let words = plane_words(self.cols);
        &self.l2[row * words..(row + 1) * words]
    }

    /// Level-2 corrections of `row`, in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn l2_row(&self, row: usize) -> L2Row<'_> {
        L2Row {
            l1: self.l1_row(row),
            patterns: &self.patterns,
            words: self.l2_words(row),
            next_word: 0,
            rest: 0,
            base: 0,
        }
    }

    /// The correction bits of the `(row, part)` tile: bit `b` is set when
    /// column `part · k + b` carries a correction. Panics if out of
    /// bounds.
    fn l2_tile_bits(&self, row: usize, part: usize) -> u64 {
        assert!(part < self.num_partitions(), "partition out of bounds");
        let k = self.k();
        read_bits(self.l2_words(row), part * k, k.min(self.cols - part * k))
    }

    /// Number of Level-2 corrections in the `(row, part)` tile.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn l2_tile_nnz(&self, row: usize, part: usize) -> u32 {
        self.l2_tile_bits(row, part).count_ones()
    }

    /// Level-2 corrections of the `(row, part)` tile, in ascending column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn l2_tile(&self, row: usize, part: usize) -> impl Iterator<Item = L2Entry> + '_ {
        let mut rest = self.l2_tile_bits(row, part);
        let negative = match self.l1_index(row, part) {
            Some(idx) => rest & self.patterns.set(part).pattern_bits()[usize::from(idx)],
            None => 0,
        };
        let base = (part * self.k()) as u32;
        std::iter::from_fn(move || {
            let b = (rest != 0).then(|| rest.trailing_zeros())?;
            rest &= rest - 1;
            Some(L2Entry { col: base + b, value: if (negative >> b) & 1 == 1 { -1 } else { 1 } })
        })
    }

    /// Total Level-2 nonzeros.
    pub fn l2_nnz(&self) -> u64 {
        self.l2_pos + self.l2_neg
    }

    /// Number of tiles with an assigned pattern.
    pub fn assigned_tiles(&self) -> u64 {
        self.l1.iter().filter(|&&a| a != NO_PATTERN).count() as u64
    }

    /// Sparsity statistics (Table 4 / Fig. 7 quantities).
    pub fn stats(&self) -> SparsityStats {
        self.stats_with_assigned_tiles(self.assigned_tiles())
    }

    /// [`Decomposition::stats`] from an assigned-tile count the caller has
    /// already taken (the cycle simulator counts them in its own pass over
    /// the index rows), instead of a second scan of the index matrix.
    /// Debug builds check the count.
    pub fn stats_with_assigned_tiles(&self, assigned_tiles: u64) -> SparsityStats {
        debug_assert_eq!(assigned_tiles, self.assigned_tiles(), "assigned-tile count");
        SparsityStats {
            rows: self.rows,
            cols: self.cols,
            k: self.k(),
            partitions: self.num_partitions(),
            bit_nnz: self.bit_nnz,
            assigned_tiles,
            l1_ones: self.l1_ones,
            l2_pos: self.l2_pos,
            l2_neg: self.l2_neg,
        }
    }

    /// Rebuilds the dense activation matrix from `L1 + L2`: per plane
    /// word, the assigned pattern bits XOR the corrections.
    pub fn reconstruct(&self) -> SpikeMatrix {
        let k = self.k();
        let mut out = SpikeMatrix::zeros(self.rows, self.cols);
        let mut level1 = vec![0u64; plane_words(self.cols)];
        for r in 0..self.rows {
            level1.fill(0);
            for (part, &idx) in self.l1_row(r).iter().enumerate() {
                if idx != NO_PATTERN {
                    let bits = self.patterns.set(part).pattern_bits()[usize::from(idx)];
                    or_bits(&mut level1, part * k, bits & partition_mask(self.cols, part, k));
                }
            }
            for (w, (&pattern, &plane)) in level1.iter().zip(self.l2_words(r)).enumerate() {
                let width = (self.cols - 64 * w).min(64);
                out.set_tile(r, 64 * w, width, pattern ^ plane);
            }
        }
        out
    }

    /// Whether `L1 + L2` reconstructs `original` exactly.
    pub fn verify_lossless(&self, original: &SpikeMatrix) -> bool {
        self.reconstruct() == *original
    }

    /// Concatenates decompositions row-wise, as if their activation
    /// matrices had been vstacked and decomposed in one sweep — rows are
    /// independent under the matcher rule, so the result is bit-identical
    /// to the fused decomposition. This is how the streaming executor
    /// coalesces per-session incremental frames into one fused batch
    /// without re-decomposing the stacked raw matrix.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the decompositions disagree on
    /// column count or pattern sets.
    pub fn concat(parts: &[&Decomposition]) -> Decomposition {
        let first = *parts.first().expect("cannot concatenate zero decompositions");
        if parts.len() == 1 {
            return first.clone();
        }
        for d in &parts[1..] {
            assert_eq!(d.cols, first.cols, "concatenated decompositions must share column count");
            assert!(
                d.patterns == first.patterns,
                "concatenated decompositions must share pattern sets"
            );
        }
        let rows = parts.iter().map(|d| d.rows).sum();
        let mut l1 = Vec::with_capacity(rows * first.num_partitions());
        let mut l2 = Vec::with_capacity(rows * plane_words(first.cols));
        let mut l1_ones = 0u64;
        let mut l2_pos = 0u64;
        let mut l2_neg = 0u64;
        let mut bit_nnz = 0u64;
        for d in parts {
            l1.extend_from_slice(&d.l1);
            l2.extend_from_slice(&d.l2);
            l1_ones += d.l1_ones;
            l2_pos += d.l2_pos;
            l2_neg += d.l2_neg;
            bit_nnz += d.bit_nnz;
        }
        Decomposition {
            rows,
            cols: first.cols,
            patterns: first.patterns.clone(),
            l1,
            l2,
            l1_ones,
            l2_pos,
            l2_neg,
            bit_nnz,
        }
    }
}

/// The Level-2 corrections of one row in ascending column order
/// ([`Decomposition::l2_row`]): the set bits of the row's plane words,
/// each signed by the assigned pattern's bit at its column.
#[derive(Debug, Clone)]
pub struct L2Row<'a> {
    /// The row's Level-1 indices.
    l1: &'a [u16],
    patterns: &'a LayerPatterns,
    words: &'a [u64],
    /// Index of the word after the one `rest` came from.
    next_word: usize,
    /// That word's corrections not yet yielded.
    rest: u64,
    /// Column of that word's bit 0.
    base: u32,
}

impl Iterator for L2Row<'_> {
    type Item = L2Entry;

    #[inline]
    fn next(&mut self) -> Option<L2Entry> {
        while self.rest == 0 {
            self.rest = *self.words.get(self.next_word)?;
            self.base = 64 * self.next_word as u32;
            self.next_word += 1;
        }
        let col = self.base + self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        let k = self.patterns.k() as u32;
        let part = col / k;
        // An unassigned tile's index, `NO_PATTERN`, is past every set's
        // last pattern, so it reads no pattern bits.
        let idx = usize::from(self.l1[part as usize]);
        let bits = self.patterns.set(part as usize).pattern_bits().get(idx).map_or(0, |&b| b);
        let negative = (bits >> (col - part * k)) & 1 == 1;
        Some(L2Entry { col, value: if negative { -1 } else { 1 } })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.words.get(self.next_word..).unwrap_or(&[]);
        let left = self.rest.count_ones() as usize + simd::popcount_words(rest) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for L2Row<'_> {}

/// The third parameter of [`decompose_cached`], [`decompose_delta`] and
/// [`decompose_delta_sparse`]. It carries no data: every non-packed tile
/// is decided by [`PatternSet::best_match`], the matcher the linear
/// [`decompose`] runs.
///
/// It is kept only because the repository benchmark (`phibench/`) passes
/// it through `phi_runtime::CompiledLayer::match_index`; it goes, with
/// [`TileCache`], when that benchmark is next revised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerMatchIndex;

/// The memoizable outcome of the matcher rule for one `(partition, tile)`
/// key: the assigned pattern (or `None` for bit sparsity) and the Level-2
/// correction set in bitmask form — each set bit of `diff` is one
/// correction, signed `+1` where the tile holds the bit and `−1` where
/// the (width-masked) pattern does. For an unassigned tile `diff` equals
/// the tile itself, so every correction is a `+1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileDecision {
    /// Index into the partition's [`PatternSet`], or `None` when the tile
    /// keeps its raw bit sparsity.
    pub pattern: Option<u16>,
    /// XOR of the width-masked assigned pattern bits and the tile (the
    /// tile itself when no pattern is assigned).
    pub diff: u64,
}

/// Point-in-time counters of a [`TileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the caller resolved and inserted).
    pub misses: u64,
    /// Inserts that displaced a different key (capacity pressure).
    pub evictions: u64,
    /// Slots currently holding a decision.
    pub entries: u64,
    /// Total slot count (0 when the cache is disabled).
    pub capacity: u64,
}

impl TileCacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another cache's counters (the per-model aggregation
    /// over per-layer caches).
    pub fn merge(&mut self, other: &TileCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.capacity += other.capacity;
    }

    /// Sums a set of counters into one aggregate — the executor-level
    /// rollup over per-layer caches.
    pub fn merged<I: IntoIterator<Item = TileCacheStats>>(stats: I) -> TileCacheStats {
        let mut total = TileCacheStats::default();
        for s in stats {
            total.merge(&s);
        }
        total
    }
}

/// Largest partition count a [`TileCache`] key can encode: the partition
/// index shares its word with the 7-bit partition width, leaving 25 bits
/// of index (a 512 M-column layer at `k = 16` — far beyond any real
/// model).
pub const MAX_CACHE_PARTITIONS: usize = 1 << 25;

/// A packed `(partition · width, tile bits)` cache key — see
/// [`tile_key`].
type TileKey = (u32, u64);

/// Packs a cache key. The partition *width* is part of the key because a
/// decision's correction mask depends on it: the same partition index
/// and tile bits can mask differently when the cache is shared across
/// activations whose final partitions are narrower. Widths are ≤ 64, so
/// they fit the low 7 bits under the partition index.
#[inline]
fn tile_key(part: u32, width: u32, tile: u64) -> TileKey {
    debug_assert!(width <= 64);
    ((part << 7) | width, tile)
}

/// The memo table behind a [`TileCache`] snapshot.
type TileMap = HashMap<TileKey, TileDecision, BuildHasherDefault<TileKeyHasher>>;

/// A deterministic multiply-xor hasher for [`TileKey`]s — the keys are
/// already near-uniform bit patterns, so the SipHash default would spend
/// more time hashing than the probe it guards.
#[derive(Default)]
struct TileKeyHasher {
    state: u64,
}

impl std::hash::Hasher for TileKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // SplitMix64-style finalizer: HashMap consumes both the low bits
        // (bucket mask) and high bits (SIMD tag), so mix both well.
        let mut h = self.state;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A bounded, shared memo table for tile decisions, reused across
/// decompositions (and, behind an `Arc`, across batches and server
/// workers — see `phi_runtime::BatchExecutor`).
///
/// The table is an immutable snapshot behind a mutex-guarded `Arc`:
/// [`decompose_cached`] takes the snapshot once per sweep, probes it
/// lock-free from every parallel row, and commits the sweep's misses in
/// one merge — so the steady-state hit path costs a hash-map probe and
/// nothing else. Inserting past `capacity` evicts arbitrary earlier
/// entries (the eviction counter tracks this pressure); capacity 0
/// disables the cache entirely, degrading [`decompose_cached`] to the
/// matcher alone.
///
/// Because a stored decision is a pure function of its key (within one
/// layer's pattern sets), cache state can never change a decomposition
/// bit — only its speed.
///
/// # Example
///
/// ```
/// use phi_core::{decompose, decompose_cached, LayerMatchIndex, TileCache};
/// use phi_core::{LayerPatterns, Pattern, PatternSet};
/// use snn_core::SpikeMatrix;
///
/// // Width 20 is unpacked (packed layers, k ≤ 16, never consult a cache).
/// let patterns =
///     LayerPatterns::new(20, vec![PatternSet::new(20, vec![Pattern::new(0b0110, 20)])]);
/// let cache = TileCache::new(1024);
/// let mut acts = SpikeMatrix::zeros(2, 20);
/// acts.set_tile(0, 0, 20, 0b0111);
/// acts.set_tile(1, 0, 20, 0b0111); // the tile repeats, but this sweep's
///                                  // snapshot predates it: two misses
/// let cold = decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache);
/// assert_eq!(cold, decompose(&acts, &patterns));
/// assert_eq!(cache.stats().misses, 2);
/// // The next sweep replays the committed decision.
/// let warm = decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache);
/// assert_eq!(warm, cold);
/// assert_eq!(cache.stats().hits, 2);
/// ```
pub struct TileCache {
    capacity: usize,
    map: Mutex<Arc<TileMap>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl TileCache {
    /// Creates a cache holding at most `capacity` decisions;
    /// `capacity == 0` disables the cache.
    pub fn new(capacity: usize) -> Self {
        TileCache {
            capacity,
            map: Mutex::new(Arc::new(TileMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A disabled cache: every lookup misses, inserts are dropped, and no
    /// counter moves. [`decompose_cached`] on one is the matcher alone.
    pub fn disabled() -> Self {
        TileCache::new(0)
    }

    /// Whether the cache stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity != 0
    }

    /// Maximum number of stored decisions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current immutable snapshot (the lock is held only for the
    /// `Arc` clone; probes are lock-free thereafter).
    fn snapshot(&self) -> Arc<TileMap> {
        Arc::clone(&self.map.lock().expect("tile cache map"))
    }

    /// Merges one sweep's outcome: `hits` snapshot lookups answered,
    /// `miss_probes` lookups that missed the snapshot, and the distinct
    /// decisions resolved for those misses — inserted while evicting
    /// arbitrary earlier entries once `capacity` is reached. Duplicate
    /// keys across `resolved` (the same tile resolved by several
    /// parallel chunks) collapse into one entry.
    fn commit(&self, hits: u64, miss_probes: u64, resolved: Vec<(TileKey, TileDecision)>) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if miss_probes > 0 {
            self.misses.fetch_add(miss_probes, Ordering::Relaxed);
        }
        if resolved.is_empty() {
            return;
        }
        let mut evicted = 0u64;
        let mut guard = self.map.lock().expect("tile cache map");
        // Steady state mutates the map in place; a concurrent sweep still
        // holding the snapshot forces one copy-on-write clone.
        let map = Arc::make_mut(&mut guard);
        for (key, decision) in resolved {
            evicted += u64::from(Self::insert_bounded(map, self.capacity, key, decision));
        }
        drop(guard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Inserts one decision, evicting an arbitrary earlier entry first if
    /// the map is at `capacity` and the key is new; returns whether an
    /// eviction happened. The single authority for the eviction policy,
    /// shared by [`Self::commit`] and [`Self::insert`].
    fn insert_bounded(
        map: &mut TileMap,
        capacity: usize,
        key: TileKey,
        decision: TileDecision,
    ) -> bool {
        let evict = map.len() >= capacity && !map.contains_key(&key);
        if evict {
            let victim = *map.keys().next().expect("nonempty map at capacity");
            map.remove(&victim);
        }
        map.insert(key, decision);
        evict
    }

    /// Looks up the memoized decision for the `(part, width, tile)` tile
    /// (`width` is the partition's column width — `k` except possibly for
    /// the final partition), counting the hit or miss. Always `None` on a
    /// disabled cache (uncounted).
    pub fn lookup(&self, part: u32, width: u32, tile: u64) -> Option<TileDecision> {
        if self.capacity == 0 {
            return None;
        }
        let found = self.snapshot().get(&tile_key(part, width, tile)).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Memoizes the decision for the `(part, width, tile)` tile, evicting
    /// an arbitrary earlier entry if the cache is full. No-op on a
    /// disabled cache.
    pub fn insert(&self, part: u32, width: u32, tile: u64, decision: TileDecision) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.map.lock().expect("tile cache map");
        let map = Arc::make_mut(&mut guard);
        let evicted =
            Self::insert_bounded(map, self.capacity, tile_key(part, width, tile), decision);
        drop(guard);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every stored decision (counters keep accumulating).
    pub fn clear(&self) {
        *self.map.lock().expect("tile cache map") = Arc::new(TileMap::default());
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TileCacheStats {
        TileCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.map.lock().expect("tile cache map").len() as u64,
            capacity: self.capacity as u64,
        }
    }
}

impl std::fmt::Debug for TileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileCache")
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{CalibrationConfig, Calibrator};
    use crate::pattern::{Pattern, PatternSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn single_part(patterns: &[u64], k: usize) -> LayerPatterns {
        LayerPatterns::new(
            k,
            vec![PatternSet::new(k, patterns.iter().map(|&b| Pattern::new(b, k)).collect())],
        )
    }

    /// Builds the paper's Fig. 2(b) example: 4 rows of width 4, patterns
    /// {0110, 1101, 1110} (1-indexed 1..3 in the figure).
    fn paper_example() -> (SpikeMatrix, LayerPatterns) {
        let mut acts = SpikeMatrix::zeros(4, 4);
        // Fig. 2 rows (bit 0 = leftmost in the figure; we store bit 0 = LSB,
        // so mirror the strings).
        // row0 = 0110 -> matches pattern 0110 exactly.
        acts.set_tile(0, 0, 4, 0b0110);
        // row1 = 1100 -> pattern 1101 with one -1 correction.
        acts.set_tile(1, 0, 4, 0b1100);
        // row2 = 1110 -> pattern 0110 with one +1 correction (or 1110 exact
        // if that pattern exists; figure assigns 1110... we include it).
        acts.set_tile(2, 0, 4, 0b1110);
        // row3 = one-hot 0100: keeps bit sparsity.
        acts.set_tile(3, 0, 4, 0b0100);
        (acts, single_part(&[0b0110, 0b1101, 0b1110], 4))
    }

    #[test]
    fn exact_match_has_empty_l2() {
        let (acts, patterns) = paper_example();
        let d = decompose(&acts, &patterns);
        assert_eq!(d.l1_index(0, 0), Some(0));
        assert_eq!(d.l2_row(0).len(), 0);
    }

    #[test]
    fn zero_to_one_mismatch_gets_minus_one() {
        let (acts, patterns) = paper_example();
        let d = decompose(&acts, &patterns);
        assert_eq!(d.l1_index(1, 0), Some(1)); // pattern 1101
        assert_eq!(d.l2_row(1).collect::<Vec<_>>(), [L2Entry { col: 0, value: -1 }]);
    }

    #[test]
    fn one_hot_row_keeps_bit_sparsity() {
        let (acts, patterns) = paper_example();
        let d = decompose(&acts, &patterns);
        assert_eq!(d.l1_index(3, 0), None);
        assert_eq!(d.l2_row(3).collect::<Vec<_>>(), [L2Entry { col: 2, value: 1 }]);
    }

    #[test]
    fn paper_example_is_lossless() {
        let (acts, patterns) = paper_example();
        let d = decompose(&acts, &patterns);
        assert!(d.verify_lossless(&acts));
    }

    #[test]
    fn one_to_zero_mismatch_gets_plus_one() {
        let patterns = single_part(&[0b0110], 4);
        let mut acts = SpikeMatrix::zeros(1, 4);
        acts.set_tile(0, 0, 4, 0b1110);
        let d = decompose(&acts, &patterns);
        assert_eq!(d.l1_index(0, 0), Some(0));
        assert_eq!(d.l2_row(0).collect::<Vec<_>>(), [L2Entry { col: 3, value: 1 }]);
        assert!(d.verify_lossless(&acts));
    }

    #[test]
    fn tie_goes_to_baseline() {
        // Tile 0b0011 (popcount 2) vs pattern 0b0110 (distance 2): tie, so
        // keep bit sparsity — saves the PWP accumulation.
        let patterns = single_part(&[0b0110], 4);
        let mut acts = SpikeMatrix::zeros(1, 4);
        acts.set_tile(0, 0, 4, 0b0011);
        let d = decompose(&acts, &patterns);
        assert_eq!(d.l1_index(0, 0), None);
        assert_eq!(d.l2_nnz(), 2);
    }

    #[test]
    fn empty_pattern_set_degrades_to_bit_sparsity() {
        let mut rng = StdRng::seed_from_u64(5);
        let acts = SpikeMatrix::random(16, 16, 0.3, &mut rng);
        let patterns = LayerPatterns::new(16, vec![PatternSet::empty(16)]);
        let d = decompose(&acts, &patterns);
        assert_eq!(d.l2_nnz(), acts.nnz() as u64);
        assert_eq!(d.assigned_tiles(), 0);
        assert!(d.verify_lossless(&acts));
    }

    #[test]
    fn multi_partition_decomposition_is_lossless() {
        let mut rng = StdRng::seed_from_u64(6);
        let acts = SpikeMatrix::random(60, 50, 0.2, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 16, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let d = decompose(&acts, &patterns);
        assert!(d.verify_lossless(&acts));
        assert_eq!(d.num_partitions(), 4); // ceil(50/16)
    }

    #[test]
    fn l2_density_never_exceeds_bit_density() {
        let mut rng = StdRng::seed_from_u64(7);
        for density in [0.05, 0.15, 0.4] {
            let acts = SpikeMatrix::random(64, 64, density, &mut rng);
            let cal = Calibrator::new(CalibrationConfig { q: 32, ..Default::default() });
            let patterns = cal.calibrate(&acts, &mut rng);
            let d = decompose(&acts, &patterns);
            assert!(
                d.l2_nnz() <= acts.nnz() as u64,
                "L2 nnz {} exceeds bit nnz {}",
                d.l2_nnz(),
                acts.nnz()
            );
        }
    }

    #[test]
    fn l2_tile_nnz_partitions_row_totals() {
        let mut rng = StdRng::seed_from_u64(8);
        let acts = SpikeMatrix::random(20, 48, 0.25, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let d = decompose(&acts, &patterns);
        for r in 0..acts.rows() {
            let total: u32 = (0..d.num_partitions()).map(|p| d.l2_tile_nnz(r, p)).sum();
            assert_eq!(total as usize, d.l2_row(r).len());
        }
    }

    #[test]
    fn unpacked_cached_paths_match_the_linear_reference() {
        // k = 20 is unpacked, so the linear matcher and the cache serve
        // this layer.
        let mut rng = StdRng::seed_from_u64(21);
        for density in [0.1, 0.3] {
            let acts = SpikeMatrix::random(80, 50, density, &mut rng);
            let cal = Calibrator::new(CalibrationConfig { k: 20, q: 16, ..Default::default() });
            let patterns = cal.calibrate(&acts, &mut rng);
            let linear = decompose(&acts, &patterns);
            let uncached =
                decompose_cached(&acts, &patterns, &LayerMatchIndex, &TileCache::disabled());
            assert_eq!(uncached, linear);
            let cache = TileCache::new(256);
            let cold = decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache);
            let warm = decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache);
            assert_eq!(cold, linear);
            assert_eq!(warm, linear);
            assert!(cache.stats().hits > 0, "second sweep must hit the cache");
            assert!(linear.verify_lossless(&acts));
        }
    }

    #[test]
    fn packed_layers_leave_the_tile_cache_untouched() {
        // k = 16, q = 16: packed, so neither sweep consults the cache.
        let mut rng = StdRng::seed_from_u64(23);
        let acts = SpikeMatrix::random(40, 50, 0.3, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 16, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let cache = TileCache::new(256);
        let linear = decompose(&acts, &patterns);
        for _ in 0..2 {
            assert_eq!(decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache), linear);
        }
        let mut memo = FrameMemo::new();
        assert_eq!(
            decompose_delta(&acts, &patterns, &LayerMatchIndex, &cache, &mut memo).0,
            linear
        );
        assert_eq!(cache.stats(), TileCacheStats { capacity: 256, ..TileCacheStats::default() });
    }

    #[test]
    fn best_match_keeps_the_lowest_index_tie_rule() {
        // Duplicate patterns and a tie across popcounts: tile 0b1101 is
        // distance 1 from 0b1100 (index 0, popcount 2) and from 0b1111
        // (index 3, popcount 4). The lower index must win, and the
        // duplicate 0b1100 at index 2 must never be reported.
        let set = PatternSet::new(
            4,
            vec![
                Pattern::new(0b1100, 4),
                Pattern::new(0b0011, 4),
                Pattern::new(0b1100, 4),
                Pattern::new(0b1111, 4),
            ],
        );
        for tile in 0..16u64 {
            let first_minimum = simd::scalar::min_hamming(set.pattern_bits(), tile);
            assert_eq!(set.best_match(tile), first_minimum, "tile {tile:04b}");
        }
        assert_eq!(set.best_match(0b1101), Some((0, 1)));
        assert_eq!(set.best_match(0b1100), Some((0, 0)));
        assert!(PatternSet::empty(16).best_match(5).is_none());
    }

    #[test]
    fn tile_cache_counts_hits_misses_and_evictions() {
        let cache = TileCache::new(1);
        assert_eq!(cache.capacity(), 1);
        let a = TileDecision { pattern: Some(3), diff: 0b10 };
        let b = TileDecision { pattern: None, diff: 0b11 };
        assert_eq!(cache.lookup(0, 4, 0b11), None);
        cache.insert(0, 4, 0b11, a);
        assert_eq!(cache.lookup(0, 4, 0b11), Some(a));
        // A different key lands in the single slot: insert evicts.
        assert_eq!(cache.lookup(1, 4, 0b101), None);
        cache.insert(1, 4, 0b101, b);
        assert_eq!(cache.lookup(1, 4, 0b101), Some(b));
        assert_eq!(cache.lookup(0, 4, 0b11), None, "evicted key must miss");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 3, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.lookup(1, 4, 0b101), None);
    }

    #[test]
    fn disabled_cache_stores_and_counts_nothing() {
        let cache = TileCache::disabled();
        assert!(!cache.is_enabled());
        assert_eq!(cache.capacity(), 0);
        cache.insert(0, 4, 7, TileDecision { pattern: None, diff: 7 });
        assert_eq!(cache.lookup(0, 4, 7), None);
        assert_eq!(cache.stats(), TileCacheStats::default());
        // And the cached decompose path degrades to the matcher alone.
        let mut rng = StdRng::seed_from_u64(22);
        let acts = SpikeMatrix::random(20, 32, 0.25, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        assert_eq!(
            decompose_cached(&acts, &patterns, &LayerMatchIndex, &cache),
            decompose(&acts, &patterns)
        );
    }

    #[test]
    fn shared_cache_across_different_widths_stays_exact() {
        // Two activation sets with the same partition COUNT but different
        // final-partition widths (cols 40 vs 39 at k = 20, an unpacked
        // width the cache serves). The cached tile decision for the final
        // partition masks its corrections by that width, so the key must
        // distinguish them — a regression test for the width-blind key
        // that replayed a col-39 correction into a 39-column matrix.
        let patterns = LayerPatterns::new(
            20,
            vec![
                PatternSet::new(20, vec![Pattern::new(0b0110, 20)]),
                PatternSet::new(20, vec![Pattern::new(1 << 19 | 0b0110, 20)]),
            ],
        );
        let cache = TileCache::new(64);
        let mut wide = SpikeMatrix::zeros(1, 40);
        wide.set_tile(0, 20, 20, 0b0110); // final partition width 20
        let mut narrow = SpikeMatrix::zeros(1, 39);
        narrow.set_tile(0, 20, 19, 0b0110); // same tile bits, width 19
        for acts in [&wide, &narrow, &wide, &narrow] {
            let cached = decompose_cached(acts, &patterns, &LayerMatchIndex, &cache);
            assert_eq!(cached, decompose(acts, &patterns));
            assert!(cached.verify_lossless(acts));
        }
        assert!(cache.stats().hits > 0, "the replays must come from the cache");
    }

    #[test]
    fn tile_cache_stats_merge_accumulates() {
        let mut total = TileCacheStats::default();
        total.merge(&TileCacheStats { hits: 2, misses: 1, evictions: 0, entries: 3, capacity: 8 });
        total.merge(&TileCacheStats { hits: 1, misses: 3, evictions: 2, entries: 1, capacity: 8 });
        assert_eq!(total.hits, 3);
        assert_eq!(total.misses, 4);
        assert_eq!(total.evictions, 2);
        assert_eq!(total.entries, 4);
        assert_eq!(total.capacity, 16);
        assert!((total.hit_rate() - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(TileCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn stats_ones_balance_reconstruction() {
        // bit_nnz == l1_ones + l2_pos - l2_neg must hold exactly.
        let mut rng = StdRng::seed_from_u64(9);
        let acts = SpikeMatrix::random(50, 32, 0.3, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 16, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let d = decompose(&acts, &patterns);
        let s = d.stats();
        assert_eq!(s.bit_nnz, s.l1_ones + s.l2_pos - s.l2_neg);
    }
}
