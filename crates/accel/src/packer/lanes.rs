//! The lane-parallel pack counter: the partitions of one m-tile step the
//! window state machine in lockstep, one `u8` lane each, thirty-two per
//! AVX2 vector.
//!
//! The partitions of an m-tile never share a window, so their state
//! machines are independent; each is latency-bound, and a row of them
//! fills a vector register. Each m-tile's corrections are first counted
//! into a `rows × partitions` count matrix from the rows' Level-2 plane
//! words (a count is at most 64: a partition is at most 64 columns wide;
//! at k = 16 four words hold sixteen partitions, and their counts are the
//! vector's sixteen 16-bit lane popcounts, taken at once; other widths
//! read each partition's bits with the `popcnt` instruction); the kernel
//! then walks one lane group down the rows, keeping every rule of
//! [`super::Windows`] per lane without a data-dependent branch:
//!
//! * a window's occupied units are one `u8` lane of a vector per window;
//!   "room" is `units + need <= pack_units` on a saturating add, exact
//!   while `pack_units <= 254` ([`crate::PhiSimulator::new`] asserts it);
//! * bank occupancy is a byte plane per window and eight banks: bit
//!   `b % 8` of a lane is set while the lane's window holds a row of bank
//!   `b`. The row's bank `row % psum_banks` is one scalar for every lane,
//!   so the conflict test is one `and`, and a flush leaves exactly the new
//!   row's bank. Up to eight banks (the default) the whole state is a few
//!   registers;
//! * first fit scans the windows in order, each lane taking the first one
//!   with room and no conflict; a lane left over flushes its fullest window
//!   (the last one on ties: a running `max_epu8`, then a descending scan
//!   for the lanes equal to it) and lands in the window it emptied, which
//!   is the scalar rule's retry in one step — the windows before it did
//!   not fit and have not changed;
//! * the kernel always steps [`MAX_WINDOWS`] windows; those past the
//!   configured count are blocked, every bank taken and no units, so they
//!   never fit and never are the fullest;
//! * an oversize row runs as lockstep chunks of at most `pack_units - 1`
//!   corrections, each lane dropping out when its row is spent.
//!
//! The kernel keeps its lane masks as byte vectors. Occupied units are
//! the units placed (every placed unit leaves in some pack), so they are
//! summed per step; packs are the forced flushes plus the windows still
//! open at the end of the m-tile.
//!
//! Every function here needs AVX2 and POPCNT; [`super::TilePackCounter`]
//! builds a [`LaneCounter`] only on a host with them.

use super::{for_each_tile_count, PackCounts, PackerConfig};
use std::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_adds_epu8, _mm256_and_si256,
    _mm256_andnot_si256, _mm256_castsi256_si128, _mm256_cmpeq_epi8, _mm256_extracti128_si256,
    _mm256_loadu_si256, _mm256_maddubs_epi16, _mm256_max_epu8, _mm256_min_epu8,
    _mm256_movemask_epi8, _mm256_or_si256, _mm256_packus_epi16, _mm256_permute4x64_epi64,
    _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_srli_epi16, _mm256_storeu_si256, _mm256_subs_epu8, _mm_add_epi64, _mm_cvtsi128_si64,
    _mm_srli_si128, _mm_storeu_si128,
};

/// Partitions per lane group: one `u8` lane of a 256-bit register each.
const LANES: usize = 32;

/// Windows the kernel steps. A configuration with fewer windows blocks the
/// rest; one with more runs the scalar [`super::PackCounter`] instead.
pub(super) const MAX_WINDOWS: usize = 4;

/// The per-partition Level-2 counts of one m-tile, and the kernel that
/// packs them. Allocates once, at construction.
#[derive(Debug)]
pub(crate) struct LaneCounter {
    config: PackerConfig,
    /// Partition width: correction column `c` belongs to partition `c / k`.
    k: usize,
    parts: usize,
    /// Row capacity of `counts`.
    tile_rows: usize,
    /// Bytes per row of `counts`: the partitions padded to whole groups.
    stride: usize,
    /// `tile_rows × stride` correction counts, row-major; the padding
    /// lanes stay 0. The kernel zeroes what it reads, so the matrix is
    /// empty again after every m-tile.
    counts: Vec<u8>,
}

impl LaneCounter {
    /// A counter for `parts` partitions of width `k` and m-tiles of up to
    /// `tile_rows` rows. The caller has checked `config` (`pack_units` in
    /// `2..=254`, `1..=MAX_WINDOWS` windows, `psum_banks` in `1..=64`) and
    /// the host (AVX2 and POPCNT).
    pub(crate) fn new(config: &PackerConfig, k: usize, parts: usize, tile_rows: usize) -> Self {
        debug_assert!((2..=254).contains(&config.pack_units));
        debug_assert!(config.windows <= MAX_WINDOWS && config.psum_banks <= 64);
        let stride = parts.div_ceil(LANES) * LANES;
        LaneCounter {
            config: *config,
            k,
            parts,
            tile_rows,
            stride,
            counts: vec![0; tile_rows * stride],
        }
    }

    /// Records tile row `row`'s Level-2 corrections from its plane words
    /// (at most 64 per partition: a partition is at most 64 columns wide)
    /// and returns the row's correction count.
    #[inline]
    #[target_feature(enable = "avx2,popcnt")]
    pub(crate) fn push_row(&mut self, row: usize, words: &[u64]) -> u32 {
        let counts = &mut self.counts[row * self.stride..(row + 1) * self.stride];
        if self.k != 16 {
            let mut total = 0;
            for_each_tile_count(words, self.k, self.parts, |part, nnz| {
                counts[part] = nnz as u8;
                total += nnz as u32;
            });
            return total;
        }
        // Sixteen partitions per four words (the stride covers `4 × words`
        // lanes): per-byte popcounts from a nibble table, summed per
        // 16-bit lane, packed to bytes; the row's total is their sum.
        #[rustfmt::skip]
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let nibble = _mm256_set1_epi8(0x0F);
        let mut total = _mm256_setzero_si256();
        let quads = words.chunks_exact(4);
        let tail = quads.remainder();
        for (lanes, quad) in counts.chunks_exact_mut(16).zip(quads) {
            // SAFETY: `quad` is four contiguous words, read unaligned.
            let v = unsafe { _mm256_loadu_si256(quad.as_ptr().cast()) };
            let bytes = _mm256_add_epi8(
                _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble)),
                _mm256_shuffle_epi8(table, _mm256_and_si256(_mm256_srli_epi16::<4>(v), nibble)),
            );
            total = _mm256_add_epi64(total, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
            let lane_counts = _mm256_maddubs_epi16(bytes, _mm256_set1_epi8(1));
            // Bytes 0–7 and 16–23 hold the sixteen counts in order.
            let packed =
                _mm256_permute4x64_epi64::<0b1000>(_mm256_packus_epi16(lane_counts, lane_counts));
            // SAFETY: `lanes` is 16 contiguous bytes, written unaligned.
            unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), _mm256_castsi256_si128(packed)) };
        }
        let mut sum = sum_lanes(total) as u32;
        for (lanes, &word) in counts[16 * (words.len() / 4)..].chunks_exact_mut(4).zip(tail) {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = (word >> (16 * i) & 0xFFFF).count_ones() as u8;
            }
            sum += word.count_ones();
        }
        sum
    }

    /// Packs the recorded rows `0..rows` and returns the m-tile's counts
    /// summed over its partitions, leaving the matrix empty.
    #[target_feature(enable = "avx2,popcnt")]
    pub(crate) fn finish(&mut self, rows: usize) -> PackCounts {
        assert!(rows <= self.tile_rows, "m-tile of {rows} rows exceeds {}", self.tile_rows);
        if self.config.psum_banks <= 8 {
            self.pack::<1>(rows)
        } else {
            self.pack::<8>(rows)
        }
    }

    /// The kernel: each lane group walks down the rows, a window's banks
    /// in `PLANES` byte planes (one for up to 8 banks, else 8).
    #[target_feature(enable = "avx2,popcnt")]
    fn pack<const PLANES: usize>(&mut self, rows: usize) -> PackCounts {
        let pack_units = _mm256_set1_epi8(self.config.pack_units as i8);
        let chunk = _mm256_set1_epi8((self.config.pack_units - 1) as i8);
        let one = _mm256_set1_epi8(1);
        let zero = _mm256_setzero_si256();
        let blocked: [[__m256i; PLANES]; MAX_WINDOWS] = std::array::from_fn(|w| {
            [if w < self.config.windows { zero } else { _mm256_cmpeq_epi8(zero, zero) }; PLANES]
        });
        // Per-lane tallies, summed into four u64 quarters by `vpsadbw`.
        let (mut placed, mut packs, mut oversize) = (zero, zero, zero);
        for group in (0..self.stride).step_by(LANES) {
            let mut units = [zero; MAX_WINDOWS];
            let mut banks = blocked;
            let mut bank = 0;
            for lanes in self.counts[..rows * self.stride].chunks_exact_mut(self.stride) {
                let lanes = &mut lanes[group..group + LANES];
                // SAFETY: `lanes` is 32 contiguous bytes, read and written
                // unaligned.
                let mut rest = unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) };
                // SAFETY: as above.
                unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), zero) };
                oversize = tally(oversize, _mm256_min_epu8(_mm256_subs_epu8(rest, chunk), one));
                let bit = _mm256_set1_epi8((1u8 << (bank % 8)) as i8);
                let row_bank: [__m256i; PLANES] =
                    std::array::from_fn(|p| if p == bank / 8 { bit } else { zero });
                loop {
                    let idle = _mm256_cmpeq_epi8(rest, zero);
                    if _mm256_movemask_epi8(idle) == -1 {
                        break;
                    }
                    let need = _mm256_andnot_si256(
                        idle,
                        _mm256_add_epi8(_mm256_min_epu8(rest, chunk), one),
                    );
                    placed = tally(placed, need);
                    let open = _mm256_cmpeq_epi8(idle, zero);
                    let flushed = place(&mut units, &mut banks, &row_bank, need, open, pack_units);
                    packs = tally(packs, _mm256_and_si256(flushed, one));
                    rest = _mm256_subs_epu8(rest, chunk);
                }
                bank += 1;
                if bank == self.config.psum_banks {
                    bank = 0;
                }
            }
            for units in units {
                packs = tally(packs, _mm256_min_epu8(units, one));
            }
        }
        PackCounts {
            packs: sum_lanes(packs),
            occupied_units: sum_lanes(placed),
            oversize_rows: sum_lanes(oversize),
        }
    }
}

/// One step of thirty-two state machines: every lane of `open` places a
/// chunk of `need` units (partial-sum unit included) of a row whose bank
/// bit is `row_bank`. Returns the lanes that flushed a window to make
/// room.
#[inline]
#[target_feature(enable = "avx2")]
fn place<const PLANES: usize>(
    units: &mut [__m256i; MAX_WINDOWS],
    banks: &mut [[__m256i; PLANES]; MAX_WINDOWS],
    row_bank: &[__m256i; PLANES],
    need: __m256i,
    mut open: __m256i,
    pack_units: __m256i,
) -> __m256i {
    let zero = _mm256_setzero_si256();
    // First fit.
    for (units, planes) in units.iter_mut().zip(banks.iter_mut()) {
        let room = _mm256_cmpeq_epi8(
            _mm256_max_epu8(_mm256_adds_epu8(*units, need), pack_units),
            pack_units,
        );
        let taken = planes
            .iter()
            .zip(row_bank)
            .fold(zero, |t, (&plane, &bit)| _mm256_or_si256(t, _mm256_and_si256(plane, bit)));
        let take = _mm256_and_si256(_mm256_cmpeq_epi8(taken, zero), _mm256_and_si256(room, open));
        open = _mm256_andnot_si256(take, open);
        *units = _mm256_add_epi8(*units, _mm256_and_si256(need, take));
        for (plane, &bit) in planes.iter_mut().zip(row_bank) {
            *plane = _mm256_or_si256(*plane, _mm256_and_si256(take, bit));
        }
    }
    // Flush the fullest window of every lane left open, the last on ties,
    // and place there.
    let flushed = open;
    let fullest = units.iter().fold(zero, |m, &u| _mm256_max_epu8(m, u));
    for (units, planes) in units.iter_mut().zip(banks.iter_mut()).rev() {
        let flush = _mm256_and_si256(_mm256_cmpeq_epi8(*units, fullest), open);
        open = _mm256_andnot_si256(flush, open);
        *units = _mm256_or_si256(_mm256_andnot_si256(flush, *units), _mm256_and_si256(flush, need));
        for (plane, &bit) in planes.iter_mut().zip(row_bank) {
            *plane =
                _mm256_or_si256(_mm256_andnot_si256(flush, *plane), _mm256_and_si256(flush, bit));
        }
    }
    flushed
}

/// `acc` plus the byte lanes of `v`, in four u64 quarters.
#[inline]
#[target_feature(enable = "avx2")]
fn tally(acc: __m256i, v: __m256i) -> __m256i {
    _mm256_add_epi64(acc, _mm256_sad_epu8(v, _mm256_setzero_si256()))
}

/// The sum of a vector's four u64 quarters (a [`tally`]).
#[inline]
#[target_feature(enable = "avx2")]
fn sum_lanes(acc: __m256i) -> u64 {
    let half = _mm_add_epi64(_mm256_castsi256_si128(acc), _mm256_extracti128_si256::<1>(acc));
    _mm_cvtsi128_si64(_mm_add_epi64(half, _mm_srli_si128::<8>(half))) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packer::PackCounter;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The m-tile's counts from one scalar [`PackCounter`] per partition.
    fn oracle(matrix: &[Vec<u8>], config: &PackerConfig) -> PackCounts {
        let mut sum = PackCounts::default();
        for part in 0..matrix.first().map_or(0, Vec::len) {
            let mut counter = PackCounter::new(config);
            for (row, counts) in matrix.iter().enumerate() {
                if counts[part] > 0 {
                    counter.push_row(row as u32, usize::from(counts[part]));
                }
            }
            let counts = counter.finish();
            sum.packs += counts.packs;
            sum.occupied_units += counts.occupied_units;
            sum.oversize_rows += counts.oversize_rows;
        }
        sum
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel counts what a `PackCounter` per partition counts, on random count
        /// matrices spanning several lane groups, over successive m-tiles
        /// of one counter; every row's returned total is its count sum.
        #[test]
        fn lanes_match_a_pack_counter_per_partition(
            parts in 1usize..100,
            k in prop::sample::select(vec![1usize, 5, 16, 64]),
            tile_rows in 1usize..300,
            density in prop::sample::select(vec![0.05f64, 0.3, 1.0]),
            max_nnz in 1usize..=64,
            pack_units in prop::sample::select((2usize..10).chain([17, 253, 254]).collect::<Vec<_>>()),
            windows in 1usize..=MAX_WINDOWS,
            psum_banks in 1usize..65,
            seed in any::<u64>(),
        ) {
            if !std::arch::is_x86_feature_detected!("avx2")
                || !std::arch::is_x86_feature_detected!("popcnt")
            {
                return;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PackerConfig { pack_units, windows, psum_banks };
            let mut lanes = LaneCounter::new(&config, k, parts, tile_rows);
            for rows in [tile_rows, tile_rows.div_ceil(3)] {
                let matrix: Vec<Vec<u8>> = (0..rows)
                    .map(|_| {
                        (0..parts)
                            .map(|_| if rng.gen_bool(density) { rng.gen_range(1..=max_nnz.min(k)) as u8 } else { 0 })
                            .collect()
                    })
                    .collect();
                for (row, counts) in matrix.iter().enumerate() {
                    // The row's plane: `nnz` random columns of each
                    // partition carry a correction.
                    let mut words = vec![0u64; (parts * k).div_ceil(64)];
                    for (part, &nnz) in counts.iter().enumerate() {
                        let mut cols: Vec<usize> = (part * k..(part + 1) * k).collect();
                        for _ in 0..nnz {
                            let col = cols.swap_remove(rng.gen_range(0..cols.len()));
                            words[col / 64] |= 1 << (col % 64);
                        }
                    }
                    // SAFETY: AVX2 and POPCNT were detected above.
                    let total = unsafe { lanes.push_row(row, &words) };
                    prop_assert_eq!(total, counts.iter().map(|&c| u32::from(c)).sum::<u32>());
                }
                // SAFETY: as above.
                prop_assert_eq!(unsafe { lanes.finish(rows) }, oracle(&matrix, &config));
            }
        }
    }
}
