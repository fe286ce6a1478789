//! The lane-parallel pack counter: sixteen partitions of one m-tile step
//! the window state machine in lockstep, one SSE2 `u8` lane each.
//!
//! The partitions of an m-tile never share a window, so their state
//! machines are independent; each is latency-bound, and a row of them
//! fills a vector register. Each m-tile's corrections are first counted
//! into a `rows × partitions` count matrix (a count is at most 64: a
//! partition is at most 64 columns wide); the kernel then walks one lane
//! group down the rows, keeping every rule of [`super::Windows`] per lane
//! without a data-dependent branch:
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
//! Occupied units are the units placed (every placed unit leaves in some
//! pack), so they are summed per step; packs are the forced flushes plus
//! the windows still open at the end of the m-tile.

use super::{PackCounts, PackerConfig};
use phi_core::L2Entry;
use std::arch::x86_64::{
    __m128i, _mm_add_epi64, _mm_add_epi8, _mm_adds_epu8, _mm_and_si128, _mm_andnot_si128,
    _mm_cmpeq_epi8, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_max_epu8, _mm_min_epu8,
    _mm_movemask_epi8, _mm_or_si128, _mm_sad_epu8, _mm_set1_epi8, _mm_setzero_si128,
    _mm_srli_si128, _mm_storeu_si128, _mm_subs_epu8,
};

/// Partitions per lane group: one `u8` lane of a 128-bit register each.
const LANES: usize = 16;

/// Windows the kernel steps. A configuration with fewer windows blocks the
/// rest; one with more runs the scalar [`super::PackCounter`] instead.
pub(super) const MAX_WINDOWS: usize = 4;

/// The per-partition Level-2 counts of one m-tile, and the kernel that
/// packs them. Allocates once, at construction.
#[derive(Debug)]
pub(crate) struct LaneCounter {
    config: PackerConfig,
    /// Partition width: correction column `c` belongs to partition `c / k`.
    k: u32,
    /// `log2(k)` when `k` is a power of two: a shift in place of the
    /// division.
    shift: Option<u32>,
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
    /// `tile_rows` rows. The caller has checked `config`: `pack_units` in
    /// `2..=254`, `1..=MAX_WINDOWS` windows, `psum_banks` in `1..=64`.
    pub(crate) fn new(config: &PackerConfig, k: usize, parts: usize, tile_rows: usize) -> Self {
        debug_assert!((2..=254).contains(&config.pack_units));
        debug_assert!(config.windows <= MAX_WINDOWS && config.psum_banks <= 64);
        let stride = parts.div_ceil(LANES) * LANES;
        LaneCounter {
            config: *config,
            k: u32::try_from(k).expect("partition width fits u32"),
            shift: k.is_power_of_two().then(|| k.trailing_zeros()),
            tile_rows,
            stride,
            counts: vec![0; tile_rows * stride],
        }
    }

    /// Records tile row `row`'s Level-2 corrections (at most 64 per
    /// partition: a partition is at most 64 columns wide).
    #[inline]
    pub(crate) fn push_row(&mut self, row: usize, corrections: &[L2Entry]) {
        let counts = &mut self.counts[row * self.stride..(row + 1) * self.stride];
        match self.shift {
            Some(shift) => corrections.iter().for_each(|e| counts[(e.col >> shift) as usize] += 1),
            None => corrections.iter().for_each(|e| counts[(e.col / self.k) as usize] += 1),
        }
    }

    /// Packs the recorded rows `0..rows` and returns the m-tile's counts
    /// summed over its partitions, leaving the matrix empty.
    pub(crate) fn finish(&mut self, rows: usize) -> PackCounts {
        assert!(rows <= self.tile_rows, "m-tile of {rows} rows exceeds {}", self.tile_rows);
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            if self.config.psum_banks <= 8 {
                self.pack::<1>(rows)
            } else {
                self.pack::<8>(rows)
            }
        }
    }

    /// The SSE2 kernel: each lane group walks down the rows, a window's
    /// banks in `PLANES` byte planes (one for up to 8 banks, else 8).
    #[target_feature(enable = "sse2")]
    fn pack<const PLANES: usize>(&mut self, rows: usize) -> PackCounts {
        let pack_units = _mm_set1_epi8(self.config.pack_units as i8);
        let chunk = _mm_set1_epi8((self.config.pack_units - 1) as i8);
        let one = _mm_set1_epi8(1);
        let zero = _mm_setzero_si128();
        let blocked: [[__m128i; PLANES]; MAX_WINDOWS] = std::array::from_fn(|w| {
            [if w < self.config.windows { zero } else { _mm_cmpeq_epi8(zero, zero) }; PLANES]
        });
        // Per-lane tallies, summed into two u64 halves by `psadbw`.
        let (mut placed, mut packs, mut oversize) = (zero, zero, zero);
        for group in (0..self.stride).step_by(LANES) {
            let mut units = [zero; MAX_WINDOWS];
            let mut banks = blocked;
            let mut bank = 0;
            for lanes in self.counts[..rows * self.stride].chunks_exact_mut(self.stride) {
                let lanes = &mut lanes[group..group + LANES];
                // SAFETY: `lanes` is 16 contiguous bytes, read and written
                // unaligned.
                let mut rest = unsafe { _mm_loadu_si128(lanes.as_ptr().cast()) };
                // SAFETY: as above.
                unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), zero) };
                oversize = tally(oversize, _mm_min_epu8(_mm_subs_epu8(rest, chunk), one));
                let bit = _mm_set1_epi8((1u8 << (bank % 8)) as i8);
                let row_bank: [__m128i; PLANES] =
                    std::array::from_fn(|p| if p == bank / 8 { bit } else { zero });
                loop {
                    let idle = _mm_cmpeq_epi8(rest, zero);
                    if _mm_movemask_epi8(idle) == 0xFFFF {
                        break;
                    }
                    let need = _mm_andnot_si128(idle, _mm_add_epi8(_mm_min_epu8(rest, chunk), one));
                    placed = tally(placed, need);
                    let open = _mm_cmpeq_epi8(idle, zero);
                    let flushed = place(&mut units, &mut banks, &row_bank, need, open, pack_units);
                    packs = tally(packs, _mm_and_si128(flushed, one));
                    rest = _mm_subs_epu8(rest, chunk);
                }
                bank += 1;
                if bank == self.config.psum_banks {
                    bank = 0;
                }
            }
            for units in units {
                packs = tally(packs, _mm_min_epu8(units, one));
            }
        }
        PackCounts {
            packs: total(packs),
            occupied_units: total(placed),
            oversize_rows: total(oversize),
        }
    }
}

/// One step of sixteen state machines: every lane of `open` places a
/// chunk of `need` units (partial-sum unit included) of a row whose bank
/// bit is `row_bank`. Returns the lanes that flushed a window to make
/// room.
#[inline]
#[target_feature(enable = "sse2")]
fn place<const PLANES: usize>(
    units: &mut [__m128i; MAX_WINDOWS],
    banks: &mut [[__m128i; PLANES]; MAX_WINDOWS],
    row_bank: &[__m128i; PLANES],
    need: __m128i,
    mut open: __m128i,
    pack_units: __m128i,
) -> __m128i {
    let zero = _mm_setzero_si128();
    // First fit.
    for (units, planes) in units.iter_mut().zip(banks.iter_mut()) {
        let room =
            _mm_cmpeq_epi8(_mm_max_epu8(_mm_adds_epu8(*units, need), pack_units), pack_units);
        let taken = planes
            .iter()
            .zip(row_bank)
            .fold(zero, |t, (&plane, &bit)| _mm_or_si128(t, _mm_and_si128(plane, bit)));
        let take = _mm_and_si128(_mm_cmpeq_epi8(taken, zero), _mm_and_si128(room, open));
        open = _mm_andnot_si128(take, open);
        *units = _mm_add_epi8(*units, _mm_and_si128(need, take));
        for (plane, &bit) in planes.iter_mut().zip(row_bank) {
            *plane = _mm_or_si128(*plane, _mm_and_si128(take, bit));
        }
    }
    // Flush the fullest window of every lane left open, the last on ties,
    // and place there.
    let flushed = open;
    let fullest = units.iter().fold(zero, |m, &u| _mm_max_epu8(m, u));
    for (units, planes) in units.iter_mut().zip(banks.iter_mut()).rev() {
        let flush = _mm_and_si128(_mm_cmpeq_epi8(*units, fullest), open);
        open = _mm_andnot_si128(flush, open);
        *units = _mm_or_si128(_mm_andnot_si128(flush, *units), _mm_and_si128(flush, need));
        for (plane, &bit) in planes.iter_mut().zip(row_bank) {
            *plane = _mm_or_si128(_mm_andnot_si128(flush, *plane), _mm_and_si128(flush, bit));
        }
    }
    flushed
}

/// `acc` plus the byte lanes of `v`, in two u64 halves.
#[inline]
#[target_feature(enable = "sse2")]
fn tally(acc: __m128i, v: __m128i) -> __m128i {
    _mm_add_epi64(acc, _mm_sad_epu8(v, _mm_setzero_si128()))
}

/// The sum of a [`tally`].
#[inline]
#[target_feature(enable = "sse2")]
fn total(acc: __m128i) -> u64 {
    _mm_cvtsi128_si64(_mm_add_epi64(acc, _mm_srli_si128::<8>(acc))) as u64
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

        /// The lanes count what a `PackCounter` per partition counts, on
        /// random count matrices spanning several lane groups, over
        /// successive m-tiles of one counter.
        #[test]
        fn lanes_match_a_pack_counter_per_partition(
            parts in 1usize..50,
            k in prop::sample::select(vec![1usize, 5, 16, 64]),
            tile_rows in 1usize..300,
            density in prop::sample::select(vec![0.05f64, 0.3, 1.0]),
            max_nnz in 1usize..=64,
            pack_units in prop::sample::select((2usize..10).chain([17, 253, 254]).collect::<Vec<_>>()),
            windows in 1usize..=MAX_WINDOWS,
            psum_banks in 1usize..65,
            seed in any::<u64>(),
        ) {
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
                    let corrections: Vec<L2Entry> = counts
                        .iter()
                        .enumerate()
                        .flat_map(|(part, &nnz)| {
                            (0..nnz).map(move |i| L2Entry { col: (part * k) as u32 + u32::from(i), value: 1 })
                        })
                        .collect();
                    lanes.push_row(row, &corrections);
                }
                prop_assert_eq!(lanes.finish(rows), oracle(&matrix, &config));
            }
        }
    }
}
