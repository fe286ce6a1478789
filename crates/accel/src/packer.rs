//! The Level-2 compressor and packer (§4.2.2, Fig. 4b/c).
//!
//! The compressor drops all-zero Level-2 rows and extracts column indices;
//! the packer consolidates the surviving rows into fixed 8-unit *packs*.
//! Each packed row consumes `nnz + 1` units — its correction elements plus
//! one partial-sum unit — and may only join a window whose resident rows use
//! different partial-sum banks (`row mod banks`), which is what guarantees
//! conflict-free psum access in the L2 processor.
//!
//! One window state machine implements the paper's multi-window schedule:
//! a row goes to the first window with space and no bank conflict; if none
//! qualifies, the fullest window is flushed. Two front ends share it:
//!
//! * [`pack_rows`] is the functional packer — it records every unit, and
//!   [`crate::datapath`] executes the packs it builds;
//! * [`PackCounter`] is the timing model's packer — it sees only each
//!   row's correction count and records the pack count, the occupied units
//!   and the oversize rows, which is all the cycle and traffic models read.
//!
//! Every partition of an m-tile runs its own state machine, so the cycle
//! simulator steps sixteen of them in lockstep, one SSE2 lane each, on
//! x86-64 (`lanes`, which restates the rule branch-free over lane masks);
//! one [`PackCounter`] per partition remains the scalar tier and the
//! lanes' oracle. Both read a row's correction counts straight from its
//! Level-2 plane words ([`phi_core::Decomposition::l2_words`]): a
//! partition's count is the popcount of its `k` bits.

use std::ops::Range;

#[cfg(target_arch = "x86_64")]
mod lanes;

/// One unit inside a pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackUnit {
    /// A Level-2 correction: accumulate (or subtract) one weight row.
    Nonzero {
        /// Row id within the m-tile.
        row: u32,
        /// Column index within the partition (0..k).
        col: u8,
        /// Whether the value is −1.
        negative: bool,
    },
    /// A partial-sum unit: accumulate the row's running partial sum.
    PartialSum {
        /// Row id within the m-tile.
        row: u32,
    },
}

impl PackUnit {
    /// The row this unit belongs to.
    pub fn row(&self) -> u32 {
        match *self {
            PackUnit::Nonzero { row, .. } | PackUnit::PartialSum { row } => row,
        }
    }
}

/// A fixed-capacity pack of units, plus scheduling metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pack {
    /// Units in dispatch order (grouped by row).
    pub units: Vec<PackUnit>,
    /// Distinct rows packed (each row contributes a contiguous unit run).
    pub rows: u32,
}

impl Pack {
    /// Occupied units.
    pub fn occupancy(&self) -> usize {
        self.units.len()
    }
}

/// Packer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackerConfig {
    /// Units per pack (8 in the paper).
    pub pack_units: usize,
    /// Concurrent open windows (incomplete packs).
    pub windows: usize,
    /// Partial-sum banks; two rows with equal `row mod banks` conflict.
    pub psum_banks: usize,
}

impl Default for PackerConfig {
    fn default() -> Self {
        PackerConfig { pack_units: 8, windows: 4, psum_banks: 8 }
    }
}

/// Result of packing one (m-tile, partition) stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PackerOutput {
    /// The completed packs.
    pub packs: Vec<Pack>,
    /// Rows that had to be split across packs because `nnz + 1` exceeded a
    /// pack (the paper's sparsity makes this "not exist"; we handle and
    /// count it for robustness).
    pub oversize_rows: u64,
    /// Window flushes forced by conflicts or lack of space.
    pub forced_flushes: u64,
}

impl PackerOutput {
    /// Mean pack occupancy in [0, 1] — the utilization Fig. 5's design is
    /// built to maximize.
    pub fn mean_occupancy(&self, pack_units: usize) -> f64 {
        if self.packs.is_empty() {
            return 0.0;
        }
        let occupied: usize = self.packs.iter().map(Pack::occupancy).sum();
        occupied as f64 / (self.packs.len() * pack_units) as f64
    }
}

/// Asserts the configuration the window state machine needs: chunks of at
/// least one correction, at least one window, and psum banks that fit the
/// `u64` conflict mask.
fn assert_packable(config: &PackerConfig) {
    assert!(config.pack_units >= 2, "pack_units must be at least 2, got {}", config.pack_units);
    assert!(config.windows >= 1, "windows must be at least 1, got {}", config.windows);
    assert!(
        (1..=64).contains(&config.psum_banks),
        "psum_banks must be in 1..=64, got {}",
        config.psum_banks
    );
}

/// One open window of the state machine: occupied units, resident rows and
/// the bitmask of psum banks those rows use.
#[derive(Debug, Clone, Copy, Default)]
struct WindowState {
    units: usize,
    rows: u32,
    banks_used: u64,
}

/// Where the state machine reports its decisions.
trait PackSink {
    /// Window `w`, holding `units` units over `rows` rows, leaves as a pack.
    fn flush(&mut self, w: usize, units: usize, rows: u32);
    /// Corrections `chunk` of the current row join window `w` behind the
    /// row's partial-sum unit.
    fn place(&mut self, w: usize, row: u32, chunk: Range<usize>);
}

/// The packer's placement rule, shared by [`pack_rows`] and
/// [`PackCounter`].
#[derive(Debug, Clone)]
struct Windows {
    pack_units: usize,
    psum_banks: usize,
    open: Vec<WindowState>,
    oversize_rows: u64,
    forced_flushes: u64,
}

impl Windows {
    fn new(config: &PackerConfig) -> Self {
        assert_packable(config);
        Windows {
            pack_units: config.pack_units,
            psum_banks: config.psum_banks,
            open: vec![WindowState::default(); config.windows],
            oversize_rows: 0,
            forced_flushes: 0,
        }
    }

    /// Places one row of `nnz` corrections. Oversize rows are split into
    /// pack-sized chunks; every chunk needs its own partial-sum unit to
    /// chain the accumulation.
    #[inline]
    fn place_row(&mut self, row: u32, nnz: usize, sink: &mut impl PackSink) {
        debug_assert!(nnz > 0, "compressor must filter empty rows");
        let chunk_capacity = self.pack_units - 1;
        if nnz > chunk_capacity {
            self.oversize_rows += 1;
        }
        let bank = 1u64 << (row as usize % self.psum_banks);
        let mut start = 0;
        while start < nnz {
            let end = nnz.min(start + chunk_capacity);
            let needed = end - start + 1;
            loop {
                // Step 5 of Fig. 4: find a window with space and no bank
                // conflict.
                let slot = self
                    .open
                    .iter()
                    .position(|w| w.units + needed <= self.pack_units && w.banks_used & bank == 0);
                if let Some(i) = slot {
                    let w = &mut self.open[i];
                    w.units += needed;
                    w.rows += 1;
                    w.banks_used |= bank;
                    sink.place(i, row, start..end);
                    break;
                }
                // Flush the fullest window (the last one on ties) and retry.
                let fullest = self
                    .open
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, w)| w.units)
                    .map(|(i, _)| i)
                    .expect("at least one window");
                self.flush(fullest, sink);
                self.forced_flushes += 1;
            }
            start = end;
        }
    }

    /// Flushes every non-empty window, leaving the machine empty.
    fn drain(&mut self, sink: &mut impl PackSink) {
        for i in 0..self.open.len() {
            if self.open[i].units > 0 {
                self.flush(i, sink);
            }
        }
    }

    fn flush(&mut self, i: usize, sink: &mut impl PackSink) {
        let w = std::mem::take(&mut self.open[i]);
        sink.flush(i, w.units, w.rows);
    }
}

/// Records every unit: the functional packer's sink.
struct Recorder<'a> {
    entries: &'a [(u8, bool)],
    open: Vec<Vec<PackUnit>>,
    packs: Vec<Pack>,
}

impl PackSink for Recorder<'_> {
    fn flush(&mut self, w: usize, _units: usize, rows: u32) {
        self.packs.push(Pack { units: std::mem::take(&mut self.open[w]), rows });
    }

    fn place(&mut self, w: usize, row: u32, chunk: Range<usize>) {
        let units = &mut self.open[w];
        units.push(PackUnit::PartialSum { row });
        for &(col, negative) in &self.entries[chunk] {
            units.push(PackUnit::Nonzero { row, col, negative });
        }
    }
}

/// Packs a stream of `(row, level-2 corrections)` for one partition.
///
/// `rows` yields `(row_id, &[(col_in_partition, negative)])`; all-zero rows
/// must already be filtered out (the compressor's job —
/// [`pack_rows`] debug-asserts it).
///
/// # Panics
///
/// Panics if `config.pack_units < 2`, `config.windows == 0`, or
/// `config.psum_banks` is outside `1..=64`.
pub fn pack_rows<'a>(
    rows: impl Iterator<Item = (u32, &'a [(u8, bool)])>,
    config: &PackerConfig,
) -> PackerOutput {
    let mut windows = Windows::new(config);
    let mut sink =
        Recorder { entries: &[], open: vec![Vec::new(); config.windows], packs: Vec::new() };
    for (row, entries) in rows {
        sink.entries = entries;
        windows.place_row(row, entries.len(), &mut sink);
    }
    windows.drain(&mut sink);
    PackerOutput {
        packs: sink.packs,
        oversize_rows: windows.oversize_rows,
        forced_flushes: windows.forced_flushes,
    }
}

/// What [`PackCounter::finish`] reports for one stream: the quantities the
/// timing and traffic models read from [`pack_rows`]' output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackCounts {
    /// Packs built (`PackerOutput::packs.len()`).
    pub packs: u64,
    /// Units occupied across those packs.
    pub occupied_units: u64,
    /// Rows split across packs (`PackerOutput::oversize_rows`).
    pub oversize_rows: u64,
}

impl PackSink for PackCounts {
    #[inline]
    fn flush(&mut self, _w: usize, units: usize, _rows: u32) {
        self.packs += 1;
        self.occupied_units += units as u64;
    }

    #[inline]
    fn place(&mut self, _w: usize, _row: u32, _chunk: Range<usize>) {}
}

/// The packer without the packs: applies the same placement rule as
/// [`pack_rows`] from each row's correction count and keeps only
/// [`PackCounts`]. Allocates once, at construction; [`PackCounter::finish`]
/// leaves it ready for the next stream.
///
/// ```
/// use phi_accel::packer::{pack_rows, PackCounter, PackerConfig};
///
/// let config = PackerConfig::default();
/// let e = [(0u8, false), (3, true)];
/// let mut counter = PackCounter::new(&config);
/// counter.push_row(0, e.len());
/// counter.push_row(8, e.len());
/// let counts = counter.finish();
/// let packed = pack_rows([(0, &e[..]), (8, &e[..])].into_iter(), &config);
/// assert_eq!(counts.packs, packed.packs.len() as u64);
/// assert_eq!(counts.occupied_units, 6);
/// ```
#[derive(Debug, Clone)]
pub struct PackCounter {
    windows: Windows,
    counts: PackCounts,
}

impl PackCounter {
    /// A counter for streams packed under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.pack_units < 2`, `config.windows == 0`, or
    /// `config.psum_banks` is outside `1..=64`.
    pub fn new(config: &PackerConfig) -> Self {
        PackCounter { windows: Windows::new(config), counts: PackCounts::default() }
    }

    /// Packs row `row`, which carries `nnz` Level-2 corrections (nonzero:
    /// the compressor filters empty rows, and this debug-asserts it).
    #[inline]
    pub fn push_row(&mut self, row: u32, nnz: usize) {
        self.windows.place_row(row, nnz, &mut self.counts);
    }

    /// Flushes the open windows and returns the stream's counts, leaving
    /// the counter empty for the next stream.
    pub fn finish(&mut self) -> PackCounts {
        self.windows.drain(&mut self.counts);
        self.counts.oversize_rows = std::mem::take(&mut self.windows.oversize_rows);
        self.windows.forced_flushes = 0;
        std::mem::take(&mut self.counts)
    }
}

/// The pack counters of every partition of a layer, one m-tile at a time:
/// the [`PackCounts`] of each partition's stream, summed over the
/// partitions. On x86-64 sixteen partitions step in lockstep in SSE2 lanes
/// (`lanes`); other targets, `PHI_SIMD=scalar` and configurations with
/// more than four windows run one [`PackCounter`] per partition, which is
/// also the lanes' oracle.
#[derive(Debug)]
pub(crate) enum TilePackCounter {
    Scalar {
        k: usize,
        counters: Vec<PackCounter>,
    },
    #[cfg(target_arch = "x86_64")]
    Lanes(lanes::LaneCounter),
}

impl TilePackCounter {
    /// Counters for `parts` partitions of width `k` and m-tiles of up to
    /// `tile_rows` rows, under a `config` that passed
    /// [`crate::PhiSimulator::new`]'s checks (the lanes hold a window's
    /// units in a `u8`, so `pack_units <= 254`).
    pub(crate) fn new(config: &PackerConfig, k: usize, parts: usize, tile_rows: usize) -> Self {
        #[cfg(target_arch = "x86_64")]
        if config.windows <= lanes::MAX_WINDOWS
            && snn_core::simd::level() != snn_core::simd::SimdLevel::Scalar
        {
            return TilePackCounter::Lanes(lanes::LaneCounter::new(config, k, parts, tile_rows));
        }
        let _ = tile_rows;
        TilePackCounter::Scalar { k, counters: vec![PackCounter::new(config); parts] }
    }

    /// Records tile row `row`'s Level-2 corrections from its plane words
    /// ([`phi_core::Decomposition::l2_words`]); rows arrive in ascending
    /// order.
    #[inline]
    pub(crate) fn push_row(&mut self, row: usize, words: &[u64]) {
        match self {
            TilePackCounter::Scalar { k, counters } => {
                let parts = counters.len();
                for_each_tile_count(words, *k, parts, |part, nnz| {
                    counters[part].push_row(row as u32, nnz);
                });
            }
            #[cfg(target_arch = "x86_64")]
            TilePackCounter::Lanes(lanes) => lanes.push_row(row, words),
        }
    }

    /// Packs the m-tile's `rows` rows and returns its counts summed over
    /// the partitions, leaving every counter empty for the next m-tile.
    pub(crate) fn finish(&mut self, rows: usize) -> PackCounts {
        match self {
            TilePackCounter::Scalar { counters, .. } => {
                let _ = rows;
                counters.iter_mut().fold(PackCounts::default(), |sum, counter| {
                    let counts = counter.finish();
                    PackCounts {
                        packs: sum.packs + counts.packs,
                        occupied_units: sum.occupied_units + counts.occupied_units,
                        oversize_rows: sum.oversize_rows + counts.oversize_rows,
                    }
                })
            }
            #[cfg(target_arch = "x86_64")]
            TilePackCounter::Lanes(lanes) => lanes.finish(rows),
        }
    }
}

/// Calls `f(part, nnz)` for every partition of width `k` (of `parts`)
/// whose correction count `nnz` in one row's plane `words` is nonzero, in
/// partition order. A width dividing 64 walks the nonzero words lane by
/// lane; any other width reads each partition's bits, which may straddle
/// two words.
#[inline]
fn for_each_tile_count(words: &[u64], k: usize, parts: usize, mut f: impl FnMut(usize, usize)) {
    let lane = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    if 64 % k == 0 {
        for (w, &word) in words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let at = rest.trailing_zeros() as usize / k * k;
                f((64 * w + at) / k, ((rest >> at) & lane).count_ones() as usize);
                rest &= !(lane << at);
            }
        }
    } else {
        for part in 0..parts {
            let (w, bit) = (part * k / 64, part * k % 64);
            let mut bits = words[w] >> bit;
            if bit + k > 64 {
                bits |= words.get(w + 1).map_or(0, |&next| next << (64 - bit));
            }
            let nnz = (bits & lane).count_ones() as usize;
            if nnz > 0 {
                f(part, nnz);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize) -> Vec<(u8, bool)> {
        (0..n).map(|i| (i as u8, i % 2 == 1)).collect()
    }

    #[test]
    fn single_row_forms_single_pack() {
        let e = entries(3);
        let rows = vec![(0u32, e.as_slice())];
        let out = pack_rows(rows.into_iter(), &PackerConfig::default());
        assert_eq!(out.packs.len(), 1);
        assert_eq!(out.packs[0].occupancy(), 4); // 3 nonzeros + 1 psum
        assert_eq!(out.packs[0].rows, 1);
        assert_eq!(out.oversize_rows, 0);
    }

    #[test]
    fn rows_share_packs_up_to_capacity() {
        // Three rows of 2 entries each: 3 × (2+1) = 9 units > 8, so two
        // packs.
        let e = entries(2);
        let rows: Vec<(u32, &[(u8, bool)])> = (0..3).map(|r| (r as u32, e.as_slice())).collect();
        let out = pack_rows(rows.into_iter(), &PackerConfig { windows: 1, ..Default::default() });
        assert_eq!(out.packs.len(), 2);
        let total_units: usize = out.packs.iter().map(Pack::occupancy).sum();
        assert_eq!(total_units, 9);
    }

    #[test]
    fn bank_conflicts_keep_rows_apart() {
        // Rows 0 and 8 share psum bank 0 (mod 8): they must not share a
        // pack even though capacity allows it.
        let e = entries(1);
        let rows: Vec<(u32, &[(u8, bool)])> = vec![(0, e.as_slice()), (8, e.as_slice())];
        let out = pack_rows(rows.into_iter(), &PackerConfig { windows: 1, ..Default::default() });
        assert_eq!(out.packs.len(), 2, "conflicting rows must split packs");
        for pack in &out.packs {
            let mut banks = std::collections::HashSet::new();
            for u in &pack.units {
                if let PackUnit::PartialSum { row } = u {
                    assert!(banks.insert(row % 8), "bank conflict inside a pack");
                }
            }
        }
    }

    #[test]
    fn multiple_windows_absorb_conflicts_without_flush() {
        // With ≥2 windows, the bank-conflicting row lands in window 1
        // instead of forcing a flush.
        let e = entries(1);
        let rows: Vec<(u32, &[(u8, bool)])> =
            vec![(0, e.as_slice()), (8, e.as_slice()), (1, e.as_slice())];
        let out = pack_rows(rows.clone().into_iter(), &PackerConfig::default());
        assert_eq!(out.forced_flushes, 0);
        let single =
            pack_rows(rows.into_iter(), &PackerConfig { windows: 1, ..Default::default() });
        assert!(single.forced_flushes > 0);
    }

    #[test]
    fn oversize_row_is_split_and_counted() {
        let e = entries(10); // 10 + 1 units > 8
        let rows = vec![(0u32, e.as_slice())];
        let out = pack_rows(rows.into_iter(), &PackerConfig::default());
        assert_eq!(out.oversize_rows, 1);
        let nonzeros: usize = out
            .packs
            .iter()
            .flat_map(|p| &p.units)
            .filter(|u| matches!(u, PackUnit::Nonzero { .. }))
            .count();
        assert_eq!(nonzeros, 10, "all corrections must survive splitting");
        // Two chunks => two partial-sum units to chain them.
        let psums: usize = out
            .packs
            .iter()
            .flat_map(|p| &p.units)
            .filter(|u| matches!(u, PackUnit::PartialSum { .. }))
            .count();
        assert_eq!(psums, 2);
    }

    #[test]
    fn occupancy_reflects_packing_quality() {
        let e = entries(7); // 7 + 1 = exactly one full pack
        let rows = vec![(0u32, e.as_slice())];
        let out = pack_rows(rows.into_iter(), &PackerConfig::default());
        assert!((out.mean_occupancy(8) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "pack_units must be at least 2")]
    fn one_unit_packs_are_rejected() {
        let e = entries(1);
        pack_rows(
            [(0u32, e.as_slice())].into_iter(),
            &PackerConfig { pack_units: 1, ..Default::default() },
        );
    }

    #[test]
    #[should_panic(expected = "windows must be at least 1")]
    fn zero_windows_are_rejected() {
        PackCounter::new(&PackerConfig { windows: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "psum_banks must be in 1..=64")]
    fn zero_psum_banks_are_rejected() {
        PackCounter::new(&PackerConfig { psum_banks: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "psum_banks must be in 1..=64")]
    fn psum_banks_beyond_the_mask_are_rejected() {
        pack_rows(std::iter::empty(), &PackerConfig { psum_banks: 65, ..Default::default() });
    }

    #[test]
    fn empty_stream_produces_no_packs() {
        let out = pack_rows(std::iter::empty(), &PackerConfig::default());
        assert!(out.packs.is_empty());
        assert_eq!(out.mean_occupancy(8), 0.0);
    }
}
