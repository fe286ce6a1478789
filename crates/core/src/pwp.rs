//! Pattern–Weight Products (PWPs) and the functional Phi GEMM.
//!
//! Offline, every pattern is multiplied with its partition's weight tile:
//! `PWP[part][p] = Σ_{j ∈ pattern p} W[part·k + j, :]` — an `N`-wide vector.
//! Online, an assigned tile contributes its PWP row with a single
//! accumulation; Level-2 corrections add or subtract individual weight rows.
//! [`phi_matmul`] is the bit-exact functional model the property tests pin
//! against the dense spike GEMM.

use crate::calibrate::LayerPatterns;
use crate::decompose::Decomposition;
use rayon::prelude::*;
use snn_core::{simd, Error, Matrix, Result};

/// Precomputed pattern–weight products for one layer.
#[derive(Debug, Clone)]
pub struct PwpTable {
    k: usize,
    n: usize,
    /// One `q_part × n` matrix per partition.
    tables: Vec<Matrix>,
}

impl PwpTable {
    /// Computes PWPs for `patterns` against `weights` (`K × N`).
    ///
    /// The final partition may extend past `K`; out-of-range pattern bits
    /// contribute nothing (the activation padding is zero there too).
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `weights.rows()` does not cover the
    /// partitions (`weights.rows() > partitions · k` or `≤ (partitions−1)·k`).
    pub fn new(patterns: &LayerPatterns, weights: &Matrix) -> Result<Self> {
        let k = patterns.k();
        let parts = patterns.num_partitions();
        let covered = weights.rows().div_ceil(k);
        if covered != parts {
            return Err(Error::DimensionMismatch {
                op: "pwp partitions",
                expected: parts,
                actual: covered,
            });
        }
        let n = weights.cols();
        let mut tables = Vec::with_capacity(parts);
        for part in 0..parts {
            let set = patterns.set(part);
            let mut table = Matrix::zeros(set.len(), n);
            for (pi, pattern) in set.patterns().iter().enumerate() {
                for bit in pattern.ones() {
                    let row = part * k + bit;
                    if row >= weights.rows() {
                        continue;
                    }
                    simd::add_assign(table.row_mut(pi), weights.row(row));
                }
            }
            tables.push(table);
        }
        Ok(PwpTable { k, n, tables })
    }

    /// Partition width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.tables.len()
    }

    /// The PWP row for pattern `idx` of partition `part`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, part: usize, idx: usize) -> &[f32] {
        self.tables[part].row(idx)
    }

    /// Total stored PWP entries (`Σ q_part × n`) — the memory-footprint
    /// number the prefetcher analysis (§4.4) is about.
    pub fn total_entries(&self) -> usize {
        self.tables.iter().map(|t| t.rows() * t.cols()).sum()
    }
}

/// Validates the `decomposition × weights` shapes shared by
/// [`phi_matmul`] and [`par_phi_matmul`].
fn validate_matmul(decomp: &Decomposition, pwp: &PwpTable, weights: &Matrix) -> Result<()> {
    if weights.rows() != decomp.cols() {
        return Err(Error::DimensionMismatch {
            op: "phi_matmul weights",
            expected: decomp.cols(),
            actual: weights.rows(),
        });
    }
    if pwp.n() != weights.cols() || pwp.num_partitions() != decomp.num_partitions() {
        return Err(Error::DimensionMismatch {
            op: "phi_matmul pwp",
            expected: decomp.num_partitions(),
            actual: pwp.num_partitions(),
        });
    }
    Ok(())
}

/// Accumulates one decomposition row into `out` (width `N`): Level-1 PWP
/// accumulations in partition order, then Level-2 signed weight-row
/// corrections in column order. Rows are independent, so any row
/// scheduling built on this kernel ([`phi_matmul`]'s sequential sweep,
/// [`par_phi_matmul`]'s rayon sweep) produces bit-identical outputs.
///
/// # Panics
///
/// Panics if `row` is out of bounds, `out.len()` differs from
/// `weights.cols()`, or the shapes would fail [`phi_matmul`]'s validation.
pub fn phi_matmul_row_into(
    decomp: &Decomposition,
    pwp: &PwpTable,
    weights: &Matrix,
    row: usize,
    out: &mut [f32],
) {
    let mut terms = Vec::new();
    phi_matmul_row_with(decomp, pwp, weights, row, out, &mut terms);
}

/// [`phi_matmul_row_into`] with a caller-owned scratch buffer for the
/// gathered terms, so row sweeps pay one allocation instead of one per
/// row. The buffer is cleared on entry; its capacity is reused.
fn phi_matmul_row_with<'a>(
    decomp: &Decomposition,
    pwp: &'a PwpTable,
    weights: &'a Matrix,
    row: usize,
    out: &mut [f32],
    terms: &mut Vec<(&'a [f32], bool)>,
) {
    assert_eq!(out.len(), weights.cols(), "output row width must match weights");
    // Gather the row's accumulation terms — Level-1 PWP rows in partition
    // order, then Level-2 signed weight rows in column order — and fuse
    // them into one SIMD pass. Per output element the additions still run
    // in exactly this term order, so the result is bit-identical to the
    // one-pass-per-term sweep at every dispatch level.
    terms.clear();
    for (part, &idx) in decomp.l1_row(row).iter().enumerate() {
        if idx != Decomposition::NO_PATTERN {
            terms.push((pwp.row(part, idx as usize), false));
        }
    }
    for e in decomp.l2_row(row) {
        terms.push((weights.row(e.col as usize), e.value != 1));
    }
    simd::accumulate_signed(out, terms);
}

/// Runs the per-row kernel over `rows ∈ [lo, hi)` into `block` (a
/// row-major `(hi − lo) × N` slice), sharing one terms scratch across the
/// whole sweep. This is the single sweep body behind [`phi_matmul`]'s
/// sequential pass and [`par_phi_matmul`]'s per-worker blocks — the
/// scratch handling lives here once.
fn sweep_rows(
    decomp: &Decomposition,
    pwp: &PwpTable,
    weights: &Matrix,
    lo: usize,
    hi: usize,
    block: &mut [f32],
) {
    let n = weights.cols();
    let mut terms = Vec::new();
    for r in lo..hi {
        let out = &mut block[(r - lo) * n..(r - lo + 1) * n];
        phi_matmul_row_with(decomp, pwp, weights, r, out, &mut terms);
    }
}

/// Computes the layer output from a Phi decomposition: Level-1 PWP
/// accumulations plus Level-2 signed weight-row accumulations.
///
/// Bit-exact against [`snn_core::SpikeMatrix::spike_matmul`] on the original
/// activation (both are pure `f32` additions applied in deterministic
/// order; see the property tests).
///
/// # Errors
///
/// Returns a dimension error if `weights` does not match the decomposition
/// (`weights.rows()` must cover the activation columns) or the PWP table
/// shape disagrees.
pub fn phi_matmul(decomp: &Decomposition, pwp: &PwpTable, weights: &Matrix) -> Result<Matrix> {
    validate_matmul(decomp, pwp, weights)?;
    let mut out = Matrix::zeros(decomp.rows(), weights.cols());
    sweep_rows(decomp, pwp, weights, 0, decomp.rows(), out.as_mut_slice());
    Ok(out)
}

/// [`phi_matmul`] with the row sweep fanned across rayon workers.
///
/// Rows accumulate independently through [`phi_matmul_row_into`], so the
/// result is bit-identical to the sequential sweep regardless of worker
/// count — this is the CPU execution backend's hot kernel.
///
/// # Errors
///
/// Same conditions as [`phi_matmul`].
pub fn par_phi_matmul(decomp: &Decomposition, pwp: &PwpTable, weights: &Matrix) -> Result<Matrix> {
    validate_matmul(decomp, pwp, weights)?;
    let n = weights.cols();
    let rows = decomp.rows();
    if rows == 0 {
        return Ok(Matrix::zeros(0, n));
    }
    // One contiguous row block per worker (not per row): the parallel map
    // costs `workers` allocations, and the in-order block concatenation is
    // the only copy.
    let workers = rayon::current_num_threads().min(rows);
    let chunk = rows.div_ceil(workers);
    let ranges: Vec<(usize, usize)> =
        (0..rows).step_by(chunk).map(|lo| (lo, (lo + chunk).min(rows))).collect();
    let blocks: Vec<Vec<f32>> = ranges
        .into_par_iter()
        .map(|(lo, hi)| {
            let mut block = vec![0.0f32; (hi - lo) * n];
            sweep_rows(decomp, pwp, weights, lo, hi, &mut block);
            block
        })
        .collect();
    concat_blocks(rows, n, blocks)
}

/// Concatenates per-worker row blocks into the output matrix, handing a
/// single worker's block over without a copy.
fn concat_blocks(rows: usize, n: usize, mut blocks: Vec<Vec<f32>>) -> Result<Matrix> {
    if blocks.len() == 1 {
        return Matrix::from_vec(rows, n, blocks.pop().expect("one block"));
    }
    let mut data = Vec::with_capacity(rows * n);
    for block in &blocks {
        data.extend_from_slice(block);
    }
    Matrix::from_vec(rows, n, data)
}

/// Term-row work counters for computed readouts, merged per executor
/// over every batch and layer. Every term reference is accumulated (no
/// cross-row sharing), so `term_rows_computed == term_rows_total` and
/// [`ReuseStats::reuse_rate`] reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    /// Rows whose readout was computed.
    pub rows: u64,
    /// Term-row accumulations the readouts needed (every row's Level-1
    /// terms plus Level-2 corrections).
    pub term_rows_total: u64,
    /// Term-row accumulations actually run.
    pub term_rows_computed: u64,
}

impl ReuseStats {
    /// The work of computing `decomp`'s readout through the per-row
    /// sweep: its rows, and one term row per assigned Level-1 tile and
    /// per Level-2 correction.
    pub fn of(decomp: &Decomposition) -> ReuseStats {
        // Every assigned tile is one term row, and every correction (a set
        // plane bit) is one more.
        let refs = decomp.assigned_tiles() + decomp.l2_nnz();
        ReuseStats { rows: decomp.rows() as u64, term_rows_total: refs, term_rows_computed: refs }
    }

    /// Fraction of term accumulations saved (`1 − computed / total`; 0
    /// when the readouts had no terms).
    pub fn reuse_rate(&self) -> f64 {
        if self.term_rows_total == 0 {
            0.0
        } else {
            1.0 - self.term_rows_computed as f64 / self.term_rows_total as f64
        }
    }

    /// Accumulates another batch's counters.
    pub fn merge(&mut self, other: &ReuseStats) {
        self.rows += other.rows;
        self.term_rows_total += other.term_rows_total;
        self.term_rows_computed += other.term_rows_computed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{CalibrationConfig, Calibrator};
    use crate::decompose::decompose;
    use crate::pattern::{Pattern, PatternSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_core::SpikeMatrix;

    #[test]
    fn pwp_row_is_sum_of_weight_rows() {
        let patterns =
            LayerPatterns::new(4, vec![PatternSet::new(4, vec![Pattern::new(0b0101, 4)])]);
        let weights = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let pwp = PwpTable::new(&patterns, &weights).unwrap();
        // Pattern 0101 selects weight rows 0 and 2.
        let expected: Vec<f32> = (0..3).map(|c| weights[(0, c)] + weights[(2, c)]).collect();
        assert_eq!(pwp.row(0, 0), expected.as_slice());
    }

    #[test]
    fn pwp_handles_padded_last_partition() {
        // K = 6 with k = 4: partition 1 covers rows 4..6 plus 2 padding rows.
        let patterns = LayerPatterns::new(
            4,
            vec![
                PatternSet::new(4, vec![Pattern::new(0b1111, 4)]),
                PatternSet::new(4, vec![Pattern::new(0b1111, 4)]),
            ],
        );
        let weights = Matrix::from_fn(6, 2, |r, _| r as f32);
        let pwp = PwpTable::new(&patterns, &weights).unwrap();
        // Partition 1's all-ones pattern only sums rows 4 and 5.
        assert_eq!(pwp.row(1, 0), &[9.0, 9.0]);
    }

    #[test]
    fn pwp_rejects_wrong_weight_height() {
        let patterns = LayerPatterns::new(4, vec![PatternSet::new(4, vec![Pattern::new(0b1, 4)])]);
        let weights = Matrix::zeros(9, 2); // needs 3 partitions, patterns have 1
        assert!(PwpTable::new(&patterns, &weights).is_err());
    }

    #[test]
    fn phi_matmul_matches_dense_spike_gemm() {
        let mut rng = StdRng::seed_from_u64(21);
        for density in [0.05, 0.2, 0.5] {
            let acts = SpikeMatrix::random(40, 50, density, &mut rng);
            let weights = Matrix::random(50, 12, &mut rng);
            let cal = Calibrator::new(CalibrationConfig { q: 16, ..Default::default() });
            let patterns = cal.calibrate(&acts, &mut rng);
            let d = decompose(&acts, &patterns);
            let pwp = PwpTable::new(&patterns, &weights).unwrap();
            let phi = phi_matmul(&d, &pwp, &weights).unwrap();
            let dense = acts.spike_matmul(&weights).unwrap();
            let diff = phi.max_abs_diff(&dense).unwrap();
            assert!(diff < 1e-4, "density {density}: diff {diff}");
        }
    }

    #[test]
    fn par_phi_matmul_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(33);
        for density in [0.05, 0.2, 0.5] {
            let acts = SpikeMatrix::random(70, 37, density, &mut rng);
            let weights = Matrix::random(37, 9, &mut rng);
            let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
            let patterns = cal.calibrate(&acts, &mut rng);
            let d = decompose(&acts, &patterns);
            let pwp = PwpTable::new(&patterns, &weights).unwrap();
            let seq = phi_matmul(&d, &pwp, &weights).unwrap();
            let par = par_phi_matmul(&d, &pwp, &weights).unwrap();
            // Bit-exact, not approximate: rows accumulate independently.
            assert_eq!(seq, par, "density {density}");
        }
    }

    #[test]
    fn par_phi_matmul_validates_dimensions() {
        let mut rng = StdRng::seed_from_u64(34);
        let acts = SpikeMatrix::random(4, 16, 0.2, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 4, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let d = decompose(&acts, &patterns);
        let weights = Matrix::zeros(16, 4);
        let pwp = PwpTable::new(&patterns, &weights).unwrap();
        assert!(par_phi_matmul(&d, &pwp, &Matrix::zeros(20, 4)).is_err());
    }

    #[test]
    fn phi_matmul_validates_dimensions() {
        let mut rng = StdRng::seed_from_u64(22);
        let acts = SpikeMatrix::random(4, 16, 0.2, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 4, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let d = decompose(&acts, &patterns);
        let weights = Matrix::zeros(16, 4);
        let pwp = PwpTable::new(&patterns, &weights).unwrap();
        let wrong = Matrix::zeros(20, 4);
        assert!(phi_matmul(&d, &pwp, &wrong).is_err());
    }

    #[test]
    fn reuse_stats_count_every_term_row() {
        let mut rng = StdRng::seed_from_u64(56);
        let acts = SpikeMatrix::random(24, 48, 0.3, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let d = decompose(&acts, &patterns);
        let stats = ReuseStats::of(&d);
        let refs: usize = (0..d.rows())
            .map(|r| {
                d.l2_row(r).len()
                    + (0..d.num_partitions()).filter(|&p| d.l1_index(r, p).is_some()).count()
            })
            .sum();
        assert_eq!(stats.rows, 24);
        assert_eq!(stats.term_rows_total, refs as u64);
        assert_eq!(stats.term_rows_computed, stats.term_rows_total);
        assert_eq!(stats.reuse_rate(), 0.0);
    }

    #[test]
    fn reuse_stats_merge_accumulates() {
        let a = ReuseStats { rows: 4, term_rows_total: 40, term_rows_computed: 10 };
        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged, ReuseStats { rows: 8, term_rows_total: 80, term_rows_computed: 20 });
        assert!((merged.reuse_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ReuseStats::default().reuse_rate(), 0.0);
    }

    #[test]
    fn total_entries_counts_all_partitions() {
        let patterns = LayerPatterns::new(
            4,
            vec![
                PatternSet::new(4, vec![Pattern::new(0b1, 4), Pattern::new(0b11, 4)]),
                PatternSet::new(4, vec![Pattern::new(0b111, 4)]),
            ],
        );
        let weights = Matrix::zeros(8, 5);
        let pwp = PwpTable::new(&patterns, &weights).unwrap();
        assert_eq!(pwp.total_entries(), (2 + 1) * 5);
    }
}
