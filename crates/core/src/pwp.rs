//! Pattern–Weight Products (PWPs) and the functional Phi GEMM.
//!
//! Offline, every pattern is multiplied with its partition's weight tile:
//! `PWP[part][p] = Σ_{j ∈ pattern p} W[part·k + j, :]` — an `N`-wide vector.
//! Online, an assigned tile contributes its PWP row with a single
//! accumulation; Level-2 corrections add or subtract individual weight rows.
//! [`phi_matmul`] is the bit-exact functional model the property tests pin
//! against the dense spike GEMM.
//!
//! # Product sparsity and the accumulation-order rule
//!
//! Spiking rows fused into one batch repeat heavily — whole Level-1
//! signatures, and often entire rows, recur — so [`ReusePlan`] /
//! [`phi_matmul_batch_reuse`] factor shared partial sums out and compute
//! each distinct pattern–weight product once per batch (Prosperity's
//! product-sparsity insight, reproduced on the CPU path).
//!
//! Every `f32` output element is defined as the sum of its row's terms —
//! Level-1 PWP rows in ascending partition order, then Level-2 signed
//! weight rows in stored (column-ascending) order — added **in exactly
//! that sequence**, with no reassociation. The reuse planner therefore
//! only ever shares *prefixes* of that sequence: a shared partial sum is
//! the bit-exact sum of the first `p` terms, a consumer copies it and
//! continues the chain from term `p + 1`. Because floating-point addition
//! is not associative, any non-prefix factoring (subtracting a term,
//! reordering a subset) would change low bits; the prefix rule is what
//! keeps [`phi_matmul_batch_reuse`] bit-identical to [`phi_matmul`] /
//! [`par_phi_matmul`] on every input, which the `reuse_equivalence`
//! property suite pins.

use crate::calibrate::LayerPatterns;
use crate::decompose::{Decomposition, L2Entry};
use rayon::prelude::*;
use snn_core::{simd, Error, Matrix, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};

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
/// corrections in stored order. Rows are independent, so any row
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
    // order, then Level-2 signed weight rows in stored order — and fuse
    // them into one SIMD pass. Per output element the additions still run
    // in exactly this term order, so the result is bit-identical to the
    // one-pass-per-term sweep at every dispatch level.
    terms.clear();
    let l2 = decomp.l2_row(row);
    terms.reserve(decomp.num_partitions() + l2.len());
    for part in 0..decomp.num_partitions() {
        if let Some(idx) = decomp.l1_index(row, part) {
            terms.push((pwp.row(part, idx as usize), false));
        }
    }
    for e in l2 {
        terms.push((weights.row(e.col as usize), e.value != 1));
    }
    simd::accumulate_signed(out, terms);
}

/// Runs the per-row kernel over `rows ∈ [lo, hi)` into `block` (a
/// row-major `(hi − lo) × N` slice), sharing one terms scratch across the
/// whole sweep. This is the single sweep body behind [`phi_matmul`]'s
/// sequential pass, [`par_phi_matmul`]'s per-worker blocks, and the reuse
/// path's unshared-row fallback — the scratch handling lives here once.
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

// ---------------------------------------------------------------------------
// Product sparsity: cross-row computation reuse (Prosperity, reproduced).
// ---------------------------------------------------------------------------

/// Whether the CPU execution path may factor shared partial sums out of a
/// fused batch ([`phi_matmul_batch_reuse`]) or must run every row through
/// the per-row sweep ([`par_phi_matmul`]).
///
/// The ambient mode comes from the `PHI_REUSE` environment variable
/// (`off`/`0` forces [`ReuseMode::Off`]; `auto`, unset, or anything else
/// is [`ReuseMode::Auto`]), cached on first read; [`force_reuse`]
/// overrides it in-process. Outputs are bit-identical either way — the
/// knob exists for A/B measurement and as an operational escape hatch,
/// exactly like `PHI_SIMD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReuseMode {
    /// Per-row execution only: every row re-accumulates all its terms.
    Off,
    /// Build a [`ReusePlan`] per fused batch and execute through it,
    /// falling back to the per-row sweep when the batch shares nothing.
    /// The default.
    #[default]
    Auto,
}

impl std::fmt::Display for ReuseMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReuseMode::Off => "off",
            ReuseMode::Auto => "auto",
        })
    }
}

/// Sentinel for "not yet initialized" in the cached reuse mode.
const REUSE_UNINIT: u8 = u8::MAX;

/// The cached reuse mode; initialized on first use from `PHI_REUSE`,
/// overridable via [`force_reuse`].
static REUSE: AtomicU8 = AtomicU8::new(REUSE_UNINIT);

/// The mode `PHI_REUSE` requests.
fn env_reuse() -> ReuseMode {
    match std::env::var("PHI_REUSE").ok().as_deref() {
        Some("off") | Some("0") => ReuseMode::Off,
        // `auto`, unset, empty, or unrecognized: reuse on.
        _ => ReuseMode::Auto,
    }
}

/// The active reuse mode (cached after the first call).
#[inline]
pub fn reuse_mode() -> ReuseMode {
    match REUSE.load(Ordering::Relaxed) {
        0 => ReuseMode::Off,
        1 => ReuseMode::Auto,
        _ => {
            let m = env_reuse();
            REUSE.store(m as u8, Ordering::Relaxed);
            m
        }
    }
}

/// Overrides the reuse mode in-process and returns the previously active
/// mode, mirroring [`simd::force`] — benchmarks A/B the planned and
/// per-row paths with it, and tests pin the `PHI_REUSE=off` round-trip.
pub fn force_reuse(mode: ReuseMode) -> ReuseMode {
    let prev = reuse_mode();
    REUSE.store(mode as u8, Ordering::Relaxed);
    prev
}

/// Counters describing how much work a [`ReusePlan`] factored out of a
/// fused batch. Counters are cumulative when merged across batches
/// (serving executors aggregate them per model), so `l1_classes` /
/// `products` count plan-build outcomes over time, not a live gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    /// Rows the planned batches carried.
    pub rows: u64,
    /// Term-row accumulations the per-row sweep would have run (every
    /// row's Level-1 terms plus Level-2 corrections).
    pub term_rows_total: u64,
    /// Term-row accumulations the planned execution actually ran (shared
    /// partials counted once; copies are not accumulations and are
    /// tracked in `partial_copies`).
    pub term_rows_computed: u64,
    /// `N`-wide partial-sum copies the planned execution performed in
    /// place of re-accumulation (arena-to-arena and arena-to-output).
    pub partial_copies: u64,
    /// Distinct Level-1 signatures (term multisets) across the batches.
    pub l1_classes: u64,
    /// Distinct full `(Level-1, Level-2)` products materialized once and
    /// copied to ≥ 2 identical rows.
    pub products: u64,
    /// Rows assembled from a shared partial sum (a materialized class
    /// partial, a prefix-chained base, or a whole shared product) rather
    /// than accumulated from scratch.
    pub shared_partial_hits: u64,
    /// Prefix links wired between Level-1 classes (Prosperity's subset
    /// trick under the prefix ordering rule): class B's term sequence
    /// extends class A's, so B starts from A's partial sum.
    pub prefix_links: u64,
    /// Distinct term-row loads the term-stationary sweep schedule issues
    /// (each run of consumers sharing a pattern row or weight row loads
    /// it once). This is the plan's memory traffic; compare against
    /// `term_rows_total`, the per-row sweep's traffic.
    pub term_loads: u64,
}

impl ReuseStats {
    /// Fraction of per-row term accumulations the plan eliminated
    /// (`1 − computed / total`; 0 when the batch had no terms).
    pub fn reuse_rate(&self) -> f64 {
        if self.term_rows_total == 0 {
            0.0
        } else {
            1.0 - self.term_rows_computed as f64 / self.term_rows_total as f64
        }
    }

    /// Accumulates another plan's counters (the per-model aggregation
    /// over batches and layers).
    pub fn merge(&mut self, other: &ReuseStats) {
        self.rows += other.rows;
        self.term_rows_total += other.term_rows_total;
        self.term_rows_computed += other.term_rows_computed;
        self.partial_copies += other.partial_copies;
        self.l1_classes += other.l1_classes;
        self.products += other.products;
        self.shared_partial_hits += other.shared_partial_hits;
        self.prefix_links += other.prefix_links;
        self.term_loads += other.term_loads;
    }

    /// Sums a set of counters into one aggregate (executor shards,
    /// server workers).
    pub fn merged<I: IntoIterator<Item = ReuseStats>>(stats: I) -> ReuseStats {
        let mut total = ReuseStats::default();
        for s in stats {
            total.merge(&s);
        }
        total
    }
}

/// One materialized Level-1 class partial: copy the base class's partial
/// (when prefix-chained), then accumulate the delta terms.
#[derive(Debug, Clone, Copy)]
struct ClassJob {
    /// Destination slot in the class arena.
    slot: u32,
    /// Source slot holding the longest-proper-prefix base partial.
    base: Option<u32>,
    /// Delta terms in `ReusePlan::deltas` (`[lo, hi)`): the class's term
    /// sequence past the base prefix.
    delta_lo: u32,
    delta_hi: u32,
}

/// One materialized shared product: a class partial plus one row's
/// Level-2 corrections, copied verbatim to every identical row.
#[derive(Debug, Clone, Copy)]
struct ProductJob {
    /// Destination slot in the product arena.
    slot: u32,
    /// The class partial the product starts from.
    class_slot: u32,
    /// Representative row whose Level-2 corrections finish the product
    /// (all member rows carry identical corrections).
    row: u32,
}

/// How one output row is assembled.
#[derive(Debug, Clone, Copy)]
enum RowPlan {
    /// The row equals a shared product bit-for-bit: one copy.
    Product { slot: u32 },
    /// Copy the row's class partial, then accumulate its own Level-2
    /// corrections.
    Class { slot: u32 },
    /// Copy a prefix-chained base partial, then accumulate the delta
    /// Level-1 terms (`ReusePlan::deltas[lo..hi]`) and the row's Level-2
    /// corrections — the singleton-class variant of prefix chaining.
    Prefix { base: u32, delta_lo: u32, delta_hi: u32 },
    /// No sharing opportunity: the plain per-row kernel.
    Full,
}

/// FxHash-style multiply-rotate hasher for the plan builder's grouping
/// maps. Not DoS-resistant — irrelevant here, the keys are the batch's
/// own decomposition rows — and an order of magnitude cheaper than the
/// default SipHash, which otherwise dominates plan-build time (slice
/// keys hash as one contiguous byte blob via `Hash::hash_slice`).
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
        }
        let mut rest = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            rest |= u64::from(b) << (8 * i);
        }
        self.0 = (self.0.rotate_left(5) ^ rest).wrapping_mul(K);
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Level-2 grouping key that hashes only the length and the first few
/// entries of a correction list. The lists run to hundreds of entries of
/// i.i.d. residual noise, so a short prefix already separates them and
/// hashing the tail is wasted work; equality still compares the full
/// slice, so a rare prefix collision costs one extra probe, never a
/// wrong group.
#[derive(PartialEq, Eq)]
struct L2Key<'a>(&'a [L2Entry]);

impl std::hash::Hash for L2Key<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        std::hash::Hash::hash_slice(&self.0[..self.0.len().min(8)], state);
    }
}

/// Destination-buffer tag of a packed sweep target (bits 31–30):
/// an output row, a class-partial slot, or a product slot.
const TARGET_ROW: u32 = 0;
const TARGET_CLASS: u32 = 1;
const TARGET_PRODUCT: u32 = 2;
/// Bit 29 of a packed Level-2 sweep target: subtract instead of add.
const TARGET_SUB: u32 = 1 << 29;
/// Low 29 bits of a packed target: the row or slot index.
const TARGET_IDX: u32 = TARGET_SUB - 1;

/// Packs a sweep destination into one word: buffer tag in bits 31–30,
/// index below (bit 29 is reserved for the Level-2 sign).
fn pack_target(kind: u32, index: u32) -> u32 {
    debug_assert!(index < TARGET_SUB, "sweep target index overflows the packing");
    (kind << 30) | index
}

/// A cross-row reuse plan for one fused batch: which Level-1 partial sums
/// and whole pattern-weight products to materialize once, and how each
/// row assembles from them. Built against one [`Decomposition`] and only
/// valid for it.
///
/// Execution is *term-stationary*: a Level-1 sweep walks partitions in
/// ascending order and, inside each partition, its referenced patterns in
/// ascending order, so every distinct pattern-weight product is loaded
/// from memory once per batch and accumulated into all of its consumers
/// (class partials, prefix-chained rows, unshared rows) while it is
/// cache-hot; a Level-2 sweep does the same over ascending weight-row
/// columns. Partial copies are scheduled at fixed partition boundaries in
/// between. Per output element the additions still land in exactly the
/// per-row order — Level-1 partitions ascending, then Level-2 corrections
/// in stored (column-ascending) order — which is what makes the result
/// bit-identical to the per-row sweep (see the module doc).
#[derive(Debug, Clone)]
pub struct ReusePlan {
    rows: usize,
    num_partitions: usize,
    class_slots: u32,
    product_slots: u32,
    /// Materialized class partials (the sweeps only consult `slot` and
    /// `base` — the delta terms are baked into `l1_entries`/`bcopies`).
    class_jobs: Vec<ClassJob>,
    /// Level-1 sweep: `(pattern, target)` adds bucketed by partition
    /// (`l1_off`) and pattern-ascending within each bucket, so equal
    /// patterns sit in one run and their PWP row is loaded once.
    l1_entries: Vec<(u16, u32)>,
    /// `l1_entries` bucket bounds, one per partition (+1 end).
    l1_off: Vec<u32>,
    /// Base-partial copies `(dst target, src class slot)` executed at the
    /// partition boundary of the destination's first delta term, bucketed
    /// by that boundary (`bcopy_off`) — late enough that the source
    /// partial is finished, early enough to precede every add into the
    /// destination.
    bcopies: Vec<(u32, u32)>,
    bcopy_off: Vec<u32>,
    /// Copies after the Level-1 sweep, before the Level-2 sweep: finished
    /// class partials into product slots and class-plan rows.
    mid_copies: Vec<(u32, u32)>,
    /// Level-2 sweep: `(column, signed target)` adds, column-ascending,
    /// so each weight row is loaded once per batch.
    l2_entries: Vec<(u32, u32)>,
    /// Copies after the Level-2 sweep: finished products into their
    /// member rows.
    tail_copies: Vec<(u32, u32)>,
    stats: ReuseStats,
}

impl ReusePlan {
    /// Scans the fused batch's per-row term lists and builds the reuse
    /// plan: rows grouped by identical Level-1 signature, identical
    /// `(Level-1, Level-2)` rows collapsed into shared products, and
    /// Level-1 classes prefix-chained to their longest proper prefix.
    pub fn build(decomp: &Decomposition) -> ReusePlan {
        let rows = decomp.rows();
        let parts = decomp.num_partitions();

        // 1. Group rows by identical raw Level-1 signature. Class ids are
        //    assigned in first-seen row order, so the plan is
        //    deterministic (no hash-map iteration anywhere below). All
        //    per-class storage is flat — the builder runs on every fused
        //    batch, so per-class allocations would dominate it.
        let mut class_ids: HashMap<&[u16], u32, FxBuild> =
            HashMap::with_capacity_and_hasher(rows, FxBuild::default());
        let mut class_rep: Vec<u32> = Vec::new();
        let mut class_of_row: Vec<u32> = Vec::with_capacity(rows);
        for r in 0..rows {
            let id = *class_ids.entry(decomp.l1_row(r)).or_insert_with(|| {
                class_rep.push(r as u32);
                (class_rep.len() - 1) as u32
            });
            class_of_row.push(id);
        }
        let classes = class_rep.len();
        // Members bucketed per class by counting sort (row order within a
        // class — the first-seen order — is preserved).
        let mut member_off = vec![0u32; classes + 1];
        for &c in &class_of_row {
            member_off[c as usize + 1] += 1;
        }
        for c in 0..classes {
            member_off[c + 1] += member_off[c];
        }
        let mut members = vec![0u32; rows];
        let mut cursor: Vec<u32> = member_off[..classes].to_vec();
        for (r, &c) in class_of_row.iter().enumerate() {
            members[cursor[c as usize] as usize] = r as u32;
            cursor[c as usize] += 1;
        }
        let members_of = |c: usize| &members[member_off[c] as usize..member_off[c + 1] as usize];
        // Classes are compared directly on their raw Level-1 rows, in
        // *term order*: mapping the NO_PATTERN sentinel to 0 with a
        // wrapping add makes a patternless partition sort before any
        // pattern index, so a class whose term sequence is a proper
        // prefix of another's always sorts first — the property the trie
        // walk below depends on. Equality is unaffected by the mapping,
        // so common prefixes are plain positional matches, and no
        // per-class term arena is materialized at all.
        let l1_of = |c: usize| decomp.l1_row(class_rep[c] as usize);
        // cum[c·(parts+1) + p] = terms in positions [0, p) of class c;
        // tlen[c] = last term position + 1 — the positional depth the
        // class's full partial lives at (0 for an all-sentinel row).
        let mut cum: Vec<u16> = vec![0; classes * (parts + 1)];
        let mut tlen: Vec<u16> = vec![0; classes];
        // Patterns-per-partition bound for the Level-1 counting sort in
        // step 6; class reps cover every (partition, pattern) pair in the
        // batch, so this scan sees the true maximum.
        let mut q_max = 1usize;
        for (c, len) in tlen.iter_mut().enumerate() {
            let base = c * (parts + 1);
            let mut count = 0u16;
            for (p, &idx) in l1_of(c).iter().enumerate() {
                if idx != Decomposition::NO_PATTERN {
                    count += 1;
                    *len = p as u16 + 1;
                    q_max = q_max.max(idx as usize + 1);
                }
                cum[base + p + 1] = count;
            }
        }
        let nterms = |c: usize, p: usize| cum[c * (parts + 1) + p] as usize;
        // Appends class `c`'s terms from positions [lo, hi) to `deltas`.
        let push_delta = |deltas: &mut Vec<(u32, u16)>, c: usize, lo: usize, hi: usize| {
            for (p, &idx) in l1_of(c).iter().enumerate().take(hi).skip(lo) {
                if idx != Decomposition::NO_PATTERN {
                    deltas.push((p as u32, idx));
                }
            }
        };

        // 2. Prefix trie over the term sequences, in lexicographic
        //    order: every longest-common-prefix between sort-neighbours
        //    becomes a node — *synthetic* when the prefix is not itself
        //    a class signature — so a shared partial is materialized for
        //    any common Level-1 prefix, not only when one class's
        //    signature happens to be a whole prefix of another's. A
        //    synthetic node is only opened when the next neighbour
        //    shares a strictly deeper prefix than the previous one did,
        //    which guarantees it at least two consumers; otherwise the
        //    class chains off whatever shallower node is already open —
        //    the same arithmetic with one copy fewer. Depth-0 prefixes
        //    are never nodes (copying an all-zero partial saves
        //    nothing).
        let mut order: Vec<u32> = (0..classes as u32).collect();
        // Unstable is fine: distinct classes have distinct signatures —
        // there are no ties to reorder.
        order.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (l1_of(a as usize), l1_of(b as usize));
            for (&x, &y) in ra.iter().zip(rb) {
                let ord = x.wrapping_add(1).cmp(&y.wrapping_add(1));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // lcps[j] = longest common positional prefix of order[j-1] and
        // order[j]'s Level-1 rows.
        let mut lcps: Vec<u16> = vec![0; classes + 1];
        for j in 1..classes {
            let a = l1_of(order[j - 1] as usize);
            let b = l1_of(order[j] as usize);
            lcps[j] = a.iter().zip(b).take_while(|&(x, y)| x == y).count() as u16;
        }
        struct Node {
            /// Positional prefix length this node's partial covers (a
            /// class node lives at its `tlen`, past its last term —
            /// trailing patternless partitions add nothing).
            depth: u16,
            /// A class whose term sequence spells out the prefix.
            rep: u32,
            /// Nearest open proper-prefix node at creation time.
            base: Option<u32>,
            /// Some other node or a singleton-class row chains off this
            /// node, so it must be materialized even as a singleton.
            used: bool,
            /// The class whose whole signature this node is (`None` for
            /// synthetic LCP prefixes).
            class: Option<u32>,
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(classes);
        let mut node_of_class: Vec<u32> = vec![0; classes];
        let mut stack: Vec<u32> = Vec::new();
        for (j, &ci) in order.iter().enumerate() {
            let c = ci as usize;
            let (l_prev, l_next) = (lcps[j], lcps[j + 1]);
            while let Some(&top) = stack.last() {
                if nodes[top as usize].depth <= l_prev {
                    break;
                }
                stack.pop();
            }
            // A base must hold at least one term — an all-sentinel
            // prefix is an all-zero partial, and copying it saves
            // nothing.
            let mut base = stack
                .last()
                .copied()
                .filter(|&id| nterms(c, nodes[id as usize].depth as usize) > 0);
            // Positions the open stack top already covers: a deeper node
            // only pays if the wider prefix holds strictly more terms.
            let covered = match stack.last() {
                Some(&id) => nterms(c, nodes[id as usize].depth as usize),
                None => 0,
            };
            if l_next > l_prev && l_next < tlen[c] && nterms(c, l_next as usize) > covered {
                // The next class shares a strictly deeper prefix (with
                // strictly more terms) than anything open, and the
                // prefix is not this whole class: open its node now so
                // both chain off it.
                let id = nodes.len() as u32;
                nodes.push(Node { depth: l_next, rep: ci, base, used: true, class: None });
                if let Some(b) = base {
                    nodes[b as usize].used = true;
                }
                stack.push(id);
                base = Some(id);
            }
            if let Some(b) = base {
                nodes[b as usize].used = true;
            }
            let id = nodes.len() as u32;
            nodes.push(Node { depth: tlen[c], rep: ci, base, used: false, class: Some(ci) });
            node_of_class[c] = id;
            stack.push(id);
        }

        // 3. Materialize partials: synthetic nodes always (they have two
        //    consumers by construction); a class node when at least two
        //    rows share it or something chains off it. Nodes were
        //    created in stack-walk order, which is topological, so a
        //    job's base slot always precedes it in the arena.
        let mut slot_of_node: Vec<Option<u32>> = vec![None; nodes.len()];
        let mut class_jobs = Vec::new();
        let mut deltas: Vec<(u32, u16)> = Vec::new();
        let mut class_slots = 0u32;
        for id in 0..nodes.len() {
            let node = &nodes[id];
            let materialize = match node.class {
                Some(ci) => members_of(ci as usize).len() >= 2 || node.used,
                None => true,
            };
            if !materialize {
                continue;
            }
            let slot = class_slots;
            class_slots += 1;
            slot_of_node[id] = Some(slot);
            let (base, prefix_len) = match node.base {
                Some(b) => (
                    Some(slot_of_node[b as usize].expect("base is materialized before dependents")),
                    nodes[b as usize].depth as usize,
                ),
                None => (None, 0),
            };
            let delta_lo = deltas.len() as u32;
            push_delta(&mut deltas, node.rep as usize, prefix_len, node.depth as usize);
            class_jobs.push(ClassJob { slot, base, delta_lo, delta_hi: deltas.len() as u32 });
        }

        // 4. Shared products (identical Level-2 on top of an identical
        //    Level-1 signature ⇒ bit-identical rows) and per-row plans.
        let mut product_jobs: Vec<ProductJob> = Vec::new();
        let mut row_plans: Vec<RowPlan> = vec![RowPlan::Full; rows];
        let mut product_slots = 0u32;
        let mut prefix_links = class_jobs.iter().filter(|j| j.base.is_some()).count() as u64;
        // The grouping map and per-group scratch are reused across
        // classes (cleared, capacity kept) — singleton classes skip them
        // entirely.
        let mut group_ids: HashMap<L2Key, u32, FxBuild> = HashMap::with_hasher(FxBuild::default());
        let mut group_rep: Vec<u32> = Vec::new();
        let mut group_size: Vec<u32> = Vec::new();
        let mut group_slot: Vec<u32> = Vec::new();
        let mut row_gid: Vec<u32> = Vec::new();
        for ci in 0..classes {
            // The fallback plan for rows of this class that do not ride a
            // shared product.
            let node_id = node_of_class[ci] as usize;
            let fallback = match slot_of_node[node_id] {
                Some(slot) => RowPlan::Class { slot },
                None => match nodes[node_id].base {
                    Some(b) => {
                        let prefix_len = nodes[b as usize].depth as usize;
                        let delta_lo = deltas.len() as u32;
                        push_delta(&mut deltas, ci, prefix_len, parts);
                        prefix_links += 1;
                        RowPlan::Prefix {
                            base: slot_of_node[b as usize].expect("base is materialized"),
                            delta_lo,
                            delta_hi: deltas.len() as u32,
                        }
                    }
                    None => RowPlan::Full,
                },
            };
            let rows_of_class = members_of(ci);
            if rows_of_class.len() == 1 {
                row_plans[rows_of_class[0] as usize] = fallback;
                continue;
            }
            // Group the class's rows by identical Level-2 signature, in
            // first-seen order.
            group_ids.clear();
            group_rep.clear();
            group_size.clear();
            row_gid.clear();
            for &r in rows_of_class {
                let next = group_rep.len() as u32;
                let gid = *group_ids.entry(L2Key(decomp.l2_row(r as usize))).or_insert(next);
                if gid == next {
                    group_rep.push(r);
                    group_size.push(0);
                }
                group_size[gid as usize] += 1;
                row_gid.push(gid);
            }
            group_slot.clear();
            for (g, &size) in group_size.iter().enumerate() {
                group_slot.push(product_slots);
                if size >= 2 {
                    // ≥ 2 members implies the class is materialized.
                    let class_slot = slot_of_node[node_of_class[ci] as usize]
                        .expect("shared product implies a class slot");
                    let slot = product_slots;
                    product_slots += 1;
                    product_jobs.push(ProductJob { slot, class_slot, row: group_rep[g] });
                }
            }
            for (&r, &gid) in rows_of_class.iter().zip(&row_gid) {
                row_plans[r as usize] = if group_size[gid as usize] >= 2 {
                    RowPlan::Product { slot: group_slot[gid as usize] }
                } else {
                    fallback
                };
            }
        }

        // 5. Deterministic work accounting, entirely from the plan.
        let mut stats = ReuseStats {
            rows: rows as u64,
            l1_classes: classes as u64,
            products: product_jobs.len() as u64,
            prefix_links,
            ..ReuseStats::default()
        };
        for job in &class_jobs {
            stats.term_rows_computed += (job.delta_hi - job.delta_lo) as u64;
            if job.base.is_some() {
                stats.partial_copies += 1;
            }
        }
        for job in &product_jobs {
            stats.term_rows_computed += decomp.l2_row(job.row as usize).len() as u64;
            stats.partial_copies += 1;
        }
        for r in 0..rows {
            let l1_terms = nterms(class_of_row[r] as usize, parts) as u64;
            let l2_terms = decomp.l2_row(r).len() as u64;
            stats.term_rows_total += l1_terms + l2_terms;
            match row_plans[r] {
                RowPlan::Product { .. } => {
                    stats.shared_partial_hits += 1;
                    stats.partial_copies += 1;
                }
                RowPlan::Class { .. } => {
                    stats.shared_partial_hits += 1;
                    stats.partial_copies += 1;
                    stats.term_rows_computed += l2_terms;
                }
                RowPlan::Prefix { delta_lo, delta_hi, .. } => {
                    stats.shared_partial_hits += 1;
                    stats.partial_copies += 1;
                    stats.term_rows_computed += (delta_hi - delta_lo) as u64 + l2_terms;
                }
                RowPlan::Full => stats.term_rows_computed += l1_terms + l2_terms,
            }
        }

        // 6. Term-stationary sweep schedules. Collect every Level-1 add
        //    as `(partition, pattern, target)` and every Level-2 add as
        //    `(column, signed target)`, then counting-sort them so equal
        //    term rows sit in consecutive runs — the executor loads each
        //    distinct row once per batch. Counting sorts are stable, so
        //    the order within a run (irrelevant for bit-identity — a
        //    target receives at most one add per partition or column,
        //    and distinct targets are independent) stays deterministic.
        let refs = stats.term_rows_total as usize;
        let mut l1_raw: Vec<(u32, u16, u32)> = Vec::with_capacity(deltas.len() + refs);
        let mut l2_raw: Vec<(u32, u32)> = Vec::with_capacity(refs);
        let mut bcopies_raw: Vec<(u32, u32, u32)> = Vec::with_capacity(class_jobs.len() + rows);
        let mut mid_copies: Vec<(u32, u32)> = Vec::with_capacity(rows);
        let mut tail_copies: Vec<(u32, u32)> = Vec::with_capacity(rows);
        // Bucket occupancy is counted inline as the raws are collected
        // (`q_max` came from the step-1 scan), so each raw list is walked
        // once to count and once to scatter, not three times.
        let mut counts = vec![0u32; parts * q_max];
        let mut col_counts = vec![0u32; decomp.cols() + 1];
        for job in &class_jobs {
            let dst = pack_target(TARGET_CLASS, job.slot);
            for &(p, idx) in &deltas[job.delta_lo as usize..job.delta_hi as usize] {
                counts[p as usize * q_max + idx as usize] += 1;
                l1_raw.push((p, idx, dst));
            }
            if let Some(base) = job.base {
                // Non-empty deltas are guaranteed: an empty delta would
                // make the node bit-equal to its base, and the trie never
                // materializes such a node.
                bcopies_raw.push((deltas[job.delta_lo as usize].0, dst, base));
            }
        }
        for job in &product_jobs {
            let dst = pack_target(TARGET_PRODUCT, job.slot);
            mid_copies.push((dst, job.class_slot));
            for e in decomp.l2_row(job.row as usize) {
                col_counts[e.col as usize] += 1;
                l2_raw.push((e.col, dst | if e.value != 1 { TARGET_SUB } else { 0 }));
            }
        }
        for (r, plan) in row_plans.iter().enumerate() {
            let dst = pack_target(TARGET_ROW, r as u32);
            let mut own_l2 = true;
            match *plan {
                RowPlan::Product { slot } => {
                    tail_copies.push((r as u32, slot));
                    own_l2 = false;
                }
                RowPlan::Class { slot } => mid_copies.push((dst, slot)),
                RowPlan::Prefix { base, delta_lo, delta_hi } => {
                    bcopies_raw.push((deltas[delta_lo as usize].0, dst, base));
                    for &(p, idx) in &deltas[delta_lo as usize..delta_hi as usize] {
                        counts[p as usize * q_max + idx as usize] += 1;
                        l1_raw.push((p, idx, dst));
                    }
                }
                RowPlan::Full => {
                    for (p, &idx) in decomp.l1_row(r).iter().enumerate() {
                        if idx != Decomposition::NO_PATTERN {
                            counts[p * q_max + idx as usize] += 1;
                            l1_raw.push((p as u32, idx, dst));
                        }
                    }
                }
            }
            if own_l2 {
                for e in decomp.l2_row(r) {
                    col_counts[e.col as usize] += 1;
                    l2_raw.push((e.col, dst | if e.value != 1 { TARGET_SUB } else { 0 }));
                }
            }
        }
        // Level-1: counting sort on (partition, pattern).
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let v = *c;
            *c = sum;
            sum += v;
        }
        let mut l1_off: Vec<u32> = Vec::with_capacity(parts + 1);
        for p in 0..parts {
            l1_off.push(counts[p * q_max]);
        }
        l1_off.push(l1_raw.len() as u32);
        let mut l1_entries: Vec<(u16, u32)> = vec![(0, 0); l1_raw.len()];
        for &(p, idx, target) in &l1_raw {
            let at = &mut counts[p as usize * q_max + idx as usize];
            l1_entries[*at as usize] = (idx, target);
            *at += 1;
        }
        // Level-2: counting sort on column.
        let mut sum = 0u32;
        for c in col_counts.iter_mut() {
            let v = *c;
            *c = sum;
            sum += v;
        }
        let mut l2_entries: Vec<(u32, u32)> = vec![(0, 0); l2_raw.len()];
        for &(c, target) in &l2_raw {
            let at = &mut col_counts[c as usize];
            l2_entries[*at as usize] = (c, target);
            *at += 1;
        }
        // Boundary copies: counting sort on the boundary partition.
        let mut bcopy_off = vec![0u32; parts + 2];
        for &(b, _, _) in &bcopies_raw {
            bcopy_off[b as usize + 2] += 1;
        }
        for p in 2..parts + 2 {
            bcopy_off[p] += bcopy_off[p - 1];
        }
        let mut bcopies: Vec<(u32, u32)> = vec![(0, 0); bcopies_raw.len()];
        for &(b, dst, src) in &bcopies_raw {
            let at = &mut bcopy_off[b as usize + 1];
            bcopies[*at as usize] = (dst, src);
            *at += 1;
        }
        bcopy_off.truncate(parts + 1);
        // Distinct term-row loads: runs of equal pattern within a
        // partition, plus runs of equal column.
        let mut term_loads = 0u64;
        for p in 0..parts {
            let mut last = u32::MAX;
            for &(idx, _) in &l1_entries[l1_off[p] as usize..l1_off[p + 1] as usize] {
                if u32::from(idx) != last {
                    last = u32::from(idx);
                    term_loads += 1;
                }
            }
        }
        let mut last = u32::MAX;
        for &(c, _) in &l2_entries {
            if c != last {
                last = c;
                term_loads += 1;
            }
        }
        stats.term_loads = term_loads;

        ReusePlan {
            rows,
            num_partitions: parts,
            class_slots,
            product_slots,
            class_jobs,
            l1_entries,
            l1_off,
            bcopies,
            bcopy_off,
            mid_copies,
            l2_entries,
            tail_copies,
            stats,
        }
    }

    /// The plan's deterministic work accounting (available before
    /// execution — every counter is fixed at build time).
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// `true` when the batch shares nothing: no class partial earned a
    /// slot, so planned execution would degenerate to the per-row sweep.
    /// [`phi_matmul_batch_reuse`] answers such batches through
    /// [`par_phi_matmul`] directly.
    pub fn is_trivial(&self) -> bool {
        self.class_jobs.is_empty()
    }

    /// `true` when planned execution is predicted to beat the per-row
    /// sweep. The sweep is memory-bound: its cost tracks the term rows it
    /// streams from the pattern-weight table, so the plan wins whenever
    /// the term-stationary schedule loads meaningfully fewer rows than
    /// the per-row kernel touches references. Duplicate references —
    /// whether across rows (shared patterns) or across partials — all
    /// collapse into `term_loads`, so even a batch with zero identical
    /// rows profits when its rows draw from a common pattern pool. The
    /// margin absorbs the plan's fixed costs (build, copies, arena
    /// traffic); near parity the per-row sweep's simpler inner loop wins.
    pub fn is_profitable(&self) -> bool {
        const MAX_LOAD_FRACTION: f64 = 0.75;
        self.stats.term_rows_total > 0
            && (self.stats.term_loads as f64)
                <= MAX_LOAD_FRACTION * self.stats.term_rows_total as f64
    }

    /// The floor on saved f32 lanes per term reference for
    /// [`ReusePlan::is_profitable_for`]: what the builder's
    /// per-reference counting-sort work costs, expressed in accumulate
    /// units (~one 64-byte cache line). [`phi_matmul_batch_reuse`] also
    /// uses it as a pre-build screen: an output narrower than this can
    /// never clear the gate, so no plan is built at all.
    const MIN_SAVED_LANES_PER_REF: f64 = 16.0;

    /// [`ReusePlan::is_profitable`] refined with the output width the
    /// plan would execute against. Plan construction does O(1) work per
    /// term reference while the sweeps' cost per reference scales with
    /// the output width, so a narrow output (the 10-class readout) can
    /// clear the load-fraction gate and still lose: its term rows are a
    /// few cache-resident lanes, leaving nothing for the saved loads to
    /// pay the builder with. The floor demands the saved traffic,
    /// measured in f32 lanes per reference, cover the builder's
    /// per-reference counting-sort work (~16 lanes ≈ one 64-byte line).
    pub fn is_profitable_for(&self, out_cols: usize) -> bool {
        let total = self.stats.term_rows_total as f64;
        let saved = total - self.stats.term_loads as f64;
        self.is_profitable() && saved * out_cols as f64 >= Self::MIN_SAVED_LANES_PER_REF * total
    }

    /// Executes the plan against the decomposition it was built from,
    /// fanning the sweeps across all available workers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`phi_matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `decomp` is not the decomposition the plan was built
    /// from (row or partition count mismatch; other divergence is
    /// undetectable and yields garbage, so callers must pass the same
    /// decomposition).
    pub fn execute(
        &self,
        decomp: &Decomposition,
        pwp: &PwpTable,
        weights: &Matrix,
    ) -> Result<Matrix> {
        self.execute_with_workers(decomp, pwp, weights, rayon::current_num_threads())
    }

    /// [`ReusePlan::execute`] with an explicit worker count — outputs are
    /// bit-identical at any count (the equivalence suite sweeps 1–3).
    ///
    /// Workers split the *output columns* into contiguous stripes, each
    /// running the full sweep schedule over its own stripe of every row,
    /// partial, and term row. Per output element the term order is the
    /// same at any stripe width, so worker count cannot perturb a single
    /// bit — and no synchronization is needed, because stripes never
    /// overlap.
    ///
    /// # Errors
    ///
    /// Same conditions as [`phi_matmul`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`ReusePlan::execute`].
    pub fn execute_with_workers(
        &self,
        decomp: &Decomposition,
        pwp: &PwpTable,
        weights: &Matrix,
        workers: usize,
    ) -> Result<Matrix> {
        validate_matmul(decomp, pwp, weights)?;
        assert_eq!(self.rows, decomp.rows(), "plan was built for a different batch");
        assert_eq!(
            self.num_partitions,
            decomp.num_partitions(),
            "plan was built for a different layer"
        );
        let n = weights.cols();
        let rows = self.rows;
        if rows == 0 {
            return Ok(Matrix::zeros(0, n));
        }

        let workers = workers.clamp(1, n.max(1));
        if workers == 1 {
            // Single-worker hot path: one full-width sweep directly into
            // the row-major output — no merge pass. (The sweep targets —
            // out rows plus both arenas — fit L2 for realistic layer
            // shapes; column-blocking narrower than the full width was
            // measured slower, the repeated schedule walks cost more than
            // the cache residency buys.) The partial arenas are reused
            // across calls (serving executes a plan per fused batch, back
            // to back): a fresh zeroed allocation per batch costs more in
            // page faults and memset than the partials themselves. Root
            // class slots are zeroed by the sweep; every other slot is
            // fully overwritten by its base or class copy.
            let mut out = vec![0.0f32; rows * n];
            ARENAS.with(|cell| {
                let (class_buf, product_buf) = &mut *cell.borrow_mut();
                let class_len = self.class_slots as usize * n;
                if class_buf.len() < class_len {
                    class_buf.resize(class_len, 0.0);
                }
                let product_len = self.product_slots as usize * n;
                if product_buf.len() < product_len {
                    product_buf.resize(product_len, 0.0);
                }
                self.sweep_stripe(
                    pwp,
                    weights,
                    0,
                    n,
                    &mut out,
                    n,
                    &mut class_buf[..class_len],
                    &mut product_buf[..product_len],
                );
            });
            return Matrix::from_vec(rows, n, out);
        }

        // Parallel workers: split the columns evenly; each worker owns a
        // disjoint column range of the output and private stripe-packed
        // arenas, so there is no shared mutable state. Per output element
        // the add order is independent of worker count and stripe width,
        // keeping the result bit-identical.
        let chunk = n.div_ceil(workers);
        let ranges: Vec<(usize, usize)> =
            (0..n).step_by(chunk).map(|c0| (c0, (c0 + chunk).min(n))).collect();
        let stripes: Vec<(usize, Vec<f32>)> = ranges
            .into_par_iter()
            .map(|(w0, w1)| {
                let wn = w1 - w0;
                let mut out = vec![0.0f32; rows * wn];
                let mut class = vec![0.0f32; self.class_slots as usize * wn];
                let mut product = vec![0.0f32; self.product_slots as usize * wn];
                self.sweep_stripe(pwp, weights, w0, wn, &mut out, wn, &mut class, &mut product);
                (w0, out)
            })
            .collect();
        let mut data = vec![0.0f32; rows * n];
        for (w0, stripe) in &stripes {
            let wn = stripe.len() / rows;
            for r in 0..rows {
                data[r * n + w0..r * n + w0 + wn].copy_from_slice(&stripe[r * wn..r * wn + wn]);
            }
        }
        Matrix::from_vec(rows, n, data)
    }

    /// Runs the full sweep schedule over one column stripe `[c0, c0+sw)`:
    /// zero the root class slots, Level-1 partition sweep (boundary
    /// copies, then pattern-ascending adds), mid copies, Level-2 column
    /// sweep, tail copies. `out` starts at the stripe's first column and
    /// addresses row `r` at `r * out_stride`; it must be zeroed on entry
    /// (unshared rows accumulate from zero, exactly like the per-row
    /// kernel). The arenas are stripe-packed and may hold garbage.
    #[allow(clippy::too_many_arguments)]
    fn sweep_stripe(
        &self,
        pwp: &PwpTable,
        weights: &Matrix,
        c0: usize,
        sw: usize,
        out: &mut [f32],
        out_stride: usize,
        class_arena: &mut [f32],
        product_arena: &mut [f32],
    ) {
        for job in &self.class_jobs {
            if job.base.is_none() {
                class_arena[job.slot as usize * sw..(job.slot as usize + 1) * sw].fill(0.0);
            }
        }
        for p in 0..self.num_partitions {
            for &(dst, src) in
                &self.bcopies[self.bcopy_off[p] as usize..self.bcopy_off[p + 1] as usize]
            {
                copy_partial(dst, src, sw, out, out_stride, class_arena, product_arena);
            }
            let entries = &self.l1_entries[self.l1_off[p] as usize..self.l1_off[p + 1] as usize];
            let mut cur = u32::MAX;
            let mut term: &[f32] = &[];
            for &(idx, target) in entries {
                if u32::from(idx) != cur {
                    cur = u32::from(idx);
                    term = &pwp.row(p, idx as usize)[c0..c0 + sw];
                }
                simd::add_assign(
                    target_stripe(target, sw, out, out_stride, class_arena, product_arena),
                    term,
                );
            }
        }
        for &(dst, src) in &self.mid_copies {
            copy_partial(dst, src, sw, out, out_stride, class_arena, product_arena);
        }
        let mut cur = u32::MAX;
        let mut wrow: &[f32] = &[];
        for &(col, target) in &self.l2_entries {
            if col != cur {
                cur = col;
                wrow = &weights.row(col as usize)[c0..c0 + sw];
            }
            let dst = target_stripe(target, sw, out, out_stride, class_arena, product_arena);
            if target & TARGET_SUB != 0 {
                simd::sub_assign(dst, wrow);
            } else {
                simd::add_assign(dst, wrow);
            }
        }
        for &(r, slot) in &self.tail_copies {
            out[r as usize * out_stride..r as usize * out_stride + sw]
                .copy_from_slice(&product_arena[slot as usize * sw..(slot as usize + 1) * sw]);
        }
    }
}

/// Resolves a packed sweep target to its stripe slice in the right
/// buffer (`out` rows use `out_stride`; arena slots are stripe-packed).
fn target_stripe<'a>(
    target: u32,
    sw: usize,
    out: &'a mut [f32],
    out_stride: usize,
    class_arena: &'a mut [f32],
    product_arena: &'a mut [f32],
) -> &'a mut [f32] {
    let idx = (target & TARGET_IDX) as usize;
    match target >> 30 {
        TARGET_ROW => &mut out[idx * out_stride..idx * out_stride + sw],
        TARGET_CLASS => &mut class_arena[idx * sw..(idx + 1) * sw],
        _ => &mut product_arena[idx * sw..(idx + 1) * sw],
    }
}

/// Copies a finished class partial's stripe into a packed destination
/// (another class slot, a product slot, or an out row).
fn copy_partial(
    dst: u32,
    src_slot: u32,
    sw: usize,
    out: &mut [f32],
    out_stride: usize,
    class_arena: &mut [f32],
    product_arena: &mut [f32],
) {
    let src = src_slot as usize * sw;
    let at = (dst & TARGET_IDX) as usize;
    match dst >> 30 {
        TARGET_CLASS => class_arena.copy_within(src..src + sw, at * sw),
        TARGET_ROW => {
            out[at * out_stride..at * out_stride + sw].copy_from_slice(&class_arena[src..src + sw])
        }
        _ => product_arena[at * sw..(at + 1) * sw].copy_from_slice(&class_arena[src..src + sw]),
    }
}

thread_local! {
    /// Reused scratch for [`ReusePlan::execute_with_workers`]'s class and
    /// product partial arenas (in that order). Grown, never shrunk; the
    /// executing call zeroes exactly the slots that need it.
    static ARENAS: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// [`par_phi_matmul`] with cross-row product-sparsity reuse: builds a
/// [`ReusePlan`] for the fused batch, computes each distinct pattern-
/// weight product and shared Level-1 partial once, and assembles rows
/// from them — bit-identical to the per-row sweep by the prefix ordering
/// rule (module doc). Batches whose plan is not
/// [profitable at this output width](ReusePlan::is_profitable_for) fall
/// back to [`par_phi_matmul`] directly.
///
/// The returned counters describe what was *exploited*, not merely
/// discovered: on a fallback batch they keep the batch's row, term-row,
/// and class totals but report every term row as computed (reuse rate
/// zero, no copies, no products), so aggregated serving stats reflect
/// actual work saved.
///
/// # Errors
///
/// Same conditions as [`phi_matmul`].
pub fn phi_matmul_batch_reuse(
    decomp: &Decomposition,
    pwp: &PwpTable,
    weights: &Matrix,
) -> Result<(Matrix, ReuseStats)> {
    validate_matmul(decomp, pwp, weights)?;
    // Width screen before any planning: saved lanes per reference can
    // never exceed the output width, so a readout narrower than the
    // builder-cost floor cannot profit at any overlap — and the build
    // is itself the cost being avoided, so it must not run to find
    // that out.
    if (weights.cols() as f64) < ReusePlan::MIN_SAVED_LANES_PER_REF {
        let mut refs = 0u64;
        for r in 0..decomp.rows() {
            let l1 =
                decomp.l1_row(r).iter().filter(|&&idx| idx != Decomposition::NO_PATTERN).count();
            refs += (l1 + decomp.l2_row(r).len()) as u64;
        }
        let stats = ReuseStats {
            rows: decomp.rows() as u64,
            term_rows_total: refs,
            term_rows_computed: refs,
            term_loads: refs,
            ..ReuseStats::default()
        };
        return Ok((par_phi_matmul(decomp, pwp, weights)?, stats));
    }
    let plan = ReusePlan::build(decomp);
    if plan.is_profitable_for(weights.cols()) {
        let out = plan.execute(decomp, pwp, weights)?;
        Ok((out, plan.stats()))
    } else {
        let planned = plan.stats();
        let stats = ReuseStats {
            rows: planned.rows,
            term_rows_total: planned.term_rows_total,
            term_rows_computed: planned.term_rows_total,
            term_loads: planned.term_rows_total,
            l1_classes: planned.l1_classes,
            ..ReuseStats::default()
        };
        Ok((par_phi_matmul(decomp, pwp, weights)?, stats))
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
    fn batch_reuse_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(55);
        for density in [0.05, 0.2, 0.5] {
            let acts = SpikeMatrix::random(70, 37, density, &mut rng);
            let weights = Matrix::random(37, 9, &mut rng);
            let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
            let patterns = cal.calibrate(&acts, &mut rng);
            let d = decompose(&acts, &patterns);
            let pwp = PwpTable::new(&patterns, &weights).unwrap();
            let seq = phi_matmul(&d, &pwp, &weights).unwrap();
            let (reuse, stats) = phi_matmul_batch_reuse(&d, &pwp, &weights).unwrap();
            assert_eq!(seq, reuse, "density {density}");
            assert_eq!(stats.rows, 70);
            assert!(stats.term_rows_computed <= stats.term_rows_total);
        }
    }

    #[test]
    fn identical_rows_collapse_to_one_product() {
        // A batch of identical rows must plan exactly one shared product:
        // one set of term accumulations, everything else a copy.
        let mut rng = StdRng::seed_from_u64(56);
        let one = SpikeMatrix::random(1, 48, 0.3, &mut rng);
        let rows: Vec<&SpikeMatrix> = std::iter::repeat_n(&one, 16).collect();
        let acts = SpikeMatrix::vstack(&rows).unwrap();
        let weights = Matrix::random(48, 7, &mut rng);
        let cal = Calibrator::new(CalibrationConfig { q: 8, ..Default::default() });
        let patterns = cal.calibrate(&acts, &mut rng);
        let d = decompose(&acts, &patterns);
        let pwp = PwpTable::new(&patterns, &weights).unwrap();
        let plan = ReusePlan::build(&d);
        let stats = plan.stats();
        assert_eq!(stats.l1_classes, 1);
        assert_eq!(stats.products, 1);
        assert_eq!(stats.shared_partial_hits, 16);
        // One class partial + one product pay the only accumulations: the
        // per-row cost of a single row.
        let single = d.l2_row(0).len() as u64
            + (0..d.num_partitions()).filter(|&p| d.l1_index(0, p).is_some()).count() as u64;
        assert_eq!(stats.term_rows_computed, single);
        assert_eq!(stats.term_rows_total, 16 * single);
        let out = plan.execute(&d, &pwp, &weights).unwrap();
        assert_eq!(out, phi_matmul(&d, &pwp, &weights).unwrap());
    }

    #[test]
    fn reuse_stats_merge_accumulates() {
        let a = ReuseStats {
            rows: 4,
            term_rows_total: 40,
            term_rows_computed: 10,
            partial_copies: 3,
            l1_classes: 2,
            products: 1,
            shared_partial_hits: 3,
            prefix_links: 1,
            term_loads: 12,
        };
        let merged = ReuseStats::merged([a, a]);
        assert_eq!(merged.rows, 8);
        assert_eq!(merged.term_rows_total, 80);
        assert_eq!(merged.term_rows_computed, 20);
        assert_eq!(merged.term_loads, 24);
        assert!((merged.reuse_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ReuseStats::default().reuse_rate(), 0.0);
    }

    #[test]
    fn force_reuse_round_trips() {
        let prev = force_reuse(ReuseMode::Off);
        assert_eq!(reuse_mode(), ReuseMode::Off);
        assert_eq!(force_reuse(ReuseMode::Auto), ReuseMode::Off);
        assert_eq!(reuse_mode(), ReuseMode::Auto);
        force_reuse(prev);
        assert_eq!(ReuseMode::Off.to_string(), "off");
        assert_eq!(ReuseMode::Auto.to_string(), "auto");
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
