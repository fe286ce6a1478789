//! Runtime-dispatched SIMD kernels for the bit-op hot loops.
//!
//! Phi's software pipeline spends its time in a handful of primitive
//! loops: XOR+popcount Hamming distances (pattern matching, k-means),
//! word popcounts (density accounting), tile extraction from packed
//! rows, and elementwise `f32` row accumulation (the PWP GEMM). This
//! module implements each primitive three ways — a portable scalar
//! reference, 256-bit AVX2, and 512-bit AVX-512 (`aarch64` gets NEON) —
//! behind one runtime CPU-feature dispatch, using only stable
//! `core::arch` intrinsics (no external crates).
//!
//! # Bit-identity contract
//!
//! Every dispatched function returns *bit-identical* results at every
//! [`SimdLevel`]:
//!
//! * the integer kernels are exact by construction (XOR and popcount
//!   have one answer);
//! * [`min_hamming`] preserves the *first-minimum* rule — the lowest
//!   index among minimum-distance entries wins, exactly like a scalar
//!   left-to-right scan — which is what the pattern matcher's
//!   "min distance, then min index" tie rule reduces to over
//!   index-ascending pattern arrays;
//! * [`min_hamming16`] reaches the same answer by a different route: each
//!   lane packs `(distance << 11) | index` into one `u16` key and an
//!   unsigned minimum over the keys is the lexicographic
//!   `(distance, index)` minimum; [`Hamming16::match_lanes16`] keeps one
//!   such minimum per lane;
//! * [`add_assign`] and [`accumulate_signed`] are elementwise
//!   (`out[i] ± src[i]`, one operation per element in term order, no
//!   reassociation), so `f32` rounding is unchanged lane for lane.
//!
//! The `simd_equivalence` property suite in `phi-core` pins all of this
//! against the [`scalar`] twins.
//!
//! # Packed width-16 matching
//!
//! Pattern sets of width ≤ 16 and at most [`PLANE16_MAX_LEN`] patterns
//! fit one `u16` lane per pattern, so the whole set is decided by one
//! brute-force pass — the algorithm of Phi's systolic matcher, which
//! compares a tile against every pattern of its partition. Two kernels
//! share that rule: [`min_hamming16`] decides one tile against one
//! plane, 32 patterns per vector step (the packed arm of
//! `PatternSet::best_match`), and [`Hamming16::match_lanes16`] decides
//! 32 partitions' tiles at once against a [`LanePlanes16`] group, one
//! pattern each per vector step — the row-major sweep every production
//! decomposition takes, of a whole activation matrix or of a stream
//! frame's changed rows. The AVX-512 tier needs `BW` and `BITALG` (16-bit
//! lane popcount and minimum) on top of the `F` + `VPOPCNTDQ` that
//! [`SimdLevel::Avx512`] requires; an AVX-512 host without them runs the
//! AVX2 tier. A row sweep wraps its loop in a [`Hamming16Sweep`] and
//! hands it to [`sweep16`]: the tier is chosen once, and the loop body is
//! compiled inside the tier's `#[target_feature]` context, so the lane
//! matcher inlines into it.
//!
//! # Dispatch
//!
//! The active level is detected once and cached. The `PHI_SIMD`
//! environment variable overrides it: `off`/`scalar`/`0` force the
//! portable path, `auto` (or empty, or unset) uses the best detected
//! level, and `avx2`/`avx512`/`neon` clamp to that level if the host
//! supports it. Any other value panics on first dispatch, naming the
//! variable and the value. Benchmarks A/B the paths in-process via
//! [`force`].

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set tier a kernel dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar Rust — always available, the bit-identity
    /// reference.
    Scalar = 0,
    /// 256-bit AVX2 (x86-64): XOR + nibble-LUT popcount, 8-lane `f32`.
    Avx2 = 1,
    /// 512-bit AVX-512 with `VPOPCNTDQ` (x86-64): hardware 64-bit lane
    /// popcount, 16-lane `f32`.
    Avx512 = 2,
    /// 128-bit NEON (aarch64): `vcnt` byte popcount, 4-lane `f32`.
    Neon = 3,
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Neon => "neon",
        })
    }
}

/// Sentinel for "not yet initialized" in the cached level.
const UNINIT: u8 = u8::MAX;

/// The cached dispatch level; initialized on first use from `PHI_SIMD`
/// and CPU detection, overridable via [`force`].
static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

#[inline]
fn decode(v: u8) -> SimdLevel {
    match v {
        1 => SimdLevel::Avx2,
        2 => SimdLevel::Avx512,
        3 => SimdLevel::Neon,
        _ => SimdLevel::Scalar,
    }
}

/// The best level the host CPU supports, independent of `PHI_SIMD` and
/// [`force`].
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is architecturally guaranteed on aarch64.
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// Clamps a requested tier to what the host actually supports. The x86
/// tiers and NEON are distinct families, not an ordering: requesting a
/// tier from the other family degrades to scalar.
fn clamp(requested: SimdLevel) -> SimdLevel {
    let cap = detected();
    match requested {
        SimdLevel::Scalar => SimdLevel::Scalar,
        SimdLevel::Neon => {
            if cap == SimdLevel::Neon {
                SimdLevel::Neon
            } else {
                SimdLevel::Scalar
            }
        }
        x86_tier => {
            if cap == SimdLevel::Neon {
                SimdLevel::Scalar
            } else {
                x86_tier.min(cap)
            }
        }
    }
}

/// What the `PHI_SIMD` knob asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdRequest {
    /// The best detected level (`auto`, empty, or unset).
    Auto,
    /// A fixed tier, clamped to what the host supports.
    Fixed(SimdLevel),
}

impl std::str::FromStr for SimdRequest {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "" | "auto" => Ok(SimdRequest::Auto),
            "off" | "scalar" | "0" => Ok(SimdRequest::Fixed(SimdLevel::Scalar)),
            "avx2" => Ok(SimdRequest::Fixed(SimdLevel::Avx2)),
            "avx512" => Ok(SimdRequest::Fixed(SimdLevel::Avx512)),
            "neon" => Ok(SimdRequest::Fixed(SimdLevel::Neon)),
            _ => Err(()),
        }
    }
}

/// The level `PHI_SIMD` requests, clamped to what the host supports.
/// A set value outside the accepted spellings panics, naming it.
fn env_level() -> SimdLevel {
    match crate::env::read_env("PHI_SIMD", SimdRequest::Auto) {
        SimdRequest::Auto => detected(),
        SimdRequest::Fixed(level) => clamp(level),
    }
}

/// The active dispatch level (cached after the first call).
#[inline]
pub fn level() -> SimdLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNINIT {
        return decode(v);
    }
    let l = env_level();
    LEVEL.store(l as u8, Ordering::Relaxed);
    l
}

/// Overrides the dispatch level in-process (clamped to the detected
/// capability, so forcing an unsupported tier degrades safely), and
/// returns the previously active level. Benchmarks use this to A/B the
/// scalar and vector paths without re-execing; results stay
/// bit-identical either way.
pub fn force(l: SimdLevel) -> SimdLevel {
    let prev = level();
    LEVEL.store(clamp(l) as u8, Ordering::Relaxed);
    prev
}

/// Hamming distance between two width-≤64 bit words — the single
/// distance primitive every matcher, clusterer, and statistic in the
/// workspace routes through (one word needs no vectorization; `XOR` +
/// the `popcnt` instruction is optimal).
#[inline(always)]
pub fn hamming64(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Total popcount of a word slice (row/matrix nonzero counts).
pub fn popcount_words(words: &[u64]) -> u64 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::popcount_words_avx512(words) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::popcount_words_avx2(words) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::popcount_words_neon(words) },
        _ => scalar::popcount_words(words),
    }
}

/// The position and value of the minimum Hamming distance from `tile`
/// over a contiguous pattern bit-plane; `None` for an empty slice.
///
/// Ties resolve to the *lowest position* — identical to a scalar
/// left-to-right strict-improvement scan — and the scan stops early on
/// an exact (distance-0) hit. This is the matcher's inner probe: over an
/// index-ascending pattern array, first-minimum == the "min distance,
/// then min index" tie rule.
pub fn min_hamming(patterns: &[u64], tile: u64) -> Option<(usize, u32)> {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::min_hamming_avx512(patterns, tile) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::min_hamming_avx2(patterns, tile) },
        _ => scalar::min_hamming(patterns, tile),
    }
}

/// The most patterns [`min_hamming16`] takes: a lane key keeps the
/// pattern index in its low 11 bits.
pub const PLANE16_MAX_LEN: usize = 1 << 11;

/// The position and distance of the nearest entry of a `u16` pattern
/// plane to `tile`, with ties resolving to the lowest position (the
/// answer [`scalar::min_hamming`] gives over the same values as `u64`);
/// `None` for an empty plane.
///
/// One brute-force pass with no early exit: each lane computes the key
/// `(popcount(p ^ tile) << 11) | position` and the smallest key wins, so
/// exact and inexact hits come out of the same pass.
///
/// # Panics
///
/// Panics if `plane.len() > PLANE16_MAX_LEN`.
pub fn min_hamming16(plane: &[u16], tile: u16) -> Option<(usize, u32)> {
    match tier16() {
        #[cfg(target_arch = "x86_64")]
        Tier16::Avx512 => unsafe { x86::min_hamming16_avx512(plane, tile) },
        #[cfg(target_arch = "x86_64")]
        Tier16::Avx2 => unsafe { x86::min_hamming16_avx2(plane, tile) },
        Tier16::Scalar => scalar::min_hamming16(plane, tile),
    }
}

/// Partitions one lane-matcher step decides together: one `u16` lane
/// each, a 512-bit vector (two 256-bit halves at AVX2).
pub const LANE_GROUP: usize = 32;

/// The `u64` words holding one group's `u16` lanes, four to a word: lane
/// `l` is bits `16·(l % 4) .. 16·(l % 4) + 16` of word `l / 4`, the
/// order in which a `k = 16` bit-row already holds its tiles.
pub const LANE_WORDS: usize = LANE_GROUP / 4;

/// The [`LANE_GROUP`] lanes' patterns at one index, one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C, align(64))]
struct LaneStep([u16; LANE_GROUP]);

/// Where one group's steps live in [`LanePlanes16`], how far it folds,
/// and the union of each lane's one-hot patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupSpan {
    start: usize,
    depth: usize,
    fold: u32,
    one_hot: [u16; LANE_GROUP],
}

/// The `u16` pattern planes of many packed partitions regrouped
/// pattern-major for [`Hamming16::match_lanes16`]: partitions
/// `32g .. 32g + 32` form group `g`, and step `j` of a group holds the
/// 32 lanes' `j`-th patterns side by side, so one vector compares 32
/// tiles with one pattern each — the way Phi's systolic matcher streams
/// many tiles past its pattern registers.
///
/// A group is as deep as its largest plane. A lane with fewer patterns
/// is padded with the zero pattern, which never changes a decision: its
/// distance to a tile is the tile's own bit count, which the rule
/// requires an assigned pattern to beat, so it can only win where no
/// pattern is assigned anyway.
///
/// A final group of at most 16 partitions *folds*: rounded up to a power
/// of two `w`, its lanes repeat `2^f = 32 / w` times across the vector,
/// and replica `r` holds the patterns `j ≡ r (mod 2^f)`. The group is
/// then `2^f` times shallower, and the kernel merges the replicas at the
/// end, so a layer with few partitions and many patterns per partition
/// does not sweep mostly empty lanes.
///
/// The planes are also kept back to back in partition order, for the
/// [`scalar::match_lanes16`] twin, which scans each lane's own plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanePlanes16 {
    groups: Vec<GroupSpan>,
    steps: Vec<LaneStep>,
    planes: Vec<u16>,
    /// Plane `p` is `planes[bounds[p]..bounds[p + 1]]`.
    bounds: Vec<usize>,
}

impl LanePlanes16 {
    /// Regroups one plane per partition, in partition order.
    ///
    /// # Panics
    ///
    /// Panics if a plane holds more than [`PLANE16_MAX_LEN`] patterns.
    pub fn new(planes: &[&[u16]]) -> Self {
        let mut groups = Vec::with_capacity(planes.len().div_ceil(LANE_GROUP));
        let mut steps = Vec::new();
        for chunk in planes.chunks(LANE_GROUP) {
            let longest = chunk.iter().map(|p| p.len()).max().unwrap_or(0);
            assert!(longest <= PLANE16_MAX_LEN, "a u16 plane holds at most 2048 patterns");
            let width = chunk.len().next_power_of_two();
            let fold = (LANE_GROUP / width).trailing_zeros();
            let depth = longest.div_ceil(1 << fold);
            let start = steps.len();
            steps.resize(start + depth, LaneStep::default());
            let mut one_hot = [0u16; LANE_GROUP];
            for (lane, plane) in chunk.iter().enumerate() {
                for (j, &p) in plane.iter().enumerate() {
                    let (step, replica) = (j >> fold, j & ((1 << fold) - 1));
                    steps[start + step].0[replica * width + lane] = p;
                    if p.is_power_of_two() {
                        one_hot[lane] |= p;
                    }
                }
            }
            groups.push(GroupSpan { start, depth, fold, one_hot });
        }
        let mut bounds = Vec::with_capacity(planes.len() + 1);
        bounds.push(0);
        bounds.extend(planes.iter().scan(0, |end, p| {
            *end += p.len();
            Some(*end)
        }));
        LanePlanes16 { groups, steps, planes: planes.concat(), bounds }
    }

    /// Partitions covered.
    pub fn partitions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Groups of [`LANE_GROUP`] partitions (the last may be partial).
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`, partitions `32g .. min(32g + 32, partitions)`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of bounds.
    #[inline]
    pub fn group(&self, g: usize) -> LaneGroup<'_> {
        let span = &self.groups[g];
        let first = g * LANE_GROUP;
        let last = (first + LANE_GROUP).min(self.partitions());
        LaneGroup {
            steps: &self.steps[span.start..span.start + span.depth],
            fold: span.fold,
            planes: &self.planes,
            bounds: &self.bounds[first..=last],
            one_hot: &span.one_hot,
        }
    }
}

/// One group of a [`LanePlanes16`]: its steps, pattern-major, and its
/// fold; and, for the scalar twin, its lanes' own planes and one-hot
/// unions.
#[derive(Debug, Clone, Copy)]
pub struct LaneGroup<'a> {
    steps: &'a [LaneStep],
    fold: u32,
    planes: &'a [u16],
    bounds: &'a [usize],
    one_hot: &'a [u16; LANE_GROUP],
}

impl<'a> LaneGroup<'a> {
    /// Lane `lane`'s own patterns, index order (empty past the group's
    /// partitions).
    #[inline]
    fn plane(&self, lane: usize) -> &'a [u16] {
        match self.bounds.get(lane..lane + 2) {
            Some(&[lo, hi]) => &self.planes[lo..hi],
            _ => &[],
        }
    }
}

/// One tier of the lane matcher, handed to a [`Hamming16Sweep`] by
/// [`sweep16`]. The vector tiers can only be obtained from [`sweep16`],
/// after the host has been checked for them.
pub trait Hamming16: Copy {
    /// Decides the [`LANE_GROUP`] tiles in `tiles` against `group`, lane
    /// `l` against lane `l`'s patterns, by the decomposition's matcher
    /// rule: the nearest pattern, lowest index on ties, is assigned iff
    /// its distance is below the tile's bit count. Writes the assigned
    /// index, or `u16::MAX` for none, to `l1[l]`, and the lane's
    /// correction bits to lane `l` of `diff`: `(pattern & mask) ^ tile`
    /// when assigned, the tile itself otherwise, with `mask` lane `l` of
    /// `masks` (all ones except where a partition is narrower than its
    /// patterns).
    ///
    /// Every step's key `(distance << 11) | index` is taken for all 32
    /// lanes at once and the smallest key per lane wins, so empty and
    /// single-bit tiles need no case of their own.
    fn match_lanes16(
        self,
        group: LaneGroup<'_>,
        tiles: &[u64; LANE_WORDS],
        masks: &[u64; LANE_WORDS],
        l1: &mut [u16; LANE_GROUP],
        diff: &mut [u64; LANE_WORDS],
    );
}

/// A row sweep over many [`Hamming16::match_lanes16`] steps, run under
/// one dispatch by [`sweep16`].
///
/// Implementations should mark [`Hamming16Sweep::run`]
/// `#[inline(always)]`: it is then compiled inside the tier's
/// `#[target_feature]` wrapper, and the kernel inlines into the loop
/// instead of being called per probe.
pub trait Hamming16Sweep {
    /// What the sweep produces.
    type Output;

    /// Runs the sweep with `kernel` as its matcher.
    fn run<H: Hamming16>(self, kernel: H) -> Self::Output;
}

/// Runs `sweep` with the best [`Hamming16`] tier the active [`level`]
/// allows, chosen once for the whole sweep. Every tier gives
/// the same answers, so the output never depends on the level.
pub fn sweep16<S: Hamming16Sweep>(sweep: S) -> S::Output {
    match tier16() {
        #[cfg(target_arch = "x86_64")]
        Tier16::Avx512 => unsafe { x86::sweep16_avx512(sweep) },
        #[cfg(target_arch = "x86_64")]
        Tier16::Avx2 => unsafe { x86::sweep16_avx2(sweep) },
        Tier16::Scalar => sweep.run(Scalar16),
    }
}

/// The [`min_hamming16`] and [`Hamming16`] tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier16 {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The [`min_hamming16`] tier at the active [`level`]: AVX-512 needs
/// `BW` and `BITALG` besides what [`SimdLevel::Avx512`] checks, and
/// falls back to AVX2 without them. Both vector tiers also need `POPCNT`,
/// which their wrappers enable so that the sweeps' word popcounts (the
/// decomposition counters) compile to one instruction each.
#[inline]
fn tier16() -> Tier16 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        match level() {
            SimdLevel::Avx512
                if std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512bitalg") =>
            {
                return Tier16::Avx512;
            }
            SimdLevel::Avx512 | SimdLevel::Avx2 => return Tier16::Avx2,
            _ => {}
        }
    }
    Tier16::Scalar
}

/// The portable [`Hamming16`] tier.
#[derive(Debug, Clone, Copy)]
struct Scalar16;

impl Hamming16 for Scalar16 {
    #[inline(always)]
    fn match_lanes16(
        self,
        group: LaneGroup<'_>,
        tiles: &[u64; LANE_WORDS],
        masks: &[u64; LANE_WORDS],
        l1: &mut [u16; LANE_GROUP],
        diff: &mut [u64; LANE_WORDS],
    ) {
        scalar::match_lanes16(group, tiles, masks, l1, diff);
    }
}

/// Splits a [`min_hamming16`] lane key into `(position, distance)`.
#[inline(always)]
fn unkey16(key: u32) -> (usize, u32) {
    ((key & 0x7FF) as usize, key >> 11)
}

/// Elementwise `out[i] += src[i]` — the PWP / correction row
/// accumulation. One addition per element in lane order, so the `f32`
/// result is bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_assign(out: &mut [f32], src: &[f32]) {
    assert_eq!(out.len(), src.len(), "accumulation rows must match in width");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::add_assign_avx512(out, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::add_assign_avx2(out, src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::add_assign_neon(out, src) },
        _ => scalar::add_assign(out, src),
    }
}

/// Accumulates a batch of signed rows into `out` in one pass:
/// `out[i] += terms[0].0[i] ± … ± terms[T-1].0[i]` with `true` marking a
/// subtracted term, applied in term order per element.
///
/// This is the fused form of a sequence of [`add_assign`] and
/// elementwise subtract calls:
/// one dispatch for the whole chain, and the x86 kernels prefetch the
/// next terms' rows while the current one streams — each term row is a
/// fresh cache-cold stream, and the hardware prefetcher needs several
/// misses to lock on without the hint. Terms are applied in order, so
/// every element sees the exact same addition chain as the sequential
/// calls — no reassociation, bit-identity holds.
///
/// # Panics
///
/// Panics if any term differs from `out` in length.
pub fn accumulate_signed(out: &mut [f32], terms: &[(&[f32], bool)]) {
    for (src, _) in terms {
        assert_eq!(out.len(), src.len(), "accumulation rows must match in width");
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::accumulate_signed_avx512(out, terms) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::accumulate_signed_avx2(out, terms) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::accumulate_signed_neon(out, terms) },
        _ => scalar::accumulate_signed(out, terms),
    }
}

/// Unpacks the width-`k` tiles of a packed bit-row into `out`, for
/// word-aligned widths (`64 % k == 0`): tile `i` is bits
/// `[i·k, i·k + k)` of `words`, low-aligned. Trailing bits of the final
/// word beyond `out.len()` tiles are ignored.
///
/// # Panics
///
/// Panics if `k` is not a divisor of 64, or if `words` holds fewer than
/// `out.len()` tiles.
pub fn extract_aligned_tiles(words: &[u64], k: usize, out: &mut [u64]) {
    assert!(k > 0 && 64 % k == 0, "tile width must divide 64");
    let tiles_per_word = 64 / k;
    assert!(
        out.len() <= words.len() * tiles_per_word,
        "tile buffer exceeds the packed row ({} tiles from {} words at k = {k})",
        out.len(),
        words.len()
    );
    match level() {
        // AVX-512 hosts take the AVX2 shift kernel too: extraction is a
        // variable 64-bit shift + mask, which gains lanes but no new
        // instruction past AVX2, and the 256-bit form covers the k = 16
        // hot case (4 tiles per word) exactly.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 | SimdLevel::Avx2 => unsafe {
            x86::extract_aligned_tiles_avx2(words, k, out)
        },
        _ => scalar::extract_aligned_tiles(words, k, out),
    }
}

/// Portable reference implementations of every dispatched kernel.
///
/// These are the bit-identity oracles the `simd_equivalence` property
/// suite compares the vector paths against, and the fallback bodies the
/// dispatchers run at [`SimdLevel::Scalar`].
pub mod scalar {
    /// Scalar twin of [`super::popcount_words`].
    pub fn popcount_words(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Scalar twin of [`super::min_hamming`]: left-to-right
    /// strict-improvement scan (lowest position wins ties), stopping on
    /// an exact hit.
    pub fn min_hamming(patterns: &[u64], tile: u64) -> Option<(usize, u32)> {
        let mut best: Option<(usize, u32)> = None;
        for (i, &p) in patterns.iter().enumerate() {
            let d = (p ^ tile).count_ones();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
                if d == 0 {
                    break;
                }
            }
        }
        best
    }

    /// Scalar twin of [`super::min_hamming16`]: the minimum lane key
    /// `(distance << 11) | position` over the plane.
    ///
    /// # Panics
    ///
    /// Panics if `plane.len() > PLANE16_MAX_LEN`.
    pub fn min_hamming16(plane: &[u16], tile: u16) -> Option<(usize, u32)> {
        assert!(plane.len() <= super::PLANE16_MAX_LEN, "a u16 plane holds at most 2048 patterns");
        plane
            .iter()
            .enumerate()
            .map(|(i, &p)| ((p ^ tile).count_ones() << 11) | i as u32)
            .min()
            .map(super::unkey16)
    }

    /// Scalar twin of [`super::Hamming16::match_lanes16`]: each lane on
    /// its own, over its own plane only (no padding, no fold), by the
    /// [`min_hamming16`] twin and the assignment rule, starting from
    /// "unassigned, corrections = the tile". Two tiles keep that without
    /// a probe: an empty one has no bit count to beat, and a single-bit
    /// one can only be assigned an exact copy, which the lane's one-hot
    /// union rules out (calibration filters one-hot patterns, so this is
    /// the common case).
    pub fn match_lanes16(
        group: super::LaneGroup<'_>,
        tiles: &[u64; super::LANE_WORDS],
        masks: &[u64; super::LANE_WORDS],
        l1: &mut [u16; super::LANE_GROUP],
        diff: &mut [u64; super::LANE_WORDS],
    ) {
        *diff = *tiles;
        l1.fill(u16::MAX);
        for (lane, slot) in l1.iter_mut().enumerate() {
            let (word, shift) = (lane / 4, 16 * (lane % 4));
            let tile = (tiles[word] >> shift) as u16;
            if tile == 0 || (tile.is_power_of_two() && tile & group.one_hot[lane] == 0) {
                continue;
            }
            let plane = group.plane(lane);
            match min_hamming16(plane, tile) {
                Some((j, d)) if d < tile.count_ones() => {
                    *slot = j as u16;
                    let bits = (plane[j] & (masks[word] >> shift) as u16) ^ tile;
                    diff[word] = diff[word] & !(0xFFFF << shift) | u64::from(bits) << shift;
                }
                _ => {}
            }
        }
    }

    /// Scalar twin of [`super::add_assign`].
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn add_assign(out: &mut [f32], src: &[f32]) {
        assert_eq!(out.len(), src.len(), "accumulation rows must match in width");
        for (a, &v) in out.iter_mut().zip(src) {
            *a += v;
        }
    }

    /// Elementwise `out[i] -= src[i]`, the subtracted terms of
    /// [`accumulate_signed`].
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn sub_assign(out: &mut [f32], src: &[f32]) {
        assert_eq!(out.len(), src.len(), "accumulation rows must match in width");
        for (a, &v) in out.iter_mut().zip(src) {
            *a -= v;
        }
    }

    /// Scalar twin of [`super::accumulate_signed`]: the plain term-major
    /// sweep (one [`add_assign`] / [`sub_assign`] pass per term).
    ///
    /// # Panics
    ///
    /// Panics if any term differs from `out` in length.
    pub fn accumulate_signed(out: &mut [f32], terms: &[(&[f32], bool)]) {
        for &(src, negate) in terms {
            if negate {
                sub_assign(out, src);
            } else {
                add_assign(out, src);
            }
        }
    }

    /// Scalar twin of [`super::extract_aligned_tiles`].
    ///
    /// # Panics
    ///
    /// Same conditions as the dispatcher.
    pub fn extract_aligned_tiles(words: &[u64], k: usize, out: &mut [u64]) {
        assert!(k > 0 && 64 % k == 0, "tile width must divide 64");
        let tiles_per_word = 64 / k;
        let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        let mut part = 0usize;
        for &word in words {
            let n = tiles_per_word.min(out.len() - part);
            for (j, slot) in out[part..part + n].iter_mut().enumerate() {
                *slot = (word >> (j * k)) & mask;
            }
            part += n;
            if part == out.len() {
                break;
            }
        }
        assert_eq!(part, out.len(), "packed row holds fewer tiles than the buffer");
    }
}

/// x86-64 AVX2 / AVX-512 kernel bodies.
///
/// Every function is `unsafe` solely because of its `#[target_feature]`
/// attribute; the dispatcher guarantees the feature is present before
/// calling (runtime `is_x86_feature_detected!`, cached in [`LEVEL`]).
/// All memory access is through `loadu`/`storeu` on slice-derived
/// pointers with explicit remainder handling, so no alignment or bounds
/// invariants beyond the borrow checker's are assumed.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// 64-bit lane popcount via the nibble-LUT + `psadbw` reduction
    /// (Muła's method): per-byte counts from two 4-bit table lookups,
    /// summed into each 64-bit lane by the sum-of-absolute-differences
    /// against zero.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn popcount_epi64_avx2(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn popcount_words_avx2(words: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = words.chunks_exact(4);
        let tail = chunks.remainder();
        for chunk in chunks {
            // SAFETY: `chunk` is 4 contiguous u64s; unaligned load.
            let v = _mm256_loadu_si256(chunk.as_ptr().cast());
            acc = _mm256_add_epi64(acc, popcount_epi64_avx2(v));
        }
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 32 writable bytes; unaligned store.
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().sum::<u64>() + super::scalar::popcount_words(tail)
    }

    /// # Safety
    ///
    /// Caller must ensure AVX-512F and AVX-512VPOPCNTDQ are available.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn popcount_words_avx512(words: &[u64]) -> u64 {
        let mut acc = _mm512_setzero_si512();
        let chunks = words.chunks_exact(8);
        let tail = chunks.remainder();
        for chunk in chunks {
            // SAFETY: `chunk` is 8 contiguous u64s; unaligned load.
            let v = _mm512_loadu_si512(chunk.as_ptr().cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64 + super::scalar::popcount_words(tail)
    }

    /// First-minimum scan, 4 distances per iteration. Lanes are checked
    /// in ascending order with strict `<`, which preserves the scalar
    /// scan's lowest-position tie rule exactly.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_hamming_avx2(patterns: &[u64], tile: u64) -> Option<(usize, u32)> {
        if patterns.is_empty() {
            return None;
        }
        let t = _mm256_set1_epi64x(tile as i64);
        let mut best_i = 0usize;
        let mut best_d = u32::MAX;
        let chunks = patterns.chunks_exact(4);
        let tail_at = patterns.len() - chunks.remainder().len();
        for (ci, chunk) in chunks.enumerate() {
            // SAFETY: `chunk` is 4 contiguous u64s; unaligned load.
            let v = _mm256_loadu_si256(chunk.as_ptr().cast());
            let d = popcount_epi64_avx2(_mm256_xor_si256(v, t));
            let mut lanes = [0u64; 4];
            // SAFETY: `lanes` is 32 writable bytes; unaligned store.
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), d);
            for (li, &dl) in lanes.iter().enumerate() {
                if (dl as u32) < best_d {
                    best_d = dl as u32;
                    best_i = ci * 4 + li;
                    if best_d == 0 {
                        return Some((best_i, 0));
                    }
                }
            }
        }
        for (i, &p) in patterns.iter().enumerate().skip(tail_at) {
            let d = (p ^ tile).count_ones();
            if d < best_d {
                best_d = d;
                best_i = i;
                if d == 0 {
                    break;
                }
            }
        }
        Some((best_i, best_d))
    }

    /// First-minimum scan, 8 distances per iteration; same lane-order
    /// tie rule as [`min_hamming_avx2`].
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F and AVX-512VPOPCNTDQ are available.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn min_hamming_avx512(patterns: &[u64], tile: u64) -> Option<(usize, u32)> {
        if patterns.is_empty() {
            return None;
        }
        let t = _mm512_set1_epi64(tile as i64);
        let mut best_i = 0usize;
        let mut best_d = u32::MAX;
        let chunks = patterns.chunks_exact(8);
        let tail_at = patterns.len() - chunks.remainder().len();
        for (ci, chunk) in chunks.enumerate() {
            // SAFETY: `chunk` is 8 contiguous u64s; unaligned load.
            let v = _mm512_loadu_si512(chunk.as_ptr().cast());
            let d = _mm512_popcnt_epi64(_mm512_xor_si512(v, t));
            // Skip the in-order lane walk whenever the chunk cannot
            // improve on the running best.
            let chunk_min = _mm512_reduce_min_epu64(d) as u32;
            if chunk_min >= best_d {
                continue;
            }
            let mut lanes = [0u64; 8];
            // SAFETY: `lanes` is 64 writable bytes; unaligned store.
            _mm512_storeu_si512(lanes.as_mut_ptr().cast(), d);
            for (li, &dl) in lanes.iter().enumerate() {
                if dl as u32 == chunk_min {
                    best_d = chunk_min;
                    best_i = ci * 8 + li;
                    break;
                }
            }
            if best_d == 0 {
                return Some((best_i, 0));
            }
        }
        for (i, &p) in patterns.iter().enumerate().skip(tail_at) {
            let d = (p ^ tile).count_ones();
            if d < best_d {
                best_d = d;
                best_i = i;
                if d == 0 {
                    break;
                }
            }
        }
        Some((best_i, best_d))
    }

    /// Lane positions `0..32`, the starting index vector of the
    /// [`super::min_hamming16`] kernels.
    #[rustfmt::skip]
    static LANES16: [u16; 32] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
    ];

    /// Brute-force `u16` plane probe, 32 lanes per iteration: `vpopcntw`
    /// distances shifted over the lane positions, an unsigned `vpminuw`
    /// running minimum (the tail's missing lanes masked out of both the
    /// load and the minimum), then a 512 → 256 → 128 fold and
    /// `phminposuw`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F, AVX-512BW and AVX-512BITALG are
    /// available.
    #[target_feature(enable = "avx512f,avx512bw,avx512bitalg")]
    #[inline]
    pub unsafe fn min_hamming16_avx512(plane: &[u16], tile: u16) -> Option<(usize, u32)> {
        assert!(plane.len() <= super::PLANE16_MAX_LEN, "a u16 plane holds at most 2048 patterns");
        if plane.is_empty() {
            return None;
        }
        let t = _mm512_set1_epi16(tile as i16);
        let step = _mm512_set1_epi16(32);
        // SAFETY: `LANES16` is 64 readable bytes; unaligned load.
        let mut idx = _mm512_loadu_si512(LANES16.as_ptr().cast());
        let mut best = _mm512_set1_epi16(-1);
        let n = plane.len();
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: `i + 32 <= n`; unaligned load.
            let p = _mm512_loadu_si512(plane.as_ptr().add(i).cast());
            let d = _mm512_popcnt_epi16(_mm512_xor_si512(p, t));
            best = _mm512_min_epu16(best, _mm512_or_si512(_mm512_slli_epi16::<11>(d), idx));
            idx = _mm512_add_epi16(idx, step);
            i += 32;
        }
        if i < n {
            let live: __mmask32 = (1u32 << (n - i)) - 1;
            // SAFETY: masked-off lanes are neither read nor faulted on.
            let p = _mm512_maskz_loadu_epi16(live, plane.as_ptr().add(i).cast());
            let d = _mm512_popcnt_epi16(_mm512_xor_si512(p, t));
            let key = _mm512_or_si512(_mm512_slli_epi16::<11>(d), idx);
            best = _mm512_mask_min_epu16(best, live, best, key);
        }
        let half =
            _mm256_min_epu16(_mm512_castsi512_si256(best), _mm512_extracti64x4_epi64::<1>(best));
        let quarter =
            _mm_min_epu16(_mm256_castsi256_si128(half), _mm256_extracti128_si256::<1>(half));
        let key = _mm_cvtsi128_si32(_mm_minpos_epu16(quarter)) as u32 & 0xFFFF;
        Some(super::unkey16(key))
    }

    /// Per-lane popcount of 16 `u16` lanes: nibble-LUT byte popcounts
    /// summed pairwise by `vpmaddubsw`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn popcount_epi16_avx2(x: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(x, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(x), low_mask);
        let bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_maddubs_epi16(bytes, _mm256_set1_epi8(1))
    }

    /// The 16 lane keys `(popcount(p ^ t) << 11) | idx` of one AVX2
    /// vector.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn keys16_avx2(p: __m256i, t: __m256i, idx: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi16::<11>(popcount_epi16_avx2(_mm256_xor_si256(p, t))), idx)
    }

    /// [`min_hamming16_avx512`] on 16-lane AVX2 vectors. The tail is
    /// copied into a zeroed buffer and its missing lanes forced to the
    /// all-ones key, which never wins the minimum.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn min_hamming16_avx2(plane: &[u16], tile: u16) -> Option<(usize, u32)> {
        assert!(plane.len() <= super::PLANE16_MAX_LEN, "a u16 plane holds at most 2048 patterns");
        if plane.is_empty() {
            return None;
        }
        let t = _mm256_set1_epi16(tile as i16);
        let step = _mm256_set1_epi16(16);
        // SAFETY: `LANES16` holds at least 32 readable bytes.
        let mut idx = _mm256_loadu_si256(LANES16.as_ptr().cast());
        let mut best = _mm256_set1_epi16(-1);
        let n = plane.len();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n`; unaligned load.
            let p = _mm256_loadu_si256(plane.as_ptr().add(i).cast());
            best = _mm256_min_epu16(best, keys16_avx2(p, t, idx));
            idx = _mm256_add_epi16(idx, step);
            i += 16;
        }
        if i < n {
            let mut tail = [0u16; 16];
            tail[..n - i].copy_from_slice(&plane[i..]);
            // SAFETY: `tail` is 32 readable bytes.
            let p = _mm256_loadu_si256(tail.as_ptr().cast());
            // Positions fit i16 (n <= 2048), so the signed compare is exact.
            let live = _mm256_cmpgt_epi16(_mm256_set1_epi16(n as i16), idx);
            let dead = _mm256_andnot_si256(live, _mm256_set1_epi16(-1));
            let key = _mm256_or_si256(keys16_avx2(p, t, idx), dead);
            best = _mm256_min_epu16(best, key);
        }
        let quarter =
            _mm_min_epu16(_mm256_castsi256_si128(best), _mm256_extracti128_si256::<1>(best));
        let key = _mm_cvtsi128_si32(_mm_minpos_epu16(quarter)) as u32 & 0xFFFF;
        Some(super::unkey16(key))
    }

    /// One lane-matcher step at AVX-512: the 32 keys
    /// `(popcount(p ^ t) << 11) | j` of step `j`, folded into the running
    /// best key and, where the key won, the pattern bits.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F, AVX-512BW and AVX-512BITALG are
    /// available.
    #[target_feature(enable = "avx512f,avx512bw,avx512bitalg")]
    #[inline]
    unsafe fn lane_step_avx512(
        step: &super::LaneStep,
        t: __m512i,
        j: __m512i,
        best: &mut __m512i,
        bits: &mut __m512i,
    ) {
        // SAFETY: a `LaneStep` is 64 bytes aligned to 64.
        let p = _mm512_load_si512(step.0.as_ptr().cast());
        let key = _mm512_or_si512(
            _mm512_slli_epi16::<11>(_mm512_popcnt_epi16(_mm512_xor_si512(p, t))),
            j,
        );
        // Keys carry their step, so they never tie: `key < best` is
        // exactly where the minimum moves.
        let won = _mm512_cmplt_epu16_mask(key, *best);
        *best = _mm512_min_epu16(*best, key);
        *bits = _mm512_mask_mov_epi16(*bits, won, p);
    }

    /// [`super::Hamming16::match_lanes16`] on one 512-bit vector of 32
    /// lanes, sweeping every step of the group (padding included).
    /// Even and odd steps run in two accumulators, merged at the end, so
    /// consecutive steps do not wait on each other's minimum. A folded
    /// group repeats its tiles across the replicas, and the replicas'
    /// keys are merged pairwise by lane permutes after the sweep.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F, AVX-512BW and AVX-512BITALG are
    /// available.
    #[target_feature(enable = "avx512f,avx512bw,avx512bitalg")]
    #[inline]
    pub unsafe fn match_lanes16_avx512(
        group: super::LaneGroup<'_>,
        tiles: &[u64; super::LANE_WORDS],
        masks: &[u64; super::LANE_WORDS],
        l1: &mut [u16; super::LANE_GROUP],
        diff: &mut [u64; super::LANE_WORDS],
    ) {
        // SAFETY (loads and stores below): every array is 64 bytes;
        // unaligned access.
        let t = _mm512_loadu_si512(tiles.as_ptr().cast());
        let lanes = _mm512_loadu_si512(LANES16.as_ptr().cast());
        let fold = group.fold;
        let width = (super::LANE_GROUP >> fold) as i16;
        // Lane `v` sweeps tile `v mod width`, starting at pattern
        // `v / width` (its replica) and advancing by the replica count.
        let swept =
            _mm512_permutexvar_epi16(_mm512_and_si512(lanes, _mm512_set1_epi16(width - 1)), t);
        let replica_shift = super::LANE_GROUP.trailing_zeros() - fold;
        let j0 = _mm512_srl_epi16(lanes, _mm_cvtsi32_si128(replica_shift as i32));
        let stride = _mm512_set1_epi16(1 << fold);
        let (mut best0, mut best1) = (_mm512_set1_epi16(-1), _mm512_set1_epi16(-1));
        let (mut bits0, mut bits1) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        let (mut j0, mut j1) = (j0, _mm512_add_epi16(j0, stride));
        let pair_stride = _mm512_add_epi16(stride, stride);
        let mut pairs = group.steps.chunks_exact(2);
        for pair in pairs.by_ref() {
            lane_step_avx512(&pair[0], swept, j0, &mut best0, &mut bits0);
            lane_step_avx512(&pair[1], swept, j1, &mut best1, &mut bits1);
            j0 = _mm512_add_epi16(j0, pair_stride);
            j1 = _mm512_add_epi16(j1, pair_stride);
        }
        if let [last] = pairs.remainder() {
            lane_step_avx512(last, swept, j0, &mut best0, &mut bits0);
        }
        let odd_won = _mm512_cmplt_epu16_mask(best1, best0);
        let mut best = _mm512_min_epu16(best0, best1);
        let mut bits = _mm512_mask_mov_epi16(bits0, odd_won, bits1);
        // Merge the replicas: halve their count until lanes `0..width`
        // hold every pattern's verdict. Keys still never tie.
        let mut shift = super::LANE_GROUP as i16 / 2;
        while shift >= width {
            let from = _mm512_add_epi16(lanes, _mm512_set1_epi16(shift));
            let (other, other_bits) =
                (_mm512_permutexvar_epi16(from, best), _mm512_permutexvar_epi16(from, bits));
            let won = _mm512_cmplt_epu16_mask(other, best);
            best = _mm512_min_epu16(best, other);
            bits = _mm512_mask_mov_epi16(bits, won, other_bits);
            shift /= 2;
        }
        // Lanes from `width` on hold replicas, but their tiles are the
        // group's empty padding, which is never assigned.
        // distance < popcount(tile)  <=>  key < popcount(tile) << 11.
        let assigned =
            _mm512_cmplt_epu16_mask(best, _mm512_slli_epi16::<11>(_mm512_popcnt_epi16(t)));
        let index = _mm512_and_si512(best, _mm512_set1_epi16(0x7FF));
        let m = _mm512_loadu_si512(masks.as_ptr().cast());
        let corrected = _mm512_xor_si512(_mm512_and_si512(bits, m), t);
        _mm512_storeu_si512(
            l1.as_mut_ptr().cast(),
            _mm512_mask_mov_epi16(_mm512_set1_epi16(-1), assigned, index),
        );
        _mm512_storeu_si512(
            diff.as_mut_ptr().cast(),
            _mm512_mask_mov_epi16(t, assigned, corrected),
        );
    }

    /// One lane-matcher step at AVX2 for one 16-lane half: the
    /// [`lane_step_avx512`] update, with the unsigned compare AVX2 lacks
    /// read off the new minimum (keys never tie, so the minimum equals
    /// the key exactly where the key won).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lane_step_avx2(
        p: __m256i,
        t: __m256i,
        j: __m256i,
        best: &mut __m256i,
        bits: &mut __m256i,
    ) {
        let key = keys16_avx2(p, t, j);
        *best = _mm256_min_epu16(*best, key);
        *bits = _mm256_blendv_epi8(*bits, p, _mm256_cmpeq_epi16(*best, key));
    }

    /// [`match_lanes16_avx512`] on two 256-bit halves of 16 lanes, which
    /// are the two independent accumulators. A folded group's replicas
    /// are laid out and merged in scalar code, once per call.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn match_lanes16_avx2(
        group: super::LaneGroup<'_>,
        tiles: &[u64; super::LANE_WORDS],
        masks: &[u64; super::LANE_WORDS],
        l1: &mut [u16; super::LANE_GROUP],
        diff: &mut [u64; super::LANE_WORDS],
    ) {
        // SAFETY (loads and stores below): every array and step is 64
        // bytes, read and written as two unaligned 32-byte halves.
        let t = [
            _mm256_loadu_si256(tiles.as_ptr().cast()),
            _mm256_loadu_si256(tiles.as_ptr().add(4).cast()),
        ];
        let fold = group.fold;
        let width = super::LANE_GROUP >> fold;
        let (mut swept, mut j) = (t, [_mm256_setzero_si256(); 2]);
        if fold > 0 {
            let (mut rep, mut start) = ([0u16; super::LANE_GROUP], [0u16; super::LANE_GROUP]);
            for (v, (r, s)) in rep.iter_mut().zip(&mut start).enumerate() {
                let lane = v % width;
                *r = (tiles[lane / 4] >> (16 * (lane % 4))) as u16;
                *s = (v / width) as u16;
            }
            for h in 0..2 {
                swept[h] = _mm256_loadu_si256(rep.as_ptr().add(16 * h).cast());
                j[h] = _mm256_loadu_si256(start.as_ptr().add(16 * h).cast());
            }
        }
        let mut best = [_mm256_set1_epi16(-1); 2];
        let mut bits = [_mm256_setzero_si256(); 2];
        let stride = _mm256_set1_epi16(1 << fold);
        for step in group.steps {
            let p = step.0.as_ptr();
            let (p0, p1) = (_mm256_loadu_si256(p.cast()), _mm256_loadu_si256(p.add(16).cast()));
            let [best0, best1] = &mut best;
            let [bits0, bits1] = &mut bits;
            lane_step_avx2(p0, swept[0], j[0], best0, bits0);
            lane_step_avx2(p1, swept[1], j[1], best1, bits1);
            j = [_mm256_add_epi16(j[0], stride), _mm256_add_epi16(j[1], stride)];
        }
        if fold > 0 {
            let (mut keys, mut pats) = ([0u16; super::LANE_GROUP], [0u16; super::LANE_GROUP]);
            for h in 0..2 {
                _mm256_storeu_si256(keys.as_mut_ptr().add(16 * h).cast(), best[h]);
                _mm256_storeu_si256(pats.as_mut_ptr().add(16 * h).cast(), bits[h]);
            }
            let mut shift = super::LANE_GROUP / 2;
            while shift >= width {
                for v in 0..shift {
                    if keys[v + shift] < keys[v] {
                        keys[v] = keys[v + shift];
                        pats[v] = pats[v + shift];
                    }
                }
                shift /= 2;
            }
            for h in 0..2 {
                best[h] = _mm256_loadu_si256(keys.as_ptr().add(16 * h).cast());
                bits[h] = _mm256_loadu_si256(pats.as_ptr().add(16 * h).cast());
            }
        }
        let index_mask = _mm256_set1_epi16(0x7FF);
        let none = _mm256_set1_epi16(-1);
        for h in 0..2 {
            // Distances (<= 31) and popcounts (<= 16) fit i16, so the
            // signed compare is exact.
            let distance = _mm256_srli_epi16::<11>(best[h]);
            let assigned = _mm256_cmpgt_epi16(popcount_epi16_avx2(t[h]), distance);
            let index = _mm256_and_si256(best[h], index_mask);
            let m = _mm256_loadu_si256(masks.as_ptr().add(4 * h).cast());
            let corrected = _mm256_xor_si256(_mm256_and_si256(bits[h], m), t[h]);
            _mm256_storeu_si256(
                l1.as_mut_ptr().add(16 * h).cast(),
                _mm256_blendv_epi8(none, index, assigned),
            );
            _mm256_storeu_si256(
                diff.as_mut_ptr().add(4 * h).cast(),
                _mm256_blendv_epi8(t[h], corrected, assigned),
            );
        }
    }

    /// The AVX-512 [`super::Hamming16`] tier; only [`sweep16_avx512`]
    /// constructs it, after the dispatcher checked the features.
    #[derive(Clone, Copy)]
    struct Avx512Tier(());

    impl super::Hamming16 for Avx512Tier {
        #[inline(always)]
        fn match_lanes16(
            self,
            group: super::LaneGroup<'_>,
            tiles: &[u64; super::LANE_WORDS],
            masks: &[u64; super::LANE_WORDS],
            l1: &mut [u16; super::LANE_GROUP],
            diff: &mut [u64; super::LANE_WORDS],
        ) {
            // SAFETY: an `Avx512Tier` exists only inside
            // `sweep16_avx512`, which the dispatcher enters after
            // detecting AVX-512F/BW/BITALG.
            unsafe { match_lanes16_avx512(group, tiles, masks, l1, diff) }
        }
    }

    /// The AVX2 [`super::Hamming16`] tier; only [`sweep16_avx2`]
    /// constructs it.
    #[derive(Clone, Copy)]
    struct Avx2Tier(());

    impl super::Hamming16 for Avx2Tier {
        #[inline(always)]
        fn match_lanes16(
            self,
            group: super::LaneGroup<'_>,
            tiles: &[u64; super::LANE_WORDS],
            masks: &[u64; super::LANE_WORDS],
            l1: &mut [u16; super::LANE_GROUP],
            diff: &mut [u64; super::LANE_WORDS],
        ) {
            // SAFETY: an `Avx2Tier` exists only inside `sweep16_avx2`,
            // which the dispatcher enters after detecting AVX2.
            unsafe { match_lanes16_avx2(group, tiles, masks, l1, diff) }
        }
    }

    /// Runs a sweep compiled for AVX-512F/BW/BITALG and POPCNT.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F, AVX-512BW, AVX-512BITALG and POPCNT
    /// are available.
    #[target_feature(enable = "avx512f,avx512bw,avx512bitalg,popcnt")]
    pub unsafe fn sweep16_avx512<S: super::Hamming16Sweep>(sweep: S) -> S::Output {
        sweep.run(Avx512Tier(()))
    }

    /// Runs a sweep compiled for AVX2 and POPCNT.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and POPCNT are available.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn sweep16_avx2<S: super::Hamming16Sweep>(sweep: S) -> S::Output {
        sweep.run(Avx2Tier(()))
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and the slices are equal in
    /// length (the dispatcher asserts it).
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_avx2(out: &mut [f32], src: &[f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n == src.len()`; unaligned loads/store.
            let a = _mm256_loadu_ps(out.as_ptr().add(i));
            let b = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(a, b));
            i += 8;
        }
        while i < n {
            out[i] += src[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and the slices are equal in
    /// length (`accumulate_signed` asserts it).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sub_assign_avx2(out: &mut [f32], src: &[f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n == src.len()`; unaligned loads/store.
            let a = _mm256_loadu_ps(out.as_ptr().add(i));
            let b = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_sub_ps(a, b));
            i += 8;
        }
        while i < n {
            out[i] -= src[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and the slices are equal
    /// in length (the dispatcher asserts it).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn add_assign_avx512(out: &mut [f32], src: &[f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n == src.len()`; unaligned loads/store.
            let a = _mm512_loadu_ps(out.as_ptr().add(i));
            let b = _mm512_loadu_ps(src.as_ptr().add(i));
            _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_add_ps(a, b));
            i += 16;
        }
        while i < n {
            out[i] += src[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and the slices are equal
    /// in length (`accumulate_signed` asserts it).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sub_assign_avx512(out: &mut [f32], src: &[f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n == src.len()`; unaligned loads/store.
            let a = _mm512_loadu_ps(out.as_ptr().add(i));
            let b = _mm512_loadu_ps(src.as_ptr().add(i));
            _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_sub_ps(a, b));
            i += 16;
        }
        while i < n {
            out[i] -= src[i];
            i += 1;
        }
    }

    /// Issue prefetches for the head of the next couple of term rows so
    /// their streams are already in flight when the current pass ends.
    /// The accumulation is latency-bound, not bandwidth-bound: term rows
    /// are short (a few cache lines each) and scattered across the PWP
    /// tables and weight matrix, so every term pass otherwise stalls on a
    /// cold stream startup. Prefetching never faults, and the pointers
    /// use `wrapping_add` so going past a short row's end is harmless.
    #[inline(always)]
    unsafe fn prefetch_terms(terms: &[(&[f32], bool)], next: usize) {
        for &(src, _) in terms.iter().skip(next).take(2) {
            let p = src.as_ptr().cast::<i8>();
            _mm_prefetch::<_MM_HINT_T0>(p);
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(64));
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(128));
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(192));
        }
    }

    /// Fused signed accumulation, term-major: `out` is a few cache lines
    /// and stays resident in L1 while each term row is streamed through
    /// it exactly once, with the next rows prefetched ahead of the pass.
    /// The per-element operation order is the term order, so the result
    /// is bit-identical to the scalar sweep.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and every term slice equals
    /// `out` in length (the dispatcher asserts it).
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_signed_avx2(out: &mut [f32], terms: &[(&[f32], bool)]) {
        for (t, &(src, negate)) in terms.iter().enumerate() {
            prefetch_terms(terms, t + 1);
            // SAFETY: dispatcher asserted `src.len() == out.len()`.
            if negate {
                sub_assign_avx2(out, src);
            } else {
                add_assign_avx2(out, src);
            }
        }
    }

    /// [`accumulate_signed_avx2`] over the 16-float AVX-512 kernels.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and every term slice
    /// equals `out` in length (the dispatcher asserts it).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn accumulate_signed_avx512(out: &mut [f32], terms: &[(&[f32], bool)]) {
        for (t, &(src, negate)) in terms.iter().enumerate() {
            prefetch_terms(terms, t + 1);
            // SAFETY: dispatcher asserted `src.len() == out.len()`.
            if negate {
                sub_assign_avx512(out, src);
            } else {
                add_assign_avx512(out, src);
            }
        }
    }

    /// Aligned tile unpack: each source word is broadcast and sheared by
    /// a variable 64-bit shift (`vpsrlvq`) into 4 tile lanes at a time.
    /// Widths with fewer than 4 tiles per word (k = 32, 64) fall back to
    /// the scalar unpack — they are a move apiece either way.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, and the dispatcher's shape
    /// assertions hold (`64 % k == 0`, `out` fits the packed row).
    #[target_feature(enable = "avx2")]
    pub unsafe fn extract_aligned_tiles_avx2(words: &[u64], k: usize, out: &mut [u64]) {
        let tiles_per_word = 64 / k;
        if tiles_per_word < 4 {
            return super::scalar::extract_aligned_tiles(words, k, out);
        }
        let mask = _mm256_set1_epi64x(((1u64 << k) - 1) as i64);
        let base_shift = _mm256_setr_epi64x(0, k as i64, 2 * k as i64, 3 * k as i64);
        let step = _mm256_set1_epi64x(4 * k as i64);
        let mut part = 0usize;
        for &word in words {
            let w = _mm256_set1_epi64x(word as i64);
            let mut shift = base_shift;
            let full = (out.len() - part).min(tiles_per_word);
            let mut j = 0usize;
            while j + 4 <= full {
                let tiles = _mm256_and_si256(_mm256_srlv_epi64(w, shift), mask);
                // SAFETY: `part + j + 4 <= out.len()`; unaligned store.
                _mm256_storeu_si256(out.as_mut_ptr().add(part + j).cast(), tiles);
                shift = _mm256_add_epi64(shift, step);
                j += 4;
            }
            let kmask = (1u64 << k) - 1;
            while j < full {
                out[part + j] = (word >> (j * k)) & kmask;
                j += 1;
            }
            part += full;
            if part == out.len() {
                break;
            }
        }
        assert_eq!(part, out.len(), "packed row holds fewer tiles than the buffer");
    }
}

/// aarch64 NEON kernel bodies (128-bit): byte popcounts via `vcnt`
/// summed per 64-bit lane, and 4-lane `f32` accumulation. `min_hamming`
/// stays scalar on NEON — two 64-bit lanes don't amortize the lane
/// extraction the first-minimum rule needs.
///
/// Every function is `unsafe` for its `#[target_feature]` attribute
/// only; NEON is architecturally guaranteed on aarch64 and the
/// dispatcher only routes here on that architecture.
#[cfg(target_arch = "aarch64")]
mod neon {
    use core::arch::aarch64::*;

    /// # Safety
    ///
    /// NEON must be available (guaranteed on aarch64).
    #[target_feature(enable = "neon")]
    pub unsafe fn popcount_words_neon(words: &[u64]) -> u64 {
        let mut acc = vdupq_n_u64(0);
        let chunks = words.chunks_exact(2);
        let tail = chunks.remainder();
        for chunk in chunks {
            // SAFETY: `chunk` is 2 contiguous u64s.
            let v = vld1q_u64(chunk.as_ptr());
            let counts = vcntq_u8(vreinterpretq_u8_u64(v));
            acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(counts))));
        }
        vgetq_lane_u64::<0>(acc) + vgetq_lane_u64::<1>(acc) + super::scalar::popcount_words(tail)
    }

    /// # Safety
    ///
    /// NEON must be available (guaranteed on aarch64); slices equal in
    /// length (the dispatcher asserts it).
    #[target_feature(enable = "neon")]
    pub unsafe fn add_assign_neon(out: &mut [f32], src: &[f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n == src.len()`.
            let a = vld1q_f32(out.as_ptr().add(i));
            let b = vld1q_f32(src.as_ptr().add(i));
            vst1q_f32(out.as_mut_ptr().add(i), vaddq_f32(a, b));
            i += 4;
        }
        while i < n {
            out[i] += src[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// NEON must be available (guaranteed on aarch64); slices equal in
    /// length (`accumulate_signed` asserts it).
    #[target_feature(enable = "neon")]
    pub unsafe fn sub_assign_neon(out: &mut [f32], src: &[f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n == src.len()`.
            let a = vld1q_f32(out.as_ptr().add(i));
            let b = vld1q_f32(src.as_ptr().add(i));
            vst1q_f32(out.as_mut_ptr().add(i), vsubq_f32(a, b));
            i += 4;
        }
        while i < n {
            out[i] -= src[i];
            i += 1;
        }
    }

    /// Fused signed accumulation, term-major — the NEON shape of
    /// `accumulate_signed_avx2` (same pass order, same bit-identity
    /// argument; no explicit prefetch, aarch64 has no stable intrinsic
    /// for it).
    ///
    /// # Safety
    ///
    /// NEON must be available (guaranteed on aarch64); every term slice
    /// equals `out` in length (the dispatcher asserts it).
    #[target_feature(enable = "neon")]
    pub unsafe fn accumulate_signed_neon(out: &mut [f32], terms: &[(&[f32], bool)]) {
        for &(src, negate) in terms {
            // SAFETY: dispatcher asserted `src.len() == out.len()`.
            if negate {
                sub_assign_neon(out, src);
            } else {
                add_assign_neon(out, src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random word stream (no RNG dependency in
    /// this crate's dev profile beyond what the tests need).
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|_| {
                s ^= s >> 30;
                s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                s ^= s >> 27;
                s = s.wrapping_mul(0x94D0_49BB_1331_11EB);
                s ^ (s >> 31)
            })
            .collect()
    }

    #[test]
    fn dispatched_kernels_match_scalar_twins() {
        // The dispatched functions run at whatever level the host
        // supports; the property suite in phi-core forces each tier
        // explicitly. Here: dispatched == scalar on assorted shapes,
        // including ragged tails and empty inputs.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 64, 129] {
            let ws = words(n as u64, n);
            assert_eq!(popcount_words(&ws), scalar::popcount_words(&ws), "n = {n}");
            let tile = 0xDEAD_BEEF_F00D_u64;
            assert_eq!(min_hamming(&ws, tile), scalar::min_hamming(&ws, tile), "n = {n}");
        }
    }

    #[test]
    fn min_hamming_prefers_the_lowest_position() {
        // Duplicate minima across vector-lane boundaries must resolve to
        // the first position, like the scalar scan.
        let pats = vec![0b1111u64, 0b0110, 0b1001, 0b0110, 0b0110, 0b0111];
        assert_eq!(min_hamming(&pats, 0b0100), Some((1, 1)));
        assert_eq!(min_hamming(&pats, 0b0110), Some((1, 0)));
        assert_eq!(min_hamming(&[], 0b1), None);
    }

    #[test]
    fn min_hamming16_matches_the_first_minimum_scan() {
        // Lengths straddle both vector strides (16 and 32 lanes); folding
        // the words onto 3 bits makes ties at the minimum common.
        for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, PLANE16_MAX_LEN] {
            let plane: Vec<u16> =
                words(n as u64 + 7, n).iter().map(|&w| (w & 0x7) as u16).collect();
            let wide: Vec<u64> = plane.iter().map(|&p| u64::from(p)).collect();
            for tile in [0u16, 0x5, 0xFFFF] {
                let want = scalar::min_hamming(&wide, u64::from(tile));
                assert_eq!(scalar::min_hamming16(&plane, tile), want, "n = {n}");
                assert_eq!(min_hamming16(&plane, tile), want, "n = {n}");
            }
            // Every pattern is 16 bits from tile 0: a tail lane past the
            // plane (a zero pattern at distance 0) must never win.
            let far = vec![u16::MAX; n];
            let want = (n > 0).then_some((0, 16));
            assert_eq!(min_hamming16(&far, 0), want, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 2048 patterns")]
    fn min_hamming16_refuses_an_oversized_plane() {
        min_hamming16(&[0; PLANE16_MAX_LEN + 1], 1);
    }

    #[test]
    fn f32_accumulation_is_bit_identical() {
        for n in [0usize, 1, 7, 8, 15, 16, 17, 64, 100] {
            let src: Vec<f32> =
                words(n as u64, n).iter().map(|&w| (w as f64 / u64::MAX as f64) as f32).collect();
            let mut a: Vec<f32> = src.iter().map(|v| v * 0.5 - 0.1).collect();
            let mut b = a.clone();
            add_assign(&mut a, &src);
            scalar::add_assign(&mut b, &src);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "add n = {n}"
            );
            accumulate_signed(&mut a, &[(&src, true)]);
            scalar::accumulate_signed(&mut b, &[(&src, true)]);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "sub n = {n}"
            );
        }
    }

    #[test]
    fn tile_extraction_matches_scalar_for_every_divisor_width() {
        for k in [1usize, 2, 4, 8, 16, 32, 64] {
            let tiles_per_word = 64 / k;
            for nwords in [1usize, 2, 3, 5] {
                let ws = words(k as u64 * 31 + nwords as u64, nwords);
                for parts in [1, nwords * tiles_per_word - 1, nwords * tiles_per_word] {
                    if parts == 0 {
                        continue;
                    }
                    let mut got = vec![0u64; parts];
                    let mut want = vec![0u64; parts];
                    extract_aligned_tiles(&ws, k, &mut got);
                    scalar::extract_aligned_tiles(&ws, k, &mut want);
                    assert_eq!(got, want, "k = {k}, words = {nwords}, parts = {parts}");
                }
            }
        }
    }

    #[test]
    fn force_clamps_to_the_detected_capability() {
        let prev = force(SimdLevel::Scalar);
        assert_eq!(level(), SimdLevel::Scalar);
        // Forcing a vector tier lands on it only when the host's family
        // supports it, and never exceeds the detected capability.
        force(SimdLevel::Avx512);
        let expect = if detected() == SimdLevel::Neon {
            SimdLevel::Scalar
        } else {
            detected().min(SimdLevel::Avx512)
        };
        assert_eq!(level(), expect);
        force(prev);
        assert_eq!(level(), prev);
    }

    #[test]
    fn simd_knob_accepts_its_spellings() {
        let parse = |raw| crate::env::parse_env("PHI_SIMD", Some(raw), SimdRequest::Auto);
        for raw in ["", "auto"] {
            assert_eq!(parse(raw), SimdRequest::Auto);
        }
        for raw in ["off", "scalar", "0"] {
            assert_eq!(parse(raw), SimdRequest::Fixed(SimdLevel::Scalar));
        }
        assert_eq!(parse("avx2"), SimdRequest::Fixed(SimdLevel::Avx2));
        assert_eq!(parse("avx512"), SimdRequest::Fixed(SimdLevel::Avx512));
        assert_eq!(parse("neon"), SimdRequest::Fixed(SimdLevel::Neon));
        assert_eq!(crate::env::parse_env("PHI_SIMD", None, SimdRequest::Auto), SimdRequest::Auto);
    }

    #[test]
    #[should_panic(expected = "PHI_SIMD=\"avx9\" does not parse")]
    fn unknown_simd_tier_is_refused() {
        crate::env::parse_env("PHI_SIMD", Some("avx9"), SimdRequest::Auto);
    }

    #[test]
    fn levels_have_stable_names() {
        assert_eq!(SimdLevel::Scalar.to_string(), "scalar");
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert_eq!(SimdLevel::Avx512.to_string(), "avx512");
        assert_eq!(SimdLevel::Neon.to_string(), "neon");
    }

    #[test]
    fn hamming64_is_xor_popcount() {
        assert_eq!(hamming64(0b1100, 0b1010), 2);
        assert_eq!(hamming64(u64::MAX, 0), 64);
        assert_eq!(hamming64(42, 42), 0);
    }
}
