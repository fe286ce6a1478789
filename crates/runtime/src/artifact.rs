//! The compiled-model artifact: an immutable, serializable snapshot of
//! everything the offline stage produces.
//!
//! # Binary format (version 2)
//!
//! All integers little-endian; strings are `u32`-length-prefixed UTF-8;
//! floats are stored as their IEEE-754 bit patterns (bit-exact roundtrip).
//!
//! ```text
//! magic      b"PHIC"
//! version    u32                      (currently 2)
//! label      str                      e.g. "VGG16/CIFAR10"
//! k, q       u32, u32                 calibration geometry
//! seed       u64                      compile seed (provenance)
//! layers     u32
//! per layer:
//!   name       str
//!   m, k, n    u64 × 3                GEMM shape
//!   timesteps  u32
//!   patterns   phi_core::wire layer-patterns record
//!   index      phi_core::wire layer-match-index record   (version ≥ 2)
//!   weights?   u8 flag; if 1: rows u32, cols u32, f32 × rows·cols
//! checksum   u64                      FNV-1a over every preceding byte
//! ```
//!
//! Pattern–weight products are *derived* state: they are recomputed from
//! the stored weights on construction and load rather than serialized, so
//! an artifact cannot carry PWPs that disagree with its weights. The
//! per-layer [`phi_core::LayerMatchIndex`] added in version 2 is derived
//! state too, but it *is* serialized (it is part of what the compile
//! stage precomputes for the online hot path); its wire record is fully
//! validated against the pattern sets on load, so it can never disagree
//! with them either. Version-1 artifacts still load — the index is
//! rebuilt from their patterns ([`CompiledLayer::new`] always derives
//! it), and [`CompiledModel::to_bytes_version`] can still write the old
//! layout for downgrade tests.

use crate::error::{Result, RuntimeError};
use phi_core::wire::{self, Reader};
use phi_core::{LayerMatchIndex, LayerPatterns, PwpTable};
use snn_core::{GemmShape, Matrix};
use std::path::Path;

/// First four bytes of every compiled artifact.
pub const MAGIC: [u8; 4] = *b"PHIC";

/// The artifact format version this build writes.
pub const FORMAT_VERSION: u32 = 2;

/// The oldest artifact format version this build still reads (version 1
/// predates the serialized match index, which is rebuilt on load).
pub const OLDEST_SUPPORTED_VERSION: u32 = 1;

/// One layer of a compiled model: calibrated patterns plus (optionally)
/// the weights and their precomputed pattern–weight products.
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    /// Layer name, carried into serve-time reports.
    pub name: String,
    /// GEMM shape of the layer.
    pub shape: GemmShape,
    /// SNN timesteps per inference.
    pub timesteps: usize,
    /// Calibrated pattern sets, one per width-`k` partition.
    pub patterns: LayerPatterns,
    /// Per-partition popcount-bucketed match indexes derived from
    /// `patterns` — the serve-time decomposition probes these instead of
    /// scanning every pattern. The wire record stores only bucket
    /// membership; deserialization rebuilds each index's contiguous
    /// bit-plane layout (see [`phi_core::MatchIndex::from_buckets`]), so
    /// loaded artifacts probe through the batched SIMD Hamming kernels
    /// exactly like freshly compiled ones.
    pub match_index: LayerMatchIndex,
    /// Layer weights (`K × N`), when compiled with them.
    pub weights: Option<Matrix>,
    /// Pattern–weight products derived from `weights` (never serialized).
    pub pwp: Option<PwpTable>,
}

impl CompiledLayer {
    /// Assembles a layer, deriving the match index and (when weights are
    /// present) the PWP table.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the pattern partitioning (the
    /// compiler constructs both from the same shape, so a mismatch is a
    /// caller bug, not a data condition).
    pub fn new(
        name: String,
        shape: GemmShape,
        timesteps: usize,
        patterns: LayerPatterns,
        weights: Option<Matrix>,
    ) -> Self {
        let match_index = LayerMatchIndex::new(&patterns);
        CompiledLayer::with_index(name, shape, timesteps, patterns, match_index, weights)
    }

    /// [`CompiledLayer::new`] with a ready-made match index — the
    /// format-v2 load path, which already parsed (and exhaustively
    /// validated, see [`phi_core::wire::read_match_index`]) the index
    /// record instead of rebuilding it.
    fn with_index(
        name: String,
        shape: GemmShape,
        timesteps: usize,
        patterns: LayerPatterns,
        match_index: LayerMatchIndex,
        weights: Option<Matrix>,
    ) -> Self {
        debug_assert_eq!(match_index, LayerMatchIndex::new(&patterns));
        let pwp = weights
            .as_ref()
            .map(|w| PwpTable::new(&patterns, w).expect("weights must match patterns"));
        CompiledLayer { name, shape, timesteps, patterns, match_index, weights, pwp }
    }

    /// Total activation rows of one full inference (`M × timesteps`).
    pub fn total_rows(&self) -> usize {
        self.shape.m * self.timesteps
    }
}

/// An immutable compiled model: the offline product that serve-time
/// traffic shares read-only (typically behind an `Arc`).
///
/// See the [crate-level example](crate) for the compile → serialize →
/// load → serve roundtrip.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    label: String,
    k: usize,
    q: usize,
    seed: u64,
    layers: Vec<CompiledLayer>,
}

impl CompiledModel {
    /// Assembles a model from compiled layers.
    pub fn new(label: String, k: usize, q: usize, seed: u64, layers: Vec<CompiledLayer>) -> Self {
        CompiledModel { label, k, q, seed, layers }
    }

    /// Human-readable model label (e.g. `"VGG16/CIFAR10"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Partition width the patterns were calibrated at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pattern budget per partition.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Seed the compile ran with (provenance only).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The compiled layers, in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// The readout layer (the last layer), whose functional output is a
    /// request's result.
    ///
    /// # Panics
    ///
    /// Panics if the model has no layers.
    pub fn readout(&self) -> &CompiledLayer {
        self.layers.last().expect("compiled model has at least one layer")
    }

    /// Total calibrated patterns across layers and partitions.
    pub fn total_patterns(&self) -> usize {
        self.layers.iter().map(|l| l.patterns.total_patterns()).sum()
    }

    /// Serializes the artifact to the current binary format
    /// ([`FORMAT_VERSION`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_version(FORMAT_VERSION).expect("current format version is writable")
    }

    /// Serializes the artifact in an explicit format version — the
    /// current one, or an older still-supported layout (compatibility
    /// testing, serving fleets mid-upgrade). Version 1 simply omits the
    /// per-layer match-index records; loading it rebuilds them.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnsupportedVersion`] for a version outside
    /// [`OLDEST_SUPPORTED_VERSION`]`..=`[`FORMAT_VERSION`].
    pub fn to_bytes_version(&self, version: u32) -> Result<Vec<u8>> {
        if !(OLDEST_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(RuntimeError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        wire::put_u32(&mut out, version);
        wire::put_str(&mut out, &self.label);
        wire::put_u32(&mut out, self.k as u32);
        wire::put_u32(&mut out, self.q as u32);
        wire::put_u64(&mut out, self.seed);
        wire::put_u32(&mut out, self.layers.len() as u32);
        for layer in &self.layers {
            wire::put_str(&mut out, &layer.name);
            wire::put_u64(&mut out, layer.shape.m as u64);
            wire::put_u64(&mut out, layer.shape.k as u64);
            wire::put_u64(&mut out, layer.shape.n as u64);
            wire::put_u32(&mut out, layer.timesteps as u32);
            wire::write_layer_patterns(&layer.patterns, &mut out);
            if version >= 2 {
                wire::write_layer_match_index(&layer.match_index, &mut out);
            }
            match &layer.weights {
                Some(w) => {
                    out.push(1);
                    wire::put_u32(&mut out, w.rows() as u32);
                    wire::put_u32(&mut out, w.cols() as u32);
                    for &v in w.as_slice() {
                        wire::put_f32(&mut out, v);
                    }
                }
                None => out.push(0),
            }
        }
        let checksum = fnv1a(&out);
        wire::put_u64(&mut out, checksum);
        Ok(out)
    }

    /// Deserializes an artifact, verifying magic, version, checksum, and
    /// every embedded record.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] for a foreign or truncated buffer, an
    /// unsupported version, a checksum mismatch, trailing bytes, or any
    /// corrupt embedded record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(RuntimeError::Wire(wire::WireError::Truncated {
                at: bytes.len(),
                needed: MAGIC.len() + 4 + 8 - bytes.len(),
            }));
        }
        if bytes[..4] != MAGIC {
            return Err(RuntimeError::BadMagic { found: bytes[..4].try_into().expect("4 bytes") });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(RuntimeError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader::new(body);
        r.bytes(4).expect("magic length checked above");
        let version = r.u32()?;
        if !(OLDEST_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(RuntimeError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let label = r.str()?;
        let k = r.u32()? as usize;
        let q = r.u32()? as usize;
        let seed = r.u64()?;
        let layer_count = r.u32()? as usize;
        // A model without layers has no readout: refuse it here rather
        // than let the first session or request panic on it.
        if layer_count == 0 {
            return Err(RuntimeError::Shape { op: "layer count", expected: 1, actual: 0 });
        }
        let mut layers = Vec::with_capacity(layer_count.min(1024));
        for _ in 0..layer_count {
            let name = r.str()?;
            let m = r.u64()? as usize;
            let kk = r.u64()? as usize;
            let n = r.u64()? as usize;
            let timesteps = r.u32()? as usize;
            // Degenerate or overflowing geometry must fail here, not panic
            // a serving process later: every dimension is at least 1 and
            // M × timesteps (a full inference's rows) must fit a usize.
            for (op, value) in
                [("layer m", m), ("layer k", kk), ("layer n", n), ("layer timesteps", timesteps)]
            {
                if value == 0 {
                    return Err(RuntimeError::Shape { op, expected: 1, actual: 0 });
                }
            }
            if m.checked_mul(timesteps).is_none() {
                return Err(RuntimeError::Shape {
                    op: "layer rows (m x timesteps)",
                    expected: usize::MAX,
                    actual: m,
                });
            }
            let patterns = wire::read_layer_patterns(&mut r)?;
            if patterns.k() != k {
                return Err(RuntimeError::Shape {
                    op: "layer pattern width",
                    expected: k,
                    actual: patterns.k(),
                });
            }
            if patterns.num_partitions() != kk.div_ceil(k) {
                return Err(RuntimeError::Shape {
                    op: "layer partition count",
                    expected: kk.div_ceil(k),
                    actual: patterns.num_partitions(),
                });
            }
            // A version-2 artifact carries the index; its wire record is
            // fully validated against the pattern sets (range, bucketing,
            // ordering, coverage), which pins it to exactly the index a
            // rebuild would produce. A version-1 artifact has no record,
            // so the index is rebuilt from the patterns.
            let match_index = if version >= 2 {
                wire::read_layer_match_index(&mut r, &patterns)?
            } else {
                LayerMatchIndex::new(&patterns)
            };
            let weights = match r.u8()? {
                0 => None,
                1 => {
                    let rows = r.u32()? as usize;
                    let cols = r.u32()? as usize;
                    if rows != kk || cols != n {
                        return Err(RuntimeError::Shape {
                            op: "weight matrix shape",
                            expected: kk.saturating_mul(n),
                            actual: rows.saturating_mul(cols),
                        });
                    }
                    let count = rows
                        .checked_mul(cols)
                        .filter(|&c| c.checked_mul(4).is_some_and(|b| b <= r.remaining()))
                        .ok_or(wire::WireError::Truncated {
                            at: r.position(),
                            needed: rows.saturating_mul(cols).saturating_mul(4),
                        })?;
                    let mut data = Vec::with_capacity(count);
                    for _ in 0..count {
                        data.push(r.f32()?);
                    }
                    Some(Matrix::from_vec(rows, cols, data).expect("length checked"))
                }
                other => {
                    return Err(RuntimeError::Wire(wire::WireError::Corrupt {
                        at: r.position(),
                        reason: format!("invalid weights flag {other}"),
                    }))
                }
            };
            layers.push(CompiledLayer::with_index(
                name,
                GemmShape::new(m, kk, n),
                timesteps,
                patterns,
                match_index,
                weights,
            ));
        }
        if !r.is_exhausted() {
            return Err(RuntimeError::TrailingBytes { extra: r.remaining() });
        }
        Ok(CompiledModel { label, k, q, seed, layers })
    }

    /// Writes the artifact to a file.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(&path, self.to_bytes())
            .map_err(|e| RuntimeError::Io(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Reads and validates an artifact from a file.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Io`] on filesystem failures and the
    /// [`Self::from_bytes`] errors on invalid content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(&path)
            .map_err(|e| RuntimeError::Io(format!("read {}: {e}", path.as_ref().display())))?;
        Self::from_bytes(&bytes)
    }
}

/// FNV-1a 64-bit hash — the artifact's integrity checksum (corruption
/// detection, not cryptographic authentication).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_core::{Pattern, PatternSet};

    fn tiny_model(weights: bool) -> CompiledModel {
        let patterns = LayerPatterns::new(
            4,
            vec![
                PatternSet::new(4, vec![Pattern::new(0b0110, 4), Pattern::new(0b1011, 4)]),
                PatternSet::new(4, vec![Pattern::new(0b0011, 4)]),
            ],
        );
        let w = weights.then(|| Matrix::from_fn(8, 3, |r, c| (r * 3 + c) as f32 * 0.5));
        let layer = CompiledLayer::new("l0".to_owned(), GemmShape::new(16, 8, 3), 4, patterns, w);
        CompiledModel::new("tiny/test".to_owned(), 4, 2, 7, vec![layer])
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        for weights in [false, true] {
            let m = tiny_model(weights);
            let bytes = m.to_bytes();
            let back = CompiledModel::from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bytes(), bytes);
            assert_eq!(back.label(), m.label());
            assert_eq!(back.layers()[0].patterns, m.layers()[0].patterns);
            assert_eq!(back.layers()[0].weights, m.layers()[0].weights);
            assert_eq!(back.layers()[0].pwp.is_some(), weights);
        }
    }

    #[test]
    fn version_1_artifacts_still_load_with_a_rebuilt_index() {
        for weights in [false, true] {
            let m = tiny_model(weights);
            let v1 = m.to_bytes_version(1).unwrap();
            let v2 = m.to_bytes();
            assert_ne!(v1, v2, "v2 must carry the extra index records");
            assert!(v1.len() < v2.len());
            assert_eq!(v1[4..8], 1u32.to_le_bytes());
            let back = CompiledModel::from_bytes(&v1).expect("v1 artifact must load");
            // The rebuilt index equals what the v2 artifact carries, so
            // re-serializing the loaded model upgrades it byte-identically.
            assert_eq!(back.to_bytes(), v2);
            for (a, b) in back.layers().iter().zip(m.layers()) {
                assert_eq!(a.match_index, b.match_index);
            }
        }
    }

    #[test]
    fn unwritable_versions_are_refused() {
        let m = tiny_model(false);
        for v in [0, FORMAT_VERSION + 1] {
            assert!(matches!(
                m.to_bytes_version(v),
                Err(RuntimeError::UnsupportedVersion { found, supported: FORMAT_VERSION })
                    if found == v
            ));
        }
    }

    #[test]
    fn loaded_layers_carry_indexes_matching_their_patterns() {
        let m = tiny_model(true);
        let back = CompiledModel::from_bytes(&m.to_bytes()).unwrap();
        for layer in back.layers() {
            assert_eq!(layer.match_index, phi_core::LayerMatchIndex::new(&layer.patterns));
            assert_eq!(layer.match_index.num_partitions(), layer.patterns.num_partitions());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = tiny_model(false).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(CompiledModel::from_bytes(&bytes), Err(RuntimeError::BadMagic { .. })));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let m = tiny_model(false);
        let mut bytes = m.to_bytes();
        // Patch the version field and re-stamp the checksum so the version
        // check (not the checksum) fires.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(RuntimeError::UnsupportedVersion { found: 99, supported: FORMAT_VERSION })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = tiny_model(true).to_bytes();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            assert!(
                CompiledModel::from_bytes(&corrupted).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = tiny_model(true).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                CompiledModel::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = tiny_model(false).to_bytes();
        bytes.push(0);
        // The appended byte breaks the checksum; strip-and-restamp to prove
        // the trailing-byte check itself also fires.
        assert!(CompiledModel::from_bytes(&bytes).is_err());
    }

    #[test]
    fn degenerate_layer_geometry_is_rejected_at_load() {
        // A checksum-valid artifact whose layer declares timesteps = 0 (or
        // m = 0) must fail from_bytes, not panic a server at execute time.
        let good = tiny_model(false);
        for (m, timesteps) in [(16usize, 0usize), (0, 4)] {
            let mut broken = good.clone();
            broken.layers[0].shape = GemmShape::new(m, 8, 3);
            broken.layers[0].timesteps = timesteps;
            let bytes = broken.to_bytes(); // checksum freshly stamped
            assert!(
                matches!(CompiledModel::from_bytes(&bytes), Err(RuntimeError::Shape { .. })),
                "m={m} timesteps={timesteps} must be rejected"
            );
        }
    }

    #[test]
    fn save_load_roundtrips() {
        let m = tiny_model(true);
        let path =
            std::env::temp_dir().join(format!("phi_artifact_test_{}.phic", std::process::id()));
        m.save(&path).unwrap();
        let back = CompiledModel::load(&path).unwrap();
        assert_eq!(back.to_bytes(), m.to_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(CompiledModel::load("/nonexistent/phi.phic"), Err(RuntimeError::Io(_))));
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
