//! Phi: pattern-based hierarchical sparsity for spiking neural networks.
//!
//! This crate implements the algorithmic contribution of the ISCA 2025 paper
//! *"Phi: Leveraging Pattern-based Hierarchical Sparsity for High-Efficiency
//! Spiking Neural Networks"* (Wei et al.): the decomposition of a binary SNN
//! activation matrix into
//!
//! * **Level 1** — a vector-sparse matrix whose rows (per width-`k`
//!   partition) are drawn from a small set of pre-calibrated binary
//!   *patterns*, so their products with the weights (**PWPs**) can be
//!   computed offline, and
//! * **Level 2** — a `{+1, −1}` element-sparse correction matrix covering
//!   exactly the bits where the activation differs from its assigned
//!   pattern, so that `L1 + L2` reconstructs the activation *losslessly*.
//!
//! The pipeline is:
//!
//! 1. [`calibrate`] — run Hamming-distance k-means (the paper's Algorithm 1)
//!    over a calibration activation dump to select `q` patterns per
//!    partition;
//! 2. [`decompose()`] — assign each activation row-tile its best pattern
//!    (or none) and emit the L1 index matrix plus the L2 sparse matrix;
//! 3. [`pwp`] — precompute pattern–weight products;
//! 4. [`stats`] — measure the densities and theoretical speedups the paper
//!    reports in Table 4 and Figure 7;
//! 5. [`paft`] — Pattern-Aware Fine-Tuning: a spike regularizer that pulls
//!    activations toward their assigned patterns through the surrogate
//!    gradient (for the real trainable SNN), and an alignment model used for
//!    the statistically generated workloads;
//! 6. [`wire`] — compact binary (de)serialization of pattern sets and
//!    decompositions, the substrate of `phi-runtime`'s compiled-model
//!    artifacts.
//!
//! # Example
//!
//! ```
//! use phi_core::{CalibrationConfig, Calibrator, decompose};
//! use snn_core::SpikeMatrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let acts = SpikeMatrix::random(64, 32, 0.15, &mut rng);
//!
//! let config = CalibrationConfig { k: 16, q: 8, ..Default::default() };
//! let patterns = Calibrator::new(config).calibrate(&acts, &mut rng);
//! let phi = decompose(&acts, &patterns);
//!
//! // Losslessness: L1 + L2 reconstructs the original activation.
//! assert!(phi.verify_lossless(&acts));
//! // Level-2 density never exceeds the original bit density.
//! assert!(phi.stats().element_density() <= acts.bit_density() + 1e-12);
//! ```

pub mod bitslice;
pub mod calibrate;
pub mod decompose;
pub mod greedy;
pub mod kmeans;
pub mod paft;
pub mod pattern;
pub mod pwp;
pub mod stats;
pub mod wire;

pub use bitslice::{BitSlicedMatrix, BitSlicedPhi};
pub use calibrate::{CalibrationConfig, CalibrationEngine, Calibrator, LayerPatterns};
pub use decompose::{
    decompose, decompose_cached, decompose_delta, decompose_delta_sparse, Decomposition,
    DeltaStats, FrameMemo, L2Entry, L2Row, LayerMatchIndex, TileAssignment, TileCache,
    TileCacheStats, TileDecision, MAX_CACHE_PARTITIONS,
};
pub use greedy::{greedy_frequent_patterns, greedy_pattern_set};
pub use kmeans::{
    compress_tiles, hamming_kmeans, hamming_kmeans_unweighted, total_distance,
    weighted_hamming_kmeans, KmeansConfig,
};
pub use paft::{AlignmentModel, PaftRegularizer};
pub use pattern::{Pattern, PatternSet};
pub use pwp::{par_phi_matmul, phi_matmul, phi_matmul_row_into, PwpTable, ReuseStats};
pub use stats::SparsityStats;

/// Runtime-dispatched SIMD kernels for the bit-op hot loops (re-exported
/// from `snn_core`, where the bit-matrix substrate lives). See
/// [`simd::level`] and the `PHI_SIMD` environment override.
pub use snn_core::simd;
