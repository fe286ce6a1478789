//! Spiking neural network substrate for the Phi reproduction.
//!
//! This crate provides everything the Phi sparsity framework (`phi-core`)
//! and the architecture simulator (`phi-accel`) consume:
//!
//! * [`SpikeMatrix`] — bit-packed binary activation matrices with fast
//!   per-tile word extraction (the unit of pattern matching),
//! * [`Matrix`] — a minimal dense `f32` matrix with the GEMM kernels used by
//!   functional verification,
//! * [`lif`] — Leaky-Integrate-and-Fire neuron dynamics (the neuron model the
//!   paper's Spiking Neuron Array implements),
//! * [`layer`] — GEMM-shaped layer descriptors shared by the model zoo and
//!   the simulators (convolutions are expressed post-im2col, exactly how the
//!   accelerator sees them),
//! * [`network`] / [`train`] — a small, real, surrogate-gradient-trained SNN
//!   used to demonstrate Pattern-Aware Fine-Tuning (PAFT) as actual training
//!   rather than a modeling knob,
//! * [`dataset`] — synthetic rate-coded classification data for the trainer,
//! * [`env`](mod@env) — the strict parser valued `PHI_*` environment knobs read
//!   through.
//!
//! # Example
//!
//! ```
//! use snn_core::SpikeMatrix;
//!
//! let mut acts = SpikeMatrix::zeros(4, 32);
//! acts.set(0, 3, true);
//! acts.set(0, 17, true);
//! assert_eq!(acts.row_nnz(0), 2);
//! // Extract the 16-bit tile starting at column 16 (Phi's pattern width).
//! assert_eq!(acts.tile(0, 16, 16), 0b10); // bit 17 -> local bit 1
//! ```

pub mod bitmatrix;
pub mod dataset;
pub mod encode;
pub mod env;
pub mod error;
pub mod layer;
pub mod lif;
pub mod network;
pub mod simd;
pub mod tensor;
pub mod train;

pub use bitmatrix::SpikeMatrix;
pub use error::{Error, Result};
pub use layer::{conv2d_gemm, GemmShape, LayerKind, LayerSpec};
pub use lif::{LifConfig, LifLayer, LifNeuron, ResetMode};
pub use tensor::Matrix;
