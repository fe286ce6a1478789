//! Cycle-level simulator of the Phi accelerator (§4 of the paper).
//!
//! The architecture (Fig. 3) comprises four main blocks, each with a model
//! module here:
//!
//! * **Preprocessor** ([`matcher`], [`packer`]) — a 1-D systolic pattern
//!   matcher producing the two-level sparsity representation on the fly,
//!   followed by the compressor and the conflict-aware packer that builds
//!   8-unit Level-2 packs;
//! * **L1 Processor** ([`l1`]) — pattern-index-driven PWP retrieval through
//!   a 16→8 crossbar and adder tree, with a DRAM prefetcher that loads only
//!   the PWPs a tile actually uses;
//! * **L2 Processor** ([`l2`]) — pack-parallel processing through a
//!   dispatcher and an 8-channel reconfigurable adder tree of 32-wide SIMD
//!   nodes;
//! * **Spiking Neuron Array** ([`neuron`]) — 32 LIF lanes converting output
//!   tiles into next-layer spikes.
//!
//! Supporting models: [`tiling`] (the `m=256, k=16, n=32` K-first schedule),
//! [`dram`] (DDR4-2133 ×4 channel bandwidth/energy), [`traffic`] (per-layer
//! byte accounting for Fig. 12), [`energy`] (the Table 3 power/area
//! constants), and [`sim`] (the per-layer orchestration: L1 ∥ L2 with
//! per-output-tile synchronization, preprocessing overlapped, compute/DRAM
//! double buffering).
//!
//! The simulator follows the paper's own methodology (§5.1): counted
//! cycles and accesses drive constant per-event energy numbers taken from
//! the synthesis results the paper publishes.
//!
//! # Example
//!
//! ```
//! use phi_accel::{PhiConfig, PhiSimulator};
//! use phi_core::{CalibrationConfig, Calibrator};
//! use snn_core::{GemmShape, SpikeMatrix};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let acts = SpikeMatrix::random(128, 64, 0.1, &mut rng);
//! let patterns = Calibrator::new(CalibrationConfig { q: 32, ..Default::default() })
//!     .calibrate(&acts, &mut rng);
//! let sim = PhiSimulator::new(PhiConfig::default());
//! let report = sim.run_layer(&acts, &patterns, GemmShape::new(128, 64, 256), 1.0);
//! assert!(report.cycles > 0.0);
//! assert!(report.energy.total_mj() > 0.0);
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod config;
pub mod datapath;
pub mod dram;
pub mod energy;
pub mod l1;
pub mod l2;
pub mod matcher;
pub mod neuron;
pub mod packer;
pub mod report;
pub mod sim;
pub mod tiling;
pub mod traffic;

pub use backend::{
    BackendKind, CpuBackend, ExecutionBackend, LayerOutput, LayerWork, MetricsMode, ReadoutPlan,
    SimBackend,
};
pub use config::PhiConfig;
pub use dram::DramModel;
pub use energy::{AreaBreakdown, EnergyBreakdown, EnergyModel};
pub use report::{LayerReport, ModelReport, RowWork};
pub use sim::PhiSimulator;
pub use traffic::TrafficReport;
