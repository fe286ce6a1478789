//! Batched inference runtime for the Phi reproduction.
//!
//! Everything upstream of this crate treats a run as one monolithic
//! calibrate → decompose → simulate sweep. This crate splits that into the
//! two phases a serving system actually has:
//!
//! * **Compile time** ([`ModelCompiler`]) — run the offline work once:
//!   calibrate patterns per layer (§3.2 of the paper), fold weights
//!   into pattern–weight products (§4.4), and build each layer's
//!   popcount-bucketed [`LayerMatchIndex`] for the serve-time matcher,
//!   producing an immutable [`CompiledModel`] with a compact, versioned,
//!   checksummed binary format ([`CompiledModel::to_bytes`] /
//!   [`CompiledModel::from_bytes`]).
//! * **Serve time** ([`BatchExecutor`]) — share one `Arc`'d artifact
//!   read-only across any number of executors, accept batches of encoded
//!   spike inputs ([`InferenceRequest`]), fuse each layer's batch rows into
//!   a single decomposition (amortizing the fixed per-layer costs), and
//!   fan layers across rayon workers. Zero per-request calibration; tile
//!   decisions are memoized in per-layer [`TileCache`]s that persist
//!   across batches, so repeated spiking activations skip the matcher.
//!
//! The executor is generic over a pluggable [`ExecutionBackend`] — *what*
//! to compute is fixed by the decomposition, *how* it runs is the
//! backend's choice:
//!
//! * [`SimBackend`] (default, [`BatchExecutor::new`]) — the cycle-accurate
//!   Phi simulator; batches yield per-layer reports, per-request latency
//!   attributions (p50/p99), and simulated energy per inference.
//! * [`CpuBackend`] ([`BatchExecutor::cpu`]) — executes the decomposition
//!   directly through the rayon-parallel PWP sparse matmul; outputs only,
//!   no accelerator bookkeeping on the hot path.
//!
//! A per-batch [`MetricsMode`] selects between outputs-only and full
//! simulation on backends that model hardware. When the artifact carries
//! readout weights, each request's functional output goes through the
//! shared PWP kernel and is bit-identical across backends, batch sizes,
//! and the sequential single-input path.
//!
//! On top of the executor sits the **serving front-end** ([`PhiServer`],
//! [`server`] module): requests enqueue one at a time, a dynamic batcher
//! coalesces them into executor batches bounded by
//! [`ServerConfig::max_batch`] / [`ServerConfig::max_wait`], a
//! [`ModelRegistry`] lets one server host several compiled models, and
//! admission control sheds or rejects bad traffic with typed
//! [`ServerError`]s before it can reach a batch.
//!
//! The registry is *live* ([`lifecycle`] module): each model key is a
//! versioned slot whose active artifact can be hot-swapped atomically
//! ([`PhiServer::deploy`]) — in-flight batches finish on the version they
//! started on — and under [`LifecycleMode::Auto`] a background
//! recalibrator samples served traffic, recompiles the patterns
//! off-thread ([`ModelCompiler::recompile_from_samples`]), shadow-executes
//! a canary slice of live traffic on the candidate, and promotes it or
//! rolls back under a typed [`TolerancePolicy`].
//!
//! Temporal workloads stream through the same machinery: a
//! [`StreamSession`] holds per-client LIF membrane state and a per-layer
//! frame memo between requests, so consecutive timesteps decompose
//! *incrementally* (bit-identical to full decomposition, cheaper by the
//! unchanged fraction) and the window's rate-coded readout accumulates
//! server-side. Sessions are driven directly via
//! [`BatchExecutor::execute_stream_with`] or through
//! [`PhiServer::submit_stream`], which keeps each session's frames in
//! timestep order while coalescing across sessions into fused batches.
//!
//! # Example: compile → serialize → load → serve
//!
//! ```
//! use phi_runtime::{
//!     readouts_identical, BatchExecutor, CompileOptions, CompiledModel, InferenceRequest,
//!     ModelCompiler,
//! };
//! use snn_workloads::{DatasetId, ModelId, WorkloadConfig};
//! use std::sync::Arc;
//!
//! // A small workload (shrunk for doc-test speed).
//! let mut workload = WorkloadConfig::new(ModelId::ResNet18, DatasetId::Cifar10)
//!     .with_max_rows(32)
//!     .with_calibration_rows(64)
//!     .generate();
//! workload.layers.truncate(3);
//!
//! // Offline: calibrate + decompose weights, once.
//! let compiled = ModelCompiler::new(CompileOptions::fast()).compile(&workload);
//!
//! // The artifact roundtrips byte-identically through its binary format.
//! let bytes = compiled.to_bytes();
//! let loaded = CompiledModel::from_bytes(&bytes)?;
//! assert_eq!(loaded.to_bytes(), bytes);
//!
//! // Online: serve a batch against the shared artifact, with full
//! // accelerator simulation (the default SimBackend).
//! let model = Arc::new(loaded);
//! let executor = BatchExecutor::new(Arc::clone(&model));
//! let batch: Vec<InferenceRequest> =
//!     workload.sample_requests(4, 2, 99).into_iter().map(InferenceRequest::new).collect();
//! let report = executor.execute(&batch)?;
//! assert_eq!(report.batch_size(), 4);
//! assert!(report.p99_cycles() >= report.p50_cycles());
//! assert!(report.energy_per_inference_j() > 0.0);
//!
//! // Batched results are bit-identical to serving a request alone.
//! assert!(executor.readouts_match_sequential(&batch, &report)?);
//!
//! // Outputs-only serving through the CPU kernel backend: identical
//! // readouts, no simulator on the hot path.
//! let fast = BatchExecutor::cpu(model).execute(&batch)?;
//! assert!(fast.layer_reports.is_empty());
//! assert!(readouts_identical(&fast, &report));
//! # Ok::<(), phi_runtime::RuntimeError>(())
//! ```

#![deny(missing_docs)]

pub mod artifact;
pub mod compile;
pub mod error;
pub mod executor;
pub mod lifecycle;
pub mod server;
pub mod stream;
mod sync;

pub use artifact::{CompiledLayer, CompiledModel, FORMAT_VERSION, MAGIC, OLDEST_SUPPORTED_VERSION};
pub use compile::{CompileOptions, ModelCompiler, WeightsMode};
pub use error::{Result, RuntimeError, ServerError};
pub use executor::{
    default_tile_cache_capacity, readouts_identical, BatchExecutor, BatchReport, InferenceRequest,
    RequestResult, DEFAULT_TILE_CACHE_CAPACITY, PHI_TILE_CACHE_ENV,
};
pub use lifecycle::{
    default_canary_slice, lifecycle_mode, LifecycleEvent, LifecycleMode, LifecycleStatsSnapshot,
    RollbackReason, TolerancePolicy, DEFAULT_DIVERGENCE_TOLERANCE, PHI_CANARY_SLICE_ENV,
    PHI_LIFECYCLE_ENV,
};
pub use server::{
    available_cores, ModelRegistry, ModelStatsSnapshot, PhiServer, ResponseHandle, ServedResponse,
    ServerConfig, ServerResult, SessionReadout,
};
pub use stream::StreamSession;
// The backend vocabulary serving code needs — including everything
// required to implement a custom `ExecutionBackend` — re-exported so
// callers can stay on `phi_runtime` alone.
pub use phi_accel::{
    BackendKind, CpuBackend, ExecutionBackend, LayerOutput, LayerReport, LayerWork, MetricsMode,
    ReadoutPlan, SimBackend,
};
// The decomposition-accelerator vocabulary of the online hot path (the
// artifact's per-layer match indexes and the executor's tile caches),
// likewise re-exported.
pub use phi_core::{DeltaStats, FrameMemo, LayerMatchIndex, MatchIndex, TileCache, TileCacheStats};
// The product-sparsity vocabulary (`PHI_REUSE` knob and its counters):
// executors surface [`ReuseStats`] and servers embed them in
// [`ModelStatsSnapshot`], so the knob and types ride along.
pub use phi_core::{force_reuse, reuse_mode, ReuseMode, ReuseStats};
