//! Batched inference runtime for the Phi reproduction.
//!
//! Everything upstream of this crate treats a run as one monolithic
//! calibrate → decompose → simulate sweep. This crate splits that into the
//! two phases a serving system actually has:
//!
//! * **Compile time** ([`ModelCompiler`]) — run the offline work once:
//!   calibrate patterns per layer (§3.2 of the paper), fold weights
//!   into pattern–weight products (§4.4), producing an immutable
//!   [`CompiledModel`] with a compact, versioned, checksummed binary
//!   format ([`CompiledModel::to_bytes`] / [`CompiledModel::from_bytes`])
//!   that stores only the patterns and weights.
//! * **Serve time** ([`BatchExecutor`]) — share one `Arc`'d artifact
//!   read-only across any number of executors, accept batches of encoded
//!   spike inputs ([`InferenceRequest`]), fuse each layer's batch rows into
//!   a single decomposition (amortizing the fixed per-layer costs), and
//!   fan layers across rayon workers. Zero per-request calibration. A
//!   packed layer (k ≤ 16, every layer of the served models) decides its
//!   tiles with one brute-force SIMD probe each; other layers run the
//!   linear matcher and memoize tile decisions in per-layer
//!   [`TileCache`]s that persist across batches, so repeated spiking
//!   activations skip the matcher.
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
//! runs them at once on an idle server and otherwise coalesces them into
//! executor batches bounded by [`ServerConfig::max_batch`] /
//! [`ServerConfig::max_wait`] (requests linger only while a batch
//! executes), a
//! [`ModelRegistry`] lets one server host several compiled models, and
//! admission control sheds or rejects bad traffic with typed
//! [`ServerError`]s before it can reach a batch.
//!
//! The registry is *live* ([`lifecycle`] module): each model key is a
//! versioned slot whose active artifact can be hot-swapped atomically
//! ([`PhiServer::deploy`]) — in-flight batches finish on the version they
//! started on — and a candidate recompiled from sampled activations
//! ([`ModelCompiler::recompile_from_samples`]) can be proposed as a canary
//! ([`PhiServer::propose`]): live traffic is shadow-executed on it, and it
//! is promoted or rolled back under a typed [`TolerancePolicy`].
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
    LifecycleEvent, LifecycleStatsSnapshot, RollbackReason, TolerancePolicy,
    DEFAULT_DIVERGENCE_TOLERANCE,
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
// The decomposition vocabulary of the online hot path (the executor's
// tile caches and stream memos), likewise re-exported.
pub use phi_core::{DeltaStats, FrameMemo, LayerMatchIndex, TileCache, TileCacheStats};
// The readout term-row counters executors surface and servers embed in
// [`ModelStatsSnapshot`].
pub use phi_core::ReuseStats;
