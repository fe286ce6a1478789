//! Serve-time batch execution against a shared [`CompiledModel`], generic
//! over a pluggable [`ExecutionBackend`].
//!
//! A batch is processed layer-by-layer with the whole batch fused: the
//! per-request spike rows are stacked into one matrix and decomposed once
//! against the artifact's patterns, then the layer is handed to the
//! executor's backend. Rows decompose independently, so the fused results
//! are bit-identical to running each request alone; layers fan out across
//! rayon workers. Streamed frames take the same path with one session per
//! request: only the decomposition differs, diffing each frame against
//! its session's memo instead of stacking raw rows.
//!
//! What happens per layer depends on the backend and the batch's
//! [`MetricsMode`]:
//!
//! * [`SimBackend`] (the default) runs the cycle-accurate Phi simulator
//!   under [`MetricsMode::FullSim`] — per-layer reports, per-request
//!   latency/energy attribution — and skips it under
//!   [`MetricsMode::OutputsOnly`].
//! * [`CpuBackend`] executes the decomposition directly through the
//!   rayon-parallel PWP sparse matmul: outputs only, no tile scheduler,
//!   packer walk, or traffic/energy accounting on the hot path.
//!
//! Outputs-only batches also prune the layer walk itself: a request's
//! layers are independent activation traces (they do not feed each
//! other), so a layer whose decomposition yields neither a simulator
//! report nor a functional readout has no observable product and is
//! skipped entirely.
//!
//! Either way, readout outputs go through the same row-independent kernel
//! and are bit-identical across backends and batch sizes.

use crate::artifact::{CompiledLayer, CompiledModel};
use crate::error::{Result, RuntimeError};
use crate::stream::StreamSession;
use phi_accel::{
    CpuBackend, ExecutionBackend, LayerReport, LayerWork, MetricsMode, PhiConfig, ReadoutPlan,
    RowWork, SimBackend,
};
use phi_core::{
    decompose_cached, decompose_delta, decompose_delta_sparse, Decomposition, DeltaStats,
    FrameMemo, LayerMatchIndex, ReuseStats, TileCache, TileCacheStats,
};
use rayon::prelude::*;
use snn_core::{Matrix, SpikeMatrix};
use std::sync::{Arc, Mutex};

/// Default per-layer [`TileCache`] capacity (slots) when neither
/// [`PHI_TILE_CACHE_ENV`] nor [`BatchExecutor::with_tile_cache_capacity`]
/// says otherwise.
pub const DEFAULT_TILE_CACHE_CAPACITY: usize = 1 << 15;

/// Environment variable overriding the per-layer tile-cache capacity for
/// every executor that is not explicitly configured; `0` disables the
/// cache (every batch re-resolves an unpacked layer's tiles through
/// `PatternSet::best_match`).
pub const PHI_TILE_CACHE_ENV: &str = "PHI_TILE_CACHE";

/// The per-layer tile-cache capacity executors default to:
/// [`PHI_TILE_CACHE_ENV`] when set, else [`DEFAULT_TILE_CACHE_CAPACITY`].
///
/// # Panics
///
/// Panics, naming the variable and the value, when [`PHI_TILE_CACHE_ENV`]
/// is set but not a slot count (`off` is not `0`).
pub fn default_tile_cache_capacity() -> usize {
    snn_core::env::read_env(PHI_TILE_CACHE_ENV, DEFAULT_TILE_CACHE_CAPACITY)
}

/// One inference request: the layer-wise spike activations of a single
/// input, each `rows × K_layer` (every layer the same row count — a
/// row-subsampled trace of the inference, extrapolated to full scale by
/// the layer's `M × timesteps`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceRequest {
    /// One spike matrix per model layer, in execution order.
    pub layers: Vec<SpikeMatrix>,
    /// Longest the request may wait in a serving queue before the caller
    /// would discard the answer anyway. A server sheds the request with
    /// [`ServerError::DeadlineExceeded`](crate::ServerError::DeadlineExceeded)
    /// when it comes up for dispatch past this age — *before* spending
    /// executor time on it. `None` (the default) waits indefinitely.
    /// Direct [`BatchExecutor`] calls ignore it: the caller that holds
    /// the executor is the caller that would shed.
    pub deadline: Option<std::time::Duration>,
}

impl InferenceRequest {
    /// Wraps per-layer spike matrices (e.g. one entry of
    /// [`snn_workloads::Workload::sample_requests`]), with no deadline.
    pub fn new(layers: Vec<SpikeMatrix>) -> Self {
        InferenceRequest { layers, deadline: None }
    }

    /// Attaches a queue-wait deadline: if the request is still queued when
    /// it comes up for dispatch more than `deadline` after submission, it
    /// is shed instead of executed.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The row count every layer carries (0 for an empty request).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Ragged`] when the layers disagree on their
    /// row count — a ragged request has no single row count to report,
    /// and silently answering with the first layer's (as this method once
    /// did) would mis-shape downstream fusion.
    pub fn rows(&self) -> Result<usize> {
        let expected = self.layers.first().map_or(0, SpikeMatrix::rows);
        for (layer, m) in self.layers.iter().enumerate().skip(1) {
            if m.rows() != expected {
                return Err(RuntimeError::Ragged { layer, expected, actual: m.rows() });
            }
        }
        Ok(expected)
    }

    /// Validates this request against a compiled model and returns its
    /// row count — the full admission check a serving front-end runs at
    /// enqueue time, so a malformed request is refused before it can be
    /// coalesced into (and poison) a batch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Shape`] when the request disagrees with the
    /// model's layer count or widths or carries zero rows, and
    /// [`RuntimeError::Ragged`] when its own layers disagree on rows.
    pub fn validate_against(&self, model: &CompiledModel) -> Result<usize> {
        if self.layers.len() != model.layers().len() {
            return Err(RuntimeError::Shape {
                op: "request layer count",
                expected: model.layers().len(),
                actual: self.layers.len(),
            });
        }
        let rows = self.rows()?;
        for (m, layer) in self.layers.iter().zip(model.layers()) {
            if m.cols() != layer.shape.k {
                return Err(RuntimeError::Shape {
                    op: "request layer width",
                    expected: layer.shape.k,
                    actual: m.cols(),
                });
            }
        }
        if rows == 0 {
            return Err(RuntimeError::Shape { op: "request rows", expected: 1, actual: 0 });
        }
        Ok(rows)
    }

    fn validate(&self, model: &CompiledModel, rows: usize) -> Result<()> {
        let own = self.validate_against(model)?;
        if own != rows {
            return Err(RuntimeError::Shape {
                op: "request layer rows",
                expected: rows,
                actual: own,
            });
        }
        Ok(())
    }
}

/// Serve-time result for one request.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Functional output of the readout layer (`rows × N_readout`) through
    /// the PWP path; `None` when the artifact carries no readout weights.
    pub readout: Option<Matrix>,
    /// Simulated accelerator cycles attributed to this request (full
    /// inference scale); 0 under [`MetricsMode::OutputsOnly`].
    pub cycles: f64,
    /// Simulated energy attributed to this request, in joules; 0 under
    /// [`MetricsMode::OutputsOnly`].
    pub energy_j: f64,
}

/// Everything one [`BatchExecutor::execute`] call produces.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The metrics mode the batch ran under.
    pub metrics: MetricsMode,
    /// Per-layer simulator reports for the fused batch; empty under
    /// [`MetricsMode::OutputsOnly`].
    pub layer_reports: Vec<LayerReport>,
    /// Per-request results, in submission order.
    pub requests: Vec<RequestResult>,
}

impl BatchReport {
    /// Number of requests served.
    pub fn batch_size(&self) -> usize {
        self.requests.len()
    }

    /// Total simulated cycles for the batch (sum over layers — the Phi
    /// pipeline executes layers back-to-back); 0 in outputs-only mode.
    pub fn total_cycles(&self) -> f64 {
        self.layer_reports.iter().map(|l| l.cycles).sum()
    }

    /// Total simulated energy for the batch, in joules; 0 in outputs-only
    /// mode.
    pub fn total_energy_j(&self) -> f64 {
        self.layer_reports.iter().map(|l| l.energy.total_j()).sum()
    }

    /// Simulated energy per inference, in joules.
    pub fn energy_per_inference_j(&self) -> f64 {
        self.total_energy_j() / self.batch_size() as f64
    }

    /// Nearest-rank percentile (`0 < p ≤ 100`) of the per-request simulated
    /// latency, in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`, the report holds no requests,
    /// or the batch ran under [`MetricsMode::OutputsOnly`] (no latency was
    /// simulated).
    pub fn latency_percentile_cycles(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be within (0, 100]");
        assert!(!self.requests.is_empty(), "percentile of an empty request set");
        assert!(
            self.metrics == MetricsMode::FullSim,
            "latency percentiles require MetricsMode::FullSim"
        );
        let mut cycles: Vec<f64> = self.requests.iter().map(|r| r.cycles).collect();
        cycles.sort_by(|a, b| a.partial_cmp(b).expect("finite cycle counts"));
        let rank = ((p / 100.0) * cycles.len() as f64).ceil() as usize;
        cycles[rank.clamp(1, cycles.len()) - 1]
    }

    /// Median per-request simulated latency, in cycles.
    pub fn p50_cycles(&self) -> f64 {
        self.latency_percentile_cycles(50.0)
    }

    /// 99th-percentile per-request simulated latency, in cycles.
    pub fn p99_cycles(&self) -> f64 {
        self.latency_percentile_cycles(99.0)
    }
}

/// True when two reports serve the same number of requests and every pair
/// of readout outputs is present and bit-identical — the cross-backend
/// (and cross-batch-size) equivalence check the benches and property
/// tests assert.
pub fn readouts_identical(a: &BatchReport, b: &BatchReport) -> bool {
    a.requests.len() == b.requests.len()
        && a.requests
            .iter()
            .zip(&b.requests)
            .all(|(ra, rb)| ra.readout.is_some() && ra.readout == rb.readout)
}

/// The serve-time engine: a shared, read-only [`CompiledModel`] behind an
/// [`Arc`], an [`ExecutionBackend`] that runs each decomposed layer, and
/// zero per-request calibration.
///
/// Executors are cheap to clone (the artifact is shared, not copied), so
/// one compiled model can back any number of serving threads. The backend
/// is a type parameter — [`BatchExecutor::new`] builds the default
/// simulator-backed executor, [`BatchExecutor::cpu`] the fast
/// outputs-only CPU executor, and [`BatchExecutor::with_backend`] accepts
/// any other implementation.
///
/// Each executor owns one [`TileCache`] per model layer, shared across
/// its clones (and therefore across every batch served on the same
/// executor lineage): spiking activations repeat tiles heavily,
/// so decompositions after the first replay memoized decisions instead
/// of re-matching. Only unpacked layers (k > 16, or more than 2048
/// patterns in a partition) use their cache; a packed layer — every
/// layer of the served models — is swept 32 partitions per SIMD step
/// by the brute-force lane matcher ([`decompose_cached`]), faster than a
/// cache hit, and leaves its cache's counters at 0. Capacity comes from [`default_tile_cache_capacity`]
/// (the [`PHI_TILE_CACHE_ENV`] knob) unless
/// [`BatchExecutor::with_tile_cache_capacity`] overrides it; outputs are
/// bit-identical with the cache enabled, disabled, or thrashing.
#[derive(Debug, Clone)]
pub struct BatchExecutor<B = SimBackend> {
    model: Arc<CompiledModel>,
    backend: B,
    /// One tile-decision memo per layer, in layer order.
    caches: Arc<Vec<TileCache>>,
    /// Recycled word buffers for batch assembly ([`SpikeMatrix::vstack_into`]).
    scratch: Arc<Mutex<Vec<Vec<u64>>>>,
    /// Cumulative term-row work of every readout the backend computed,
    /// shared across clones like the tile caches.
    reuse: Arc<Mutex<ReuseStats>>,
}

impl BatchExecutor<SimBackend> {
    /// Creates a simulator-backed executor with the default accelerator
    /// configuration.
    pub fn new(model: Arc<CompiledModel>) -> Self {
        BatchExecutor::with_backend(model, SimBackend::default())
    }

    /// Overrides the accelerator configuration.
    pub fn with_accelerator(mut self, config: PhiConfig) -> Self {
        self.backend = SimBackend::new(config);
        self
    }
}

impl BatchExecutor<CpuBackend> {
    /// Creates an executor over the fast CPU kernel backend: functional
    /// outputs through the rayon-parallel PWP matmul, no accelerator
    /// bookkeeping.
    ///
    /// ```
    /// use phi_runtime::{BatchExecutor, CompileOptions, InferenceRequest, ModelCompiler};
    /// use snn_workloads::{DatasetId, ModelId, WorkloadConfig};
    /// use std::sync::Arc;
    ///
    /// let mut workload = WorkloadConfig::new(ModelId::ResNet18, DatasetId::Cifar10)
    ///     .with_max_rows(32)
    ///     .with_calibration_rows(64)
    ///     .generate();
    /// workload.layers.truncate(3);
    /// let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&workload));
    ///
    /// let executor = BatchExecutor::cpu(model);
    /// let batch: Vec<InferenceRequest> =
    ///     workload.sample_requests(2, 4, 7).into_iter().map(InferenceRequest::new).collect();
    /// let report = executor.execute(&batch)?;
    /// // Outputs only: readouts are present, hardware accounting is not.
    /// assert!(report.requests.iter().all(|r| r.readout.is_some()));
    /// assert!(report.layer_reports.is_empty());
    /// # Ok::<(), phi_runtime::RuntimeError>(())
    /// ```
    pub fn cpu(model: Arc<CompiledModel>) -> Self {
        BatchExecutor::with_backend(model, CpuBackend)
    }
}

impl<B: ExecutionBackend> BatchExecutor<B> {
    /// Creates an executor over an arbitrary backend, with per-layer tile
    /// caches at [`default_tile_cache_capacity`].
    pub fn with_backend(model: Arc<CompiledModel>, backend: B) -> Self {
        let caches = build_caches(&model, default_tile_cache_capacity());
        BatchExecutor {
            model,
            backend,
            caches,
            scratch: Arc::new(Mutex::new(Vec::new())),
            reuse: Arc::new(Mutex::new(ReuseStats::default())),
        }
    }

    /// Replaces the per-layer tile caches with fresh ones of `capacity`
    /// slots each (`0` disables caching). Clones taken *after* this call
    /// share the new caches; earlier clones keep the old ones.
    pub fn with_tile_cache_capacity(mut self, capacity: usize) -> Self {
        self.caches = build_caches(&self.model, capacity);
        self
    }

    /// The shared artifact.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// The execution backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Aggregated hit/miss/eviction counters over the per-layer tile
    /// caches (capacity and entries sum across layers).
    pub fn tile_cache_stats(&self) -> TileCacheStats {
        TileCacheStats::merged(self.caches.iter().map(TileCache::stats))
    }

    /// Cumulative term-row work ([`ReuseStats::of`]) of every readout the
    /// backend computed, on either backend and either batch path; stream
    /// rows replayed from a session's previous readout are not counted.
    /// All-zero on an artifact without readout weights. Shared across
    /// clones, like the tile caches.
    pub fn reuse_stats(&self) -> ReuseStats {
        *crate::sync::lock(&self.reuse)
    }

    /// Executes a batch of requests under the backend's default metrics
    /// mode (full simulation for hardware-modeling backends, outputs-only
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchExecutor::execute_with`].
    pub fn execute(&self, batch: &[InferenceRequest]) -> Result<BatchReport> {
        self.execute_with(batch, self.backend.default_metrics())
    }

    /// Executes a batch of requests under an explicit [`MetricsMode`].
    ///
    /// Under [`MetricsMode::OutputsOnly`] only layers that contribute a
    /// functional readout are executed (on an artifact without readout
    /// weights the report carries no readouts and no layer runs at all);
    /// under [`MetricsMode::FullSim`] every layer is decomposed and
    /// simulated.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::MetricsUnavailable`] when `metrics` is
    /// [`MetricsMode::FullSim`] but the backend does not model hardware,
    /// [`RuntimeError::EmptyBatch`] for an empty slice,
    /// [`RuntimeError::Ragged`] when a request's own layers disagree on
    /// rows, and [`RuntimeError::Shape`] when a request disagrees with the
    /// model's layer count or widths, carries zero rows, or differs from
    /// the other requests in rows (batches must be row-uniform so one
    /// extrapolation factor covers the fused matrix).
    pub fn execute_with(
        &self,
        batch: &[InferenceRequest],
        metrics: MetricsMode,
    ) -> Result<BatchReport> {
        self.execute_fused(batch, None, metrics)
    }

    /// Executes one request — the sequential single-input path, under the
    /// backend's default metrics mode. Equivalent to a batch of one; the
    /// batched path produces bit-identical readout outputs because rows
    /// decompose independently.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchExecutor::execute`].
    pub fn execute_one(&self, request: &InferenceRequest) -> Result<RequestResult> {
        self.execute_one_with(request, self.backend.default_metrics())
    }

    /// [`BatchExecutor::execute_one`] under an explicit [`MetricsMode`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchExecutor::execute_with`].
    pub fn execute_one_with(
        &self,
        request: &InferenceRequest,
        metrics: MetricsMode,
    ) -> Result<RequestResult> {
        let mut report = self.execute_with(std::slice::from_ref(request), metrics)?;
        Ok(report.requests.pop().expect("batch of one yields one result"))
    }

    /// Re-serves every request of `batch` alone through the sequential
    /// single-input path (outputs-only — readouts do not depend on the
    /// metrics mode) and checks the batched readouts in `report` equal
    /// them bit-for-bit. `false` also covers a model without readout
    /// weights — there is nothing to compare, so nothing is verified.
    ///
    /// This is the exactness check the serving benches and tests share.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchExecutor::execute_with`].
    pub fn readouts_match_sequential(
        &self,
        batch: &[InferenceRequest],
        report: &BatchReport,
    ) -> Result<bool> {
        if batch.len() != report.requests.len() {
            return Ok(false);
        }
        for (request, batched) in batch.iter().zip(&report.requests) {
            let alone = self.execute_one_with(request, MetricsMode::OutputsOnly)?;
            if batched.readout.is_none() || batched.readout != alone.readout {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Executes one streamed frame per session, with per-timestep
    /// incremental decomposition against each session's persistent
    /// [`phi_core::FrameMemo`]s.
    ///
    /// `frames[i]` is the next timestep of `sessions[i]`. Per layer, each
    /// frame is diffed row by row against its session's previous timestep
    /// ([`decompose_delta`]): an unchanged row's decomposition comes from
    /// the memo, and only the changed rows are re-swept, by the same row
    /// sweep [`decompose_cached`] runs — then the per-frame
    /// decompositions are spliced ([`Decomposition::concat`]) into one
    /// fused layer for the backend, exactly as
    /// [`BatchExecutor::execute_with`] fuses raw rows. Both steps are
    /// bit-identical to full decomposition, so every streamed readout
    /// equals serving the same frame statelessly.
    ///
    /// After the batch, each session absorbs its frame: its LIF readout
    /// bank advances one timestep (accumulating spike counts for the
    /// rate-coded readout) and its delta counters grow.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchExecutor::execute_with`], plus
    /// [`RuntimeError::Shape`] when `frames` and `sessions` disagree in
    /// length or a frame's row count disagrees with the one its session
    /// was fixed to by its first frame, and
    /// [`RuntimeError::DuplicateSession`] when a session appears more than
    /// once in the batch (the server's session router never fuses two
    /// frames of one session).
    pub fn execute_stream_with(
        &self,
        frames: &[InferenceRequest],
        sessions: &[&StreamSession],
        metrics: MetricsMode,
    ) -> Result<BatchReport> {
        if frames.len() != sessions.len() {
            return Err(RuntimeError::Shape {
                op: "one session per streamed frame",
                expected: frames.len(),
                actual: sessions.len(),
            });
        }
        for (first, a) in sessions.iter().enumerate() {
            if let Some(offset) = sessions[first + 1..].iter().position(|b| std::ptr::eq(*a, *b)) {
                return Err(RuntimeError::DuplicateSession { first, again: first + 1 + offset });
            }
        }
        self.execute_fused(frames, Some(sessions), metrics)
    }

    /// [`BatchExecutor::execute_stream_with`] under the backend's default
    /// metrics mode (full simulation for hardware-modeling backends,
    /// outputs-only otherwise).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchExecutor::execute_stream_with`].
    pub fn execute_stream(
        &self,
        frames: &[InferenceRequest],
        sessions: &[&StreamSession],
    ) -> Result<BatchReport> {
        self.execute_stream_with(frames, sessions, self.backend.default_metrics())
    }

    /// Streams one frame through one session: a batch of one via
    /// [`BatchExecutor::execute_stream_with`], under the backend's default
    /// metrics mode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchExecutor::execute_stream_with`].
    pub fn execute_stream_one(
        &self,
        frame: &InferenceRequest,
        session: &StreamSession,
    ) -> Result<RequestResult> {
        let mut report = self.execute_stream_with(
            std::slice::from_ref(frame),
            &[session],
            self.backend.default_metrics(),
        )?;
        Ok(report.requests.pop().expect("batch of one yields one result"))
    }

    /// The one batch path behind [`BatchExecutor::execute_with`] (no
    /// sessions) and [`BatchExecutor::execute_stream_with`] (one session
    /// per request): validates the batch, runs every observable layer
    /// fused across the batch (layers fan out across the pool), folds the
    /// simulator reports into per-request cycle and energy shares, and
    /// splits the readout into per-request rows. A stream batch then
    /// advances each session by its frame.
    fn execute_fused(
        &self,
        batch: &[InferenceRequest],
        sessions: Option<&[&StreamSession]>,
        metrics: MetricsMode,
    ) -> Result<BatchReport> {
        if metrics == MetricsMode::FullSim && !self.backend.models_hardware() {
            return Err(RuntimeError::MetricsUnavailable { backend: self.backend.name() });
        }
        let first = batch.first().ok_or(RuntimeError::EmptyBatch)?;
        let rows = first.rows()?;
        for request in batch {
            request.validate(&self.model, rows)?;
        }
        for session in sessions.unwrap_or_default() {
            session.fix_rows(rows)?;
        }

        let layers = self.model.layers();
        let last = layers.len() - 1;
        // Under FullSim every layer is decomposed and simulated. Under
        // OutputsOnly a layer's decomposition is consumed by nothing
        // unless it feeds a functional readout, so only layers with an
        // observable product run — this, not just skipping the simulator,
        // is what keeps accelerator bookkeeping off the outputs-only hot
        // path.
        let indexed: Vec<(usize, &CompiledLayer)> = layers
            .iter()
            .enumerate()
            .filter(|&(l, layer)| {
                metrics == MetricsMode::FullSim
                    || (l == last && layer.pwp.is_some() && layer.weights.is_some())
            })
            .collect();
        let outcomes: Vec<LayerOutcome> = indexed
            .into_par_iter()
            .map(|(l, layer)| self.run_layer(l, l == last, layer, batch, sessions, rows, metrics))
            .collect();

        let mut requests: Vec<RequestResult> = (0..batch.len())
            .map(|_| RequestResult { readout: None, cycles: 0.0, energy_j: 0.0 })
            .collect();
        let mut deltas = vec![DeltaStats::default(); sessions.map_or(0, <[_]>::len)];
        let mut layer_reports = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            for (total, delta) in deltas.iter_mut().zip(&outcome.deltas) {
                total.merge(delta);
            }
            if let (Some(report), Some(shares)) = (outcome.report, outcome.shares) {
                let total: f64 = shares.iter().sum();
                let energy_j = report.energy.total_j();
                for (b, share) in shares.iter().enumerate() {
                    let frac = share / total;
                    requests[b].cycles += report.cycles * frac;
                    requests[b].energy_j += energy_j * frac;
                }
                layer_reports.push(report);
            }
            if let Some(readout) = outcome.readout {
                for (b, request) in requests.iter_mut().enumerate() {
                    request.readout = Some(readout.row_range(b * rows, (b + 1) * rows));
                }
            }
        }
        let sessions = sessions.unwrap_or_default();
        for ((session, result), delta) in sessions.iter().zip(&requests).zip(deltas) {
            session.absorb(result.readout.as_ref(), delta);
        }
        Ok(BatchReport { metrics, layer_reports, requests })
    }

    /// Decomposes one layer of the batch fused, hands it to the backend,
    /// and accounts for it: the readout's term-row work, the per-request
    /// attribution weights when the backend simulated the layer, and the
    /// stream rows replayed from their session's previous readout.
    ///
    /// Only the decomposition branches. A stateless batch stacks its rows
    /// into a recycled buffer and decomposes them with
    /// [`decompose_cached`] (the packed lane sweep, or the
    /// linear matcher and this executor's persistent tile cache for an
    /// unpacked layer); a stream
    /// batch diffs each frame against its session's memo
    /// ([`BatchExecutor::decompose_frames`]).
    #[allow(clippy::too_many_arguments)]
    fn run_layer(
        &self,
        l: usize,
        is_readout: bool,
        layer: &CompiledLayer,
        batch: &[InferenceRequest],
        sessions: Option<&[&StreamSession]>,
        rows: usize,
        metrics: MetricsMode,
    ) -> LayerOutcome {
        let plan = match (&layer.pwp, &layer.weights) {
            (Some(pwp), Some(weights)) if is_readout => Some(ReadoutPlan { pwp, weights }),
            _ => None,
        };
        let (decomp, deltas, replay) = match sessions {
            None => {
                let mats: Vec<&SpikeMatrix> = batch.iter().map(|r| &r.layers[l]).collect();
                // Layers run in parallel, so the pool holds one buffer
                // per concurrently fused layer.
                let buffer = crate::sync::lock(&self.scratch).pop().unwrap_or_default();
                let stacked = SpikeMatrix::vstack_into(&mats, buffer).expect("widths validated");
                let decomp =
                    decompose_cached(&stacked, &layer.patterns, &LayerMatchIndex, &self.caches[l]);
                crate::sync::lock(&self.scratch).push(stacked.into_bits());
                (decomp, Vec::new(), None)
            }
            Some(sessions) => {
                // Delta-sparse execution: in outputs-only mode a row the
                // frame left bit-identical has a bit-identical readout
                // row, so it replays from the session's cache. Full
                // simulation keeps the full sweep: its cycle and energy
                // attribution models the hardware executing every row.
                let replay = metrics == MetricsMode::OutputsOnly && plan.is_some();
                self.decompose_frames(l, layer, batch, sessions, rows, replay)
            }
        };
        // A stream batch whose every row replays leaves nothing to run.
        let output = (decomp.rows() > 0).then(|| {
            let work = LayerWork {
                decomp: &decomp,
                shape: layer.shape,
                row_scale: layer.total_rows() as f64 / rows as f64,
                name: &layer.name,
                readout: plan,
            };
            self.backend.run_layer(&work, metrics)
        });
        let (report, computed) = output.map_or((None, None), |o| (o.report, o.readout));
        if computed.is_some() {
            crate::sync::lock(&self.reuse).merge(&ReuseStats::of(&decomp));
        }
        let shares = report.as_ref().map(|report| {
            assert_eq!(
                report.row_work.len(),
                batch.len() * rows,
                "backend '{}' reported row work for layer {l} that is not one entry per row",
                self.backend.name()
            );
            attribution_shares(&report.row_work, rows)
        });
        let readout = match replay {
            Some(replay) => Some(replay.scatter(computed.as_ref(), layer.shape.n)),
            None => computed,
        };
        LayerOutcome { report, shares, readout, deltas }
    }

    /// Incrementally decomposes one layer of each streamed frame against
    /// its session's memo and splices the per-frame decompositions into
    /// one fused layer ([`Decomposition::concat`]). With `replay`, each
    /// session holding a previous readout sweeps sparsely — its unchanged
    /// rows are never emitted — and the returned [`Replay`] names the
    /// rows to fill from those readouts (`None` when every row runs).
    fn decompose_frames(
        &self,
        l: usize,
        layer: &CompiledLayer,
        frames: &[InferenceRequest],
        sessions: &[&StreamSession],
        rows: usize,
        replay: bool,
    ) -> (Decomposition, Vec<DeltaStats>, Option<Replay>) {
        let prevs: Vec<Option<Matrix>> = if replay {
            sessions.iter().map(|s| s.prev_readout()).collect()
        } else {
            vec![None; sessions.len()]
        };
        let mut decomps = Vec::with_capacity(frames.len());
        let mut deltas = Vec::with_capacity(frames.len());
        let mut changed: Vec<bool> = Vec::with_capacity(frames.len() * rows);
        for ((frame, session), prev) in frames.iter().zip(sessions).zip(&prevs) {
            // A panic mid-update can leave a memo internally inconsistent
            // (tiles from two different frames), so poison here is repaired
            // rather than merely tolerated: reset to a cold memo, which is
            // always sound — the next frame simply pays one full
            // decomposition instead of an incremental one.
            let mut memo = session.memo(l).lock().unwrap_or_else(|poisoned| {
                let mut memo = poisoned.into_inner();
                *memo = FrameMemo::new();
                memo
            });
            let sweep = if prev.is_some() { decompose_delta_sparse } else { decompose_delta };
            let (decomp, stats) = sweep(
                &frame.layers[l],
                &layer.patterns,
                &LayerMatchIndex,
                &self.caches[l],
                &mut memo,
            );
            if prev.is_some() {
                changed.extend_from_slice(memo.row_changed());
            } else {
                // No cached readout to replay from (first frame, or a
                // readout-less run absorbed earlier): decompose and
                // execute every row.
                changed.resize(changed.len() + rows, true);
            }
            decomps.push(decomp);
            deltas.push(stats);
        }
        let parts: Vec<&Decomposition> = decomps.iter().collect();
        let replay =
            (replay && changed.iter().any(|&c| !c)).then_some(Replay { prevs, changed, rows });
        (Decomposition::concat(&parts), deltas, replay)
    }
}

/// One fresh [`TileCache`] per model layer.
fn build_caches(model: &CompiledModel, capacity: usize) -> Arc<Vec<TileCache>> {
    Arc::new(model.layers().iter().map(|_| TileCache::new(capacity)).collect())
}

/// Attribution proxy per request: scanned rows plus Level-1 accumulations
/// plus Level-2 corrections — the quantities the processors' cycle counts
/// grow with — summed from the simulator's per-row census
/// ([`LayerReport::row_work`], `batch · rows` entries in batch order).
/// Shares split the exact batch totals; they are an attribution, not an
/// independent simulation. Only computed when the backend produced a
/// report, so the outputs-only hot path never sees it.
fn attribution_shares(row_work: &[RowWork], rows: usize) -> Vec<f64> {
    row_work
        .chunks(rows)
        .map(|request| {
            request.iter().fold(rows as f64, |proxy, row| {
                proxy + f64::from(row.corrections) + f64::from(row.assigned)
            })
        })
        .collect()
}

/// One layer's share of the batch outcome.
struct LayerOutcome {
    report: Option<LayerReport>,
    shares: Option<Vec<f64>>,
    readout: Option<Matrix>,
    /// Per-frame delta counters of a stream batch; empty when stateless.
    deltas: Vec<DeltaStats>,
}

/// The rows of a stream batch that replay their session's previous
/// readout instead of executing.
struct Replay {
    /// Each session's previous readout (`rows × N`), when it has one.
    prevs: Vec<Option<Matrix>>,
    /// Per fused row slot: `true` when the row changed and was executed.
    changed: Vec<bool>,
    rows: usize,
}

impl Replay {
    /// Assembles the full `batch·rows × n` readout: changed rows from
    /// `computed` (exactly the executed rows, in batch order), the rest
    /// from their session's previous readout.
    fn scatter(&self, computed: Option<&Matrix>, n: usize) -> Matrix {
        let rows = self.rows;
        let mut data = vec![0f32; self.prevs.len() * rows * n];
        let mut next = 0usize;
        for (b, prev) in self.prevs.iter().enumerate() {
            for r in 0..rows {
                let slot = b * rows + r;
                let dst = &mut data[slot * n..(slot + 1) * n];
                if self.changed[slot] {
                    let src = computed.expect("changed rows were executed");
                    dst.copy_from_slice(&src.as_slice()[next * n..(next + 1) * n]);
                    next += 1;
                } else {
                    let src = prev.as_ref().expect("unchanged row has a cached readout");
                    dst.copy_from_slice(&src.as_slice()[r * n..(r + 1) * n]);
                }
            }
        }
        Matrix::from_vec(self.prevs.len() * rows, n, data)
            .expect("scattered readout matches the batch shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompileOptions, ModelCompiler};
    use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};

    fn tiny_workload() -> Workload {
        WorkloadConfig::new(ModelId::ResNet18, DatasetId::Cifar10)
            .with_max_rows(32)
            .with_calibration_rows(64)
            .generate()
    }

    #[test]
    #[should_panic(expected = "PHI_TILE_CACHE=\"off\" does not parse")]
    fn tile_cache_knob_refuses_off() {
        snn_core::env::parse_env(PHI_TILE_CACHE_ENV, Some("off"), DEFAULT_TILE_CACHE_CAPACITY);
    }

    fn executor(workload: &Workload) -> BatchExecutor {
        let model = ModelCompiler::new(CompileOptions::fast()).compile(workload);
        BatchExecutor::new(Arc::new(model))
    }

    fn requests(workload: &Workload, count: usize, seed: u64) -> Vec<InferenceRequest> {
        workload.sample_requests(count, 4, seed).into_iter().map(InferenceRequest::new).collect()
    }

    #[test]
    fn batched_outputs_match_sequential_exactly() {
        let w = tiny_workload();
        let exec = executor(&w);
        let batch = requests(&w, 6, 11);
        let batched = exec.execute(&batch).unwrap();
        for (request, result) in batch.iter().zip(&batched.requests) {
            let alone = exec.execute_one(request).unwrap();
            // Bit-exact: stacking is row concatenation and every row
            // decomposes and accumulates independently.
            assert_eq!(result.readout, alone.readout);
            assert!(result.readout.is_some());
        }
        // The shared helper reports the same verdict.
        assert!(exec.readouts_match_sequential(&batch, &batched).unwrap());
    }

    #[test]
    fn cpu_backend_readouts_match_sim_backend() {
        let w = tiny_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let sim = BatchExecutor::new(Arc::clone(&model));
        let cpu = BatchExecutor::cpu(model);
        let batch = requests(&w, 5, 17);
        let full = sim.execute(&batch).unwrap();
        let fast = cpu.execute(&batch).unwrap();
        assert!(readouts_identical(&fast, &full));
        assert!(cpu.readouts_match_sequential(&batch, &fast).unwrap());
        // The CPU path carries no hardware accounting.
        assert_eq!(fast.metrics, MetricsMode::OutputsOnly);
        assert!(fast.layer_reports.is_empty());
        assert!(fast.requests.iter().all(|r| r.cycles == 0.0 && r.energy_j == 0.0));
    }

    #[test]
    fn executors_accumulate_readout_term_rows() {
        let w = tiny_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let sim = BatchExecutor::new(Arc::clone(&model));
        let cpu = BatchExecutor::cpu(model);
        let batch = requests(&w, 5, 17);
        let fast = cpu.execute(&batch).unwrap();
        let full = sim.execute(&batch).unwrap();
        assert!(readouts_identical(&fast, &full));
        // Every fused readout row is counted, 5 requests of 4 rows each,
        // and every term row is computed.
        let stats = cpu.reuse_stats();
        assert_eq!(stats.rows, 20);
        assert!(stats.term_rows_total > 0);
        assert_eq!(stats.term_rows_computed, stats.term_rows_total);
        assert_eq!(stats.reuse_rate(), 0.0);
        // Both backends compute the same readout, so they count the same
        // work; clones share the accumulator, like the tile caches.
        assert_eq!(sim.reuse_stats(), stats);
        assert_eq!(cpu.clone().reuse_stats(), stats);
    }

    #[test]
    fn outputs_only_mode_skips_simulation_on_the_sim_backend() {
        let w = tiny_workload();
        let exec = executor(&w);
        let batch = requests(&w, 3, 23);
        let full = exec.execute_with(&batch, MetricsMode::FullSim).unwrap();
        let fast = exec.execute_with(&batch, MetricsMode::OutputsOnly).unwrap();
        assert!(fast.layer_reports.is_empty());
        assert!(!full.layer_reports.is_empty());
        assert!(readouts_identical(&fast, &full));
    }

    #[test]
    fn full_sim_on_the_cpu_backend_is_refused() {
        let w = tiny_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let cpu = BatchExecutor::cpu(model);
        let batch = requests(&w, 2, 29);
        assert!(matches!(
            cpu.execute_with(&batch, MetricsMode::FullSim),
            Err(RuntimeError::MetricsUnavailable { backend: "cpu" })
        ));
        // The default mode serves fine.
        assert!(cpu.execute(&batch).is_ok());
    }

    #[test]
    fn ragged_requests_are_rejected() {
        let w = tiny_workload();
        let exec = executor(&w);
        // A request whose own layers disagree on rows: layer 1 gets an
        // extra row. rows() itself must refuse to pick a count...
        let mut ragged = requests(&w, 1, 31);
        let wide = ragged[0].layers[1].cols();
        ragged[0].layers[1] = SpikeMatrix::zeros(5, wide);
        assert!(matches!(
            ragged[0].rows(),
            Err(RuntimeError::Ragged { layer: 1, expected: 4, actual: 5 })
        ));
        // ...and execution must reject the request for the same reason.
        assert!(matches!(exec.execute(&ragged), Err(RuntimeError::Ragged { layer: 1, .. })));
        // A uniform request still reports its rows.
        assert_eq!(requests(&w, 1, 31)[0].rows().unwrap(), 4);
    }

    #[test]
    fn attribution_sums_to_batch_totals() {
        let w = tiny_workload();
        let exec = executor(&w);
        let report = exec.execute(&requests(&w, 5, 3)).unwrap();
        let attributed: f64 = report.requests.iter().map(|r| r.cycles).sum();
        let total = report.total_cycles();
        assert!((attributed - total).abs() / total < 1e-9, "{attributed} vs {total}");
        let attributed_e: f64 = report.requests.iter().map(|r| r.energy_j).sum();
        assert!((attributed_e - report.total_energy_j()).abs() / report.total_energy_j() < 1e-9);
    }

    #[test]
    fn attribution_shares_match_the_per_tile_formula() {
        // Reference: corrections and assigned tiles counted one
        // `l2_row` / `l1_index` walk per tile, in the same per-row f64
        // order, bit for bit; each request's cycles and energy are then
        // the layers' totals split by those shares, in layer order. The
        // second executor's 5-row m-tiles split the 24-row batch across
        // five m-tiles, the last one ragged.
        let w = tiny_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let batch = requests(&w, 6, 41);
        let small_tiles = SimBackend::new(PhiConfig { tile_m: 5, ..PhiConfig::default() });
        for exec in [
            BatchExecutor::new(Arc::clone(&model)),
            BatchExecutor::with_backend(Arc::clone(&model), small_tiles),
        ] {
            let report = exec.execute_with(&batch, MetricsMode::FullSim).unwrap();
            assert_eq!(report.layer_reports.len(), w.layers.len());
            let mut cycles = vec![0.0f64; batch.len()];
            let mut energy_j = vec![0.0f64; batch.len()];
            for (l, layer) in exec.model().layers().iter().enumerate() {
                let mats: Vec<&SpikeMatrix> = batch.iter().map(|r| &r.layers[l]).collect();
                let stacked = SpikeMatrix::vstack(&mats).unwrap();
                let decomp = phi_core::decompose(&stacked, &layer.patterns);
                let parts = decomp.num_partitions();
                let per_tile: Vec<f64> = (0..batch.len())
                    .map(|b| {
                        let mut proxy = 4.0;
                        for r in b * 4..(b + 1) * 4 {
                            proxy += decomp.l2_row(r).len() as f64;
                            proxy += (0..parts).filter(|&p| decomp.l1_index(r, p).is_some()).count()
                                as f64;
                        }
                        proxy
                    })
                    .collect();
                let layer_report = &report.layer_reports[l];
                let shares = attribution_shares(&layer_report.row_work, 4);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&shares), bits(&per_tile), "layer {l}");
                let total: f64 = per_tile.iter().sum();
                for (b, share) in per_tile.iter().enumerate() {
                    cycles[b] += layer_report.cycles * (share / total);
                    energy_j[b] += layer_report.energy.total_j() * (share / total);
                }
            }
            for (b, result) in report.requests.iter().enumerate() {
                assert_eq!(result.cycles.to_bits(), cycles[b].to_bits(), "request {b}");
                assert_eq!(result.energy_j.to_bits(), energy_j[b].to_bits(), "request {b}");
            }
        }
    }

    /// The simulator backend with its reports' row work rewritten.
    struct MisreportedRowWork(fn(&mut Vec<RowWork>));

    impl ExecutionBackend for MisreportedRowWork {
        fn name(&self) -> &'static str {
            "misreported"
        }

        fn models_hardware(&self) -> bool {
            true
        }

        fn run_layer(&self, work: &LayerWork<'_>, metrics: MetricsMode) -> phi_accel::LayerOutput {
            let mut output = SimBackend::default().run_layer(work, metrics);
            if let Some(report) = output.report.as_mut() {
                (self.0)(&mut report.row_work);
            }
            output
        }
    }

    #[test]
    fn reports_without_one_row_work_entry_per_row_are_refused() {
        let w = tiny_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let batch = requests(&w, 3, 43);
        let empty: fn(&mut Vec<RowWork>) = Vec::clear;
        let extra: fn(&mut Vec<RowWork>) =
            |rows| rows.push(RowWork { assigned: 0, corrections: 0 });
        for rewrite in [empty, extra] {
            let exec = BatchExecutor::with_backend(Arc::clone(&model), MisreportedRowWork(rewrite));
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.execute_with(&batch, MetricsMode::FullSim)
            }))
            .expect_err("a misreported row work must not be attributed");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains("backend 'misreported' reported row work"), "{message}");
        }
    }

    #[test]
    fn percentiles_are_ordered_and_within_range() {
        let w = tiny_workload();
        let exec = executor(&w);
        let report = exec.execute(&requests(&w, 16, 5)).unwrap();
        let p50 = report.p50_cycles();
        let p99 = report.p99_cycles();
        let min = report.latency_percentile_cycles(0.1);
        let max = report.latency_percentile_cycles(100.0);
        assert!(min <= p50 && p50 <= p99 && p99 <= max);
        assert!(min > 0.0);
        assert!(report.energy_per_inference_j() > 0.0);
        assert_eq!(report.batch_size(), 16);
        assert_eq!(report.layer_reports.len(), w.layers.len());
    }

    #[test]
    #[should_panic(expected = "latency percentiles require MetricsMode::FullSim")]
    fn percentiles_refuse_outputs_only_reports() {
        let w = tiny_workload();
        let exec = executor(&w);
        let report = exec.execute_with(&requests(&w, 2, 5), MetricsMode::OutputsOnly).unwrap();
        report.p50_cycles();
    }

    #[test]
    fn malformed_batches_are_rejected() {
        let w = tiny_workload();
        let exec = executor(&w);
        assert!(matches!(exec.execute(&[]), Err(RuntimeError::EmptyBatch)));

        // Wrong layer count.
        let mut short = requests(&w, 1, 1);
        short[0].layers.pop();
        assert!(matches!(
            exec.execute(&short),
            Err(RuntimeError::Shape { op: "request layer count", .. })
        ));

        // Wrong layer width.
        let mut narrow = requests(&w, 1, 1);
        narrow[0].layers[0] = SpikeMatrix::zeros(4, 3);
        assert!(matches!(
            exec.execute(&narrow),
            Err(RuntimeError::Shape { op: "request layer width", .. })
        ));

        // Rows uniform within each request but differing across requests.
        let mut mixed = requests(&w, 1, 1);
        mixed.extend(w.sample_requests(1, 5, 1).into_iter().map(InferenceRequest::new));
        assert!(matches!(
            exec.execute(&mixed),
            Err(RuntimeError::Shape { op: "request layer rows", expected: 4, actual: 5 })
        ));

        // Zero-row request.
        let empty = InferenceRequest::new(
            w.layers.iter().map(|l| SpikeMatrix::zeros(0, l.spec.shape.k)).collect(),
        );
        assert!(matches!(
            exec.execute(&[empty]),
            Err(RuntimeError::Shape { op: "request rows", .. })
        ));
    }

    /// `w` compiled at k = 20: unpacked layers, the only ones whose
    /// tiles go through the tile cache.
    fn unpacked_model(w: &Workload) -> Arc<CompiledModel> {
        let mut options = CompileOptions::fast();
        options.calibration.k = 20;
        Arc::new(ModelCompiler::new(options).compile(w))
    }

    #[test]
    fn packed_models_never_touch_the_tile_caches() {
        // CompileOptions::fast() calibrates k = 16, q = 16: every layer is
        // packed and decided by the brute-force lane matcher.
        let w = tiny_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let cached = BatchExecutor::cpu(Arc::clone(&model)).with_tile_cache_capacity(1 << 12);
        let batch = requests(&w, 6, 41);
        for _ in 0..2 {
            cached.execute(&batch).unwrap();
        }
        let capacity = cached.tile_cache_stats().capacity;
        assert_eq!(capacity, (1 << 12) * model.layers().len() as u64);
        assert_eq!(
            cached.tile_cache_stats(),
            phi_core::TileCacheStats { capacity, ..Default::default() }
        );
    }

    #[test]
    fn tile_cache_persists_across_batches_and_never_changes_outputs() {
        let w = tiny_workload();
        let model = unpacked_model(&w);
        let cached = BatchExecutor::cpu(Arc::clone(&model)).with_tile_cache_capacity(1 << 12);
        let uncached = BatchExecutor::cpu(Arc::clone(&model)).with_tile_cache_capacity(0);
        assert_eq!(uncached.tile_cache_stats(), phi_core::TileCacheStats::default());

        let batch = requests(&w, 6, 41);
        let first = cached.execute(&batch).unwrap();
        let after_first = cached.tile_cache_stats();
        assert!(after_first.misses > 0, "a cold cache must miss");
        assert!(after_first.entries > 0);
        // The second batch replays memoized decisions...
        let second = cached.execute(&batch).unwrap();
        let after_second = cached.tile_cache_stats();
        assert!(after_second.hits > after_first.hits, "a warm cache must hit");
        // ...and the readouts are bit-identical to both the first batch
        // and the cache-disabled executor.
        assert!(readouts_identical(&second, &first));
        assert!(readouts_identical(&uncached.execute(&batch).unwrap(), &first));
        // Clones share the cache lineage.
        let clone = cached.clone();
        clone.execute(&batch).unwrap();
        assert!(clone.tile_cache_stats().hits > after_second.hits);
        assert_eq!(clone.tile_cache_stats(), cached.tile_cache_stats());
    }

    #[test]
    fn tiny_tile_caches_evict_under_pressure_without_output_drift() {
        let w = tiny_workload();
        let model = unpacked_model(&w);
        let thrashing = BatchExecutor::cpu(Arc::clone(&model)).with_tile_cache_capacity(1);
        let reference = BatchExecutor::cpu(model).with_tile_cache_capacity(0);
        let batch = requests(&w, 8, 43);
        let a = thrashing.execute(&batch).unwrap();
        let b = thrashing.execute(&batch).unwrap();
        let stats = thrashing.tile_cache_stats();
        assert!(stats.evictions > 0, "capacity 1 must evict: {stats:?}");
        assert!(readouts_identical(&a, &b));
        assert!(readouts_identical(&a, &reference.execute(&batch).unwrap()));
    }

    #[test]
    fn executors_share_one_artifact() {
        let w = tiny_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let a = BatchExecutor::new(Arc::clone(&model));
        let b = a.clone();
        let c = BatchExecutor::cpu(Arc::clone(&model));
        assert_eq!(Arc::strong_count(&model), 4);
        let batch = requests(&w, 2, 9);
        let ra = a.execute(&batch).unwrap();
        let rb = b.execute(&batch).unwrap();
        assert_eq!(ra.requests[0].readout, rb.requests[0].readout);
        assert_eq!(ra.total_cycles(), rb.total_cycles());
        assert!(readouts_identical(&c.execute(&batch).unwrap(), &ra));
    }
}
