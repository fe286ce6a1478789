//! Async serving front-end: request-level admission, dynamic batching,
//! and multi-model hosting over [`BatchExecutor`].
//!
//! Everything below this module thinks in *batches* — callers of
//! [`BatchExecutor::execute`] must hand-assemble a row-uniform
//! `Vec<InferenceRequest>` and block while it runs. A serving system
//! thinks in *requests*: independent clients submit one inference at a
//! time and someone else must coalesce them, because the throughput win
//! of batching (PR 3 measured 19k → 218k inf/s from batch 1 to 64 on the
//! CPU backend) is only real if it happens automatically.
//!
//! [`PhiServer`] is that someone else. The request lifecycle:
//!
//! ```text
//!  submit(key, request)               collector thread               worker pool
//!  ───────────────────┐          ┌────────────────────────┐     ┌──────────────────┐
//!  admission control  │ ┌──────┐ │ drain the queue FIFO,  │batch│ BatchExecutor<B> │
//!  · unknown model    ├─┤intake├▶│ coalesce (model, rows) ├────▶│ execute(&batch)  │
//!  · ragged/oversized │ └──────┘ │ groups ≤ max_batch     │mpsc │ resolve handles  │
//!  · queue-full shed  │          └────────────────────────┘     │ record stats     │
//!  ───────────────────┘                                         └──────────────────┘
//!          │ Err(ServerError)                                          │
//!          ▼                                                           ▼
//!   caller keeps the rejected            ResponseHandle::wait() ⇒ ServedResponse
//!   request out of everyone's batch      (readout + queue-wait/exec latency)
//! ```
//!
//! Design points:
//!
//! * **Admission control happens at enqueue, synchronously.** A request
//!   that names an unknown model, is ragged, oversized, or mis-shaped is
//!   refused by [`PhiServer::submit`] before it can join a batch — so one
//!   bad request can never fail the well-formed requests coalesced around
//!   it. When the admitted-but-undispatched count reaches
//!   [`ServerConfig::queue_capacity`] the request is *shed*
//!   ([`ServerError::QueueFull`]) instead of blocking the submitter.
//! * **The submit path holds one short lock.** Submitters push onto one
//!   mutex-guarded intake deque; admission capacity and per-group
//!   occupancy are plain atomics, and the collector's condition variable
//!   is touched only on an idle→traffic transition or when an arrival
//!   completes a full batch.
//! * **Batches are coalesced by `(model, rows)`.** The executor requires
//!   row-uniform batches (one extrapolation factor per fused matrix). The
//!   collector drains the intake queue in arrival order and buffers
//!   requests per group: a group dispatches
//!   as soon as it holds [`ServerConfig::max_batch`] requests, and no
//!   later than [`ServerConfig::max_wait`] after its oldest request
//!   enqueued. Groups dispatch independently — a slow-filling group never
//!   head-of-line-blocks a full one.
//! * **One collector, many workers — by design.** Coalescing is the
//!   batching policy's serialization point and stays on a single thread
//!   (its work per request is a few pointer moves; execution is what
//!   scales). The worker pool ([`ServerConfig::workers`], defaulting to
//!   one per available core) executes dispatched batches concurrently,
//!   and per-model stats are maintained so that concurrent batch
//!   completions can never over-count a batch's mean size.
//! * **One tile-cache lineage per model.** Each model version gets one
//!   executor whose per-layer [`TileCache`](phi_core::TileCache)s every
//!   worker shares, so a tile resolved by any worker is a hit for all of
//!   them. Readouts are bit-identical with caching disabled.
//! * **Execution is bit-identical to calling [`BatchExecutor`] directly.**
//!   The server adds queueing and coalescing, never arithmetic: readouts
//!   are the same bits a direct `execute` of the same requests produces,
//!   regardless of how traffic interleaves or how many workers race
//!   (pinned by the `server_admission` and `server_concurrency`
//!   integration suites).
//! * **One server hosts many models.** A [`ModelRegistry`] maps string
//!   keys to `Arc`'d [`CompiledModel`] artifacts; registering a model is
//!   zero-copy, and per-model [`ModelStatsSnapshot`] counters (served /
//!   shed / rejected, p50/p99 queue-wait and exec latency) come for free.
//! * **Temporal streams ride the same batcher.** A client serving an SNN
//!   over consecutive timesteps opens a [`StreamSession`]
//!   ([`PhiServer::open_session`]) and submits frames through
//!   [`PhiServer::submit_stream`]: the server keeps each session's frames
//!   in timestep order (at most one in flight; later frames park on the
//!   session until the earlier one resolves) while coalescing frames of
//!   *different* sessions into fused batches, executed through
//!   [`BatchExecutor::execute_stream_with`] with per-timestep incremental
//!   decomposition and persistent LIF readout state. Streamed readouts
//!   stay bit-identical to stateless serving; sessions are bounded
//!   ([`ServerConfig::max_sessions`]) and expire after
//!   [`ServerConfig::session_ttl`] of inactivity.
//! * **No async runtime.** The workspace vendors its dependencies, so the
//!   collector and workers are `std::thread`s coordinated with mutexes,
//!   atomics, and `mpsc` channels; [`ResponseHandle`] is the blocking
//!   future equivalent.
//!
//! # Example: start a server, submit, wait
//!
//! ```
//! use phi_runtime::{
//!     CompileOptions, InferenceRequest, ModelCompiler, ModelRegistry, PhiServer, ServerConfig,
//! };
//! use snn_workloads::{DatasetId, ModelId, WorkloadConfig};
//! use std::sync::Arc;
//!
//! let mut workload = WorkloadConfig::new(ModelId::ResNet18, DatasetId::Cifar10)
//!     .with_max_rows(32)
//!     .with_calibration_rows(64)
//!     .generate();
//! workload.layers.truncate(3);
//! let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&workload));
//!
//! let mut registry = ModelRegistry::new();
//! registry.register("resnet18", Arc::clone(&model));
//! let server = PhiServer::start(registry, ServerConfig::default());
//!
//! let request = InferenceRequest::new(workload.sample_requests(1, 4, 5).remove(0));
//! let handle = server.submit("resnet18", request)?;
//! let response = handle.wait()?;
//! assert!(response.readout.is_some());
//! assert!(response.batch_size >= 1);
//! assert_eq!(server.stats("resnet18").unwrap().served, 1);
//! # Ok::<(), phi_runtime::ServerError>(())
//! ```

use crate::artifact::CompiledModel;
use crate::compile::ModelCompiler;
use crate::error::ServerError;
use crate::executor::{BatchExecutor, InferenceRequest};
use crate::lifecycle::{
    default_canary_slice, lifecycle_mode, LifecycleEvent, LifecycleMode, LifecycleStatsSnapshot,
    RollbackReason, SampleReservoir, TolerancePolicy, DEFAULT_DIVERGENCE_TOLERANCE,
};
use crate::stream::StreamSession;
use crate::sync::{lock, read, write};
use phi_accel::{BackendKind, ExecutionBackend};
use phi_core::{DeltaStats, ReuseStats, TileCacheStats};
use snn_core::Matrix;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Outcome alias for server calls.
pub type ServerResult<T> = std::result::Result<T, ServerError>;

/// Tuning knobs of the dynamic batcher. Start from
/// [`ServerConfig::default`] and override with the `with_*` builders.
///
/// The two policy bounds interact: a batch for one `(model, rows)` group
/// is dispatched as soon as `max_batch` requests have coalesced, and no
/// later than `max_wait` after its oldest request enqueued. So `max_wait`
/// bounds the batching latency a request is charged, and `max_batch` caps
/// how much traffic one execution fuses. Closed-loop deployments get the
/// best throughput when `max_batch` is near the expected concurrency (a
/// full batch dispatches immediately, with `max_wait` only catching
/// stragglers); open-loop traffic near saturation is dominated by
/// `queue_capacity` (how much burst is absorbed before shedding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Largest batch the collector will fuse (default 64).
    pub max_batch: usize,
    /// Longest a queued request waits for its batch to fill before the
    /// collector dispatches the partial batch (default 1 ms).
    pub max_wait: Duration,
    /// Bounded admission capacity — admitted-but-not-yet-dispatched
    /// requests; submissions beyond it are shed with
    /// [`ServerError::QueueFull`] (default 1024).
    pub queue_capacity: usize,
    /// Largest per-layer row count a request may carry; anything larger
    /// is refused with [`ServerError::Oversized`] (default 256).
    pub max_request_rows: usize,
    /// Worker threads executing dispatched batches (default: one per
    /// available core — execution, not coalescing, is the scalable part
    /// of the pipeline, so workers track the CPU count while the
    /// collector stays a single thread).
    pub workers: usize,
    /// Which [`ExecutionBackend`] every hosted model executes on
    /// (default [`BackendKind::Cpu`] — serving wants throughput; pick
    /// [`BackendKind::Sim`] to get simulated cycles/energy per response).
    pub backend: BackendKind,
    /// Per-layer tile-cache capacity of every hosted model's executor;
    /// `0` disables decomposition caching (default:
    /// [`crate::executor::default_tile_cache_capacity`], i.e. the
    /// `PHI_TILE_CACHE` environment knob).
    pub tile_cache: usize,
    /// Most live streaming sessions one hosted model may hold; opening
    /// beyond it is refused with [`ServerError::SessionLimit`] — session
    /// state (per-layer frame memos plus LIF membrane banks) is memory
    /// the server retains between requests, so the bound is enforced by
    /// refusing, never by silently evicting a live client (default 256).
    pub max_sessions: usize,
    /// How long a session with no traffic (no parked or in-flight frame,
    /// no new [`PhiServer::submit_stream`]) survives before it is
    /// eligible for eviction; expired sessions are swept lazily when new
    /// sessions open (default 60 s).
    pub session_ttl: Duration,
    /// Whether the automatic lifecycle machinery runs: under
    /// [`LifecycleMode::Auto`] every hosted model samples served traffic
    /// into a bounded reservoir and a background recalibrator thread
    /// recompiles / canaries / swaps when enough new traffic accumulated.
    /// Under [`LifecycleMode::Off`] (the default, overridable via the
    /// `PHI_LIFECYCLE` environment knob) the serving stack is exactly the
    /// pre-lifecycle one — no sampling, no extra thread — though manual
    /// [`PhiServer::deploy`] / [`PhiServer::propose`] still work.
    pub lifecycle: LifecycleMode,
    /// Fraction of live batches shadow-executed on a pending canary
    /// candidate, within `(0, 1]` (default: the `PHI_CANARY_SLICE`
    /// environment knob, else `1.0`). Shadow execution happens on the
    /// worker *after* the riders' responses are sent, so it costs batch
    /// throughput while a canary is pending, never response latency.
    pub canary_slice: f64,
    /// Requests whose shadow readouts must compare clean before a
    /// canary candidate is promoted (default 64).
    pub canary_target: u64,
    /// Capacity of the per-model served-request sampling reservoir under
    /// [`LifecycleMode::Auto`]; `0` disables sampling (default 64).
    pub reservoir_capacity: usize,
    /// Served requests since the last proposal that trigger an automatic
    /// recalibration (default 4096). [`PhiServer::request_recalibration`]
    /// bypasses the threshold.
    pub recalibrate_after: u64,
    /// How often the background recalibrator wakes to check its
    /// thresholds (default 100 ms).
    pub lifecycle_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            queue_capacity: 1024,
            max_request_rows: 256,
            workers: available_cores(),
            backend: BackendKind::default(),
            tile_cache: crate::executor::default_tile_cache_capacity(),
            max_sessions: 256,
            session_ttl: Duration::from_secs(60),
            lifecycle: lifecycle_mode(),
            canary_slice: default_canary_slice(),
            canary_target: 64,
            reservoir_capacity: 64,
            recalibrate_after: 4096,
            lifecycle_interval: Duration::from_millis(100),
        }
    }
}

/// The host's available core count (1 when undetectable), probed once
/// per process — the default for [`ServerConfig::workers`]. It is the
/// same count the `rayon` pool sizes itself by.
pub fn available_cores() -> usize {
    rayon::current_num_threads()
}

impl ServerConfig {
    /// Overrides the maximum batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Overrides the batching deadline.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Overrides the admission-queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Overrides the per-request row ceiling.
    pub fn with_max_request_rows(mut self, max_request_rows: usize) -> Self {
        self.max_request_rows = max_request_rows;
        self
    }

    /// Overrides the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the per-layer tile-cache capacity (`0` disables).
    pub fn with_tile_cache(mut self, tile_cache: usize) -> Self {
        self.tile_cache = tile_cache;
        self
    }

    /// Overrides the per-model live-session ceiling.
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Overrides the idle-session time-to-live.
    pub fn with_session_ttl(mut self, session_ttl: Duration) -> Self {
        self.session_ttl = session_ttl;
        self
    }

    /// Overrides the lifecycle mode.
    pub fn with_lifecycle(mut self, lifecycle: LifecycleMode) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Overrides the canary shadow slice (must be within `(0, 1]`).
    pub fn with_canary_slice(mut self, canary_slice: f64) -> Self {
        self.canary_slice = canary_slice;
        self
    }

    /// Overrides the canary comparison target.
    pub fn with_canary_target(mut self, canary_target: u64) -> Self {
        self.canary_target = canary_target;
        self
    }

    /// Overrides the sampling-reservoir capacity (`0` disables sampling).
    pub fn with_reservoir_capacity(mut self, reservoir_capacity: usize) -> Self {
        self.reservoir_capacity = reservoir_capacity;
        self
    }

    /// Overrides the served-traffic recalibration threshold.
    pub fn with_recalibrate_after(mut self, recalibrate_after: u64) -> Self {
        self.recalibrate_after = recalibrate_after;
        self
    }

    /// Overrides the recalibrator wake interval.
    pub fn with_lifecycle_interval(mut self, lifecycle_interval: Duration) -> Self {
        self.lifecycle_interval = lifecycle_interval;
        self
    }
}

/// The models a server hosts: string keys mapped to shared, immutable
/// [`CompiledModel`] artifacts. Registration is zero-copy — the registry
/// clones the `Arc`, never the artifact — so one compiled model can be
/// registered under several keys or shared with direct executors.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    models: HashMap<String, Arc<CompiledModel>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers `model` under `key`, returning the previously registered
    /// artifact if the key was already taken.
    pub fn register(
        &mut self,
        key: impl Into<String>,
        model: Arc<CompiledModel>,
    ) -> Option<Arc<CompiledModel>> {
        self.models.insert(key.into(), model)
    }

    /// The artifact registered under `key`.
    pub fn get(&self, key: &str) -> Option<&Arc<CompiledModel>> {
        self.models.get(key)
    }

    /// Registered keys, sorted.
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.models.keys().map(String::as_str).collect();
        keys.sort_unstable();
        keys
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// What the server resolves a request's [`ResponseHandle`] with.
#[derive(Debug, Clone)]
pub struct ServedResponse {
    /// Functional output of the readout layer, bit-identical to a direct
    /// [`BatchExecutor`] call on the same request; `None` when the model
    /// carries no readout weights.
    pub readout: Option<Matrix>,
    /// Simulated accelerator cycles attributed to this request — nonzero
    /// only on [`BackendKind::Sim`] servers.
    pub cycles: f64,
    /// Simulated energy attributed to this request, in joules — nonzero
    /// only on [`BackendKind::Sim`] servers.
    pub energy_j: f64,
    /// Wall-clock time between enqueue and the start of this request's
    /// batch execution.
    pub queue_wait: Duration,
    /// Wall-clock execution time of the batch this request rode in.
    pub exec: Duration,
    /// How many requests that batch fused.
    pub batch_size: usize,
}

/// The per-request future of the `std::thread` world: blocks until the
/// collector/worker pipeline resolves the request.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: mpsc::Receiver<ServerResult<ServedResponse>>,
}

impl ResponseHandle {
    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// [`ServerError::Execution`] when the batch failed,
    /// [`ServerError::ShuttingDown`] when the server stopped before
    /// serving it, and [`ServerError::Disconnected`] when the resolving
    /// worker vanished.
    pub fn wait(self) -> ServerResult<ServedResponse> {
        self.rx.recv().unwrap_or(Err(ServerError::Disconnected))
    }

    /// Like [`ResponseHandle::wait`] with an upper bound; `None` means
    /// the request is still in flight and the handle stays usable.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServerResult<ServedResponse>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServerError::Disconnected)),
        }
    }
}

/// Point-in-time counters for one hosted model (see [`PhiServer::stats`]).
/// Latency percentiles are nearest-rank over a bounded sample ring
/// (the most recent [`STAT_SAMPLE_CAP`] per series), in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStatsSnapshot {
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission because the queue was full.
    pub shed: u64,
    /// Requests shed at dispatch because they waited in the queue past
    /// their own [`InferenceRequest::with_deadline`] bound.
    pub deadline_exceeded: u64,
    /// Requests refused at admission as malformed (ragged, mis-shaped,
    /// zero-row, oversized).
    pub rejected: u64,
    /// Requests that reached a batch whose execution failed.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean fused batch size (`served / batches`; 0 before any batch).
    pub mean_batch: f64,
    /// Median wall-clock wait between enqueue and batch execution, µs.
    pub p50_queue_wait_us: f64,
    /// 99th-percentile queue wait, µs.
    pub p99_queue_wait_us: f64,
    /// Median wall-clock batch execution time observed by a request, µs.
    pub p50_exec_us: f64,
    /// 99th-percentile execution time, µs.
    pub p99_exec_us: f64,
    /// Decomposition tile-cache counters of this model's executor,
    /// aggregated over every layer (all zeros when the cache is disabled
    /// via [`ServerConfig::tile_cache`]).
    pub tile_cache: TileCacheStats,
    /// Cross-row product-sparsity reuse counters of this model's
    /// executor (all zeros when the CPU
    /// reuse pass is disabled via `PHI_REUSE=off` or the backend never
    /// took the planned readout path).
    pub reuse: ReuseStats,
    /// Live streaming sessions this model currently holds (open, not yet
    /// closed or expired).
    pub sessions_open: usize,
    /// Streamed frames served to completion across every session
    /// (a subset of `served` — streamed frames also count there).
    pub stream_frames: u64,
    /// Aggregate incremental-decomposition counters over every streamed
    /// frame served: how many rows were skipped whole and tiles replayed
    /// versus re-matched, summed across sessions and layers.
    pub stream_delta: DeltaStats,
}

/// How many latency samples each per-model series retains (a ring; the
/// newest overwrite the oldest).
pub const STAT_SAMPLE_CAP: usize = 1 << 16;

/// Bounded sample ring for one latency series.
#[derive(Debug, Default)]
struct SampleRing {
    samples: Vec<f64>,
    next: usize,
}

impl SampleRing {
    fn push(&mut self, value: f64) {
        if self.samples.len() < STAT_SAMPLE_CAP {
            self.samples.push(value);
        } else {
            self.samples[self.next % STAT_SAMPLE_CAP] = value;
        }
        self.next = (self.next + 1) % STAT_SAMPLE_CAP;
    }

    /// Nearest-rank percentile (`0 < p ≤ 100`); 0 when no samples exist.
    fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency samples"));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// Live counters behind a [`ModelStatsSnapshot`].
#[derive(Debug, Default)]
struct ModelStats {
    served: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    queue_wait_us: Mutex<SampleRing>,
    exec_us: Mutex<SampleRing>,
    stream_frames: AtomicU64,
    stream_delta: Mutex<DeltaStats>,
}

impl ModelStats {
    fn record_batch(&self, queue_waits: &[Duration], exec: Duration) {
        let batch = queue_waits.len() as u64;
        // Attribution order matters once several workers record batches
        // concurrently: `batches` is incremented *before* `served` (with
        // a release store), and `snapshot` reads `served` first (with an
        // acquire load). Any rider visible in `served` therefore has its
        // batch visible in `batches`, so `mean_batch` can never
        // transiently exceed the true mean or `max_batch`. The reverse
        // order had exactly that race: a snapshot taken between the two
        // increments of another worker could divide a newer `served` by
        // an older `batches`.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(batch, Ordering::Release);
        let mut ring = lock(&self.queue_wait_us);
        for wait in queue_waits {
            ring.push(wait.as_secs_f64() * 1e6);
        }
        drop(ring);
        let mut ring = lock(&self.exec_us);
        // One exec sample per request, so percentiles weight by traffic.
        for _ in 0..batch {
            ring.push(exec.as_secs_f64() * 1e6);
        }
    }

    fn snapshot(
        &self,
        tile_cache: TileCacheStats,
        reuse: ReuseStats,
        sessions_open: usize,
    ) -> ModelStatsSnapshot {
        // `served` before `batches` — see `record_batch`.
        let served = self.served.load(Ordering::Acquire);
        let batches = self.batches.load(Ordering::Relaxed);
        let queue = lock(&self.queue_wait_us);
        let exec = lock(&self.exec_us);
        ModelStatsSnapshot {
            served,
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 { 0.0 } else { served as f64 / batches as f64 },
            p50_queue_wait_us: queue.percentile(50.0),
            p99_queue_wait_us: queue.percentile(99.0),
            p50_exec_us: exec.percentile(50.0),
            p99_exec_us: exec.percentile(99.0),
            tile_cache,
            reuse,
            sessions_open,
            stream_frames: self.stream_frames.load(Ordering::Relaxed),
            stream_delta: *lock(&self.stream_delta),
        }
    }
}

/// One *version* of a hosted model: the immutable artifact plus its
/// executor and per-group occupancy. Coalescing groups identify entries
/// by `Arc` pointer, so a batch is homogeneous in version by construction
/// — an in-flight batch finishes on the entry it was admitted against
/// even if the slot swaps mid-execution.
struct ModelEntry {
    /// Monotonic version tag within the slot (1 = the registration).
    version: u64,
    /// The compiled artifact this version serves.
    model: Arc<CompiledModel>,
    /// The version's executor over the shared `Arc`'d artifact; every
    /// worker serves through it and shares its per-layer tile caches.
    executor: BatchExecutor<Box<dyn ExecutionBackend>>,
    /// The slot's counters, shared across every version (a swap must not
    /// reset a model's served/shed history).
    stats: Arc<ModelStats>,
    /// Admitted-but-undispatched occupancy per row-count group, so a
    /// submitter can tell in O(1) whether its arrival completed a batch
    /// without touching the intake locks. Counters are registered once
    /// per distinct row count and then only touched atomically.
    group_counts: RwLock<HashMap<usize, Arc<AtomicUsize>>>,
    /// Back-reference to the owning slot (weak: the slot owns its entries
    /// via `history`, so a strong pointer here would leak the pair).
    /// Workers upgrade it to find the pending canary, if any.
    slot: Weak<ModelSlot>,
}

impl ModelEntry {
    fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// The occupancy counter for `rows`, registering it on first use.
    fn group_counter(&self, rows: usize) -> Arc<AtomicUsize> {
        if let Some(counter) = read(&self.group_counts).get(&rows) {
            return Arc::clone(counter);
        }
        Arc::clone(write(&self.group_counts).entry(rows).or_default())
    }
}

/// Builds the executor for one model version.
fn build_entry(
    model: Arc<CompiledModel>,
    version: u64,
    stats: Arc<ModelStats>,
    slot: Weak<ModelSlot>,
    config: &ServerConfig,
) -> ModelEntry {
    let executor = BatchExecutor::with_backend(Arc::clone(&model), config.backend.create())
        .with_tile_cache_capacity(config.tile_cache);
    ModelEntry { version, model, executor, stats, group_counts: RwLock::new(HashMap::new()), slot }
}

/// How many lifecycle events a slot retains for its snapshot (older
/// events age out of the log but stay counted).
const EVENT_LOG_CAP: usize = 64;

/// Lifecycle counters of one slot (see [`LifecycleStatsSnapshot`]).
#[derive(Debug, Default)]
struct LifecycleCounters {
    installed: AtomicU64,
    proposed: AtomicU64,
    promoted: AtomicU64,
    rolled_back: AtomicU64,
    canary_compared: AtomicU64,
    recompiles: AtomicU64,
    compile_failures: AtomicU64,
}

/// A candidate version in its canary stage: shadow-executes a slice of
/// live traffic until `target` comparisons pass (promote) or one fails
/// (rollback). `decided` is the single-decision gate — racing workers and
/// shutdown agree on exactly one outcome.
struct CandidateState {
    entry: Arc<ModelEntry>,
    tolerance: TolerancePolicy,
    target: u64,
    compared: AtomicU64,
    /// Counts shadow opportunities (batches observed while pending) for
    /// the deterministic slice gate.
    shadow_seq: AtomicU64,
    decided: AtomicBool,
    max_divergence: Mutex<f32>,
}

/// One hosted model *key*: a live, versioned slot. The active entry is
/// published through an atomic pointer — the submit path reads it with
/// one `Acquire` load and two reference-count bumps, no lock — while
/// `history` retains every version ever installed (so the pointer is
/// always backed by a live allocation, and in-flight batches plus pinned
/// sessions can keep serving on superseded versions).
struct ModelSlot {
    /// Points at the entry new admissions serve on. Always one of the
    /// `history` elements.
    active: AtomicPtr<ModelEntry>,
    /// Every version ever installed, in install order. Entries are never
    /// removed while the slot lives: retention is what makes the raw
    /// `active` pointer (and version-pinned sessions) sound, and a
    /// server hosts few enough versions per run that the executors'
    /// memory is not a concern. Lock order: `candidate` before `history`.
    history: Mutex<Vec<Arc<ModelEntry>>>,
    /// Monotonic version source (`1` = the registration).
    version_seq: AtomicU64,
    /// Counters shared by every version of this slot.
    stats: Arc<ModelStats>,
    /// Live streaming sessions, by id. Bounded by
    /// [`ServerConfig::max_sessions`]; idle sessions past
    /// [`ServerConfig::session_ttl`] are swept when new ones open.
    /// Sessions pin the entry they opened on, so a swap never tears a
    /// stream mid-window.
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    /// Monotonic session-id source (ids are never reused, so a closed or
    /// expired session's id can never alias a new client).
    session_seq: AtomicU64,
    /// The fraction of served batches a pending canary shadows
    /// ([`ServerConfig::canary_slice`], fixed at start).
    canary_slice: f64,
    /// The pending canary candidate, if any (at most one per slot).
    candidate: Mutex<Option<Arc<CandidateState>>>,
    /// Fast-path mirror of `candidate.is_some()`, so workers serving
    /// traffic with no canary pending pay one relaxed-ish load, not a
    /// lock.
    canary_active: AtomicBool,
    /// Bounded uniform sample of served requests (the recalibration
    /// corpus) under [`LifecycleMode::Auto`].
    reservoir: SampleReservoir,
    /// Set by [`PhiServer::request_recalibration`]; the recalibrator
    /// consumes it to bypass the served-traffic threshold.
    nudge: AtomicBool,
    /// `stats.served` at the last proposal, so `recalibrate_after`
    /// measures traffic *since* then.
    served_at_proposal: AtomicU64,
    lifecycle: LifecycleCounters,
    /// The most recent lifecycle events, oldest first (bounded by
    /// [`EVENT_LOG_CAP`]).
    events: Mutex<VecDeque<LifecycleEvent>>,
}

impl ModelSlot {
    /// Creates a slot serving `model` as version 1.
    fn new(model: Arc<CompiledModel>, config: &ServerConfig) -> Arc<ModelSlot> {
        let stats = Arc::new(ModelStats::default());
        let slot = Arc::new_cyclic(|weak: &Weak<ModelSlot>| {
            let entry = Arc::new(build_entry(model, 1, Arc::clone(&stats), weak.clone(), config));
            let active = AtomicPtr::new(Arc::as_ptr(&entry) as *mut ModelEntry);
            ModelSlot {
                active,
                history: Mutex::new(vec![entry]),
                version_seq: AtomicU64::new(1),
                stats,
                sessions: Mutex::new(HashMap::new()),
                session_seq: AtomicU64::new(0),
                canary_slice: config.canary_slice,
                candidate: Mutex::new(None),
                canary_active: AtomicBool::new(false),
                reservoir: SampleReservoir::new(config.reservoir_capacity),
                nudge: AtomicBool::new(false),
                served_at_proposal: AtomicU64::new(0),
                lifecycle: LifecycleCounters::default(),
                events: Mutex::new(VecDeque::new()),
            }
        });
        slot.lifecycle.installed.store(1, Ordering::Relaxed);
        slot
    }

    /// An owned handle to the entry new admissions serve on — the
    /// lock-free read side of the hot swap.
    fn active_entry(&self) -> Arc<ModelEntry> {
        let ptr = self.active.load(Ordering::Acquire);
        // SAFETY: every pointer ever stored in `active` comes from an
        // `Arc` that `history` retains for the slot's whole lifetime
        // (`install` pushes to history *before* publishing the pointer),
        // so `ptr` is a live Arc allocation and bumping its strong count
        // manufactures a legitimate owned clone.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Publishes `entry` as the slot's active version. Retention first,
    /// publication second — the order `active_entry`'s safety leans on.
    fn install(&self, entry: Arc<ModelEntry>) {
        let ptr = Arc::as_ptr(&entry) as *mut ModelEntry;
        lock(&self.history).push(entry);
        self.active.store(ptr, Ordering::Release);
    }

    /// Allocates the next version tag.
    fn next_version(&self) -> u64 {
        self.version_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Appends to the bounded event log.
    fn push_event(&self, event: LifecycleEvent) {
        let mut events = lock(&self.events);
        if events.len() == EVENT_LOG_CAP {
            events.pop_front();
        }
        events.push_back(event);
    }
}

/// One live streaming session as the server tracks it: the executor-side
/// state plus the ordering queue that keeps the session's frames in
/// timestep order.
struct SessionEntry {
    /// The model version the session opened on. Pinned for the session's
    /// whole life: a stream's incremental state (frame memos, LIF bank,
    /// previous readout) is only meaningful against the artifact that
    /// produced it, so frames keep executing on this entry across hot
    /// swaps and the stream stays bit-coherent.
    entry: Arc<ModelEntry>,
    /// The executor-side session state (frame memos + LIF readout bank).
    state: StreamSession,
    queue: Mutex<SessionQueue>,
}

/// The ordering queue of one session. Invariant: at most one of the
/// session's frames is ever past this queue (in the intake queue, a
/// collector buffer, or an executing batch) — `in_flight` guards the
/// slot, later frames park here in arrival order, and the worker that
/// resolves the in-flight frame promotes the next parked one. That is
/// both what serializes the session's timesteps and what lets frames of
/// *different* sessions coalesce freely.
struct SessionQueue {
    parked: VecDeque<Pending>,
    in_flight: bool,
    /// Last client activity ([`PhiServer::submit_stream`]), for TTL
    /// eviction.
    last_active: Instant,
    /// Set by the shutdown sweep (under the lock) so a racing submitter
    /// can never park a frame nobody will ever promote.
    closed: bool,
}

/// Point-in-time view of one streaming session (returned by
/// [`PhiServer::session_snapshot`] and, terminally, by
/// [`PhiServer::close_session`]).
#[derive(Debug, Clone)]
pub struct SessionReadout {
    /// The rate-coded readout of the window so far: per readout slot, LIF
    /// spike count divided by timesteps served. `None` before the first
    /// frame or when the model carries no readout weights.
    pub rate: Option<Matrix>,
    /// Timesteps (frames) served so far.
    pub timesteps: u64,
    /// Cumulative incremental-decomposition counters over the session's
    /// served frames.
    pub delta: DeltaStats,
}

/// One admitted, not-yet-dispatched request.
struct Pending {
    entry: Arc<ModelEntry>,
    request: InferenceRequest,
    rows: usize,
    enqueued: Instant,
    tx: mpsc::Sender<ServerResult<ServedResponse>>,
    /// `Some` for a streamed frame: the session whose in-flight slot the
    /// frame occupies (the resolving worker releases it). `None` for
    /// plain stateless traffic.
    session: Option<Arc<SessionEntry>>,
}

/// A coalesced batch on its way to a worker.
struct Batch {
    entry: Arc<ModelEntry>,
    pending: Vec<Pending>,
}

/// The intake queue: a short-held mutex around a deque. `closed` is set
/// (under the lock) during shutdown *before* the final drain, so a
/// racing submitter either lands its request in the drained deque or
/// observes the closure — a request can never be stranded.
struct IntakeQueue {
    items: VecDeque<Pending>,
    closed: bool,
}

/// State shared between submitters and the collector.
struct Shared {
    config: ServerConfig,
    intake: Mutex<IntakeQueue>,
    /// Admitted-but-not-yet-dispatched requests (the queue-capacity
    /// accounting; includes requests the collector has drained but not
    /// dispatched).
    queued: AtomicUsize,
    /// True when the intake queue holds undrained traffic. Written with `swap`
    /// on both sides so the RMW chain orders a submitter's push before
    /// the collector's next drain.
    dirty: AtomicBool,
    shutdown: AtomicBool,
    /// Anchor mutex for `cond`; holds no data — the predicates are the
    /// atomics above, and wakers lock/unlock it to order flag updates
    /// against the collector's check-then-wait.
    ctrl: Mutex<()>,
    cond: Condvar,
    /// Anchor mutex + condvar for the lifecycle thread's timed sleep, so
    /// shutdown (and [`PhiServer::request_recalibration`]) can cut its
    /// [`ServerConfig::lifecycle_interval`] nap short.
    lc_ctrl: Mutex<()>,
    lc_cond: Condvar,
    unknown_model: AtomicU64,
}

/// A coalescing group: one hosted model (by entry identity) at one
/// per-layer row count, split by plain-vs-streamed — exactly the
/// requests the executor may fuse. Streamed frames go through
/// [`BatchExecutor::execute_stream_with`] (per-session incremental
/// decomposition) and plain requests through
/// [`BatchExecutor::execute`], so the two can never share a batch even
/// at the same row count.
type GroupKey = (usize, usize, bool);

/// The collector's private per-group buffers (drained from the intake
/// queue, in arrival order).
type Groups = HashMap<GroupKey, VecDeque<Pending>>;

fn group_of(pending: &Pending) -> GroupKey {
    (Arc::as_ptr(&pending.entry) as usize, pending.rows, pending.session.is_some())
}

impl Shared {
    /// Wakes the collector. Locking (and immediately releasing) the ctrl
    /// mutex orders this wake against the collector's predicate check:
    /// the collector holds `ctrl` from predicate read to `Condvar::wait`,
    /// so a waker either updates the flags before the read, or blocks
    /// here until the collector is parked and then wakes it — no lost
    /// wakeups.
    fn wake_collector(&self) {
        drop(lock(&self.ctrl));
        self.cond.notify_all();
    }

    /// Wakes the lifecycle thread (same ordering argument as
    /// [`Shared::wake_collector`], against its timed wait).
    fn wake_lifecycle(&self) {
        drop(lock(&self.lc_ctrl));
        self.lc_cond.notify_all();
    }
}

/// The serving front-end: hosts every model of a [`ModelRegistry`] behind
/// request-level admission control, a dynamic batcher, and a worker pool.
/// See the [module docs](crate::server) for the request lifecycle.
///
/// The server owns its threads: dropping it (or calling
/// [`PhiServer::shutdown`]) stops the collector, resolves still-queued
/// requests with [`ServerError::ShuttingDown`], and joins every thread.
pub struct PhiServer {
    shared: Arc<Shared>,
    slots: HashMap<String, Arc<ModelSlot>>,
    collector: Mutex<Option<JoinHandle<()>>>,
    lifecycle: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl PhiServer {
    /// Spawns the collector and worker threads and starts serving.
    ///
    /// Every registered model gets one executor over a fresh instance of
    /// the configured backend, whose tile caches all workers share;
    /// artifacts stay shared (`Arc`-cloned from the
    /// registry, never copied).
    ///
    /// # Panics
    ///
    /// Panics when the registry is empty or the config is degenerate
    /// (`max_batch`, `queue_capacity`, `max_request_rows`, or `workers`
    /// of zero) — these are deployment bugs, not runtime conditions.
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> Self {
        assert!(!registry.is_empty(), "a server needs at least one registered model");
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        assert!(config.queue_capacity > 0, "queue_capacity must be at least 1");
        assert!(config.max_request_rows > 0, "max_request_rows must be at least 1");
        assert!(config.workers > 0, "workers must be at least 1");
        assert!(config.max_sessions > 0, "max_sessions must be at least 1");
        assert!(
            config.canary_slice > 0.0 && config.canary_slice <= 1.0,
            "canary_slice must be in (0, 1]"
        );

        let slots: HashMap<String, Arc<ModelSlot>> = registry
            .models
            .into_iter()
            .map(|(key, model)| (key, ModelSlot::new(model, &config)))
            .collect();

        let shared = Arc::new(Shared {
            config,
            intake: Mutex::new(IntakeQueue { items: VecDeque::new(), closed: false }),
            queued: AtomicUsize::new(0),
            dirty: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            ctrl: Mutex::new(()),
            cond: Condvar::new(),
            lc_ctrl: Mutex::new(()),
            lc_cond: Condvar::new(),
            unknown_model: AtomicU64::new(0),
        });

        let (dispatch_tx, dispatch_rx) = mpsc::channel::<Batch>();
        let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));
        let workers: Vec<JoinHandle<()>> = (0..config.workers)
            .map(|w| {
                let rx = Arc::clone(&dispatch_rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phi-server-worker-{w}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let collector = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("phi-server-collector".into())
                .spawn(move || collector_loop(&shared, &dispatch_tx))
                .expect("spawn collector thread")
        };
        let lifecycle = (config.lifecycle == LifecycleMode::Auto).then(|| {
            let shared = Arc::clone(&shared);
            let slots: Vec<Arc<ModelSlot>> = slots.values().map(Arc::clone).collect();
            std::thread::Builder::new()
                .name("phi-server-lifecycle".into())
                .spawn(move || lifecycle_loop(&shared, &slots))
                .expect("spawn lifecycle thread")
        });

        PhiServer {
            shared,
            slots,
            collector: Mutex::new(Some(collector)),
            lifecycle: Mutex::new(lifecycle),
            workers: Mutex::new(workers),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Hosted model keys, sorted.
    pub fn model_keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.slots.keys().map(String::as_str).collect();
        keys.sort_unstable();
        keys
    }

    /// The artifact currently serving `key` (the *active* version);
    /// `None` for an unknown key.
    pub fn model(&self, key: &str) -> Option<Arc<CompiledModel>> {
        self.slots.get(key).map(|slot| Arc::clone(&slot.active_entry().model))
    }

    /// The version tag of the artifact currently serving `key` (1 = the
    /// registration); `None` for an unknown key.
    pub fn model_version(&self, key: &str) -> Option<u64> {
        self.slots.get(key).map(|slot| slot.active_entry().version)
    }

    /// Hot-swaps the model serving `key` to `model`, immediately and
    /// without a canary stage, returning the new version tag.
    ///
    /// The swap is atomic and zero-downtime: submissions admitted before
    /// the swap execute (and their batches complete) on the version they
    /// were admitted against; submissions after it serve on `model`.
    /// Open streaming sessions stay pinned to the version they opened on.
    /// No request is shed or errored by the swap itself.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownModel`], [`ServerError::ShuttingDown`], or
    /// [`ServerError::CanaryInProgress`] when a proposed candidate is
    /// still undecided (decide it first — a direct swap under an active
    /// canary would make the comparison baseline ambiguous).
    pub fn deploy(&self, key: &str, model: Arc<CompiledModel>) -> ServerResult<u64> {
        let slot = self.slot(key)?;
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }
        // Hold the candidate lock across the install so a concurrent
        // propose cannot interleave a canary with the swap.
        let guard = lock(&slot.candidate);
        if guard.is_some() {
            return Err(ServerError::CanaryInProgress { key: key.to_string() });
        }
        let version = slot.next_version();
        let entry = Arc::new(build_entry(
            model,
            version,
            Arc::clone(&slot.stats),
            Arc::downgrade(slot),
            &self.shared.config,
        ));
        slot.install(entry);
        drop(guard);
        slot.lifecycle.installed.fetch_add(1, Ordering::Relaxed);
        slot.lifecycle.promoted.fetch_add(1, Ordering::Relaxed);
        slot.push_event(LifecycleEvent::Promoted { version });
        Ok(version)
    }

    /// Proposes `model` as a canary candidate for `key`: a
    /// [`ServerConfig::canary_slice`] fraction of live stateless traffic
    /// is shadow-executed on the candidate and compared to the served
    /// readouts under `tolerance`. After
    /// [`ServerConfig::canary_target`] comparisons within tolerance the
    /// candidate is promoted (hot-swapped in, exactly like
    /// [`PhiServer::deploy`]); one comparison outside tolerance — or a
    /// candidate that panics or errors — rolls it back, leaving the
    /// incumbent serving untouched. Returns the candidate's version tag.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownModel`], [`ServerError::ShuttingDown`], or
    /// [`ServerError::CanaryInProgress`] when a candidate is already
    /// pending.
    pub fn propose(
        &self,
        key: &str,
        model: Arc<CompiledModel>,
        tolerance: TolerancePolicy,
    ) -> ServerResult<u64> {
        let slot = self.slot(key)?;
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }
        propose_candidate(slot, model, tolerance, &self.shared.config)
            .ok_or_else(|| ServerError::CanaryInProgress { key: key.to_string() })
    }

    /// Asks the background recalibrator to recalibrate `key` from its
    /// traffic reservoir at the next lifecycle tick, bypassing the
    /// [`ServerConfig::recalibrate_after`] traffic threshold. A no-op
    /// (beyond arming the flag) unless the server runs
    /// [`LifecycleMode::Auto`].
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownModel`].
    pub fn request_recalibration(&self, key: &str) -> ServerResult<()> {
        let slot = self.slot(key)?;
        slot.nudge.store(true, Ordering::Release);
        self.shared.wake_lifecycle();
        Ok(())
    }

    /// Lifecycle counters and recent events for `key`; `None` for an
    /// unknown key.
    pub fn lifecycle_stats(&self, key: &str) -> Option<LifecycleStatsSnapshot> {
        self.slots.get(key).map(|slot| {
            let lc = &slot.lifecycle;
            LifecycleStatsSnapshot {
                version: slot.active_entry().version,
                versions_installed: lc.installed.load(Ordering::Relaxed),
                proposed: lc.proposed.load(Ordering::Relaxed),
                promoted: lc.promoted.load(Ordering::Relaxed),
                rolled_back: lc.rolled_back.load(Ordering::Relaxed),
                canary_pending: slot.canary_active.load(Ordering::Acquire),
                canary_compared: lc.canary_compared.load(Ordering::Relaxed),
                recompiles: lc.recompiles.load(Ordering::Relaxed),
                compile_failures: lc.compile_failures.load(Ordering::Relaxed),
                samples_seen: slot.reservoir.seen(),
                samples_held: slot.reservoir.held(),
                events: lock(&slot.events).iter().cloned().collect(),
            }
        })
    }

    fn slot(&self, key: &str) -> ServerResult<&Arc<ModelSlot>> {
        self.slots.get(key).ok_or_else(|| {
            self.shared.unknown_model.fetch_add(1, Ordering::Relaxed);
            ServerError::UnknownModel { key: key.to_string() }
        })
    }

    /// Submits one request for the model registered under `key`,
    /// returning a handle that resolves once a batch containing the
    /// request has executed.
    ///
    /// Admission control runs here, synchronously: the model key is
    /// resolved, the request is shape-validated against that model
    /// (including the ragged check), the row ceiling is enforced, and the
    /// admission capacity is reserved — so every error below is returned
    /// before the request can influence any other request's batch. The
    /// hot path then touches the intake-queue lock plus a handful of
    /// atomics; the collector's condition variable is involved only when
    /// this arrival is the first after idle or completes a full batch.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownModel`], [`ServerError::Rejected`] (ragged /
    /// mis-shaped / zero-row), [`ServerError::Oversized`],
    /// [`ServerError::QueueFull`] (shed), or [`ServerError::ShuttingDown`].
    pub fn submit(&self, key: &str, request: InferenceRequest) -> ServerResult<ResponseHandle> {
        let shared = &self.shared;
        let slot = self.slot(key)?;
        // The admission-time active version; the request rides this entry
        // to completion even if the slot swaps before dispatch.
        let entry = slot.active_entry();
        let rows = request.validate_against(entry.model()).map_err(|e| {
            entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
            ServerError::Rejected(e)
        })?;
        let max = shared.config.max_request_rows;
        if rows > max {
            entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Oversized { rows, max });
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }

        // Reserve admission capacity. The CAS loop keeps the bound strict
        // under concurrent submitters (a plain check-then-add could admit
        // one extra request per racing thread).
        let capacity = shared.config.queue_capacity;
        let mut queued = shared.queued.load(Ordering::SeqCst);
        loop {
            if queued >= capacity {
                entry.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::QueueFull { capacity });
            }
            match shared.queued.compare_exchange_weak(
                queued,
                queued + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => queued = actual,
            }
        }

        // Feed the recalibration reservoir from admitted traffic (Auto
        // mode only; a lock-free try-offer, never blocking the hot path).
        if shared.config.lifecycle == LifecycleMode::Auto {
            slot.reservoir.offer(&request);
        }

        // Count into the coalescing group *before* the push: the counter
        // must never under-run when the collector dispatches this request
        // and decrements. A premature full-group wake (counter full, push
        // still in flight) is harmless — the collector dispatches on its
        // buffered length, not the counter.
        let counter = entry.group_counter(rows);
        let matching = counter.fetch_add(1, Ordering::SeqCst) + 1;

        let (tx, rx) = mpsc::channel();
        let pending = Pending { entry, request, rows, enqueued: Instant::now(), tx, session: None };
        if let Err(_pending) = push_admitted(shared, pending, matching) {
            // Shutdown closed the intake between the fast check above and
            // the push: roll back the reservation and refuse.
            counter.fetch_sub(1, Ordering::SeqCst);
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(ServerError::ShuttingDown);
        }
        Ok(ResponseHandle { rx })
    }

    /// Opens a streaming session on the model registered under `key` and
    /// returns its id. The session starts cold — empty per-layer frame
    /// memos, LIF readout bank at resting potential — and is shaped by
    /// the first frame submitted to it.
    ///
    /// Expired sessions (idle past [`ServerConfig::session_ttl`] with no
    /// parked or in-flight frame) are swept here, so an abandoned client
    /// releases its slot the next time anyone opens one.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownModel`], [`ServerError::SessionLimit`] when
    /// the model already holds [`ServerConfig::max_sessions`] live
    /// sessions, or [`ServerError::ShuttingDown`].
    pub fn open_session(&self, key: &str) -> ServerResult<u64> {
        let slot = self.slot(key)?;
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }
        // Pin the session to the version active at open time: streaming
        // state is only meaningful against one artifact, so the session
        // keeps serving on this entry across hot swaps.
        let entry = slot.active_entry();
        let ttl = self.shared.config.session_ttl;
        let now = Instant::now();
        let mut sessions = lock(&slot.sessions);
        sessions.retain(|_, session| {
            let queue = lock(&session.queue);
            queue.in_flight
                || !queue.parked.is_empty()
                || now.duration_since(queue.last_active) <= ttl
        });
        let max = self.shared.config.max_sessions;
        if sessions.len() >= max {
            return Err(ServerError::SessionLimit { max });
        }
        let id = slot.session_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let state = StreamSession::new(entry.model());
        let session = SessionEntry {
            entry,
            state,
            queue: Mutex::new(SessionQueue {
                parked: VecDeque::new(),
                in_flight: false,
                last_active: now,
                closed: false,
            }),
        };
        sessions.insert(id, Arc::new(session));
        Ok(id)
    }

    /// Submits the next timestep frame of session `session_id`.
    ///
    /// Admission control is the same as [`PhiServer::submit`] (shape
    /// validation, row ceiling, capacity reservation), plus the session
    /// checks: the id must resolve, and the frame's row count must match
    /// the one the session was locked to by its first admitted frame.
    /// After admission the frame either enters the batcher directly or —
    /// when the session already has a frame in flight — parks on the
    /// session and is promoted (in arrival order) by the worker that
    /// resolves the earlier frame. Frames of the *same* session therefore
    /// execute strictly in submission order, one at a time, while frames
    /// of different sessions coalesce into fused batches.
    ///
    /// The resolved [`ServedResponse::readout`] is the frame's own
    /// per-timestep readout, bit-identical to stateless serving of the
    /// same request; the session separately accumulates the rate-coded
    /// window readout ([`PhiServer::session_snapshot`],
    /// [`PhiServer::close_session`]).
    ///
    /// # Errors
    ///
    /// Everything [`PhiServer::submit`] returns, plus
    /// [`ServerError::UnknownSession`] for an id that was never opened,
    /// was closed, or expired.
    pub fn submit_stream(
        &self,
        key: &str,
        session_id: u64,
        frame: InferenceRequest,
    ) -> ServerResult<ResponseHandle> {
        let shared = &self.shared;
        let slot = self.slot(key)?;
        let session = lock(&slot.sessions)
            .get(&session_id)
            .map(Arc::clone)
            .ok_or(ServerError::UnknownSession { session: session_id })?;
        // Frames validate and serve against the session's *pinned*
        // version, not the slot's current one.
        let entry = Arc::clone(&session.entry);
        let rows = frame.validate_against(entry.model()).map_err(|e| {
            entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
            ServerError::Rejected(e)
        })?;
        let max = shared.config.max_request_rows;
        if rows > max {
            entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Oversized { rows, max });
        }
        // Lock the session to its first admitted frame's row count, and
        // refuse mismatching frames here — synchronously, before the
        // frame can ride in (and poison) a coalesced batch.
        session.state.fix_rows(rows).map_err(|e| {
            entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
            ServerError::Rejected(e)
        })?;
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }

        // Reserve admission capacity — parked frames hold a reservation
        // too, so a slow session cannot buffer unbounded frames.
        let capacity = shared.config.queue_capacity;
        let mut queued = shared.queued.load(Ordering::SeqCst);
        loop {
            if queued >= capacity {
                entry.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::QueueFull { capacity });
            }
            match shared.queued.compare_exchange_weak(
                queued,
                queued + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => queued = actual,
            }
        }
        if shared.config.lifecycle == LifecycleMode::Auto {
            slot.reservoir.offer(&frame);
        }
        let counter = entry.group_counter(rows);
        let matching = counter.fetch_add(1, Ordering::SeqCst) + 1;

        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            entry,
            request: frame,
            rows,
            enqueued: Instant::now(),
            tx,
            session: Some(Arc::clone(&session)),
        };

        // Claim the session's in-flight slot or park behind it. The queue
        // lock is held across the intake push so a concurrent release
        // can never observe the slot claimed with the frame not yet
        // visible anywhere.
        let mut queue = lock(&session.queue);
        queue.last_active = pending.enqueued;
        if queue.closed {
            drop(queue);
            counter.fetch_sub(1, Ordering::SeqCst);
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(ServerError::ShuttingDown);
        }
        if queue.in_flight {
            queue.parked.push_back(pending);
            return Ok(ResponseHandle { rx });
        }
        queue.in_flight = true;
        if let Err(_pending) = push_admitted(shared, pending, matching) {
            queue.in_flight = false;
            drop(queue);
            counter.fetch_sub(1, Ordering::SeqCst);
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(ServerError::ShuttingDown);
        }
        Ok(ResponseHandle { rx })
    }

    /// Point-in-time view of one streaming session: its rate-coded
    /// readout so far, timesteps served, and delta counters. The session
    /// stays open.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownModel`] or [`ServerError::UnknownSession`].
    pub fn session_snapshot(&self, key: &str, session_id: u64) -> ServerResult<SessionReadout> {
        let slot = self.slot(key)?;
        let session = lock(&slot.sessions)
            .get(&session_id)
            .map(Arc::clone)
            .ok_or(ServerError::UnknownSession { session: session_id })?;
        Ok(SessionReadout {
            rate: session.state.rate_readout(),
            timesteps: session.state.timesteps(),
            delta: session.state.delta_stats(),
        })
    }

    /// Closes a streaming session and returns its final readout snapshot.
    /// The id stops resolving immediately; frames already admitted still
    /// execute and resolve their handles (against state the snapshot no
    /// longer reflects), so callers wanting a complete window readout
    /// should wait on their outstanding handles first.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownModel`] or [`ServerError::UnknownSession`].
    pub fn close_session(&self, key: &str, session_id: u64) -> ServerResult<SessionReadout> {
        let slot = self.slot(key)?;
        let session = lock(&slot.sessions)
            .remove(&session_id)
            .ok_or(ServerError::UnknownSession { session: session_id })?;
        Ok(SessionReadout {
            rate: session.state.rate_readout(),
            timesteps: session.state.timesteps(),
            delta: session.state.delta_stats(),
        })
    }

    /// Counters for the model registered under `key`; `None` for an
    /// unknown key.
    pub fn stats(&self, key: &str) -> Option<ModelStatsSnapshot> {
        self.slots.get(key).map(|slot| {
            // Cache/reuse counters come from the *active* version's
            // executor; the admission/latency counters live on the slot
            // and span every version.
            let active = slot.active_entry();
            let sessions_open = lock(&slot.sessions).len();
            slot.stats.snapshot(
                active.executor.tile_cache_stats(),
                active.executor.reuse_stats(),
                sessions_open,
            )
        })
    }

    /// How many submissions named a key no model is registered under.
    pub fn unknown_model_rejections(&self) -> u64 {
        self.shared.unknown_model.load(Ordering::Relaxed)
    }

    /// Stops accepting requests, resolves everything still queued with
    /// [`ServerError::ShuttingDown`], and joins the collector and worker
    /// threads. Batches already dispatched still complete and resolve
    /// normally. Called automatically on drop; takes `&self` so a
    /// shutdown can race in-flight submitters on other threads (repeated
    /// and concurrent calls are safe — the first claims the join
    /// handles, the rest only re-run the idempotent resolve sweep).
    ///
    /// A worker that panicked earlier (e.g. a panicking custom backend)
    /// is joined tolerantly: its requests already resolved with
    /// [`ServerError::Disconnected`], and re-raising the panic here would
    /// turn a served error into an abort when the server is dropped
    /// during unwinding.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_collector();
        self.shared.wake_lifecycle();
        if let Some(collector) = lock(&self.collector).take() {
            let _ = collector.join();
        }
        if let Some(lifecycle) = lock(&self.lifecycle).take() {
            let _ = lifecycle.join();
        }
        // The collector's shutdown sweep already closed and drained the
        // intake; repeat it here in case the collector died early (a
        // panicked collector must not strand submitted requests).
        close_and_resolve_intake(&self.shared);
        // Frames parked on sessions never reached the intake — close each
        // session queue (so racing submitters can no longer park) and
        // resolve the parked frames with the same typed error. In-flight
        // streamed frames are already dispatched and resolve normally.
        for slot in self.slots.values() {
            let sessions = lock(&slot.sessions);
            let mut resolved = 0usize;
            for session in sessions.values() {
                let mut queue = lock(&session.queue);
                queue.closed = true;
                for pending in queue.parked.drain(..) {
                    pending.entry.group_counter(pending.rows).fetch_sub(1, Ordering::SeqCst);
                    let _ = pending.tx.send(Err(ServerError::ShuttingDown));
                    resolved += 1;
                }
            }
            drop(sessions);
            if resolved > 0 {
                self.shared.queued.fetch_sub(resolved, Ordering::SeqCst);
            }
        }
        for worker in lock(&self.workers).drain(..) {
            let _ = worker.join();
        }
        // Resolve any still-undecided canary: workers are gone, so nothing
        // will ever finish its comparisons. Rolling back (never promoting)
        // keeps an unvetted candidate out of the history a restart might
        // inspect.
        for slot in self.slots.values() {
            let candidate = lock(&slot.candidate).clone();
            if let Some(candidate) = candidate {
                rollback_candidate(slot, &candidate, RollbackReason::ShuttingDown);
            }
        }
    }
}

impl Drop for PhiServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for PhiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhiServer")
            .field("models", &self.model_keys())
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

/// The dynamic batcher: sleeps until traffic (or a group deadline, or
/// shutdown), drains the intake queue into private per-group buffers in
/// arrival order, and dispatches each group that is full or past
/// its deadline to the worker pool. Coalescing is intentionally a single
/// thread — it is the batching policy's serialization point and does a
/// few pointer moves per request, while execution (the scalable part)
/// fans out across the worker pool.
fn collector_loop(shared: &Shared, dispatch: &mpsc::Sender<Batch>) {
    let max_wait = shared.config.max_wait;
    let mut groups: Groups = HashMap::new();
    loop {
        // Sleep phase: hold ctrl from predicate check to wait so wakers
        // can never slip a flag update between the two (see
        // `Shared::wake_collector`).
        {
            let mut guard = lock(&shared.ctrl);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    drop(guard);
                    resolve_shutdown(shared, &mut groups);
                    return;
                }
                if shared.dirty.load(Ordering::SeqCst) {
                    break;
                }
                match earliest_deadline(&groups, max_wait) {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (g, _) = shared
                            .cond
                            .wait_timeout(guard, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        guard = g;
                    }
                    None => {
                        guard = shared.cond.wait(guard).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }

        drain_intake(shared, &mut groups);
        if dispatch_due(shared, &mut groups, dispatch).is_err() {
            // Every worker is gone (the pool panicked); nothing can
            // execute batches, so resolve what is left instead of
            // stranding the handles.
            resolve_all(shared, &mut groups, &ServerError::Disconnected);
            return;
        }
    }
}

/// The next instant some buffered work forces the collector awake: the
/// oldest request of each group plus `max_wait` (the dispatch deadline),
/// and every per-request [`InferenceRequest::deadline`] (the shed
/// deadline — without these a lone deadlined request under a generous
/// `max_wait` would outwait its own expiry). `None` with no buffered
/// work.
fn earliest_deadline(groups: &Groups, max_wait: Duration) -> Option<Instant> {
    groups
        .values()
        .flat_map(|buf| {
            let group = buf.front().map(|p| p.enqueued + max_wait);
            let per_request =
                buf.iter().filter_map(|p| p.request.deadline.map(|d| p.enqueued + d)).min();
            group.into_iter().chain(per_request)
        })
        .min()
}

/// Moves everything the intake queue holds into the collector's
/// per-group buffers, in arrival order. The intake lock is held only for
/// the O(1) deque handoff.
fn drain_intake(shared: &Shared, groups: &mut Groups) {
    // Clear the flag *before* draining (with a swap, pairing with the
    // submitters' swap): a push that lands after this drain re-raises the
    // flag, so the next loop iteration drains it.
    shared.dirty.swap(false, Ordering::SeqCst);
    let drained = std::mem::take(&mut lock(&shared.intake).items);
    for pending in drained {
        groups.entry(group_of(&pending)).or_default().push_back(pending);
    }
}

/// Dispatches every group that is full (in `max_batch` cuts) or whose
/// oldest request has waited out `max_wait`; empty groups are dropped.
/// Errors when the worker pool has hung up the dispatch channel.
fn dispatch_due(
    shared: &Shared,
    groups: &mut Groups,
    dispatch: &mpsc::Sender<Batch>,
) -> std::result::Result<(), ()> {
    let max_batch = shared.config.max_batch;
    let max_wait = shared.config.max_wait;
    let now = Instant::now();
    let keys: Vec<GroupKey> = groups.keys().copied().collect();
    for key in keys {
        let buf = groups.get_mut(&key).expect("group just listed");
        // Shed requests that waited out their own deadline before cutting
        // batches — an expired request must resolve with the typed shed
        // error, not ride into a batch it asked not to wait for.
        let mut idx = 0;
        while idx < buf.len() {
            let expired = buf[idx]
                .request
                .deadline
                .is_some_and(|d| now.duration_since(buf[idx].enqueued) >= d);
            if expired {
                let pending = buf.remove(idx).expect("index in bounds");
                shed_deadline(shared, pending);
            } else {
                idx += 1;
            }
        }
        loop {
            let due =
                buf.len() >= max_batch || buf.front().is_some_and(|p| now >= p.enqueued + max_wait);
            if !due {
                break;
            }
            let take = buf.len().min(max_batch);
            let pending: Vec<Pending> = buf.drain(..take).collect();
            let entry = Arc::clone(&pending[0].entry);
            // Release the admission capacity and group occupancy these
            // requests held; they are the workers' problem now.
            shared.queued.fetch_sub(pending.len(), Ordering::SeqCst);
            entry.group_counter(key.1).fetch_sub(pending.len(), Ordering::SeqCst);
            if dispatch.send(Batch { entry, pending }).is_err() {
                return Err(());
            }
        }
        if buf.is_empty() {
            groups.remove(&key);
        }
    }
    Ok(())
}

/// Resolves one deadline-expired request with
/// [`ServerError::DeadlineExceeded`], releasing every reservation it held
/// (admission capacity, group occupancy, and — for a streamed frame — its
/// session's in-flight slot, promoting the next parked frame).
fn shed_deadline(shared: &Shared, pending: Pending) {
    shared.queued.fetch_sub(1, Ordering::SeqCst);
    pending.entry.group_counter(pending.rows).fetch_sub(1, Ordering::SeqCst);
    pending.entry.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    let deadline = pending.request.deadline.expect("only deadlined requests are shed here");
    let _ = pending.tx.send(Err(ServerError::DeadlineExceeded { deadline }));
    if let Some(session) = pending.session {
        release_session(shared, &session);
    }
}

/// The collector's shutdown sweep: close the intake (so racing
/// submitters observe the closure instead of stranding a request), then
/// resolve everything undispatched with [`ServerError::ShuttingDown`].
fn resolve_shutdown(shared: &Shared, groups: &mut Groups) {
    resolve_all(shared, groups, &ServerError::ShuttingDown);
}

/// Closes and drains the intake queue, resolving the drained requests
/// with [`ServerError::ShuttingDown`]; idempotent.
fn close_and_resolve_intake(shared: &Shared) {
    let mut resolved = 0usize;
    let mut intake = lock(&shared.intake);
    intake.closed = true;
    for pending in intake.items.drain(..) {
        let _ = pending.tx.send(Err(ServerError::ShuttingDown));
        resolved += 1;
    }
    drop(intake);
    if resolved > 0 {
        shared.queued.fetch_sub(resolved, Ordering::SeqCst);
    }
}

/// Resolves every undispatched request — intake queue and private
/// buffers — with `error`; nothing vanishes silently.
fn resolve_all(shared: &Shared, groups: &mut Groups, error: &ServerError) {
    close_and_resolve_intake(shared);
    let mut resolved = 0usize;
    for (_, buf) in groups.drain() {
        for pending in buf {
            let _ = pending.tx.send(Err(error.clone()));
            resolved += 1;
        }
    }
    if resolved > 0 {
        shared.queued.fetch_sub(resolved, Ordering::SeqCst);
    }
}

/// Pushes an admitted request onto the intake queue and wakes the
/// collector when the arrival changes its decision: traffic after idle
/// starts a batch, and a full group dispatches immediately. Intermediate
/// arrivals just set `dirty`, which the collector reads at its next
/// deadline — skipping their wakeups keeps the submit path (and the
/// whole box, on small hosts) off the context-switch treadmill. Both
/// sides `swap` the dirty flag, so the collector's drain is ordered
/// after this push.
///
/// On a closed intake (a shutdown race) the pending is handed back so the
/// caller can unwind its reservations and resolve or refuse it.
fn push_admitted(shared: &Shared, pending: Pending, matching: usize) -> Result<(), Pending> {
    {
        let mut intake = lock(&shared.intake);
        if intake.closed {
            return Err(pending);
        }
        intake.items.push_back(pending);
    }
    let first_after_idle = !shared.dirty.swap(true, Ordering::SeqCst);
    if first_after_idle || matching >= shared.config.max_batch {
        shared.wake_collector();
    }
    Ok(())
}

/// Releases a session's in-flight slot after its frame resolved: the
/// next parked frame (if any) takes the slot over and enters the
/// batcher; otherwise the slot frees. Called by the worker that served
/// (or failed) the session's frame — this hand-off is what keeps a
/// session's frames in strict timestep order.
fn release_session(shared: &Shared, session: &Arc<SessionEntry>) {
    let next = {
        let mut queue = lock(&session.queue);
        match queue.parked.pop_front() {
            // The slot stays claimed: the promoted frame occupies it.
            Some(pending) => Some(pending),
            None => {
                queue.in_flight = false;
                None
            }
        }
    };
    if let Some(pending) = next {
        let counter = pending.entry.group_counter(pending.rows);
        let matching = counter.load(Ordering::SeqCst);
        if let Err(pending) = push_admitted(shared, pending, matching) {
            // Shutdown closed the intake; resolve the promoted frame the
            // same way the intake drain would have.
            counter.fetch_sub(1, Ordering::SeqCst);
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            let _ = pending.tx.send(Err(ServerError::ShuttingDown));
            lock(&session.queue).in_flight = false;
        }
    }
}

/// A worker: pull a batch, execute it on the model version's executor,
/// resolve every rider with its share of the report plus wall-clock
/// latency, and record stats. Exits when the collector hangs up the
/// channel.
fn worker_loop(rx: &Mutex<mpsc::Receiver<Batch>>, shared: &Shared) {
    loop {
        // Hold the receiver lock only while waiting; execution happens
        // after it is released so other workers can pick up batches.
        let batch = match lock(rx).recv() {
            Ok(batch) => batch,
            Err(_) => return,
        };
        serve_batch(batch, shared);
    }
}

fn serve_batch(batch: Batch, shared: &Shared) {
    let Batch { entry, pending } = batch;
    let executor = &entry.executor;
    let exec_start = Instant::now();
    let queue_waits: Vec<Duration> =
        pending.iter().map(|p| exec_start.duration_since(p.enqueued)).collect();
    // The group key carries the stream discriminant, so a batch is
    // homogeneous: all streamed frames or all plain requests.
    if pending[0].session.is_some() {
        serve_stream_batch(shared, &entry, executor, pending, exec_start, &queue_waits);
        return;
    }
    let (requests, resolvers): (Vec<InferenceRequest>, Vec<_>) =
        pending.into_iter().map(|p| (p.request, (p.tx, p.enqueued))).unzip();

    match executor.execute(&requests) {
        Ok(report) => {
            let exec = exec_start.elapsed();
            entry.stats.record_batch(&queue_waits, exec);
            let batch_size = requests.len();
            // Snapshot the served readouts for the canary comparison
            // *before* rider resolution consumes the report — but only
            // when a canary is actually pending on this entry's slot.
            let shadow = canary_candidate(&entry);
            let served: Option<Vec<Option<Matrix>>> = shadow
                .as_ref()
                .map(|_| report.requests.iter().map(|r| r.readout.clone()).collect());
            for ((tx, enqueued), result) in resolvers.into_iter().zip(report.requests) {
                let _ = tx.send(Ok(ServedResponse {
                    readout: result.readout,
                    cycles: result.cycles,
                    energy_j: result.energy_j,
                    queue_wait: exec_start.duration_since(enqueued),
                    exec,
                    batch_size,
                }));
            }
            // Shadow execution runs after every rider resolved: the
            // canary costs candidate-side throughput, never served
            // latency.
            if let Some((slot, candidate)) = shadow {
                run_canary_shadow(&slot, &candidate, &requests, &served.unwrap_or_default());
            }
        }
        Err(e) => {
            // Admission validated shapes, so this is unexpected — but it
            // must still resolve every rider, with the same typed error.
            entry.stats.failed.fetch_add(requests.len() as u64, Ordering::Relaxed);
            for (tx, _) in resolvers {
                let _ = tx.send(Err(ServerError::Execution(e.clone())));
            }
        }
    }
}

/// Executes one coalesced batch of streamed frames — one frame per
/// distinct session — through the incremental streaming path, resolves
/// every rider, records the stream counters, and releases each session's
/// in-flight slot (promoting its next parked frame, if any).
fn serve_stream_batch(
    shared: &Shared,
    entry: &Arc<ModelEntry>,
    executor: &BatchExecutor<Box<dyn ExecutionBackend>>,
    pending: Vec<Pending>,
    exec_start: Instant,
    queue_waits: &[Duration],
) {
    let mut frames = Vec::with_capacity(pending.len());
    let mut resolvers = Vec::with_capacity(pending.len());
    let mut sessions = Vec::with_capacity(pending.len());
    for p in pending {
        frames.push(p.request);
        resolvers.push((p.tx, p.enqueued));
        sessions.push(p.session.expect("stream batch carries sessions"));
    }
    let session_refs: Vec<&StreamSession> = sessions.iter().map(|s| &s.state).collect();
    // Each session rides at most one frame per batch, so the per-batch
    // delta is the difference of its cumulative counters around the call.
    let before: Vec<DeltaStats> = sessions.iter().map(|s| s.state.delta_stats()).collect();

    match executor.execute_stream(&frames, &session_refs) {
        Ok(report) => {
            let exec = exec_start.elapsed();
            entry.stats.record_batch(queue_waits, exec);
            entry.stats.stream_frames.fetch_add(frames.len() as u64, Ordering::Relaxed);
            let mut batch_delta = DeltaStats::default();
            for (session, prior) in sessions.iter().zip(&before) {
                let after = session.state.delta_stats();
                batch_delta.merge(&DeltaStats {
                    rows_total: after.rows_total - prior.rows_total,
                    rows_skipped: after.rows_skipped - prior.rows_skipped,
                    tiles_reused: after.tiles_reused - prior.tiles_reused,
                    tiles_rematched: after.tiles_rematched - prior.tiles_rematched,
                });
            }
            lock(&entry.stats.stream_delta).merge(&batch_delta);
            let batch_size = frames.len();
            for ((tx, enqueued), result) in resolvers.into_iter().zip(report.requests) {
                let _ = tx.send(Ok(ServedResponse {
                    readout: result.readout,
                    cycles: result.cycles,
                    energy_j: result.energy_j,
                    queue_wait: exec_start.duration_since(enqueued),
                    exec,
                    batch_size,
                }));
            }
        }
        Err(e) => {
            entry.stats.failed.fetch_add(frames.len() as u64, Ordering::Relaxed);
            for (tx, _) in resolvers {
                let _ = tx.send(Err(ServerError::Execution(e.clone())));
            }
        }
    }
    for session in &sessions {
        release_session(shared, session);
    }
}

/// Installs `model` as a canary candidate on `slot`, or returns `None`
/// when one is already pending.
fn propose_candidate(
    slot: &Arc<ModelSlot>,
    model: Arc<CompiledModel>,
    tolerance: TolerancePolicy,
    config: &ServerConfig,
) -> Option<u64> {
    let mut guard = lock(&slot.candidate);
    if guard.is_some() {
        return None;
    }
    let version = slot.next_version();
    let entry = Arc::new(build_entry(
        model,
        version,
        Arc::clone(&slot.stats),
        Arc::downgrade(slot),
        config,
    ));
    *guard = Some(Arc::new(CandidateState {
        entry,
        tolerance,
        target: config.canary_target.max(1),
        compared: AtomicU64::new(0),
        shadow_seq: AtomicU64::new(0),
        decided: AtomicBool::new(false),
        max_divergence: Mutex::new(0.0),
    }));
    slot.canary_active.store(true, Ordering::Release);
    drop(guard);
    slot.lifecycle.proposed.fetch_add(1, Ordering::Relaxed);
    slot.push_event(LifecycleEvent::Proposed { version, tolerance });
    Some(version)
}

/// The pending canary a batch served on `entry` should shadow, if any:
/// the slot must have an active candidate *and* `entry` must still be the
/// slot's active version (batches riding a superseded version are the
/// wrong comparison baseline).
fn canary_candidate(entry: &Arc<ModelEntry>) -> Option<(Arc<ModelSlot>, Arc<CandidateState>)> {
    let slot = entry.slot.upgrade()?;
    if !slot.canary_active.load(Ordering::Acquire) {
        return None;
    }
    if !std::ptr::eq(slot.active.load(Ordering::Acquire), Arc::as_ptr(entry)) {
        return None;
    }
    let candidate = lock(&slot.candidate).clone()?;
    Some((slot, candidate))
}

/// Shadow-executes one served batch on the canary candidate and compares
/// readouts under the candidate's tolerance. Promotes after `target`
/// in-tolerance comparisons; rolls back on the first out-of-tolerance
/// pair, an execution error, or a panic (the candidate's failure modes
/// must never reach the incumbent's riders — they already resolved).
fn run_canary_shadow(
    slot: &Arc<ModelSlot>,
    candidate: &Arc<CandidateState>,
    requests: &[InferenceRequest],
    served: &[Option<Matrix>],
) {
    if candidate.decided.load(Ordering::Acquire) {
        return;
    }
    // Deterministic slice gate: admit the batches whose index crosses a
    // new integer multiple of the slice, giving exactly a `slice`
    // fraction of shadow opportunities without RNG state.
    let slice = slot.canary_slice;
    let tick = candidate.shadow_seq.fetch_add(1, Ordering::Relaxed);
    let admitted = ((tick + 1) as f64 * slice).floor() > (tick as f64 * slice).floor();
    if !admitted {
        return;
    }
    let executor = &candidate.entry.executor;
    let outcome = catch_unwind(AssertUnwindSafe(|| executor.execute(requests)));
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(_)) => {
            rollback_candidate(slot, candidate, RollbackReason::CanaryExecutionFailed);
            return;
        }
        Err(_) => {
            rollback_candidate(slot, candidate, RollbackReason::CanaryPanicked);
            return;
        }
    };
    let mut worst = 0.0f32;
    for (shadow, baseline) in report.requests.iter().zip(served) {
        match readout_divergence(shadow.readout.as_ref(), baseline.as_ref()) {
            Some(d) if candidate.tolerance.allows(d) => worst = worst.max(d),
            _ => {
                rollback_candidate(slot, candidate, RollbackReason::CanaryDivergence);
                return;
            }
        }
    }
    {
        let mut max = lock(&candidate.max_divergence);
        *max = max.max(worst);
    }
    let n = served.len() as u64;
    slot.lifecycle.canary_compared.fetch_add(n, Ordering::Relaxed);
    let compared = candidate.compared.fetch_add(n, Ordering::AcqRel) + n;
    if compared >= candidate.target {
        promote_candidate(slot, candidate);
    }
}

/// Worst per-element absolute divergence between a shadow readout and the
/// served baseline. `None` (always out of tolerance) for mismatched
/// presence or shape, or a non-finite difference. A pair of bit-unequal
/// but numerically equal values (`0.0` vs `-0.0`) reports the smallest
/// positive divergence, so [`TolerancePolicy::BitIdentical`] still fails.
fn readout_divergence(shadow: Option<&Matrix>, served: Option<&Matrix>) -> Option<f32> {
    match (shadow, served) {
        (None, None) => Some(0.0),
        (Some(a), Some(b)) => {
            if a.rows() != b.rows() || a.cols() != b.cols() {
                return None;
            }
            let mut worst = 0.0f32;
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                if x.to_bits() == y.to_bits() {
                    continue;
                }
                let d = (x - y).abs();
                if !d.is_finite() {
                    return None;
                }
                worst = worst.max(d.max(f32::MIN_POSITIVE));
            }
            Some(worst)
        }
        _ => None,
    }
}

/// Promotes the canary candidate: installs its entry as the slot's active
/// version. The `decided` swap makes the decision exactly-once against
/// racing workers and shutdown.
fn promote_candidate(slot: &Arc<ModelSlot>, candidate: &Arc<CandidateState>) {
    if candidate.decided.swap(true, Ordering::AcqRel) {
        return;
    }
    {
        let mut guard = lock(&slot.candidate);
        if guard.as_ref().is_some_and(|c| Arc::ptr_eq(c, candidate)) {
            *guard = None;
        }
        slot.canary_active.store(false, Ordering::Release);
    }
    slot.install(Arc::clone(&candidate.entry));
    slot.lifecycle.installed.fetch_add(1, Ordering::Relaxed);
    slot.lifecycle.promoted.fetch_add(1, Ordering::Relaxed);
    let version = candidate.entry.version;
    slot.push_event(LifecycleEvent::CanaryPass {
        version,
        compared: candidate.compared.load(Ordering::Acquire),
        max_divergence: *lock(&candidate.max_divergence),
    });
    slot.push_event(LifecycleEvent::Promoted { version });
}

/// Rolls the canary candidate back: the incumbent keeps serving, the
/// candidate's entry is dropped (it was never installed). Exactly-once,
/// like promotion.
fn rollback_candidate(
    slot: &Arc<ModelSlot>,
    candidate: &Arc<CandidateState>,
    reason: RollbackReason,
) {
    if candidate.decided.swap(true, Ordering::AcqRel) {
        return;
    }
    {
        let mut guard = lock(&slot.candidate);
        if guard.as_ref().is_some_and(|c| Arc::ptr_eq(c, candidate)) {
            *guard = None;
        }
        slot.canary_active.store(false, Ordering::Release);
    }
    slot.lifecycle.rolled_back.fetch_add(1, Ordering::Relaxed);
    slot.push_event(LifecycleEvent::RolledBack { version: candidate.entry.version, reason });
}

/// The background recalibrator ([`LifecycleMode::Auto`] only): every
/// [`ServerConfig::lifecycle_interval`] (or sooner, when nudged), checks
/// each slot for enough fresh traffic since its last proposal, recompiles
/// the incumbent's patterns from the reservoir off-thread, and proposes
/// the result as a canary candidate. A panicking or failing recompile
/// degrades to the incumbent — it is counted and logged, and never
/// touches the registry.
fn lifecycle_loop(shared: &Shared, slots: &[Arc<ModelSlot>]) {
    let interval = shared.config.lifecycle_interval;
    loop {
        {
            let guard = lock(&shared.lc_ctrl);
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let _ = shared
                .lc_cond
                .wait_timeout(guard, interval)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for slot in slots {
            maybe_recalibrate(shared, slot);
        }
    }
}

/// One recalibration check for one slot (see [`lifecycle_loop`]).
fn maybe_recalibrate(shared: &Shared, slot: &Arc<ModelSlot>) {
    if lock(&slot.candidate).is_some() {
        return;
    }
    let nudged = slot.nudge.swap(false, Ordering::AcqRel);
    let served = slot.stats.served.load(Ordering::Acquire);
    let due = served.saturating_sub(slot.served_at_proposal.load(Ordering::Acquire))
        >= shared.config.recalibrate_after;
    if !nudged && !due {
        return;
    }
    let incumbent = slot.active_entry();
    let samples: Vec<InferenceRequest> = slot
        .reservoir
        .drain()
        .into_iter()
        .filter(|s| s.validate_against(incumbent.model()).is_ok())
        .collect();
    if samples.is_empty() {
        // Nothing to calibrate from yet; keep an explicit nudge armed so
        // it fires once traffic arrives.
        if nudged {
            slot.nudge.store(true, Ordering::Release);
        }
        return;
    }
    slot.served_at_proposal.store(served, Ordering::Release);
    slot.lifecycle.recompiles.fetch_add(1, Ordering::Relaxed);
    let compiled = catch_unwind(AssertUnwindSafe(|| {
        ModelCompiler::default().recompile_from_samples(&incumbent.model, &samples)
    }));
    let candidate = match compiled {
        Ok(Ok(model)) => Arc::new(model),
        Ok(Err(_)) | Err(_) => {
            slot.lifecycle.compile_failures.fetch_add(1, Ordering::Relaxed);
            slot.lifecycle.rolled_back.fetch_add(1, Ordering::Relaxed);
            slot.push_event(LifecycleEvent::RolledBack {
                version: incumbent.version,
                reason: RollbackReason::CompileFailed,
            });
            return;
        }
    };
    // A recompile that reproduced the incumbent's patterns must be
    // byte-identical end to end (same weights, same PWP folding), so the
    // canary can demand bit-identity; drift-adapted patterns change the
    // decomposition and warrant a bounded numeric tolerance instead.
    let same_patterns = incumbent
        .model
        .layers()
        .iter()
        .zip(candidate.layers())
        .all(|(a, b)| a.patterns == b.patterns);
    let tolerance = if same_patterns {
        TolerancePolicy::BitIdentical
    } else {
        TolerancePolicy::BoundedDivergence { max_abs: DEFAULT_DIVERGENCE_TOLERANCE }
    };
    propose_candidate(slot, candidate, tolerance, &shared.config);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompileOptions, ModelCompiler};
    use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};

    fn tiny_workload() -> Workload {
        let mut w = WorkloadConfig::new(ModelId::ResNet18, DatasetId::Cifar10)
            .with_max_rows(32)
            .with_calibration_rows(64)
            .generate();
        w.layers.truncate(3);
        w
    }

    fn model(w: &Workload) -> Arc<CompiledModel> {
        Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(w))
    }

    fn requests(w: &Workload, count: usize, rows: usize, seed: u64) -> Vec<InferenceRequest> {
        w.sample_requests(count, rows, seed).into_iter().map(InferenceRequest::new).collect()
    }

    #[test]
    fn registry_registers_and_lists_models() {
        let w = tiny_workload();
        let m = model(&w);
        let mut registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.register("b", Arc::clone(&m)).is_none());
        assert!(registry.register("a", Arc::clone(&m)).is_none());
        // Re-registering a key returns the displaced artifact.
        assert!(registry.register("a", Arc::clone(&m)).is_some());
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.keys(), ["a", "b"]);
        assert!(registry.get("a").is_some());
        assert!(registry.get("c").is_none());
        // Registration is zero-copy: all handles point at one artifact.
        assert_eq!(Arc::strong_count(&m), 3);
    }

    #[test]
    fn server_serves_and_counts_requests() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let server = PhiServer::start(registry, ServerConfig::default().with_workers(1));
        assert_eq!(server.model_keys(), ["m"]);

        let batch = requests(&w, 4, 4, 3);
        let handles: Vec<ResponseHandle> =
            batch.iter().map(|r| server.submit("m", r.clone()).unwrap()).collect();
        for handle in handles {
            let response = handle.wait().unwrap();
            assert!(response.readout.is_some());
            assert!(response.batch_size >= 1 && response.batch_size <= 4);
            assert!(response.exec > Duration::ZERO);
        }
        let stats = server.stats("m").unwrap();
        assert_eq!(stats.served, 4);
        assert!(stats.batches >= 1 && stats.batches <= 4);
        assert!(stats.mean_batch >= 1.0);
        assert!(stats.p99_exec_us >= stats.p50_exec_us);
        assert!(stats.p99_queue_wait_us >= stats.p50_queue_wait_us);
        assert!(server.stats("nope").is_none());
    }

    #[test]
    fn server_coalesces_a_full_batch_without_waiting_for_the_deadline() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        // A deadline far beyond the test timeout: only the max_batch bound
        // can dispatch, so observing responses proves full-batch dispatch.
        let config = ServerConfig::default()
            .with_max_batch(4)
            .with_max_wait(Duration::from_secs(3600))
            .with_workers(1);
        let server = PhiServer::start(registry, config);
        let handles: Vec<ResponseHandle> =
            requests(&w, 4, 4, 5).into_iter().map(|r| server.submit("m", r).unwrap()).collect();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().batch_size, 4);
        }
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.served, stats.batches), (4, 1));
        assert!((stats.mean_batch - 4.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_dispatches_partial_batches() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let config = ServerConfig::default()
            .with_max_batch(64)
            .with_max_wait(Duration::from_millis(5))
            .with_workers(1);
        let server = PhiServer::start(registry, config);
        // One lone request can never fill max_batch; only the deadline can
        // dispatch it.
        let handle = server.submit("m", requests(&w, 1, 4, 7).remove(0)).unwrap();
        let response = handle.wait().unwrap();
        assert_eq!(response.batch_size, 1);
        // The lone request waited out (approximately) the full deadline.
        assert!(response.queue_wait >= Duration::from_millis(4));
    }

    #[test]
    fn requests_with_different_rows_batch_separately() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let config =
            ServerConfig::default().with_max_wait(Duration::from_millis(10)).with_workers(1);
        let server = PhiServer::start(registry, config);
        let four = server.submit("m", requests(&w, 1, 4, 1).remove(0)).unwrap();
        let eight = server.submit("m", requests(&w, 1, 8, 1).remove(0)).unwrap();
        // Different row counts can never fuse (the executor would reject
        // the ragged batch); each resolves in its own batch.
        assert_eq!(four.wait().unwrap().batch_size, 1);
        assert_eq!(eight.wait().unwrap().batch_size, 1);
        assert_eq!(server.stats("m").unwrap().batches, 2);
    }

    #[test]
    fn sim_backend_servers_attach_simulated_metrics() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let config = ServerConfig::default().with_backend(BackendKind::Sim).with_workers(1);
        let server = PhiServer::start(registry, config);
        let response = server.submit("m", requests(&w, 1, 4, 9).remove(0)).unwrap();
        let response = response.wait().unwrap();
        assert!(response.cycles > 0.0);
        assert!(response.energy_j > 0.0);
        assert!(response.readout.is_some());
    }

    #[test]
    fn shutdown_resolves_queued_requests_and_refuses_new_ones() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        // max_batch larger than what we submit + an hour-long deadline:
        // the collector holds the batch open, so the requests are still
        // queued when shutdown lands and must resolve with ShuttingDown.
        let config = ServerConfig::default()
            .with_max_batch(64)
            .with_max_wait(Duration::from_secs(3600))
            .with_workers(1);
        let server = PhiServer::start(registry, config);
        let held = server.submit("m", requests(&w, 1, 4, 11).remove(0)).unwrap();
        server.shutdown();
        assert!(matches!(held.wait(), Err(ServerError::ShuttingDown)));
        assert_eq!(
            server.submit("m", requests(&w, 1, 4, 12).remove(0)).unwrap_err(),
            ServerError::ShuttingDown
        );
        // Shutdown is idempotent (drop will run it again).
        server.shutdown();
    }

    #[test]
    fn server_stats_expose_tile_cache_hit_rates() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let config = ServerConfig::default().with_workers(1).with_tile_cache(1 << 12);
        let server = PhiServer::start(registry, config);
        assert_eq!(server.config().tile_cache, 1 << 12);
        // Two waves of identical traffic: the second replays the first's
        // memoized tile decisions.
        for _ in 0..2 {
            for r in requests(&w, 3, 4, 13) {
                server.submit("m", r).unwrap().wait().unwrap();
            }
        }
        let stats = server.stats("m").unwrap();
        assert!(stats.tile_cache.capacity > 0);
        assert!(stats.tile_cache.hits > 0, "repeated traffic must hit: {:?}", stats.tile_cache);
        assert!(stats.tile_cache.hit_rate() > 0.0);

        // A cache-disabled server serves identical readouts.
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let off = PhiServer::start(registry, config.with_tile_cache(0));
        for (request, cached) in requests(&w, 3, 4, 13).into_iter().zip(requests(&w, 3, 4, 13)) {
            let a = off.submit("m", request).unwrap().wait().unwrap();
            let b = server.submit("m", cached).unwrap().wait().unwrap();
            assert_eq!(a.readout, b.readout);
        }
        let stats = off.stats("m").unwrap();
        assert_eq!(stats.tile_cache, TileCacheStats::default());
    }

    #[test]
    fn streaming_session_serves_frames_in_order_with_stateless_readouts() {
        let w = tiny_workload();
        let m = model(&w);
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&m));
        let server = PhiServer::start(registry, ServerConfig::default().with_workers(2));
        let direct = BatchExecutor::cpu(Arc::clone(&m)).with_tile_cache_capacity(0);

        let session = server.open_session("m").unwrap();
        let frames = requests(&w, 5, 4, 71);
        // Submit the whole stream before waiting: later frames park on
        // the session while the first is in flight.
        let handles: Vec<ResponseHandle> =
            frames.iter().map(|f| server.submit_stream("m", session, f.clone()).unwrap()).collect();
        for (frame, handle) in frames.iter().zip(handles) {
            let response = handle.wait().unwrap();
            // Each streamed frame's readout is bit-identical to stateless
            // direct execution of the same request.
            assert_eq!(response.readout, direct.execute_one(frame).unwrap().readout);
        }

        let snapshot = server.session_snapshot("m", session).unwrap();
        assert_eq!(snapshot.timesteps, 5);
        assert!(snapshot.rate.is_some());
        // Outputs-only serving executes one layer (the readout) per
        // frame, so the delta counters cover 5 frames × 4 rows.
        assert_eq!(snapshot.delta.rows_total, 20);
        let stats = server.stats("m").unwrap();
        assert_eq!(stats.stream_frames, 5);
        assert_eq!(stats.served, 5);
        assert_eq!(stats.sessions_open, 1);
        assert_eq!(stats.stream_delta, snapshot.delta);

        let closed = server.close_session("m", session).unwrap();
        assert_eq!(closed.timesteps, 5);
        assert_eq!(server.stats("m").unwrap().sessions_open, 0);
        assert!(matches!(
            server.submit_stream("m", session, frames[0].clone()),
            Err(ServerError::UnknownSession { session: s }) if s == session
        ));
    }

    #[test]
    fn session_limit_refuses_and_ttl_sweeps_idle_sessions() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let config = ServerConfig::default().with_workers(1).with_max_sessions(2);
        let server = PhiServer::start(registry, config);
        let a = server.open_session("m").unwrap();
        let b = server.open_session("m").unwrap();
        assert_ne!(a, b);
        assert!(matches!(server.open_session("m"), Err(ServerError::SessionLimit { max: 2 })));
        assert!(matches!(server.open_session("nope"), Err(ServerError::UnknownModel { .. })));
        // Dropping the TTL to zero makes both idle sessions expire: the
        // next open sweeps them and succeeds.
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let ttl_server = PhiServer::start(
            registry,
            ServerConfig::default()
                .with_workers(1)
                .with_max_sessions(1)
                .with_session_ttl(Duration::ZERO),
        );
        let old = ttl_server.open_session("m").unwrap();
        std::thread::sleep(Duration::from_millis(1));
        let fresh = ttl_server.open_session("m").unwrap();
        assert_ne!(old, fresh);
        assert!(matches!(
            ttl_server.submit_stream("m", old, requests(&w, 1, 4, 1).remove(0)),
            Err(ServerError::UnknownSession { .. })
        ));
    }

    #[test]
    fn stream_frames_with_mismatched_rows_are_rejected_at_enqueue() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let server = PhiServer::start(registry, ServerConfig::default().with_workers(1));
        let session = server.open_session("m").unwrap();
        server
            .submit_stream("m", session, requests(&w, 1, 4, 3).remove(0))
            .unwrap()
            .wait()
            .unwrap();
        // The session is locked to 4 rows by its first frame.
        assert!(matches!(
            server.submit_stream("m", session, requests(&w, 1, 5, 3).remove(0)),
            Err(ServerError::Rejected(crate::error::RuntimeError::Shape {
                op: "stream session rows",
                expected: 4,
                actual: 5,
            }))
        ));
        // Matching frames still serve.
        assert!(server.submit_stream("m", session, requests(&w, 1, 4, 9).remove(0)).is_ok());
    }

    #[test]
    fn sample_ring_overwrites_oldest_beyond_cap() {
        let mut ring = SampleRing::default();
        for i in 0..STAT_SAMPLE_CAP + 10 {
            ring.push(i as f64);
        }
        assert_eq!(ring.samples.len(), STAT_SAMPLE_CAP);
        // The oldest 10 samples were overwritten.
        assert!(ring.percentile(0.1) >= 10.0);
        assert_eq!(ring.percentile(100.0), (STAT_SAMPLE_CAP + 9) as f64);
        assert_eq!(SampleRing::default().percentile(50.0), 0.0);
    }

    /// Direct (unserved) readouts of `batch` on `model`, for comparing
    /// served responses against ground truth.
    fn direct_readouts(model: &Arc<CompiledModel>, batch: &[InferenceRequest]) -> Vec<Matrix> {
        let executor = BatchExecutor::new(Arc::clone(model));
        let report = executor.execute(batch).unwrap();
        report.requests.into_iter().map(|r| r.readout.unwrap()).collect()
    }

    /// Polls `predicate` for up to ~5s; panics with `what` on timeout.
    fn wait_until(what: &str, mut predicate: impl FnMut() -> bool) {
        for _ in 0..1000 {
            if predicate() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn deadline_expired_requests_shed_with_typed_error() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        // max_batch and max_wait both out of reach: only the request's own
        // deadline can resolve it.
        let config = ServerConfig::default()
            .with_max_batch(64)
            .with_max_wait(Duration::from_secs(3600))
            .with_workers(1);
        let server = PhiServer::start(registry, config);
        let request = requests(&w, 1, 4, 3).remove(0).with_deadline(Duration::from_millis(1));
        let handle = server.submit("m", request).unwrap();
        assert!(matches!(
            handle.wait(),
            Err(ServerError::DeadlineExceeded { deadline }) if deadline == Duration::from_millis(1)
        ));
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.deadline_exceeded, stats.served, stats.shed), (1, 0, 0));

        // A generous deadline rides along without ever triggering.
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let server = PhiServer::start(registry, ServerConfig::default().with_workers(1));
        let request = requests(&w, 1, 4, 3).remove(0).with_deadline(Duration::from_secs(30));
        let response = server.submit("m", request).unwrap().wait().unwrap();
        assert!(response.readout.is_some());
        assert_eq!(server.stats("m").unwrap().deadline_exceeded, 0);
    }

    #[test]
    fn deploy_swaps_atomically_and_new_admissions_serve_the_new_version() {
        let w = tiny_workload();
        let a = model(&w);
        let b = Arc::new(ModelCompiler::new(CompileOptions::fast().with_seed(8)).compile(&w));
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&a));
        let server = PhiServer::start(registry, ServerConfig::default().with_workers(1));
        assert_eq!(server.model_version("m"), Some(1));

        let batch = requests(&w, 2, 4, 3);
        let before = server.submit("m", batch[0].clone()).unwrap().wait().unwrap();
        assert_eq!(before.readout.as_ref(), Some(&direct_readouts(&a, &batch[..1])[0]));

        assert_eq!(server.deploy("m", Arc::clone(&b)).unwrap(), 2);
        assert_eq!(server.model_version("m"), Some(2));
        assert!(Arc::ptr_eq(&server.model("m").unwrap(), &b));

        let after = server.submit("m", batch[1].clone()).unwrap().wait().unwrap();
        assert_eq!(after.readout.as_ref(), Some(&direct_readouts(&b, &batch[1..])[0]));
        let lc = server.lifecycle_stats("m").unwrap();
        assert_eq!((lc.version, lc.versions_installed, lc.promoted), (2, 2, 1));
        assert_eq!(lc.events.last(), Some(&LifecycleEvent::Promoted { version: 2 }));
        // The swap itself shed or failed nothing.
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.shed, stats.failed, stats.served), (0, 0, 2));
    }

    #[test]
    fn deploy_and_propose_refuse_while_a_canary_is_pending() {
        let w = tiny_workload();
        let a = model(&w);
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&a));
        let server = PhiServer::start(
            registry,
            ServerConfig::default().with_workers(1).with_canary_target(1_000_000),
        );
        server.propose("m", Arc::clone(&a), TolerancePolicy::BitIdentical).unwrap();
        assert!(server.lifecycle_stats("m").unwrap().canary_pending);
        assert!(matches!(
            server.deploy("m", Arc::clone(&a)),
            Err(ServerError::CanaryInProgress { .. })
        ));
        assert!(matches!(
            server.propose("m", Arc::clone(&a), TolerancePolicy::BitIdentical),
            Err(ServerError::CanaryInProgress { .. })
        ));
        // Shutdown resolves the undecided canary as a rollback.
        server.shutdown();
        let lc = server.lifecycle_stats("m").unwrap();
        assert_eq!(lc.rolled_back, 1);
        assert_eq!(
            lc.events.last(),
            Some(&LifecycleEvent::RolledBack { version: 2, reason: RollbackReason::ShuttingDown })
        );
    }

    #[test]
    fn canary_promotes_after_enough_bit_identical_comparisons() {
        let w = tiny_workload();
        let a = model(&w);
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&a));
        let server = PhiServer::start(
            registry,
            ServerConfig::default().with_workers(1).with_canary_target(2).with_canary_slice(1.0),
        );
        // Proposing the identical artifact: every shadow must match bit
        // for bit, so the canary passes on live traffic alone.
        let version = server.propose("m", Arc::clone(&a), TolerancePolicy::BitIdentical).unwrap();
        assert_eq!(version, 2);
        let batch = requests(&w, 8, 4, 3);
        wait_until("canary promotion", || {
            for r in &batch {
                let _ = server.submit("m", r.clone()).unwrap().wait().unwrap();
            }
            server.lifecycle_stats("m").unwrap().promoted == 1
        });
        let lc = server.lifecycle_stats("m").unwrap();
        assert_eq!((lc.version, lc.rolled_back, lc.compile_failures), (2, 0, 0));
        assert!(lc.canary_compared >= 2);
        assert!(!lc.canary_pending);
        assert!(lc.events.iter().any(|e| matches!(
            e,
            LifecycleEvent::CanaryPass { version: 2, max_divergence, .. } if *max_divergence == 0.0
        )));
    }

    #[test]
    fn diverging_canary_rolls_back_and_incumbent_serves_bit_identically() {
        let w = tiny_workload();
        let a = model(&w);
        // Different weight seed ⇒ genuinely different readouts.
        let b = Arc::new(ModelCompiler::new(CompileOptions::fast().with_seed(8)).compile(&w));
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&a));
        let server = PhiServer::start(
            registry,
            ServerConfig::default().with_workers(1).with_canary_target(4).with_canary_slice(1.0),
        );
        server.propose("m", Arc::clone(&b), TolerancePolicy::BitIdentical).unwrap();
        let batch = requests(&w, 4, 4, 3);
        let expected = direct_readouts(&a, &batch);
        wait_until("canary rollback", || {
            for (r, want) in batch.iter().zip(&expected) {
                let got = server.submit("m", r.clone()).unwrap().wait().unwrap();
                // Shadow execution never perturbs served readouts.
                assert_eq!(got.readout.as_ref(), Some(want));
            }
            server.lifecycle_stats("m").unwrap().rolled_back == 1
        });
        let lc = server.lifecycle_stats("m").unwrap();
        assert_eq!((lc.version, lc.promoted), (1, 0));
        assert!(lc.events.iter().any(|e| matches!(
            e,
            LifecycleEvent::RolledBack { version: 2, reason: RollbackReason::CanaryDivergence }
        )));
        // The failed canary is invisible to clients: nothing shed, nothing
        // failed, nothing expired.
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.shed, stats.failed, stats.deadline_exceeded), (0, 0, 0));
    }

    #[test]
    fn poisoned_stats_and_group_locks_never_take_down_serving() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let server = PhiServer::start(registry, ServerConfig::default().with_workers(1));
        let slot = Arc::clone(server.slots.get("m").unwrap());

        // Poison the latency-sample mutex and the group-counts RwLock by
        // panicking while holding them.
        let stats = Arc::clone(&slot.stats);
        let entry = slot.active_entry();
        std::thread::spawn(move || {
            let _stats_guard = stats.queue_wait_us.lock().unwrap();
            let _group_guard = entry.group_counts.write().unwrap();
            panic!("deliberate poison");
        })
        .join()
        .unwrap_err();

        // The hot path shrugs: admission, execution, and stats all still
        // work through the poison-tolerant locks.
        let response = server.submit("m", requests(&w, 1, 4, 3).remove(0)).unwrap().wait().unwrap();
        assert!(response.readout.is_some());
        let stats = server.stats("m").unwrap();
        assert_eq!(stats.served, 1);
        assert!(stats.p50_queue_wait_us >= 0.0);
    }

    #[test]
    fn poisoned_session_locks_still_serve_streamed_frames() {
        let w = tiny_workload();
        let m = model(&w);
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&m));
        let server = PhiServer::start(registry, ServerConfig::default().with_workers(1));
        let session_id = server.open_session("m").unwrap();
        let session =
            Arc::clone(lock(&server.slots.get("m").unwrap().sessions).get(&session_id).unwrap());

        // Poison the session's ordering queue and its first frame memo.
        {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                let _queue_guard = session.queue.lock().unwrap();
                let _memo_guard = session.state.memo(0).lock().unwrap();
                panic!("deliberate poison");
            })
            .join()
            .unwrap_err();
        }

        // A frame still serves; the poisoned memo is reset (sound, merely
        // un-memoized), so the first frame matches stateless execution
        // bit for bit.
        let frame = requests(&w, 1, 4, 7).remove(0);
        let expected = direct_readouts(&m, std::slice::from_ref(&frame));
        let got = server.submit_stream("m", session_id, frame).unwrap().wait().unwrap();
        assert_eq!(got.readout.as_ref(), Some(&expected[0]));
        assert_eq!(server.session_snapshot("m", session_id).unwrap().timesteps, 1);
    }

    #[test]
    fn readout_divergence_classifies_pairs() {
        let m = |v: &[f32]| Matrix::from_vec(1, v.len(), v.to_vec()).unwrap();
        assert_eq!(readout_divergence(None, None), Some(0.0));
        assert_eq!(readout_divergence(Some(&m(&[1.0, 2.0])), Some(&m(&[1.0, 2.0]))), Some(0.0));
        // Numeric difference reports its magnitude.
        assert_eq!(readout_divergence(Some(&m(&[1.5])), Some(&m(&[1.0]))), Some(0.5));
        // Bit-unequal zeros count as (minimal) divergence: BitIdentical
        // must fail, BoundedDivergence may pass.
        let d = readout_divergence(Some(&m(&[0.0])), Some(&m(&[-0.0]))).unwrap();
        assert!(d > 0.0);
        assert!(!TolerancePolicy::BitIdentical.allows(d));
        // Mismatched presence, shape, or non-finite difference: hard fail.
        assert_eq!(readout_divergence(Some(&m(&[1.0])), None), None);
        assert_eq!(readout_divergence(Some(&m(&[1.0])), Some(&m(&[1.0, 2.0]))), None);
        assert_eq!(readout_divergence(Some(&m(&[f32::NAN])), Some(&m(&[1.0]))), None);
    }
}
