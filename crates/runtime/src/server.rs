//! Serving front-end: request-level admission, dynamic batching, and
//! multi-model hosting over [`BatchExecutor`].
//!
//! Everything below this module thinks in *batches* — callers of
//! [`BatchExecutor::execute`] must hand-assemble a row-uniform
//! `Vec<InferenceRequest>` and block while it runs. A serving system
//! thinks in *requests*: independent clients submit one inference at a
//! time and someone else must coalesce them, because the throughput win
//! of batching (PR 3 measured 19k → 218k inf/s from batch 1 to 64 on the
//! CPU backend) is only real if it happens automatically.
//!
//! [`PhiServer`] is that someone else, and it owns no thread: batches
//! run on the threads of the callers themselves. The request lifecycle:
//!
//! ```text
//!  submit(key, request)                 on the submitting thread
//!  ───────────────────┐          ┌──────────────────────────────────────┐
//!  admission control  │ ┌──────┐ │ no batch in flight? lead:            │
//!  · unknown model    ├─┤intake├▶│  cut ≤ max_batch of the oldest       │
//!  · ragged/oversized │ └──────┘ │  (model, rows) group, execute it on  │
//!  · queue-full shed  │    │     │  BatchExecutor<B>, resolve riders,   │
//!  ───────────────────┘    │     │  repeat until the queue is empty     │
//!          │               │     └──────────────────────────────────────┘
//!          │ Err           │ a batch is in flight: return the handle
//!          ▼               ▼
//!   caller keeps the   ResponseHandle::wait() ⇒ ServedResponse
//!   rejected request
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
//! * **Run to completion, one batch in flight (flat combining).** A
//!   submitter that finds no batch in flight becomes the *leader*: it
//!   cuts one batch from the intake queue, executes it on its own thread
//!   (the persistent `rayon` pool still fans the layer work out across
//!   cores), and resolves every rider through a one-shot slot. Requests
//!   that arrive meanwhile queue behind the running batch, and the next
//!   batch takes them all (up to [`ServerConfig::max_batch`]). So an idle
//!   server runs a request at once, a busy one coalesces, and no request
//!   waits for a timer. A request crosses no thread hand-off on the way
//!   to its executor: there is no collector, no dispatch channel and no
//!   worker pool.
//! * **Leadership never strands the queue.** The `leading` flag lives
//!   under the intake mutex: a submitter enqueues and reads it under that
//!   lock, and a leader clears it only under the same lock, when it sees
//!   the queue empty. So a leader keeps cutting batches until the queue
//!   drains, and its `submit` may execute other callers' batches for as
//!   long as traffic keeps the queue non-empty. Waiting executes
//!   nothing: [`ResponseHandle::wait`] only blocks.
//! * **Batches are coalesced by `(model, rows)`.** The executor requires
//!   row-uniform batches (one extrapolation factor per fused matrix). A
//!   leader cuts the group of the oldest queued request and leaves the
//!   other groups queued in arrival order for the next batch.
//! * **A panicking batch is contained.** The leader runs each batch under
//!   `catch_unwind`: a backend panic resolves the batch's riders with
//!   [`ServerError::Disconnected`], never unwinds into the caller's
//!   `submit`, and the server keeps serving.
//! * **One tile-cache lineage per model.** Each model version gets one
//!   executor whose per-layer [`TileCache`](phi_core::TileCache)s every
//!   batch shares (unpacked, k > 16 layers only: a packed layer never
//!   consults its cache). Readouts are bit-identical with caching
//!   disabled.
//! * **Execution is bit-identical to calling [`BatchExecutor`] directly.**
//!   The server adds queueing and coalescing, never arithmetic: readouts
//!   are the same bits a direct `execute` of the same requests produces,
//!   regardless of how traffic interleaves or which caller leads (pinned
//!   by the `server_admission` and `server_concurrency` integration
//!   suites).
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
//! * **Versions swap live, on the caller's schedule.** [`PhiServer::deploy`]
//!   hot-swaps a model key to a new artifact; [`PhiServer::propose`]
//!   installs a canary candidate (typically the output of
//!   [`ModelCompiler::recompile_from_samples`](crate::ModelCompiler::recompile_from_samples))
//!   that leaders shadow-execute on live stateless batches, after the
//!   riders resolved, and then promote or roll back.
//! * **No async runtime and no server threads.** The workspace vendors
//!   its dependencies, so callers coordinate through one intake mutex,
//!   atomics and a `Mutex` + `Condvar` slot per request;
//!   [`ResponseHandle`] is the blocking future equivalent.
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
use crate::error::ServerError;
use crate::executor::{BatchExecutor, InferenceRequest, RequestResult};
use crate::lifecycle::{LifecycleEvent, LifecycleStatsSnapshot, RollbackReason, TolerancePolicy};
use crate::stream::StreamSession;
use crate::sync::lock;
use phi_accel::{BackendKind, ExecutionBackend};
use phi_core::{DeltaStats, ReuseStats, TileCacheStats};
use snn_core::Matrix;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Outcome alias for server calls.
pub type ServerResult<T> = std::result::Result<T, ServerError>;

/// Tuning knobs of the dynamic batcher. Start from
/// [`ServerConfig::default`] and override with the `with_*` builders.
///
/// One batch is in flight at a time, and requests wait only behind it:
/// an idle server runs a request at once, and the next batch fuses
/// everything of one `(model, rows)` group that queued meanwhile, up to
/// `max_batch`. So `max_batch` caps how much traffic one execution fuses,
/// and `queue_capacity` bounds how much burst is absorbed before
/// shedding.
///
/// The model lifecycle adds one knob, `canary_target`: how many clean
/// shadow comparisons a [`PhiServer::propose`]d candidate needs before it
/// is promoted. Recompiling a candidate is the caller's job
/// ([`ModelCompiler::recompile_from_samples`](crate::ModelCompiler::recompile_from_samples)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Largest batch a leader will fuse (default 64).
    pub max_batch: usize,
    /// Bounded admission capacity — admitted-but-not-yet-dispatched
    /// requests; submissions beyond it are shed with
    /// [`ServerError::QueueFull`] (default 1024).
    pub queue_capacity: usize,
    /// Largest per-layer row count a request may carry; anything larger
    /// is refused with [`ServerError::Oversized`] (default 256).
    pub max_request_rows: usize,
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
    /// Requests whose shadow readouts must compare clean before a
    /// canary candidate is promoted (default 64).
    pub canary_target: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 64,
            queue_capacity: 1024,
            max_request_rows: 256,
            backend: BackendKind::default(),
            tile_cache: crate::executor::default_tile_cache_capacity(),
            max_sessions: 256,
            session_ttl: Duration::from_secs(60),
            canary_target: 64,
        }
    }
}

/// The host's available core count (1 when undetectable), probed once
/// per process. It is the count the `rayon` pool sizes itself by, so it
/// is how wide one batch's layer work fans out.
pub fn available_cores() -> usize {
    rayon::current_num_threads()
}

impl ServerConfig {
    /// Overrides the maximum batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
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

    /// Overrides the canary comparison target.
    pub fn with_canary_target(mut self, canary_target: u64) -> Self {
        self.canary_target = canary_target;
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

/// One request's one-shot result cell: the leader that serves the
/// request writes it once, the request's [`ResponseHandle`] reads it.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// The result, until a wait takes it.
    result: Option<ServerResult<ServedResponse>>,
    /// Set once the request resolved (and kept after a wait took it).
    resolved: bool,
    /// Whether the waiter is blocked on `cond`.
    parked: bool,
    /// The served frame of a stream, released with the slot (see
    /// [`resolve_riders`]).
    spent: Option<InferenceRequest>,
}

impl Slot {
    fn resolve(&self, result: ServerResult<ServedResponse>, spent: Option<InferenceRequest>) {
        let mut state = lock(&self.state);
        state.result = Some(result);
        state.resolved = true;
        state.spent = spent;
        self.wake(state);
    }

    /// Releases `state`, notifying the waiter only when it is blocked: a
    /// notify costs a syscall even with nobody waiting, and most results
    /// resolve before anyone waits for them.
    fn wake(&self, state: MutexGuard<'_, SlotState>) {
        let parked = state.parked;
        drop(state);
        if parked {
            self.cond.notify_all();
        }
    }

    /// Blocks until the request resolves or `deadline` passes; returns
    /// the result once resolved: the served outcome the first time, then
    /// [`ServerError::Disconnected`] (it was already taken).
    fn take(&self, deadline: Option<Instant>) -> Option<ServerResult<ServedResponse>> {
        let mut state = lock(&self.state);
        state.parked = true;
        while !state.resolved {
            state = match deadline {
                None => self.cond.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    self.cond.wait_timeout(state, d - now).unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        state.parked = false;
        state.resolved.then(|| state.result.take().unwrap_or(Err(ServerError::Disconnected)))
    }
}

/// The resolving end of a request's [`Slot`], carried by the queued
/// request. Dropping it unresolved — a batch that panicked, a request
/// lost on an unwinding thread — resolves the handle with
/// [`ServerError::Disconnected`], so no handle blocks on a request that
/// nobody will serve.
struct Responder(Option<Arc<Slot>>);

impl Responder {
    fn send(self, result: ServerResult<ServedResponse>) {
        self.resolve(result, None);
    }

    fn resolve(mut self, result: ServerResult<ServedResponse>, spent: Option<InferenceRequest>) {
        if let Some(slot) = self.0.take() {
            slot.resolve(result, spent);
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.resolve(Err(ServerError::Disconnected), None);
        }
    }
}

/// The per-request future of the `std::thread` world: blocks until the
/// request's batch has executed. Waiting executes nothing: the caller
/// leading when the request was queued runs it.
///
/// A handle is `Send` but not `Sync`: one thread waits on it at a time.
pub struct ResponseHandle {
    slot: Arc<Slot>,
    /// A slot records one parked waiter, so a second thread waiting on
    /// the same handle could miss its wake-up.
    _not_sync: PhantomData<Cell<()>>,
}

impl ResponseHandle {
    fn new(slot: Arc<Slot>) -> Self {
        ResponseHandle { slot, _not_sync: PhantomData }
    }

    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// [`ServerError::Execution`] when the batch failed,
    /// [`ServerError::ShuttingDown`] when the server stopped before
    /// serving it, and [`ServerError::Disconnected`] when the batch
    /// panicked or the result was already taken by
    /// [`ResponseHandle::wait_timeout`].
    pub fn wait(self) -> ServerResult<ServedResponse> {
        self.slot.take(None).unwrap_or(Err(ServerError::Disconnected))
    }

    /// Like [`ResponseHandle::wait`] with an upper bound; `None` means
    /// the request is still in flight and the handle stays usable.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServerResult<ServedResponse>> {
        self.slot.take(Instant::now().checked_add(timeout))
    }
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("resolved", &lock(&self.slot.state).resolved)
            .finish_non_exhaustive()
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
    /// Requests that reached a batch whose execution failed or panicked.
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
    /// via [`ServerConfig::tile_cache`]; only the capacity is nonzero when
    /// every layer is packed, k ≤ 16, since such layers never consult the
    /// cache).
    pub tile_cache: TileCacheStats,
    /// Term-row work of every readout this model's executor computed
    /// (see [`BatchExecutor::reuse_stats`](crate::BatchExecutor::reuse_stats)).
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
        // Attribution order matters to snapshots taken on other threads
        // while a batch records: `batches` is incremented *before*
        // `served` (with a release store), and `snapshot` reads `served`
        // first (with an acquire load). Any rider visible in `served`
        // therefore has its batch visible in `batches`, so `mean_batch`
        // can never transiently exceed the true mean or `max_batch`. The
        // reverse order had exactly that race: a snapshot taken between
        // the two increments could divide a newer `served` by an older
        // `batches`.
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
/// executor. Coalescing groups identify entries by `Arc` pointer, so a
/// batch is homogeneous in version by construction — an in-flight batch
/// finishes on the entry it was admitted against even if the slot swaps
/// mid-execution.
struct ModelEntry {
    /// Monotonic version tag within the slot (1 = the registration).
    version: u64,
    /// The compiled artifact this version serves.
    model: Arc<CompiledModel>,
    /// The version's executor over the shared `Arc`'d artifact; every
    /// batch on this version runs through it and shares its per-layer
    /// tile caches.
    executor: BatchExecutor<Box<dyn ExecutionBackend>>,
    /// The slot's counters, shared across every version (a swap must not
    /// reset a model's served/shed history).
    stats: Arc<ModelStats>,
    /// Back-reference to the owning slot (weak: the slot owns its entries
    /// via `history`, so a strong pointer here would leak the pair).
    /// Leaders upgrade it to find the pending canary, if any.
    slot: Weak<ModelSlot>,
}

impl ModelEntry {
    fn model(&self) -> &CompiledModel {
        &self.model
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
    ModelEntry { version, model, executor, stats, slot }
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
}

/// A candidate version in its canary stage: shadow-executes every
/// stateless batch served on the active version until `target`
/// comparisons pass (promote) or one fails (rollback). `decided` is the
/// single-decision gate — a leader and shutdown racing each other agree
/// on exactly one outcome.
struct CandidateState {
    entry: Arc<ModelEntry>,
    tolerance: TolerancePolicy,
    target: u64,
    compared: AtomicU64,
    decided: AtomicBool,
    max_divergence: Mutex<f32>,
}

/// One hosted model *key*: a live, versioned slot. The active entry is
/// published through an atomic pointer — the submit path reads it with
/// one `Acquire` load and two reference-count bumps, no lock — while
/// `history` retains every version ever installed (so the pointer is
/// always backed by a live allocation, and in-flight batches plus pinned
/// sessions can keep serving on superseded versions). A version arrives
/// either directly ([`PhiServer::deploy`]) or as the one pending canary
/// candidate of [`PhiServer::propose`], which the leaders decide.
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
    /// The pending canary candidate, if any (at most one per slot).
    candidate: Mutex<Option<Arc<CandidateState>>>,
    /// Fast-path mirror of `candidate.is_some()`, so leaders serving
    /// traffic with no canary pending pay one load, not a lock.
    canary_active: AtomicBool,
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
                candidate: Mutex::new(None),
                canary_active: AtomicBool::new(false),
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
/// session's frames is ever past this queue (in the intake queue or an
/// executing batch) — `in_flight` guards the slot, later frames park
/// here in arrival order, and the leader that resolves the in-flight
/// frame promotes the next parked one into the intake queue it drains.
/// That is both what serializes the session's timesteps and what lets
/// frames of *different* sessions coalesce freely.
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
    responder: Responder,
    /// `Some` for a streamed frame: the session whose in-flight slot the
    /// frame occupies (the resolving leader releases it). `None` for
    /// plain stateless traffic.
    session: Option<Arc<SessionEntry>>,
}

impl Pending {
    /// Whether the request waited out its own deadline by `now`.
    fn expired(&self, now: Instant) -> bool {
        self.request.deadline.is_some_and(|d| now.duration_since(self.enqueued) >= d)
    }
}

/// The intake queue and the leadership, under one short-held mutex.
///
/// Invariant: whenever `items` is non-empty, `leading` is set — some
/// caller is executing a batch or is about to cut one. A submitter
/// pushes and takes a clear flag in one critical section, and a leader
/// clears the flag only in the critical section in which it sees `items`
/// empty, so no request is ever queued with nobody to run it.
struct IntakeQueue {
    items: VecDeque<Pending>,
    leading: bool,
    /// Set (under the lock) during shutdown *before* the final drain, so
    /// a racing submitter either lands its request in the drained deque
    /// or observes the closure — a request can never be stranded.
    closed: bool,
}

/// State shared between the server and every outstanding handle.
struct Shared {
    config: ServerConfig,
    intake: Mutex<IntakeQueue>,
    /// Admitted-but-not-yet-dispatched requests (the queue-capacity
    /// accounting; includes frames parked on their session).
    queued: AtomicUsize,
    /// Held by a test to stall the leader between cutting a batch and
    /// executing it, so the server stays busy and later traffic queues.
    #[cfg(test)]
    gate: Mutex<()>,
    /// Set by a test to make the next batch panic before it executes.
    #[cfg(test)]
    panic_next: AtomicBool,
    shutdown: AtomicBool,
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

fn group_of(pending: &Pending) -> GroupKey {
    (Arc::as_ptr(&pending.entry) as usize, pending.rows, pending.session.is_some())
}

/// The serving front-end: hosts every model of a [`ModelRegistry`] behind
/// request-level admission control and a dynamic batcher that runs on
/// the callers' threads. See the [module docs](crate::server) for the
/// request lifecycle.
///
/// The server owns no thread. Dropping it (or calling
/// [`PhiServer::shutdown`]) refuses new requests and resolves
/// still-queued ones with [`ServerError::ShuttingDown`]; a batch already
/// executing finishes on its leader's thread.
pub struct PhiServer {
    shared: Arc<Shared>,
    slots: HashMap<String, Arc<ModelSlot>>,
}

impl PhiServer {
    /// Builds the hosted models' executors and starts serving. Spawns no
    /// thread: batches execute on the threads that submit or wait.
    ///
    /// Every registered model gets one executor over a fresh instance of
    /// the configured backend; artifacts stay shared (`Arc`-cloned from
    /// the registry, never copied).
    ///
    /// # Panics
    ///
    /// Panics when the registry is empty or the config is degenerate
    /// (`max_batch`, `queue_capacity`, `max_request_rows` or
    /// `max_sessions` of zero) — these are deployment bugs, not runtime
    /// conditions.
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> Self {
        assert!(!registry.is_empty(), "a server needs at least one registered model");
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        assert!(config.queue_capacity > 0, "queue_capacity must be at least 1");
        assert!(config.max_request_rows > 0, "max_request_rows must be at least 1");
        assert!(config.max_sessions > 0, "max_sessions must be at least 1");

        let slots: HashMap<String, Arc<ModelSlot>> = registry
            .models
            .into_iter()
            .map(|(key, model)| (key, ModelSlot::new(model, &config)))
            .collect();

        let shared = Arc::new(Shared {
            config,
            intake: Mutex::new(IntakeQueue {
                items: VecDeque::new(),
                leading: false,
                closed: false,
            }),
            queued: AtomicUsize::new(0),
            #[cfg(test)]
            gate: Mutex::new(()),
            #[cfg(test)]
            panic_next: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            unknown_model: AtomicU64::new(0),
        });
        PhiServer { shared, slots }
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

    /// Proposes `model` as a canary candidate for `key`: every stateless
    /// batch served on the active version while the candidate is pending
    /// is shadow-executed on it and compared to the served readouts under
    /// `tolerance`. After
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

    /// Reserves one unit of admission capacity, or sheds. The CAS loop
    /// keeps the bound strict under concurrent submitters (a plain
    /// check-then-add could admit one extra request per racing thread).
    fn reserve(&self, entry: &ModelEntry) -> ServerResult<()> {
        let shared = &self.shared;
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
                Ok(_) => return Ok(()),
                Err(actual) => queued = actual,
            }
        }
    }

    /// Submits one request for the model registered under `key`,
    /// returning a handle that resolves once a batch containing the
    /// request has executed.
    ///
    /// Admission control runs here, synchronously: the model key is
    /// resolved, the request is shape-validated against that model
    /// (including the ragged check), the row ceiling is enforced, and the
    /// admission capacity is reserved — so every error below is returned
    /// before the request can influence any other request's batch.
    ///
    /// When no batch is in flight, this call leads: it executes the
    /// request's batch on the calling thread, and then every batch that
    /// queued meanwhile, until the queue is empty, before it returns. So
    /// the returned handle is already resolved, but under sustained
    /// traffic from other threads the call runs their batches too and
    /// returns only once the queue drains. When a batch is in flight it
    /// only enqueues, and the current leader runs the request.
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
        self.reserve(&entry)?;

        let slot = Arc::new(Slot::default());
        let pending = Pending {
            entry,
            request,
            rows,
            enqueued: Instant::now(),
            responder: Responder(Some(Arc::clone(&slot))),
            session: None,
        };
        match enqueue(shared, pending) {
            Ok(true) => lead(shared),
            Ok(false) => {}
            Err(_pending) => {
                // Shutdown closed the intake between the fast check above
                // and the push: roll back the reservation and refuse.
                shared.queued.fetch_sub(1, Ordering::SeqCst);
                return Err(ServerError::ShuttingDown);
            }
        }
        Ok(ResponseHandle::new(slot))
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
    /// After admission the frame either enters the batcher directly — and
    /// this call leads when no batch is in flight, exactly like
    /// [`PhiServer::submit`] — or, when the session already has a frame
    /// in flight, parks on the session and is promoted (in arrival order)
    /// by the leader that resolves the earlier frame. Frames of the
    /// *same* session therefore execute strictly in submission order, one
    /// at a time, while frames of different sessions coalesce into fused
    /// batches.
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
        // Parked frames hold a reservation too, so a slow session cannot
        // buffer unbounded frames.
        self.reserve(&entry)?;

        let handle_slot = Arc::new(Slot::default());
        let pending = Pending {
            entry,
            request: frame,
            rows,
            enqueued: Instant::now(),
            responder: Responder(Some(Arc::clone(&handle_slot))),
            session: Some(Arc::clone(&session)),
        };

        // Claim the session's in-flight slot or park behind it. The queue
        // lock is held across the intake push so a concurrent release
        // can never observe the slot claimed with the frame not yet
        // visible anywhere — and released before leading, because the
        // batch this caller leads releases the session again.
        let mut queue = lock(&session.queue);
        queue.last_active = pending.enqueued;
        if queue.closed {
            drop(queue);
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(ServerError::ShuttingDown);
        }
        if queue.in_flight {
            queue.parked.push_back(pending);
            return Ok(ResponseHandle::new(handle_slot));
        }
        queue.in_flight = true;
        let pushed = enqueue(shared, pending);
        if pushed.is_err() {
            queue.in_flight = false;
        }
        drop(queue);
        match pushed {
            Ok(true) => lead(shared),
            Ok(false) => {}
            Err(_pending) => {
                shared.queued.fetch_sub(1, Ordering::SeqCst);
                return Err(ServerError::ShuttingDown);
            }
        }
        Ok(ResponseHandle::new(handle_slot))
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

    /// Stops accepting requests and resolves everything still queued —
    /// in the intake queue or parked on a session — with
    /// [`ServerError::ShuttingDown`]. A batch already executing finishes
    /// on its leader's thread and resolves normally. Called automatically
    /// on drop; takes `&self` so a shutdown can race in-flight submitters
    /// on other threads (repeated and concurrent calls are safe — every
    /// step is idempotent).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        close_and_resolve_intake(&self.shared);
        // Frames parked on sessions never reached the intake — close each
        // session queue (so racing submitters can no longer park) and
        // resolve the parked frames with the same typed error. In-flight
        // streamed frames are already in a batch and resolve normally.
        for slot in self.slots.values() {
            let sessions = lock(&slot.sessions);
            let mut resolved = 0usize;
            for session in sessions.values() {
                let mut queue = lock(&session.queue);
                queue.closed = true;
                for pending in queue.parked.drain(..) {
                    pending.responder.send(Err(ServerError::ShuttingDown));
                    resolved += 1;
                }
            }
            drop(sessions);
            if resolved > 0 {
                self.shared.queued.fetch_sub(resolved, Ordering::SeqCst);
            }
        }
        // Resolve any still-undecided canary: no new batch will ever
        // finish its comparisons. Rolling back (never promoting) keeps an
        // unvetted candidate out of the history a restart might inspect;
        // `decided` keeps a batch still executing from deciding it again.
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

/// Pushes an admitted request onto the intake queue. Returns whether the
/// caller must now lead: it found no batch in flight and took the
/// leadership in the same critical section. On a closed intake (a
/// shutdown race) the pending is handed back so the caller can unwind
/// its reservations and resolve or refuse it.
fn enqueue(shared: &Shared, pending: Pending) -> Result<bool, Pending> {
    let mut intake = lock(&shared.intake);
    if intake.closed {
        return Err(pending);
    }
    intake.items.push_back(pending);
    Ok(!std::mem::replace(&mut intake.leading, true))
}

/// The leader's loop; the caller holds the leadership. Cuts and executes
/// one batch at a time until the queue is empty, then clears `leading`
/// in the same critical section that saw it empty. Traffic that keeps
/// the queue non-empty keeps this caller leading.
fn lead(shared: &Shared) {
    loop {
        let (batch, expired) = cut_batch(shared);
        // Shed outside the intake lock: releasing a shed frame's session
        // takes the session lock, which submitters hold across a push.
        for pending in expired {
            shed_deadline(shared, pending);
        }
        if !batch.is_empty() {
            run_batch(shared, batch);
        }
        let mut intake = lock(&shared.intake);
        if intake.items.is_empty() {
            intake.leading = false;
            return;
        }
    }
}

/// Takes the next batch off the intake queue: up to `max_batch` requests
/// of the oldest queued request's group, in arrival order. Every other
/// request stays queued in order, except the ones past their own
/// deadline, which come back separately to be shed.
fn cut_batch(shared: &Shared) -> (Vec<Pending>, Vec<Pending>) {
    let max_batch = shared.config.max_batch;
    let now = Instant::now();
    let mut batch = Vec::new();
    let mut expired = Vec::new();
    let mut intake = lock(&shared.intake);
    let mut group = None;
    // One rotation of the deque: every request is popped once and either
    // taken or pushed back behind the unvisited ones, keeping the order.
    for _ in 0..intake.items.len() {
        let pending = intake.items.pop_front().expect("rotating within the length");
        if pending.expired(now) {
            expired.push(pending);
        } else if batch.len() < max_batch
            && *group.get_or_insert(group_of(&pending)) == group_of(&pending)
        {
            batch.push(pending);
        } else {
            intake.items.push_back(pending);
        }
    }
    drop(intake);
    // The batch's admission capacity frees now; shed requests free
    // theirs in `shed_deadline`.
    shared.queued.fetch_sub(batch.len(), Ordering::SeqCst);
    (batch, expired)
}

/// Executes one batch under `catch_unwind`. A panic never reaches the
/// leader's caller: unwinding drops the riders' responders, which resolve
/// them with [`ServerError::Disconnected`], and the riders count as
/// failed. Each streamed rider's session is released either way, so its
/// next parked frame is promoted instead of stranded.
fn run_batch(shared: &Shared, batch: Vec<Pending>) {
    let entry = Arc::clone(&batch[0].entry);
    let riders = batch.len();
    let sessions: Vec<Arc<SessionEntry>> = batch.iter().filter_map(|p| p.session.clone()).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        {
            drop(lock(&shared.gate));
            if shared.panic_next.swap(false, Ordering::SeqCst) {
                panic!("injected batch panic");
            }
        }
        serve_batch(&entry, batch);
    }));
    if outcome.is_err() {
        entry.stats.failed.fetch_add(riders as u64, Ordering::Relaxed);
    }
    for session in &sessions {
        release_session(shared, session);
    }
}

/// Resolves one deadline-expired request with
/// [`ServerError::DeadlineExceeded`], releasing every reservation it held
/// (admission capacity and — for a streamed frame — its session's
/// in-flight slot, promoting the next parked frame).
fn shed_deadline(shared: &Shared, pending: Pending) {
    shared.queued.fetch_sub(1, Ordering::SeqCst);
    pending.entry.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    let deadline = pending.request.deadline.expect("only deadlined requests are shed here");
    pending.responder.send(Err(ServerError::DeadlineExceeded { deadline }));
    if let Some(session) = pending.session {
        release_session(shared, &session);
    }
}

/// Closes and drains the intake queue, resolving the drained requests
/// with [`ServerError::ShuttingDown`]; idempotent.
fn close_and_resolve_intake(shared: &Shared) {
    let drained = {
        let mut intake = lock(&shared.intake);
        intake.closed = true;
        std::mem::take(&mut intake.items)
    };
    if drained.is_empty() {
        return;
    }
    shared.queued.fetch_sub(drained.len(), Ordering::SeqCst);
    for pending in drained {
        pending.responder.send(Err(ServerError::ShuttingDown));
    }
}

/// Releases a session's in-flight slot after its frame resolved: the
/// next parked frame (if any) takes the slot over and enters the intake
/// queue; otherwise the slot frees. Called by the leader that served,
/// failed or shed the session's frame — so the promoted frame lands in
/// the queue that leader drains next, and this hand-off is what keeps a
/// session's frames in strict timestep order.
fn release_session(shared: &Shared, session: &Arc<SessionEntry>) {
    let mut queue = lock(&session.queue);
    let Some(pending) = queue.parked.pop_front() else {
        queue.in_flight = false;
        return;
    };
    // The slot stays claimed: the promoted frame occupies it.
    match enqueue(shared, pending) {
        Ok(leads) => debug_assert!(!leads, "only a leader releases sessions"),
        Err(pending) => {
            // Shutdown closed the intake; resolve the promoted frame the
            // same way the intake drain would have.
            queue.in_flight = false;
            drop(queue);
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            pending.responder.send(Err(ServerError::ShuttingDown));
        }
    }
}

/// Executes one cut batch on its model version's executor, resolves every
/// rider with its share of the report plus wall-clock latency, records
/// stats, and then — after the riders resolved — shadows a pending canary.
fn serve_batch(entry: &Arc<ModelEntry>, pending: Vec<Pending>) {
    let executor = &entry.executor;
    let exec_start = Instant::now();
    let queue_waits: Vec<Duration> =
        pending.iter().map(|p| exec_start.duration_since(p.enqueued)).collect();
    // The group key carries the stream discriminant, so a batch is
    // homogeneous: all streamed frames or all plain requests.
    if pending[0].session.is_some() {
        serve_stream_batch(entry, executor, pending, exec_start, &queue_waits);
        return;
    }
    let (requests, resolvers): (Vec<InferenceRequest>, Vec<_>) =
        pending.into_iter().map(|p| (p.request, (p.responder, p.enqueued))).unzip();

    match executor.execute(&requests) {
        Ok(report) => {
            let exec = exec_start.elapsed();
            entry.stats.record_batch(&queue_waits, exec);
            // Snapshot the served readouts for the canary comparison
            // *before* rider resolution consumes the report — but only
            // when a canary is actually pending on this entry's slot.
            let shadow = canary_candidate(entry);
            let served: Option<Vec<Option<Matrix>>> = shadow
                .as_ref()
                .map(|_| report.requests.iter().map(|r| r.readout.clone()).collect());
            resolve_riders(resolvers, report.requests, None, exec_start, exec);
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
            for (responder, _) in resolvers {
                responder.send(Err(ServerError::Execution(e.clone())));
            }
        }
    }
}

/// Executes one coalesced batch of streamed frames — one frame per
/// distinct session — through the incremental streaming path, resolves
/// every rider and records the stream counters. The caller releases each
/// session's in-flight slot afterwards.
fn serve_stream_batch(
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
        resolvers.push((p.responder, p.enqueued));
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
            resolve_riders(resolvers, report.requests, Some(frames), exec_start, exec);
        }
        Err(e) => {
            entry.stats.failed.fetch_add(frames.len() as u64, Ordering::Relaxed);
            for (responder, _) in resolvers {
                responder.send(Err(ServerError::Execution(e.clone())));
            }
        }
    }
}

/// Resolves every rider of an executed batch with its share of the
/// report. With `spent` (streamed frames), each frame retires into its
/// rider's slot and is released with the handle — on the caller's
/// thread, once it took the result — instead of on the leader's. A
/// streaming client builds its next frames while the current ones are in
/// flight; freeing them on the leader just before that let the allocator
/// trim the heap top and re-fault it on every step (about 10⁶ minor
/// faults in a 10 s phibench `stream` run on a 2-core x86-64 host with
/// glibc, against 3·10⁴). It shows end to end as unstable runs: freed
/// on the leader, 3 of 15 `stream` runs on that host read 10.2–11.3k
/// frames/s and the runs' p50 latencies spread over an interquartile
/// range of 0.10–0.12 ms; retired, none of 20 read below 12k and the
/// range was 0.02 ms, at the same medians. Stateless requests are freed
/// by the leader at once, which keeps their memory hot for the next
/// request: retiring them too cost `serve` 15–20 % in p50 on that host.
fn resolve_riders(
    resolvers: Vec<(Responder, Instant)>,
    results: Vec<RequestResult>,
    spent: Option<Vec<InferenceRequest>>,
    exec_start: Instant,
    exec: Duration,
) {
    let batch_size = resolvers.len();
    let mut spent = spent.map(Vec::into_iter);
    for ((responder, enqueued), result) in resolvers.into_iter().zip(results) {
        let response = ServedResponse {
            readout: result.readout,
            cycles: result.cycles,
            energy_j: result.energy_j,
            queue_wait: exec_start.duration_since(enqueued),
            exec,
            batch_size,
        };
        responder.resolve(Ok(response), spent.as_mut().and_then(Iterator::next));
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
/// a racing shutdown.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompileOptions, ModelCompiler};
    use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};
    use std::sync::MutexGuard;
    use std::thread::{Scope, ScopedJoinHandle};

    mod fused;

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
        let server = PhiServer::start(registry, ServerConfig::default());
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

    /// Direct (unserved) readouts of `batch` on `model`, for comparing
    /// served responses against ground truth.
    fn direct_readouts(model: &Arc<CompiledModel>, batch: &[InferenceRequest]) -> Vec<Matrix> {
        let executor = BatchExecutor::new(Arc::clone(model));
        let report = executor.execute(batch).unwrap();
        report.requests.into_iter().map(|r| r.readout.unwrap()).collect()
    }

    /// Polls `predicate` every millisecond for up to ~5s; panics with
    /// `what` on timeout.
    fn wait_until(what: &str, mut predicate: impl FnMut() -> bool) {
        for _ in 0..5000 {
            if predicate() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    /// A registry hosting `m` under `"m"` and again under `"gate"`, the
    /// key [`hold_busy`]'s blocker rides — so the blocker's batch never
    /// shows in `"m"`'s stats.
    fn gated_registry(m: &Arc<CompiledModel>) -> ModelRegistry {
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(m));
        registry.register("gate", Arc::clone(m));
        registry
    }

    /// Requests queued behind the batch in flight.
    fn queued(server: &PhiServer) -> usize {
        lock(&server.shared.intake).items.len()
    }

    /// Makes `server` busy: takes the leader gate, then submits `blocker`
    /// on the `"gate"` key from a scoped thread. That submitter becomes
    /// the leader, cuts the blocker's batch and stalls at the gate, so
    /// until the returned guard drops everything submitted next queues
    /// behind it. The join handle yields the blocker's outcome.
    fn hold_busy<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        server: &'env PhiServer,
        blocker: InferenceRequest,
    ) -> (MutexGuard<'env, ()>, ScopedJoinHandle<'scope, ServerResult<ServedResponse>>) {
        let gate = lock(&server.shared.gate);
        let leader =
            scope.spawn(move || server.submit("gate", blocker).and_then(ResponseHandle::wait));
        wait_until("the blocker's batch to be cut", || {
            let intake = lock(&server.shared.intake);
            intake.leading && intake.items.is_empty()
        });
        (gate, leader)
    }

    #[test]
    fn an_idle_server_runs_a_request_on_the_submitting_thread() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let server = PhiServer::start(registry, ServerConfig::default());
        let handle = server.submit("m", requests(&w, 1, 4, 19).remove(0)).unwrap();
        // The submitter led its own batch: resolved before submit returned,
        // with the leadership released.
        let response = handle
            .wait_timeout(Duration::ZERO)
            .expect("submit returned before its batch executed")
            .unwrap();
        assert_eq!(response.batch_size, 1);
        assert!(!lock(&server.shared.intake).leading);
    }

    #[test]
    fn busy_server_coalesces() {
        let w = tiny_workload();
        let m = model(&w);
        let server = PhiServer::start(gated_registry(&m), ServerConfig::default());
        let batch = requests(&w, 5, 4, 23);
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 22).remove(0));
            let handles: Vec<ResponseHandle> =
                batch.iter().map(|r| server.submit("m", r.clone()).unwrap()).collect();
            // Behind the batch in flight all five queue: no submitter led.
            assert_eq!(queued(&server), 5);
            assert_eq!(server.shared.queued.load(Ordering::SeqCst), 5);
            // Releasing the gate finishes the blocker; its leader then runs
            // everything that queued as one batch.
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
            for (handle, want) in handles.into_iter().zip(direct_readouts(&m, &batch)) {
                let response = handle.wait().unwrap();
                assert_eq!(response.batch_size, 5);
                assert_eq!(response.readout, Some(want));
            }
        });
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.served, stats.batches), (5, 1));
    }

    #[test]
    fn busy_server_cuts_batches_at_max_batch() {
        let w = tiny_workload();
        let m = model(&w);
        let config = ServerConfig::default().with_max_batch(4);
        let server = PhiServer::start(gated_registry(&m), config);
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 4).remove(0));
            let handles: Vec<ResponseHandle> =
                requests(&w, 6, 4, 5).into_iter().map(|r| server.submit("m", r).unwrap()).collect();
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
            let sizes: Vec<usize> =
                handles.into_iter().map(|h| h.wait().unwrap().batch_size).collect();
            // Arrival order survives the cut: the first four fuse, then the rest.
            assert_eq!(sizes, [4, 4, 4, 4, 2, 2]);
        });
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.served, stats.batches), (6, 2));
    }

    #[test]
    fn requests_with_different_rows_batch_separately() {
        let w = tiny_workload();
        let m = model(&w);
        let server = PhiServer::start(gated_registry(&m), ServerConfig::default());
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 2).remove(0));
            let four = server.submit("m", requests(&w, 1, 4, 1).remove(0)).unwrap();
            let eight = server.submit("m", requests(&w, 1, 8, 1).remove(0)).unwrap();
            let four_again = server.submit("m", requests(&w, 1, 4, 3).remove(0)).unwrap();
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
            // Different row counts can never fuse (the executor would
            // reject the ragged batch): the oldest group's batch takes
            // both 4-row requests past the 8-row one, which runs next.
            assert_eq!(four.wait().unwrap().batch_size, 2);
            assert_eq!(four_again.wait().unwrap().batch_size, 2);
            assert_eq!(eight.wait().unwrap().batch_size, 1);
        });
        assert_eq!(server.stats("m").unwrap().batches, 2);
    }

    #[test]
    fn sim_backend_servers_attach_simulated_metrics() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let config = ServerConfig::default().with_backend(BackendKind::Sim);
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
        let m = model(&w);
        let server = PhiServer::start(gated_registry(&m), ServerConfig::default());
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 10).remove(0));
            // Queued behind the stalled batch when shutdown lands: it must
            // resolve with ShuttingDown, before the gate opens.
            let held = server.submit("m", requests(&w, 1, 4, 11).remove(0)).unwrap();
            server.shutdown();
            assert!(matches!(held.wait(), Err(ServerError::ShuttingDown)));
            assert_eq!(server.shared.queued.load(Ordering::SeqCst), 0);
            // The batch already executing still completes.
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
        });
        assert!(!lock(&server.shared.intake).leading);
        assert_eq!(
            server.submit("m", requests(&w, 1, 4, 12).remove(0)).unwrap_err(),
            ServerError::ShuttingDown
        );
        // Shutdown is idempotent (drop will run it again).
        server.shutdown();
    }

    #[test]
    fn server_stats_expose_tile_cache_hit_rates() {
        // k = 20: unpacked layers, whose tiles go through the cache (a
        // packed k ≤ 16 layer never consults it).
        let w = tiny_workload();
        let mut options = CompileOptions::fast();
        options.calibration.k = 20;
        let unpacked = Arc::new(ModelCompiler::new(options).compile(&w));
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&unpacked));
        let config = ServerConfig::default().with_tile_cache(1 << 12);
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
        registry.register("m", unpacked);
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
        let server = PhiServer::start(registry, ServerConfig::default());
        let direct = BatchExecutor::cpu(Arc::clone(&m)).with_tile_cache_capacity(0);

        let session = server.open_session("m").unwrap();
        let frames = requests(&w, 5, 4, 71);
        // Submit the whole stream before waiting.
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
    fn streamed_frames_park_behind_their_session_and_promote_in_order() {
        let w = tiny_workload();
        let m = model(&w);
        let server = PhiServer::start(gated_registry(&m), ServerConfig::default());
        let direct = BatchExecutor::cpu(Arc::clone(&m)).with_tile_cache_capacity(0);
        let session = server.open_session("m").unwrap();
        let frames = requests(&w, 3, 4, 73);
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 72).remove(0));
            let handles: Vec<ResponseHandle> = frames
                .iter()
                .map(|f| server.submit_stream("m", session, f.clone()).unwrap())
                .collect();
            // One frame queues; the other two park on the session.
            assert_eq!(queued(&server), 1);
            assert_eq!(server.shared.queued.load(Ordering::SeqCst), 3);
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
            for (frame, handle) in frames.iter().zip(handles) {
                let response = handle.wait().unwrap();
                assert_eq!(response.batch_size, 1);
                assert_eq!(response.readout, direct.execute_one(frame).unwrap().readout);
            }
        });
        assert_eq!(server.session_snapshot("m", session).unwrap().timesteps, 3);
        assert_eq!(server.shared.queued.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn session_limit_refuses_and_ttl_sweeps_idle_sessions() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let config = ServerConfig::default().with_max_sessions(2);
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
            ServerConfig::default().with_max_sessions(1).with_session_ttl(Duration::ZERO),
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
        let server = PhiServer::start(registry, ServerConfig::default());
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

    #[test]
    fn queue_full_sheds_instead_of_blocking() {
        let w = tiny_workload();
        let m = model(&w);
        // Capacity 3 behind a stalled batch: requests accumulate in the
        // queue, so the 4th submission must be shed synchronously.
        let config = ServerConfig::default().with_queue_capacity(3);
        let server = PhiServer::start(gated_registry(&m), config);
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 4).remove(0));
            let held: Vec<ResponseHandle> =
                requests(&w, 3, 4, 5).into_iter().map(|r| server.submit("m", r).unwrap()).collect();
            assert!(matches!(
                server.submit("m", requests(&w, 1, 4, 6).remove(0)),
                Err(ServerError::QueueFull { capacity: 3 })
            ));
            let stats = server.stats("m").unwrap();
            assert_eq!((stats.shed, stats.served), (1, 0));
            // Shutdown resolves the held requests instead of leaking them.
            server.shutdown();
            for handle in held {
                assert!(matches!(handle.wait(), Err(ServerError::ShuttingDown)));
            }
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
        });
    }

    #[test]
    fn ragged_request_is_rejected_at_enqueue_not_mid_batch() {
        let w = tiny_workload();
        let m = model(&w);
        // Behind a stalled batch, every good request below queues for the
        // same next batch: if the ragged request were admitted it WOULD be
        // coalesced with the good traffic submitted around it (and the
        // batch would misfuse).
        let config = ServerConfig::default().with_max_batch(7);
        let server = PhiServer::start(gated_registry(&m), config);
        let mut batch = requests(&w, 8, 4, 2);
        let victim = batch.remove(0);
        let mut ragged = batch.remove(0);
        let wide = ragged.layers[1].cols();
        ragged.layers[1] = snn_core::SpikeMatrix::zeros(5, wide);

        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 1).remove(0));
            // Good request enqueues behind the stalled batch...
            let good = server.submit("m", victim).unwrap();
            // ...the ragged one is refused synchronously, with the typed
            // cause.
            assert!(matches!(
                server.submit("m", ragged),
                Err(ServerError::Rejected(crate::error::RuntimeError::Ragged {
                    layer: 1,
                    expected: 4,
                    actual: 5
                }))
            ));
            assert_eq!(server.stats("m").unwrap().rejected, 1);

            // The good traffic batches and serves untouched by the
            // rejection.
            for request in batch {
                server.submit("m", request).unwrap();
            }
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
            let response = good.wait().unwrap();
            assert_eq!(response.batch_size, 7);
            assert!(response.readout.is_some());
        });
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.served, stats.failed), (7, 0));
    }

    #[test]
    fn deadline_expired_requests_shed_with_typed_error() {
        let w = tiny_workload();
        let m = model(&w);
        let server = PhiServer::start(gated_registry(&m), ServerConfig::default());
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, requests(&w, 1, 4, 2).remove(0));
            let request = requests(&w, 1, 4, 3).remove(0).with_deadline(Duration::from_millis(1));
            let handle = server.submit("m", request).unwrap();
            // Expire it behind the stalled batch; the next leader's cut
            // sheds it instead of executing it.
            std::thread::sleep(Duration::from_millis(2));
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
            assert!(matches!(
                handle.wait(),
                Err(ServerError::DeadlineExceeded { deadline }) if deadline == Duration::from_millis(1)
            ));
        });
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.deadline_exceeded, stats.served, stats.shed), (1, 0, 0));
        assert_eq!(server.shared.queued.load(Ordering::SeqCst), 0);

        // A generous deadline rides along without ever triggering.
        let request = requests(&w, 1, 4, 3).remove(0).with_deadline(Duration::from_secs(30));
        let response = server.submit("m", request).unwrap().wait().unwrap();
        assert!(response.readout.is_some());
        assert_eq!(server.stats("m").unwrap().deadline_exceeded, 1);
    }

    #[test]
    fn deadline_shed_stream_frame_promotes_its_successor() {
        let w = tiny_workload();
        let m = model(&w);
        let server = PhiServer::start(gated_registry(&m), ServerConfig::default());
        let session = server.open_session("m").unwrap();
        let frames = requests(&w, 2, 4, 17);
        std::thread::scope(|scope| {
            let (gate, blocker) = hold_busy(scope, &server, frames[0].clone());
            // Frame 1 expires behind the stalled batch; frame 2 parks
            // behind it and must be promoted by the shed, not stranded.
            let first = frames[0].clone().with_deadline(Duration::from_millis(1));
            let first = server.submit_stream("m", session, first).unwrap();
            let second = server.submit_stream("m", session, frames[1].clone()).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            drop(gate);
            assert!(blocker.join().unwrap().is_ok());
            assert!(matches!(
                first.wait(),
                Err(ServerError::DeadlineExceeded { deadline }) if deadline == Duration::from_millis(1)
            ));
            let response = second
                .wait_timeout(Duration::from_secs(5))
                .expect("the parked frame was never promoted")
                .unwrap();
            // The shed frame never touched the session, so frame 2 is the
            // first timestep of a fresh stream.
            let direct = BatchExecutor::cpu(Arc::clone(&m)).with_tile_cache_capacity(0);
            let fresh = StreamSession::new(&m);
            assert_eq!(
                response.readout,
                direct.execute_stream_one(&frames[1], &fresh).unwrap().readout
            );
        });
        assert_eq!(server.session_snapshot("m", session).unwrap().timesteps, 1);
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.deadline_exceeded, stats.served, stats.failed), (1, 1, 0));
    }

    #[test]
    fn a_panicking_batch_resolves_its_riders_and_serving_continues() {
        let w = tiny_workload();
        let m = model(&w);
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&m));
        let server = PhiServer::start(registry, ServerConfig::default());
        let batch = requests(&w, 2, 4, 41);

        // The submitter leads the panicking batch; its submit still
        // returns normally, and the rider resolves with Disconnected.
        server.shared.panic_next.store(true, Ordering::SeqCst);
        let handle = server.submit("m", batch[0].clone()).unwrap();
        assert!(matches!(handle.wait(), Err(ServerError::Disconnected)));
        assert!(!lock(&server.shared.intake).leading, "the panicked leader kept the leadership");
        // The next request serves bit-identically.
        let response = server.submit("m", batch[1].clone()).unwrap().wait().unwrap();
        assert_eq!(response.readout.as_ref(), Some(&direct_readouts(&m, &batch[1..])[0]));

        // A panicking stream batch releases its session's in-flight slot,
        // so the session's next frame serves instead of stranding.
        let session = server.open_session("m").unwrap();
        let frames = requests(&w, 2, 4, 43);
        server.shared.panic_next.store(true, Ordering::SeqCst);
        let first = server.submit_stream("m", session, frames[0].clone()).unwrap();
        let second = server.submit_stream("m", session, frames[1].clone()).unwrap();
        assert!(matches!(first.wait(), Err(ServerError::Disconnected)));
        let response = second
            .wait_timeout(Duration::from_secs(5))
            .expect("the frame after a panicked batch was stranded")
            .unwrap();
        // The panic struck before execution, so frame 2 is the first
        // timestep of a fresh stream.
        let direct = BatchExecutor::cpu(Arc::clone(&m)).with_tile_cache_capacity(0);
        assert_eq!(
            response.readout,
            direct.execute_stream_one(&frames[1], &StreamSession::new(&m)).unwrap().readout
        );
        let stats = server.stats("m").unwrap();
        assert_eq!((stats.failed, stats.served), (2, 2));
        assert_eq!(server.shared.queued.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_handle_yields_its_result_once() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let server = PhiServer::start(registry, ServerConfig::default());
        let handle = server.submit("m", requests(&w, 1, 4, 5).remove(0)).unwrap();
        assert!(handle.wait_timeout(Duration::from_secs(5)).unwrap().is_ok());
        assert!(matches!(handle.wait(), Err(ServerError::Disconnected)));
    }

    #[test]
    fn deploy_swaps_atomically_and_new_admissions_serve_the_new_version() {
        let w = tiny_workload();
        let a = model(&w);
        let b = Arc::new(ModelCompiler::new(CompileOptions::fast().with_seed(8)).compile(&w));
        let mut registry = ModelRegistry::new();
        registry.register("m", Arc::clone(&a));
        let server = PhiServer::start(registry, ServerConfig::default());
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
        let server =
            PhiServer::start(registry, ServerConfig::default().with_canary_target(1_000_000));
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
        let server = PhiServer::start(registry, ServerConfig::default().with_canary_target(2));
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
        assert_eq!((lc.version, lc.rolled_back), (2, 0));
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
        let server = PhiServer::start(registry, ServerConfig::default().with_canary_target(4));
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
    fn poisoned_intake_and_stats_locks_never_take_down_serving() {
        let w = tiny_workload();
        let mut registry = ModelRegistry::new();
        registry.register("m", model(&w));
        let server = PhiServer::start(registry, ServerConfig::default());
        let slot = Arc::clone(server.slots.get("m").unwrap());

        // Poison the latency-sample mutex and the intake mutex by
        // panicking while holding them.
        let stats = Arc::clone(&slot.stats);
        let shared = Arc::clone(&server.shared);
        std::thread::spawn(move || {
            let _stats_guard = stats.queue_wait_us.lock().unwrap();
            let _intake_guard = shared.intake.lock().unwrap();
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
        let server = PhiServer::start(registry, ServerConfig::default());
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
