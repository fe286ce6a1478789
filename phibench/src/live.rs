//! What the serving workloads share: per-request bookkeeping of a live
//! phase, its spans, and the replay's per-layer metrics.

use crate::report::{Metrics, Tally, LAYERS};
use crate::stats::{mean, median, percentile, ratio, samples_beyond, windowed, Windowed};
use crate::trace::Tracer;
use phi_runtime::{ModelStatsSnapshot, ServedResponse};
use std::time::{Duration, Instant};

/// The registry key every server hosts the model under.
pub const MODEL_KEY: &str = "vgg16-cifar10";

/// Completions reserved for up front, so a phase's buffers grow without
/// reallocating (untouched capacity costs no resident memory).
const RESERVE: usize = 4 << 20;

/// One live (served) phase.
#[derive(Debug)]
pub struct Live {
    /// When the phase started.
    pub origin: Instant,
    pub tally: Tally,
    /// Per successful operation: (completion time since `origin` in s,
    /// latency in µs).
    pub samples: Vec<(f32, f32)>,
    pub elapsed_s: f64,
    /// Traced phases only: how late the generator submitted each
    /// request (µs), its end-to-end latency minus queue wait, execution
    /// and lag (µs), and the size of the batch it rode in.
    pub lag_us: Vec<f64>,
    pub overhead_us: Vec<f64>,
    pub batch_sizes: Vec<f64>,
}

/// The instants of one served operation, from the generator's side.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// When the operation was due (scheduled arrival, or the submit call
    /// in a closed loop).
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub wait_start: Instant,
    /// When the response was in the generator's hand.
    pub received: Instant,
}

impl Live {
    pub fn new(origin: Instant) -> Self {
        Live {
            origin,
            tally: Tally::default(),
            samples: Vec::with_capacity(RESERVE),
            elapsed_s: 0.0,
            lag_us: Vec::new(),
            overhead_us: Vec::new(),
            batch_sizes: Vec::new(),
        }
    }

    /// Records one resolved operation; `ok` is whether it succeeded with
    /// the expected bits. Spans go to `tracer` when tracing.
    pub fn record(
        &mut self,
        id: u64,
        stamps: Stamps,
        response: Option<&ServedResponse>,
        ok: bool,
        tracer: Option<&mut Tracer>,
    ) {
        self.tally.record(ok);
        let Some(response) = response.filter(|_| ok) else { return };
        let e2e = stamps.received.saturating_duration_since(stamps.due);
        let lag = stamps.submit_start.saturating_duration_since(stamps.due);
        let at = stamps.received.saturating_duration_since(self.origin).as_secs_f32();
        self.samples.push((at, us(e2e) as f32));
        if let Some(tracer) = tracer {
            self.lag_us.push(us(lag));
            self.overhead_us.push(us(e2e) - us(response.queue_wait) - us(response.exec) - us(lag));
            self.batch_sizes.push(response.batch_size as f64);
            let root = tracer.record("request", id, None, stamps.due, stamps.received);
            if lag > Duration::ZERO {
                tracer.record("loadgen.lag", id, Some(root), stamps.due, stamps.submit_start);
            }
            tracer.record("server.submit", id, Some(root), stamps.submit_start, stamps.submit_end);
            tracer.record("server.wait", id, Some(root), stamps.wait_start, stamps.received);
            // The server reports queue wait and execution as lengths; they
            // start from the enqueue, which ends the submit call.
            let exec_start = stamps.submit_end + response.queue_wait;
            tracer.record("server.queue_wait", id, Some(root), stamps.submit_end, exec_start);
            tracer.record_for("server.exec", id, Some(root), exec_start, response.exec);
        }
    }

    /// Throughput and latency as medians over the phase's windows.
    pub fn windowed(&self) -> Windowed {
        windowed(&self.samples, self.elapsed_s)
    }

    /// The end-to-end metrics of a phase that is both throughput- and
    /// latency-bound.
    pub fn e2e(&self) -> Metrics {
        let w = self.windowed();
        let mut m = Metrics::default();
        m.set("throughput_rps", w.throughput);
        m.set("latency_p50_ms", w.p50 / 1e3);
        m.set("latency_p99_ms", w.p99 / 1e3);
        m.set("success_rate", self.tally.success_rate());
        m
    }

    /// A human-readable line of the phase's counts.
    pub fn summary(&self, phase: &str) -> String {
        let w = self.windowed();
        format!(
            "{phase}: sent {} succeeded {} failed {} in {:.2} s; window medians: {:.0}/s, \
             latency p50 {:.3} ms p99 {:.3} ms; {} samples, {} beyond the run's p99",
            self.tally.attempted,
            self.tally.attempted - self.tally.failed,
            self.tally.failed,
            self.elapsed_s,
            w.throughput,
            w.p50 / 1e3,
            w.p99 / 1e3,
            self.samples.len(),
            samples_beyond(self.samples.len(), 99.0),
        )
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The server-side latency split of a latency-bound phase.
pub fn latency_layers(live: &Live, tracer: &Tracer, layers: &mut Metrics) {
    layers.set("loadgen.lag_us_p99", percentile(&live.lag_us, 99.0));
    let submit = tracer.durations_us("server.submit");
    layers.set("server.submit_us_p50", median(&submit));
    layers.set("server.submit_us_p99", percentile(&submit, 99.0));
    let queue = tracer.durations_us("server.queue_wait");
    layers.set("server.queue_wait_us_p50", median(&queue));
    layers.set("server.queue_wait_us_p99", percentile(&queue, 99.0));
    layers.set("server.overhead_us_p50", median(&live.overhead_us));
}

/// The server-side execution split of a throughput-bound phase, with the
/// program's own counters over the phase (`after − before`).
pub fn execution_layers(
    live: &Live,
    tracer: &Tracer,
    before: &ModelStatsSnapshot,
    after: &ModelStatsSnapshot,
    layers: &mut Metrics,
) {
    let exec = tracer.durations_us("server.exec");
    layers.set("server.exec_us_p50", median(&exec));
    layers.set("server.exec_us_p99", percentile(&exec, 99.0));
    layers.set("server.batch_size_mean", mean(&live.batch_sizes));
    layers.set("server.shed", (after.shed - before.shed) as f64);
    layers.set(
        "server.failed",
        (after.failed - before.failed + after.deadline_exceeded - before.deadline_exceeded) as f64,
    );
    let hits = after.tile_cache.hits - before.tile_cache.hits;
    let misses = after.tile_cache.misses - before.tile_cache.misses;
    layers.set("decompose.tile_cache_hit_rate", ratio(hits as f64, (hits + misses) as f64));
    layers.set("decompose.cache_misses", misses as f64);
    let total = after.reuse.term_rows_total - before.reuse.term_rows_total;
    let computed = after.reuse.term_rows_computed - before.reuse.term_rows_computed;
    layers.set("pwp.reuse_rate", ratio(total.saturating_sub(computed) as f64, total as f64));
}

/// Work the replay pushed through the readout layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Rows decomposed (every layer).
    pub rows: u64,
    /// Level-1 terms plus Level-2 corrections the readout matmul ran.
    pub term_refs: u64,
    pub inferences: u64,
    /// Readout output columns.
    pub out_cols: usize,
}

/// Per-layer metrics of a replay traced into `tracer`.
pub fn replay_layers(tracer: &Tracer, counts: ReplayCounts, layers: &mut Metrics) {
    let named = |prefix: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };
    let execute = tracer.durations_us("executor.execute");
    layers.set("executor.execute_us_p50", median(&execute));
    layers.set("executor.execute_us_p99", percentile(&execute, 99.0));
    let vstack = tracer.durations_us("executor.vstack");
    let split = tracer.durations_us("executor.split");
    let concat = tracer.durations_us("concat");
    let decompose = named("decompose.");
    let pwp = named("pwp.");
    let sim = named("sim.");
    layers.set("executor.vstack_us_p50", median(&vstack));
    layers.set("executor.split_us_p50", median(&split));
    layers.set("decompose.us_p50", median(&decompose));
    layers.set("decompose.us_per_row", ratio(decompose.iter().sum(), counts.rows as f64));
    layers.set("decompose.concat_us_p50", median(&concat));
    layers.set("pwp.matmul_us_p50", median(&pwp));
    layers.set("sim.run_layer_us_p50", median(&sim));
    // The real executor calls against the same work done stage by stage:
    // what the stages do not account for is executor time no layer span
    // covers (negative when the executor overlaps stages in parallel).
    let stages: f64 = [&vstack, &split, &concat, &decompose, &pwp, &sim]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
    let executed: f64 = execute.iter().sum();
    layers.set("executor.unattributed_share", ratio(executed - stages, executed));
    let refs = ratio(counts.term_refs as f64, counts.inferences as f64);
    layers.set("pwp.term_refs_per_inf", refs);
    // Computed, not measured: every term moves one f32 row of the
    // readout's output width.
    layers.set("pwp.bytes_moved_per_inf", refs * counts.out_cols as f64 * 4.0);
    for layer in LAYERS {
        layers.set(
            format!("layer.{layer}.decompose_us"),
            median(&tracer.durations_us(&format!("decompose.{layer}"))),
        );
        layers.set(
            format!("layer.{layer}.sim_us"),
            median(&tracer.durations_us(&format!("sim.{layer}"))),
        );
    }
}
