//! `serve`: stateless 4-row requests through `PhiServer::submit` on the
//! default (CPU) server, in a `steady` open-loop phase at a fixed rate and
//! a `saturated` closed-loop phase with a fixed window in flight.

use crate::inputs::{matches, same_bits, serve_inputs, ServeInputs, SERVE_POOL, SERVE_ROWS};
use crate::live::{self, Live, ReplayCounts, Stamps, MODEL_KEY};
use crate::load::{due, poisson_schedule, run_window};
use crate::report::Tally;
use crate::setup::{self, SetupTimes};
use crate::trace::Tracer;
use crate::{BenchResult, Outcome, RunConfig};
use phi_core::{decompose_cached, TileCache};
use phi_runtime::{
    BatchExecutor, CompiledModel, CpuBackend, ExecutionBackend, LayerWork, MetricsMode,
    ModelRegistry, PhiServer, ReadoutPlan, ResponseHandle, ServerConfig, ServerResult,
    DEFAULT_TILE_CACHE_CAPACITY,
};
use snn_core::SpikeMatrix;
use snn_workloads::Workload;
use std::cell::Cell;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `steady` phase's offered load, fixed once and never derived from a
/// run: a faster server shows as lower latency, not as more load. It is
/// about a third of the `saturated` throughput measured on a 2-core host
/// (about 60 000 req/s); at half, the p99 swung by ±40% between runs on
/// that shared host.
pub const STEADY_RPS: f64 = 20_000.0;

/// The `saturated` phase's window: twice the default `max_batch`.
pub fn saturated_window() -> usize {
    2 * ServerConfig::default().max_batch
}

/// One timed set-up: compile, artifact round trip, server start at the
/// default configuration, then every pool request served once through
/// the window to warm the tile cache.
fn start_server(
    workload: &Workload,
    reference: &[u8],
    inputs: &ServeInputs,
) -> BenchResult<(PhiServer, SetupTimes)> {
    let (model, start, mut times) = setup::compile_and_load(workload, reference)?;
    let mut registry = ModelRegistry::new();
    registry.register(MODEL_KEY, model);
    let server = PhiServer::start(registry, ServerConfig::default());
    let mut wrong = 0usize;
    let next = Cell::new(0usize);
    run_window(
        saturated_window(),
        || next.get() < SERVE_POOL,
        || {
            let i = next.replace(next.get() + 1);
            (i, server.submit(MODEL_KEY, inputs.requests[i].clone()))
        },
        |(i, handle): (usize, ServerResult<ResponseHandle>)| {
            let served = handle.and_then(ResponseHandle::wait);
            wrong += usize::from(
                !served.is_ok_and(|r| matches(r.readout.as_ref(), &inputs.expected[i])),
            );
        },
    );
    times.total_s = start.elapsed().as_secs_f64();
    if wrong > 0 {
        return Err(format!("{wrong} warm-up responses were wrong or failed"));
    }
    Ok((server, times))
}

/// A submission on its way from the submitter to the reaper.
struct Sent {
    index: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    handle: ServerResult<ResponseHandle>,
}

/// Resolves one submission and records it.
fn reap(sent: Sent, inputs: &ServeInputs, live: &mut Live, tracer: Option<&mut Tracer>) {
    let wait_start = Instant::now();
    let served = sent.handle.and_then(ResponseHandle::wait);
    let received = Instant::now();
    let expected = &inputs.expected[sent.index % SERVE_POOL];
    let response = served.ok();
    let ok = response.as_ref().is_some_and(|r| matches(r.readout.as_ref(), expected));
    let stamps = Stamps {
        due: sent.due,
        submit_start: sent.submit_start,
        submit_end: sent.submit_end,
        wait_start,
        received,
    };
    live.record(sent.index as u64, stamps, response.as_ref(), ok, tracer);
}

fn submit(server: &PhiServer, inputs: &ServeInputs, index: usize, due: Option<Instant>) -> Sent {
    let request = inputs.requests[index % SERVE_POOL].clone();
    let submit_start = Instant::now();
    let handle = server.submit(MODEL_KEY, request);
    let submit_end = Instant::now();
    Sent { index, due: due.unwrap_or(submit_start), submit_start, submit_end, handle }
}

/// The open loop: one submitter sleeps until the next arrival is due and
/// then submits every overdue arrival in one burst; one reaper waits on
/// the handles in submission order. Latency runs from the scheduled
/// arrival.
fn steady(
    server: &PhiServer,
    inputs: &ServeInputs,
    span: Duration,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> Live {
    let schedule = poisson_schedule(STEADY_RPS, span, seed ^ 0x0051_0015);
    let (tx, rx) = mpsc::channel::<Sent>();
    // A short lead so the reaper is up before the first arrival.
    let start = Instant::now() + Duration::from_millis(2);
    let mut live = std::thread::scope(|scope| {
        let reaper = scope.spawn(move || {
            let mut live = Live::new(start);
            let mut tracer = tracer;
            for sent in rx {
                reap(sent, inputs, &mut live, tracer.as_deref_mut());
            }
            live
        });
        let mut next = 0usize;
        while next < schedule.len() {
            let now = Instant::now();
            let due_at = start + schedule[next];
            if now < due_at {
                std::thread::sleep(due_at - now);
                continue;
            }
            let burst = due(&schedule, next, now.saturating_duration_since(start));
            for i in burst.clone() {
                if tx.send(submit(server, inputs, i, Some(start + schedule[i]))).is_err() {
                    break;
                }
            }
            next = burst.end;
        }
        drop(tx);
        reaper.join().expect("the reaper thread panicked")
    });
    live.elapsed_s = start.elapsed().as_secs_f64();
    live
}

/// The closed loop: one thread keeps the window full, waiting on the
/// oldest handle before each submit.
fn saturated(
    server: &PhiServer,
    inputs: &ServeInputs,
    span: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Live {
    let start = Instant::now();
    let mut live = Live::new(start);
    let mut next = 0usize;
    run_window(
        saturated_window(),
        || start.elapsed() < span,
        || {
            next += 1;
            submit(server, inputs, next - 1, None)
        },
        |sent| reap(sent, inputs, &mut live, tracer.as_deref_mut()),
    );
    live.elapsed_s = start.elapsed().as_secs_f64();
    live
}

/// Replays the pool in batches of the observed size through the layer
/// calls the CPU executor makes for the readout layer, with a real
/// executor call on each batch for comparison. A first pass warms both
/// tile caches untraced.
fn replay(
    model: &Arc<CompiledModel>,
    inputs: &ServeInputs,
    batch: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> BenchResult<ReplayCounts> {
    let l = model.layers().len() - 1;
    let layer = &model.layers()[l];
    let (Some(pwp), Some(weights)) = (&layer.pwp, &layer.weights) else {
        return Err("the readout layer carries no weights".into());
    };
    let plan = ReadoutPlan { pwp, weights };
    let cache = TileCache::new(DEFAULT_TILE_CACHE_CAPACITY);
    let executor = BatchExecutor::cpu(Arc::clone(model));
    let mut scratch = Vec::new();
    let mut counts = ReplayCounts { out_cols: layer.shape.n, ..ReplayCounts::default() };
    for pass in 0..2 {
        let mut warm = Tracer::new(Instant::now());
        let tracer: &mut Tracer = if pass == 0 { &mut warm } else { tracer };
        for (b, (requests, expected)) in
            inputs.requests.chunks(batch).zip(inputs.expected.chunks(batch)).enumerate()
        {
            let id = b as u64;
            let direct = tracer.time("executor.execute", id, None, || executor.execute(requests));
            let direct = direct.map_err(|e| format!("executor: {e}"))?;
            let root = tracer.open("executor.replay", id, None);
            let mats: Vec<&SpikeMatrix> = requests.iter().map(|r| &r.layers[l]).collect();
            let stacked = tracer.time("executor.vstack", id, Some(root), || {
                SpikeMatrix::vstack_into(&mats, std::mem::take(&mut scratch))
            });
            let stacked = stacked.map_err(|e| format!("vstack: {e}"))?;
            let decomp = tracer.time(format!("decompose.{}", layer.name), id, Some(root), || {
                decompose_cached(&stacked, &layer.patterns, &layer.match_index, &cache)
            });
            scratch = stacked.into_bits();
            let work = LayerWork {
                decomp: &decomp,
                shape: layer.shape,
                row_scale: layer.total_rows() as f64 / SERVE_ROWS as f64,
                name: &layer.name,
                readout: Some(plan),
            };
            let output = tracer.time(format!("pwp.{}", layer.name), id, Some(root), || {
                CpuBackend.run_layer(&work, MetricsMode::OutputsOnly)
            });
            let readout = output.readout.ok_or("the CPU backend returned no readout")?;
            let split = tracer.time("executor.split", id, Some(root), || {
                (0..requests.len())
                    .map(|k| readout.row_range(k * SERVE_ROWS, (k + 1) * SERVE_ROWS))
                    .collect::<Vec<_>>()
            });
            tracer.close(root);
            for ((replayed, served), want) in split.iter().zip(&direct.requests).zip(expected) {
                tally.record(same_bits(replayed, want) && matches(served.readout.as_ref(), want));
            }
            if pass == 1 {
                counts.rows += decomp.rows() as u64;
                counts.term_refs += decomp.assigned_tiles() + decomp.l2_nnz();
                counts.inferences += requests.len() as u64;
            }
        }
    }
    Ok(counts)
}

pub fn run(config: &RunConfig, workload: &Workload) -> BenchResult<Outcome> {
    let (model, reference) = setup::reference_model(workload);
    let inputs = serve_inputs(workload, &model, config.seed)?;
    let (server, setups) = setup::repeat(|| start_server(workload, &reference, &inputs))?;
    let mut out = Outcome::default();
    setup::record(&setups, &mut out.e2e, &mut out.layers);

    let phases = if config.trace { 4 } else { 2 };
    let span = config.measure / phases;
    let steady_plain = steady(&server, &inputs, span, config.seed, None);
    let saturated_plain = saturated(&server, &inputs, span, None);
    out.log.push(steady_plain.summary("steady"));
    out.log.push(saturated_plain.summary("saturated"));
    out.tally.add(steady_plain.tally);
    out.tally.add(saturated_plain.tally);
    let e2e = |steady: &Live, saturated: &Live| {
        let mut m = steady.e2e();
        m.set("throughput_rps", saturated.windowed().throughput);
        let mut tally = steady.tally;
        tally.add(saturated.tally);
        m.set("success_rate", tally.success_rate());
        m
    };
    let plain = e2e(&steady_plain, &saturated_plain);
    if !config.trace {
        out.merge_e2e(&plain);
        return Ok(out);
    }

    let origin = Instant::now();
    let mut steady_spans = Tracer::new(origin);
    let mut saturated_spans = Tracer::new(origin);
    let steady_traced = steady(&server, &inputs, span, config.seed, Some(&mut steady_spans));
    let before = server.stats(MODEL_KEY).ok_or("the model is not registered")?;
    let saturated_traced = saturated(&server, &inputs, span, Some(&mut saturated_spans));
    let after = server.stats(MODEL_KEY).ok_or("the model is not registered")?;
    out.log.push(steady_traced.summary("steady (traced)"));
    out.log.push(saturated_traced.summary("saturated (traced)"));
    out.tally.add(steady_traced.tally);
    out.tally.add(saturated_traced.tally);
    out.record_traced(&plain, &e2e(&steady_traced, &saturated_traced));
    live::latency_layers(&steady_traced, &steady_spans, &mut out.layers);
    live::execution_layers(&saturated_traced, &saturated_spans, &before, &after, &mut out.layers);
    drop(server);

    let batch =
        (crate::stats::mean(&saturated_traced.batch_sizes).round() as usize).clamp(1, SERVE_POOL);
    let mut replay_spans = Tracer::new(Instant::now());
    let counts = replay(&model, &inputs, batch, &mut replay_spans, &mut out.tally)?;
    live::replay_layers(&replay_spans, counts, &mut out.layers);
    out.traces = vec![
        ("steady".into(), steady_spans),
        ("saturated".into(), saturated_spans),
        ("replay".into(), replay_spans),
    ];
    Ok(out)
}
