//! `stream`: temporally correlated 64-row frames through
//! `open_session`/`submit_stream`, one generator thread moving every
//! session forward in lockstep with one frame in flight per session.

use crate::inputs::{
    matches, same_bits, stream_inputs, stream_position, StreamInputs, STREAM_FRAMES, STREAM_ROWS,
    STREAM_SESSIONS,
};
use crate::live::{self, Live, ReplayCounts, Stamps, MODEL_KEY};
use crate::report::Tally;
use crate::setup::{self, SetupTimes};
use crate::trace::Tracer;
use crate::{BenchResult, Outcome, RunConfig};
use phi_core::{decompose_delta, decompose_delta_sparse, Decomposition, FrameMemo, TileCache};
use phi_runtime::{
    BatchExecutor, CompiledModel, CpuBackend, ExecutionBackend, InferenceRequest, LayerWork,
    MetricsMode, ModelRegistry, PhiServer, ReadoutPlan, ServerConfig, StreamSession,
    DEFAULT_TILE_CACHE_CAPACITY,
};
use snn_core::Matrix;
use snn_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steps through every frame forward and back once.
const PERIOD: usize = 2 * STREAM_FRAMES - 2;

fn frames_at(inputs: &StreamInputs, step: usize) -> Vec<InferenceRequest> {
    let pos = stream_position(step);
    inputs.frames.iter().map(|session| session[pos].clone()).collect()
}

/// Opens one session per stream, plays steps while `more(step)` holds,
/// then closes the sessions and checks each served every step. The next
/// step's frames are copied while the current step is in flight.
fn lockstep(
    server: &PhiServer,
    inputs: &StreamInputs,
    mut more: impl FnMut(usize) -> bool,
    mut tracer: Option<&mut Tracer>,
) -> Live {
    let ids: Vec<Option<u64>> =
        (0..STREAM_SESSIONS).map(|_| server.open_session(MODEL_KEY).ok()).collect();
    let mut frames = frames_at(inputs, 0);
    let mut step = 0usize;
    let start = Instant::now();
    let mut live = Live::new(start);
    while more(step) {
        let pos = stream_position(step);
        let sent: Vec<_> = frames
            .drain(..)
            .zip(&ids)
            .map(|(frame, id)| {
                let submit_start = Instant::now();
                let handle = id
                    .ok_or(phi_runtime::ServerError::ShuttingDown)
                    .and_then(|id| server.submit_stream(MODEL_KEY, id, frame));
                (submit_start, Instant::now(), handle)
            })
            .collect();
        frames = frames_at(inputs, step + 1);
        for (s, (submit_start, submit_end, handle)) in sent.into_iter().enumerate() {
            let wait_start = Instant::now();
            let response = handle.and_then(|h| h.wait()).ok();
            let received = Instant::now();
            let ok = response
                .as_ref()
                .is_some_and(|r| matches(r.readout.as_ref(), &inputs.expected[s][pos]));
            let stamps =
                Stamps { due: submit_start, submit_start, submit_end, wait_start, received };
            let id = (step * STREAM_SESSIONS + s) as u64;
            live.record(id, stamps, response.as_ref(), ok, tracer.as_deref_mut());
        }
        step += 1;
    }
    live.elapsed_s = start.elapsed().as_secs_f64();
    for id in ids.into_iter().flatten() {
        let closed = server.close_session(MODEL_KEY, id);
        live.tally.record(closed.is_ok_and(|c| c.timesteps == step as u64));
    }
    live
}

/// One timed set-up: compile, artifact round trip, server start, then one
/// forward pass of every stream through throwaway sessions.
fn start_server(
    workload: &Workload,
    reference: &[u8],
    inputs: &StreamInputs,
) -> BenchResult<(PhiServer, SetupTimes)> {
    let (model, start, mut times) = setup::compile_and_load(workload, reference)?;
    let mut registry = ModelRegistry::new();
    registry.register(MODEL_KEY, model);
    let server = PhiServer::start(registry, ServerConfig::default());
    let warm = lockstep(&server, inputs, |step| step < STREAM_FRAMES, None);
    times.total_s = start.elapsed().as_secs_f64();
    if warm.tally.failed > 0 {
        return Err(format!("{} warm-up frames were wrong or failed", warm.tally.failed));
    }
    Ok((server, times))
}

/// Replays the streams through the calls the streaming executor makes
/// for the readout layer — per-session delta decomposition, the splice
/// into one fused layer, the matmul over changed rows, and the scatter
/// that fills unchanged rows from each session's previous readout — next
/// to a real `execute_stream_with` call on the same step. The first
/// period warms the caches and memos untraced.
fn replay(
    model: &Arc<CompiledModel>,
    inputs: &StreamInputs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> BenchResult<ReplayCounts> {
    let l = model.layers().len() - 1;
    let layer = &model.layers()[l];
    let (Some(pwp), Some(weights)) = (&layer.pwp, &layer.weights) else {
        return Err("the readout layer carries no weights".into());
    };
    let plan = ReadoutPlan { pwp, weights };
    let n = layer.shape.n;
    let executor = BatchExecutor::cpu(Arc::clone(model));
    let sessions: Vec<StreamSession> =
        (0..STREAM_SESSIONS).map(|_| StreamSession::new(model)).collect();
    let session_refs: Vec<&StreamSession> = sessions.iter().collect();
    let cache = TileCache::new(DEFAULT_TILE_CACHE_CAPACITY);
    let mut memos: Vec<FrameMemo> = (0..STREAM_SESSIONS).map(|_| FrameMemo::new()).collect();
    let mut prev: Vec<Option<Matrix>> = vec![None; STREAM_SESSIONS];
    let mut counts = ReplayCounts { out_cols: n, ..ReplayCounts::default() };
    let mut warm = Tracer::new(Instant::now());
    for step in 0..2 * PERIOD {
        let traced = step >= PERIOD;
        let tracer: &mut Tracer = if traced { &mut *tracer } else { &mut warm };
        let pos = stream_position(step);
        let id = step as u64;
        let frames = frames_at(inputs, step);
        let direct = tracer.time("executor.execute", id, None, || {
            executor.execute_stream_with(&frames, &session_refs, MetricsMode::OutputsOnly)
        });
        let direct = direct.map_err(|e| format!("stream executor: {e}"))?;
        let root = tracer.open("executor.replay", id, None);
        let mut parts = Vec::with_capacity(STREAM_SESSIONS);
        let mut changed: Vec<bool> = Vec::with_capacity(STREAM_SESSIONS * STREAM_ROWS);
        for (s, memo) in memos.iter_mut().enumerate() {
            let frame = &inputs.frames[s][pos].layers[l];
            let sweep = if prev[s].is_some() { decompose_delta_sparse } else { decompose_delta };
            let (decomp, _) =
                tracer.time(format!("decompose.{}", layer.name), id, Some(root), || {
                    sweep(frame, &layer.patterns, &layer.match_index, &cache, memo)
                });
            if prev[s].is_some() {
                changed.extend_from_slice(memo.row_changed());
            } else {
                changed.resize(changed.len() + STREAM_ROWS, true);
            }
            if traced {
                counts.rows += decomp.rows() as u64;
            }
            parts.push(decomp);
        }
        let refs: Vec<&Decomposition> = parts.iter().collect();
        let fused = tracer.time("concat", id, Some(root), || Decomposition::concat(&refs));
        let computed = if fused.rows() == 0 {
            None
        } else {
            let work = LayerWork {
                decomp: &fused,
                shape: layer.shape,
                row_scale: layer.total_rows() as f64 / STREAM_ROWS as f64,
                name: &layer.name,
                readout: Some(plan),
            };
            let output = tracer.time(format!("pwp.{}", layer.name), id, Some(root), || {
                CpuBackend.run_layer(&work, MetricsMode::OutputsOnly)
            });
            Some(output.readout.ok_or("the CPU backend returned no readout")?)
        };
        let readouts = tracer.time("executor.split", id, Some(root), || {
            scatter(computed.as_ref(), &prev, &changed, n)
        })?;
        tracer.close(root);
        for (s, readout) in readouts.into_iter().enumerate() {
            let want = &inputs.expected[s][pos];
            tally.record(
                same_bits(&readout, want) && matches(direct.requests[s].readout.as_ref(), want),
            );
            prev[s] = Some(readout);
        }
        if traced {
            counts.term_refs += fused.assigned_tiles() + fused.l2_nnz();
            counts.inferences += STREAM_SESSIONS as u64;
        }
    }
    Ok(counts)
}

/// Per-session readouts: changed rows from `computed` in order, the rest
/// from each session's previous readout.
fn scatter(
    computed: Option<&Matrix>,
    prev: &[Option<Matrix>],
    changed: &[bool],
    n: usize,
) -> BenchResult<Vec<Matrix>> {
    let mut next = 0usize;
    prev.iter()
        .enumerate()
        .map(|(s, prev)| {
            let mut data = Vec::with_capacity(STREAM_ROWS * n);
            for r in 0..STREAM_ROWS {
                let row = if changed[s * STREAM_ROWS + r] {
                    next += 1;
                    let src = computed.ok_or("a changed row was not executed")?;
                    &src.as_slice()[(next - 1) * n..next * n]
                } else {
                    let src = prev.as_ref().ok_or("an unchanged row has no previous readout")?;
                    &src.as_slice()[r * n..(r + 1) * n]
                };
                data.extend_from_slice(row);
            }
            Matrix::from_vec(STREAM_ROWS, n, data).map_err(|e| format!("scatter: {e}"))
        })
        .collect()
}

pub fn run(config: &RunConfig, workload: &Workload) -> BenchResult<Outcome> {
    let (model, reference) = setup::reference_model(workload);
    let inputs = stream_inputs(workload, &model, config.seed)?;
    let (server, setups) = setup::repeat(|| start_server(workload, &reference, &inputs))?;
    let mut out = Outcome::default();
    setup::record(&setups, &mut out.e2e, &mut out.layers);

    let span = if config.trace { config.measure / 2 } else { config.measure };
    let timed = |span: Duration| {
        let start = Instant::now();
        move |_step: usize| start.elapsed() < span
    };
    let plain = lockstep(&server, &inputs, timed(span), None);
    out.log.push(plain.summary("stream"));
    out.tally.add(plain.tally);
    let plain_e2e = plain.e2e();
    if !config.trace {
        out.merge_e2e(&plain_e2e);
        return Ok(out);
    }

    let mut spans = Tracer::new(Instant::now());
    let before = server.stats(MODEL_KEY).ok_or("the model is not registered")?;
    let traced = lockstep(&server, &inputs, timed(span), Some(&mut spans));
    let after = server.stats(MODEL_KEY).ok_or("the model is not registered")?;
    out.log.push(traced.summary("stream (traced)"));
    out.tally.add(traced.tally);
    out.record_traced(&plain_e2e, &traced.e2e());
    live::latency_layers(&traced, &spans, &mut out.layers);
    live::execution_layers(&traced, &spans, &before, &after, &mut out.layers);
    let (d0, d1) = (before.stream_delta, after.stream_delta);
    let rows = (d1.rows_total - d0.rows_total) as f64;
    out.layers.set(
        "decompose.rows_skipped_rate",
        crate::stats::ratio((d1.rows_skipped - d0.rows_skipped) as f64, rows),
    );
    let frames = (after.stream_frames - before.stream_frames) as f64;
    out.layers.set(
        "decompose.tiles_rematched",
        crate::stats::ratio((d1.tiles_rematched - d0.tiles_rematched) as f64, frames),
    );
    drop(server);

    let mut replay_spans = Tracer::new(Instant::now());
    let counts = replay(&model, &inputs, &mut replay_spans, &mut out.tally)?;
    live::replay_layers(&replay_spans, counts, &mut out.layers);
    out.traces = vec![("live".into(), spans), ("replay".into(), replay_spans)];
    Ok(out)
}
