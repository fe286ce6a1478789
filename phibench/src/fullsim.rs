//! `fullsim`: offline batches of a fixed size through
//! `BatchExecutor::new(model).execute_with(batch, MetricsMode::FullSim)`
//! in a closed loop from one thread: every network layer decomposed and
//! run through the cycle simulator, the server bypassed.

use crate::inputs::{
    fullsim_inputs, matches, same_bits, FullsimInputs, SimExpected, FULLSIM_BATCH, SERVE_ROWS,
};
use crate::live::{self, ReplayCounts};
use crate::report::{Metrics, Tally};
use crate::setup::{self, SetupTimes};
use crate::stats::{ratio, samples_beyond, windowed};
use crate::trace::Tracer;
use crate::{BenchResult, Outcome, RunConfig};
use phi_core::{decompose_cached, TileCache};
use phi_runtime::{
    BatchExecutor, BatchReport, CompiledModel, ExecutionBackend, LayerWork, MetricsMode,
    ReadoutPlan, SimBackend, DEFAULT_TILE_CACHE_CAPACITY,
};
use snn_core::SpikeMatrix;
use snn_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every readout, cycle count and energy of `report` bit-for-bit equal
/// to the reference simulation; one tally entry per inference.
fn check(report: &BatchReport, expected: &SimExpected, tally: &mut Tally) {
    for (i, result) in report.requests.iter().enumerate() {
        tally.record(
            matches(result.readout.as_ref(), &expected.readouts[i])
                && result.cycles.to_bits() == expected.cycles[i].to_bits()
                && result.energy_j.to_bits() == expected.energy_j[i].to_bits(),
        );
    }
    if report.requests.len() != expected.readouts.len() {
        tally.record(false);
    }
}

/// One timed set-up: compile, artifact round trip, executor creation,
/// then every pool batch executed once to warm the tile caches.
fn start_executor(
    workload: &Workload,
    reference: &[u8],
    inputs: &FullsimInputs,
) -> BenchResult<(BatchExecutor, SetupTimes)> {
    let (model, start, mut times) = setup::compile_and_load(workload, reference)?;
    let executor = BatchExecutor::new(model);
    let mut tally = Tally::default();
    for (batch, expected) in inputs.batches.iter().zip(&inputs.expected) {
        let report = executor
            .execute_with(batch, MetricsMode::FullSim)
            .map_err(|e| format!("warm-up batch: {e}"))?;
        check(&report, expected, &mut tally);
    }
    times.total_s = start.elapsed().as_secs_f64();
    if tally.failed > 0 {
        return Err(format!("{} warm-up inferences were wrong", tally.failed));
    }
    Ok((executor, times))
}

/// One closed-loop phase: per call, its completion time (s since the
/// start) and latency (µs); the tally and the elapsed time.
struct Loop {
    samples: Vec<(f32, f32)>,
    tally: Tally,
    elapsed_s: f64,
}

fn closed_loop(
    executor: &BatchExecutor,
    inputs: &FullsimInputs,
    span: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Loop {
    let mut out =
        Loop { samples: Vec::with_capacity(1 << 20), tally: Tally::default(), elapsed_s: 0.0 };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < span {
        let b = i % inputs.batches.len();
        let t0 = Instant::now();
        let report = executor.execute_with(&inputs.batches[b], MetricsMode::FullSim);
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("executor.execute", i as u64, None, t0, t1);
        }
        match report {
            Ok(report) => {
                out.samples.push(((t1 - start).as_secs_f32(), live::us(t1 - t0) as f32));
                check(&report, &inputs.expected[b], &mut out.tally);
            }
            Err(_) => out.tally.record(false),
        }
        i += 1;
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Windowed medians; throughput counts inferences, latency batch calls.
fn e2e(run: &Loop) -> Metrics {
    let w = windowed(&run.samples, run.elapsed_s);
    let mut m = Metrics::default();
    m.set("throughput_rps", w.throughput * FULLSIM_BATCH as f64);
    m.set("latency_p50_ms", w.p50 / 1e3);
    m.set("latency_p99_ms", w.p99 / 1e3);
    m.set("success_rate", run.tally.success_rate());
    m
}

fn summary(run: &Loop, phase: &str) -> String {
    format!(
        "{phase}: sent {} inferences in {} batch calls, succeeded {} failed {} in {:.2} s \
         ({} calls beyond p99)",
        run.tally.attempted,
        run.samples.len(),
        run.tally.attempted - run.tally.failed,
        run.tally.failed,
        run.elapsed_s,
        samples_beyond(run.samples.len(), 99.0),
    )
}

/// Replays every pool batch layer by layer through the calls the
/// executor makes — vstack, cached decomposition, simulator layer run,
/// readout split — next to a real executor call on the same batch. The
/// replayed cycles, energy and readouts must equal the reference. A
/// first pass warms the caches untraced.
fn replay(
    model: &Arc<CompiledModel>,
    inputs: &FullsimInputs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> BenchResult<ReplayCounts> {
    let layers = model.layers();
    let last = layers.len() - 1;
    let executor = BatchExecutor::new(Arc::clone(model));
    let backend = SimBackend::default();
    let caches: Vec<TileCache> =
        layers.iter().map(|_| TileCache::new(DEFAULT_TILE_CACHE_CAPACITY)).collect();
    let mut counts = ReplayCounts { out_cols: layers[last].shape.n, ..ReplayCounts::default() };
    let mut warm = Tracer::new(Instant::now());
    for pass in 0..2 {
        let traced = pass == 1;
        let tracer: &mut Tracer = if traced { &mut *tracer } else { &mut warm };
        for (b, (batch, expected)) in inputs.batches.iter().zip(&inputs.expected).enumerate() {
            let id = b as u64;
            let direct = tracer.time("executor.execute", id, None, || {
                executor.execute_with(batch, MetricsMode::FullSim)
            });
            check(&direct.map_err(|e| format!("executor: {e}"))?, expected, tally);
            let root = tracer.open("executor.replay", id, None);
            let (mut cycles, mut energy_j) = (0.0f64, 0.0f64);
            let mut readout = None;
            for (l, layer) in layers.iter().enumerate() {
                let mats: Vec<&SpikeMatrix> = batch.iter().map(|r| &r.layers[l]).collect();
                let stacked =
                    tracer.time("executor.vstack", id, Some(root), || SpikeMatrix::vstack(&mats));
                let stacked = stacked.map_err(|e| format!("vstack: {e}"))?;
                let decomp =
                    tracer.time(format!("decompose.{}", layer.name), id, Some(root), || {
                        decompose_cached(&stacked, &layer.patterns, &layer.match_index, &caches[l])
                    });
                let plan = match (&layer.pwp, &layer.weights) {
                    (Some(pwp), Some(weights)) if l == last => Some(ReadoutPlan { pwp, weights }),
                    _ => None,
                };
                let work = LayerWork {
                    decomp: &decomp,
                    shape: layer.shape,
                    row_scale: layer.total_rows() as f64 / SERVE_ROWS as f64,
                    name: &layer.name,
                    readout: plan,
                };
                let output = tracer.time(format!("sim.{}", layer.name), id, Some(root), || {
                    backend.run_layer(&work, MetricsMode::FullSim)
                });
                let report = output.report.ok_or("the simulator returned no report")?;
                cycles += report.cycles;
                energy_j += report.energy.total_j();
                if traced {
                    counts.rows += decomp.rows() as u64;
                    if l == last {
                        counts.term_refs += decomp.assigned_tiles() + decomp.l2_nnz();
                    }
                }
                if output.readout.is_some() {
                    readout = output.readout;
                }
            }
            let readout = readout.ok_or("the readout layer produced no output")?;
            let split = tracer.time("executor.split", id, Some(root), || {
                (0..batch.len())
                    .map(|k| readout.row_range(k * SERVE_ROWS, (k + 1) * SERVE_ROWS))
                    .collect::<Vec<_>>()
            });
            tracer.close(root);
            tally.record(
                cycles.to_bits() == expected.total_cycles.to_bits()
                    && energy_j.to_bits() == expected.total_energy_j.to_bits(),
            );
            for (replayed, want) in split.iter().zip(&expected.readouts) {
                tally.record(same_bits(replayed, want));
            }
            if traced {
                counts.inferences += batch.len() as u64;
            }
        }
    }
    Ok(counts)
}

pub fn run(config: &RunConfig, workload: &Workload) -> BenchResult<Outcome> {
    let (model, reference) = setup::reference_model(workload);
    let inputs = fullsim_inputs(workload, &model, config.seed)?;
    let (executor, setups) = setup::repeat(|| start_executor(workload, &reference, &inputs))?;
    let mut out = Outcome::default();
    setup::record(&setups, &mut out.e2e, &mut out.layers);

    let span = if config.trace { config.measure / 2 } else { config.measure };
    let plain = closed_loop(&executor, &inputs, span, None);
    out.log.push(summary(&plain, "fullsim"));
    out.tally.add(plain.tally);
    let plain_e2e = e2e(&plain);
    if !config.trace {
        out.merge_e2e(&plain_e2e);
        return Ok(out);
    }

    let mut spans = Tracer::new(Instant::now());
    let before = executor.tile_cache_stats();
    let traced = closed_loop(&executor, &inputs, span, Some(&mut spans));
    let after = executor.tile_cache_stats();
    out.log.push(summary(&traced, "fullsim (traced)"));
    out.tally.add(traced.tally);
    out.record_traced(&plain_e2e, &e2e(&traced));
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.layers.set("decompose.tile_cache_hit_rate", ratio(hits as f64, (hits + misses) as f64));
    out.layers.set("decompose.cache_misses", misses as f64);
    out.layers.set("pwp.reuse_rate", executor.reuse_stats().reuse_rate());
    let inferences = (inputs.batches.len() * FULLSIM_BATCH) as f64;
    let cycles: f64 = inputs.expected.iter().map(|e| e.total_cycles).sum();
    let energy_j: f64 = inputs.expected.iter().map(|e| e.total_energy_j).sum();
    out.layers.set("sim.cycles_per_inf", cycles / inferences);
    out.layers.set("sim.energy_uj_per_inf", energy_j * 1e6 / inferences);

    let mut replay_spans = Tracer::new(Instant::now());
    let counts = replay(&model, &inputs, &mut replay_spans, &mut out.tally)?;
    live::replay_layers(&replay_spans, counts, &mut out.layers);
    out.traces = vec![("live".into(), spans), ("replay".into(), replay_spans)];
    Ok(out)
}
