//! Serving benchmark: the compiled-artifact batched runtime — on both
//! execution backends — against the status-quo single-request path,
//! written to `BENCH_serving.json` at the repository root.
//!
//! Three engines serve the same 64 requests drawn from the VGG-16 /
//! CIFAR-10 serving distribution (4 subsampled rows per layer per request
//! — one inference trace at T = 4, extrapolated to full scale inside the
//! simulator):
//!
//! * **single-request (recalibrate)** — what the repo did before the
//!   runtime existed: every request re-derives patterns
//!   (calibrate → decompose → simulate per input). This is the paper's
//!   offline work incorrectly paid online, and the baseline the compiled
//!   artifact amortizes away.
//! * **batched, sim backend** — compile once, then serve through
//!   [`phi_runtime::BatchExecutor`] over the default
//!   [`phi_runtime::SimBackend`] at batch sizes 1 / 8 / 64: full
//!   cycle-accurate accounting per batch.
//! * **batched, CPU backend** — the same executor over
//!   [`phi_runtime::CpuBackend`]: outputs only through the
//!   rayon-parallel PWP matmul, no simulator bookkeeping on the hot path.
//!
//! Alongside wall-clock throughput the run reports simulated p50/p99
//! latency and energy per inference from the sim-backend batch-64 report,
//! verifies the artifact's byte-identical serialization roundtrip, asserts
//! that sim-backend batched readouts equal the sequential single-input
//! path exactly, asserts the CPU backend's readouts are bit-identical
//! to the sim path, and asserts a tile-cache-disabled executor
//! (`PHI_TILE_CACHE=0` equivalent) serves the same bits as the cached
//! one — alongside the cached executor's hit/miss/eviction counters.
//!
//! Run with `cargo run --release -p phi_bench --bin bench_serving`.
//! Environment knobs:
//!
//! * `PHI_BENCH_RUNS` — repetition count (default 5; median reported).
//! * `PHI_SERVING_TRACKS=all|cpu` — `cpu` is the CPU-backend smoke
//!   (default `all`, the full run): skip the recalibrating
//!   baseline and the sim-backend throughput sweep (the sim path still
//!   runs once as the bit-identity anchor) and do not rewrite
//!   `BENCH_serving.json`.
//! * `PHI_SERVING_MIN_SPEEDUP` — floor for batched-vs-recalibrate
//!   (default 4; 0 disables).
//! * `PHI_SERVING_MIN_CPU_SPEEDUP` — floor for CPU-vs-sim backend at
//!   batch 64 (default 2; 0 disables).

use phi_bench::{bench_runs, env_f64, median};
use phi_runtime::{
    readouts_identical, BatchExecutor, CompileOptions, CompiledModel, InferenceRequest,
    ModelCompiler,
};
use snn_core::env::read_env;
use snn_workloads::{DatasetId, ModelId, WorkloadConfig};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per layer per request: one inference trace at T = 4 timesteps.
const ROWS_PER_REQUEST: usize = 4;
/// Requests served per measurement.
const REQUESTS: usize = 64;
/// Requests used to time the (slow) recalibrating baseline.
const BASELINE_REQUESTS: usize = 8;
/// Batch sizes swept per backend.
const BATCH_SIZES: [usize; 3] = [1, 8, 64];

fn time_runs(runs: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    median(
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect(),
    )
}

/// Times one executor over the batch-size sweep, returning inf/s per size.
fn sweep<B: phi_runtime::ExecutionBackend>(
    label: &str,
    executor: &BatchExecutor<B>,
    requests: &[InferenceRequest],
    runs: usize,
) -> Vec<(usize, f64)> {
    BATCH_SIZES
        .iter()
        .map(|&batch_size| {
            let elapsed = time_runs(runs, || {
                for chunk in requests.chunks(batch_size) {
                    std::hint::black_box(executor.execute(chunk).expect("batch serves"));
                }
            });
            let inf_s = REQUESTS as f64 / elapsed.as_secs_f64();
            println!("  {label} batch {batch_size:>2}: {inf_s:.1} inf/s");
            (batch_size, inf_s)
        })
        .collect()
}

/// Which tracks a run measures (`PHI_SERVING_TRACKS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tracks {
    /// Every track, and `BENCH_serving.json` is rewritten.
    All,
    /// The CPU-backend smoke.
    Cpu,
}

impl FromStr for Tracks {
    type Err = ();

    fn from_str(raw: &str) -> Result<Self, ()> {
        match raw {
            "all" => Ok(Tracks::All),
            "cpu" => Ok(Tracks::Cpu),
            _ => Err(()),
        }
    }
}

fn main() {
    let runs = bench_runs();
    let cpu_only = read_env("PHI_SERVING_TRACKS", Tracks::All) == Tracks::Cpu;
    println!("generating VGG-16 / CIFAR-10 workload...");
    let workload = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let compiler = ModelCompiler::new(CompileOptions::default());

    // Offline stage: compile once, measure it, and verify the artifact's
    // serialization roundtrip is byte-identical.
    println!("compiling model artifact ({runs} runs)...");
    let compile_time = time_runs(runs, || {
        std::hint::black_box(compiler.compile(&workload));
    });
    let artifact = compiler.compile(&workload);
    let bytes = artifact.to_bytes();
    let reloaded = CompiledModel::from_bytes(&bytes).expect("own artifact must load");
    let roundtrip_identical = reloaded.to_bytes() == bytes;
    println!(
        "  compile: {compile_time:?}, artifact {} bytes ({} patterns), roundtrip byte-identical: {roundtrip_identical}",
        bytes.len(),
        artifact.total_patterns(),
    );
    assert!(roundtrip_identical, "artifact roundtrip must be byte-identical");

    let requests: Vec<InferenceRequest> = workload
        .sample_requests(REQUESTS, ROWS_PER_REQUEST, 0xBA7C4)
        .into_iter()
        .map(InferenceRequest::new)
        .collect();
    let model = Arc::new(reloaded);
    let sim_executor = BatchExecutor::new(Arc::clone(&model));
    let cpu_executor = BatchExecutor::cpu(Arc::clone(&model));

    // The sim-path reference report (batch 64, full simulation): the
    // bit-identity anchor for the CPU track and the source of the
    // simulated serving metrics.
    let sim_report = sim_executor.execute(&requests).expect("sim batch serves");

    // Status-quo baseline: every request re-derives patterns, exactly the
    // calibrate → decompose → simulate walk the repo performed per run
    // before the compiled artifact existed.
    let single_inf_s = (!cpu_only).then(|| {
        println!(
            "timing single-request path (recalibrate per request, {BASELINE_REQUESTS} requests)..."
        );
        let baseline_total = time_runs(runs, || {
            for request in &requests[..BASELINE_REQUESTS] {
                let one_shot = BatchExecutor::new(Arc::new(compiler.compile(&workload)));
                std::hint::black_box(one_shot.execute_one(request).expect("baseline serves"));
            }
        });
        let inf_s = BASELINE_REQUESTS as f64 / baseline_total.as_secs_f64();
        println!("  {inf_s:.1} inf/s ({:.3} ms/inf)", 1e3 / inf_s);
        inf_s
    });

    // The two backend tracks over the same requests and artifact.
    let sim_track = (!cpu_only).then(|| sweep("sim", &sim_executor, &requests, runs));
    let cpu_track = sweep("cpu", &cpu_executor, &requests, runs);
    let cpu64_inf_s = cpu_track.last().expect("three batch sizes").1;

    // Cross-backend exactness: the CPU backend's readouts must equal the
    // full simulation path bit for bit.
    let cpu_report = cpu_executor.execute(&requests).expect("cpu batch serves");
    let cpu_matches_sim = readouts_identical(&cpu_report, &sim_report);
    println!("cpu-backend outputs == sim-backend outputs: {cpu_matches_sim}");
    assert!(cpu_matches_sim, "CPU backend readouts must equal the sim path bit-for-bit");

    // Tile-cache exactness: an executor with decomposition caching
    // disabled must serve the same bits as the (cache-warm, after the
    // sweeps above) default executor.
    let uncached_executor = BatchExecutor::cpu(Arc::clone(&model)).with_tile_cache_capacity(0);
    let uncached_report = uncached_executor.execute(&requests).expect("uncached batch serves");
    let cached_matches_uncached = readouts_identical(&cpu_report, &uncached_report);
    let cache_stats = cpu_executor.tile_cache_stats();
    println!(
        "cached outputs == uncached outputs: {cached_matches_uncached} (hit rate {:.4}, {} \
         entries, {} evictions)",
        cache_stats.hit_rate(),
        cache_stats.entries,
        cache_stats.evictions
    );
    assert!(
        cached_matches_uncached,
        "tile-cached readouts must equal the cache-disabled path bit-for-bit"
    );

    if cpu_only {
        println!("PHI_SERVING_TRACKS=cpu: smoke complete, BENCH_serving.json left untouched");
        return;
    }
    let single_inf_s = single_inf_s.expect("baseline timed");
    let sim_track = sim_track.expect("sim track timed");

    let sim64_inf_s = sim_track.last().expect("three batch sizes").1;
    let speedup_vs_single = sim64_inf_s / single_inf_s;
    println!("sim-backend batched (64) vs single-request: {speedup_vs_single:.1}x");
    let speedup_cpu_vs_sim = cpu64_inf_s / sim64_inf_s;
    println!("cpu backend vs sim backend at batch 64: {speedup_cpu_vs_sim:.1}x");

    // Simulated serving metrics from the sim-backend batch-64 report.
    let p50 = sim_report.p50_cycles();
    let p99 = sim_report.p99_cycles();
    let energy_mj = sim_report.energy_per_inference_j() * 1e3;
    println!(
        "simulated per-inference: p50 {p50:.0} cycles, p99 {p99:.0} cycles, {energy_mj:.3} mJ"
    );

    // Exactness: batched readouts equal the sequential single-input path
    // bit for bit (the shared runtime helper).
    let exact =
        sim_executor.readouts_match_sequential(&requests, &sim_report).expect("sequential serves");
    println!("batch outputs == sequential single-input outputs: {exact}");

    let json = format!(
        r#"{{
  "workload": "vgg16-cifar10",
  "config": {{
    "k": {artifact_k},
    "q": {artifact_q},
    "layers": {layers},
    "requests": {REQUESTS},
    "rows_per_request": {ROWS_PER_REQUEST},
    "baseline_requests": {BASELINE_REQUESTS}
  }},
  "runs": {runs},
  "threads": {threads},
  "compile_ms": {compile_ms:.3},
  "artifact_bytes": {artifact_bytes},
  "artifact_roundtrip_byte_identical": {roundtrip_identical},
  "single_request_recalibrate": {{ "inf_per_s": {single_inf_s:.3} }},
  "batched_compiled": {{
    "batch_1_inf_per_s": {s1:.3},
    "batch_8_inf_per_s": {s8:.3},
    "batch_64_inf_per_s": {s64:.3}
  }},
  "cpu_backend": {{
    "batch_1_inf_per_s": {c1:.3},
    "batch_8_inf_per_s": {c8:.3},
    "batch_64_inf_per_s": {c64:.3}
  }},
  "speedup_batch64_vs_single_request": {speedup_vs_single:.3},
  "speedup_cpu_vs_sim_batch64": {speedup_cpu_vs_sim:.3},
  "tile_cache": {{
    "capacity": {cache_capacity},
    "hits": {cache_hits},
    "misses": {cache_misses},
    "evictions": {cache_evictions},
    "hit_rate": {cache_hit_rate:.6}
  }},
  "cached_outputs_match_uncached": {cached_matches_uncached},
  "simulated_per_inference": {{
    "p50_cycles": {p50:.1},
    "p99_cycles": {p99:.1},
    "energy_mj": {energy_mj:.6}
  }},
  "batch_outputs_match_sequential": {exact},
  "cpu_outputs_match_sim_backend": {cpu_matches_sim}
}}
"#,
        artifact_k = artifact.k(),
        artifact_q = artifact.q(),
        cache_capacity = cache_stats.capacity,
        cache_hits = cache_stats.hits,
        cache_misses = cache_stats.misses,
        cache_evictions = cache_stats.evictions,
        cache_hit_rate = cache_stats.hit_rate(),
        layers = workload.layers.len(),
        threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        compile_ms = compile_time.as_secs_f64() * 1e3,
        artifact_bytes = bytes.len(),
        s1 = sim_track[0].1,
        s8 = sim_track[1].1,
        s64 = sim64_inf_s,
        c1 = cpu_track[0].1,
        c8 = cpu_track[1].1,
        c64 = cpu64_inf_s,
    );
    // Assert before persisting, so a failed acceptance run can never
    // overwrite the checked-in numbers with its own.
    assert!(exact, "batched outputs must equal the sequential single-input path exactly");
    // Wall-clock ratios on shared machines are noisy; CI smoke runs lower
    // the bars via the env knobs (0 disables) while local/acceptance runs
    // keep the 4x / 2x floors.
    let min_speedup = env_f64("PHI_SERVING_MIN_SPEEDUP", 4.0);
    assert!(
        speedup_vs_single >= min_speedup,
        "batched throughput (batch 64: {sim64_inf_s:.1} inf/s) must be at least \
         {min_speedup}x the single-request path ({single_inf_s:.1} inf/s), got \
         {speedup_vs_single:.2}x"
    );
    let min_cpu_speedup = env_f64("PHI_SERVING_MIN_CPU_SPEEDUP", 2.0);
    assert!(
        speedup_cpu_vs_sim >= min_cpu_speedup,
        "CPU backend (batch 64: {cpu64_inf_s:.1} inf/s) must be at least {min_cpu_speedup}x \
         the sim backend ({sim64_inf_s:.1} inf/s), got {speedup_cpu_vs_sim:.2}x"
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json");
    std::fs::write(&path, json).expect("write BENCH_serving.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::env::parse_env;

    #[test]
    fn tracks_parse_all_or_cpu() {
        assert_eq!(parse_env("PHI_SERVING_TRACKS", None, Tracks::All), Tracks::All);
        assert_eq!(parse_env("PHI_SERVING_TRACKS", Some("all"), Tracks::All), Tracks::All);
        assert_eq!(parse_env("PHI_SERVING_TRACKS", Some("cpu"), Tracks::All), Tracks::Cpu);
    }

    #[test]
    #[should_panic(expected = "PHI_SERVING_TRACKS=\"CPU\" does not parse")]
    fn upper_case_tracks_are_refused() {
        parse_env("PHI_SERVING_TRACKS", Some("CPU"), Tracks::All);
    }
}
