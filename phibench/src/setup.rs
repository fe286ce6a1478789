//! The program's set-up, timed: compile, artifact round trip, then the
//! workload's own server start or executor creation and warm-up.

use crate::report::Metrics;
use crate::stats::median;
use crate::BenchResult;
use phi_runtime::{CompileOptions, CompiledModel, ModelCompiler};
use snn_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; the reported set-up time is their median.
pub const SETUPS: usize = 9;

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub compile_s: f64,
    pub artifact_s: f64,
    pub total_s: f64,
    pub artifact_bytes: usize,
}

/// The compiled model every run serves, compiled once before anything is
/// timed (expected outputs are computed against it), and its artifact.
pub fn reference_model(workload: &Workload) -> (Arc<CompiledModel>, Vec<u8>) {
    let model = ModelCompiler::new(CompileOptions::default()).compile(workload);
    let bytes = model.to_bytes();
    (Arc::new(model), bytes)
}

/// Compiles the model and round-trips its artifact through
/// `to_bytes`/`from_bytes`, checking the bytes match the reference
/// artifact. Returns the loaded model, the start instant and the partial
/// timings; the caller finishes `total_s`.
pub fn compile_and_load(
    workload: &Workload,
    reference: &[u8],
) -> BenchResult<(Arc<CompiledModel>, Instant, SetupTimes)> {
    let start = Instant::now();
    let compiled = ModelCompiler::new(CompileOptions::default()).compile(workload);
    let compiled_at = Instant::now();
    let bytes = compiled.to_bytes();
    let loaded = CompiledModel::from_bytes(&bytes).map_err(|e| format!("artifact load: {e}"))?;
    let loaded_at = Instant::now();
    if bytes != reference {
        return Err("the compiled artifact differs from the reference compile".into());
    }
    let times = SetupTimes {
        compile_s: (compiled_at - start).as_secs_f64(),
        artifact_s: (loaded_at - compiled_at).as_secs_f64(),
        total_s: 0.0,
        artifact_bytes: bytes.len(),
    };
    Ok((Arc::new(loaded), start, times))
}

/// Runs `setup` [`SETUPS`] times, keeping the last instance.
pub fn repeat<T>(
    mut setup: impl FnMut() -> BenchResult<(T, SetupTimes)>,
) -> BenchResult<(T, Vec<SetupTimes>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous instance first, so its threads and caches are
        // gone before the next set-up is timed.
        drop(last.take());
        let (instance, t) = setup()?;
        times.push(t);
        last = Some(instance);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// `setup_s` and the compile-layer metrics, as medians over the set-ups.
pub fn record(times: &[SetupTimes], e2e: &mut Metrics, layers: &mut Metrics) {
    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    e2e.set("setup_s", pick(|t| t.total_s));
    layers.set("compile.compile_ms", pick(|t| t.compile_s) * 1e3);
    layers.set("compile.artifact_load_ms", pick(|t| t.artifact_s) * 1e3);
    layers.set("compile.artifact_bytes", pick(|t| t.artifact_bytes as f64));
}
