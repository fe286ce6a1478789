//! Seeded inputs and their expected outputs.
//!
//! Every input is drawn by `Workload::sample_client_requests` from the
//! benchmark's `--seed`; the model itself (VGG-16 on CIFAR-10, the
//! workload generator's default configuration) is the same in every run.
//! Expected outputs come from direct, uncached `BatchExecutor` execution
//! before anything is timed.

use crate::BenchResult;
use phi_runtime::{BatchExecutor, CompiledModel, InferenceRequest, MetricsMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::{Matrix, SpikeMatrix};
use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};
use std::sync::Arc;

/// Rows per stateless request (one inference trace at T = 4).
pub const SERVE_ROWS: usize = 4;
/// Distinct stateless requests the serve phases cycle through.
pub const SERVE_POOL: usize = 1024;
/// Streaming sessions, rows per frame, and per-row resampling rate.
pub const STREAM_SESSIONS: usize = 8;
pub const STREAM_ROWS: usize = 64;
pub const STREAM_DELTA: f64 = 0.1;
/// Distinct frames per session; the stream plays them forward and back
/// so every step, the turnarounds included, is one δ-resampling.
pub const STREAM_FRAMES: usize = 24;
/// Fresh frames per session that resampled rows are drawn from.
const STREAM_FRESH: usize = 4;
/// Requests per fullsim batch, and distinct batches the loop cycles.
pub const FULLSIM_BATCH: usize = 32;
pub const FULLSIM_POOL: usize = 8;

/// The served model's workload definition (fixed, not seeded per run).
pub fn model_workload() -> Workload {
    WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate()
}

/// Client ids keep each workload's draws disjoint.
const SERVE_CLIENT: u64 = 0;
const STREAM_CLIENT: u64 = 1;
const FULLSIM_CLIENT: u64 = 1 << 20;

fn requests(
    workload: &Workload,
    client: u64,
    count: usize,
    rows: usize,
    seed: u64,
) -> Vec<InferenceRequest> {
    workload
        .sample_client_requests(client, count, rows, seed)
        .into_iter()
        .map(InferenceRequest::new)
        .collect()
}

/// Bit-for-bit equality of two readouts (shape and every f32's bits).
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// [`same_bits`] against an optional served readout.
pub fn matches(served: Option<&Matrix>, expected: &Matrix) -> bool {
    served.is_some_and(|m| same_bits(m, expected))
}

/// Direct uncached CPU readouts, one per request.
pub fn expected_readouts(
    model: &Arc<CompiledModel>,
    requests: &[InferenceRequest],
) -> BenchResult<Vec<Matrix>> {
    let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
    requests
        .iter()
        .map(|r| {
            let result = direct.execute_one(r).map_err(|e| format!("reference execution: {e}"))?;
            result.readout.ok_or_else(|| "the model carries no readout weights".to_string())
        })
        .collect()
}

/// The serve pool: [`SERVE_POOL`] stateless 4-row requests.
pub struct ServeInputs {
    pub requests: Vec<InferenceRequest>,
    pub expected: Vec<Matrix>,
}

pub fn serve_inputs(
    workload: &Workload,
    model: &Arc<CompiledModel>,
    seed: u64,
) -> BenchResult<ServeInputs> {
    let requests = requests(workload, SERVE_CLIENT, SERVE_POOL, SERVE_ROWS, seed);
    let expected = expected_readouts(model, &requests)?;
    Ok(ServeInputs { requests, expected })
}

/// Per session, [`STREAM_FRAMES`] temporally correlated frames: frame
/// `t + 1` is frame `t` with each row (across every layer) resampled with
/// probability [`STREAM_DELTA`].
pub struct StreamInputs {
    pub frames: Vec<Vec<InferenceRequest>>,
    pub expected: Vec<Vec<Matrix>>,
}

/// Which stored frame step `n` of a session plays: forward through the
/// frames, then back, so consecutive steps always differ by one
/// resampling.
pub fn stream_position(step: usize) -> usize {
    let period = 2 * STREAM_FRAMES - 2;
    let pos = step % period;
    if pos < STREAM_FRAMES {
        pos
    } else {
        period - pos
    }
}

fn copy_row(dst: &mut SpikeMatrix, src: &SpikeMatrix, row: usize) {
    for start in (0..dst.cols()).step_by(64) {
        let len = 64.min(dst.cols() - start);
        dst.set_tile(row, start, len, src.tile(row, start, len));
    }
}

pub fn stream_inputs(
    workload: &Workload,
    model: &Arc<CompiledModel>,
    seed: u64,
) -> BenchResult<StreamInputs> {
    let mut frames = Vec::with_capacity(STREAM_SESSIONS);
    let mut expected = Vec::with_capacity(STREAM_SESSIONS);
    for s in 0..STREAM_SESSIONS as u64 {
        let client = STREAM_CLIENT + 2 * s;
        let first = requests(workload, client, 1, STREAM_ROWS, seed).remove(0);
        let fresh = requests(workload, client + 1, STREAM_FRESH, STREAM_ROWS, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ (s + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut session = vec![first];
        while session.len() < STREAM_FRAMES {
            let mut next = session.last().expect("seeded with one frame").clone();
            for row in 0..STREAM_ROWS {
                if rng.gen_bool(STREAM_DELTA) {
                    let source = &fresh[rng.gen_range(0..STREAM_FRESH)];
                    for (dst, src) in next.layers.iter_mut().zip(&source.layers) {
                        copy_row(dst, src, row);
                    }
                }
            }
            session.push(next);
        }
        expected.push(expected_readouts(model, &session)?);
        frames.push(session);
    }
    Ok(StreamInputs { frames, expected })
}

/// Exact simulator outputs of one fullsim batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SimExpected {
    pub readouts: Vec<Matrix>,
    /// Per-request attributed cycles and energy (J).
    pub cycles: Vec<f64>,
    pub energy_j: Vec<f64>,
    /// Batch totals over every layer report.
    pub total_cycles: f64,
    pub total_energy_j: f64,
}

pub struct FullsimInputs {
    pub batches: Vec<Vec<InferenceRequest>>,
    pub expected: Vec<SimExpected>,
}

pub fn fullsim_inputs(
    workload: &Workload,
    model: &Arc<CompiledModel>,
    seed: u64,
) -> BenchResult<FullsimInputs> {
    let all = requests(workload, FULLSIM_CLIENT, FULLSIM_POOL * FULLSIM_BATCH, SERVE_ROWS, seed);
    let readouts = expected_readouts(model, &all)?;
    let sim = BatchExecutor::new(Arc::clone(model)).with_tile_cache_capacity(0);
    let mut batches = Vec::with_capacity(FULLSIM_POOL);
    let mut expected = Vec::with_capacity(FULLSIM_POOL);
    for (batch, cpu) in all.chunks(FULLSIM_BATCH).zip(readouts.chunks(FULLSIM_BATCH)) {
        let report = sim
            .execute_with(batch, MetricsMode::FullSim)
            .map_err(|e| format!("reference simulation: {e}"))?;
        // The simulator's readouts must agree with the CPU reference
        // before either is trusted as the expected output.
        let agree = report.requests.iter().zip(cpu).all(|(r, e)| matches(r.readout.as_ref(), e));
        if !agree {
            return Err("simulator and CPU reference readouts differ".to_string());
        }
        expected.push(SimExpected {
            readouts: cpu.to_vec(),
            cycles: report.requests.iter().map(|r| r.cycles).collect(),
            energy_j: report.requests.iter().map(|r| r.energy_j).collect(),
            total_cycles: report.total_cycles(),
            total_energy_j: report.total_energy_j(),
        });
        batches.push(batch.to_vec());
    }
    Ok(FullsimInputs { batches, expected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_runtime::{CompileOptions, ModelCompiler};

    fn small_workload() -> Workload {
        let mut w = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10)
            .with_max_rows(32)
            .with_calibration_rows(64)
            .generate();
        w.layers.drain(1..w.layers.len() - 2);
        w
    }

    #[test]
    fn a_fixed_seed_reproduces_the_same_inputs() {
        let w = small_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let a = stream_inputs(&w, &model, 7).unwrap();
        let b = stream_inputs(&w, &model, 7).unwrap();
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.expected, b.expected);
        let c = stream_inputs(&w, &model, 8).unwrap();
        assert_ne!(a.frames, c.frames);
        let s1 = serve_inputs(&w, &model, 7).unwrap();
        let s2 = serve_inputs(&w, &model, 7).unwrap();
        assert_eq!(s1.requests, s2.requests);
    }

    #[test]
    fn stream_frames_change_about_delta_of_their_rows_per_step() {
        let w = small_workload();
        let model = Arc::new(ModelCompiler::new(CompileOptions::fast()).compile(&w));
        let inputs = stream_inputs(&w, &model, 3).unwrap();
        let (mut changed, mut total) = (0usize, 0usize);
        for session in &inputs.frames {
            for pair in session.windows(2) {
                for row in 0..STREAM_ROWS {
                    total += 1;
                    let differs = pair[0]
                        .layers
                        .iter()
                        .zip(&pair[1].layers)
                        .any(|(a, b)| a.row_words(row) != b.row_words(row));
                    changed += usize::from(differs);
                }
            }
        }
        let rate = changed as f64 / total as f64;
        assert!((0.05..0.15).contains(&rate), "changed-row rate {rate}");
    }

    #[test]
    fn the_stream_plays_forward_then_back() {
        let played: Vec<usize> = (0..2 * STREAM_FRAMES).map(stream_position).collect();
        assert_eq!(&played[..3], &[0, 1, 2]);
        assert_eq!(played[STREAM_FRAMES - 1], STREAM_FRAMES - 1);
        assert_eq!(played[STREAM_FRAMES], STREAM_FRAMES - 2);
        assert_eq!(played[2 * STREAM_FRAMES - 2], 0);
        assert!(played.windows(2).all(|w| w[0].abs_diff(w[1]) == 1));
    }
}
