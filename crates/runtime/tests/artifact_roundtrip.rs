//! Property tests for the compiled-model artifact format.
//!
//! The acceptance properties of the serving PR:
//!
//! * compile → serialize → deserialize is **byte-identical** (and the
//!   deserialized model's patterns equal the compiled ones exactly);
//! * a deserialized artifact serves **identical batch outputs** to the
//!   model it was serialized from, and batched execution equals the
//!   sequential single-input path bit-for-bit;
//! * corrupted and truncated artifacts are rejected, never mis-served;
//! * artifacts mutated behind a re-stamped checksum never panic the
//!   loader, and the ones that load never panic serving.

use common::tiny_workload;
use phi_runtime::{
    BatchExecutor, CompileOptions, CompiledModel, InferenceRequest, MetricsMode, ModelCompiler,
    RuntimeError, StreamSession, WeightsMode,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

mod common;

/// Re-sealed mutants tried per damaged-artifact case.
const RESEALED_MUTANTS: usize = 8;

/// FNV-1a 64-bit, the artifact's trailing checksum over its body.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Mutates an artifact's body — 1–4 overwritten bytes, a truncation, or
/// both — and re-stamps the checksum, so only record validation stands
/// between the mutant and the executor.
fn resealed_mutant(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    let edits = rng.gen_range(0..5usize);
    for _ in 0..edits {
        let at = rng.gen_range(0..body.len());
        body[at] ^= rng.gen_range(1..=255u8);
    }
    if edits == 0 || rng.gen_bool(0.25) {
        body.truncate(rng.gen_range(0..body.len()));
    }
    let checksum = fnv1a(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Serves a loaded mutant every way a client can: a CPU batch, a
/// simulated batch of one, and two stream frames. Typed errors are fine;
/// only a panic fails the caller.
fn serve_mutant(model: CompiledModel, workload: &Workload, seed: u64) {
    let model = Arc::new(model);
    let batch: Vec<InferenceRequest> =
        workload.sample_requests(2, 3, seed).into_iter().map(InferenceRequest::new).collect();
    let _ = BatchExecutor::cpu(Arc::clone(&model)).execute(&batch);
    let _ = BatchExecutor::new(Arc::clone(&model)).execute_with(&batch[..1], MetricsMode::FullSim);
    let session = StreamSession::new(&model);
    let streaming = BatchExecutor::cpu(Arc::clone(&model));
    for frame in &batch {
        let _ = streaming.execute_stream_one(frame, &session);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compile → serialize → deserialize → serialize is byte-identical,
    /// and every pattern set survives exactly.
    #[test]
    fn artifact_roundtrip_is_byte_identical(
        layers in 1usize..4,
        q in 2usize..24,
        weights_all in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let workload = tiny_workload(layers, seed);
        let mode = if weights_all { WeightsMode::All } else { WeightsMode::Readout };
        let options = CompileOptions {
            calibration: phi_core::CalibrationConfig { q, max_rows: 256, ..Default::default() },
            seed: seed ^ 0xC0DE,
            weights: mode,
        };
        let compiled = ModelCompiler::new(options).compile(&workload);
        let bytes = compiled.to_bytes();
        let loaded = CompiledModel::from_bytes(&bytes).expect("own bytes must load");
        prop_assert_eq!(loaded.to_bytes(), bytes);
        prop_assert_eq!(loaded.layers().len(), compiled.layers().len());
        for (a, b) in loaded.layers().iter().zip(compiled.layers()) {
            prop_assert_eq!(&a.patterns, &b.patterns);
            prop_assert_eq!(&a.weights, &b.weights);
            prop_assert_eq!(a.shape, b.shape);
        }
    }

    /// A deserialized artifact serves the same batch outputs as the
    /// original, and the batched path equals the sequential path exactly.
    #[test]
    fn loaded_artifact_serves_identical_batches(
        layers in 1usize..3,
        batch in 1usize..6,
        seed in any::<u64>(),
    ) {
        let workload = tiny_workload(layers, seed);
        let options = CompileOptions {
            calibration: phi_core::CalibrationConfig { q: 8, max_rows: 256, ..Default::default() },
            seed: 3,
            weights: WeightsMode::Readout,
        };
        let compiled = ModelCompiler::new(options).compile(&workload);
        let loaded = CompiledModel::from_bytes(&compiled.to_bytes()).expect("roundtrip");
        let original = BatchExecutor::new(Arc::new(compiled));
        let reloaded = BatchExecutor::new(Arc::new(loaded));
        let requests: Vec<InferenceRequest> = workload
            .sample_requests(batch, 3, seed ^ 1)
            .into_iter()
            .map(InferenceRequest::new)
            .collect();
        let a = original.execute(&requests).expect("original serves");
        let b = reloaded.execute(&requests).expect("reloaded serves");
        prop_assert_eq!(a.total_cycles(), b.total_cycles());
        prop_assert_eq!(a.total_energy_j(), b.total_energy_j());
        for (ra, rb) in a.requests.iter().zip(&b.requests) {
            prop_assert_eq!(&ra.readout, &rb.readout);
            prop_assert!(ra.readout.is_some());
            prop_assert_eq!(ra.cycles, rb.cycles);
        }
        // Batched == sequential, bit for bit.
        for (request, batched) in requests.iter().zip(&a.requests) {
            let alone = original.execute_one(request).expect("single path serves");
            prop_assert_eq!(&batched.readout, &alone.readout);
        }
    }

    /// A version-1 (pre-match-index) artifact loads through the rebuild
    /// fallback, serves bit-identically to the v2 artifact, and
    /// re-serializes as a byte-identical v2 upgrade.
    #[test]
    fn version_1_artifacts_load_and_serve_identically(
        layers in 1usize..4,
        q in 2usize..24,
        seed in any::<u64>(),
    ) {
        let workload = tiny_workload(layers, seed);
        let options = CompileOptions {
            calibration: phi_core::CalibrationConfig { q, max_rows: 256, ..Default::default() },
            seed: seed ^ 0x01D,
            weights: WeightsMode::Readout,
        };
        let compiled = ModelCompiler::new(options).compile(&workload);
        let v1 = compiled.to_bytes_version(1).expect("v1 is still writable");
        let from_v1 = CompiledModel::from_bytes(&v1).expect("v1 artifact must load");
        // The rebuilt match index upgrades the artifact byte-identically.
        prop_assert_eq!(from_v1.to_bytes(), compiled.to_bytes());
        for (a, b) in from_v1.layers().iter().zip(compiled.layers()) {
            prop_assert_eq!(&a.match_index, &b.match_index);
        }
        // And it serves the same bits.
        let requests: Vec<InferenceRequest> = workload
            .sample_requests(3, 2, seed ^ 0x1D2)
            .into_iter()
            .map(InferenceRequest::new)
            .collect();
        let old = BatchExecutor::cpu(Arc::new(from_v1)).execute(&requests).expect("serves");
        let new = BatchExecutor::cpu(Arc::new(compiled)).execute(&requests).expect("serves");
        for (ra, rb) in old.requests.iter().zip(&new.requests) {
            prop_assert_eq!(&ra.readout, &rb.readout);
            prop_assert!(ra.readout.is_some());
        }
    }

    /// Any single corrupted byte or truncation is rejected; mutants that
    /// re-stamp the checksum never panic loading or serving.
    #[test]
    fn damaged_artifacts_never_load(
        flip_bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        let workload = tiny_workload(1, seed);
        let options = CompileOptions {
            calibration: phi_core::CalibrationConfig { q: 4, max_rows: 128, ..Default::default() },
            seed: 5,
            weights: WeightsMode::Readout,
        };
        let bytes = ModelCompiler::new(options).compile(&workload).to_bytes();
        // Corrupt one byte at a pseudo-random offset.
        let offset = (seed as usize) % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= 1 << flip_bit;
        prop_assert!(CompiledModel::from_bytes(&corrupted).is_err());
        // Truncate at a pseudo-random length.
        let cut = (seed as usize).wrapping_mul(31) % bytes.len();
        prop_assert!(CompiledModel::from_bytes(&bytes[..cut]).is_err());
        // Mutate behind a valid checksum.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EA1);
        for m in 0..RESEALED_MUTANTS {
            let mutant = resealed_mutant(&bytes, &mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Ok(model) = CompiledModel::from_bytes(&mutant) {
                    serve_mutant(model, &workload, seed ^ m as u64);
                }
            }));
            prop_assert!(outcome.is_ok(), "re-sealed mutant {} of seed {} panicked", m, seed);
        }
    }
}

#[test]
fn truncated_header_is_rejected_with_truncation_error() {
    let workload = tiny_workload(1, 0);
    let bytes = ModelCompiler::new(CompileOptions::fast()).compile(&workload).to_bytes();
    // Shorter than magic + version + checksum: structurally impossible.
    for len in 0..16.min(bytes.len()) {
        assert!(matches!(
            CompiledModel::from_bytes(&bytes[..len]),
            Err(RuntimeError::Wire(phi_core::wire::WireError::Truncated { .. }))
        ));
    }
}

#[test]
fn zero_layer_artifacts_are_rejected() {
    // Serializable, but unservable: a model without layers has no readout.
    let bytes = CompiledModel::new("empty".into(), 16, 8, 0, vec![]).to_bytes();
    assert_eq!(
        CompiledModel::from_bytes(&bytes).unwrap_err(),
        RuntimeError::Shape { op: "layer count", expected: 1, actual: 0 }
    );
}
