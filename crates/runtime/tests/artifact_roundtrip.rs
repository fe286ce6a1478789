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
//!   loader, and the ones that load never panic serving;
//! * arbitrary checksum-valid bodies at every version, supported or not,
//!   load or fail with a typed error, never a panic;
//! * the format-1 and format-2 fixtures (`tests/fixtures/`, written by
//!   the last build that could write them) load, serve, and re-serialize
//!   exactly like the same model built today.

use common::tiny_workload;
use phi_core::{LayerPatterns, Pattern, PatternSet};
use phi_runtime::{
    BatchExecutor, CompileOptions, CompiledLayer, CompiledModel, InferenceRequest, MetricsMode,
    ModelCompiler, RuntimeError, StreamSession, WeightsMode,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::{GemmShape, Matrix, SpikeMatrix};
use snn_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

mod common;

/// Re-sealed mutants tried per damaged-artifact case.
const RESEALED_MUTANTS: usize = 8;

/// The fixture model serialized in format version 1 (no match-index
/// records).
const FIXTURE_V1: &[u8] = include_bytes!("fixtures/tiny_v1.phic");

/// The same model in format version 2 (a match-index record after each
/// layer's patterns).
const FIXTURE_V2: &[u8] = include_bytes!("fixtures/tiny_v2.phic");

/// The model both fixtures hold: one 16 × 8 × 3 layer at k = 4 with two
/// hand-picked pattern sets and readout weights.
fn fixture_model() -> CompiledModel {
    let patterns = LayerPatterns::new(
        4,
        vec![
            PatternSet::new(4, vec![Pattern::new(0b0110, 4), Pattern::new(0b1011, 4)]),
            PatternSet::new(4, vec![Pattern::new(0b0011, 4)]),
        ],
    );
    let weights = Matrix::from_fn(8, 3, |r, c| (r * 3 + c) as f32 * 0.5);
    let layer =
        CompiledLayer::new("l0".to_owned(), GemmShape::new(16, 8, 3), 4, patterns, Some(weights));
    CompiledModel::new("tiny/test".to_owned(), 4, 2, 7, vec![layer])
}

/// Byte range of the format-2 fixture's match-index record: the bytes
/// the format-1 fixture lacks, found where the two first differ after
/// the version field.
fn fixture_index_region() -> std::ops::Range<usize> {
    let start = (8..FIXTURE_V1.len())
        .find(|&i| FIXTURE_V1[i] != FIXTURE_V2[i])
        .expect("the fixtures differ after the version field");
    start..start + (FIXTURE_V2.len() - FIXTURE_V1.len())
}

/// Replaces the trailing checksum with the FNV-1a of the body, so only
/// record validation judges the bytes.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body_len = bytes.len() - 8;
    let checksum = fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Loads `bytes`, reporting a panic as `None`.
fn load_without_panic(bytes: &[u8]) -> Option<Result<CompiledModel, RuntimeError>> {
    catch_unwind(AssertUnwindSafe(|| CompiledModel::from_bytes(bytes))).ok()
}

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

    /// A version-1 artifact (the current layout under version 1) loads,
    /// serves bit-identically to the current artifact, and re-serializes
    /// as a byte-identical upgrade.
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
        let mut v1 = compiled.to_bytes();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let from_v1 = CompiledModel::from_bytes(&reseal(v1)).expect("v1 artifact must load");
        prop_assert_eq!(from_v1.to_bytes(), compiled.to_bytes());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `PHIC` header, a version in {1, 2, 3, 0, 4}, an arbitrary body of
    /// up to 4 KB and a valid checksum: the loader returns `Ok` or a typed
    /// error and never panics. Half the bodies are mostly zero bytes, so
    /// their length and count fields are small enough to reach the layer
    /// and index records.
    #[test]
    fn arbitrary_sealed_bodies_never_panic_the_loader(
        version in prop::sample::select(vec![1u32, 2, 3, 0, 4]),
        body in prop::collection::vec(0u8..=255, 0..4096),
        sparse in any::<bool>(),
    ) {
        let body: Vec<u8> = if sparse {
            body.iter().map(|&b| if b < 224 { 0 } else { b % 8 }).collect()
        } else {
            body
        };
        let mut bytes = b"PHIC".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&[0; 8]);
        let outcome = load_without_panic(&reseal(bytes));
        prop_assert!(outcome.is_some(), "version {} body of {} bytes panicked", version, body.len());
        if !(1..=3).contains(&version) {
            prop_assert!(matches!(
                outcome,
                Some(Err(RuntimeError::UnsupportedVersion { supported: 3, .. }))
            ));
        }
    }

    /// Re-sealed copies of the format-2 fixture with one `u32` of its
    /// match-index record overwritten (partition count, width or bucket
    /// count) never panic the loader; any that load equal the model.
    #[test]
    fn patched_index_records_never_panic_the_loader(
        slot in 0usize..16,
        value in prop::sample::select(vec![0u32, 1, 2, 3, 4, 5, 255, 1 << 16, u32::MAX / 4, u32::MAX]),
    ) {
        let region = fixture_index_region();
        let at = region.start + 4 * (slot % (region.len() / 4));
        let mut bytes = FIXTURE_V2.to_vec();
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let outcome = load_without_panic(&reseal(bytes));
        prop_assert!(outcome.is_some(), "value {} at byte {} panicked", value, at);
        if let Some(Ok(model)) = outcome {
            prop_assert_eq!(model.to_bytes(), fixture_model().to_bytes());
        }
    }
}

#[test]
fn truncated_fixtures_are_rejected_without_panicking() {
    for fixture in [FIXTURE_V1, FIXTURE_V2] {
        for len in 0..fixture.len() {
            let cut = &fixture[..len];
            assert!(matches!(load_without_panic(cut), Some(Err(_))), "cut to {len} bytes");
            if len >= 16 {
                // Truncated, then sealed again: only the records judge it.
                let resealed = reseal(cut.to_vec());
                assert!(
                    matches!(load_without_panic(&resealed), Some(Err(_))),
                    "resealed cut to {len} bytes"
                );
            }
        }
    }
}

#[test]
fn a_hostile_bucket_count_is_a_wire_error() {
    // Partition count, then partition 0's width, then its first bucket.
    let at = fixture_index_region().start + 8;
    let mut bytes = FIXTURE_V2.to_vec();
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(CompiledModel::from_bytes(&reseal(bytes)), Err(RuntimeError::Wire(_))));
}

#[test]
fn version_1_and_2_fixtures_load_and_serve_like_the_current_model() {
    let current = fixture_model();
    assert_eq!(current.to_bytes()[4..8], 3u32.to_le_bytes());
    let current = Arc::new(current);
    let mut rng = StdRng::seed_from_u64(0xF1C5);
    let requests: Vec<InferenceRequest> = (0..4)
        .map(|_| InferenceRequest::new(vec![SpikeMatrix::random(4, 8, 0.4, &mut rng)]))
        .collect();
    let want_cpu = BatchExecutor::cpu(Arc::clone(&current)).execute(&requests).expect("serves");
    let want_sim = BatchExecutor::new(Arc::clone(&current))
        .execute_with(&requests, MetricsMode::FullSim)
        .expect("serves");
    for (version, fixture) in [(1u32, FIXTURE_V1), (2, FIXTURE_V2)] {
        assert_eq!(fixture[4..8], version.to_le_bytes());
        let loaded = CompiledModel::from_bytes(fixture).expect("fixture loads");
        assert_eq!(loaded.to_bytes(), current.to_bytes(), "v{version}");
        assert_eq!(loaded.label(), current.label());
        for (a, b) in loaded.layers().iter().zip(current.layers()) {
            assert_eq!(a.patterns, b.patterns, "v{version}");
            assert_eq!(a.weights, b.weights, "v{version}");
            assert_eq!(a.pwp.is_some(), b.pwp.is_some(), "v{version}");
            assert!(a.pwp.is_some());
        }
        let loaded = Arc::new(loaded);
        let cpu = BatchExecutor::cpu(Arc::clone(&loaded)).execute(&requests).expect("serves");
        let sim = BatchExecutor::new(Arc::clone(&loaded))
            .execute_with(&requests, MetricsMode::FullSim)
            .expect("serves");
        assert_eq!(sim.total_cycles(), want_sim.total_cycles(), "v{version}");
        for (got, want) in cpu
            .requests
            .iter()
            .chain(&sim.requests)
            .zip(want_cpu.requests.iter().chain(&want_sim.requests))
        {
            let bits = |r: &Option<Matrix>| {
                r.as_ref().map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert!(got.readout.is_some());
            assert_eq!(bits(&got.readout), bits(&want.readout), "v{version}");
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
