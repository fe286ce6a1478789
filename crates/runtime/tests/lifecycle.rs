//! Integration tests for the live model lifecycle: zero-downtime hot
//! swap, session pinning, canary promotion/rollback, and a recompiled
//! candidate promoted end to end — all through the public [`PhiServer`]
//! API.
//!
//! The load-bearing invariant: **every readout a client ever observes is
//! bit-identical to direct execution on some version that was registered
//! or deployed on the slot** — a swap may change *which* version serves a
//! request, never *what* a version would have answered.

mod common;

use phi_runtime::{
    BatchExecutor, CompileOptions, CompiledModel, InferenceRequest, ModelCompiler, ModelRegistry,
    PhiServer, ServerConfig, StreamSession, TolerancePolicy, DEFAULT_DIVERGENCE_TOLERANCE,
};
use proptest::prelude::*;
use snn_core::Matrix;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

type Fixture = (snn_workloads::Workload, Arc<CompiledModel>, Arc<CompiledModel>);

/// One workload with two genuinely different artifacts over it: `a` (the
/// incumbent) and `b` (same shapes and pattern budget, different weight
/// seed ⇒ different readouts). Compiled once for every case.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (workload, a) = common::compiled(0x11FE);
        let options = CompileOptions {
            calibration: phi_core::CalibrationConfig { q: 16, max_rows: 512, ..Default::default() },
            ..Default::default()
        }
        .with_seed(8);
        let b = Arc::new(ModelCompiler::new(options).compile(&workload));
        assert_ne!(a.to_bytes(), b.to_bytes(), "fixture artifacts must differ");
        (workload, a, b)
    })
}

/// Ground-truth readouts: direct (unserved) execution on `model`.
fn direct(model: &Arc<CompiledModel>, traffic: &[InferenceRequest]) -> Vec<Matrix> {
    let report = BatchExecutor::new(Arc::clone(model)).execute(traffic).expect("direct execution");
    report.requests.into_iter().map(|r| r.readout.expect("readout weights")).collect()
}

fn serving_config(max_batch: usize) -> ServerConfig {
    ServerConfig::default().with_max_batch(max_batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hot swap between requests: across swap points, every response
    /// is bit-identical to direct execution on the version active when
    /// it was admitted — A before the swap, B after it, never a blend.
    /// Each request here runs on its submitting thread before the next
    /// is admitted; requests still queued under A when the swap lands
    /// are pinned by the server's unit test
    /// `requests_queued_across_a_swap_keep_their_admission_version`.
    #[test]
    fn hot_swap_under_traffic_never_tears_readouts(swap_after in 0usize..32) {
        let (workload, a, b) = fixture();
        let pool = common::requests(workload, 6, 4, 0xA11CE);
        let under_a = direct(a, &pool);
        let under_b = direct(b, &pool);
        let mut registry = ModelRegistry::new();
        registry.register("model", Arc::clone(a));
        let server = PhiServer::start(registry, serving_config(8));

        let mut handles = Vec::new();
        for i in 0..32 {
            if i == swap_after {
                prop_assert_eq!(server.deploy("model", Arc::clone(b)).unwrap(), 2);
            }
            let idx = i % pool.len();
            handles.push((idx, server.submit("model", pool[idx].clone()).unwrap()));
        }
        for (i, (idx, handle)) in handles.into_iter().enumerate() {
            let readout = handle.wait().unwrap().readout.unwrap();
            let want = if i < swap_after { &under_a[idx] } else { &under_b[idx] };
            prop_assert!(&readout == want, "request {i} did not serve its admission version");
        }
        // The swap settled: post-storm admissions serve exactly B.
        prop_assert_eq!(server.model_version("model"), Some(2));
        let settled = server.submit("model", pool[0].clone()).unwrap().wait().unwrap();
        prop_assert_eq!(settled.readout.as_ref(), Some(&under_b[0]));
        // Nothing was shed, failed, or expired by the swap.
        let stats = server.stats("model").unwrap();
        prop_assert_eq!((stats.shed, stats.failed, stats.deadline_exceeded), (0, 0, 0));
    }
}

#[test]
fn sessions_stay_pinned_to_their_version_across_swap() {
    let (workload, a, b) = fixture();
    let server = common::server_with(Arc::clone(a), serving_config(4));
    let session_id = server.open_session("model").unwrap();
    let frames = common::requests(workload, 2, 4, 0x5E55);

    // Ground truth: the same two frames through a direct streaming
    // session on version A.
    let reference = StreamSession::new(a);
    let executor = BatchExecutor::new(Arc::clone(a));
    let expected: Vec<Matrix> = frames
        .iter()
        .map(|f| {
            let report = executor.execute_stream(std::slice::from_ref(f), &[&reference]).unwrap();
            report.requests.into_iter().next().unwrap().readout.unwrap()
        })
        .collect();

    let first =
        server.submit_stream("model", session_id, frames[0].clone()).unwrap().wait().unwrap();
    assert_eq!(server.deploy("model", Arc::clone(b)).unwrap(), 2);
    // The session keeps serving on A after the swap — its incremental
    // state belongs to A's artifact.
    let second =
        server.submit_stream("model", session_id, frames[1].clone()).unwrap().wait().unwrap();
    assert_eq!(first.readout.as_ref(), Some(&expected[0]));
    assert_eq!(second.readout.as_ref(), Some(&expected[1]));

    // Meanwhile plain traffic on the same key already serves B.
    let plain = common::requests(workload, 1, 4, 0xB0B).remove(0);
    let plain_direct = direct(b, std::slice::from_ref(&plain));
    let served = server.submit("model", plain).unwrap().wait().unwrap();
    assert_eq!(served.readout.as_ref(), Some(&plain_direct[0]));

    let readout = server.close_session("model", session_id).unwrap();
    assert_eq!(readout.timesteps, 2);
    assert!(readout.rate.is_some());
}

#[test]
fn promotion_after_matching_canary_swaps_without_disturbing_traffic() {
    let (workload, a, _) = fixture();
    let config = serving_config(4).with_canary_target(4);
    let server = common::server_with(Arc::clone(a), config);
    let pool = common::requests(workload, 8, 4, 0xCAFE);
    let expected = direct(a, &pool);

    // The candidate IS the incumbent artifact, so bit-identity must hold
    // on every comparison and the canary promotes on live traffic alone.
    assert_eq!(server.propose("model", Arc::clone(a), TolerancePolicy::BitIdentical).unwrap(), 2);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        for (request, want) in pool.iter().zip(&expected) {
            let got = server.submit("model", request.clone()).unwrap().wait().unwrap();
            assert_eq!(got.readout.as_ref(), Some(want), "shadowing must not perturb serving");
        }
        let lc = server.lifecycle_stats("model").unwrap();
        if lc.promoted >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "canary never promoted");
    }
    let lc = server.lifecycle_stats("model").unwrap();
    assert_eq!((lc.version, lc.rolled_back), (2, 0));
    assert!(lc.canary_compared >= 4);
    let stats = server.stats("model").unwrap();
    assert_eq!((stats.shed, stats.failed, stats.deadline_exceeded), (0, 0, 0));
}

#[test]
fn rejected_canary_rolls_back_and_serving_stays_bit_identical() {
    let (workload, a, b) = fixture();
    let config = serving_config(4).with_canary_target(1_000);
    let server = common::server_with(Arc::clone(a), config);
    let pool = common::requests(workload, 8, 4, 0xDEAD);
    let expected = direct(a, &pool);

    // B genuinely diverges, so demanding bit-identity must roll it back.
    assert_eq!(server.propose("model", Arc::clone(b), TolerancePolicy::BitIdentical).unwrap(), 2);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        for (request, want) in pool.iter().zip(&expected) {
            let got = server.submit("model", request.clone()).unwrap().wait().unwrap();
            assert_eq!(got.readout.as_ref(), Some(want), "incumbent must serve untouched");
        }
        let lc = server.lifecycle_stats("model").unwrap();
        if lc.rolled_back >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "diverging canary never rolled back");
    }
    let lc = server.lifecycle_stats("model").unwrap();
    assert_eq!((lc.version, lc.promoted), (1, 0));
    assert!(!lc.canary_pending);
    // Rollback is invisible to clients: post-rollback serving is still
    // bit-identical to A, and nothing was shed or failed along the way.
    for (request, want) in pool.iter().zip(&expected) {
        let got = server.submit("model", request.clone()).unwrap().wait().unwrap();
        assert_eq!(got.readout.as_ref(), Some(want));
    }
    let stats = server.stats("model").unwrap();
    assert_eq!((stats.shed, stats.failed, stats.deadline_exceeded), (0, 0, 0));
}

#[test]
fn recompiled_candidate_promotes_through_propose() {
    let (workload, a, _) = fixture();
    let config = serving_config(4).with_canary_target(2);
    let server = common::server_with(Arc::clone(a), config);
    let pool = common::requests(workload, 8, 4, 0xF00D);

    for request in &pool {
        let response = server.submit("model", request.clone()).unwrap().wait().unwrap();
        assert!(response.readout.is_some());
    }
    // Recalibrate the serving artifact from the traffic it just served
    // and hand the result to the canary.
    let candidate = ModelCompiler::default()
        .recompile_from_samples(&server.model("model").unwrap(), &pool)
        .expect("recompiling from served samples must not fail");
    let tolerance = TolerancePolicy::BoundedDivergence { max_abs: DEFAULT_DIVERGENCE_TOLERANCE };
    assert_eq!(server.propose("model", Arc::new(candidate), tolerance).unwrap(), 2);

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        for request in &pool {
            let response = server.submit("model", request.clone()).unwrap().wait().unwrap();
            assert!(response.readout.is_some());
        }
        if server.lifecycle_stats("model").unwrap().promoted >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "the recompiled candidate never promoted");
    }
    let lc = server.lifecycle_stats("model").unwrap();
    assert!(lc.version >= 2);
    assert!(server.model_version("model").unwrap() >= 2);
    let stats = server.stats("model").unwrap();
    assert_eq!((stats.shed, stats.failed), (0, 0));
}
