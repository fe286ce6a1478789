//! Property suite pinning the streaming path to statelessness in the
//! bits: a `T`-timestep session served through [`StreamSession`]s — via
//! the executor's fused stream batches or the server's session router —
//! must produce, frame for frame, exactly the readout bits of `T`
//! independent full-decompose executions, across pattern budgets, delta
//! rates (identical frames through fully resampled frames), worker
//! counts, and concurrent session counts. On top of the per-frame bits,
//! the session's rate-coded readout must equal an independent LIF
//! accumulation over those same readouts in timestep order — which is
//! also the observable proof that the server never reorders a session's
//! frames, since LIF membrane dynamics are order-sensitive.

mod common;

use phi_runtime::{
    BatchExecutor, CompiledModel, InferenceRequest, RuntimeError, ServerConfig, ServerError,
    StreamSession,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::{LifConfig, LifLayer, Matrix};
use snn_workloads::Workload;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One compiled fixture per pattern budget, shared by every case.
fn fixture(q: usize) -> &'static (Workload, Arc<CompiledModel>) {
    static Q32: OnceLock<(Workload, Arc<CompiledModel>)> = OnceLock::new();
    static Q128: OnceLock<(Workload, Arc<CompiledModel>)> = OnceLock::new();
    match q {
        32 => Q32.get_or_init(|| common::compiled_q(3, 0x57A3, 32)),
        128 => Q128.get_or_init(|| common::compiled_q(3, 0x57A3, 128)),
        _ => unreachable!("fixture budgets are 32 and 128"),
    }
}

/// The next timestep: each row of `prev` is resampled (in every layer)
/// with probability `delta`, otherwise kept bit-identical — the
/// temporally-correlated workload shape streaming is built for.
fn next_request(
    w: &Workload,
    prev: &InferenceRequest,
    delta: f64,
    rng: &mut StdRng,
) -> InferenceRequest {
    let rows = prev.layers[0].rows();
    let fresh = common::requests(w, 1, rows, rng.gen()).remove(0);
    let resample: Vec<bool> = (0..rows).map(|_| rng.gen_bool(delta)).collect();
    let layers = prev
        .layers
        .iter()
        .zip(&fresh.layers)
        .map(|(p, f)| {
            let mut m = p.clone();
            for (r, &hit) in resample.iter().enumerate() {
                if hit {
                    for c in 0..m.cols() {
                        m.set(r, c, f.get(r, c));
                    }
                }
            }
            m
        })
        .collect();
    InferenceRequest::new(layers)
}

/// A `timesteps`-frame temporal stream at the given row-churn rate.
fn stream(
    w: &Workload,
    rows: usize,
    timesteps: usize,
    delta: f64,
    seed: u64,
) -> Vec<InferenceRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frames = vec![common::requests(w, 1, rows, rng.gen()).remove(0)];
    while frames.len() < timesteps {
        frames.push(next_request(w, frames.last().unwrap(), delta, &mut rng));
    }
    frames
}

/// The reference rate-coded readout: an independent LIF bank stepped
/// over the per-frame readouts in timestep order, spike counts divided
/// by the window length.
fn reference_rate(per_frame: &[Matrix]) -> Matrix {
    let (rows, cols) = (per_frame[0].rows(), per_frame[0].cols());
    let mut lif = LifLayer::new(rows * cols, LifConfig::default());
    let mut counts = vec![0u32; rows * cols];
    for readout in per_frame {
        lif.step_count_into(readout.as_slice(), &mut counts);
    }
    let rate: Vec<f32> = counts.iter().map(|&c| c as f32 / per_frame.len() as f32).collect();
    Matrix::from_vec(rows, cols, rate).expect("counts match the readout shape")
}

/// Fused stream batches through the executor directly: three sessions
/// advanced in lockstep, every frame's readout bit-identical to
/// uncached stateless execution, the rate readout equal to the
/// reference LIF accumulation, and the delta accounting exact for the
/// identical-frame session (every row after the first frame skips).
#[test]
fn executor_stream_batches_match_per_frame_direct_execution() {
    const T: usize = 5;
    const ROWS: usize = 4;
    let (w, model) = fixture(32);
    let executor = BatchExecutor::cpu(Arc::clone(model));
    let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);

    // Session 0 replays one frame forever (delta 0); the others churn.
    let streams: Vec<Vec<InferenceRequest>> = [0.0, 0.3, 1.0]
        .iter()
        .enumerate()
        .map(|(s, &delta)| stream(w, ROWS, T, delta, 0xE0 + s as u64))
        .collect();
    let sessions: Vec<StreamSession> = streams.iter().map(|_| StreamSession::new(model)).collect();

    let mut expected: Vec<Vec<Matrix>> = vec![Vec::new(); streams.len()];
    for t in 0..T {
        let frames: Vec<InferenceRequest> = streams.iter().map(|f| f[t].clone()).collect();
        let refs: Vec<&StreamSession> = sessions.iter().collect();
        let report = executor.execute_stream(&frames, &refs).unwrap();
        for (s, (frame, result)) in frames.iter().zip(&report.requests).enumerate() {
            let stateless = direct.execute_one(frame).unwrap().readout;
            assert_eq!(result.readout, stateless, "session {s} timestep {t} diverged");
            expected[s].push(result.readout.clone().unwrap());
        }
    }

    for (s, (session, per_frame)) in sessions.iter().zip(&expected).enumerate() {
        assert_eq!(session.timesteps(), T as u64);
        assert_eq!(session.rows(), Some(ROWS));
        assert_eq!(
            session.rate_readout().as_ref(),
            Some(&reference_rate(per_frame)),
            "session {s} rate readout diverged from the reference LIF bank"
        );
    }
    // The identical-frame session took the whole-row skip on every row
    // of every frame after the first.
    let calm = sessions[0].delta_stats();
    assert_eq!(calm.rows_skipped, ((T - 1) * ROWS) as u64);
    // The fully-resampled session could only skip rows that happened to
    // resample to identical bits — with these seeds, none.
    let churn = sessions[2].delta_stats();
    assert!(churn.tiles_rematched >= calm.tiles_rematched);
}

/// A session may ride in at most one in-flight batch at a time; handing
/// the executor the same session twice in one fused batch is a caller
/// bug and must fail with a typed error, not corrupt timestep order.
#[test]
fn duplicate_session_in_one_stream_batch_is_a_typed_error() {
    let (w, model) = fixture(32);
    let executor = BatchExecutor::cpu(Arc::clone(model));
    let (session, other) = (StreamSession::new(model), StreamSession::new(model));
    let frames = common::requests(w, 3, 4, 7);
    let err = executor.execute_stream(&frames, &[&other, &session, &session]).unwrap_err();
    assert_eq!(err, RuntimeError::DuplicateSession { first: 1, again: 2 });
    assert!(err.to_string().contains("same session"));
    assert_eq!(session.timesteps(), 0, "a refused batch must not advance any session");
    assert_eq!(other.timesteps(), 0);
}

/// Every streamed frame needs exactly one session.
#[test]
fn frame_session_count_mismatch_is_a_typed_error() {
    let (w, model) = fixture(32);
    let executor = BatchExecutor::cpu(Arc::clone(model));
    let session = StreamSession::new(model);
    let frames = common::requests(w, 2, 4, 7);
    let err = executor.execute_stream(&frames, &[&session]).unwrap_err();
    assert!(
        matches!(err, RuntimeError::Shape { expected: 2, actual: 1, .. }),
        "unexpected error {err:?}"
    );
    assert_eq!(session.timesteps(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Server-routed streams: N concurrent sessions submitted
    /// interleaved by timestep (so frames of different sessions coalesce
    /// into fused batches while each session's stay ordered) must be
    /// bit-identical, frame for frame, to stateless direct execution —
    /// across pattern budgets, delta rates, worker counts, and session
    /// counts — and each session's closing rate readout must equal the
    /// reference LIF accumulation.
    #[test]
    fn streamed_sessions_match_stateless_serving(
        q in prop::sample::select(vec![32usize, 128]),
        delta in prop::sample::select(vec![0.0f64, 0.1, 0.5, 1.0]),
        workers in 1usize..=3,
        sessions in 1usize..=8,
        rows in 3usize..=5,
        seed in any::<u64>(),
    ) {
        const T: usize = 4;
        let (w, model) = fixture(q);
        let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
        let config = ServerConfig::default()
            .with_workers(workers)
            .with_max_batch(4)
            .with_max_wait(Duration::from_micros(100));
        let server = common::server_with(Arc::clone(model), config);

        let streams: Vec<Vec<InferenceRequest>> = (0..sessions)
            .map(|s| stream(w, rows, T, delta, seed ^ ((s as u64) << 17)))
            .collect();
        let ids: Vec<u64> =
            (0..sessions).map(|_| server.open_session("model").unwrap()).collect();

        // Submit interleaved by timestep across sessions, so the batcher
        // sees every session's frame `t` before any session's frame `t+1`.
        let mut handles: Vec<Vec<_>> = (0..sessions).map(|_| Vec::new()).collect();
        for t in 0..T {
            for ((frames, &id), session_handles) in
                streams.iter().zip(&ids).zip(handles.iter_mut())
            {
                session_handles
                    .push(server.submit_stream("model", id, frames[t].clone()).unwrap());
            }
        }

        for (s, (frames, session_handles)) in streams.iter().zip(handles).enumerate() {
            let mut per_frame = Vec::new();
            for (t, (frame, handle)) in frames.iter().zip(session_handles).enumerate() {
                let served = handle.wait().unwrap().readout;
                let stateless = direct.execute_one(frame).unwrap().readout;
                prop_assert_eq!(&served, &stateless, "session {} timestep {} diverged", s, t);
                per_frame.push(served.unwrap());
            }
            let closed = server.close_session("model", ids[s]).unwrap();
            prop_assert_eq!(closed.timesteps, T as u64);
            prop_assert_eq!(
                closed.rate.as_ref(),
                Some(&reference_rate(&per_frame)),
                "session {} rate readout diverged", s
            );
            prop_assert_eq!(closed.delta.rows_total, (T * rows) as u64);
            if delta == 0.0 {
                // Identical frames: every row after the first frame
                // takes the whole-row skip.
                prop_assert_eq!(closed.delta.rows_skipped, ((T - 1) * rows) as u64);
            }
        }
        let stats = server.stats("model").unwrap();
        prop_assert_eq!(stats.stream_frames, (sessions * T) as u64);
        prop_assert_eq!(stats.sessions_open, 0);
    }
}

/// Satellite concurrency contract, part one: a full-parallel submit
/// storm — one thread per session, each firing its whole stream without
/// waiting (so frames park behind their session's in-flight frame while
/// the batcher coalesces across sessions). Every frame must serve the
/// stateless bits, and every closing rate readout must equal the
/// in-order reference accumulation — order-sensitive LIF dynamics make
/// that the proof that no session's timesteps were reordered or leaked
/// into a neighbor.
#[test]
fn concurrent_session_storms_stay_ordered_and_isolated() {
    const SESSIONS: usize = 6;
    const T: usize = 24;
    let (w, model) = fixture(32);
    let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
    let config = ServerConfig::default()
        .with_workers(3)
        .with_max_batch(4)
        .with_max_wait(Duration::from_micros(50));
    let server = common::server_with(Arc::clone(model), config);
    let ids: Vec<u64> = (0..SESSIONS).map(|_| server.open_session("model").unwrap()).collect();

    std::thread::scope(|scope| {
        for (s, &id) in ids.iter().enumerate() {
            let server = &server;
            let direct = &direct;
            scope.spawn(move || {
                let frames = stream(w, 3 + s % 3, T, 0.25, 0x5708 + s as u64);
                let handles: Vec<_> = frames
                    .iter()
                    .map(|f| server.submit_stream("model", id, f.clone()).unwrap())
                    .collect();
                let mut per_frame = Vec::new();
                for (t, (frame, handle)) in frames.iter().zip(handles).enumerate() {
                    let served = handle.wait().unwrap().readout;
                    let stateless = direct.execute_one(frame).unwrap().readout;
                    assert_eq!(served, stateless, "session {s} timestep {t} diverged");
                    per_frame.push(served.unwrap());
                }
                let closed = server.close_session("model", id).unwrap();
                assert_eq!(closed.timesteps, T as u64);
                assert_eq!(
                    closed.rate.as_ref(),
                    Some(&reference_rate(&per_frame)),
                    "session {s} rate readout diverged: frames reordered or leaked"
                );
            });
        }
    });
    let stats = server.stats("model").unwrap();
    assert_eq!(stats.stream_frames, (SESSIONS * T) as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.sessions_open, 0);
}

/// Satellite concurrency contract, part two: shutdown racing live
/// streams. Every handle a submitter obtained must resolve — served
/// readout or the typed [`ServerError::ShuttingDown`] — whether the
/// frame was in the intake queue, parked behind its session's in-flight
/// frame, or mid-batch. Nothing may deadlock or strand.
#[test]
fn shutdown_mid_stream_resolves_every_streamed_handle() {
    const SESSIONS: usize = 6;
    const T: usize = 80;
    let (w, model) = fixture(32);
    let config = ServerConfig::default()
        .with_workers(2)
        .with_max_batch(4)
        .with_max_wait(Duration::from_micros(50))
        .with_queue_capacity(64);
    let server = common::server_with(Arc::clone(model), config);
    let ids: Vec<u64> = (0..SESSIONS).map(|_| server.open_session("model").unwrap()).collect();

    std::thread::scope(|scope| {
        for (s, &id) in ids.iter().enumerate() {
            let server = &server;
            scope.spawn(move || {
                let frames = stream(w, 3 + s % 3, T, 0.25, 0xD0 + s as u64);
                let mut handles = Vec::new();
                for frame in frames {
                    match server.submit_stream("model", id, frame) {
                        Ok(handle) => handles.push(handle),
                        // Legitimate refusals during the race; anything
                        // else is a broken shutdown path.
                        Err(ServerError::ShuttingDown) | Err(ServerError::QueueFull { .. }) => {}
                        Err(e) => panic!("unexpected admission error during storm: {e}"),
                    }
                }
                for handle in handles {
                    match handle.wait() {
                        Ok(response) => assert!(response.readout.is_some()),
                        Err(ServerError::ShuttingDown) => {}
                        Err(e) => panic!("handle resolved with unexpected error: {e}"),
                    }
                }
            });
        }
        let server = &server;
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            server.shutdown();
        });
    });

    // Fully stopped: streamed submissions refuse, repeat shutdown is a
    // no-op, and session state is still inspectable post-shutdown.
    assert!(matches!(
        server.submit_stream("model", ids[0], common::requests(w, 1, 3, 9).remove(0)),
        Err(ServerError::ShuttingDown) | Err(ServerError::Rejected(_))
    ));
    server.shutdown();
}
