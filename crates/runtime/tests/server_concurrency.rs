//! Concurrency stress suite for the serving front-end.
//!
//! The contract under test: however many callers race for the
//! leadership — submitting, and executing each other's batches on their
//! own threads — the server stays pure plumbing. Every admitted
//! request resolves with a readout bit-identical to direct execution,
//! every refused request gets its typed error synchronously, the queue
//! never strands (no request waits with nobody leading), shutdown under a
//! live submit storm strands nothing, and the stats counters never tell
//! an impossible story (a snapshot's `mean_batch` can never exceed
//! `max_batch`, no matter how it interleaves with a recording leader).

mod common;

use common::{compiled, requests};
use phi_runtime::{
    BatchExecutor, ModelRegistry, PhiServer, ResponseHandle, RuntimeError, ServerConfig,
    ServerError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::SpikeMatrix;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The randomized stress: two hosted models, 12 submitter threads,
/// and per-thread seeded traffic that interleaves well-formed requests
/// (mixed row counts, so several coalescing groups stay live) with
/// ragged, oversized, and unknown-key submissions. Every well-formed
/// response is asserted bit-identical to direct execution; every
/// malformed submission must fail synchronously with its typed error and
/// never disturb the traffic batched around it.
#[test]
fn stress_bit_identity() {
    const THREADS: u64 = 12;
    const ITERS: usize = 24;
    let (wa, ma) = compiled(30);
    let (wb, mb) = compiled(31);
    let direct_a = BatchExecutor::cpu(Arc::clone(&ma)).with_tile_cache_capacity(0);
    let direct_b = BatchExecutor::cpu(Arc::clone(&mb)).with_tile_cache_capacity(0);
    let mut registry = ModelRegistry::new();
    registry.register("alpha", Arc::clone(&ma));
    registry.register("beta", Arc::clone(&mb));
    let config = ServerConfig::default().with_max_batch(6).with_max_request_rows(6);
    let server = PhiServer::start(registry, config);

    let served = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let unknown = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            let (wa, wb) = (&wa, &wb);
            let (direct_a, direct_b) = (&direct_a, &direct_b);
            let (served, rejected, unknown) = (&served, &rejected, &unknown);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ t);
                for i in 0..ITERS {
                    let beta = rng.gen_bool(0.5);
                    let (key, w, direct) =
                        if beta { ("beta", wb, direct_b) } else { ("alpha", wa, direct_a) };
                    let rows = rng.gen_range(3..=6usize);
                    let seed = (t << 32) ^ i as u64;
                    match rng.gen_range(0..10u32) {
                        0 => {
                            // Ragged: one layer with a mismatched row
                            // count must be refused at enqueue.
                            let mut r = requests(w, 1, rows, seed).remove(0);
                            let cols = r.layers[1].cols();
                            r.layers[1] = SpikeMatrix::zeros(rows + 1, cols);
                            assert!(matches!(
                                server.submit(key, r),
                                Err(ServerError::Rejected(RuntimeError::Ragged { .. }))
                            ));
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        1 => {
                            // Oversized: above max_request_rows.
                            let r = requests(w, 1, 7, seed).remove(0);
                            assert!(matches!(
                                server.submit(key, r),
                                Err(ServerError::Oversized { rows: 7, max: 6 })
                            ));
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        2 => {
                            let r = requests(w, 1, rows, seed).remove(0);
                            assert!(matches!(
                                server.submit("gamma", r),
                                Err(ServerError::UnknownModel { .. })
                            ));
                            unknown.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            let r = requests(w, 1, rows, seed).remove(0);
                            let expected = direct.execute_one(&r).unwrap().readout;
                            match server.submit(key, r) {
                                Ok(handle) => {
                                    let response = handle.wait().unwrap();
                                    assert_eq!(
                                        response.readout, expected,
                                        "thread {t} iter {i} diverged"
                                    );
                                    served.fetch_add(1, Ordering::Relaxed);
                                }
                                // Admission may shed under burst; that is
                                // the typed overload contract, not a bug.
                                Err(ServerError::QueueFull { .. }) => {}
                                Err(e) => panic!("unexpected admission error: {e}"),
                            }
                        }
                    }
                }
            });
        }
    });

    let alpha = server.stats("alpha").unwrap();
    let beta = server.stats("beta").unwrap();
    assert_eq!(alpha.served + beta.served, served.load(Ordering::Relaxed));
    assert_eq!(alpha.rejected + beta.rejected, rejected.load(Ordering::Relaxed));
    assert_eq!(server.unknown_model_rejections(), unknown.load(Ordering::Relaxed));
    assert_eq!(alpha.failed + beta.failed, 0);
    for stats in [&alpha, &beta] {
        assert!(stats.batches <= stats.served, "batches cannot exceed requests");
        assert!(stats.mean_batch <= 6.0 + 1e-9, "mean batch above max_batch: {stats:?}");
    }
}

/// Shutdown racing a live submit storm: every handle a submitter managed
/// to obtain must resolve — with a served readout or the typed
/// [`ServerError::ShuttingDown`] — no submitter may see any other error,
/// nothing may deadlock, and after the scope every storm thread has
/// joined (the server owns none).
#[test]
fn shutdown_under_submit_storm_resolves_every_handle() {
    const THREADS: u64 = 8;
    const PER_THREAD: usize = 200;
    let (w, model) = compiled(40);
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(&model));
    let config = ServerConfig::default().with_max_batch(4).with_queue_capacity(128);
    let server = PhiServer::start(registry, config);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            let w = &w;
            scope.spawn(move || {
                let rows = 3 + (t as usize % 3);
                let traffic = requests(w, PER_THREAD, rows, 0xBAD ^ t);
                let mut handles = Vec::new();
                for request in traffic {
                    match server.submit("model", request) {
                        Ok(handle) => handles.push(handle),
                        // Both are legitimate refusals during the race;
                        // anything else is a broken shutdown path.
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
        // Let the storm build, then stop the server underneath it.
        let server = &server;
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            server.shutdown();
        });
    });

    // The server is fully stopped: new submissions refuse, repeat
    // shutdown is a no-op.
    assert!(matches!(
        server.submit("model", requests(&w, 1, 4, 99).remove(0)),
        Err(ServerError::ShuttingDown)
    ));
    server.shutdown();
}

/// Regression for the batch-attribution race: `record_batch` used to
/// increment `served` before `batches`, so a snapshot taken between the
/// two could divide a newer `served` by an older `batches` and report an
/// impossible `mean_batch` (e.g. 4 requests over 0.5 batches). A
/// snapshot hammering thread must never observe `mean_batch` above
/// `max_batch` while concurrent traffic flows.
#[test]
fn stats_snapshots_never_report_impossible_mean_batch() {
    const CLIENTS: u64 = 4;
    const PER_CLIENT: usize = 50;
    const MAX_BATCH: usize = 4;
    let (w, model) = compiled(50);
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(&model));
    let config = ServerConfig::default().with_max_batch(MAX_BATCH);
    let server = PhiServer::start(registry, config);

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let server = &server;
            let w = &w;
            scope.spawn(move || {
                for request in requests(w, PER_CLIENT, 4, 0xFACE ^ c) {
                    server.submit("model", request).unwrap().wait().unwrap();
                }
            });
        }
        let server = &server;
        let done = &done;
        scope.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let stats = server.stats("model").unwrap();
                if stats.batches > 0 {
                    assert!(
                        stats.mean_batch <= MAX_BATCH as f64 + 1e-9,
                        "impossible mean batch: {} requests over {} batches",
                        stats.served,
                        stats.batches
                    );
                }
                std::hint::spin_loop();
            }
        });
        // A dedicated waiter flips `done` once all client traffic has
        // served, so the snapshot-hammering thread terminates.
        scope.spawn(move || {
            while server.stats("model").unwrap().served < CLIENTS * PER_CLIENT as u64 {
                std::thread::sleep(Duration::from_micros(200));
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    let stats = server.stats("model").unwrap();
    assert_eq!(stats.served, CLIENTS * PER_CLIENT as u64);
    assert!(stats.mean_batch <= MAX_BATCH as f64 + 1e-9);
}

/// How long any admitted request may take to resolve.
const RESOLVE: Duration = Duration::from_secs(5);

/// Counts the calling thread into `arrivals` and waits until the count
/// reaches `until_count`, or `RESOLVE` passes. A count with a deadline
/// rather than a `Barrier`: a stranded thread panics before it arrives,
/// and the others must then still finish and report.
fn arrive(arrivals: &AtomicU64, until_count: u64) {
    arrivals.fetch_add(1, Ordering::SeqCst);
    let until = Instant::now() + RESOLVE;
    while arrivals.load(Ordering::SeqCst) < until_count && Instant::now() < until {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// The progress invariant under mixed traffic: however callers submit
/// and wait, no admitted request is ever left queued with nobody to run
/// it. One open-loop submitter fires bursts
/// without ever waiting and passes its handles to one reaper; beside
/// them, 8 closed-loop clients alternate two row groups with the frames
/// of their own streaming sessions. Once the open loop is done, the
/// clients submit their last request together, so most of them queue
/// behind one batch with nobody submitting after them: only a leader
/// that drains the queue before it returns can serve them. Nothing may be shed — the traffic in
/// flight stays far below the queue capacity, so a shed would mean a
/// stranded queue filled up — every handle must resolve within 5 s, and
/// `served` must equal the number of admitted requests.
#[test]
fn no_admitted_request_strands_under_mixed_traffic() {
    const CLIENTS: u64 = 8;
    const PER_CLIENT: usize = 40;
    const BURSTS: u64 = 60;
    let (w, model) = compiled(60);
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(&model));
    let server = PhiServer::start(registry, ServerConfig::default().with_max_batch(8));
    let direct = BatchExecutor::cpu(Arc::clone(&model)).with_tile_cache_capacity(0);
    let admitted = AtomicU64::new(0);
    let finale = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let (server, w, direct, admitted, finale) = (&server, &w, &direct, &admitted, &finale);
        let (tx, rx) = mpsc::channel::<(Instant, ResponseHandle)>();
        scope.spawn(move || {
            for (sent, handle) in rx {
                let left = RESOLVE.saturating_sub(sent.elapsed());
                let response = handle.wait_timeout(left).expect("an open-loop request stranded");
                assert!(response.expect("served").readout.is_some());
            }
        });
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x0BE7);
            for b in 0..BURSTS {
                let burst = rng.gen_range(1..=8usize);
                for request in requests(w, burst, 3 + (b as usize % 2), 0x0B00 ^ b) {
                    let handle = server.submit("model", request).expect("admitted");
                    admitted.fetch_add(1, Ordering::Relaxed);
                    tx.send((Instant::now(), handle)).unwrap();
                }
                std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
            }
            arrive(finale, CLIENTS + 1);
        });
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let session = server.open_session("model").unwrap();
                let frames = requests(w, PER_CLIENT, 5, 0xF0 ^ c);
                let plain = requests(w, PER_CLIENT, 3 + (c as usize % 2), 0xC0 ^ c);
                for (i, (frame, request)) in frames.into_iter().zip(plain).enumerate() {
                    if i + 1 == PER_CLIENT {
                        arrive(finale, CLIENTS + 1);
                    }
                    let (request, handle) = if i % 2 == 0 {
                        (request.clone(), server.submit("model", request))
                    } else {
                        (frame.clone(), server.submit_stream("model", session, frame))
                    };
                    let handle = handle.expect("admitted");
                    admitted.fetch_add(1, Ordering::Relaxed);
                    let response = handle
                        .wait_timeout(RESOLVE)
                        .unwrap_or_else(|| panic!("client {c} request {i} stranded"))
                        .expect("served");
                    // Streamed readouts equal stateless ones, so one
                    // direct reference covers both kinds.
                    assert_eq!(response.readout, direct.execute_one(&request).unwrap().readout);
                }
                server.close_session("model", session).unwrap();
            });
        }
    });
    let stats = server.stats("model").unwrap();
    assert_eq!((stats.shed, stats.failed, stats.deadline_exceeded), (0, 0, 0));
    assert_eq!(stats.served, admitted.load(Ordering::Relaxed));
}

/// Leaders drain: callers that never block in `wait` still get every
/// request served. Six clients submit and then only poll their handle
/// with a zero timeout, and one open-loop submitter fires bursts and
/// never waits at all, so only leaders that keep cutting batches until
/// the queue is empty can serve them. Every eighth step all seven
/// threads meet, submit together (the open-loop one a burst of both row
/// groups), and meet again once every client's request resolved and
/// every submit returned: nobody submits in between, so a request left
/// queued has nobody to rescue it. Every polled request must resolve
/// within 5 s with the direct readout, and at each second meeting every
/// open-loop handle must already be resolved.
#[test]
fn polling_and_open_loop_callers_are_served_by_draining_leaders() {
    const CLIENTS: u64 = 6;
    const ROUNDS: u64 = 10;
    const ROUND: u64 = 8;
    let (w, model) = compiled(61);
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(&model));
    let server = PhiServer::start(registry, ServerConfig::default().with_max_batch(8));
    let direct = BatchExecutor::cpu(Arc::clone(&model)).with_tile_cache_capacity(0);
    let arrivals = AtomicU64::new(0);
    // Step `i` is a meeting step when it ends a round; `second` picks the
    // meeting after the submissions.
    let meet = |arrivals: &AtomicU64, i: u64, second: bool| {
        if i % ROUND == ROUND - 1 {
            arrive(arrivals, (CLIENTS + 1) * (2 * (i / ROUND) + 1 + u64::from(second)));
        }
    };

    let open_loop = std::thread::scope(|scope| {
        let (server, w, direct, arrivals) = (&server, &w, &direct, &arrivals);
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let traffic = requests(w, (ROUNDS * ROUND) as usize, 3 + c as usize % 2, 0x90 ^ c);
                for (i, request) in traffic.into_iter().enumerate() {
                    meet(arrivals, i as u64, false);
                    let handle = server.submit("model", request.clone()).expect("admitted");
                    let until = Instant::now() + RESOLVE;
                    let response = loop {
                        if let Some(result) = handle.wait_timeout(Duration::ZERO) {
                            break result.expect("served");
                        }
                        assert!(Instant::now() < until, "client {c} request {i} stranded");
                        std::thread::yield_now();
                    };
                    assert_eq!(response.readout, direct.execute_one(&request).unwrap().readout);
                    meet(arrivals, i as u64, true);
                }
            });
        }
        let submitter = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x0FF);
            let (mut handles, mut submitted) = (Vec::new(), 0u64);
            for b in 0..ROUNDS * ROUND {
                meet(arrivals, b, false);
                let meeting = b % ROUND == ROUND - 1;
                let burst = if meeting { 8 } else { rng.gen_range(1..=8) };
                for i in 0..burst {
                    // Alternate the two row groups within a burst.
                    let request = requests(w, 1, 3 + i % 2, (b << 8) ^ i as u64).remove(0);
                    handles.push(server.submit("model", request).expect("admitted"));
                }
                submitted += burst as u64;
                meet(arrivals, b, true);
                if meeting {
                    for (i, handle) in handles.drain(..).enumerate() {
                        let response = handle
                            .wait_timeout(Duration::ZERO)
                            .unwrap_or_else(|| panic!("burst {b} request {i} left queued"));
                        assert!(response.expect("served").readout.is_some());
                    }
                }
                std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
            }
            assert!(handles.is_empty(), "the last step meets");
            submitted
        });
        submitter.join().unwrap()
    });
    let stats = server.stats("model").unwrap();
    assert_eq!((stats.shed, stats.failed, stats.deadline_exceeded), (0, 0, 0));
    assert_eq!(stats.served, CLIENTS * ROUNDS * ROUND + open_loop);
}
