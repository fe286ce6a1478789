//! Multi-worker stress suite for the serving front-end.
//!
//! The contract under test: however many workers race over the intake
//! queue, the server stays pure plumbing — every admitted
//! request resolves with a readout bit-identical to direct execution,
//! every refused request gets its typed error synchronously, shutdown
//! under a live submit storm strands nothing, and the stats counters
//! never tell an impossible story (a snapshot's `mean_batch` can never
//! exceed `max_batch`, no matter how it interleaves with recording
//! workers).

mod common;

use common::{compiled, requests};
use phi_runtime::{
    available_cores, BatchExecutor, ModelRegistry, PhiServer, RuntimeError, ServerConfig,
    ServerError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::SpikeMatrix;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The randomized stress body: two hosted models, 12 submitter threads,
/// and per-thread seeded traffic that interleaves well-formed requests
/// (mixed row counts, so several coalescing groups stay live) with
/// ragged, oversized, and unknown-key submissions. Every well-formed
/// response is asserted bit-identical to direct execution; every
/// malformed submission must fail synchronously with its typed error and
/// never disturb the traffic batched around it.
fn stress_bit_identity(workers: usize) {
    const THREADS: u64 = 12;
    const ITERS: usize = 24;
    let (wa, ma) = compiled(30);
    let (wb, mb) = compiled(31);
    let direct_a = BatchExecutor::cpu(Arc::clone(&ma)).with_tile_cache_capacity(0);
    let direct_b = BatchExecutor::cpu(Arc::clone(&mb)).with_tile_cache_capacity(0);
    let mut registry = ModelRegistry::new();
    registry.register("alpha", Arc::clone(&ma));
    registry.register("beta", Arc::clone(&mb));
    let config = ServerConfig::default()
        .with_workers(workers)
        .with_max_batch(6)
        .with_max_wait(Duration::from_micros(100))
        .with_max_request_rows(6);
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
                                        "thread {t} iter {i} diverged at {workers} workers"
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

#[test]
fn stress_bit_identity_one_worker() {
    stress_bit_identity(1);
}

#[test]
fn stress_bit_identity_two_workers() {
    stress_bit_identity(2);
}

#[test]
fn stress_bit_identity_available_workers() {
    stress_bit_identity(available_cores());
}

/// Shutdown racing a live submit storm: every handle a submitter managed
/// to obtain must resolve — with a served readout or the typed
/// [`ServerError::ShuttingDown`] — no submitter may see any other error,
/// nothing may deadlock, and after the scope every thread (storm and
/// server) has joined.
#[test]
fn shutdown_under_submit_storm_resolves_every_handle() {
    const THREADS: u64 = 8;
    const PER_THREAD: usize = 200;
    let (w, model) = compiled(40);
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(&model));
    let config = ServerConfig::default()
        .with_workers(2)
        .with_max_batch(4)
        .with_max_wait(Duration::from_micros(50))
        .with_queue_capacity(128);
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
/// `max_batch` while multi-worker traffic flows.
#[test]
fn stats_snapshots_never_report_impossible_mean_batch() {
    const CLIENTS: u64 = 4;
    const PER_CLIENT: usize = 50;
    const MAX_BATCH: usize = 4;
    let (w, model) = compiled(50);
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(&model));
    let config = ServerConfig::default()
        .with_workers(2)
        .with_max_batch(MAX_BATCH)
        .with_max_wait(Duration::from_micros(50));
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
