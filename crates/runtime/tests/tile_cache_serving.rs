//! Property tests pinning the server's shared tile cache to bit-identity.
//!
//! The server's tile caches only ever change speed: across randomized
//! cache capacities (including 0 = disabled and 1 = pure thrash), batch
//! shapes, and worker counts, a server whose workers share one cache per
//! model, a cache-disabled server, and a direct uncached
//! [`BatchExecutor`] must all produce the same readout bits for the same
//! requests.

mod common;

use phi_runtime::{
    BatchExecutor, CompiledModel, InferenceRequest, ModelRegistry, PhiServer, ServerConfig,
};
use proptest::prelude::*;
use snn_core::Matrix;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One compiled fixture for every proptest case (compilation dominates
/// the per-case cost otherwise).
fn fixture() -> &'static (snn_workloads::Workload, Arc<CompiledModel>) {
    static FIXTURE: OnceLock<(snn_workloads::Workload, Arc<CompiledModel>)> = OnceLock::new();
    FIXTURE.get_or_init(|| common::compiled(0xCACE))
}

/// Serves `traffic` through a fresh server with the given tile-cache
/// capacity and returns the readouts in submission order.
fn serve(
    model: &Arc<CompiledModel>,
    traffic: &[InferenceRequest],
    tile_cache: usize,
    workers: usize,
) -> Vec<Option<Matrix>> {
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(model));
    let config = ServerConfig::default()
        .with_workers(workers)
        .with_max_batch(4)
        .with_max_wait(Duration::from_micros(100))
        .with_tile_cache(tile_cache);
    let server = PhiServer::start(registry, config);
    // Submit everything before waiting, so requests coalesce and the
    // worker pool (not one request at a time) does the serving.
    let handles: Vec<_> =
        traffic.iter().map(|r| server.submit("model", r.clone()).expect("admitted")).collect();
    handles.into_iter().map(|h| h.wait().expect("served").readout).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared cache == disabled cache == direct execution, bit for bit,
    /// across capacities, shapes, and workers.
    #[test]
    fn cache_wiring_is_invisible_in_readouts(
        capacity in prop::sample::select(vec![0usize, 1, 8, 1 << 12]),
        row_choices in prop::collection::vec(3usize..=6, 1..10),
        workers in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let (w, model) = fixture();
        // Mixed row counts per case force several coalescing groups, so
        // batches land on different workers sharing one cache.
        let traffic: Vec<InferenceRequest> = row_choices
            .iter()
            .enumerate()
            .map(|(i, &rows)| {
                InferenceRequest::new(w.sample_requests(1, rows, seed ^ i as u64).remove(0))
            })
            .collect();

        let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
        let expected: Vec<Option<Matrix>> =
            traffic.iter().map(|r| direct.execute_one(r).expect("direct").readout).collect();

        let shared = serve(model, &traffic, capacity, workers);
        let disabled = serve(model, &traffic, 0, workers);

        prop_assert_eq!(&shared, &expected, "shared cache diverged from direct");
        prop_assert_eq!(&disabled, &expected, "disabled cache diverged from direct");
    }

    /// Replaying identical traffic twice through a multi-worker server
    /// is still bit-identical (a warm shared cache changes nothing), and
    /// the stats report the executor's cache totals: the same lookups,
    /// entries and evictions a direct executor with the same capacity
    /// counts over the same traffic (only the hit/miss split depends on
    /// how requests were batched).
    #[test]
    fn warm_shared_cache_stays_bit_identical(
        rows in 3usize..=6,
        count in 2usize..8,
        workers in 2usize..=3,
        seed in any::<u64>(),
    ) {
        let (w, model) = fixture();
        let traffic: Vec<InferenceRequest> = w
            .sample_requests(count, rows, seed)
            .into_iter()
            .map(InferenceRequest::new)
            .collect();
        let mut registry = ModelRegistry::new();
        registry.register("model", Arc::clone(model));
        let config = ServerConfig::default()
            .with_workers(workers)
            .with_max_batch(4)
            .with_max_wait(Duration::from_micros(100))
            .with_tile_cache(1 << 12);
        let server = PhiServer::start(registry, config);
        let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
        let cached = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(1 << 12);

        for wave in ["cold", "warm"] {
            let handles: Vec<_> = traffic
                .iter()
                .map(|r| server.submit("model", r.clone()).expect("admitted"))
                .collect();
            let readouts: Vec<Option<Matrix>> =
                handles.into_iter().map(|h| h.wait().expect("served").readout).collect();
            for (request, readout) in traffic.iter().zip(&readouts) {
                let expected = direct.execute_one(request).expect("direct").readout;
                prop_assert_eq!(readout, &expected, "{} wave diverged", wave);
                cached.execute_one(request).expect("cached");
            }
        }
        let served = server.stats("model").expect("registered").tile_cache;
        let totals = cached.tile_cache_stats();
        prop_assert!(served.hits > 0, "the warm wave must hit: {:?}", served);
        prop_assert_eq!(served.hits + served.misses, totals.hits + totals.misses);
        prop_assert_eq!(
            (served.entries, served.evictions, served.capacity),
            (totals.entries, totals.evictions, totals.capacity)
        );
    }
}
