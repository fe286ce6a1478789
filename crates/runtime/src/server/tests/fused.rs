//! Fused-batch properties: traffic queued behind a held leader, then
//! served as the fused batches the cut rule forms. A caller that submits
//! to an idle server runs its own request at once, so only a batch in
//! flight makes requests coalesce; [`hold_busy`] provides one, and each
//! property checks both the readout bits and the exact batch sizes, so
//! the fused coverage cannot silently fall back to batches of one.

use super::*;
use phi_core::CalibrationConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The batch size each queued request rides in when a leader drains a
/// queue holding `groups` (each request's group key, in arrival order):
/// every cut takes up to `max_batch` requests of the oldest request's
/// group. `follow(i)` names the request that enters the queue once
/// request `i` resolves (a session's next frame), if any.
fn cut_sizes(
    groups: &[usize],
    max_batch: usize,
    follow: impl Fn(usize) -> Option<usize>,
) -> (Vec<usize>, usize) {
    let followers: Vec<usize> = (0..groups.len()).filter_map(&follow).collect();
    let mut queue: VecDeque<usize> = (0..groups.len()).filter(|i| !followers.contains(i)).collect();
    let mut sizes = vec![0; groups.len()];
    let mut batches = 0;
    while let Some(&head) = queue.front() {
        let mut batch = Vec::new();
        queue.retain(|&i| {
            let take = batch.len() < max_batch && groups[i] == groups[head];
            if take {
                batch.push(i);
            }
            !take
        });
        for &i in &batch {
            sizes[i] = batch.len();
        }
        queue.extend(batch.iter().filter_map(|&i| follow(i)));
        batches += 1;
    }
    (sizes, batches)
}

/// The unit workload compiled at pattern width 20: unpacked layers, the
/// only ones whose tiles go through the tile cache.
fn unpacked_fixture() -> &'static (Workload, Arc<CompiledModel>) {
    static FIXTURE: OnceLock<(Workload, Arc<CompiledModel>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = tiny_workload();
        let options = CompileOptions {
            calibration: CalibrationConfig { k: 20, q: 16, max_rows: 512, ..Default::default() },
            ..Default::default()
        };
        let m = Arc::new(ModelCompiler::new(options).compile(&w));
        (w, m)
    })
}

/// The unit workload compiled twice, with different weight seeds, so
/// the two versions answer differently.
fn two_versions() -> &'static (Workload, Arc<CompiledModel>, Arc<CompiledModel>) {
    static FIXTURE: OnceLock<(Workload, Arc<CompiledModel>, Arc<CompiledModel>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = tiny_workload();
        let a = model(&w);
        let b = Arc::new(ModelCompiler::new(CompileOptions::fast().with_seed(8)).compile(&w));
        (w, a, b)
    })
}

/// A `timesteps`-frame stream: each row of a frame is redrawn with
/// probability `delta` from a fresh sample, otherwise kept bit for bit.
fn stream(
    w: &Workload,
    rows: usize,
    timesteps: usize,
    delta: f64,
    seed: u64,
) -> Vec<InferenceRequest> {
    let mut frames = requests(w, 1, rows, seed);
    let mut state = seed;
    for t in 1..timesteps {
        let fresh = requests(w, 1, rows, seed ^ ((t as u64) << 40)).remove(0);
        let redraw: Vec<bool> = (0..rows)
            .map(|_| {
                // splitmix64, enough to spread the redrawn rows.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64) < delta
            })
            .collect();
        let layers = frames[t - 1]
            .layers
            .iter()
            .zip(&fresh.layers)
            .map(|(prev, new)| {
                let mut layer = prev.clone();
                for (r, _) in redraw.iter().enumerate().filter(|(_, &hit)| hit) {
                    for c in 0..layer.cols() {
                        layer.set(r, c, new.get(r, c));
                    }
                }
                layer
            })
            .collect();
        frames.push(InferenceRequest::new(layers));
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused batches of several row groups share one tile cache per
    /// model, cold and warm, and still read the bits of direct uncached
    /// execution.
    #[test]
    fn fused_mixed_row_batches_share_one_tile_cache(
        capacity in prop::sample::select(vec![0usize, 1, 8, 1 << 12]),
        max_batch in prop::sample::select(vec![1usize, 3, 8]),
        row_choices in prop::collection::vec(3usize..=6, 2..10),
        seed in any::<u64>(),
    ) {
        let (w, m) = unpacked_fixture();
        let traffic: Vec<InferenceRequest> = row_choices
            .iter()
            .enumerate()
            .map(|(i, &rows)| requests(w, 1, rows, seed ^ i as u64).remove(0))
            .collect();
        let direct = BatchExecutor::cpu(Arc::clone(m)).with_tile_cache_capacity(0);
        let expected: Vec<Option<Matrix>> =
            traffic.iter().map(|r| direct.execute_one(r).unwrap().readout).collect();
        let (sizes, batches) = cut_sizes(&row_choices, max_batch, |_| None);

        let config = ServerConfig::default().with_max_batch(max_batch).with_tile_cache(capacity);
        let server = PhiServer::start(gated_registry(m), config);
        for wave in ["cold", "warm"] {
            let responses: Vec<ServedResponse> = std::thread::scope(|scope| {
                let blocker = requests(w, 1, 4, seed).remove(0);
                let (gate, leader) = hold_busy(scope, &server, blocker);
                let handles: Vec<ResponseHandle> =
                    traffic.iter().map(|r| server.submit("m", r.clone()).unwrap()).collect();
                drop(gate);
                leader.join().unwrap().unwrap();
                handles.into_iter().map(|h| h.wait().unwrap()).collect()
            });
            for (i, response) in responses.iter().enumerate() {
                prop_assert_eq!(&response.readout, &expected[i], "{} wave request {}", wave, i);
                prop_assert_eq!(response.batch_size, sizes[i], "{} wave request {}", wave, i);
            }
        }
        let stats = server.stats("m").unwrap();
        prop_assert_eq!(stats.served, 2 * traffic.len() as u64);
        prop_assert_eq!(stats.batches, 2 * batches as u64);
    }

    /// A swap that lands while requests are queued: everything admitted
    /// before it rides version A, everything after it version B, each
    /// bit-identical to direct execution on its version, and the cut
    /// never fuses the two versions into one batch.
    #[test]
    fn requests_queued_across_a_swap_keep_their_admission_version(
        max_batch in prop::sample::select(vec![1usize, 3, 8]),
        count in 2usize..12,
        swap_at in 0usize..12,
    ) {
        let (w, a, b) = two_versions();
        let traffic = requests(w, count, 4, 0xA11CE);
        let under_a = direct_readouts(a, &traffic);
        let under_b = direct_readouts(b, &traffic);
        prop_assert!(under_a != under_b, "the two versions must answer differently");
        let versions: Vec<usize> = (0..count).map(|i| usize::from(i >= swap_at)).collect();
        let (sizes, batches) = cut_sizes(&versions, max_batch, |_| None);

        let config = ServerConfig::default().with_max_batch(max_batch);
        let server = PhiServer::start(gated_registry(a), config);
        let responses: Vec<ServedResponse> = std::thread::scope(|scope| {
            let (gate, leader) = hold_busy(scope, &server, requests(w, 1, 4, 1).remove(0));
            let mut handles = Vec::new();
            for (i, request) in traffic.iter().enumerate() {
                if i == swap_at {
                    assert_eq!(server.deploy("m", Arc::clone(b)).unwrap(), 2);
                }
                handles.push(server.submit("m", request.clone()).unwrap());
            }
            drop(gate);
            leader.join().unwrap().unwrap();
            handles.into_iter().map(|h| h.wait().unwrap()).collect()
        });
        for (i, response) in responses.iter().enumerate() {
            let want = if versions[i] == 0 { &under_a[i] } else { &under_b[i] };
            prop_assert_eq!(response.readout.as_ref(), Some(want), "request {}", i);
            prop_assert_eq!(response.batch_size, sizes[i], "request {}", i);
        }
        let stats = server.stats("m").unwrap();
        prop_assert_eq!((stats.served, stats.batches), (count as u64, batches as u64));
    }

    /// Frames of several sessions queued behind a held leader serve as
    /// fused stream batches, one frame per session per batch, each frame
    /// promoted as its predecessor resolves: every frame reads the
    /// stateless bits, and every session's rate readout equals a direct
    /// streaming session over the same frames.
    #[test]
    fn queued_sessions_serve_as_fused_stream_batches(
        max_batch in prop::sample::select(vec![1usize, 3, 8]),
        delta in prop::sample::select(vec![0.0f64, 0.5, 1.0]),
        sessions in 2usize..=6,
        rows in 3usize..=5,
        seed in any::<u64>(),
    ) {
        const T: usize = 3;
        let (w, m, _) = two_versions();
        let streams: Vec<Vec<InferenceRequest>> = (0..sessions)
            .map(|s| stream(w, rows, T, delta, seed ^ ((s as u64) << 17)))
            .collect();
        // Request `s * T + t` is session `s`'s frame `t`; only the first
        // frames queue at once, each later one once its predecessor
        // resolves.
        let groups = vec![0; sessions * T];
        let (sizes, batches) =
            cut_sizes(&groups, max_batch, |i| (i % T + 1 < T).then_some(i + 1));

        let config = ServerConfig::default().with_max_batch(max_batch);
        let server = PhiServer::start(gated_registry(m), config);
        let ids: Vec<u64> = (0..sessions).map(|_| server.open_session("m").unwrap()).collect();
        let handles: Vec<Vec<ResponseHandle>> = std::thread::scope(|scope| {
            let (gate, leader) = hold_busy(scope, &server, requests(w, 1, 4, 2).remove(0));
            let mut handles: Vec<Vec<ResponseHandle>> =
                (0..sessions).map(|_| Vec::new()).collect();
            for t in 0..T {
                for ((frames, &id), session) in streams.iter().zip(&ids).zip(&mut handles) {
                    session.push(server.submit_stream("m", id, frames[t].clone()).unwrap());
                }
            }
            drop(gate);
            leader.join().unwrap().unwrap();
            handles
        });

        let direct = BatchExecutor::cpu(Arc::clone(m)).with_tile_cache_capacity(0);
        for (s, session_handles) in handles.into_iter().enumerate() {
            let reference = StreamSession::new(m);
            for (t, handle) in session_handles.into_iter().enumerate() {
                let response = handle.wait().unwrap();
                let frame = &streams[s][t];
                prop_assert_eq!(
                    &response.readout,
                    &direct.execute_one(frame).unwrap().readout,
                    "session {} frame {}", s, t
                );
                let size = sizes[s * T + t];
                prop_assert_eq!(response.batch_size, size, "session {} frame {}", s, t);
                direct.execute_stream(std::slice::from_ref(frame), &[&reference]).unwrap();
            }
            let closed = server.close_session("m", ids[s]).unwrap();
            prop_assert_eq!(closed.timesteps, T as u64);
            prop_assert_eq!(closed.rate, reference.rate_readout(), "session {}", s);
        }
        let stats = server.stats("m").unwrap();
        prop_assert_eq!(stats.stream_frames, (sessions * T) as u64);
        prop_assert_eq!(stats.batches, batches as u64);
    }
}
