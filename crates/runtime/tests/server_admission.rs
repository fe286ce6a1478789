//! Admission-control edges and server-vs-direct-executor equivalence for
//! the serving front-end.
//!
//! The contract under test: every malformed submission is refused
//! *synchronously at enqueue* with a typed [`ServerError`] (so it can
//! never poison a coalesced batch), overload sheds instead of blocking,
//! and for everything admitted the server is pure plumbing — its readouts
//! are bit-identical to calling [`BatchExecutor`] directly, no matter how
//! many clients interleave or how the batcher slices the traffic.
//!
//! Two admission edges live with the server's unit tests instead:
//! queue-full shedding and the ragged-request-never-joins-a-batch check
//! both need requests held in the batcher, and an idle server never
//! holds one — only the leader gate those unit tests can reach keeps the
//! server busy long enough.

mod common;

use common::{compiled, requests, server_with};
use phi_runtime::{BatchExecutor, InferenceRequest, RuntimeError, ServerConfig, ServerError};
use snn_core::SpikeMatrix;
use std::sync::Arc;

#[test]
fn unknown_model_key_is_rejected_at_enqueue() {
    let (w, model) = compiled(1);
    let server = server_with(model, ServerConfig::default());
    let request = requests(&w, 1, 4, 1).remove(0);
    assert!(matches!(
        server.submit("no-such-model", request.clone()),
        Err(ServerError::UnknownModel { key }) if key == "no-such-model"
    ));
    assert_eq!(server.unknown_model_rejections(), 1);
    // The registered key still serves.
    assert!(server.submit("model", request).unwrap().wait().is_ok());
}

#[test]
fn zero_row_request_is_rejected_at_enqueue() {
    let (w, model) = compiled(3);
    let server = server_with(Arc::clone(&model), ServerConfig::default());
    let empty = InferenceRequest::new(
        w.layers.iter().map(|l| SpikeMatrix::zeros(0, l.spec.shape.k)).collect(),
    );
    assert!(matches!(
        server.submit("model", empty),
        Err(ServerError::Rejected(RuntimeError::Shape { op: "request rows", .. }))
    ));
    // Wrong layer count and wrong width are also enqueue-time rejections.
    let mut short = requests(&w, 1, 4, 3).remove(0);
    short.layers.pop();
    assert!(matches!(
        server.submit("model", short),
        Err(ServerError::Rejected(RuntimeError::Shape { op: "request layer count", .. }))
    ));
    let mut narrow = requests(&w, 1, 4, 3).remove(0);
    narrow.layers[0] = SpikeMatrix::zeros(4, 1);
    assert!(matches!(
        server.submit("model", narrow),
        Err(ServerError::Rejected(RuntimeError::Shape { op: "request layer width", .. }))
    ));
    assert_eq!(server.stats("model").unwrap().rejected, 3);
}

#[test]
fn oversized_request_is_rejected_at_enqueue() {
    let (w, model) = compiled(4);
    let server = server_with(model, ServerConfig::default().with_max_request_rows(4));
    assert!(matches!(
        server.submit("model", requests(&w, 1, 5, 4).remove(0)),
        Err(ServerError::Oversized { rows: 5, max: 4 })
    ));
    assert!(server.submit("model", requests(&w, 1, 4, 4).remove(0)).is_ok());
}

/// The server must be pure plumbing: under many concurrent clients with
/// randomized per-client traffic (including mixed row counts, which force
/// the batcher to keep separate coalescing groups), every response's
/// readout equals a direct `BatchExecutor` call on the same request,
/// bit for bit.
#[test]
fn server_readouts_are_bit_identical_to_direct_execution_under_interleaving() {
    let (w, model) = compiled(6);
    let direct = BatchExecutor::cpu(Arc::clone(&model));
    let server = server_with(Arc::clone(&model), ServerConfig::default().with_max_batch(8));

    let clients = 6;
    let per_client = 12;
    std::thread::scope(|scope| {
        for client in 0..clients {
            let server = &server;
            let direct = &direct;
            let w = &w;
            scope.spawn(move || {
                // Client-specific rows (3..=5) exercise separate batching
                // groups; client-specific seeds randomize interleaving.
                let rows = 3 + (client % 3);
                let traffic: Vec<InferenceRequest> = w
                    .sample_client_requests(client as u64, per_client, rows, 0xFEED)
                    .into_iter()
                    .map(InferenceRequest::new)
                    .collect();
                for request in traffic {
                    let expected = direct.execute_one(&request).unwrap().readout;
                    let response = server.submit("model", request).unwrap().wait().unwrap();
                    assert!(response.readout.is_some());
                    assert_eq!(response.readout, expected, "client {client} diverged");
                }
            });
        }
    });
    let stats = server.stats("model").unwrap();
    assert_eq!(stats.served, (clients * per_client) as u64);
    assert_eq!(stats.failed, 0);
    assert!(stats.batches <= stats.served, "batches cannot exceed requests");
}
