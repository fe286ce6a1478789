//! Serving front-end: host two compiled models behind one `PhiServer`,
//! let concurrent closed-loop clients submit single requests, and watch
//! the dynamic batcher coalesce them on the clients' own threads — plus
//! what admission control does to bad traffic.
//!
//! Run: `cargo run --release --example server`

use phi_snn::phi_runtime::{
    BatchExecutor, CompileOptions, InferenceRequest, ModelCompiler, ModelRegistry, PhiServer,
    ServerConfig, ServerError,
};
use phi_snn::snn_workloads::{DatasetId, ModelId, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Offline: compile two models once. Registration is zero-copy, so
    //    the artifacts stay shared with any direct executor.
    let compiler = ModelCompiler::new(CompileOptions::default());
    let resnet = WorkloadConfig::new(ModelId::ResNet18, DatasetId::Cifar10).generate();
    let vgg = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let resnet_model = Arc::new(compiler.compile(&resnet));
    let vgg_model = Arc::new(compiler.compile(&vgg));

    let mut registry = ModelRegistry::new();
    registry.register("resnet18", Arc::clone(&resnet_model));
    registry.register("vgg16", Arc::clone(&vgg_model));

    // 2. Start the server (it spawns no thread): requests enqueue one at
    //    a time; a client that finds no batch in flight executes one
    //    itself, so an idle server runs a request at once, and requests
    //    that arrive while a batch executes fuse into the next one, up to
    //    `max_batch`.
    let clients = 8;
    let per_client = 32;
    let config = ServerConfig::default().with_max_batch(clients);
    let server = PhiServer::start(registry, config);
    println!("serving {:?} with {config:?}", server.model_keys());

    // 3. Closed-loop clients: each submits its next request only after
    //    the previous one resolved — the coalescing is automatic, no
    //    client ever assembles a batch. Traffic is drawn up front so the
    //    timed region measures serving, not request generation.
    let traffic: Vec<Vec<InferenceRequest>> = (0..clients as u64)
        .map(|client| {
            vgg.sample_client_requests(client, per_client, 4, 0xC11E)
                .into_iter()
                .map(InferenceRequest::new)
                .collect()
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for requests in traffic {
            let server = &server;
            scope.spawn(move || {
                for request in requests {
                    let handle = server.submit("vgg16", request).expect("admitted");
                    let response = handle.wait().expect("served");
                    assert!(response.readout.is_some());
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let total = clients * per_client;
    println!(
        "served {total} single-request submissions from {clients} clients in {elapsed:?} \
         ({:.0} inf/s)",
        total as f64 / elapsed.as_secs_f64()
    );
    let stats = server.stats("vgg16").expect("registered");
    println!(
        "vgg16 stats: {} served in {} batches (mean batch {:.1}), queue wait p50 {:.0} us / \
         p99 {:.0} us, exec p50 {:.0} us / p99 {:.0} us",
        stats.served,
        stats.batches,
        stats.mean_batch,
        stats.p50_queue_wait_us,
        stats.p99_queue_wait_us,
        stats.p50_exec_us,
        stats.p99_exec_us,
    );

    // 4. The other hosted model serves through the same front door, and
    //    its outputs are bit-identical to a direct BatchExecutor call.
    let request = InferenceRequest::new(resnet.sample_requests(1, 4, 0xD0).remove(0));
    let direct = BatchExecutor::cpu(Arc::clone(&resnet_model)).execute_one(&request)?;
    let served = server.submit("resnet18", request)?.wait()?;
    assert_eq!(served.readout, direct.readout);
    println!(
        "resnet18: served readout identical to direct execution ({} rows of logits)",
        served.readout.as_ref().map_or(0, |m| m.rows())
    );

    // 5. Admission control: bad traffic gets a typed error at enqueue and
    //    never reaches a batch.
    let wrong_model = InferenceRequest::new(resnet.sample_requests(1, 4, 0xD1).remove(0));
    match server.submit("bert-large", wrong_model) {
        Err(ServerError::UnknownModel { key }) => println!("rejected unknown model '{key}'"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    let mut ragged = InferenceRequest::new(resnet.sample_requests(1, 4, 0xD2).remove(0));
    let cols = ragged.layers[0].cols();
    ragged.layers[0] = phi_snn::snn_core::SpikeMatrix::zeros(5, cols);
    match server.submit("resnet18", ragged) {
        Err(ServerError::Rejected(cause)) => println!("rejected ragged request: {cause}"),
        other => panic!("expected Rejected, got {other:?}"),
    }

    Ok(())
}
