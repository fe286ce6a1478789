//! Shared fixture for the runtime integration tests: a small synthetic
//! workload with clustered activations and a latent spec per layer —
//! enough structure to exercise multi-partition patterns without
//! model-zoo cost — plus the compile/server/traffic builders every
//! suite used to duplicate.
//!
//! Each test binary compiles this module independently, so helpers a
//! given suite doesn't call carry `#[allow(dead_code)]`.

use phi_core::CalibrationConfig;
use phi_runtime::{
    CompileOptions, CompiledModel, InferenceRequest, ModelCompiler, ModelRegistry, PhiServer,
    ServerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_core::LayerSpec;
use snn_workloads::{
    activation_profile, generate_clustered, DatasetId, LayerWorkload, ModelId, Workload,
};
use std::sync::Arc;

/// Builds a `layers`-deep workload of varying width (deliberately ragged
/// final partitions), deterministic in `seed`.
pub fn tiny_workload(layers: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = activation_profile(ModelId::Vgg16, DatasetId::Cifar10);
    let layer_workloads = (0..layers)
        .map(|i| {
            let cols = 16 + 13 * i;
            let (calibration, cluster) = generate_clustered(48, cols, &profile, 16, &mut rng);
            let activations = cluster.sample(16, &mut rng);
            LayerWorkload {
                spec: LayerSpec::new(
                    format!("l{i}"),
                    snn_core::LayerKind::Linear,
                    snn_core::GemmShape::new(32, cols, 8 + 4 * i),
                    4,
                ),
                activations,
                calibration,
                row_scale: 1.0,
                cluster,
            }
        })
        .collect();
    Workload {
        model: ModelId::Vgg16,
        dataset: DatasetId::Cifar10,
        profile,
        layers: layer_workloads,
    }
}

/// Compiles the 3-layer tiny workload at the fast (q = 16) budget — the
/// fixture every serving suite starts from.
#[allow(dead_code)]
pub fn compiled(seed: u64) -> (Workload, Arc<CompiledModel>) {
    compiled_q(3, seed, 16)
}

/// Compiles a `layers`-deep tiny workload at pattern budget `q`,
/// deterministic in `seed`.
#[allow(dead_code)]
pub fn compiled_q(layers: usize, seed: u64, q: usize) -> (Workload, Arc<CompiledModel>) {
    compiled_kq(layers, seed, 16, q)
}

/// Compiles a `layers`-deep tiny workload at pattern width `k` and
/// budget `q`, deterministic in `seed`. Widths above 16 give unpacked
/// layers, the only ones whose tiles go through the tile cache.
#[allow(dead_code)]
pub fn compiled_kq(layers: usize, seed: u64, k: usize, q: usize) -> (Workload, Arc<CompiledModel>) {
    let workload = tiny_workload(layers, seed);
    let options = CompileOptions {
        calibration: CalibrationConfig { k, q, max_rows: 512, ..Default::default() },
        ..Default::default()
    };
    let model = ModelCompiler::new(options).compile(&workload);
    (workload, Arc::new(model))
}

/// Starts a server hosting `model` under the key `"model"`.
#[allow(dead_code)]
pub fn server_with(model: Arc<CompiledModel>, config: ServerConfig) -> PhiServer {
    let mut registry = ModelRegistry::new();
    registry.register("model", model);
    PhiServer::start(registry, config)
}

/// Samples `count` well-formed requests of `rows` rows from `w`.
#[allow(dead_code)]
pub fn requests(w: &Workload, count: usize, rows: usize, seed: u64) -> Vec<InferenceRequest> {
    w.sample_requests(count, rows, seed).into_iter().map(InferenceRequest::new).collect()
}
