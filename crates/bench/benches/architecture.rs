//! Criterion benchmarks for the architecture simulator components:
//! pattern matcher + packer throughput (Fig. 4), the per-layer cycle
//! simulation from a decomposition and from raw activations (the engine
//! behind Table 2 and Fig. 8), and, at the serving benchmark's `fullsim`
//! shape, `run_decomposition` per layer and a whole FullSim executor
//! batch (decomposition, simulation and per-request attribution).
//!
//! Also includes the **ablation** groups DESIGN.md calls out: packer window
//! count and psum banking, which quantify the design choices of §4.2.2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phi_accel::packer::{pack_rows, PackerConfig};
use phi_accel::{PhiConfig, PhiSimulator};
use phi_core::{decompose, CalibrationConfig, Calibrator, Decomposition, LayerPatterns};
use phi_runtime::{BatchExecutor, CompileOptions, InferenceRequest, MetricsMode, ModelCompiler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_core::GemmShape;
use snn_core::SpikeMatrix;
use snn_workloads::{activation_profile, generate_clustered, DatasetId, ModelId, WorkloadConfig};
use std::hint::black_box;

fn setup() -> (snn_core::SpikeMatrix, LayerPatterns, Decomposition) {
    let mut rng = StdRng::seed_from_u64(10);
    let profile = activation_profile(ModelId::Vgg16, DatasetId::Cifar100);
    let (calib, cluster) = generate_clustered(1024, 512, &profile, 16, &mut rng);
    let acts = cluster.sample(1024, &mut rng);
    let patterns = Calibrator::new(CalibrationConfig { max_iters: 8, ..Default::default() })
        .calibrate(&calib, &mut rng);
    let decomp = decompose(&acts, &patterns);
    (acts, patterns, decomp)
}

fn bench_packer(c: &mut Criterion) {
    let (_, _, decomp) = setup();
    // Extract one partition's L2 rows as the packer input stream.
    let entries: Vec<(u32, Vec<(u8, bool)>)> = (0..decomp.rows())
        .filter_map(|r| {
            let e: Vec<(u8, bool)> =
                decomp.l2_tile(r, 0).map(|x| ((x.col % 16) as u8, x.value < 0)).collect();
            if e.is_empty() {
                None
            } else {
                Some((r as u32, e))
            }
        })
        .collect();

    let mut group = c.benchmark_group("packer_windows_ablation");
    for windows in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(windows), &windows, |b, &w| {
            let config = PackerConfig { windows: w, ..Default::default() };
            b.iter(|| {
                pack_rows(black_box(entries.iter().map(|(r, e)| (*r, e.as_slice()))), &config)
            })
        });
    }
    group.finish();
}

fn bench_run_decomposition_1024_rows(c: &mut Criterion) {
    // The simulator alone (L1 windows, packer, prefetch sets and traffic)
    // over four 256-row m-tiles.
    let (_, _, decomp) = setup();
    let sim = PhiSimulator::new(PhiConfig::default());
    let shape = GemmShape::new(1024, 512, 256);
    c.bench_function("run_decomposition_1024_rows", |b| {
        b.iter(|| sim.run_decomposition(black_box(&decomp), shape, 1.0, "layer"))
    });
}

fn bench_run_layer(c: &mut Criterion) {
    let (acts, patterns, _) = setup();
    let mut group = c.benchmark_group("simulate_layer_1024x512x256");
    group.sample_size(10);
    let shape = GemmShape::new(1024, 512, 256);
    group.bench_function("default", |b| {
        let sim = PhiSimulator::new(PhiConfig::default());
        b.iter(|| sim.run_layer(black_box(&acts), &patterns, shape, 1.0))
    });
    // Ablation: fewer psum banks force more packer flushes.
    group.bench_function("psum_banks_2", |b| {
        let sim = PhiSimulator::new(PhiConfig { psum_banks: 2, ..Default::default() });
        b.iter(|| sim.run_layer(black_box(&acts), &patterns, shape, 1.0))
    });
    group.finish();
}

/// Requests per fused batch and rows per request of the `fullsim` shape.
const FULLSIM_BATCH: usize = 32;
const FULLSIM_ROWS: usize = 4;

fn bench_run_decomposition(c: &mut Criterion) {
    // The `fullsim` shape: 32 four-row VGG-16 requests fused into one
    // 128-row decomposition per layer, simulated from the decomposition
    // alone with the executor's row scale.
    let workload = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let model = ModelCompiler::new(CompileOptions::default()).compile(&workload);
    let requests = workload.sample_requests(FULLSIM_BATCH, FULLSIM_ROWS, 1);
    let sim = PhiSimulator::new(PhiConfig::default());
    let mut group = c.benchmark_group("run_decomposition_vgg16_128_rows");
    for name in ["conv1_2", "conv3_1", "conv5_3", "fc1"] {
        let l = model.layers().iter().position(|layer| layer.name == name).expect("VGG-16 layer");
        let layer = &model.layers()[l];
        let mats: Vec<&SpikeMatrix> = requests.iter().map(|r| &r[l]).collect();
        let decomp = decompose(&SpikeMatrix::vstack(&mats).expect("equal widths"), &layer.patterns);
        let row_scale = layer.total_rows() as f64 / FULLSIM_ROWS as f64;
        group.bench_function(name, |b| {
            b.iter(|| sim.run_decomposition(black_box(&decomp), layer.shape, row_scale, name))
        });
    }
    group.finish();
}

fn bench_fullsim_batch(c: &mut Criterion) {
    // One `fullsim` call: 32 four-row VGG-16 requests through the
    // executor's FullSim path, every layer decomposed (tile caches warm
    // after the first call) and simulated, and each request's cycles and
    // energy attributed.
    let workload = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let model = ModelCompiler::new(CompileOptions::default()).compile(&workload);
    let batch: Vec<InferenceRequest> = workload
        .sample_requests(FULLSIM_BATCH, FULLSIM_ROWS, 1)
        .into_iter()
        .map(InferenceRequest::new)
        .collect();
    let executor = BatchExecutor::new(std::sync::Arc::new(model));
    let mut group = c.benchmark_group("fullsim_batch_vgg16_32x4");
    group.bench_function("execute_with_fullsim", |b| {
        b.iter(|| executor.execute_with(black_box(&batch), MetricsMode::FullSim).expect("batch"))
    });
    group.finish();
}

fn bench_ablation_cycles(c: &mut Criterion) {
    // Not a speed benchmark per se: quantifies the modeled hardware cycles
    // across ablated configs so `cargo bench` output records the design
    // space (printed once per run).
    let (acts, patterns, _) = setup();
    let shape = GemmShape::new(1024, 512, 256);
    let configs: Vec<(&str, PhiConfig)> = vec![
        ("default", PhiConfig::default()),
        ("windows=1", PhiConfig { packer_windows: 1, ..Default::default() }),
        ("banks=2", PhiConfig { psum_banks: 2, ..Default::default() }),
        ("no_prefetch", PhiConfig { prefetch: false, ..Default::default() }),
        ("no_compress", PhiConfig { compress: false, ..Default::default() }),
        ("matcher_lanes=1", PhiConfig { matcher_lanes: 1, ..Default::default() }),
    ];
    for (name, config) in &configs {
        let sim = PhiSimulator::new(config.clone());
        let report = sim.run_layer(&acts, patterns_ref(&patterns), shape, 1.0);
        println!(
            "[ablation] {name:<16} cycles {:>12.0} dram {:>12.0} packs-occ {:.2}",
            report.cycles, report.breakdown.dram, report.pack_occupancy
        );
    }
    c.bench_function("ablation_noop", |b| b.iter(|| black_box(1)));
}

fn patterns_ref(p: &LayerPatterns) -> &LayerPatterns {
    p
}

criterion_group!(
    benches,
    bench_packer,
    bench_run_decomposition_1024_rows,
    bench_run_layer,
    bench_run_decomposition,
    bench_fullsim_batch,
    bench_ablation_cycles
);
criterion_main!(benches);
