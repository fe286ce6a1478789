//! Criterion benchmarks for the Phi decomposition and the functional GEMM
//! paths — the online side of Table 4: dense spike GEMM (bit sparsity)
//! versus the decomposed PWP + L2 evaluation — and the CPU readout
//! (`par_phi_matmul`) at the serving benchmark's shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phi_core::{decompose, par_phi_matmul, phi_matmul, CalibrationConfig, Calibrator, PwpTable};
use phi_runtime::{CompileOptions, ModelCompiler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_core::{Matrix, SpikeMatrix};
use snn_workloads::{activation_profile, generate_clustered, DatasetId, ModelId, WorkloadConfig};
use std::hint::black_box;

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose_1024x512");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    let profile = activation_profile(ModelId::Vgg16, DatasetId::Cifar100);
    let (calib, cluster) = generate_clustered(1024, 512, &profile, 16, &mut rng);
    let acts = cluster.sample(1024, &mut rng);
    for q in [32usize, 128] {
        let patterns = Calibrator::new(CalibrationConfig { q, max_iters: 8, ..Default::default() })
            .calibrate(&calib, &mut rng);
        group.bench_with_input(BenchmarkId::new("q", q), &q, |b, _| {
            b.iter(|| decompose(black_box(&acts), black_box(&patterns)))
        });
    }
    group.finish();
}

fn bench_gemm_paths(c: &mut Criterion) {
    // The Table 4 story in wall-clock form: the same product computed
    // densely (bit sparsity) vs through the decomposition (Phi).
    let mut group = c.benchmark_group("functional_gemm_512x256x64");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let profile = activation_profile(ModelId::Vgg16, DatasetId::Cifar10);
    let (calib, cluster) = generate_clustered(1024, 256, &profile, 16, &mut rng);
    let acts = cluster.sample(512, &mut rng);
    let weights = Matrix::random(256, 64, &mut rng);
    let patterns = Calibrator::new(CalibrationConfig { max_iters: 8, ..Default::default() })
        .calibrate(&calib, &mut rng);
    let decomp = decompose(&acts, &patterns);
    let pwp = PwpTable::new(&patterns, &weights).expect("pwp");

    group.bench_function("bit_sparsity_gemm", |b| {
        b.iter(|| acts.spike_matmul(black_box(&weights)).expect("gemm"))
    });
    group.bench_function("phi_gemm", |b| {
        b.iter(|| phi_matmul(black_box(&decomp), &pwp, &weights).expect("gemm"))
    });
    group.bench_function("pwp_precompute", |b| {
        b.iter(|| PwpTable::new(black_box(&patterns), &weights).expect("pwp"))
    });
    group.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let acts = SpikeMatrix::random(1024, 512, 0.1, &mut rng);
    let patterns = Calibrator::new(CalibrationConfig { q: 64, max_iters: 8, ..Default::default() })
        .calibrate(&acts, &mut rng);
    let decomp = decompose(&acts, &patterns);
    c.bench_function("reconstruct_1024x512", |b| b.iter(|| black_box(&decomp).reconstruct()));
}

/// Rows per `serve` request, and requests per `fullsim` batch.
const REQUEST_ROWS: usize = 4;
const FULLSIM_BATCH: usize = 32;

fn bench_readout(c: &mut Criterion) {
    // The compiled VGG-16 readout layer (fc2, n = 10) on one 4-row `serve`
    // request and on a 128-row `fullsim` batch, and one conv-width layer
    // (conv5_3, n = 512, generated weights) on a 4-row request, which runs
    // the kernel's multi-block path.
    let workload = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let model = ModelCompiler::new(CompileOptions::default()).compile(&workload);
    let requests = workload.sample_requests(FULLSIM_BATCH, REQUEST_ROWS, 1);
    let layer_index = |name: &str| model.layers().iter().position(|l| l.name == name).unwrap();
    let stacked = |l: usize, count: usize| {
        let mats: Vec<&SpikeMatrix> = requests[..count].iter().map(|r| &r[l]).collect();
        SpikeMatrix::vstack(&mats).expect("equal widths")
    };
    let mut group = c.benchmark_group("readout");
    let fc2 = layer_index("fc2");
    let readout = &model.layers()[fc2];
    let (weights, pwp) = (readout.weights.as_ref().unwrap(), readout.pwp.as_ref().unwrap());
    for (name, count) in [("fc2_serve_4_rows", 1), ("fc2_fullsim_128_rows", FULLSIM_BATCH)] {
        let decomp = decompose(&stacked(fc2, count), &readout.patterns);
        group.bench_function(name, |b| {
            b.iter(|| par_phi_matmul(black_box(&decomp), pwp, weights).expect("readout"))
        });
    }
    let conv = layer_index("conv5_3");
    let layer = &model.layers()[conv];
    let mut rng = StdRng::seed_from_u64(4);
    let weights = Matrix::random(layer.shape.k, layer.shape.n, &mut rng);
    let pwp = PwpTable::new(&layer.patterns, &weights).expect("pwp");
    let decomp = decompose(&stacked(conv, 1), &layer.patterns);
    group.bench_function("conv5_3_4_rows_n512", |b| {
        b.iter(|| par_phi_matmul(black_box(&decomp), &pwp, &weights).expect("readout"))
    });
    group.finish();
}

criterion_group!(benches, bench_decompose, bench_gemm_paths, bench_reconstruct, bench_readout);
criterion_main!(benches);
