//! The calibration-engine speedup bench: unweighted Lloyd
//! (the original implementation, [`CalibrationEngine::Reference`]) against
//! the weight-compressed engine on the paper's headline workload
//! (VGG-16 / CIFAR-10, `CalibrationConfig::default()`, q = 128).
//!
//! The acceptance bar for the weighted engine is ≥ 5× over the reference
//! on this workload; `cargo run --release -p phi_bench --bin
//! bench_pipeline` measures the same quantities and records them in
//! `BENCH_pipeline.json` for cross-PR tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phi_core::{
    compress_tiles, decompose, hamming_kmeans_unweighted, phi_matmul_row_into, simd,
    weighted_hamming_kmeans, CalibrationConfig, CalibrationEngine, Calibrator, KmeansConfig,
    PwpTable,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_core::{Matrix, SpikeMatrix};
use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};
use std::hint::black_box;

fn vgg16_cifar10() -> Workload {
    WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate()
}

fn calibrate_workload(workload: &Workload, q: usize, engine: CalibrationEngine) {
    let config = CalibrationConfig { q, engine, ..CalibrationConfig::default() };
    let calibrator = Calibrator::new(config);
    for (i, layer) in workload.layers.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(7u64.wrapping_add(i as u64));
        black_box(calibrator.calibrate(&layer.calibration, &mut rng));
    }
}

fn bench_engines(c: &mut Criterion) {
    let workload = vgg16_cifar10();
    // q = 128 is the paper's default (every partition here resolves through
    // the distinct ≤ q fast path); q = 32 forces the weighted Lloyd
    // iteration path on most partitions.
    for q in [128usize, 32] {
        let mut group = c.benchmark_group(format!("calibrate_vgg16_cifar10_q{q}"));
        group.sample_size(10);
        for engine in [CalibrationEngine::Reference, CalibrationEngine::Weighted] {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{engine:?}")),
                &engine,
                |b, &engine| b.iter(|| calibrate_workload(black_box(&workload), q, engine)),
            );
        }
        group.finish();
    }
}

fn bench_kmeans_compression(c: &mut Criterion) {
    // The kmeans kernel in isolation, on a heavily duplicated tile pool
    // like the ones SNN partitions produce.
    let workload = vgg16_cifar10();
    let layer =
        workload.layers.iter().max_by_key(|l| l.calibration.rows()).expect("workload has layers");
    let mut tiles: Vec<u64> = Vec::new();
    for r in 0..layer.calibration.rows() {
        let tile = layer.calibration.partition_tile(r, 0, 16);
        if tile != 0 && tile & (tile - 1) != 0 {
            tiles.push(tile);
        }
    }
    let distinct = compress_tiles(&tiles).len();
    println!(
        "kmeans input: {} tiles, {} distinct ({:.1}x compression)",
        tiles.len(),
        distinct,
        tiles.len() as f64 / distinct.max(1) as f64
    );
    let config = KmeansConfig { clusters: 128, max_iters: 25 };
    let mut group = c.benchmark_group("hamming_kmeans_q128");
    group.sample_size(10);
    group.bench_function("unweighted", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            hamming_kmeans_unweighted(black_box(&tiles), 16, config, &mut rng)
        })
    });
    group.bench_function("weighted", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            weighted_hamming_kmeans(black_box(&compress_tiles(&tiles)), 16, config, &mut rng)
        })
    });
    group.finish();
}

/// The levels to A/B: always scalar, plus the dispatched level when it is
/// actually vectorized (a `PHI_SIMD=scalar` run would otherwise register
/// the same benchmark ID twice).
fn ab_levels() -> Vec<simd::SimdLevel> {
    let auto = simd::level();
    if auto == simd::SimdLevel::Scalar {
        vec![auto]
    } else {
        vec![simd::SimdLevel::Scalar, auto]
    }
}

/// Scalar-vs-SIMD A/B on the PWP sparse-matmul row kernel — the CPU
/// execution backend's inner loop.
fn bench_phi_matmul_row(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let acts = SpikeMatrix::random(256, 512, 0.2, &mut rng);
    let weights = Matrix::random(512, 128, &mut rng);
    let cal = Calibrator::new(CalibrationConfig { q: 128, ..CalibrationConfig::default() });
    let patterns = cal.calibrate(&acts, &mut rng);
    let decomp = decompose(&acts, &patterns);
    let pwp = PwpTable::new(&patterns, &weights).expect("shapes match");
    let mut out = vec![0.0f32; weights.cols()];
    let mut group = c.benchmark_group("phi_matmul_row");
    for level in ab_levels() {
        group.bench_with_input(BenchmarkId::from_parameter(level), &level, |b, &level| {
            let prev = simd::force(level);
            b.iter(|| {
                for r in 0..decomp.rows() {
                    out.fill(0.0);
                    phi_matmul_row_into(
                        black_box(&decomp),
                        black_box(&pwp),
                        black_box(&weights),
                        r,
                        &mut out,
                    );
                }
            });
            simd::force(prev);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_kmeans_compression, bench_phi_matmul_row);
criterion_main!(benches);
