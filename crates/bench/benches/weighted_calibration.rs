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
    compress_tiles, decompose, hamming_kmeans_unweighted, par_phi_matmul, phi_matmul_batch_reuse,
    phi_matmul_row_into, simd, weighted_hamming_kmeans, CalibrationConfig, CalibrationEngine,
    Calibrator, KmeansConfig, PwpTable, ReusePlan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Scalar-vs-SIMD A/B on the batched Hamming probe kernel, at the two
/// pattern-set sizes the paper uses (q = 32 and the default q = 128).
/// The forced level is restored after each measurement, so the groups are
/// order-independent.
fn bench_hamming_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(41);
    for q in [32usize, 128] {
        let patterns: Vec<u64> = (0..q).map(|_| rng.gen::<u64>() & 0xFFFF).collect();
        let tiles: Vec<u64> = (0..1024).map(|_| rng.gen::<u64>() & 0xFFFF).collect();
        let mut out = vec![0u32; q];
        let mut group = c.benchmark_group(format!("hamming_batch_q{q}"));
        for level in ab_levels() {
            group.bench_with_input(BenchmarkId::from_parameter(level), &level, |b, &level| {
                let prev = simd::force(level);
                b.iter(|| {
                    for &tile in &tiles {
                        simd::hamming_batch(black_box(&patterns), black_box(tile), &mut out);
                        black_box(simd::min_hamming(black_box(&patterns), black_box(tile)));
                    }
                });
                simd::force(prev);
            });
        }
        group.finish();
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

/// Product-sparsity A/B on the deepest VGG-16 layer: the reuse-plan
/// builder alone, then the planned batch executor
/// (`phi_matmul_batch_reuse`, build + term-stationary sweeps) against the
/// per-row sweep (`par_phi_matmul`), on fused serving batches of 8 and 64
/// requests × 4 rows — the shapes the serving executor fuses.
fn bench_batch_reuse(c: &mut Criterion) {
    let workload = vgg16_cifar10();
    let (li, layer) = workload
        .layers
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.spec.shape.k * l.spec.shape.n)
        .expect("workload has layers");
    let mut rng = StdRng::seed_from_u64(0xF00D ^ li as u64);
    let weights = Matrix::random(layer.spec.shape.k, layer.spec.shape.n, &mut rng);
    let mut cal_rng = StdRng::seed_from_u64(7u64.wrapping_add(li as u64));
    let patterns =
        Calibrator::new(CalibrationConfig::default()).calibrate(&layer.calibration, &mut cal_rng);
    let pwp = PwpTable::new(&patterns, &weights).expect("weights match patterns");
    for batch in [8usize, 64] {
        let requests = workload.sample_requests(batch, 4, 0xBA7C4);
        let mats: Vec<&SpikeMatrix> = requests.iter().map(|r| &r[li]).collect();
        let fused = SpikeMatrix::vstack(&mats).expect("fused batch stacks");
        let decomp = decompose(&fused, &patterns);
        let plan = ReusePlan::build(&decomp);
        println!(
            "batch {batch}: {} rows, reuse rate {:.3}, loads/refs {:.3}, profitable {}",
            fused.rows(),
            plan.stats().reuse_rate(),
            plan.stats().term_loads as f64 / plan.stats().term_rows_total.max(1) as f64,
            plan.is_profitable_for(weights.cols()),
        );
        let mut group = c.benchmark_group(format!("batch_reuse_b{batch}"));
        group.sample_size(10);
        group.bench_function("plan_build", |b| {
            b.iter(|| black_box(ReusePlan::build(black_box(&decomp))))
        });
        group.bench_function("per_row", |b| {
            b.iter(|| {
                black_box(
                    par_phi_matmul(black_box(&decomp), black_box(&pwp), black_box(&weights))
                        .expect("shapes match"),
                )
            })
        });
        group.bench_function("reuse", |b| {
            b.iter(|| {
                black_box(
                    phi_matmul_batch_reuse(
                        black_box(&decomp),
                        black_box(&pwp),
                        black_box(&weights),
                    )
                    .expect("shapes match"),
                )
            })
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_engines,
    bench_kmeans_compression,
    bench_hamming_batch,
    bench_phi_matmul_row,
    bench_batch_reuse
);
criterion_main!(benches);
