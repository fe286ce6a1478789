//! Measures the calibrate→decompose hot path and writes the numbers to
//! `BENCH_pipeline.json` at the repository root, so the speedup of the
//! weight-compressed calibration engine is tracked across PRs.
//!
//! Measured on the VGG-16 / CIFAR-10 workload at two pattern budgets:
//!
//! * `q = 128` (`CalibrationConfig::default()`) — the paper's headline
//!   configuration. Every partition of this workload holds fewer than 128
//!   distinct tiles, so the weighted engine resolves it through the
//!   distinct ≤ q fast path.
//! * `q = 32` — forces distinct > q in most partitions, so the weighted
//!   Lloyd *iteration* path is exercised and the clustering objective is
//!   nonzero (a real regression guard, not 0 == 0).
//!
//! Per configuration: full-workload calibration per engine (reference /
//! weighted, min wall-clock), plus byte-identity and objective checks;
//! and once overall, the full-workload decomposition through two paths —
//! the linear reference scan and the production sweep
//! (`decompose_cached` on a disabled cache; every layer of this k = 16
//! workload is packed, so the sweep decides each row 32 partitions per
//! step with the lane matcher, `Hamming16::match_lanes16`, and would not
//! consult a cache anyway) — and the full-workload *functional execution* of those
//! decompositions through the CPU execution backend
//! ([`phi_accel::CpuBackend`]) — the pure PWP sparse-matmul hot path a
//! serving request pays after decomposition, with zero simulator
//! bookkeeping. Both decomposition paths are asserted bit-identical
//! before anything is written.
//!
//! Run with `cargo run --release -p phi_bench --bin bench_pipeline`.
//! Environment knobs:
//!
//! * `PHI_BENCH_RUNS` — repetition count (default 5; fastest run reported).
//! * `PHI_PIPELINE_MAX_COLD_RATIO` — ceiling for the production sweep
//!   ("cold": no cache) vs the linear-reference decomposition time
//!   (default 1.3; 0 disables).
//! * `PHI_PIPELINE_MIN_SIMD_SPEEDUP` — floor for the dispatched SIMD
//!   kernels vs forced-scalar on both the cold decomposition and the CPU
//!   execution tracks (default 1.25; 0 disables). Skipped automatically
//!   when dispatch resolves to scalar (`PHI_SIMD=scalar` or a host
//!   without AVX2/NEON).
//! * `PHI_SIMD` — kernel dispatch override (see [`phi_core::simd`]); the
//!   recorded `simd_dispatch` field names the level every track above ran
//!   at.

use phi_accel::{CpuBackend, ExecutionBackend, LayerWork, MetricsMode, ReadoutPlan};
use phi_bench::{bench_runs, env_f64};
use phi_core::{
    decompose, decompose_cached, simd, total_distance, CalibrationConfig, CalibrationEngine,
    Calibrator, LayerMatchIndex, PwpTable, TileCache,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_core::Matrix;
use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn calibrate_workload(
    workload: &Workload,
    q: usize,
    engine: CalibrationEngine,
) -> Vec<phi_core::LayerPatterns> {
    let config = CalibrationConfig { q, engine, ..CalibrationConfig::default() };
    let calibrator = Calibrator::new(config);
    workload
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let mut rng = StdRng::seed_from_u64(7u64.wrapping_add(i as u64));
            calibrator.calibrate(&layer.calibration, &mut rng)
        })
        .collect()
}

/// Minimum, not median: the phases of this benchmark run minutes apart,
/// so slow background-load drift would skew their ratios. The fastest
/// repetition is the least-interfered estimate of each phase's true
/// cost and is the stablest basis for the floor checks.
fn time_runs(runs: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// Times several variants round-robin — variant 0, 1, …, then variant 0
/// again — taking each variant's fastest repetition. Variants whose
/// *ratio* is floor-checked (cold vs linear, SIMD vs scalar) must sample
/// the same interference epochs, or background-load drift between two
/// separately-timed phases shows up as a phantom speedup or regression.
fn time_interleaved(runs: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<Duration> {
    for f in fs.iter_mut() {
        f(); // warm-up
    }
    let mut mins = vec![Duration::MAX; fs.len()];
    for _ in 0..runs {
        for (min, f) in mins.iter_mut().zip(fs.iter_mut()) {
            let start = Instant::now();
            f();
            let elapsed = start.elapsed();
            *min = (*min).min(elapsed);
        }
    }
    mins
}

/// The summed clustering objective over every layer × partition, computed
/// on the calibration tiles: the quantity the engines must not regress.
fn workload_objective(workload: &Workload, patterns: &[phi_core::LayerPatterns]) -> u64 {
    let k = CalibrationConfig::default().k;
    workload
        .layers
        .iter()
        .zip(patterns)
        .map(|(layer, lp)| {
            (0..lp.num_partitions())
                .map(|part| {
                    let tiles: Vec<u64> = (0..layer.calibration.rows())
                        .map(|r| layer.calibration.partition_tile(r, part, k))
                        .filter(|&t| t != 0 && t & (t - 1) != 0)
                        .collect();
                    let centers: Vec<u64> =
                        lp.set(part).patterns().iter().map(|p| p.bits()).collect();
                    total_distance(&tiles, &centers)
                })
                .sum::<u64>()
        })
        .sum()
}

struct ConfigResult {
    q: usize,
    reference: Duration,
    weighted: Duration,
    byte_identical: bool,
    objective_reference: u64,
    objective_weighted: u64,
}

impl ConfigResult {
    fn speedup_weighted(&self) -> f64 {
        self.reference.as_secs_f64() / self.weighted.as_secs_f64()
    }

    fn json(&self) -> String {
        format!(
            r#"{{
    "q": {q},
    "calibration_ms": {{
      "reference_unweighted": {ref_ms:.3},
      "weighted": {wgt_ms:.3}
    }},
    "speedup_vs_reference": {{ "weighted": {sw:.3} }},
    "engines_byte_identical": {byte_identical},
    "objective": {{ "reference": {obj_ref}, "weighted": {obj_wgt} }}
  }}"#,
            q = self.q,
            ref_ms = self.reference.as_secs_f64() * 1e3,
            wgt_ms = self.weighted.as_secs_f64() * 1e3,
            sw = self.speedup_weighted(),
            byte_identical = self.byte_identical,
            obj_ref = self.objective_reference,
            obj_wgt = self.objective_weighted,
        )
    }
}

fn measure_config(workload: &Workload, q: usize, runs: usize) -> ConfigResult {
    println!("timing calibration engines at q = {q} ({runs} runs each)...");
    let reference = time_runs(runs, || {
        std::hint::black_box(calibrate_workload(workload, q, CalibrationEngine::Reference));
    });
    let weighted = time_runs(runs, || {
        std::hint::black_box(calibrate_workload(workload, q, CalibrationEngine::Weighted));
    });

    // Correctness checks alongside the timings: weighted is byte-identical
    // to the reference, so it cannot regress the clustering objective.
    let p_ref = calibrate_workload(workload, q, CalibrationEngine::Reference);
    let p_wgt = calibrate_workload(workload, q, CalibrationEngine::Weighted);
    let result = ConfigResult {
        q,
        reference,
        weighted,
        byte_identical: p_ref == p_wgt,
        objective_reference: workload_objective(workload, &p_ref),
        objective_weighted: workload_objective(workload, &p_wgt),
    };
    println!("  reference: {:?}", result.reference);
    println!("  weighted:  {:?}  ({:.2}x)", result.weighted, result.speedup_weighted());
    println!(
        "  byte-identical: {}, objective: reference {} / weighted {}",
        result.byte_identical, result.objective_reference, result.objective_weighted
    );
    result
}

fn main() {
    let runs = bench_runs();
    println!("generating VGG-16 / CIFAR-10 workload...");
    let workload = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let layers = workload.layers.len();
    let calibration_rows: usize = workload.layers.iter().map(|l| l.calibration.rows()).sum();

    let headline = measure_config(&workload, 128, runs);
    let iterated = measure_config(&workload, 32, runs);

    // The decomposition tracks: the linear reference matcher, cold =
    // the production sweep on a disabled cache (what every batch pays:
    // the packed layers of this workload never consult a cache), and —
    // when dispatch is non-scalar — the cold track again under
    // forced-scalar kernels. All three are timed round-robin so the
    // floor-checked ratios between them sample the same background-load
    // epochs.
    let patterns = calibrate_workload(&workload, 128, CalibrationEngine::Weighted);
    let uncached = TileCache::disabled();
    let simd_level = simd::level();
    let scalar_ab = simd_level != simd::SimdLevel::Scalar;
    println!(
        "timing decomposition, interleaved (linear / cold{})...",
        if scalar_ab { " / cold at forced scalar" } else { "" }
    );
    let mut run_linear = || {
        for (layer, lp) in workload.layers.iter().zip(&patterns) {
            std::hint::black_box(decompose(&layer.activations, lp));
        }
    };
    let mut run_cold = || {
        for (layer, lp) in workload.layers.iter().zip(&patterns) {
            std::hint::black_box(decompose_cached(
                &layer.activations,
                lp,
                &LayerMatchIndex,
                &uncached,
            ));
        }
    };
    let mut run_cold_scalar = || {
        let prev = simd::force(simd::SimdLevel::Scalar);
        for (layer, lp) in workload.layers.iter().zip(&patterns) {
            std::hint::black_box(decompose_cached(
                &layer.activations,
                lp,
                &LayerMatchIndex,
                &uncached,
            ));
        }
        simd::force(prev);
    };
    let mut variants: Vec<&mut dyn FnMut()> = vec![&mut run_linear, &mut run_cold];
    if scalar_ab {
        variants.push(&mut run_cold_scalar);
    }
    let times = time_interleaved(runs, &mut variants);
    let (decompose_time, cold_time) = (times[0], times[1]);
    let scalar_cold = scalar_ab.then(|| times[2]);
    println!("decomposition (linear): {decompose_time:?}");
    println!("decomposition (cold): {cold_time:?}");

    // Bit-identity of the two paths, per layer — the correctness
    // invariant of the whole accelerator.
    let paths_identical = workload.layers.iter().zip(&patterns).all(|(layer, lp)| {
        decompose(&layer.activations, lp)
            == decompose_cached(&layer.activations, lp, &LayerMatchIndex, &uncached)
    });
    println!("linear == cold decompositions: {paths_identical}");

    // Functional execution through the CPU backend: every layer's
    // precomputed decomposition runs the rayon-parallel PWP sparse matmul
    // against deterministic per-layer weights — the post-decomposition
    // cost of an outputs-only serving request.
    println!("timing functional execution (CpuBackend PWP sparse matmul)...");
    let decomps: Vec<_> = workload
        .layers
        .iter()
        .zip(&patterns)
        .map(|(l, lp)| decompose(&l.activations, lp))
        .collect();
    let weights: Vec<Matrix> = workload
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut rng = StdRng::seed_from_u64(0xF00D ^ i as u64);
            Matrix::random(l.spec.shape.k, l.spec.shape.n, &mut rng)
        })
        .collect();
    let pwps: Vec<PwpTable> = patterns
        .iter()
        .zip(&weights)
        .map(|(lp, w)| PwpTable::new(lp, w).expect("weights match patterns"))
        .collect();
    let backend = CpuBackend;

    // One full sweep of the per-layer decompositions through the CPU
    // backend, outputs only.
    let sweep = || {
        for (((layer, decomp), pwp), w) in
            workload.layers.iter().zip(&decomps).zip(&pwps).zip(&weights)
        {
            let work = LayerWork {
                decomp,
                shape: layer.spec.shape,
                row_scale: layer.row_scale,
                name: &layer.spec.name,
                readout: Some(ReadoutPlan { pwp, weights: w }),
            };
            let out = backend.run_layer(&work, MetricsMode::OutputsOnly);
            assert!(out.readout.is_some() && out.report.is_none());
            std::hint::black_box(out);
        }
    };
    // Two execution tracks, interleaved: the full-workload sweep, and —
    // when dispatch is non-scalar — the same sweep under forced-scalar
    // kernels.
    let mut run_execute = sweep;
    let mut run_execute_scalar = || {
        let prev_simd = simd::force(simd::SimdLevel::Scalar);
        sweep();
        simd::force(prev_simd);
    };
    let mut variants: Vec<&mut dyn FnMut()> = vec![&mut run_execute];
    if scalar_ab {
        variants.push(&mut run_execute_scalar);
    }
    // The SIMD ratio gates an acceptance floor and both sides swing with
    // slow-timescale machine noise; a handful of extra repetitions (each
    // tens of ms) makes the min-of-runs estimate stable where the default
    // count is not.
    let times = time_interleaved(runs.max(9), &mut variants);
    let cpu_execute_time = times[0];
    let scalar_execute = scalar_ab.then(|| times[1]);
    println!("functional execution (cpu backend, full workload): {cpu_execute_time:?}");

    // SIMD A/B: re-run the cold decomposition and CPU execution tracks
    // with dispatch forced to scalar, assert bit-identity against the
    // dispatched results, and record the speedup (the scalar timings came
    // from the interleaved passes above).
    println!("simd dispatch: {simd_level}");
    let simd_ab = scalar_ab.then(|| {
        let scalar_cold = scalar_cold.expect("timed when dispatch is non-scalar");
        let scalar_execute = scalar_execute.expect("timed when dispatch is non-scalar");
        println!("checking forced-scalar bit-identity (decompose cold + cpu execute)...");
        let prev = simd::force(simd::SimdLevel::Scalar);
        let scalar_decomps: Vec<_> = workload
            .layers
            .iter()
            .zip(&patterns)
            .map(|(l, lp)| decompose_cached(&l.activations, lp, &LayerMatchIndex, &uncached))
            .collect();
        let scalar_readouts: Vec<_> = workload
            .layers
            .iter()
            .zip(&decomps)
            .zip(&pwps)
            .zip(&weights)
            .map(|(((layer, decomp), pwp), w)| {
                let work = LayerWork {
                    decomp,
                    shape: layer.spec.shape,
                    row_scale: layer.row_scale,
                    name: &layer.spec.name,
                    readout: Some(ReadoutPlan { pwp, weights: w }),
                };
                backend.run_layer(&work, MetricsMode::OutputsOnly).readout
            })
            .collect();
        simd::force(prev);
        // Bit-identity at both levels, on both tracks: the dispatched
        // decompositions (`decomps` ran under auto dispatch via the
        // linear matcher; re-derive the uncached ones) and the readouts.
        let simd_decomps: Vec<_> = workload
            .layers
            .iter()
            .zip(&patterns)
            .map(|(l, lp)| decompose_cached(&l.activations, lp, &LayerMatchIndex, &uncached))
            .collect();
        let simd_readouts: Vec<_> = workload
            .layers
            .iter()
            .zip(&decomps)
            .zip(&pwps)
            .zip(&weights)
            .map(|(((layer, decomp), pwp), w)| {
                let work = LayerWork {
                    decomp,
                    shape: layer.spec.shape,
                    row_scale: layer.row_scale,
                    name: &layer.spec.name,
                    readout: Some(ReadoutPlan { pwp, weights: w }),
                };
                backend.run_layer(&work, MetricsMode::OutputsOnly).readout
            })
            .collect();
        let identical = scalar_decomps == simd_decomps && scalar_readouts == simd_readouts;
        let dec_speedup = scalar_cold.as_secs_f64() / cold_time.as_secs_f64();
        let exe_speedup = scalar_execute.as_secs_f64() / cpu_execute_time.as_secs_f64();
        println!(
            "scalar decompose cold: {scalar_cold:?} ({dec_speedup:.2}x), scalar cpu execute: \
             {scalar_execute:?} ({exe_speedup:.2}x), bit-identical: {identical}"
        );
        (scalar_cold, scalar_execute, dec_speedup, exe_speedup, identical)
    });

    let simd_json = match &simd_ab {
        Some((scalar_cold, scalar_execute, dec_speedup, exe_speedup, identical)) => format!(
            r#"{{
    "decompose_cold_ms": {sc:.3},
    "cpu_execute_ms": {se:.3},
    "speedup": {{ "decompose_cold": {sd:.3}, "cpu_execute": {sx:.3} }},
    "bit_identical": {identical}
  }}"#,
            sc = scalar_cold.as_secs_f64() * 1e3,
            se = scalar_execute.as_secs_f64() * 1e3,
            sd = dec_speedup,
            sx = exe_speedup,
        ),
        None => "null".to_string(),
    };

    let json = format!(
        r#"{{
  "workload": "vgg16-cifar10",
  "config": {{ "k": 16, "layers": {layers}, "calibration_rows": {calibration_rows} }},
  "runs": {runs},
  "threads": {threads},
  "headline_q128": {headline},
  "iterated_q32": {iterated},
  "decompose_ms": {dec_ms:.3},
  "decompose_cold_ms": {cold_ms:.3},
  "decompose_paths_bit_identical": {paths_identical},
  "cpu_execute_ms": {cpu_ms:.3},
  "simd_dispatch": "{simd_level}",
  "simd_scalar": {simd_json}
}}
"#,
        threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        headline = headline.json(),
        iterated = iterated.json(),
        dec_ms = decompose_time.as_secs_f64() * 1e3,
        cold_ms = cold_time.as_secs_f64() * 1e3,
        cpu_ms = cpu_execute_time.as_secs_f64() * 1e3,
    );

    // Assert before persisting, so a failed acceptance run can never
    // overwrite the checked-in numbers with its own.
    for result in [&headline, &iterated] {
        assert!(
            result.byte_identical,
            "engines must produce byte-identical pattern sets (q = {})",
            result.q
        );
        assert_eq!(
            result.objective_weighted, result.objective_reference,
            "weighted engine must not change the clustering objective (q = {})",
            result.q
        );
    }
    // The q = 32 budget is chosen so most partitions exceed it in distinct
    // tiles: a zero objective would mean the iterated Lloyd path was never
    // exercised and the objective check above was vacuous.
    assert!(iterated.objective_reference > 0, "q = 32 run must exercise the iterated path");
    assert!(paths_identical, "the cold decompositions must equal the linear reference");
    // Wall-clock ratios on shared machines are noisy; CI smoke runs lower
    // the bars via the env knobs (0 disables).
    // The production sweep must stay within 1.3x of the linear reference
    // scan; a large gap would mean the sweep regressed below the oracle
    // it replaces.
    let max_cold_ratio = env_f64("PHI_PIPELINE_MAX_COLD_RATIO", 1.3);
    if max_cold_ratio > 0.0 {
        let ratio = cold_time.as_secs_f64() / decompose_time.as_secs_f64();
        assert!(
            ratio <= max_cold_ratio,
            "cold decompose ({cold_time:?}) must not be slower than {max_cold_ratio}x the \
             linear reference ({decompose_time:?}), got {ratio:.2}x"
        );
    }
    // The SIMD kernels must actually pay for their dispatch: dispatched
    // vs forced-scalar, on both tracks. Bit-identity is unconditional —
    // a vectorized kernel that disagrees with scalar is a bug at any
    // speed. At 1.1 the floor let a sweep running the portable matcher
    // at every level pass (1.15x, carried by the vector popcounts
    // alone); 1.25 fails it while the real kernels clear it (about 2x
    // on decompose, 1.4-1.5x on execute, 2-core AVX-512 host).
    match &simd_ab {
        Some((_, _, dec_speedup, exe_speedup, identical)) => {
            assert!(
                identical,
                "forced-scalar and dispatched ({simd_level}) runs must be bit-identical"
            );
            let min_simd = env_f64("PHI_PIPELINE_MIN_SIMD_SPEEDUP", 1.25);
            if min_simd > 0.0 {
                assert!(
                    *dec_speedup >= min_simd,
                    "SIMD ({simd_level}) cold decompose must be at least {min_simd}x the scalar \
                     path, got {dec_speedup:.2}x"
                );
                assert!(
                    *exe_speedup >= min_simd,
                    "SIMD ({simd_level}) cpu execute must be at least {min_simd}x the scalar \
                     path, got {exe_speedup:.2}x"
                );
            }
        }
        None => println!("simd dispatch is scalar: SIMD-speedup floor skipped"),
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    std::fs::write(&path, json).expect("write BENCH_pipeline.json");
    println!("wrote {}", path.display());
}
