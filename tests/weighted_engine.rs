//! Property tests for the weight-compressed calibration engine and the
//! parallel decomposition sweep: the performance work must be invisible in
//! the results.
//!
//! * The weighted (deduplicated) k-means must produce the same
//!   `total_distance` objective — in fact the same centers — as the
//!   unweighted reference sweep for the same seed.
//! * `decompose` under the parallel row path must stay lossless and
//!   deterministic, and the weighted calibration kernel must match the
//!   reference kernel byte for byte.

use phi_snn::phi_core::{
    compress_tiles, decompose, hamming_kmeans, hamming_kmeans_unweighted, total_distance,
    CalibrationConfig, CalibrationEngine, Calibrator, KmeansConfig,
};
use phi_snn::snn_core::SpikeMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pool of width-8 tiles drawn from a few prototypes with bit noise —
/// heavy duplication, like real SNN partitions.
fn tile_pool(n: usize, prototypes: usize, noise: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let protos: Vec<u64> = (0..prototypes.max(1)).map(|_| rng.gen::<u64>() & 0xFF).collect();
    (0..n)
        .map(|_| {
            let p = protos[rng.gen_range(0..protos.len())];
            if rng.gen_bool(noise) {
                p ^ (1u64 << rng.gen_range(0..8))
            } else {
                p
            }
        })
        .collect()
}

fn spike_matrix(rows: usize, cols: usize, density: f64, seed: u64) -> SpikeMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikeMatrix::from_fn(rows, cols, |_, _| rng.gen_bool(density))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Weighted (deduplicated) k-means reaches the same objective as the
    /// unweighted sweep — because it returns the same centers.
    #[test]
    fn weighted_kmeans_objective_matches_unweighted(
        n in 1usize..400,
        prototypes in 1usize..12,
        noise in 0.0f64..0.5,
        clusters in 1usize..40,
        seed in any::<u64>(),
    ) {
        let points = tile_pool(n, prototypes, noise, seed);
        let config = KmeansConfig { clusters, max_iters: 15 };
        let weighted =
            hamming_kmeans(&points, 8, config, &mut StdRng::seed_from_u64(seed ^ 0xBEEF));
        let unweighted = hamming_kmeans_unweighted(
            &points, 8, config, &mut StdRng::seed_from_u64(seed ^ 0xBEEF));
        prop_assert_eq!(
            total_distance(&points, &weighted),
            total_distance(&points, &unweighted)
        );
        prop_assert_eq!(weighted, unweighted);
    }

    /// Compression never changes what the points represent: multiplicities
    /// sum back to the input size and values are sorted-distinct.
    #[test]
    fn compress_tiles_is_a_faithful_histogram(
        n in 0usize..500,
        prototypes in 1usize..10,
        seed in any::<u64>(),
    ) {
        let points = tile_pool(n, prototypes, 0.3, seed);
        let compressed = compress_tiles(&points);
        prop_assert_eq!(compressed.iter().map(|&(_, c)| c as usize).sum::<usize>(), n);
        prop_assert!(compressed.windows(2).all(|w| w[0].0 < w[1].0));
        for &(v, c) in &compressed {
            prop_assert_eq!(points.iter().filter(|&&p| p == v).count() as u64, c);
        }
    }

    /// The parallel row sweep stays lossless and is deterministic: two
    /// decompositions of the same input are identical in every observable.
    #[test]
    fn parallel_decompose_is_lossless_and_deterministic(
        rows in 1usize..80,
        cols in 1usize..100,
        density in 0.0f64..0.6,
        q in 1usize..32,
        seed in any::<u64>(),
    ) {
        let acts = spike_matrix(rows, cols, density, seed);
        let config = CalibrationConfig { q, max_iters: 8, ..Default::default() };
        let patterns =
            Calibrator::new(config).calibrate(&acts, &mut StdRng::seed_from_u64(seed));
        let a = decompose(&acts, &patterns);
        let b = decompose(&acts, &patterns);
        prop_assert!(a.verify_lossless(&acts));
        prop_assert_eq!(a.l2_nnz(), b.l2_nnz());
        prop_assert_eq!(a.stats(), b.stats());
        for r in 0..rows {
            prop_assert_eq!(a.l2_row(r).collect::<Vec<_>>(), b.l2_row(r).collect::<Vec<_>>());
            for part in 0..a.num_partitions() {
                prop_assert_eq!(a.l1_index(r, part), b.l1_index(r, part));
            }
        }
    }

    /// The reference and weighted calibration kernels agree byte for byte
    /// on arbitrary activation matrices.
    #[test]
    fn calibration_engines_agree(
        rows in 1usize..120,
        cols in 1usize..80,
        density in 0.0f64..0.6,
        q in 1usize..48,
        seed in any::<u64>(),
    ) {
        let acts = spike_matrix(rows, cols, density, seed);
        let calibrate = |engine| {
            let config = CalibrationConfig { q, max_iters: 10, engine, ..Default::default() };
            Calibrator::new(config).calibrate(&acts, &mut StdRng::seed_from_u64(seed ^ 0xCAFE))
        };
        let reference = calibrate(CalibrationEngine::Reference);
        let weighted = calibrate(CalibrationEngine::Weighted);
        prop_assert_eq!(&reference, &weighted);
    }
}
