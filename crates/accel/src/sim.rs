//! Layer-level orchestration of the Phi architecture.
//!
//! The timing model follows §4.1's overlap structure:
//!
//! * L1 and L2 processors run concurrently and synchronize per output tile:
//!   a tile costs `max(L1, L2)` cycles;
//! * preprocessing of a layer overlaps the previous layer's compute
//!   (K-first ordering emits spikes early), so a layer's wall clock is
//!   bounded below by its own matcher throughput but preprocessing is
//!   otherwise free;
//! * DRAM transfers are double-buffered against compute: the layer takes
//!   `max(compute, preprocessing, DRAM, LIF)` cycles.
//!
//! The walk counts; it builds nothing. Each m-tile's Level-2 corrections
//! become per-partition counts, and the packer's window state machine
//! turns them into pack counts sixteen partitions at a time, one SIMD lane
//! each (a [`crate::packer::PackCounter`] per partition at
//! `PHI_SIMD=scalar`; the functional [`crate::packer::pack_rows`], which
//! records every unit, is what [`crate::datapath`] executes). The L1 model
//! scans the index rows, and the PWP prefetch sets are bitsets.

use crate::config::PhiConfig;
use crate::energy::{BusyCycles, EnergyModel};
use crate::l1::L1Model;
use crate::l2::L2Model;
use crate::matcher::MatcherModel;
use crate::neuron::NeuronArrayModel;
use crate::packer::{PackerConfig, TilePackCounter};
use crate::report::{CycleBreakdown, LayerReport, ModelReport};
use crate::tiling::TileSchedule;
use crate::traffic::layer_traffic;
use phi_core::{decompose, Decomposition, LayerPatterns};
use snn_core::{GemmShape, SpikeMatrix};

/// The Phi accelerator simulator.
///
/// See the [crate-level example](crate) for typical use: calibrate patterns
/// with [`phi_core::Calibrator`], then hand the activations to
/// [`PhiSimulator::run_layer`]. Serving paths that already hold a
/// [`Decomposition`] (e.g. a `phi-runtime` batch) skip the matcher and call
/// [`PhiSimulator::run_decomposition`] directly.
#[derive(Debug, Clone)]
pub struct PhiSimulator {
    config: PhiConfig,
    energy: EnergyModel,
}

impl PhiSimulator {
    /// Creates a simulator with the default energy model.
    ///
    /// # Panics
    ///
    /// Panics if `config.tile_m`, `config.tile_n`, `config.channels`,
    /// `config.l1_window` or `config.matcher_lanes` is 0, if
    /// `config.pack_units` is outside `2..=254` (a pack must hold a
    /// correction next to its partial-sum unit, and the lane-parallel pack
    /// counter keeps a window's units in a `u8`), if
    /// `config.packer_windows == 0`, or if `config.psum_banks` is outside
    /// `1..=64` (the packer's bank-conflict mask is a `u64`).
    pub fn new(config: PhiConfig) -> Self {
        for (field, value) in [
            ("tile_m", config.tile_m),
            ("tile_n", config.tile_n),
            ("channels", config.channels),
            ("l1_window", config.l1_window),
            ("matcher_lanes", config.matcher_lanes),
        ] {
            assert!(value >= 1, "{field} must be at least 1, got {value}");
        }
        assert!(config.pack_units >= 2, "pack_units must be at least 2, got {}", config.pack_units);
        assert!(
            config.pack_units <= 254,
            "pack_units must be at most 254, got {}",
            config.pack_units
        );
        assert!(
            config.packer_windows >= 1,
            "packer_windows must be at least 1, got {}",
            config.packer_windows
        );
        assert!(
            (1..=64).contains(&config.psum_banks),
            "psum_banks must be in 1..=64, got {}",
            config.psum_banks
        );
        PhiSimulator { config, energy: EnergyModel::default() }
    }

    /// Overrides the energy model.
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PhiConfig {
        &self.config
    }

    /// The active energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Simulates one layer.
    ///
    /// `activations` holds the (possibly row-subsampled) spike rows of the
    /// layer across timesteps; `shape.n` is the output width; `row_scale`
    /// extrapolates subsampled rows to the full layer (1.0 = exact).
    ///
    /// # Panics
    ///
    /// Panics if `patterns` does not cover the activation width or
    /// `row_scale` is not positive.
    pub fn run_layer(
        &self,
        activations: &SpikeMatrix,
        patterns: &LayerPatterns,
        shape: GemmShape,
        row_scale: f64,
    ) -> LayerReport {
        assert!(row_scale > 0.0, "row_scale must be positive");
        let decomp = decompose(activations, patterns);
        self.run_decomposed(activations, &decomp, shape, row_scale, "layer")
    }

    /// Simulates one layer with a pre-computed decomposition (used when the
    /// caller also needs the decomposition, e.g. for reporting).
    ///
    /// # Panics
    ///
    /// Panics if `activations` disagrees with `decomp` on shape.
    pub fn run_decomposed(
        &self,
        activations: &SpikeMatrix,
        decomp: &Decomposition,
        shape: GemmShape,
        row_scale: f64,
        name: &str,
    ) -> LayerReport {
        assert_eq!(activations.rows(), decomp.rows(), "activation rows must match decomposition");
        assert_eq!(activations.cols(), decomp.cols(), "activation cols must match decomposition");
        self.run_decomposition(decomp, shape, row_scale, name)
    }

    /// Simulates one layer from its [`Decomposition`] alone.
    ///
    /// The decomposition is self-contained (shape, pattern sets, L1/L2
    /// contents and their statistics), so the original activation matrix is
    /// not needed — the batched serving runtime calls this with
    /// decompositions produced against a shared compiled artifact, without
    /// keeping the raw spikes around. `run_layer` / `run_decomposed` reduce
    /// to this method.
    ///
    /// # Panics
    ///
    /// Panics if `row_scale` is not positive.
    pub fn run_decomposition(
        &self,
        decomp: &Decomposition,
        shape: GemmShape,
        row_scale: f64,
        name: &str,
    ) -> LayerReport {
        assert!(row_scale > 0.0, "row_scale must be positive");
        let rows = decomp.rows();
        let k = decomp.k();
        let parts = decomp.num_partitions();
        let schedule = TileSchedule::new(
            rows,
            decomp.cols(),
            shape.n,
            self.config.tile_m,
            k,
            self.config.tile_n,
        );
        let n_tiles = schedule.n_tiles() as f64;

        let l1_model = L1Model::new(self.config.l1_window, self.config.channels);
        let l2_model = L2Model::new(self.config.channels);
        let packer_config = PackerConfig {
            pack_units: self.config.pack_units,
            windows: self.config.packer_windows,
            psum_banks: self.config.psum_banks,
        };

        // Every partition's pack counter, allocated once and emptied by
        // `finish` at the end of every m-tile.
        let mut packer =
            TilePackCounter::new(&packer_config, k, parts, self.config.tile_m.min(rows));
        let mut l1_cycles = 0.0f64;
        let mut l2_cycles = 0.0f64;
        let mut compute_cycles = 0.0f64;
        let mut total_packs = 0u64;
        let mut occupied_units = 0u64;
        let mut oversize_rows = 0u64;

        for mt in 0..schedule.m_tiles() {
            let (lo, hi) = schedule.m_range(mt);
            let l1_mt = l1_model.tile_cycles(decomp, lo, hi) as f64;
            for r in lo..hi {
                packer.push_row(r - lo, decomp.l2_words(r));
            }
            let counts = packer.finish(hi - lo);
            let packs_mt = counts.packs;
            occupied_units += counts.occupied_units;
            oversize_rows += counts.oversize_rows;
            let l2_mt = l2_model.cycles(packs_mt) as f64;
            total_packs += packs_mt;
            l1_cycles += l1_mt * n_tiles;
            l2_cycles += l2_mt * n_tiles;
            // Per-output-tile synchronization (§4.1): the tile completes
            // when the slower processor finishes.
            compute_cycles += l1_mt.max(l2_mt) * n_tiles;
        }

        let matcher =
            MatcherModel::new(self.config.patterns_per_partition, self.config.matcher_lanes);
        let preproc_cycles = matcher.cycles(rows, parts) as f64;
        let lif = NeuronArrayModel::new(self.config.tile_n);
        let lif_cycles = lif.cycles(rows, shape.n) as f64;

        let traffic =
            layer_traffic(decomp, shape.n, total_packs, occupied_units, &self.config, row_scale);
        let dram_cycles = self
            .energy
            .dram
            .transfer_cycles(traffic.total_bytes(&self.config), self.config.frequency_hz);

        let breakdown = CycleBreakdown {
            preprocessor: preproc_cycles * row_scale,
            l1: l1_cycles * row_scale,
            l2: l2_cycles * row_scale,
            compute: compute_cycles * row_scale,
            lif: lif_cycles * row_scale,
            dram: dram_cycles,
        };
        let cycles =
            breakdown.compute.max(breakdown.preprocessor).max(breakdown.lif).max(breakdown.dram);

        let busy = BusyCycles {
            preprocessor: breakdown.preprocessor,
            l1: breakdown.l1,
            l2: breakdown.l2,
            lif: breakdown.lif,
            elapsed: cycles,
        };
        let energy = self.energy.energy(&busy, traffic.total_bytes(&self.config), &self.config);

        let pack_occupancy = if total_packs == 0 {
            0.0
        } else {
            occupied_units as f64 / (total_packs * self.config.pack_units as u64) as f64
        };

        let stats = decomp.stats();
        LayerReport {
            name: name.to_owned(),
            cycles,
            breakdown,
            traffic,
            energy,
            // Identical to the original activation matrix's nnz: the
            // decomposition is lossless, so bit_nnz carries it.
            bit_ops: stats.bit_nnz as f64 * row_scale * shape.n as f64,
            stats,
            pack_occupancy,
            oversize_rows,
        }
    }

    /// Aggregates layer reports into a model report.
    pub fn aggregate(layers: Vec<LayerReport>) -> ModelReport {
        ModelReport::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_core::{CalibrationConfig, Calibrator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(density: f64, clustered: bool) -> LayerReport {
        let mut rng = StdRng::seed_from_u64(123);
        let acts = if clustered {
            // Highly repetitive rows: Phi should fly.
            let proto = 0x5A5Au64;
            SpikeMatrix::from_fn(512, 64, |_, c| (proto >> (c % 16)) & 1 == 1)
        } else {
            SpikeMatrix::random(512, 64, density, &mut rng)
        };
        let patterns = Calibrator::new(CalibrationConfig { q: 64, ..Default::default() })
            .calibrate(&acts, &mut rng);
        let sim = PhiSimulator::new(PhiConfig::default());
        sim.run_layer(&acts, &patterns, GemmShape::new(512, 64, 128), 1.0)
    }

    #[test]
    fn report_has_positive_cycles_and_energy() {
        let r = run(0.15, false);
        assert!(r.cycles > 0.0);
        assert!(r.energy.total_j() > 0.0);
        assert!(r.bit_ops > 0.0);
        assert_eq!(r.oversize_rows, 0);
    }

    #[test]
    fn cycles_bound_every_component() {
        let r = run(0.15, false);
        assert!(r.cycles >= r.breakdown.compute);
        assert!(r.cycles >= r.breakdown.dram);
        assert!(r.cycles >= r.breakdown.preprocessor);
    }

    #[test]
    fn denser_activations_cost_more_compute() {
        let sparse = run(0.05, false);
        let dense = run(0.4, false);
        assert!(
            dense.breakdown.compute > sparse.breakdown.compute,
            "dense {} vs sparse {}",
            dense.breakdown.compute,
            sparse.breakdown.compute
        );
    }

    #[test]
    fn clustered_data_reduces_l2_work() {
        let clustered = run(0.3, true);
        let random = run(0.3, false);
        // Perfectly repetitive rows all match patterns exactly: essentially
        // no L2 packs, so L2 cycles collapse.
        assert!(clustered.breakdown.l2 < random.breakdown.l2 / 2.0);
    }

    #[test]
    fn row_scale_multiplies_compute() {
        let mut rng = StdRng::seed_from_u64(5);
        let acts = SpikeMatrix::random(128, 32, 0.2, &mut rng);
        let patterns = Calibrator::new(CalibrationConfig { q: 16, ..Default::default() })
            .calibrate(&acts, &mut rng);
        let sim = PhiSimulator::new(PhiConfig::default());
        let r1 = sim.run_layer(&acts, &patterns, GemmShape::new(128, 32, 32), 1.0);
        let r2 = sim.run_layer(&acts, &patterns, GemmShape::new(128, 32, 32), 3.0);
        assert!((r2.breakdown.compute - 3.0 * r1.breakdown.compute).abs() < 1e-6);
        assert!((r2.bit_ops - 3.0 * r1.bit_ops).abs() < 1e-6);
    }

    #[test]
    fn run_decomposition_matches_run_layer() {
        // The activation-free entry point must agree with the full path in
        // every reported quantity (the decomposition carries the nnz).
        let mut rng = StdRng::seed_from_u64(9);
        let acts = SpikeMatrix::random(256, 48, 0.2, &mut rng);
        let patterns = Calibrator::new(CalibrationConfig { q: 32, ..Default::default() })
            .calibrate(&acts, &mut rng);
        let decomp = phi_core::decompose(&acts, &patterns);
        let sim = PhiSimulator::new(PhiConfig::default());
        let shape = GemmShape::new(256, 48, 96);
        let via_layer = sim.run_layer(&acts, &patterns, shape, 2.0);
        let via_decomp = sim.run_decomposition(&decomp, shape, 2.0, "layer");
        assert_eq!(via_layer.cycles, via_decomp.cycles);
        assert_eq!(via_layer.breakdown, via_decomp.breakdown);
        assert_eq!(via_layer.bit_ops, via_decomp.bit_ops);
        assert_eq!(via_layer.energy.total_j(), via_decomp.energy.total_j());
    }

    #[test]
    #[should_panic(expected = "activation rows must match decomposition")]
    fn run_decomposed_rejects_shape_mismatch() {
        let mut rng = StdRng::seed_from_u64(10);
        let acts = SpikeMatrix::random(8, 16, 0.2, &mut rng);
        let patterns = Calibrator::new(CalibrationConfig { q: 4, ..Default::default() })
            .calibrate(&acts, &mut rng);
        let decomp = phi_core::decompose(&acts, &patterns);
        let other = SpikeMatrix::zeros(9, 16);
        PhiSimulator::new(PhiConfig::default()).run_decomposed(
            &other,
            &decomp,
            GemmShape::new(9, 16, 16),
            1.0,
            "layer",
        );
    }

    #[test]
    #[should_panic(expected = "pack_units must be at least 2")]
    fn one_unit_packs_are_rejected() {
        PhiSimulator::new(PhiConfig { pack_units: 1, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "pack_units must be at most 254, got 255")]
    fn packs_beyond_a_u8_lane_are_rejected() {
        PhiSimulator::new(PhiConfig { pack_units: 255, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "tile_m must be at least 1, got 0")]
    fn zero_tile_m_is_rejected() {
        PhiSimulator::new(PhiConfig { tile_m: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "tile_n must be at least 1, got 0")]
    fn zero_tile_n_is_rejected() {
        PhiSimulator::new(PhiConfig { tile_n: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "channels must be at least 1, got 0")]
    fn zero_channels_are_rejected() {
        PhiSimulator::new(PhiConfig { channels: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "l1_window must be at least 1, got 0")]
    fn zero_l1_window_is_rejected() {
        PhiSimulator::new(PhiConfig { l1_window: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "matcher_lanes must be at least 1, got 0")]
    fn zero_matcher_lanes_are_rejected() {
        PhiSimulator::new(PhiConfig { matcher_lanes: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "packer_windows must be at least 1")]
    fn zero_packer_windows_are_rejected() {
        PhiSimulator::new(PhiConfig { packer_windows: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "psum_banks must be in 1..=64")]
    fn psum_banks_beyond_the_mask_are_rejected() {
        PhiSimulator::new(PhiConfig { psum_banks: 65, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "psum_banks must be in 1..=64")]
    fn zero_psum_banks_are_rejected() {
        PhiSimulator::new(PhiConfig { psum_banks: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "row_scale must be positive")]
    fn zero_row_scale_is_rejected() {
        let acts = SpikeMatrix::zeros(4, 16);
        let patterns = Calibrator::new(CalibrationConfig { q: 4, ..Default::default() })
            .calibrate(&acts, &mut StdRng::seed_from_u64(0));
        PhiSimulator::new(PhiConfig::default()).run_layer(
            &acts,
            &patterns,
            GemmShape::new(4, 16, 16),
            0.0,
        );
    }
}
