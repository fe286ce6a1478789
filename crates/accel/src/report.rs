//! Simulation result types.

use crate::energy::EnergyBreakdown;
use crate::traffic::TrafficReport;
use phi_core::SparsityStats;
use std::fmt;

/// Per-component cycle counts for one layer (already scaled to full layer
/// size). `elapsed` is the wall-clock bound: the slowest of the overlapped
/// compute, preprocessing, DRAM, and neuron-array pipelines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Preprocessor (matcher/compressor/packer) cycles.
    pub preprocessor: f64,
    /// L1 processor busy cycles.
    pub l1: f64,
    /// L2 processor busy cycles.
    pub l2: f64,
    /// Per-output-tile synchronized compute cycles (`Σ max(L1, L2)`).
    pub compute: f64,
    /// Neuron-array cycles.
    pub lif: f64,
    /// DRAM transfer cycles at full bandwidth.
    pub dram: f64,
}

/// One activation row's work in the two processors, as the simulator's
/// census counts it: what a batch attributes its cycles and energy by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowWork {
    /// Tiles with an assigned pattern: the row's L1 PWP accumulations.
    pub assigned: u32,
    /// Level-2 corrections: the row's L2 weight-row accumulations.
    pub corrections: u32,
}

/// Simulation report for one layer.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Wall-clock cycles (full layer).
    pub cycles: f64,
    /// Component cycle breakdown.
    pub breakdown: CycleBreakdown,
    /// DRAM traffic categories.
    pub traffic: TrafficReport,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Paper-metric operations (accumulations of '1' bits × N).
    pub bit_ops: f64,
    /// Phi sparsity statistics of the layer's activations.
    pub stats: SparsityStats,
    /// Mean Level-2 pack occupancy in [0, 1].
    pub pack_occupancy: f64,
    /// Rows whose corrections exceeded one pack (expected ≈ 0).
    pub oversize_rows: u64,
    /// Per activation row (the simulated rows, unscaled), its work.
    pub row_work: Vec<RowWork>,
}

impl fmt::Display for LayerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.0} cycles ({:.0} compute / {:.0} dram), {:.3} mJ",
            self.name,
            self.cycles,
            self.breakdown.compute,
            self.breakdown.dram,
            self.energy.total_mj()
        )
    }
}

/// Aggregated report over a model's layers.
#[derive(Debug, Clone, Default)]
pub struct ModelReport {
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
}

impl ModelReport {
    /// Builds a report from layer results.
    pub fn from_layers(layers: Vec<LayerReport>) -> Self {
        ModelReport { layers }
    }

    /// Total wall-clock cycles.
    pub fn total_cycles(&self) -> f64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total paper-metric operations.
    pub fn total_ops(&self) -> f64 {
        self.layers.iter().map(|l| l.bit_ops).sum()
    }

    /// Total energy breakdown.
    pub fn total_energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for l in &self.layers {
            e.add(&l.energy);
        }
        e
    }

    /// Total DRAM traffic.
    pub fn total_traffic(&self) -> TrafficReport {
        let mut t = TrafficReport::default();
        for l in &self.layers {
            t.add(&l.traffic);
        }
        t
    }

    /// Runtime in seconds at `frequency_hz`.
    pub fn runtime_s(&self, frequency_hz: f64) -> f64 {
        self.total_cycles() / frequency_hz
    }

    /// Throughput in GOP/s (Table 2's metric).
    pub fn throughput_gops(&self, frequency_hz: f64) -> f64 {
        let t = self.runtime_s(frequency_hz);
        if t == 0.0 {
            0.0
        } else {
            self.total_ops() / t / 1e9
        }
    }

    /// Energy efficiency in GOP/J (Table 2's metric).
    pub fn gops_per_joule(&self) -> f64 {
        let e = self.total_energy().total_j();
        if e == 0.0 {
            0.0
        } else {
            self.total_ops() / e / 1e9
        }
    }

    /// Merged sparsity statistics across layers.
    pub fn total_stats(&self) -> SparsityStats {
        let stats: Vec<SparsityStats> = self.layers.iter().map(|l| l.stats).collect();
        SparsityStats::merge_all(stats.iter())
    }
}

impl fmt::Display for ModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} layers, {:.3e} cycles, {:.3} mJ",
            self.layers.len(),
            self.total_cycles(),
            self.total_energy().total_mj()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cycles: f64, ops: f64) -> LayerReport {
        LayerReport {
            name: "l".into(),
            cycles,
            breakdown: CycleBreakdown::default(),
            traffic: TrafficReport::default(),
            energy: EnergyBreakdown { core_j: 1e-6, buffer_j: 1e-6, dram_j: 1e-6 },
            bit_ops: ops,
            stats: phi_core::SparsityStats {
                rows: 1,
                cols: 1,
                k: 16,
                partitions: 1,
                bit_nnz: 1,
                assigned_tiles: 0,
                l1_ones: 0,
                l2_pos: 1,
                l2_neg: 0,
            },
            pack_occupancy: 0.5,
            oversize_rows: 0,
            row_work: vec![RowWork { assigned: 0, corrections: 1 }],
        }
    }

    #[test]
    fn totals_accumulate() {
        let r = ModelReport::from_layers(vec![layer(100.0, 1e6), layer(200.0, 2e6)]);
        assert_eq!(r.total_cycles(), 300.0);
        assert_eq!(r.total_ops(), 3e6);
        assert!((r.total_energy().total_j() - 6e-6).abs() < 1e-12);
    }

    #[test]
    fn throughput_formula() {
        let r = ModelReport::from_layers(vec![layer(500e6, 121.4e9)]);
        // 500e6 cycles at 500 MHz = 1 s; 121.4e9 ops → 121.4 GOP/s.
        assert!((r.throughput_gops(500e6) - 121.4).abs() < 1e-6);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = ModelReport::default();
        assert_eq!(r.total_cycles(), 0.0);
        assert_eq!(r.throughput_gops(500e6), 0.0);
        assert_eq!(r.gops_per_joule(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let r = ModelReport::from_layers(vec![layer(1.0, 1.0)]);
        assert!(r.to_string().contains("1 layers"));
    }
}
