//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (`table2`, `table3`, `table4`, `fig7`, `fig8`, `fig9`, `fig10`,
//! `fig11`, `fig12`, `discussion`); this library holds the common
//! experiment-scale configuration, the baseline roster, and output-path
//! handling. Results are printed as aligned tables and also written as CSV
//! under `results/`.

pub mod openloop;

use phi_core::CalibrationConfig;
use phi_snn::pipeline::PipelineConfig;
use snn_baselines::{Accelerator, Ptb, Sato, SpikingEyeriss, SpinalFlow, Stellar};
use snn_core::env::{read_env, read_flag};
use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};
use std::path::PathBuf;

/// Experiment-scale knobs: large enough for stable statistics, small
/// enough that the full suite finishes in minutes.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Per-layer activation row cap.
    pub max_rows: usize,
    /// Per-layer calibration rows.
    pub calibration_rows: usize,
    /// k-means iterations.
    pub kmeans_iters: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale { max_rows: 1024, calibration_rows: 512, kmeans_iters: 12 }
    }
}

impl ExperimentScale {
    /// A smaller scale for smoke tests.
    pub fn smoke() -> Self {
        ExperimentScale { max_rows: 128, calibration_rows: 128, kmeans_iters: 6 }
    }

    /// Honors `PHI_SMOKE=1` (see [`smoke`]) so CI can run every binary
    /// quickly.
    pub fn from_env() -> Self {
        if smoke() {
            ExperimentScale::smoke()
        } else {
            ExperimentScale::default()
        }
    }

    /// Generates a workload for a model/dataset pair at this scale.
    pub fn workload(&self, model: ModelId, dataset: DatasetId) -> Workload {
        WorkloadConfig::new(model, dataset)
            .with_max_rows(self.max_rows)
            .with_calibration_rows(self.calibration_rows)
            .generate()
    }

    /// The pipeline configuration matching this scale (paper defaults:
    /// `k = 16`, `q = 128`).
    pub fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            calibration: CalibrationConfig { max_iters: self.kmeans_iters, ..Default::default() },
            ..Default::default()
        }
    }
}

/// The baseline roster in Table 2 / Fig. 8 order.
pub fn baselines() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(SpikingEyeriss::default()),
        Box::new(Ptb::default()),
        Box::new(Sato::default()),
        Box::new(SpinalFlow::default()),
        Box::new(Stellar::default()),
    ]
}

/// Output directory for CSVs (`results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Median of a set of timings (the `bench_*` binaries' central estimate).
///
/// # Panics
///
/// Panics on an empty input.
pub fn median(mut times: Vec<std::time::Duration>) -> std::time::Duration {
    assert!(!times.is_empty(), "median of no timings");
    times.sort_unstable();
    times[times.len() / 2]
}

/// Median of a set of rates or ratios (the `bench_*` binaries' central
/// estimate for already-derived numbers, e.g. per-run speedup pairs).
///
/// # Panics
///
/// Panics on an empty input.
pub fn median_f64(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    values[values.len() / 2]
}

/// `PHI_SMOKE=1` shrinks the experiment binaries to a smoke run; `0` or
/// unset runs them at full scale.
///
/// # Panics
///
/// Panics when `PHI_SMOKE` is set to anything but `0` or `1`.
pub fn smoke() -> bool {
    read_flag("PHI_SMOKE")
}

/// Repetition count for the `bench_*` binaries: `PHI_BENCH_RUNS`, 5 when
/// unset.
///
/// # Panics
///
/// Panics when `PHI_BENCH_RUNS` is set but not a count.
pub fn bench_runs() -> usize {
    read_env("PHI_BENCH_RUNS", 5)
}

/// Reads an `f64` env knob (the `bench_*` speedup floors), `default` when
/// unset.
///
/// # Panics
///
/// Panics when the variable is set but not a number.
pub fn env_f64(name: &str, default: f64) -> f64 {
    read_env(name, default)
}

/// Formats a float with `digits` decimals.
pub fn fmt(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Formats a percentage with one decimal.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", 100.0 * value)
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(value: f64) -> String {
    if value.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{value:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_is_smaller() {
        let s = ExperimentScale::smoke();
        let d = ExperimentScale::default();
        assert!(s.max_rows < d.max_rows);
        assert!(s.calibration_rows <= d.calibration_rows);
    }

    #[test]
    fn baseline_roster_matches_table2() {
        let names: Vec<&str> = baselines().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["Eyeriss", "PTB", "SATO", "SpinalFlow", "Stellar"]);
    }

    #[test]
    fn formatters_behave() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(0.0305), "3.0%"); // banker's-free f64 rounding of 3.05
        assert_eq!(ratio(3.454), "3.45x");
        assert_eq!(ratio(f64::INFINITY), "inf");
    }

    #[test]
    fn median_takes_the_middle_timing() {
        use std::time::Duration;
        let ms = |n| Duration::from_millis(n);
        assert_eq!(median(vec![ms(3), ms(1), ms(2)]), ms(2));
        assert_eq!(median(vec![ms(5)]), ms(5));
        assert_eq!(env_f64("PHI_NO_SUCH_KNOB", 4.0), 4.0);
    }

    #[test]
    fn workload_generation_at_smoke_scale() {
        let w = ExperimentScale::smoke().workload(ModelId::Vgg16, DatasetId::Cifar10);
        assert!(!w.layers.is_empty());
        assert!(w.layers.iter().all(|l| l.activations.rows() <= 128));
    }
}
