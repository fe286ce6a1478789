//! The offline compile stage: calibrate patterns and decompose weights
//! into pattern–weight products, once, producing a [`CompiledModel`].
//!
//! This is the paper's offline half (§3.2's calibration plus §4.4's PWP
//! precomputation) packaged as a build step: everything serve-time traffic
//! needs is derived here and frozen, so the online half never touches a
//! calibration path.

use crate::artifact::{CompiledLayer, CompiledModel};
use crate::error::{Result, RuntimeError};
use crate::executor::InferenceRequest;
use phi_core::{CalibrationConfig, Calibrator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use snn_core::Matrix;
use snn_workloads::Workload;

/// Which layers get weights (and therefore precomputed PWPs and
/// serve-time functional outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightsMode {
    /// No weights: the artifact drives cycle/energy accounting only.
    None,
    /// Weights for the readout (last) layer only — enough for functional
    /// request outputs at a fraction of the artifact size.
    #[default]
    Readout,
    /// Weights for every layer.
    All,
}

/// Configuration of the compile stage.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Calibration settings (pattern width `k`, budget `q`, engine, …).
    pub calibration: CalibrationConfig,
    /// Seed for calibration and weight generation; compiles are
    /// deterministic in `(workload, options)`.
    pub seed: u64,
    /// Which layers carry weights.
    pub weights: WeightsMode,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            calibration: CalibrationConfig::default(),
            seed: 7,
            weights: WeightsMode::default(),
        }
    }
}

impl CompileOptions {
    /// A reduced-budget configuration for tests and doc examples.
    pub fn fast() -> Self {
        CompileOptions {
            calibration: CalibrationConfig { q: 16, max_rows: 512, ..Default::default() },
            ..Default::default()
        }
    }

    /// Overrides the weights mode.
    pub fn with_weights(mut self, weights: WeightsMode) -> Self {
        self.weights = weights;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Compiles workloads into [`CompiledModel`] artifacts.
///
/// See the [crate-level example](crate) for the full compile → serve flow.
#[derive(Debug, Clone, Default)]
pub struct ModelCompiler {
    options: CompileOptions,
}

impl ModelCompiler {
    /// Creates a compiler.
    pub fn new(options: CompileOptions) -> Self {
        ModelCompiler { options }
    }

    /// The active options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Runs the offline stage over a workload: per layer, calibrate
    /// patterns on the calibration split and (per [`WeightsMode`]) draw
    /// deterministic weights and fold them into PWPs.
    ///
    /// Layers are independent — per-layer RNG streams derive from the
    /// compile seed and the layer index alone — so they are compiled in
    /// parallel with results identical to a sequential walk.
    pub fn compile(&self, workload: &Workload) -> CompiledModel {
        let options = self.options;
        let calibrator = Calibrator::new(options.calibration);
        let last = workload.layers.len().saturating_sub(1);
        let indexed: Vec<(usize, &snn_workloads::LayerWorkload)> =
            workload.layers.iter().enumerate().collect();
        let layers: Vec<CompiledLayer> = indexed
            .into_par_iter()
            .map(|(i, layer)| {
                let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(i as u64));
                let patterns = calibrator.calibrate(&layer.calibration, &mut rng);
                let with_weights = match options.weights {
                    WeightsMode::None => false,
                    WeightsMode::Readout => i == last,
                    WeightsMode::All => true,
                };
                let weights = with_weights.then(|| {
                    let mut wrng = StdRng::seed_from_u64(
                        options.seed ^ (i as u64 + 1).wrapping_mul(0x5851_F42D_4C95_7F2D),
                    );
                    Matrix::random(layer.spec.shape.k, layer.spec.shape.n, &mut wrng)
                });
                CompiledLayer::new(
                    layer.spec.name.clone(),
                    layer.spec.shape,
                    layer.spec.timesteps,
                    patterns,
                    weights,
                )
            })
            .collect();
        CompiledModel::new(
            format!("{}/{}", workload.model, workload.dataset),
            options.calibration.k,
            options.calibration.q,
            options.seed,
            layers,
        )
    }

    /// Recalibrates an incumbent artifact's pattern sets from sampled
    /// traffic — the model-lifecycle recompile step. The caller supplies
    /// the samples (whatever activations it collected) and hands the
    /// result to [`PhiServer::propose`](crate::PhiServer::propose) to vet
    /// it against live traffic.
    ///
    /// Per layer, the samples' activations for that layer become the
    /// calibration dumps (each sample weighted equally), calibrated with
    /// this compiler's engine under the incumbent's `(k, q)` so the new
    /// pattern sets drop into the same tile geometry. Everything else —
    /// label, seed, shapes, timesteps, and crucially the *weights* — is
    /// carried over from the incumbent, so a recalibration that lands on
    /// identical patterns produces a byte-identical artifact (the basis of
    /// the canary's bit-identity tolerance tier), and a drift-adapted one
    /// changes only the pattern sets and their derived PWPs.
    ///
    /// Deterministic in `(incumbent, samples)`: the per-layer RNG streams
    /// derive from the incumbent's seed exactly as in [`Self::compile`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyBatch`] when `samples` is empty, and
    /// a shape error when any sample's layer count or per-layer column
    /// width disagrees with the incumbent. (Unlike serving, calibration
    /// stacks dumps row-wise, so samples may be ragged across layers —
    /// the original calibration split itself is.)
    pub fn recompile_from_samples(
        &self,
        incumbent: &CompiledModel,
        samples: &[InferenceRequest],
    ) -> Result<CompiledModel> {
        if samples.is_empty() {
            return Err(RuntimeError::EmptyBatch);
        }
        for sample in samples {
            if sample.layers.len() != incumbent.layers().len() {
                return Err(RuntimeError::Shape {
                    op: "sample layer count",
                    expected: incumbent.layers().len(),
                    actual: sample.layers.len(),
                });
            }
            for (m, layer) in sample.layers.iter().zip(incumbent.layers()) {
                if m.cols() != layer.shape.k {
                    return Err(RuntimeError::Shape {
                        op: "sample layer width",
                        expected: layer.shape.k,
                        actual: m.cols(),
                    });
                }
                if m.rows() == 0 {
                    return Err(RuntimeError::Shape { op: "sample rows", expected: 1, actual: 0 });
                }
            }
        }
        let calibration =
            CalibrationConfig { k: incumbent.k(), q: incumbent.q(), ..self.options.calibration };
        let calibrator = Calibrator::new(calibration);
        let indexed: Vec<(usize, &CompiledLayer)> = incumbent.layers().iter().enumerate().collect();
        let layers: Vec<CompiledLayer> = indexed
            .into_par_iter()
            .map(|(i, layer)| {
                let dumps: Vec<snn_core::SpikeMatrix> =
                    samples.iter().map(|s| s.layers[i].clone()).collect();
                let mut rng = StdRng::seed_from_u64(incumbent.seed().wrapping_add(i as u64));
                let patterns = calibrator.calibrate_many(&dumps, &mut rng);
                CompiledLayer::new(
                    layer.name.clone(),
                    layer.shape,
                    layer.timesteps,
                    patterns,
                    layer.weights.clone(),
                )
            })
            .collect();
        Ok(CompiledModel::new(
            incumbent.label().to_string(),
            incumbent.k(),
            incumbent.q(),
            incumbent.seed(),
            layers,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_workloads::{DatasetId, ModelId, WorkloadConfig};

    fn tiny_workload() -> Workload {
        WorkloadConfig::new(ModelId::ResNet18, DatasetId::Cifar10)
            .with_max_rows(32)
            .with_calibration_rows(64)
            .generate()
    }

    #[test]
    fn compile_is_deterministic() {
        let w = tiny_workload();
        let compiler = ModelCompiler::new(CompileOptions::fast());
        let a = compiler.compile(&w);
        let b = compiler.compile(&w);
        assert_eq!(a.to_bytes(), b.to_bytes());
        let c = ModelCompiler::new(CompileOptions::fast().with_seed(8)).compile(&w);
        assert_ne!(a.to_bytes(), c.to_bytes());
    }

    #[test]
    fn weights_modes_cover_expected_layers() {
        let w = tiny_workload();
        for (mode, expected) in
            [(WeightsMode::None, 0), (WeightsMode::Readout, 1), (WeightsMode::All, w.layers.len())]
        {
            let m = ModelCompiler::new(CompileOptions::fast().with_weights(mode)).compile(&w);
            let with_weights = m.layers().iter().filter(|l| l.weights.is_some()).count();
            assert_eq!(with_weights, expected, "{mode:?}");
            assert_eq!(
                m.layers().iter().filter(|l| l.pwp.is_some()).count(),
                expected,
                "PWPs must mirror weights ({mode:?})"
            );
        }
    }

    #[test]
    fn recompile_from_the_calibration_split_reproduces_the_artifact() {
        // Feeding the original per-layer calibration dumps back through
        // `recompile_from_samples` must reproduce the incumbent byte for
        // byte: same dumps, same RNG streams, same weights carried over.
        let w = tiny_workload();
        let compiler = ModelCompiler::new(CompileOptions::fast());
        let incumbent = compiler.compile(&w);
        let sample =
            InferenceRequest::new(w.layers.iter().map(|l| l.calibration.clone()).collect());
        let recompiled = compiler.recompile_from_samples(&incumbent, &[sample]).unwrap();
        assert_eq!(recompiled.to_bytes(), incumbent.to_bytes());
    }

    #[test]
    fn recompile_adapts_patterns_to_shifted_samples_and_keeps_weights() {
        let w = tiny_workload();
        let compiler = ModelCompiler::new(CompileOptions::fast());
        let incumbent = compiler.compile(&w);
        let drifted = w.drifted(0xD81F);
        let samples: Vec<InferenceRequest> =
            drifted.sample_requests(4, 16, 99).into_iter().map(InferenceRequest::new).collect();
        let recompiled = compiler.recompile_from_samples(&incumbent, &samples).unwrap();
        assert_ne!(recompiled.to_bytes(), incumbent.to_bytes(), "patterns must adapt");
        for (new, old) in recompiled.layers().iter().zip(incumbent.layers()) {
            assert_eq!(new.weights, old.weights, "weights carry over unchanged");
            assert_eq!((new.shape, new.timesteps), (old.shape, old.timesteps));
        }
        assert_eq!(recompiled.label(), incumbent.label());
        // Deterministic in (incumbent, samples).
        let again = compiler.recompile_from_samples(&incumbent, &samples).unwrap();
        assert_eq!(again.to_bytes(), recompiled.to_bytes());
    }

    #[test]
    fn recompile_refuses_empty_or_mismatched_samples() {
        let w = tiny_workload();
        let compiler = ModelCompiler::new(CompileOptions::fast());
        let incumbent = compiler.compile(&w);
        assert!(matches!(
            compiler.recompile_from_samples(&incumbent, &[]),
            Err(RuntimeError::EmptyBatch)
        ));
        let bad = InferenceRequest::new(vec![snn_core::SpikeMatrix::zeros(2, 64)]);
        assert!(compiler.recompile_from_samples(&incumbent, &[bad]).is_err());
    }

    #[test]
    fn compiled_shapes_match_the_workload() {
        let w = tiny_workload();
        let m = ModelCompiler::new(CompileOptions::fast()).compile(&w);
        assert_eq!(m.layers().len(), w.layers.len());
        assert_eq!(m.label(), "ResNet18/CIFAR10");
        for (cl, lw) in m.layers().iter().zip(&w.layers) {
            assert_eq!(cl.shape, lw.spec.shape);
            assert_eq!(cl.name, lw.spec.name);
            assert_eq!(cl.patterns.num_partitions(), lw.spec.shape.k.div_ceil(m.k()));
            assert_eq!(cl.total_rows(), lw.spec.shape.m * lw.spec.timesteps);
        }
        let readout = m.readout();
        let w_mat = readout.weights.as_ref().expect("readout carries weights");
        assert_eq!(w_mat.rows(), readout.shape.k);
        assert_eq!(w_mat.cols(), readout.shape.n);
    }
}
