//! Pluggable execution backends: *what* to compute is fixed by the Phi
//! decomposition; *how* it runs — and what gets accounted — is a backend.
//!
//! The paper's hierarchical pattern sparsity defines a functional program
//! per layer (Level-1 PWP accumulations plus Level-2 corrections) that is
//! independent of how cycles are modeled. [`ExecutionBackend`] captures
//! that split:
//!
//! * [`SimBackend`] wraps [`PhiSimulator`] — cycle/energy accounting of
//!   the Phi accelerator, bit-identical to calling the simulator directly.
//!   Used when a batch asks for [`MetricsMode::FullSim`].
//! * [`CpuBackend`] executes the decomposition directly on the host: the
//!   PWP sparse matmul ([`phi_core::par_phi_matmul`], on the calling
//!   thread below a work grain and across the rayon pool above it),
//!   with no tile scheduler, packer walk, or traffic/energy bookkeeping
//!   on the hot path. It cannot model hardware; it exists to produce
//!   outputs as fast as the host allows.
//!
//! Both backends compute readout outputs through the same row-independent
//! kernel, so their functional results are bit-identical — the equivalence
//! the serving property tests pin down.

use crate::config::PhiConfig;
use crate::report::LayerReport;
use crate::sim::PhiSimulator;
use phi_core::{par_phi_matmul, Decomposition, PwpTable};
use snn_core::{GemmShape, Matrix};

/// A value-level backend choice, for configuration surfaces (server
/// configs, CLI flags, environment knobs) that pick an execution backend
/// at run time rather than compile time.
///
/// [`BackendKind::create`] instantiates the chosen backend behind a
/// `Box<dyn ExecutionBackend>` — the trait is object-safe, and the boxed
/// form implements [`ExecutionBackend`] itself, so code generic over a
/// backend accepts either a concrete type or a configured box.
///
/// ```
/// use phi_accel::{BackendKind, ExecutionBackend};
///
/// let kind: BackendKind = "cpu".parse()?;
/// let backend = kind.create();
/// assert_eq!(backend.name(), "cpu");
/// assert!(!backend.models_hardware());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The fast host-CPU kernel backend ([`CpuBackend`]): outputs only.
    /// The default — serving fronts want throughput unless asked otherwise.
    #[default]
    Cpu,
    /// The cycle-accurate simulator backend ([`SimBackend`]) with the
    /// default [`PhiConfig`]: full hardware accounting available.
    Sim,
}

impl BackendKind {
    /// Instantiates the chosen backend.
    pub fn create(self) -> Box<dyn ExecutionBackend> {
        match self {
            BackendKind::Cpu => Box::new(CpuBackend),
            BackendKind::Sim => Box::new(SimBackend::default()),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Cpu => "cpu",
            BackendKind::Sim => "sim",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cpu" => Ok(BackendKind::Cpu),
            "sim" => Ok(BackendKind::Sim),
            other => Err(format!("unknown backend '{other}' (expected 'cpu' or 'sim')")),
        }
    }
}

/// How much accounting a batch wants from its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsMode {
    /// Functional outputs only: no cycle, traffic, or energy modeling on
    /// the hot path. Every backend supports this.
    OutputsOnly,
    /// Full cycle-accurate simulation per layer. Only backends that model
    /// hardware ([`ExecutionBackend::models_hardware`]) support this.
    FullSim,
}

/// The readout half of a layer's work: the precomputed pattern–weight
/// products and the raw weights they were folded from.
#[derive(Debug, Clone, Copy)]
pub struct ReadoutPlan<'a> {
    /// Pattern–weight products for the layer's patterns.
    pub pwp: &'a PwpTable,
    /// The layer weights (`K × N`), for Level-2 corrections.
    pub weights: &'a Matrix,
}

/// Everything a backend needs to execute one decomposed layer.
#[derive(Debug)]
pub struct LayerWork<'a> {
    /// The layer's (possibly batch-fused) L1/L2 decomposition.
    pub decomp: &'a Decomposition,
    /// GEMM shape of the layer.
    pub shape: GemmShape,
    /// Extrapolation from the decomposed rows to the full layer.
    pub row_scale: f64,
    /// Layer name, carried into simulator reports.
    pub name: &'a str,
    /// When present, the backend computes the functional output through
    /// the PWP path.
    pub readout: Option<ReadoutPlan<'a>>,
}

/// What a backend produced for one layer.
#[derive(Debug)]
pub struct LayerOutput {
    /// Hardware accounting — `Some` only under [`MetricsMode::FullSim`]
    /// on a backend that models hardware. Its [`LayerReport::row_work`]
    /// holds one entry per row of [`LayerWork::decomp`], in row order (a
    /// fused batch's rows are in batch order).
    pub report: Option<LayerReport>,
    /// Functional output rows, when a [`ReadoutPlan`] was supplied.
    pub readout: Option<Matrix>,
}

/// A compute engine that executes decomposed layers.
///
/// Implementations must be deterministic in their functional outputs:
/// given the same [`LayerWork`], every backend returns bit-identical
/// readout matrices (the shared row-independent kernel guarantees this
/// for the built-in backends).
pub trait ExecutionBackend: Send + Sync {
    /// Short identifier used in reports and error messages.
    fn name(&self) -> &'static str;

    /// Whether this backend can honor [`MetricsMode::FullSim`].
    fn models_hardware(&self) -> bool;

    /// The metrics mode a batch gets when the caller does not pick one:
    /// full simulation when the backend models hardware, outputs-only
    /// otherwise.
    fn default_metrics(&self) -> MetricsMode {
        if self.models_hardware() {
            MetricsMode::FullSim
        } else {
            MetricsMode::OutputsOnly
        }
    }

    /// Executes one decomposed layer.
    ///
    /// Backends that do not model hardware return `report: None`
    /// regardless of `metrics`; callers wanting a hard failure instead
    /// should check [`ExecutionBackend::models_hardware`] up front (the
    /// serving executor does).
    ///
    /// A report's [`LayerReport::row_work`] must hold exactly one entry
    /// per decomposed row, in row order: the serving executor splits the
    /// layer's cycles and energy among a batch's requests by it, and
    /// panics on a report of any other length.
    fn run_layer(&self, work: &LayerWork<'_>, metrics: MetricsMode) -> LayerOutput;
}

// A boxed backend is itself a backend, so run-time-configured choices
// ([`BackendKind::create`]) slot into code generic over `B:
// ExecutionBackend` without a second code path.
impl ExecutionBackend for Box<dyn ExecutionBackend> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn models_hardware(&self) -> bool {
        (**self).models_hardware()
    }

    fn default_metrics(&self) -> MetricsMode {
        (**self).default_metrics()
    }

    fn run_layer(&self, work: &LayerWork<'_>, metrics: MetricsMode) -> LayerOutput {
        (**self).run_layer(work, metrics)
    }
}

/// Computes the functional readout for a layer, when planned — the one
/// shared kernel both built-in backends answer outputs through.
fn compute_readout(work: &LayerWork<'_>) -> Option<Matrix> {
    work.readout.map(|plan| {
        par_phi_matmul(work.decomp, plan.pwp, plan.weights)
            .expect("readout plan shapes must match the decomposition")
    })
}

/// The simulator-backed execution backend: functional outputs plus the
/// cycle-accurate [`LayerReport`]s of [`PhiSimulator::run_decomposition`],
/// bit-identical to calling the simulator directly.
#[derive(Debug, Clone)]
pub struct SimBackend {
    sim: PhiSimulator,
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::new(PhiConfig::default())
    }
}

impl SimBackend {
    /// Creates a simulator backend with the given accelerator config.
    ///
    /// # Panics
    ///
    /// Panics on a packer configuration [`PhiSimulator::new`] rejects.
    pub fn new(config: PhiConfig) -> Self {
        SimBackend { sim: PhiSimulator::new(config) }
    }

    /// The wrapped simulator.
    pub fn simulator(&self) -> &PhiSimulator {
        &self.sim
    }
}

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn models_hardware(&self) -> bool {
        true
    }

    fn run_layer(&self, work: &LayerWork<'_>, metrics: MetricsMode) -> LayerOutput {
        let report = (metrics == MetricsMode::FullSim).then(|| {
            self.sim.run_decomposition(work.decomp, work.shape, work.row_scale, work.name)
        });
        LayerOutput { report, readout: compute_readout(work) }
    }
}

/// The fast host-CPU backend: executes the decomposition directly via the
/// PWP sparse matmul, with zero accelerator bookkeeping.
///
/// Its outputs are bit-identical to [`SimBackend`]'s (both answer through
/// the same [`phi_core::par_phi_matmul`] kernel); it never produces a
/// [`LayerReport`]. The inner accumulation runs on the runtime-dispatched
/// [`phi_core::simd`] kernels — elementwise `f32` adds with no
/// reassociation — so readouts are also bit-identical across every
/// dispatch level (`PHI_SIMD=off|scalar|auto`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBackend;

impl ExecutionBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn models_hardware(&self) -> bool {
        false
    }

    fn run_layer(&self, work: &LayerWork<'_>, metrics: MetricsMode) -> LayerOutput {
        debug_assert!(
            metrics == MetricsMode::OutputsOnly,
            "CpuBackend cannot model hardware; callers must request OutputsOnly"
        );
        LayerOutput { report: None, readout: compute_readout(work) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_core::{decompose, phi_matmul, CalibrationConfig, Calibrator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_core::SpikeMatrix;

    struct Fixture {
        decomp: Decomposition,
        pwp: PwpTable,
        weights: Matrix,
        shape: GemmShape,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let acts = SpikeMatrix::random(64, 48, 0.2, &mut rng);
        let patterns = Calibrator::new(CalibrationConfig { q: 16, ..Default::default() })
            .calibrate(&acts, &mut rng);
        let weights = Matrix::random(48, 12, &mut rng);
        let pwp = PwpTable::new(&patterns, &weights).unwrap();
        let decomp = decompose(&acts, &patterns);
        Fixture { decomp, pwp, weights, shape: GemmShape::new(64, 48, 12) }
    }

    fn work<'a>(f: &'a Fixture, readout: bool) -> LayerWork<'a> {
        LayerWork {
            decomp: &f.decomp,
            shape: f.shape,
            row_scale: 2.0,
            name: "layer",
            readout: readout.then_some(ReadoutPlan { pwp: &f.pwp, weights: &f.weights }),
        }
    }

    #[test]
    fn backends_produce_bit_identical_readouts() {
        let f = fixture(11);
        let sim = SimBackend::default().run_layer(&work(&f, true), MetricsMode::FullSim);
        let cpu = CpuBackend.run_layer(&work(&f, true), MetricsMode::OutputsOnly);
        assert!(sim.readout.is_some());
        assert_eq!(sim.readout, cpu.readout);
        // Both equal the sequential reference kernel bit-for-bit.
        let reference = phi_matmul(&f.decomp, &f.pwp, &f.weights).unwrap();
        assert_eq!(cpu.readout.unwrap(), reference);
    }

    #[test]
    fn forced_scalar_readout_is_bit_identical_to_auto_dispatch() {
        use phi_core::simd::{self, SimdLevel};
        let f = fixture(16);
        let auto = CpuBackend.run_layer(&work(&f, true), MetricsMode::OutputsOnly);
        let prev = simd::force(SimdLevel::Scalar);
        let scalar = CpuBackend.run_layer(&work(&f, true), MetricsMode::OutputsOnly);
        simd::force(prev);
        // Matrix equality is exact (f32 bit patterns compare through ==
        // with no NaNs in play), so this pins SIMD == scalar end to end.
        assert_eq!(auto.readout, scalar.readout);
        assert!(auto.readout.is_some());
    }

    #[test]
    fn sim_backend_reports_are_bit_identical_to_the_simulator() {
        let f = fixture(12);
        let out = SimBackend::default().run_layer(&work(&f, false), MetricsMode::FullSim);
        let report = out.report.expect("FullSim produces a report");
        let direct = PhiSimulator::new(PhiConfig::default())
            .run_decomposition(&f.decomp, f.shape, 2.0, "layer");
        assert_eq!(report.cycles, direct.cycles);
        assert_eq!(report.breakdown, direct.breakdown);
        assert_eq!(report.energy.total_j(), direct.energy.total_j());
        assert_eq!(report.bit_ops, direct.bit_ops);
        assert!(out.readout.is_none());
    }

    #[test]
    fn outputs_only_skips_the_simulator() {
        let f = fixture(13);
        let out = SimBackend::default().run_layer(&work(&f, true), MetricsMode::OutputsOnly);
        assert!(out.report.is_none());
        assert!(out.readout.is_some());
    }

    #[test]
    fn cpu_backend_never_reports_hardware() {
        let f = fixture(14);
        let out = CpuBackend.run_layer(&work(&f, true), MetricsMode::OutputsOnly);
        assert!(out.report.is_none());
        assert!(!CpuBackend.models_hardware());
    }

    #[test]
    fn backend_kind_round_trips_and_creates_the_right_backend() {
        for kind in [BackendKind::Cpu, BackendKind::Sim] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
            let backend = kind.create();
            assert_eq!(backend.name(), kind.to_string());
            assert_eq!(backend.models_hardware(), kind == BackendKind::Sim);
        }
        assert_eq!(BackendKind::default(), BackendKind::Cpu);
        assert!("gpu".parse::<BackendKind>().is_err());
    }

    #[test]
    fn boxed_backend_delegates_to_its_inner_backend() {
        let f = fixture(15);
        let boxed: Box<dyn ExecutionBackend> = BackendKind::Cpu.create();
        assert_eq!(boxed.default_metrics(), MetricsMode::OutputsOnly);
        let out = boxed.run_layer(&work(&f, true), MetricsMode::OutputsOnly);
        let direct = CpuBackend.run_layer(&work(&f, true), MetricsMode::OutputsOnly);
        assert_eq!(out.readout, direct.readout);
        assert!(out.readout.is_some());
    }

    #[test]
    fn default_metrics_follow_hardware_modeling() {
        assert_eq!(SimBackend::default().default_metrics(), MetricsMode::FullSim);
        assert_eq!(CpuBackend.default_metrics(), MetricsMode::OutputsOnly);
        assert_eq!(SimBackend::default().name(), "sim");
        assert_eq!(CpuBackend.name(), "cpu");
    }
}
