//! Figure 11: accuracy of the DNN counterpart, the bit-sparsity SNN, Phi
//! without PAFT, and Phi with PAFT.
//!
//! Unlike the density experiments (which use the statistical workload
//! generator), accuracy requires a *real* trained network, so this binary
//! trains the from-scratch surrogate-gradient SNN of `snn-core` on the
//! prototype dataset, verifies Phi's losslessness on its activations, and
//! runs PAFT as actual fine-tuning with the Hamming regularizer — the same
//! four bars as the paper at laptop scale:
//!
//! * **DNN** — a float MLP with identical topology (reference ceiling);
//! * **Bit sparsity** — the trained SNN evaluated directly;
//! * **Phi w/o PAFT** — identical to bit sparsity by construction
//!   (decomposition is lossless; asserted, not assumed);
//! * **Phi w PAFT** — after fine-tuning with the pattern regularizer,
//!   slightly lower accuracy, visibly lower Level-2 density.
//!
//! Run: `cargo run --release -p phi-bench --bin fig11`

use phi_analysis::Table;
use phi_bench::{fmt, pct, results_dir, smoke};
use phi_core::{decompose, CalibrationConfig, Calibrator, PaftRegularizer, PwpTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_core::dataset::{prototype_dataset, split, PrototypeConfig};
use snn_core::network::SnnNetwork;
use snn_core::train::{evaluate, record_activations, train, SgdConfig};
use snn_core::{LifConfig, Matrix, SpikeMatrix};

/// Trains a float ReLU MLP of the same topology as the SNN (the "DNN
/// counterpart" bar). Plain SGD on softmax cross-entropy.
fn train_dnn(
    data: &snn_core::dataset::Dataset,
    test: &snn_core::dataset::Dataset,
    hidden: usize,
    epochs: usize,
    rng: &mut StdRng,
) -> f64 {
    let d_in = data.inputs.cols();
    let classes = data.num_classes;
    let mut w1 = Matrix::kaiming(d_in, hidden, rng);
    let mut w2 = Matrix::kaiming(hidden, classes, rng);
    let lr = 0.1f32;
    for _ in 0..epochs {
        for start in (0..data.len()).step_by(32) {
            let idx: Vec<usize> = (start..(start + 32).min(data.len())).collect();
            let (x, labels) = data.batch(&idx);
            let h_pre = x.matmul(&w1).expect("shapes fixed");
            let h = Matrix::from_fn(h_pre.rows(), h_pre.cols(), |r, c| h_pre[(r, c)].max(0.0));
            let logits = h.matmul(&w2).expect("shapes fixed");
            // Softmax CE gradient.
            let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
            for r in 0..logits.rows() {
                let row = logits.row(r);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
                let sum: f32 = exps.iter().sum();
                for c in 0..row.len() {
                    dlogits[(r, c)] =
                        (exps[c] / sum - if c == labels[r] { 1.0 } else { 0.0 }) / idx.len() as f32;
                }
            }
            let dw2 = h.transpose().matmul(&dlogits).expect("shapes fixed");
            let dh = dlogits.matmul(&w2.transpose()).expect("shapes fixed");
            let dh_relu = Matrix::from_fn(dh.rows(), dh.cols(), |r, c| {
                if h_pre[(r, c)] > 0.0 {
                    dh[(r, c)]
                } else {
                    0.0
                }
            });
            let dw1 = x.transpose().matmul(&dh_relu).expect("shapes fixed");
            w1.add_scaled(&dw1, -lr);
            w2.add_scaled(&dw2, -lr);
        }
    }
    // Evaluate.
    let idx: Vec<usize> = (0..test.len()).collect();
    let (x, labels) = test.batch(&idx);
    let h_pre = x.matmul(&w1).expect("shapes fixed");
    let h = Matrix::from_fn(h_pre.rows(), h_pre.cols(), |r, c| h_pre[(r, c)].max(0.0));
    let logits = h.matmul(&w2).expect("shapes fixed");
    let correct = (0..test.len())
        .filter(|&r| {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0);
            pred == labels[r]
        })
        .count();
    correct as f64 / test.len() as f64
}

fn element_density(net: &SnnNetwork, data: &snn_core::dataset::Dataset, seed: u64) -> f64 {
    let acts = record_activations(net, data).expect("record activations");
    let spikes = SpikeMatrix::from_matrix_threshold(&acts[0], 0.5);
    let mut rng = StdRng::seed_from_u64(seed);
    let config = CalibrationConfig { q: 32, ..Default::default() };
    let patterns = Calibrator::new(config).calibrate(&spikes, &mut rng);
    decompose(&spikes, &patterns).stats().element_density()
}

fn main() {
    let smoke = smoke();
    let mut rng = StdRng::seed_from_u64(2024);
    // Harder than the unit-test dataset (more classes, heavier noise,
    // fewer informative features) so the four bars separate like the
    // paper's Fig. 11 instead of saturating.
    let data = prototype_dataset(
        PrototypeConfig {
            features: 48,
            classes: 6,
            samples: if smoke { 300 } else { 720 },
            noise: 0.22,
            active_fraction: 0.22,
        },
        &mut rng,
    );
    let (train_set, test_set) = split(&data, 0.25);
    let hidden = 64;
    let epochs = if smoke { 6 } else { 20 };

    // DNN counterpart.
    let dnn_acc = train_dnn(&train_set, &test_set, hidden, epochs, &mut rng);

    // Bit-sparsity SNN.
    let mut net = SnnNetwork::new(48, &[hidden], 6, 4, LifConfig::default(), &mut rng);
    let sgd = SgdConfig { lr: 0.05, momentum: 0.9, batch_size: 16 };
    train(&mut net, &train_set, &sgd, epochs, None, &mut rng).expect("train SNN");
    let snn_acc = evaluate(&net, &test_set).expect("evaluate SNN");
    let density_before = element_density(&net, &test_set, 1);

    // Phi w/o PAFT: verify losslessness on real activations instead of
    // assuming it — the decomposed GEMM must equal the dense spike GEMM.
    let acts = record_activations(&net, &test_set).expect("record activations");
    let spikes = SpikeMatrix::from_matrix_threshold(&acts[0], 0.5);
    let config = CalibrationConfig { q: 32, ..Default::default() };
    let patterns = Calibrator::new(config).calibrate(&spikes, &mut StdRng::seed_from_u64(3));
    let decomp = decompose(&spikes, &patterns);
    assert!(decomp.verify_lossless(&spikes), "Phi decomposition must be lossless");
    let weights = &net.layers()[1].weights;
    let pwp = PwpTable::new(&patterns, weights).expect("pwp");
    let phi_out = phi_core::phi_matmul(&decomp, &pwp, weights).expect("phi gemm");
    let dense_out = spikes.spike_matmul(weights).expect("dense gemm");
    let gemm_diff = phi_out.max_abs_diff(&dense_out).expect("same shape");
    assert!(gemm_diff < 1e-3, "functional GEMM diverged by {gemm_diff}");
    let phi_acc = snn_acc; // lossless by verified construction

    // Phi with PAFT: fine-tune with the Hamming regularizer at the paper's
    // recommended strength, and once more with an aggressive λ to map the
    // accuracy/efficiency frontier §3.3 describes (higher λ → patterns more
    // pronounced → lower density, eventually at accuracy cost).
    let mut paft_net = net.clone();
    let reg = PaftRegularizer::new(vec![patterns.clone()], vec![6], 2e-4);
    let paft_sgd = SgdConfig { lr: 0.01, momentum: 0.9, batch_size: 16 };
    train(&mut paft_net, &train_set, &paft_sgd, 5, Some(&reg), &mut rng).expect("PAFT fine-tune");
    let paft_acc = evaluate(&paft_net, &test_set).expect("evaluate PAFT");
    let density_after = element_density(&paft_net, &test_set, 1);

    let mut aggressive_net = net.clone();
    let strong_reg = PaftRegularizer::new(vec![patterns.clone()], vec![6], 4e-3);
    train(&mut aggressive_net, &train_set, &paft_sgd, 8, Some(&strong_reg), &mut rng)
        .expect("aggressive PAFT");
    let aggressive_acc = evaluate(&aggressive_net, &test_set).expect("evaluate");
    let density_aggressive = element_density(&aggressive_net, &test_set, 1);

    let mut table = Table::new(
        "Fig 11: accuracy (real trained SNN, prototype dataset)",
        &["Variant", "Accuracy", "L2 element density"],
    );
    table.row_owned(vec!["DNN counterpart".into(), pct(dnn_acc), "-".into()]);
    table.row_owned(vec!["Bit sparsity (SNN)".into(), pct(snn_acc), pct(density_before)]);
    table.row_owned(vec!["Phi w/o PAFT".into(), pct(phi_acc), pct(density_before)]);
    table.row_owned(vec!["Phi w PAFT".into(), pct(paft_acc), pct(density_after)]);
    table.row_owned(vec![
        "Phi w PAFT (aggressive lambda)".into(),
        pct(aggressive_acc),
        pct(density_aggressive),
    ]);
    println!("{table}");
    println!("functional check: |phi_gemm - dense_gemm|_max = {}", fmt(gemm_diff as f64, 6));
    table.write_csv(results_dir().join("fig11.csv")).expect("write fig11.csv");
    println!("paper shape: Phi w/o PAFT == bit sparsity exactly; PAFT trades ~1% accuracy for lower density");
}
