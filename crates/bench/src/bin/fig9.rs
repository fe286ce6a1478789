//! Figure 9 (and the Fig. 1 context): t-SNE visualizations of activation
//! rows.
//!
//! * Fig 9a — calibration ("train") vs runtime ("test") activations of the
//!   same layer share the cluster structure;
//! * Fig 9b/9c — test activations without vs with PAFT: PAFT makes
//!   clusters fewer and denser;
//! * Fig 1 — random noise vs DNN-like continuous activations vs SNN binary
//!   activations: SNN rows are the most clustered.
//!
//! Embeddings are written as CSV (x, y, group); cluster quality is
//! quantified with neighborhood compactness (lower = more clustered).
//!
//! Run: `cargo run --release -p phi-bench --bin fig9`

use phi_analysis::tsne::{Tsne, TsneConfig};
use phi_analysis::{neighborhood_compactness, scatter, Table};
use phi_bench::{fmt, results_dir, smoke, ExperimentScale};
use phi_core::AlignmentModel;
use phi_snn::pipeline::calibrate_layer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::SpikeMatrix;
use snn_workloads::{DatasetId, ModelId};

fn rows_as_points(m: &SpikeMatrix, limit: usize) -> Vec<Vec<f32>> {
    (0..m.rows().min(limit)).map(|r| m.row_to_f32(r)).collect()
}

fn to_f64(points: &[[f64; 2]]) -> Vec<Vec<f64>> {
    points.iter().map(|p| p.to_vec()).collect()
}

fn write_embedding(name: &str, groups: &[(&str, &[[f64; 2]])]) {
    let mut table = Table::new(name, &["x", "y", "group"]);
    for (group, points) in groups {
        for p in *points {
            table.row_owned(vec![fmt(p[0], 4), fmt(p[1], 4), group.to_string()]);
        }
    }
    let path = results_dir().join(format!("{name}.csv"));
    table.write_csv(&path).expect("write embedding csv");
    println!("wrote {}", path.display());
}

fn main() {
    let scale = ExperimentScale::from_env();
    let limit = if smoke() { 120 } else { 400 };
    let workload = scale.workload(ModelId::Vgg16, DatasetId::Cifar100);
    // A mid-network conv layer has enough width for visible structure.
    let layer = &workload.layers[4];
    let tsne = Tsne::new(TsneConfig { iterations: 250, perplexity: 25.0, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(99);

    // --- Fig 9a: train vs test -------------------------------------------
    let train_pts = rows_as_points(&layer.calibration, limit);
    let test_pts = rows_as_points(&layer.activations, limit);
    let mut joint = train_pts.clone();
    joint.extend(test_pts.iter().cloned());
    let embedding = tsne.embed(&joint, &mut rng);
    let (train_emb, test_emb) = embedding.split_at(train_pts.len());
    write_embedding("fig9a_train_vs_test", &[("train", train_emb), ("test", test_emb)]);

    // --- Fig 9b/9c: PAFT effect ------------------------------------------
    let pipeline = scale.pipeline();
    let patterns = calibrate_layer(layer, &pipeline.calibration, 99);
    let aligned = AlignmentModel::new(0.6).align(&layer.activations, &patterns, &mut rng);
    let no_paft_pts = rows_as_points(&layer.activations, limit);
    let paft_pts = rows_as_points(&aligned, limit);
    let emb_no = tsne.embed(&no_paft_pts, &mut rng);
    let emb_paft = tsne.embed(&paft_pts, &mut rng);
    write_embedding("fig9b_no_paft", &[("test", &emb_no)]);
    write_embedding("fig9c_with_paft", &[("test", &emb_paft)]);

    // --- Fig 1 context: noise vs DNN vs SNN ------------------------------
    let dims = layer.activations.cols();
    let noise_pts: Vec<Vec<f32>> =
        (0..limit).map(|_| (0..dims).map(|_| rng.gen::<f32>()).collect()).collect();
    // DNN-like: continuous activations around per-cluster means (smooth,
    // weaker structure than binary spikes).
    let dnn_pts: Vec<Vec<f32>> = (0..limit)
        .map(|i| {
            let center = (i % 6) as f32 * 0.15;
            (0..dims).map(|_| (center + rng.gen::<f32>()).min(1.0)).collect()
        })
        .collect();
    let emb_noise = tsne.embed(&noise_pts, &mut rng);
    let emb_dnn = tsne.embed(&dnn_pts, &mut rng);
    write_embedding("fig1_noise", &[("noise", &emb_noise)]);
    write_embedding("fig1_dnn", &[("dnn", &emb_dnn)]);
    write_embedding("fig1_snn", &[("snn", &emb_no)]);

    // --- Terminal rendering (the paper's scatter panels) -----------------
    println!("Fig 9a: train (.) vs test (o) activations share cluster structure");
    let joint_labels: Vec<usize> =
        (0..train_emb.len()).map(|_| 0).chain((0..test_emb.len()).map(|_| 1)).collect();
    println!("{}\n", scatter(&embedding, &joint_labels, &['.', 'o'], 68, 20));
    println!("Fig 1a (noise) vs Fig 1c (SNN): structure emerges only for spikes");
    let noise_labels = vec![0usize; emb_noise.len()];
    println!("{}", scatter(&emb_noise, &noise_labels, &['x'], 68, 14));
    let snn_labels = vec![0usize; emb_no.len()];
    println!("{}\n", scatter(&emb_no, &snn_labels, &['*'], 68, 14));

    // --- Quantification ----------------------------------------------------
    let mut table = Table::new(
        "Fig 9 / Fig 1 cluster quality (neighborhood compactness; lower = more clustered)",
        &["embedding", "compactness"],
    );
    let k = 8;
    for (name, emb) in [
        ("normal noise (Fig 1a)", &emb_noise),
        ("DNN-like (Fig 1b)", &emb_dnn),
        ("SNN activations (Fig 1c)", &emb_no),
        ("SNN train split (Fig 9a)", &train_emb.to_vec()),
        ("SNN test, no PAFT (Fig 9b)", &emb_no),
        ("SNN test, with PAFT (Fig 9c)", &emb_paft),
    ] {
        let c = neighborhood_compactness(&to_f64(emb), k).unwrap_or(f64::NAN);
        table.row_owned(vec![name.to_owned(), fmt(c, 4)]);
    }
    println!("{table}");
    table.write_csv(results_dir().join("fig9_metrics.csv")).expect("write fig9_metrics.csv");
    println!("paper shape: SNN < DNN < noise in compactness; PAFT compacts further; train and test overlap");
}
