//! Outlier detection (§3.1: "for outlier detection, one needs to detect
//! anomalous data that does not match a group of values").
//!
//! Three detectors at increasing sophistication: per-column z-scores,
//! embedding distance to the column centroid, and autoencoder
//! reconstruction error (the deep path, reusing `dc_nn::ae`).

use crate::encode::TableEncoder;
use dc_data::DenseView;
use dc_nn::ae::Autoencoder;
use dc_nn::optim::Adam;
use dc_nn::train::{run_dataset_epochs, AeTrainer, TrainOpts};
use dc_relational::Table;
use rand::rngs::StdRng;

/// Rows whose value in `col` deviates more than `threshold` standard
/// deviations from the column mean (numeric columns only).
pub fn zscore_outliers(table: &Table, col: usize, threshold: f64) -> Vec<usize> {
    let vals: Vec<(usize, f64)> = table
        .rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r[col].as_f64().map(|v| (i, v)))
        .collect();
    if vals.len() < 2 {
        return Vec::new();
    }
    let mean = vals.iter().map(|(_, v)| v).sum::<f64>() / vals.len() as f64;
    let var = vals
        .iter()
        .map(|(_, v)| (v - mean) * (v - mean))
        .sum::<f64>()
        / vals.len() as f64;
    let std = var.sqrt().max(1e-12);
    vals.into_iter()
        .filter(|(_, v)| ((v - mean) / std).abs() > threshold)
        .map(|(i, _)| i)
        .collect()
}

/// Train an autoencoder on the encoded table and return per-row
/// reconstruction errors — high scores are outlier candidates
/// ("anomalous data that does not match a group of values").
pub fn ae_outlier_scores(
    table: &Table,
    encoder: &TableEncoder,
    latent: usize,
    epochs: usize,
    rng: &mut StdRng,
) -> Vec<f32> {
    let (x, _) = encoder.encode(table);
    let mut ae = Autoencoder::new(encoder.width(), &[encoder.width() / 2], latent, rng);
    let mut opt = Adam::new(0.005);
    let opts = TrainOpts::default().with_epochs(epochs).with_batch_size(32);
    let mut trainer = AeTrainer {
        model: &mut ae,
        opt: &mut opt,
    };
    let mut ds = DenseView::new(&x, None);
    run_dataset_epochs("nn.ae", &mut trainer, &mut ds, &opts, rng);
    ae.reconstruction_errors(&x)
}

/// Cosine-distance of each row's embedding vector from the mean vector;
/// rows far from the centroid "do not match the group".
pub fn centroid_distances(vectors: &[Vec<f32>]) -> Vec<f32> {
    use dc_tensor::tensor::cosine;
    if vectors.is_empty() {
        return Vec::new();
    }
    let d = vectors[0].len();
    let mut mean = vec![0.0f32; d];
    for v in vectors {
        for (m, &x) in mean.iter_mut().zip(v) {
            *m += x;
        }
    }
    let inv = 1.0 / vectors.len() as f32;
    mean.iter_mut().for_each(|m| *m *= inv);
    vectors.iter().map(|v| 1.0 - cosine(v, &mean)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::{AttrType, Schema, Value};
    use rand::SeedableRng;

    #[test]
    fn zscore_finds_planted_outlier() {
        let mut t = Table::new("z", Schema::new(&[("x", AttrType::Float)]));
        for _ in 0..30 {
            t.push(vec![Value::Float(10.0)]);
        }
        for i in 0..10 {
            t.push(vec![Value::Float(10.0 + (i as f64) * 0.1)]);
        }
        t.push(vec![Value::Float(1000.0)]);
        let out = zscore_outliers(&t, 0, 3.0);
        assert_eq!(out, vec![40]);
    }

    #[test]
    fn zscore_handles_nulls_and_tiny_columns() {
        let mut t = Table::new("z", Schema::new(&[("x", AttrType::Float)]));
        t.push(vec![Value::Null]);
        assert!(zscore_outliers(&t, 0, 2.0).is_empty());
    }

    #[test]
    fn ae_scores_rank_anomalous_row_highest() {
        // Inliers satisfy y ≈ x; the outlier breaks the correlation
        // while keeping each marginal in range, so per-column z-scores
        // cannot see it but a 1-D-bottleneck autoencoder can.
        let mut rng = StdRng::seed_from_u64(700);
        let mut t = Table::new(
            "corr",
            Schema::new(&[("x", AttrType::Float), ("y", AttrType::Float)]),
        );
        for i in 0..60 {
            let x = (i as f64) / 10.0 - 3.0;
            t.push(vec![Value::Float(x), Value::Float(x)]);
        }
        t.push(vec![Value::Float(2.5), Value::Float(-2.5)]);
        let outlier_row = t.len() - 1;
        assert!(zscore_outliers(&t, 0, 3.0).is_empty());
        assert!(zscore_outliers(&t, 1, 3.0).is_empty());
        let encoder = TableEncoder::fit(&t, 8);
        let scores = ae_outlier_scores(&t, &encoder, 1, 150, &mut rng);
        let max_idx = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        assert_eq!(max_idx, outlier_row, "scores {scores:?}");
    }

    #[test]
    fn centroid_distance_flags_flipped_vector() {
        let mut vs = vec![vec![1.0f32, 0.1]; 20];
        vs.push(vec![-1.0, -0.1]);
        let d = centroid_distances(&vs);
        let max_idx = d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        assert_eq!(max_idx, 20);
        assert!(centroid_distances(&[]).is_empty());
    }
}
