//! E15 (Figure 2 e–i, §6.2.3): the autoencoder family on tuple data and
//! VAE/GAN synthetic-data quality.

use crate::{f3, ExperimentTable, Scale};
use dc_clean::TableEncoder;
use dc_data::DenseView;
use dc_nn::ae::{Autoencoder, DenoisingAutoencoder, KSparseAutoencoder, Noise};
use dc_nn::gan::Gan;
use dc_nn::metrics::roc_auc;
use dc_nn::optim::Adam;
use dc_nn::train::{
    run_dataset_epochs, AeTrainer, DaeTrainer, MlpTrainer, TrainOpts, Trainer, VaeTrainer,
};
use dc_nn::Vae;
use dc_tensor::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run E15.
pub fn run(scale: Scale) -> Vec<ExperimentTable> {
    vec![e15_reconstruction(scale), e15_generation(scale)]
}

/// `epochs` minibatch passes (batch 32) of `trainer` over `x` (and
/// `y`), under the model's dc-obs name.
fn train(
    name: &'static str,
    trainer: &mut dyn Trainer,
    x: &Tensor,
    y: Option<&Tensor>,
    epochs: usize,
    rng: &mut StdRng,
) {
    let opts = TrainOpts::default().with_epochs(epochs).with_batch_size(32);
    run_dataset_epochs(name, trainer, &mut DenseView::new(x, y), &opts, rng);
}

/// Encoded people-table rows as the common benchmark input.
fn encoded_people(scale: Scale, rng: &mut StdRng) -> Tensor {
    let table = dc_datagen::people_table(scale.pick(150, 300), rng);
    let encoder = TableEncoder::fit(&table, 32);
    encoder.encode(&table).0
}

/// E15a: reconstruction error under corruption for AE / k-sparse / DAE.
fn e15_reconstruction(scale: Scale) -> ExperimentTable {
    let mut rng = StdRng::seed_from_u64(1500);
    let x = encoded_people(scale, &mut rng);
    let d = x.cols;
    let epochs = scale.pick(30, 80);

    let mut ae = Autoencoder::new(d, &[d / 2], d / 4, &mut rng);
    let mut t = AeTrainer {
        model: &mut ae,
        opt: &mut Adam::new(0.005),
    };
    train("nn.ae", &mut t, &x, None, epochs, &mut rng);

    let mut ks = KSparseAutoencoder::new(d, d / 2, d / 8, &mut rng);
    for _ in 0..epochs {
        ks.train_step(&Tape::new(), &x, &mut Adam::new(0.005));
    }

    let mut dae =
        DenoisingAutoencoder::new(d, &[d / 2], d / 4, Noise::Masking { p: 0.2 }, &mut rng);
    let mut t = DaeTrainer {
        model: &mut dae,
        opt: &mut Adam::new(0.005),
    };
    train("nn.dae", &mut t, &x, None, epochs, &mut rng);

    // Evaluate: reconstruction MSE on clean input and on 20%-masked
    // input (the DAE should degrade least under corruption).
    let corrupted = Noise::Masking { p: 0.2 }.corrupt(&x, &mut rng);
    let mse = |xhat: &Tensor, target: &Tensor| -> f64 {
        (xhat.sub(target).norm() as f64).powi(2) / target.len() as f64
    };

    let mut t = ExperimentTable::new(
        "E15a",
        "Autoencoder family: reconstruction MSE, clean vs corrupted input (Fig 2 e–g)",
        &["model", "clean input", "20% masked input"],
    );
    t.push(vec![
        "autoencoder".into(),
        f3(mse(&ae.reconstruct(&x), &x)),
        f3(mse(&ae.reconstruct(&corrupted), &x)),
    ]);
    t.push(vec![
        "k-sparse AE".into(),
        f3(mse(&ks.reconstruct(&x), &x)),
        f3(mse(&ks.reconstruct(&corrupted), &x)),
    ]);
    t.push(vec![
        "denoising AE".into(),
        f3(mse(&dae.ae.reconstruct(&x), &x)),
        f3(mse(&dae.denoise(&corrupted), &x)),
    ]);
    t
}

/// E15b: VAE/GAN synthetic tuples (§6.2.3) — how well a discriminator
/// trained post-hoc can tell fakes from real rows (0.5 = perfect
/// generator), plus marginal mean gap.
fn e15_generation(scale: Scale) -> ExperimentTable {
    let mut rng = StdRng::seed_from_u64(1510);
    let x = encoded_people(scale, &mut rng);
    let d = x.cols;
    let n = x.rows;

    let mut vae = Vae::new(d, d / 2, d / 4, &mut rng);
    vae.beta = 0.1;
    let mut t = VaeTrainer {
        model: &mut vae,
        opt: &mut Adam::new(0.005),
    };
    train("nn.vae", &mut t, &x, None, scale.pick(30, 80), &mut rng);
    let vae_samples = vae.sample(n, &mut rng);

    let mut gan = Gan::new(d, d / 4, d / 2, &mut rng);
    gan.fit(&x, scale.pick(150, 500), 32, &mut rng);
    let gan_samples = gan.generate(n, &mut rng);

    // Post-hoc discriminator AUC: train a fresh classifier on
    // real-vs-fake; AUC near 0.5 means indistinguishable samples.
    let auc_against_real = |samples: &Tensor, rng: &mut StdRng| -> f64 {
        use dc_nn::linear::Activation;
        use dc_nn::loss::LossKind;
        use dc_nn::mlp::Mlp;
        let all = Tensor::vstack(&[x.clone(), samples.clone()]);
        let mut labels = vec![1.0f32; n];
        labels.extend(vec![0.0; samples.rows]);
        let y = Tensor::from_vec(all.rows, 1, labels.clone());
        let mut clf = Mlp::new(&[d, 16, 1], Activation::Relu, Activation::Identity, rng);
        let mut t = MlpTrainer {
            model: &mut clf,
            loss: LossKind::bce(),
            opt: &mut Adam::new(0.01),
        };
        train("nn.mlp", &mut t, &all, Some(&y), scale.pick(10, 25), rng);
        let scores = clf.predict_proba(&all);
        let gold: Vec<bool> = labels.iter().map(|&v| v >= 0.5).collect();
        roc_auc(&scores, &gold)
    };

    // Per-column mean RMSE: the global mean is ~0 for both the encoded
    // data (standardised numerics) and iid noise, so only a per-column
    // comparison separates a trained generator from the noise anchor.
    let mean_gap = |samples: &Tensor| -> f64 {
        let col_mean = |m: &Tensor, c: usize| -> f64 {
            (0..m.rows).map(|r| m.get(r, c) as f64).sum::<f64>() / m.rows.max(1) as f64
        };
        let se: f64 = (0..d)
            .map(|c| {
                let gap = col_mean(samples, c) - col_mean(&x, c);
                gap * gap
            })
            .sum();
        (se / d as f64).sqrt()
    };

    let mut t = ExperimentTable::new(
        "E15b",
        "Synthetic tuple generation: VAE vs GAN (§6.2.3)",
        &[
            "generator",
            "post-hoc discriminator AUC (0.5 = perfect)",
            "column-mean RMSE",
        ],
    );
    let vauc = auc_against_real(&vae_samples, &mut rng);
    t.push(vec!["VAE".into(), f3(vauc), f3(mean_gap(&vae_samples))]);
    let gauc = auc_against_real(&gan_samples, &mut rng);
    t.push(vec!["GAN".into(), f3(gauc), f3(mean_gap(&gan_samples))]);
    // Sanity anchor: pure noise should be trivially detectable.
    let noise = Tensor::randn(n, d, 1.0, &mut rng);
    let nauc = auc_against_real(&noise, &mut rng);
    t.push(vec![
        "iid noise (anchor)".into(),
        f3(nauc),
        f3(mean_gap(&noise)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15a_dae_is_most_robust_to_corruption() {
        let t = e15_reconstruction(Scale::Quick);
        let corrupted = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0].contains(name)).expect("row")[2]
                .parse()
                .expect("num")
        };
        assert!(
            corrupted("denoising") <= corrupted("autoencoder") + 0.01,
            "DAE {} vs AE {}",
            corrupted("denoising"),
            corrupted("autoencoder")
        );
    }

    #[test]
    fn e15b_generators_beat_the_noise_anchor() {
        let t = e15_generation(Scale::Quick);
        let col = |name: &str, idx: usize| -> f64 {
            t.rows.iter().find(|r| r[0].contains(name)).expect("row")[idx]
                .parse()
                .expect("num")
        };
        // A post-hoc discriminator spots non-binary one-hots trivially,
        // so AUC saturates for every generator on encoded tuples; the
        // global-statistics gap is the discriminating measure here.
        assert!(col("noise", 1) > 0.95, "noise anchor {}", col("noise", 1));
        assert!(
            col("VAE", 2) < col("noise", 2),
            "VAE gap {} vs noise gap {}",
            col("VAE", 2),
            col("noise", 2)
        );
        // §6.2.3's own caveat: GANs "often have issues with
        // convergence" — at quick scale we only require sanity, and the
        // full-scale EXPERIMENTS.md row records the measured gap.
        assert!(col("GAN", 2).is_finite() && col("GAN", 2) < 5.0);
    }
}
