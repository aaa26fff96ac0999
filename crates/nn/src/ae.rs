//! The autoencoder family of Figure 2 (e)–(h): plain, k-sparse,
//! denoising and variational autoencoders.
//!
//! These back two of the paper's concrete DC proposals: MIDA-style
//! multiple imputation with denoising autoencoders (§5.3) and
//! VAE/GAN-based synthetic data generation (§6.2.3).

use crate::linear::{Activation, LinearVars};
use crate::mlp::Mlp;
use crate::optim::Optimizer;
use dc_tensor::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Input-corruption schemes for denoising autoencoders.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Noise {
    /// Zero out each coordinate independently with probability `p`
    /// ("stochastically corrupts the input", §2.1).
    Masking {
        /// Per-coordinate drop probability.
        p: f32,
    },
    /// Add iid Gaussian noise with the given standard deviation.
    Gaussian {
        /// Noise standard deviation.
        std: f32,
    },
}

impl Noise {
    /// Produce a corrupted copy of `x`.
    pub fn corrupt(self, x: &Tensor, rng: &mut StdRng) -> Tensor {
        match self {
            Noise::Masking { p } => {
                x.map_with_rng(rng, |v, r| if r.gen::<f32>() < p { 0.0 } else { v })
            }
            Noise::Gaussian { std } => {
                let noise = Tensor::randn(x.rows, x.cols, std, rng);
                x.add(&noise)
            }
        }
    }
}

trait MapWithRng {
    fn map_with_rng(&self, rng: &mut StdRng, f: impl Fn(f32, &mut StdRng) -> f32) -> Tensor;
}

impl MapWithRng for Tensor {
    fn map_with_rng(&self, rng: &mut StdRng, f: impl Fn(f32, &mut StdRng) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v, rng)).collect(),
        }
    }
}

/// A plain undercomplete autoencoder (Fig 2 e): encoder MLP to a
/// `d' < d` latent space, decoder MLP back to the input space.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Autoencoder {
    /// Encoder network (input → latent).
    pub encoder: Mlp,
    /// Decoder network (latent → input).
    pub decoder: Mlp,
}

impl Autoencoder {
    /// Symmetric autoencoder: `input → hidden… → latent → hidden… → input`.
    pub fn new(input_dim: usize, hidden: &[usize], latent_dim: usize, rng: &mut StdRng) -> Self {
        let mut enc_dims = vec![input_dim];
        enc_dims.extend_from_slice(hidden);
        enc_dims.push(latent_dim);
        let mut dec_dims: Vec<usize> = enc_dims.clone();
        dec_dims.reverse();
        let ae = Autoencoder {
            encoder: Mlp::new(&enc_dims, Activation::Tanh, Activation::Identity, rng),
            decoder: Mlp::new(&dec_dims, Activation::Tanh, Activation::Identity, rng),
        };
        if dc_check::enabled() {
            // Construct-time static validation of the full
            // encode → decode → loss graph.
            let tape = Tape::new();
            let evars = ae.encoder.bind(&tape);
            let dvars = ae.decoder.bind(&tape);
            let x = tape.var(Tensor::zeros(1, input_dim));
            let z = ae.encoder.forward_tape(&tape, x, &evars, None);
            let xhat = ae.decoder.forward_tape(&tape, z, &dvars, None);
            let loss = tape.mse_loss(xhat, Tensor::zeros(1, input_dim));
            dc_check::debug_validate("Autoencoder::new", &tape, loss);
        }
        ae
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.encoder.out_dim()
    }

    /// Encode to the latent space.
    pub fn encode(&self, x: &Tensor) -> Tensor {
        self.encoder.forward(x)
    }

    /// Decode from the latent space.
    pub fn decode(&self, z: &Tensor) -> Tensor {
        self.decoder.forward(z)
    }

    /// Full reconstruction.
    pub fn reconstruct(&self, x: &Tensor) -> Tensor {
        self.decode(&self.encode(x))
    }

    /// Per-row squared reconstruction error — the outlier score used by
    /// `dc-clean`'s autoencoder detector.
    pub fn reconstruction_errors(&self, x: &Tensor) -> Vec<f32> {
        let r = self.reconstruct(x);
        (0..x.rows)
            .map(|i| {
                x.row_slice(i)
                    .iter()
                    .zip(r.row_slice(i))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum()
            })
            .collect()
    }

    /// One gradient step reconstructing `target` from `input` (they
    /// differ for denoising training), recorded on `tape`. Returns the
    /// MSE loss.
    pub fn train_step(
        &mut self,
        tape: &Tape,
        input: &Tensor,
        target: &Tensor,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        let vx = tape.var_from(input);
        let evars = self.encoder.bind(tape);
        let dvars = self.decoder.bind(tape);
        let z = self.encoder.forward_tape(tape, vx, &evars, None);
        let xhat = self.decoder.forward_tape(tape, z, &dvars, None);
        let loss = tape.mse_loss(xhat, target.clone());
        let loss_value = tape.item(loss);
        dc_check::debug_validate("Autoencoder::train_step", tape, loss);
        tape.backward(loss);
        opt.begin_step();
        self.apply_grads(opt, tape, &evars, &dvars);
        loss_value
    }

    /// Encoder then decoder updates, in one optimiser slot sequence.
    fn apply_grads(
        &mut self,
        opt: &mut dyn Optimizer,
        tape: &Tape,
        evars: &[LinearVars],
        dvars: &[LinearVars],
    ) {
        self.encoder.apply_grads(opt, 0, tape, evars);
        let base = self.encoder.layers.len();
        self.decoder.apply_grads(opt, base, tape, dvars);
    }
}

/// A k-sparse autoencoder (Fig 2 f): keeps only the `k` largest hidden
/// activations per row and zeroes the rest, "to extract many small
/// features from a dataset" (§2.1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KSparseAutoencoder {
    /// Underlying autoencoder (single hidden bottleneck recommended).
    pub ae: Autoencoder,
    /// Number of hidden units kept active per example.
    pub k: usize,
}

impl KSparseAutoencoder {
    /// Build with a single latent layer of `latent_dim` units, of which
    /// `k` stay active.
    pub fn new(input_dim: usize, latent_dim: usize, k: usize, rng: &mut StdRng) -> Self {
        assert!(k >= 1 && k <= latent_dim, "k must be in 1..=latent_dim");
        KSparseAutoencoder {
            ae: Autoencoder::new(input_dim, &[], latent_dim, rng),
            k,
        }
    }

    /// 0/1 mask keeping the top-`k` magnitudes of each row.
    fn topk_mask(z: &Tensor, k: usize) -> Tensor {
        let mut mask = Tensor::zeros(z.rows, z.cols);
        for r in 0..z.rows {
            let row = z.row_slice(r);
            let mut idx: Vec<usize> = (0..row.len()).collect();
            idx.sort_by(|&a, &b| {
                row[b]
                    .abs()
                    .partial_cmp(&row[a].abs())
                    .expect("finite activations")
            });
            for &i in idx.iter().take(k) {
                mask.set(r, i, 1.0);
            }
        }
        mask
    }

    /// Sparse latent code for `x` (at most `k` non-zeros per row).
    pub fn encode(&self, x: &Tensor) -> Tensor {
        let z = self.ae.encode(x);
        let mask = Self::topk_mask(&z, self.k);
        z.mul(&mask)
    }

    /// Reconstruct through the sparse bottleneck.
    pub fn reconstruct(&self, x: &Tensor) -> Tensor {
        self.ae.decode(&self.encode(x))
    }

    /// One training step recorded on `tape`; the top-k mask is treated
    /// as constant for the backward pass (the standard straight-through
    /// choice for k-sparse autoencoders).
    pub fn train_step(&mut self, tape: &Tape, x: &Tensor, opt: &mut dyn Optimizer) -> f32 {
        let vx = tape.var_from(x);
        let evars = self.ae.encoder.bind(tape);
        let dvars = self.ae.decoder.bind(tape);
        let z = self.ae.encoder.forward_tape(tape, vx, &evars, None);
        let mask = Self::topk_mask(&tape.value(z), self.k);
        let zs = tape.dropout(z, mask); // reuse masking op: grads pass through kept units
        let xhat = self.ae.decoder.forward_tape(tape, zs, &dvars, None);
        let loss = tape.mse_loss(xhat, x.clone());
        let loss_value = tape.item(loss);
        dc_check::debug_validate("KSparseAutoencoder::train_step", tape, loss);
        tape.backward(loss);
        opt.begin_step();
        self.ae.apply_grads(opt, tape, &evars, &dvars);
        loss_value
    }
}

/// A denoising autoencoder (Fig 2 g): reconstructs the clean input from
/// a corrupted version, learning "distributed representations that are
/// often robust to corruptions" (§2.1). The workhorse of MIDA-style
/// imputation in `dc-clean`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DenoisingAutoencoder {
    /// Underlying autoencoder.
    pub ae: Autoencoder,
    /// Corruption applied to inputs during training.
    pub noise: Noise,
}

impl DenoisingAutoencoder {
    /// Build with the given architecture and corruption scheme.
    pub fn new(
        input_dim: usize,
        hidden: &[usize],
        latent_dim: usize,
        noise: Noise,
        rng: &mut StdRng,
    ) -> Self {
        DenoisingAutoencoder {
            ae: Autoencoder::new(input_dim, hidden, latent_dim, rng),
            noise,
        }
    }

    /// Reconstruct (denoise) possibly-corrupted rows.
    pub fn denoise(&self, x: &Tensor) -> Tensor {
        self.ae.reconstruct(x)
    }
}

/// A variational autoencoder (Fig 2 h): a "continuous, well structured
/// latent space" via the reparameterisation trick, trained on
/// reconstruction + β·KL.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vae {
    /// Shared encoder trunk (input → hidden).
    pub trunk: Mlp,
    /// Head producing the latent mean.
    pub mu_head: crate::linear::Linear,
    /// Head producing the latent log-variance.
    pub logvar_head: crate::linear::Linear,
    /// Decoder (latent → input).
    pub decoder: Mlp,
    /// Weight on the KL term.
    pub beta: f32,
}

impl Vae {
    /// Build a VAE with one hidden layer of `hidden` units and a latent
    /// space of `latent_dim`.
    pub fn new(input_dim: usize, hidden: usize, latent_dim: usize, rng: &mut StdRng) -> Self {
        let vae = Vae {
            trunk: Mlp::new(
                &[input_dim, hidden],
                Activation::Tanh,
                Activation::Tanh,
                rng,
            ),
            mu_head: crate::linear::Linear::new(hidden, latent_dim, Activation::Identity, rng),
            logvar_head: crate::linear::Linear::new(hidden, latent_dim, Activation::Identity, rng),
            decoder: Mlp::new(
                &[latent_dim, hidden, input_dim],
                Activation::Tanh,
                Activation::Identity,
                rng,
            ),
            beta: 1.0,
        };
        if dc_check::enabled() {
            // Construct-time static validation of the deterministic path
            // trunk → mu head → decoder → reconstruction loss (the eps
            // draw is the only piece left out — it is a plain leaf).
            let tape = Tape::new();
            let tvars = vae.trunk.bind(&tape);
            let muv = vae.mu_head.bind(&tape);
            let lvv = vae.logvar_head.bind(&tape);
            let dvars = vae.decoder.bind(&tape);
            let x = tape.var(Tensor::zeros(1, input_dim));
            let h = vae.trunk.forward_tape(&tape, x, &tvars, None);
            let mu = vae.mu_head.forward_tape(&tape, h, muv);
            let _logvar = vae.logvar_head.forward_tape(&tape, h, lvv);
            let xhat = vae.decoder.forward_tape(&tape, mu, &dvars, None);
            let _ = tape.mse_loss(xhat, Tensor::zeros(1, input_dim));
            dc_check::debug_validate_graph("Vae::new", &tape);
        }
        vae
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.mu_head.out_dim()
    }

    /// Posterior mean for `x` (the deterministic embedding).
    pub fn encode_mean(&self, x: &Tensor) -> Tensor {
        self.mu_head.forward(&self.trunk.forward(x))
    }

    /// Decode latent vectors to data space.
    pub fn decode(&self, z: &Tensor) -> Tensor {
        self.decoder.forward(z)
    }

    /// Draw `n` synthetic rows by decoding standard-normal latents —
    /// the §6.2.3 synthetic-data path.
    pub fn sample(&self, n: usize, rng: &mut StdRng) -> Tensor {
        let z = Tensor::randn(n, self.latent_dim(), 1.0, rng);
        self.decode(&z)
    }

    /// One training step recorded on `tape`; returns
    /// `(reconstruction_mse, kl)`.
    pub fn train_step(
        &mut self,
        tape: &Tape,
        x: &Tensor,
        opt: &mut dyn Optimizer,
        rng: &mut StdRng,
    ) -> (f32, f32) {
        let vx = tape.var_from(x);
        let tvars = self.trunk.bind(tape);
        let muv = self.mu_head.bind(tape);
        let lvv = self.logvar_head.bind(tape);
        let dvars = self.decoder.bind(tape);

        let h = self.trunk.forward_tape(tape, vx, &tvars, None);
        let mu = self.mu_head.forward_tape(tape, h, muv);
        let logvar = self.logvar_head.forward_tape(tape, h, lvv);

        // Reparameterise: z = mu + eps ⊙ exp(logvar / 2)
        let eps = tape.var(Tensor::randn(x.rows, self.latent_dim(), 1.0, rng));
        let std = tape.exp(tape.scale(logvar, 0.5));
        let z = tape.add(mu, tape.mul(eps, std));

        let xhat = self.decoder.forward_tape(tape, z, &dvars, None);
        let recon = tape.mse_loss(xhat, x.clone());

        // KL(q || N(0,I)) = -0.5 · mean(1 + logvar − mu² − exp(logvar))
        let inner = tape.sub(
            tape.add_scalar(logvar, 1.0),
            tape.add(tape.mul(mu, mu), tape.exp(logvar)),
        );
        let kl = tape.scale(tape.mean(inner), -0.5);
        let loss = tape.add(recon, tape.scale(kl, self.beta));

        let recon_v = tape.item(recon);
        let kl_v = tape.item(kl);
        dc_check::debug_validate("Vae::train_step", tape, loss);
        tape.backward(loss);

        opt.begin_step();
        let t = self.trunk.layers.len();
        self.trunk.apply_grads(opt, 0, tape, &tvars);
        self.mu_head.apply_grads(opt, t, tape, &muv);
        self.logvar_head.apply_grads(opt, t + 1, tape, &lvv);
        self.decoder.apply_grads(opt, t + 2, tape, &dvars);
        (recon_v, kl_v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::train::{
        run_dataset_epochs, AeTrainer, DaeTrainer, EpochStats, TrainOpts, Trainer, VaeTrainer,
    };
    use dc_data::DenseView;
    use rand::SeedableRng;

    /// `epochs` shuffled minibatch passes of `trainer` over `x`.
    fn fit(
        trainer: &mut dyn Trainer,
        x: &Tensor,
        epochs: usize,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> Vec<EpochStats> {
        let opts = TrainOpts::default()
            .with_epochs(epochs)
            .with_batch_size(batch_size);
        run_dataset_epochs("nn.test", trainer, &mut DenseView::new(x, None), &opts, rng)
    }

    fn two_cluster_data(rng: &mut StdRng, n: usize) -> Tensor {
        // Points near (1,1,1,1) or (-1,-1,-1,-1): intrinsic dim ≈ 1.
        let mut rows = Vec::new();
        for i in 0..n {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let noise = Tensor::randn(1, 4, 0.1, rng);
            rows.push(Tensor::row(vec![
                sign + noise.data[0],
                sign + noise.data[1],
                sign + noise.data[2],
                sign + noise.data[3],
            ]));
        }
        Tensor::vstack(&rows)
    }

    #[test]
    fn autoencoder_compresses_clusters() {
        let mut rng = StdRng::seed_from_u64(31);
        let x = two_cluster_data(&mut rng, 60);
        let mut ae = Autoencoder::new(4, &[6], 1, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut t = AeTrainer {
            model: &mut ae,
            opt: &mut opt,
        };
        let trace = fit(&mut t, &x, 120, 16, &mut rng);
        let last = trace.last().expect("trace").loss;
        assert!(last < 0.05, "final loss {last}");
        // The 1-D code must separate the two clusters.
        let z = ae.encode(&x);
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for i in 0..x.rows {
            if x.get(i, 0) > 0.0 {
                pos.push(z.get(i, 0));
            } else {
                neg.push(z.get(i, 0));
            }
        }
        let mp = pos.iter().sum::<f32>() / pos.len() as f32;
        let mn = neg.iter().sum::<f32>() / neg.len() as f32;
        assert!((mp - mn).abs() > 0.5, "codes not separated: {mp} vs {mn}");
    }

    #[test]
    fn reconstruction_error_flags_outliers() {
        let mut rng = StdRng::seed_from_u64(32);
        let x = two_cluster_data(&mut rng, 60);
        let mut ae = Autoencoder::new(4, &[6], 2, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut t = AeTrainer {
            model: &mut ae,
            opt: &mut opt,
        };
        fit(&mut t, &x, 150, 16, &mut rng);
        let outlier = Tensor::row(vec![5.0, -5.0, 5.0, -5.0]);
        let inlier_err = ae.reconstruction_errors(&x).iter().sum::<f32>() / x.rows as f32;
        let outlier_err = ae.reconstruction_errors(&outlier)[0];
        assert!(
            outlier_err > 10.0 * inlier_err,
            "outlier {outlier_err} vs inlier {inlier_err}"
        );
    }

    #[test]
    fn ksparse_enforces_sparsity() {
        let mut rng = StdRng::seed_from_u64(33);
        let ks = KSparseAutoencoder::new(6, 10, 3, &mut rng);
        let x = Tensor::randn(5, 6, 1.0, &mut rng);
        let z = ks.encode(&x);
        for r in 0..z.rows {
            let nz = z.row_slice(r).iter().filter(|&&v| v != 0.0).count();
            assert!(nz <= 3, "row {r} has {nz} non-zeros");
        }
    }

    #[test]
    fn ksparse_trains() {
        let mut rng = StdRng::seed_from_u64(34);
        let x = two_cluster_data(&mut rng, 40);
        let mut ks = KSparseAutoencoder::new(4, 8, 2, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..200 {
            let l = ks.train_step(&Tape::new(), &x, &mut opt);
            if step == 0 {
                first = l;
            }
            last = l;
        }
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn dae_denoises_masked_inputs() {
        let mut rng = StdRng::seed_from_u64(35);
        let x = two_cluster_data(&mut rng, 80);
        let mut dae = DenoisingAutoencoder::new(4, &[8], 2, Noise::Masking { p: 0.25 }, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut t = DaeTrainer {
            model: &mut dae,
            opt: &mut opt,
        };
        fit(&mut t, &x, 200, 16, &mut rng);
        // Corrupt the first coordinate of a fresh positive-cluster point;
        // the DAE should restore it towards +1.
        let corrupted = Tensor::row(vec![0.0, 1.0, 1.0, 1.0]);
        let restored = dae.denoise(&corrupted);
        assert!(
            restored.data[0] > 0.5,
            "expected restoration towards +1, got {}",
            restored.data[0]
        );
    }

    #[test]
    fn vae_latent_is_regularised_and_samples_look_clustered() {
        let mut rng = StdRng::seed_from_u64(36);
        let x = two_cluster_data(&mut rng, 100);
        let mut vae = Vae::new(4, 8, 2, &mut rng);
        vae.beta = 0.1;
        let mut opt = Adam::new(0.01);
        let mut t = VaeTrainer {
            model: &mut vae,
            opt: &mut opt,
        };
        let trace = fit(&mut t, &x, 150, 20, &mut rng);
        let recon = trace.last().expect("trace").loss;
        assert!(recon < 0.2, "reconstruction {recon}");
        // Samples should land near one of the two cluster centres.
        let samples = vae.sample(50, &mut rng);
        let near = (0..samples.rows)
            .filter(|&r| {
                let m = samples.row_slice(r).iter().sum::<f32>() / 4.0;
                m.abs() > 0.3
            })
            .count();
        assert!(near > 25, "only {near}/50 samples near a cluster");
    }

    #[test]
    fn noise_masking_zeroes_roughly_p_fraction() {
        let mut rng = StdRng::seed_from_u64(37);
        let x = Tensor::ones(50, 50);
        let c = Noise::Masking { p: 0.3 }.corrupt(&x, &mut rng);
        let zeros = c.data.iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 2500.0;
        assert!((frac - 0.3).abs() < 0.05, "masked fraction {frac}");
    }
}
