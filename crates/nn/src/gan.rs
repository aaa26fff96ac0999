//! Generative adversarial networks (Figure 2 i).
//!
//! "Two neural networks working together — a generator and a
//! discriminator — where the former generates content that will be then
//! judged by the latter" (§2.1). Used for synthetic tuple generation in
//! §6.2.3 and as a learned-transformation direction in §6.2.2.

use crate::linear::Activation;
use crate::mlp::Mlp;
use crate::optim::{Adam, Optimizer};
use crate::train::{Batch, StepStats, TrainCtx, Trainer};
use dc_tensor::{Tape, Tensor};
use rand::rngs::StdRng;

/// A GAN pairing a generator MLP with a discriminator MLP.
pub struct Gan {
    /// Generator: latent `z` → data space.
    pub generator: Mlp,
    /// Discriminator: data space → single real/fake logit.
    pub discriminator: Mlp,
    /// Latent dimensionality of the generator input.
    pub latent_dim: usize,
    gen_opt: Adam,
    disc_opt: Adam,
}

impl Gan {
    /// Build a GAN for `data_dim`-dimensional rows.
    pub fn new(data_dim: usize, latent_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let gan = Gan {
            generator: Mlp::new(
                &[latent_dim, hidden, data_dim],
                Activation::LeakyRelu,
                Activation::Identity,
                rng,
            ),
            discriminator: Mlp::new(
                &[data_dim, hidden, 1],
                Activation::LeakyRelu,
                Activation::Identity,
                rng,
            ),
            latent_dim,
            gen_opt: Adam::new(2e-3),
            disc_opt: Adam::new(1e-3),
        };
        if dc_check::enabled() {
            // Construct-time static validation of the adversarial
            // composite: discriminator(generator(z)) → loss.
            let tape = Tape::new();
            let gvars = gan.generator.bind(&tape);
            let dvars = gan.discriminator.bind(&tape);
            let z = tape.var(Tensor::zeros(1, latent_dim));
            let fake = gan.generator.forward_tape(&tape, z, &gvars, None);
            let logits = gan.discriminator.forward_tape(&tape, fake, &dvars, None);
            let loss = tape.bce_with_logits(logits, Tensor::ones(1, 1), Tensor::ones(1, 1));
            dc_check::debug_validate("Gan::new", &tape, loss);
        }
        gan
    }

    /// Generate `n` synthetic rows.
    pub fn generate(&self, n: usize, rng: &mut StdRng) -> Tensor {
        let z = Tensor::randn(n, self.latent_dim, 1.0, rng);
        self.generator.forward(&z)
    }

    /// Discriminator probability that each row of `x` is real.
    pub fn discriminate(&self, x: &Tensor) -> Vec<f32> {
        self.discriminator.predict_proba(x)
    }

    /// One adversarial round on a real minibatch, recorded on `tape`.
    /// Returns `(disc_loss, gen_loss)`.
    ///
    /// The discriminator trains on real rows labelled 1 and fresh fakes
    /// labelled 0; the generator then trains to push its fakes towards
    /// the discriminator's "real" verdict ("increase the number of
    /// mistakes made by the discriminator"). The tape is recycled
    /// between the two sub-steps, so both record from a warm pool.
    pub fn train_round(&mut self, tape: &Tape, real: &Tensor, rng: &mut StdRng) -> (f32, f32) {
        let n = real.rows;

        // --- discriminator step (generator frozen) ---
        let fake = self.generate(n, rng);
        let batch = Tensor::vstack(&[real.clone(), fake]);
        let mut labels = vec![1.0; n];
        labels.extend(vec![0.0; n]);
        let y = Tensor::from_vec(2 * n, 1, labels);
        let disc_loss = {
            let vx = tape.var_from(&batch);
            let dvars = self.discriminator.bind(tape);
            let logits = self.discriminator.forward_tape(tape, vx, &dvars, None);
            let loss = tape.bce_with_logits(logits, y, Tensor::ones(2 * n, 1));
            let lv = tape.item(loss);
            dc_check::debug_validate("Gan::train_round[disc]", tape, loss);
            tape.backward(loss);
            self.disc_opt.begin_step();
            self.discriminator
                .apply_grads(&mut self.disc_opt, 0, tape, &dvars);
            lv
        };
        tape.recycle();

        // --- generator step (discriminator frozen) ---
        let gen_loss = {
            let z = tape.var(Tensor::randn(n, self.latent_dim, 1.0, rng));
            let gvars = self.generator.bind(tape);
            let dvars = self.discriminator.bind(tape); // participates but is not updated
            let fake = self.generator.forward_tape(tape, z, &gvars, None);
            let logits = self.discriminator.forward_tape(tape, fake, &dvars, None);
            // Non-saturating loss: label fakes as real.
            let loss = tape.bce_with_logits(logits, Tensor::ones(n, 1), Tensor::ones(n, 1));
            let lv = tape.item(loss);
            dc_check::debug_validate("Gan::train_round[gen]", tape, loss);
            tape.backward(loss);
            self.gen_opt.begin_step();
            self.generator
                .apply_grads(&mut self.gen_opt, 0, tape, &gvars);
            lv
        };

        (disc_loss, gen_loss)
    }

    /// Train for `rounds` minibatch rounds over `data`.
    ///
    /// Each round samples one fresh minibatch (rather than sweeping
    /// full epochs), so the loop stays local instead of delegating to
    /// [`crate::train::run_dataset_epochs`]; the per-round step itself
    /// goes through the unified [`Trainer`] impl.
    pub fn fit(&mut self, data: &Tensor, rounds: usize, batch: usize, rng: &mut StdRng) {
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..data.rows).collect();
        let tape = Tape::new();
        // Pooled across rounds: the take list and the batch tensor are
        // refilled in place, so warm rounds allocate nothing.
        let mut take: Vec<usize> = Vec::with_capacity(batch.min(data.rows));
        let mut b = Batch {
            x: Tensor::zeros(0, data.cols),
            y: None,
        };
        for round in 0..rounds {
            let _round = dc_obs::span("nn.gan");
            order.shuffle(rng);
            take.clear();
            take.extend(order.iter().copied().take(batch.min(data.rows)));
            dc_data::gather_rows_into(data, &take, &mut b.x);
            let mut ctx = TrainCtx {
                rng,
                tape: &tape,
                epoch: round,
                step: round,
            };
            let s = Trainer::fit(self, &b, &mut ctx);
            tape.recycle();
            dc_obs::series_push("nn.gan", "disc_loss", s.loss as f64);
            dc_obs::series_push("nn.gan", "gen_loss", s.aux as f64);
        }
    }
}

impl Trainer for Gan {
    /// One adversarial round; `loss` is the discriminator loss, `aux`
    /// the generator loss.
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let (disc, gen) = self.train_round(ctx.tape, &batch.x, ctx.rng);
        StepStats {
            loss: disc,
            aux: gen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn gan_learns_a_shifted_gaussian() {
        let mut rng = StdRng::seed_from_u64(40);
        // Real data: N(3, 0.5²) in 2-D.
        let real = {
            let base = Tensor::randn(200, 2, 0.5, &mut rng);
            base.map(|v| v + 3.0)
        };
        let mut gan = Gan::new(2, 4, 16, &mut rng);
        gan.fit(&real, 400, 32, &mut rng);
        let fake = gan.generate(200, &mut rng);
        let mean = fake.mean();
        assert!(
            (mean - 3.0).abs() < 1.0,
            "generated mean {mean}, expected near 3"
        );
    }

    #[test]
    fn discriminator_initially_separates_obvious_fakes() {
        let mut rng = StdRng::seed_from_u64(41);
        let real = Tensor::randn(100, 2, 0.3, &mut rng).map(|v| v + 5.0);
        let mut gan = Gan::new(2, 4, 16, &mut rng);
        // Train only a few rounds: discriminator should already score the
        // real cluster above untrained-generator output.
        let take: Vec<usize> = (0..32).collect();
        let mut batch = Tensor::zeros(0, real.cols);
        for _ in 0..60 {
            dc_data::gather_rows_into(&real, &take, &mut batch);
            gan.train_round(&Tape::new(), &batch, &mut rng);
        }
        let p_real: f32 = gan.discriminate(&real).iter().sum::<f32>() / 100.0;
        let junk = Tensor::randn(100, 2, 0.3, &mut rng).map(|v| v - 5.0);
        let p_junk: f32 = gan.discriminate(&junk).iter().sum::<f32>() / 100.0;
        assert!(
            p_real > p_junk,
            "real {p_real} should outscore junk {p_junk}"
        );
    }
}
