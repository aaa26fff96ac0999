//! Transfer learning utilities (§6.2.5): "train a DL model for one task
//! and tune the model for the new task by using the limited labeled
//! data instead of starting from scratch", and the two pre-trained-
//! model modes of §3.3 — (a) feature extraction, (b) fine-tuning.

use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::mlp::Mlp;
use dc_nn::optim::Optimizer;
use dc_nn::train::{Batch, StepStats, TrainCtx, Trainer};
use dc_tensor::{Tape, Tensor};
use rand::rngs::StdRng;

/// A pre-trained trunk with a fresh task head; the first
/// `frozen_layers` trunk layers are excluded from updates.
pub struct FineTuner {
    /// The model (trunk layers + new head as the final layer).
    pub model: Mlp,
    /// Number of leading layers never updated.
    pub frozen_layers: usize,
}

impl FineTuner {
    /// Replace the head of a pre-trained model with a fresh layer of
    /// `out_dim` outputs, freezing the first `frozen_layers` layers.
    ///
    /// Mode (a) of §3.3 — pure feature extraction — is
    /// `frozen_layers = trunk depth`; mode (b) — fine-tuning — freezes
    /// fewer.
    pub fn new(
        mut pretrained: Mlp,
        out_dim: usize,
        frozen_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let last = pretrained
            .layers
            .pop()
            .expect("pretrained model has layers");
        let feature_dim = last.in_dim();
        pretrained.layers.push(dc_nn::linear::Linear::new(
            feature_dim,
            out_dim,
            Activation::Identity,
            rng,
        ));
        assert!(frozen_layers < pretrained.layers.len());
        FineTuner {
            model: pretrained,
            frozen_layers,
        }
    }

    /// One fine-tuning step recorded on `tape`; only unfrozen layers
    /// receive updates. Returns the loss.
    pub fn train_batch(
        &mut self,
        tape: &Tape,
        x: &Tensor,
        y: &Tensor,
        loss: LossKind,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        let vx = tape.var_from(x);
        let vars = self.model.bind(tape);
        let out = self.model.forward_tape(tape, vx, &vars, None);
        let loss_var = loss.on_tape(tape, out, y);
        let lv = tape.item(loss_var);
        tape.backward(loss_var);
        opt.begin_step();
        let layers = self.model.layers.iter_mut().zip(&vars).enumerate();
        for (slot, (layer, lvars)) in layers.skip(self.frozen_layers) {
            layer.apply_grads(opt, slot, tape, lvars);
        }
        lv
    }
}

/// [`Trainer`] over a [`FineTuner`] with a fixed loss and optimiser;
/// train it with [`dc_nn::train::run_dataset_epochs`] under the dc-obs
/// name `"weak.finetune"`.
pub struct FineTuneTrainer<'a> {
    /// The fine-tuner being trained.
    pub tuner: &'a mut FineTuner,
    /// Loss applied to each batch.
    pub loss: LossKind,
    /// Optimiser shared across steps.
    pub opt: &'a mut dyn Optimizer,
}

impl Trainer for FineTuneTrainer<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let loss = self
            .tuner
            .train_batch(ctx.tape, &batch.x, batch.targets(), self.loss, self.opt);
        StepStats { loss, aux: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_data::DenseView;
    use dc_nn::optim::Adam;
    use dc_nn::train::{run_dataset_epochs, MlpTrainer, TrainOpts};
    use rand::SeedableRng;

    /// Source task: classify x by sign of (x₀ + x₁). Target task: sign
    /// of (x₀ + x₁) XOR shifted — related representation, new head.
    #[test]
    fn fine_tuning_converges_faster_than_scratch_with_frozen_trunk() {
        let mut rng = StdRng::seed_from_u64(1);
        // Pre-train on source task.
        let xs = Tensor::randn(200, 4, 1.0, &mut rng);
        let ys = Tensor::from_vec(
            200,
            1,
            (0..200)
                .map(|i| ((xs.get(i, 0) + xs.get(i, 1)) > 0.0) as u8 as f32)
                .collect(),
        );
        let mut source = Mlp::new(
            &[4, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let mut opt = Adam::new(0.02);
        let mut trainer = MlpTrainer {
            model: &mut source,
            loss: LossKind::bce(),
            opt: &mut opt,
        };
        let opts = TrainOpts::default().with_epochs(60).with_batch_size(32);
        let mut ds = DenseView::new(&xs, Some(&ys));
        run_dataset_epochs("nn.mlp", &mut trainer, &mut ds, &opts, &mut rng);

        // Target task: same decision boundary, inverted labels — the
        // trunk's representation transfers, only the head must flip.
        let xt = Tensor::randn(40, 4, 1.0, &mut rng);
        let yt = Tensor::from_vec(
            40,
            1,
            (0..40)
                .map(|i| ((xt.get(i, 0) + xt.get(i, 1)) <= 0.0) as u8 as f32)
                .collect(),
        );

        let mut tuner = FineTuner::new(source.clone(), 1, 1, &mut rng);
        let mut topt = Adam::new(0.05);
        for _ in 0..40 {
            tuner.train_batch(&Tape::new(), &xt, &yt, LossKind::bce(), &mut topt);
        }
        let tuned_pred: Vec<bool> = tuner
            .model
            .predict_proba(&xt)
            .iter()
            .map(|&p| p >= 0.5)
            .collect();
        let gold: Vec<bool> = yt.data.iter().map(|&v| v >= 0.5).collect();
        let tuned_acc = dc_nn::metrics::accuracy(&tuned_pred, &gold);
        assert!(tuned_acc > 0.85, "fine-tuned accuracy {tuned_acc}");
    }

    #[test]
    fn frozen_layers_do_not_move() {
        let mut rng = StdRng::seed_from_u64(2);
        let source = Mlp::new(&[3, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut tuner = FineTuner::new(source, 1, 1, &mut rng);
        let before = tuner.model.layers[0].w.clone();
        let x = Tensor::randn(16, 3, 1.0, &mut rng);
        let y = Tensor::from_vec(16, 1, vec![1.0; 16]);
        let mut opt = Adam::new(0.05);
        for _ in 0..10 {
            tuner.train_batch(&Tape::new(), &x, &y, LossKind::bce(), &mut opt);
        }
        assert_eq!(tuner.model.layers[0].w, before, "frozen trunk moved");
        // The head must have moved.
        assert!(tuner.model.layers[1].w.data.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn fit_through_unified_loop_learns() {
        let mut rng = StdRng::seed_from_u64(4);
        let source = Mlp::new(&[3, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut tuner = FineTuner::new(source, 1, 1, &mut rng);
        let x = Tensor::randn(32, 3, 1.0, &mut rng);
        let y = Tensor::from_vec(
            32,
            1,
            (0..32).map(|i| (x.get(i, 0) > 0.0) as u8 as f32).collect(),
        );
        let mut opt = Adam::new(0.05);
        let opts = TrainOpts::default().with_epochs(30).with_batch_size(8);
        let mut trainer = FineTuneTrainer {
            tuner: &mut tuner,
            loss: LossKind::bce(),
            opt: &mut opt,
        };
        let mut ds = DenseView::new(&x, Some(&y));
        let trace = run_dataset_epochs("weak.finetune", &mut trainer, &mut ds, &opts, &mut rng);
        assert_eq!(trace.len(), 30);
        assert!(trace.last().expect("trace").loss < trace.first().expect("trace").loss);
    }

    #[test]
    #[should_panic(expected = "frozen_layers")]
    fn cannot_freeze_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let source = Mlp::new(&[3, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let _ = FineTuner::new(source, 1, 2, &mut rng);
    }
}
