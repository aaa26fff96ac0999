//! Multi-layer perceptrons (the paper's Figure 2 a–b): one training
//! step ([`Mlp::train_batch`]) for the shared epoch loop in
//! [`crate::train`], plus the inference paths.

use crate::linear::{Activation, Linear, LinearVars};
use crate::loss::LossKind;
use crate::optim::Optimizer;
use dc_tensor::{Tape, Tensor, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A feed-forward stack of [`Linear`] layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    /// The layers, applied in order.
    pub layers: Vec<Linear>,
    /// Dropout probability applied to hidden activations during
    /// training (0 disables dropout).
    pub dropout: f32,
}

impl Mlp {
    /// Build an MLP with the given layer widths; hidden layers use
    /// `hidden_act`, the output layer `out_act`.
    ///
    /// `dims = [in, h1, ..., out]` must have at least two entries.
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new needs input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                out_act
            } else {
                hidden_act
            };
            layers.push(Linear::new(dims[i], dims[i + 1], act, rng));
        }
        let mlp = Mlp {
            layers,
            dropout: 0.0,
        };
        if dc_check::enabled() {
            // Construct-time static validation: record a probe forward
            // pass and shape-check it before any training step runs.
            let tape = Tape::new();
            let vars = mlp.bind(&tape);
            let x = tape.var(Tensor::zeros(1, dims[0]));
            let _ = mlp.forward_tape(&tape, x, &vars, None);
            dc_check::debug_validate_graph("Mlp::new", &tape);
        }
        mlp
    }

    /// Enable dropout on hidden activations.
    pub fn with_dropout(mut self, p: f32) -> Self {
        assert!((0.0..1.0).contains(&p));
        self.dropout = p;
        self
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Total learnable parameter count ("model capacity" in §2).
    pub fn capacity(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Register all parameters on a tape.
    pub fn bind(&self, tape: &Tape) -> Vec<LinearVars> {
        self.layers.iter().map(|l| l.bind(tape)).collect()
    }

    /// Forward on the tape; applies dropout to hidden activations when
    /// `rng` is provided (training mode).
    pub fn forward_tape(
        &self,
        tape: &Tape,
        x: Var,
        vars: &[LinearVars],
        mut rng: Option<&mut StdRng>,
    ) -> Var {
        let mut h = x;
        for (i, (layer, lv)) in self.layers.iter().zip(vars).enumerate() {
            h = layer.forward_tape(tape, h, *lv);
            let is_hidden = i + 1 < self.layers.len();
            if is_hidden && self.dropout > 0.0 {
                if let Some(r) = rng.as_deref_mut() {
                    let (rows, cols) = tape.shape(h);
                    let mask = Tape::dropout_mask(rows, cols, self.dropout, r);
                    h = tape.dropout(h, mask);
                }
            }
        }
        h
    }

    /// Tape-free forward (inference; dropout disabled).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// One optimisation step on a batch, recorded on `tape` (the
    /// training loop's recycled tape, so inputs and gradients come from
    /// its buffer pool); returns the loss value. See
    /// [`LossKind::on_tape`] for the target layout each loss expects.
    pub fn train_batch(
        &mut self,
        tape: &Tape,
        x: &Tensor,
        y: &Tensor,
        loss: LossKind,
        opt: &mut dyn Optimizer,
        rng: &mut StdRng,
    ) -> f32 {
        let vx = tape.var_from(x);
        let vars = self.bind(tape);
        let use_dropout = self.dropout > 0.0;
        let out = if use_dropout {
            self.forward_tape(tape, vx, &vars, Some(rng))
        } else {
            self.forward_tape(tape, vx, &vars, None)
        };
        let loss_var = loss.on_tape(tape, out, y);
        let loss_value = tape.item(loss_var);
        dc_check::debug_validate("Mlp::train_batch", tape, loss_var);
        tape.backward(loss_var);
        opt.begin_step();
        self.apply_grads(opt, 0, tape, &vars);
        loss_value
    }

    /// Apply an optimiser update to every layer with the gradients of
    /// `vars` (from [`Mlp::bind`]) read from the tape. Layer `i` uses
    /// [`Linear::apply_grads`] slot `slot_base + i`, so a model sharing
    /// one optimiser across several parts passes each part its own
    /// base. The caller runs `opt.begin_step()` first.
    pub fn apply_grads(
        &mut self,
        opt: &mut dyn Optimizer,
        slot_base: usize,
        tape: &Tape,
        vars: &[LinearVars],
    ) {
        for (i, (layer, lv)) in self.layers.iter_mut().zip(vars).enumerate() {
            layer.apply_grads(opt, slot_base + i, tape, lv);
        }
    }

    /// Sigmoid probabilities for a single-logit binary head.
    pub fn predict_proba(&self, x: &Tensor) -> Vec<f32> {
        assert_eq!(self.out_dim(), 1, "predict_proba needs a 1-logit head");
        self.forward(x)
            .data
            .iter()
            .map(|&z| 1.0 / (1.0 + (-z).exp()))
            .collect()
    }

    /// [`Self::predict_proba`] with the row count padded to the
    /// kernel's row tile — the batch-*invariant* inference path.
    ///
    /// Padding every layer's GEMM to a [`dc_tensor::kernel::ROW_TILE`]
    /// multiple of rows keeps each row on the full-tile FMA path, so a
    /// row's probability is a pure bitwise function of that row's
    /// features: scoring a pair alone or inside a coalesced
    /// micro-batch yields identical bits at any `DC_THREADS`.
    pub fn predict_proba_aligned(&self, x: &Tensor) -> Vec<f32> {
        assert_eq!(self.out_dim(), 1, "predict_proba needs a 1-logit head");
        const TILE: usize = dc_tensor::kernel::ROW_TILE;
        let n = x.rows;
        let pad = n.div_ceil(TILE) * TILE;
        let out = if pad == n {
            self.forward(x)
        } else {
            let mut xp = Tensor::zeros(pad, x.cols);
            xp.data[..n * x.cols].copy_from_slice(&x.data);
            self.forward(&xp)
        };
        out.data[..n]
            .iter()
            .map(|&z| 1.0 / (1.0 + (-z).exp()))
            .collect()
    }

    /// Class predictions for a softmax head.
    pub fn predict_class(&self, x: &Tensor) -> Vec<usize> {
        let out = self.forward(x);
        (0..out.rows)
            .map(|r| {
                let row = out.row_slice(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Gather the given rows of `t` into a new tensor.
pub fn gather_rows(t: &Tensor, rows: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(rows.len(), t.cols);
    for (i, &r) in rows.iter().enumerate() {
        out.row_slice_mut(i).copy_from_slice(t.row_slice(r));
    }
    out
}

/// Pooled [`gather_rows`]: fill a recycled tensor instead of
/// allocating. Re-exported from `dc-data`, where buffer growth is
/// counted in the `data.batch.alloc` counter.
pub use dc_data::gather_rows_into;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::train::{run_dataset_epochs, MlpTrainer, TrainOpts};
    use dc_data::DenseView;
    use rand::SeedableRng;

    /// `epochs` shuffled minibatch passes through the training loop;
    /// returns the per-epoch mean losses.
    #[allow(clippy::too_many_arguments)]
    fn fit(
        mlp: &mut Mlp,
        x: &Tensor,
        y: &Tensor,
        loss: LossKind,
        opt: &mut dyn Optimizer,
        epochs: usize,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let opts = TrainOpts::default()
            .with_epochs(epochs)
            .with_batch_size(batch_size);
        let mut trainer = MlpTrainer {
            model: mlp,
            loss,
            opt,
        };
        run_dataset_epochs(
            "nn.mlp",
            &mut trainer,
            &mut DenseView::new(x, Some(y)),
            &opts,
            rng,
        )
        .iter()
        .map(|e| e.loss)
        .collect()
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.05);
        fit(
            &mut mlp,
            &x,
            &y,
            LossKind::bce(),
            &mut opt,
            300,
            4,
            &mut rng,
        );
        let p = mlp.predict_proba(&x);
        assert!(p[0] < 0.2 && p[3] < 0.2, "negatives {p:?}");
        assert!(p[1] > 0.8 && p[2] > 0.8, "positives {p:?}");
    }

    #[test]
    fn learns_three_class_softmax() {
        let mut rng = StdRng::seed_from_u64(5);
        // Three well-separated Gaussian blobs in 2-D.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let centers = [(0.0f32, 0.0f32), (4.0, 0.0), (0.0, 4.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                let n = Tensor::randn(1, 2, 0.4, &mut rng);
                xs.push(cx + n.data[0]);
                xs.push(cy + n.data[1]);
                ys.push(c as f32);
            }
        }
        let x = Tensor::from_vec(90, 2, xs);
        let y = Tensor::from_vec(90, 1, ys);
        let mut mlp = Mlp::new(
            &[2, 16, 3],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let mut opt = Adam::new(0.02);
        fit(
            &mut mlp,
            &x,
            &y,
            LossKind::SoftmaxCe,
            &mut opt,
            60,
            16,
            &mut rng,
        );
        let pred = mlp.predict_class(&x);
        let correct = pred
            .iter()
            .zip(y.data.iter())
            .filter(|(&p, &t)| p == t as usize)
            .count();
        assert!(correct >= 85, "accuracy {correct}/90");
    }

    #[test]
    fn mse_regression_fits_linear_map() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(64, 3, 1.0, &mut rng);
        // Target: y = x · [1, -2, 0.5]ᵀ
        let w = Tensor::from_vec(3, 1, vec![1.0, -2.0, 0.5]);
        let y = x.matmul(&w);
        let mut mlp = Mlp::new(
            &[3, 1],
            Activation::Identity,
            Activation::Identity,
            &mut rng,
        );
        let mut opt = Adam::new(0.05);
        let trace = fit(&mut mlp, &x, &y, LossKind::Mse, &mut opt, 120, 16, &mut rng);
        assert!(trace.last().copied().expect("trace") < 1e-3);
        assert!(mlp.layers[0].w.distance(&w) < 0.05);
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(40, 4, 1.0, &mut rng);
        let y = Tensor::from_vec(
            40,
            1,
            (0..40)
                .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
                .collect(),
        );
        let mut mlp = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.01);
        let trace = fit(&mut mlp, &x, &y, LossKind::bce(), &mut opt, 30, 8, &mut rng);
        assert!(trace.last().expect("trace") < trace.first().expect("trace"));
    }

    #[test]
    fn capacity_counts_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        // Paper §2.1: two fully-connected 100-unit layers ⇒ 10,000
        // weights between them.
        let mlp = Mlp::new(
            &[100, 100, 100],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        assert_eq!(mlp.capacity(), 100 * 100 + 100 + 100 * 100 + 100);
    }

    #[test]
    fn dropout_training_still_learns() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut mlp = Mlp::new(
            &[2, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )
        .with_dropout(0.1);
        let mut opt = Adam::new(0.05);
        fit(
            &mut mlp,
            &x,
            &y,
            LossKind::bce(),
            &mut opt,
            400,
            4,
            &mut rng,
        );
        let p = mlp.predict_proba(&x);
        assert!(
            p[1] > 0.6 && p[2] > 0.6 && p[0] < 0.4 && p[3] < 0.4,
            "{p:?}"
        );
    }

    #[test]
    fn aligned_predict_is_row_batch_invariant_bitwise() {
        // A row's probability through the padded path must not depend
        // on how many other rows share the forward pass (dc-serve's
        // micro-batch guarantee).
        let mut rng = StdRng::seed_from_u64(33);
        let mlp = Mlp::new(&[5, 9, 1], Activation::Relu, Activation::Identity, &mut rng);
        let x = Tensor::randn(7, 5, 1.0, &mut rng);
        let all = mlp.predict_proba_aligned(&x);
        assert_eq!(all.len(), 7);
        for (r, &batched) in all.iter().enumerate() {
            let solo = mlp.predict_proba_aligned(&x.row_tensor(r));
            assert_eq!(solo[0].to_bits(), batched.to_bits(), "row {r}");
        }
        let pair = mlp.predict_proba_aligned(&gather_rows(&x, &[6, 2]));
        assert_eq!(pair[0].to_bits(), all[6].to_bits());
        assert_eq!(pair[1].to_bits(), all[2].to_bits());
    }

    #[test]
    fn gather_rows_selects() {
        let t = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = gather_rows(&t, &[2, 0]);
        assert_eq!(g.data, vec![5.0, 6.0, 1.0, 2.0]);
    }
}
