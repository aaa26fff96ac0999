//! The one training surface shared by every model crate.
//!
//! Every model in the paper's Figure 2 trains the same way: shuffle a
//! row order, walk it in minibatches, run one gradient step per batch
//! (§2.1). That skeleton lives here once, in [`run_dataset_epochs`];
//! each model contributes only its single tape-taking step
//! (`Mlp::train_batch`, `Autoencoder::train_step`, …) behind a
//! [`Trainer`] impl. The loop keeps the seed's `Mlp::fit` shape
//! (shuffle → `chunks(batch_size.max(1))` → gather → step), so loss
//! trajectories and rng draws are bit-identical to the seed-era
//! hand-rolled loops (`tests/trainer_migration.rs` runs them as its
//! oracle).
//!
//! The loop drives any [`Dataset`] minibatch source: in-memory tensors
//! go through [`dc_data::DenseView`] — whose epoch shuffle is the seed
//! `order.shuffle(rng)` verbatim — and larger-than-memory corpora
//! through [`dc_data::ChunkedDataset`] over a file-backed
//! [`dc_data::ChunkedStore`]. Batches are **pooled**: one [`Batch`] is
//! reused across all steps and refilled in place, so warm steps
//! allocate nothing.
//!
//! The loop is also where training observability hooks in (one
//! `dc_obs` span per epoch, one timer per batch, and a per-epoch loss
//! series — all zero-cost when `DC_OBS` is off) and where the tape
//! [`BufferPool`](dc_tensor::BufferPool) earns its keep: one pooled
//! [`Tape`] serves every step, recycled ([`Tape::recycle`]) after each
//! `Trainer::fit`, so steady-state steps reuse the previous step's
//! buffers instead of allocating fresh ones.

use dc_data::Dataset;
use dc_tensor::{Tape, Tensor};
use rand::rngs::StdRng;

/// Hyper-parameters of the epoch loop, with the repo's `with_*`
/// builder convention (DESIGN.md §10) so call sites read as
/// `TrainOpts::default().with_epochs(60).with_batch_size(16)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainOpts {
    /// Full passes over the training rows.
    pub epochs: usize,
    /// Rows per minibatch (clamped to at least 1).
    pub batch_size: usize,
}

impl Default for TrainOpts {
    fn default() -> Self {
        TrainOpts {
            epochs: 30,
            batch_size: 32,
        }
    }
}

impl TrainOpts {
    /// Set the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Set the minibatch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }
}

/// One minibatch. Unsupervised trainers receive `y: None` — no
/// placeholder tensor is materialised for them.
pub struct Batch {
    /// Input rows.
    pub x: Tensor,
    /// Targets aligned with `x` rows, or `None` when unsupervised.
    pub y: Option<Tensor>,
}

impl Batch {
    /// Whether this batch carries targets.
    pub fn has_targets(&self) -> bool {
        self.y.is_some()
    }

    /// The targets; panics for unsupervised batches.
    pub fn targets(&self) -> &Tensor {
        self.y
            .as_ref()
            .expect("Batch::targets on unsupervised batch")
    }
}

/// Per-step context threaded through [`Trainer::fit`]: the shared rng
/// (so stochastic steps draw in exactly the order the legacy loops
/// did) plus progress counters.
pub struct TrainCtx<'r> {
    /// The training rng; draws here continue the caller's stream.
    pub rng: &'r mut StdRng,
    /// The step tape. Recorded graphs are recycled by the driving loop
    /// after each step, so trainers must not hold `Var`s across calls.
    pub tape: &'r Tape,
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Zero-based global step (batch) index.
    pub step: usize,
}

/// What one optimisation step reports back.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepStats {
    /// Primary loss (reconstruction MSE for a VAE, discriminator loss
    /// for a GAN, the plain objective otherwise).
    pub loss: f32,
    /// Secondary term when the model has one (VAE KL, GAN generator
    /// loss); `0.0` otherwise.
    pub aux: f32,
}

/// Per-epoch means of [`StepStats`] over the epoch's batches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochStats {
    /// Mean primary loss.
    pub loss: f32,
    /// Mean secondary term.
    pub aux: f32,
}

/// One gradient step on one minibatch — the single method every model
/// implements so [`run_dataset_epochs`] can drive it.
pub trait Trainer {
    /// Run one optimisation step and report its losses.
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats;
}

/// Drive a [`Trainer`] for `opts.epochs` shuffled minibatch passes over
/// `ds`. Returns one [`EpochStats`] per epoch.
///
/// In-memory tensors train through `&mut DenseView::new(&x, y)`; a
/// [`dc_data::ChunkedDataset`] over a file-backed
/// [`dc_data::ChunkedStore`] trains on corpora larger than memory, and
/// with a single-chunk store it is bitwise-identical to the
/// `DenseView` run.
///
/// `name` labels the dc-obs epoch span, batch timer and loss series;
/// it should be the model's dotted identifier (`"nn.mlp"`,
/// `"er.deeper"`, …).
///
/// One persistent order vector (the dataset re-shuffles it in place
/// each epoch, preserving the seed loop's cumulative-shuffle rng
/// stream), one pooled [`Batch`] refilled in place per step and one
/// [`Tape`] recycled after every step — warm steps perform zero batch
/// allocations and take every tape buffer from the pool.
pub fn run_dataset_epochs<T: Trainer + ?Sized, D: Dataset + ?Sized>(
    name: &'static str,
    trainer: &mut T,
    ds: &mut D,
    opts: &TrainOpts,
    rng: &mut StdRng,
) -> Vec<EpochStats> {
    let tape = &Tape::new();
    let mut order: Vec<usize> = Vec::new();
    let mut batch = Batch {
        x: Tensor::zeros(0, ds.x_cols()),
        y: ds.y_cols().map(|c| Tensor::zeros(0, c)),
    };
    let mut trace = Vec::with_capacity(opts.epochs);
    let mut step = 0usize;
    for epoch in 0..opts.epochs {
        let _epoch = dc_obs::span(name);
        ds.shuffle_epoch(&mut order, rng);
        let (mut loss, mut aux, mut batches) = (0.0f32, 0.0f32, 0usize);
        for chunk in order.chunks(opts.batch_size.max(1)) {
            let _batch = dc_obs::timer(name, "batch");
            ds.fill_batch(chunk, &mut batch.x, batch.y.as_mut());
            let mut ctx = TrainCtx {
                rng,
                tape,
                epoch,
                step,
            };
            let s = trainer.fit(&batch, &mut ctx);
            if dc_check::enabled() {
                // Memory-safety net for the recycled hot path: no live
                // buffer may carry the recycle poison, and the pool must
                // have recorded no double recycles.
                dc_check::memsafe::assert_clean(name, tape);
            }
            tape.recycle();
            if dc_check::enabled() {
                // Every pooled buffer must be back on a freelist now —
                // outstanding bytes after recycle are a leak.
                let stats = tape.pool_stats();
                assert_eq!(
                    stats.outstanding_bytes, 0,
                    "dc-check [{name}]: {} bytes still outstanding after recycle",
                    stats.outstanding_bytes
                );
            }
            loss += s.loss;
            aux += s.aux;
            batches += 1;
            step += 1;
        }
        let e = EpochStats {
            loss: loss / batches.max(1) as f32,
            aux: aux / batches.max(1) as f32,
        };
        dc_obs::series_push(name, "loss", e.loss as f64);
        trace.push(e);
    }
    trace
}

/// [`Trainer`] over an [`Mlp`](crate::mlp::Mlp) with a fixed loss and
/// optimiser — the supervised workhorse behind `FeatureLogReg` and the
/// DeepER average-composition classifier.
pub struct MlpTrainer<'a> {
    /// The network being trained.
    pub model: &'a mut crate::mlp::Mlp,
    /// Loss applied to each batch.
    pub loss: crate::loss::LossKind,
    /// Optimiser shared across steps.
    pub opt: &'a mut dyn crate::optim::Optimizer,
}

impl Trainer for MlpTrainer<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let loss = self.model.train_batch(
            ctx.tape,
            &batch.x,
            batch.targets(),
            self.loss,
            self.opt,
            ctx.rng,
        );
        StepStats { loss, aux: 0.0 }
    }
}

/// [`Trainer`] for a plain [`Autoencoder`](crate::ae::Autoencoder):
/// reconstructs each batch from itself.
pub struct AeTrainer<'a> {
    /// The autoencoder being trained.
    pub model: &'a mut crate::ae::Autoencoder,
    /// Optimiser shared across steps.
    pub opt: &'a mut dyn crate::optim::Optimizer,
}

impl Trainer for AeTrainer<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let loss = self
            .model
            .train_step(ctx.tape, &batch.x, &batch.x, self.opt);
        StepStats { loss, aux: 0.0 }
    }
}

/// [`Trainer`] for a
/// [`DenoisingAutoencoder`](crate::ae::DenoisingAutoencoder): corrupts
/// the batch with the model's noise, reconstructs the clean rows.
pub struct DaeTrainer<'a> {
    /// The denoising autoencoder being trained.
    pub model: &'a mut crate::ae::DenoisingAutoencoder,
    /// Optimiser shared across steps.
    pub opt: &'a mut dyn crate::optim::Optimizer,
}

impl Trainer for DaeTrainer<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let corrupted = self.model.noise.corrupt(&batch.x, ctx.rng);
        let loss = self
            .model
            .ae
            .train_step(ctx.tape, &corrupted, &batch.x, self.opt);
        StepStats { loss, aux: 0.0 }
    }
}

/// [`Trainer`] for a
/// [`KSparseAutoencoder`](crate::ae::KSparseAutoencoder).
pub struct KSparseTrainer<'a> {
    /// The k-sparse autoencoder being trained.
    pub model: &'a mut crate::ae::KSparseAutoencoder,
    /// Optimiser shared across steps.
    pub opt: &'a mut dyn crate::optim::Optimizer,
}

impl Trainer for KSparseTrainer<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let loss = self.model.train_step(ctx.tape, &batch.x, self.opt);
        StepStats { loss, aux: 0.0 }
    }
}

/// [`Trainer`] for a [`Vae`](crate::ae::Vae); `loss` is the
/// reconstruction MSE and `aux` the KL term.
pub struct VaeTrainer<'a> {
    /// The VAE being trained.
    pub model: &'a mut crate::ae::Vae,
    /// Optimiser shared across steps.
    pub opt: &'a mut dyn crate::optim::Optimizer,
}

impl Trainer for VaeTrainer<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let (recon, kl) = self.model.train_step(ctx.tape, &batch.x, self.opt, ctx.rng);
        StepStats {
            loss: recon,
            aux: kl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Activation;
    use crate::loss::LossKind;
    use crate::mlp::Mlp;
    use crate::optim::Adam;
    use dc_data::DenseView;
    use rand::SeedableRng;

    #[test]
    fn opts_builders_chain() {
        let o = TrainOpts::default().with_epochs(7).with_batch_size(4);
        assert_eq!(
            o,
            TrainOpts {
                epochs: 7,
                batch_size: 4
            }
        );
    }

    #[test]
    fn run_dataset_epochs_matches_legacy_fit_loop() {
        // Drive the same model twice from identical seeds: once through
        // the seed-era loop shape written out longhand, once through
        // run_dataset_epochs. The traces must agree bitwise.
        let make =
            |rng: &mut StdRng| Mlp::new(&[3, 6, 1], Activation::Tanh, Activation::Identity, rng);
        let mut rng1 = StdRng::seed_from_u64(42);
        let x = dc_tensor::Tensor::randn(20, 3, 1.0, &mut rng1);
        let y = dc_tensor::Tensor::from_vec(20, 1, (0..20).map(|i| (i % 2) as f32).collect());

        let mut rng_a = StdRng::seed_from_u64(7);
        let mut m_a = make(&mut rng_a);
        let mut opt_a = Adam::new(0.02);
        let mut trace_a = Vec::new();
        {
            use rand::seq::SliceRandom;
            let mut order: Vec<usize> = (0..x.rows).collect();
            for _ in 0..5 {
                order.shuffle(&mut rng_a);
                let (mut l, mut b) = (0.0, 0);
                for chunk in order.chunks(8) {
                    let bx = crate::mlp::gather_rows(&x, chunk);
                    let by = crate::mlp::gather_rows(&y, chunk);
                    l += m_a.train_batch(
                        &Tape::new(),
                        &bx,
                        &by,
                        LossKind::bce(),
                        &mut opt_a,
                        &mut rng_a,
                    );
                    b += 1;
                }
                trace_a.push(l / b.max(1) as f32);
            }
        }

        let mut rng_b = StdRng::seed_from_u64(7);
        let mut m_b = make(&mut rng_b);
        let mut opt_b = Adam::new(0.02);
        let opts = TrainOpts::default().with_epochs(5).with_batch_size(8);
        let mut t = MlpTrainer {
            model: &mut m_b,
            loss: LossKind::bce(),
            opt: &mut opt_b,
        };
        let mut ds = DenseView::new(&x, Some(&y));
        let trace_b = run_dataset_epochs("nn.test", &mut t, &mut ds, &opts, &mut rng_b);

        let got: Vec<f32> = trace_b.iter().map(|e| e.loss).collect();
        assert_eq!(
            trace_a, got,
            "run_dataset_epochs diverged from the legacy loop"
        );
        for (la, lb) in m_a.layers.iter().zip(&m_b.layers) {
            assert_eq!(la.w, lb.w);
            assert_eq!(la.b, lb.b);
        }
    }

    #[test]
    fn unsupervised_batches_have_empty_targets() {
        struct Probe {
            saw_targets: bool,
        }
        impl Trainer for Probe {
            fn fit(&mut self, batch: &Batch, _ctx: &mut TrainCtx<'_>) -> StepStats {
                self.saw_targets |= batch.has_targets();
                StepStats::default()
            }
        }
        let mut rng = StdRng::seed_from_u64(1);
        let x = dc_tensor::Tensor::randn(6, 2, 1.0, &mut rng);
        let mut p = Probe { saw_targets: false };
        let opts = TrainOpts::default().with_epochs(2).with_batch_size(3);
        let mut ds = DenseView::new(&x, None);
        let trace = run_dataset_epochs("nn.probe", &mut p, &mut ds, &opts, &mut rng);
        assert_eq!(trace.len(), 2);
        assert!(!p.saw_targets);
    }
}
