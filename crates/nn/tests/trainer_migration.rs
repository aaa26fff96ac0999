//! Migration guard for the unified `Trainer` API: every model trains
//! through `train::run_dataset_epochs` (in-memory tensors via a
//! `DenseView`), and these tests pin that this changed nothing —
//! identical seeds must give bitwise-identical loss trajectories and
//! weights versus the seed-era hand-rolled epoch loops (written out
//! longhand here, one throwaway tape per step).

use dc_data::DenseView;
use dc_nn::ae::{Autoencoder, DenoisingAutoencoder, Noise, Vae};
use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::mlp::{gather_rows, Mlp};
use dc_nn::optim::Adam;
use dc_nn::train::{
    run_dataset_epochs, AeTrainer, Batch, DaeTrainer, EpochStats, MlpTrainer, StepStats, TrainCtx,
    TrainOpts, Trainer, VaeTrainer,
};
use dc_tensor::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn data(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::randn(rows, cols, 1.0, rng)
}

/// `epochs` passes of `trainer` over `x` (and `y`) through the one
/// training loop, under the dc-obs name the retired `fit` wrapper used.
fn run(
    name: &'static str,
    trainer: &mut dyn Trainer,
    x: &Tensor,
    y: Option<&Tensor>,
    epochs: usize,
    batch_size: usize,
    rng: &mut StdRng,
) -> Vec<EpochStats> {
    let opts = TrainOpts::default()
        .with_epochs(epochs)
        .with_batch_size(batch_size);
    run_dataset_epochs(name, trainer, &mut DenseView::new(x, y), &opts, rng)
}

fn losses(trace: &[EpochStats]) -> Vec<f32> {
    trace.iter().map(|e| e.loss).collect()
}

/// The seed's epoch-loop skeleton, reproduced verbatim so each test
/// can drive a model's single-step method the way the old `fit` did.
fn legacy_loop<F: FnMut(&[usize], &mut StdRng) -> f32>(
    n: usize,
    epochs: usize,
    batch_size: usize,
    rng: &mut StdRng,
    mut step: F,
) -> Vec<f32> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut trace = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        order.shuffle(rng);
        let (mut total, mut batches) = (0.0, 0);
        for chunk in order.chunks(batch_size.max(1)) {
            total += step(chunk, rng);
            batches += 1;
        }
        trace.push(total / batches.max(1) as f32);
    }
    trace
}

#[test]
fn mlp_fit_matches_legacy_loop() {
    let mut rng = StdRng::seed_from_u64(1);
    let x = data(&mut rng, 24, 4);
    let y = Tensor::from_vec(24, 1, (0..24).map(|i| (i % 2) as f32).collect());

    let mut rng_a = StdRng::seed_from_u64(2);
    let mut m_a = Mlp::new(
        &[4, 6, 1],
        Activation::Tanh,
        Activation::Identity,
        &mut rng_a,
    );
    let mut opt_a = Adam::new(0.02);
    let trace_a = legacy_loop(24, 6, 8, &mut rng_a, |chunk, r| {
        let bx = gather_rows(&x, chunk);
        let by = gather_rows(&y, chunk);
        m_a.train_batch(&Tape::new(), &bx, &by, LossKind::bce(), &mut opt_a, r)
    });

    let mut rng_b = StdRng::seed_from_u64(2);
    let mut m_b = Mlp::new(
        &[4, 6, 1],
        Activation::Tanh,
        Activation::Identity,
        &mut rng_b,
    );
    let mut opt_b = Adam::new(0.02);
    let mut t = MlpTrainer {
        model: &mut m_b,
        loss: LossKind::bce(),
        opt: &mut opt_b,
    };
    let trace_b = losses(&run("nn.mlp", &mut t, &x, Some(&y), 6, 8, &mut rng_b));

    assert_eq!(trace_a, trace_b);
    for (la, lb) in m_a.layers.iter().zip(&m_b.layers) {
        assert_eq!(la.w, lb.w);
        assert_eq!(la.b, lb.b);
    }
}

#[test]
fn autoencoder_fit_matches_legacy_loop() {
    let mut rng = StdRng::seed_from_u64(3);
    let x = data(&mut rng, 20, 5);

    let mut rng_a = StdRng::seed_from_u64(4);
    let mut ae_a = Autoencoder::new(5, &[4], 2, &mut rng_a);
    let mut opt_a = Adam::new(0.01);
    let trace_a = legacy_loop(20, 5, 8, &mut rng_a, |chunk, _| {
        let bx = gather_rows(&x, chunk);
        ae_a.train_step(&Tape::new(), &bx, &bx, &mut opt_a)
    });

    let mut rng_b = StdRng::seed_from_u64(4);
    let mut ae_b = Autoencoder::new(5, &[4], 2, &mut rng_b);
    let mut opt_b = Adam::new(0.01);
    let mut t = AeTrainer {
        model: &mut ae_b,
        opt: &mut opt_b,
    };
    let trace_b = losses(&run("nn.ae", &mut t, &x, None, 5, 8, &mut rng_b));

    assert_eq!(trace_a, trace_b);
    for (la, lb) in ae_a
        .encoder
        .layers
        .iter()
        .chain(&ae_a.decoder.layers)
        .zip(ae_b.encoder.layers.iter().chain(&ae_b.decoder.layers))
    {
        assert_eq!(la.w, lb.w);
    }
}

#[test]
fn dae_fit_matches_legacy_loop() {
    let mut rng = StdRng::seed_from_u64(5);
    let x = data(&mut rng, 20, 4);
    let noise = Noise::Masking { p: 0.2 };

    let mut rng_a = StdRng::seed_from_u64(6);
    let mut dae_a = DenoisingAutoencoder::new(4, &[5], 2, noise, &mut rng_a);
    let mut opt_a = Adam::new(0.01);
    let trace_a = legacy_loop(20, 4, 8, &mut rng_a, |chunk, r| {
        let clean = gather_rows(&x, chunk);
        let corrupted = dae_a.noise.corrupt(&clean, r);
        dae_a
            .ae
            .train_step(&Tape::new(), &corrupted, &clean, &mut opt_a)
    });

    let mut rng_b = StdRng::seed_from_u64(6);
    let mut dae_b = DenoisingAutoencoder::new(4, &[5], 2, noise, &mut rng_b);
    let mut opt_b = Adam::new(0.01);
    let mut t = DaeTrainer {
        model: &mut dae_b,
        opt: &mut opt_b,
    };
    let trace_b = losses(&run("nn.dae", &mut t, &x, None, 4, 8, &mut rng_b));

    assert_eq!(trace_a, trace_b);
}

#[test]
fn vae_fit_matches_legacy_loop() {
    let mut rng = StdRng::seed_from_u64(7);
    let x = data(&mut rng, 18, 4);

    let mut rng_a = StdRng::seed_from_u64(8);
    let mut vae_a = Vae::new(4, 6, 2, &mut rng_a);
    let mut opt_a = Adam::new(0.01);
    let mut kl_a = Vec::new();
    let trace_a = legacy_loop(18, 4, 6, &mut rng_a, |chunk, r| {
        let bx = gather_rows(&x, chunk);
        let (recon, kl) = vae_a.train_step(&Tape::new(), &bx, &mut opt_a, r);
        kl_a.push(kl);
        recon
    });

    let mut rng_b = StdRng::seed_from_u64(8);
    let mut vae_b = Vae::new(4, 6, 2, &mut rng_b);
    let mut opt_b = Adam::new(0.01);
    let mut t = VaeTrainer {
        model: &mut vae_b,
        opt: &mut opt_b,
    };
    let trace_b = run("nn.vae", &mut t, &x, None, 4, 6, &mut rng_b);

    assert_eq!(trace_a, losses(&trace_b));
    assert!(trace_b.iter().all(|e| e.aux.is_finite()));
}

#[test]
fn vae_trainer_reports_kl_in_aux() {
    let mut rng = StdRng::seed_from_u64(9);
    let x = data(&mut rng, 12, 3);
    let mut vae = Vae::new(3, 5, 2, &mut rng);
    let mut opt = Adam::new(0.01);
    let mut trainer = VaeTrainer {
        model: &mut vae,
        opt: &mut opt,
    };
    let trace = run("nn.vae", &mut trainer, &x, None, 3, 6, &mut rng);
    assert_eq!(trace.len(), 3);
    assert!(trace
        .iter()
        .all(|e| e.loss.is_finite() && e.aux.is_finite()));
}

#[test]
fn ctx_counts_epochs_and_global_steps() {
    struct Recorder {
        seen: Vec<(usize, usize)>,
    }
    impl Trainer for Recorder {
        fn fit(&mut self, _batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
            self.seen.push((ctx.epoch, ctx.step));
            StepStats::default()
        }
    }
    let mut rng = StdRng::seed_from_u64(10);
    let x = data(&mut rng, 8, 2);
    let mut rec = Recorder { seen: Vec::new() };
    run("nn.rec", &mut rec, &x, None, 2, 4, &mut rng);
    assert_eq!(
        rec.seen,
        vec![(0, 0), (0, 1), (1, 2), (1, 3)],
        "epoch/step counters"
    );
}
