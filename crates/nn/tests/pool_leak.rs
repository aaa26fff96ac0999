//! Pool leak guard: the tape the unified training loop recycles must
//! reach steady state after the first epoch — the high-water mark stops
//! growing and later epochs take every buffer from the freelists (zero
//! new misses).
//!
//! The two training steps the bench suite times (the MLP batch step and
//! the pair-by-pair DeepER-LSTM step) are also pinned here: their
//! first step from a fresh tape must produce exactly the recorded
//! `PoolStats`, and an identically-shaped second step after a recycle
//! must add no misses and no high-water growth.

use dc_data::DenseView;
use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::lstm::LstmEncoder;
use dc_nn::mlp::Mlp;
use dc_nn::optim::{Adam, Optimizer};
use dc_nn::train::{run_dataset_epochs, Batch, StepStats, TrainCtx, TrainOpts, Trainer};
use dc_tensor::{set_pool_enabled, PoolStats, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An MLP trainer that samples the loop's tape pool at the first step
/// of every epoch after the first, i.e. after the previous epoch's
/// final recycle.
struct SamplingTrainer {
    model: Mlp,
    opt: Adam,
    samples: Vec<PoolStats>,
}

impl Trainer for SamplingTrainer {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        if ctx.epoch > 0 && self.samples.len() < ctx.epoch {
            self.samples.push(ctx.tape.pool_stats());
        }
        let loss = self.model.train_batch(
            ctx.tape,
            &batch.x,
            batch.targets(),
            LossKind::Mse,
            &mut self.opt,
            ctx.rng,
        );
        StepStats { loss, aux: 0.0 }
    }
}

#[test]
fn pool_high_water_stabilises_after_first_epoch() {
    set_pool_enabled(true);
    let mut rng = StdRng::seed_from_u64(42);
    let x = Tensor::randn(32, 6, 1.0, &mut rng);
    let y = Tensor::from_vec(32, 1, (0..32).map(|i| (i % 2) as f32).collect());
    let mut trainer = SamplingTrainer {
        model: Mlp::new(
            &[6, 12, 12, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        ),
        opt: Adam::new(0.01),
        samples: Vec::new(),
    };

    let opts = TrainOpts::default().with_epochs(5).with_batch_size(8);
    let mut ds = DenseView::new(&x, Some(&y));
    run_dataset_epochs("test.pool_leak", &mut trainer, &mut ds, &opts, &mut rng);
    assert_eq!(trainer.samples.len(), 4, "one sample per epoch 1..=4");

    let warm = trainer.samples[0];
    assert!(warm.misses > 0, "first epoch must allocate something");
    for (e, now) in trainer.samples.iter().enumerate().skip(1) {
        assert_eq!(
            now.high_water_bytes, warm.high_water_bytes,
            "after epoch {e}: pool high-water grew after warmup — buffers are leaking"
        );
        assert_eq!(
            now.misses, warm.misses,
            "after epoch {e}: pool missed after warmup — buffers are not being recycled"
        );
        assert!(now.hits > warm.hits, "after epoch {e}: pool saw no hits");
    }

    // Everything handed out during an epoch was returned by its final
    // recycle: nothing is outstanding at any sample.
    for (e, s) in trainer.samples.iter().enumerate() {
        assert_eq!(
            s.outstanding_bytes, 0,
            "after epoch {e}: buffers left outstanding"
        );
    }
}

/// Run `step` on a fresh pooled tape, check its pool traffic against
/// the recorded `first`, then recycle and run it again: the second step
/// must be served entirely from the freelists.
fn pin_first_step_then_steady_state(label: &str, first: PoolStats, mut step: impl FnMut(&Tape)) {
    set_pool_enabled(true);
    let tape = Tape::new();
    step(&tape);
    assert_eq!(
        tape.pool_stats(),
        first,
        "{label}: first-step pool traffic moved"
    );

    tape.recycle();
    step(&tape);
    let steady = tape.pool_stats();
    assert_eq!(
        steady.misses, first.misses,
        "{label}: steady-state step missed"
    );
    assert_eq!(
        steady.high_water_bytes, first.high_water_bytes,
        "{label}: steady-state step grew the pool"
    );
}

#[test]
fn mlp_step_pool_traffic_is_pinned_and_steady() {
    // The bench suite's MlpMicro: a deep narrow MLP on a 4-example batch.
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::randn(4, 8, 1.0, &mut rng);
    let y = Tensor::from_vec(4, 1, (0..4).map(|i| (i % 2) as f32).collect());
    let mut model = Mlp::new(
        &[8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let mut opt = Adam::new(0.01);
    let first = PoolStats {
        hits: 20,
        misses: 81,
        outstanding_bytes: 9964,
        held_bytes: 144,
        high_water_bytes: 10108,
    };
    pin_first_step_then_steady_state("mlp", first, |tape| {
        model.train_batch(tape, &x, &y, LossKind::Mse, &mut opt, &mut rng);
    });
}

/// One DeeperLstmMicro-shaped training step: shared-LSTM pair encoding
/// (T×4h input precompute, one `lstm` node per sequence), |ha−hb| ⧺
/// ha⊙hb features, MLP classifier, BCE loss.
#[test]
fn deeper_lstm_step_pool_traffic_is_pinned_and_steady() {
    let mut rng = StdRng::seed_from_u64(23);
    let (dim, hidden, tokens) = (8, 8, 10);
    let seq_a = Tensor::randn(tokens, dim, 1.0, &mut rng);
    let seq_b = Tensor::randn(tokens, dim, 1.0, &mut rng);
    let mut encoder = LstmEncoder::new(dim, hidden, &mut rng);
    let mut classifier = Mlp::new(
        &[2 * hidden, 32, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let mut opt = Adam::new(0.01);
    // One `lstm` node per sequence: each step's gate split, gate
    // activations and cell update are no longer nodes with buffers of
    // their own (was 415 hits / 386 misses, 36 092 B high water).
    let first = PoolStats {
        hits: 14,
        misses: 45,
        outstanding_bytes: 17912,
        held_bytes: 2660,
        high_water_bytes: 20572,
    };
    pin_first_step_then_steady_state("deeper-lstm", first, |tape| {
        let lvars = encoder.bind(tape);
        let cvars = classifier.bind(tape);
        let sa = tape.var_slice(seq_a.rows, seq_a.cols, &seq_a.data);
        let sb = tape.var_slice(seq_b.rows, seq_b.cols, &seq_b.data);
        let ha = encoder.forward_tape(tape, sa, &lvars);
        let hb = encoder.forward_tape(tape, sb, &lvars);
        let diff = tape.abs(tape.sub(ha, hb));
        let had = tape.mul(ha, hb);
        let feat = tape.concat(&[diff, had]);
        let logit = classifier.forward_tape(tape, feat, &cvars, None);
        let loss = tape.bce_with_logits(logit, Tensor::scalar(1.0), Tensor::scalar(1.0));
        tape.backward(loss);
        opt.begin_step();
        encoder.apply_grads(&mut opt, 0, tape, &lvars);
        classifier.apply_grads(&mut opt, encoder.slot_count(), tape, &cvars);
    });
}
