//! Liveness-forecast parity: `dc_check::forecast_pool`'s predicted
//! `PoolStats` — hits, misses, outstanding/held bytes, and the
//! high-water mark — must equal the runtime's actuals on the two real
//! training steps the bench suite times (the MLP batch step and the
//! pair-by-pair DeepER-LSTM step). Any drift between `Tape::backward`'s
//! buffer traffic and the static model in `crates/check/src/liveness.rs`
//! fails here first.

use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::lstm::LstmEncoder;
use dc_nn::mlp::Mlp;
use dc_nn::optim::{Adam, Optimizer};
use dc_tensor::{set_pool_enabled, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes tests that pin the global pool gate.
static GATE_LOCK: Mutex<()> = Mutex::new(());

fn check_step(tape: &Tape, label: &str) {
    let root = tape.last_backward_root().expect("backward ran");
    let errors = dc_check::liveness::verify(tape, root);
    assert!(
        errors.is_empty(),
        "{label}: liveness verification failed\n{}",
        dc_check::render(&errors)
    );
    let predicted = dc_check::forecast_pool(tape, root).expect("clean graph");
    let actual = tape.pool_stats();
    assert_eq!(
        predicted, actual,
        "{label}: forecast PoolStats must match the runtime's actuals"
    );
    assert_eq!(
        predicted.high_water_bytes, actual.high_water_bytes,
        "{label}: predicted pool high-water must match"
    );
}

#[test]
fn forecast_matches_actuals_on_mlp_training_step() {
    let _gates = GATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_pool_enabled(true);

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

    let tape = Tape::new(); // fresh pool: the forecast's starting state
    model.train_batch(&tape, &x, &y, LossKind::Mse, &mut opt, &mut rng);
    check_step(&tape, "mlp");
    let first = tape.pool_stats();

    // Steady state: an identically-shaped second step must be served
    // entirely from the freelists — no new misses, no high-water growth.
    tape.recycle();
    model.train_batch(&tape, &x, &y, LossKind::Mse, &mut opt, &mut rng);
    let steady = tape.pool_stats();
    assert_eq!(steady.misses, first.misses, "steady-state step missed");
    assert_eq!(steady.high_water_bytes, first.high_water_bytes);
}

/// One DeeperLstmMicro-shaped training step: shared-LSTM pair encoding
/// (T×4h input precompute, slice_cols gate splits), |ha−hb| ⧺ ha⊙hb
/// features, MLP classifier, BCE loss.
#[test]
fn forecast_matches_actuals_on_deeper_lstm_training_step() {
    let _gates = GATE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_pool_enabled(true);

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

    let tape = Tape::new();
    let run_step =
        |tape: &Tape, encoder: &mut LstmEncoder, classifier: &mut Mlp, opt: &mut Adam| {
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
            encoder.apply_grads(opt, 0, tape, &lvars);
            classifier.apply_grads(opt, encoder.slot_count(), tape, &cvars);
        };

    run_step(&tape, &mut encoder, &mut classifier, &mut opt);
    check_step(&tape, "deeper-lstm");
    let first = tape.pool_stats();

    tape.recycle();
    run_step(&tape, &mut encoder, &mut classifier, &mut opt);
    let steady = tape.pool_stats();
    assert_eq!(steady.misses, first.misses, "steady-state step missed");
    assert_eq!(steady.high_water_bytes, first.high_water_bytes);
}
