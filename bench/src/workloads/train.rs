//! `train_deeper`: DeepER with the LSTM composition, trained pair by pair
//! and then asked to score a large pair set.
//!
//! Only dc-tensor and dc-nn work: tape forward + backward, the fused
//! LSTM gate GEMMs, the per-tape buffer pool, Adam. No I/O, no sockets,
//! no index. It is the forward-and-backward counterpart of the
//! forward-only inference the serve workloads drive, and the workload a
//! change to blocking, discovery or the store must leave alone.

use crate::harness::{
    end_to_end, pct_over, ratio, run_for, timed_setup, Checks, Fnv, Obs, Outcome, RunOpts,
};
use crate::stats;
use crate::trace::Tracer;
use dc_datagen::{ErBenchmark, ErSuite};
use dc_embed::{Embeddings, SgnsConfig};
use dc_er::eval::best_threshold;
use dc_er::{Composition, DeepEr, DeepErConfig};
use dc_relational::tokenize_tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Held-out F1 below this means training broke, whatever its speed:
/// scoring every pair a match gives 0.5, and 180 seeds at the recorded
/// baseline gave 0.79-0.96.
const F1_FLOOR: f64 = 0.65;

struct Input {
    bench: ErBenchmark,
    emb: Embeddings,
    train_pairs: Vec<(usize, usize)>,
    train_labels: Vec<bool>,
    test_pairs: Vec<(usize, usize)>,
    test_labels: Vec<bool>,
    /// The large scoring set.
    predict_pairs: Vec<(usize, usize)>,
    config: DeepErConfig,
    train_seed: u64,
    sgns_s: f64,
}

impl Input {
    fn pair_steps(&self) -> usize {
        self.train_pairs.len() * self.config.epochs
    }
}

fn make_input(seed: u64, smoke: bool) -> Input {
    let (entities, epochs, n_predict) = if smoke {
        (60, 2, 2_000)
    } else {
        (400, 5, 30_000)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let bench = ErBenchmark::generate(ErSuite::Dirty, entities, 2, &mut rng);
    let docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
    let t0 = Instant::now();
    let emb = Embeddings::train(
        &docs,
        &SgnsConfig::default().with_dim(24).with_epochs(3),
        &mut rng,
    );
    let sgns_s = t0.elapsed().as_secs_f64();
    let pairs = bench.labeled_pairs(2, &mut rng);
    let (train, test) = ErBenchmark::split_pairs(&pairs, 0.8, &mut rng);
    let n = bench.table.len();
    let predict_pairs = (0..n_predict)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    Input {
        train_pairs: train.iter().map(|p| (p.a, p.b)).collect(),
        train_labels: train.iter().map(|p| p.label).collect(),
        test_pairs: test.iter().map(|p| (p.a, p.b)).collect(),
        test_labels: test.iter().map(|p| p.label).collect(),
        predict_pairs,
        bench,
        emb,
        // At the default lr of 0.01 about one seed in forty collapses to
        // F1 0.5 within these few epochs; 0.004 did not in 180 seeds.
        config: DeepErConfig::default().with_epochs(epochs).with_lr(0.004),
        train_seed: seed ^ 0x7a11,
        sgns_s,
    }
}

/// What one repetition produced: a fingerprint of every score, and the
/// held-out F1.
struct RepOut {
    score_bits: u64,
    f1: f64,
}

/// Train from a fixed rng state, then score; `tr` brackets the two calls.
fn run_once(input: &Input, tr: &mut Tracer) -> RepOut {
    let mut rng = StdRng::seed_from_u64(input.train_seed);
    let model = tr.span("er.deeper_train", |_| {
        DeepEr::train(
            input.emb.clone(),
            &input.bench.table,
            &input.train_pairs,
            &input.train_labels,
            Composition::Lstm {
                hidden: 32,
                max_tokens: 16,
            },
            input.config.clone(),
            &mut rng,
        )
    });
    let scores = tr.span("er.deeper_predict", |_| {
        model.predict(&input.bench.table, &input.predict_pairs)
    });
    let heldout = model.predict(&input.bench.table, &input.test_pairs);
    let mut h = Fnv::default();
    h.f32s(&scores);
    h.f32s(&heldout);
    RepOut {
        score_bits: h.0,
        f1: best_threshold(&heldout, &input.test_labels).f1,
    }
}

fn check_rep(checks: &mut Checks, rep: &RepOut, first_bits: u64) {
    checks.check(rep.score_bits == first_bits, || {
        "scores differ between repetitions of the same seeded training".to_string()
    });
    checks.check(rep.f1 >= F1_FLOOR, || {
        format!("held-out F1 {:.3} below the {F1_FLOOR} floor", rep.f1)
    });
}

pub fn run(opts: &RunOpts) -> (Outcome, Vec<Tracer>) {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let (state, setup_s) = timed_setup(opts.setup_reps(), || {
        let input = make_input(opts.seed, opts.smoke);
        let warm = run_once(&input, &mut Tracer::off());
        (input, warm)
    });
    let (input, warm) = state;
    let units = (input.pair_steps() + input.predict_pairs.len()) as f64;

    if !opts.trace {
        let mut off = Tracer::off();
        let (reps, times, wall) = run_for(opts.seconds, |_| run_once(&input, &mut off));
        for rep in &reps {
            check_rep(&mut checks, rep, warm.score_bits);
        }
        end_to_end(&mut out, setup_s, units * reps.len() as f64, wall, &times);
        checks.record(&mut out);
        return (out, Vec::new());
    }

    // Per-layer pass: half untraced for reference, half with dc-obs on.
    let mut off = Tracer::off();
    let (_, plain, _) = run_for(opts.seconds / 2.0, |_| run_once(&input, &mut off));
    dc_obs::set_enabled(true);
    dc_obs::reset();
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let (reps, traced, _) = run_for(opts.seconds / 2.0, |i| {
        tr.set_run(i as u32);
        tr.span("train_deeper.rep", |tr| run_once(&input, tr))
    });
    let obs = Obs::snapshot();
    dc_obs::set_enabled(false);
    for rep in &reps {
        check_rep(&mut checks, rep, warm.score_bits);
    }
    // dc-obs keeps one loss value per epoch: every repetition's slice of
    // the series must carry the first one's bits.
    let epochs = input.config.epochs;
    let losses = obs
        .0
        .series
        .iter()
        .find(|(name, _)| name == "er.deeper_lstm.loss")
        .map_or(&[][..], |(_, v)| v.as_slice());
    checks.check(
        losses.len() == epochs * reps.len()
            && losses.chunks(epochs).all(|c| {
                c.iter()
                    .zip(&losses[..epochs])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            }),
        || format!("loss trajectory not identical across repetitions: {losses:?}"),
    );

    let n = reps.len() as f64;
    let steps = input.pair_steps() as f64 * n;
    let m = &mut out.metrics;
    m.insert("embed.sgns_s", input.sgns_s);
    m.insert(
        "er.deeper_step_us",
        ratio(tr.total_s("er.deeper_train") * 1e6, steps),
    );
    m.insert(
        "er.deeper_predict_us_per_pair",
        ratio(
            tr.total_s("er.deeper_predict") * 1e6,
            input.predict_pairs.len() as f64 * n,
        ),
    );
    m.insert("er.deeper_heldout_f1", reps[0].f1);
    m.insert("nn.step_us", obs.timer_mean_us("er.deeper_lstm.batch"));
    obs.tensor_metrics(m, steps);
    m.insert(
        "obs.trace_overhead_pct",
        pct_over(stats::median(&traced), stats::median(&plain)),
    );
    checks.record(&mut out);
    (out, vec![tr])
}
