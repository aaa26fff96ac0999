//! Record the allocation-free-training snapshot into `BENCH_train.json`.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin bench_train            # full run
//! cargo run --release -p dc-bench --bin bench_train -- --smoke # CI gate
//! ```
//!
//! Two micro-train workloads — the MLP batch step behind `Mlp::fit` /
//! DeepER-average, and the pair-by-pair DeepER-LSTM step — each timed
//! in two configurations:
//!
//! * **baseline** — a fresh unpooled tape per step, every buffer a
//!   heap allocation (the pre-pool hot path);
//! * **pooled** — one tape recycled across steps with pooling on (what
//!   `run_dataset_epochs` does now).
//!
//! Both configurations must produce bitwise-identical loss traces and
//! weights (checked here from identically-seeded models), so the
//! reported speedup buys no accuracy drift. The pooled run also
//! reports its steady-state pool miss rate (~0 after warmup) and an
//! embedded dc-obs report carrying the `tape.pool.*` counters and the
//! `tape.pool.bytes` gauge.
//!
//! A full run asserts that pooling pays: in the median sample pair the
//! pooled step beats the fresh one, and on `mlp_micro` by at least
//! 30 %. `deeper_lstm_micro` has no percentage floor: its step records
//! one `lstm` node per sequence, so few buffers are left for the pool
//! to save (DESIGN.md §11 has both measurements).
//!
//! `--smoke` shrinks the step counts, keeps the bitwise and
//! miss-rate checks, skips wall-clock assertions entirely and writes
//! no file — that mode is wired into `scripts/lint.sh`.

use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::lstm::LstmEncoder;
use dc_nn::mlp::Mlp;
use dc_nn::optim::{Adam, Optimizer};
use dc_tensor::{set_pool_enabled, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct WorkloadSnapshot {
    name: &'static str,
    description: &'static str,
    warmup_steps: usize,
    timed_steps: usize,
    reps: usize,
    baseline_us_per_step: f64,
    pooled_us_per_step: f64,
    reduction_pct: f64,
    warm_misses_per_step: f64,
    pool_hits: u64,
    pool_misses: u64,
    pool_high_water_bytes: usize,
    bitwise_equal: bool,
}

/// The `tape.pool.*` counters and gauge as dc-obs reports them, pulled
/// from an [`dc_obs::ObsReport`] over a short instrumented pooled pass.
#[derive(Serialize)]
struct PoolObs {
    hit: u64,
    miss: u64,
    bytes: u64,
}

impl PoolObs {
    fn from_report(report: &dc_obs::ObsReport) -> PoolObs {
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let gauge = |name: &str| {
            report
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        PoolObs {
            hit: counter("tape.pool.hit"),
            miss: counter("tape.pool.miss"),
            bytes: gauge("tape.pool.bytes"),
        }
    }
}

#[derive(Serialize)]
struct Snapshot {
    description: &'static str,
    smoke: bool,
    workloads: Vec<WorkloadSnapshot>,
    obs_pool: PoolObs,
}

/// One training step, abstracted over workload. Implementations must be
/// deterministic given the seed they were built from.
trait Workload {
    fn step(&mut self, tape: &Tape) -> f32;
    /// Loss-bits fingerprint plus all parameter bits, for the
    /// baseline-vs-pooled equivalence check.
    fn fingerprint(&self) -> Vec<u32>;
}

/// The supervised MLP batch step behind `Mlp::fit` and the DeepER
/// average-composition classifier.
struct MlpMicro {
    model: Mlp,
    opt: Adam,
    rng: StdRng,
    x: Tensor,
    y: Tensor,
    last_loss: f32,
}

impl MlpMicro {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(4, 8, 1.0, &mut rng);
        let y = Tensor::from_vec(4, 1, (0..4).map(|i| (i % 2) as f32).collect());
        let model = Mlp::new(
            &[8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        MlpMicro {
            model,
            opt: Adam::new(0.01),
            rng,
            x,
            y,
            last_loss: 0.0,
        }
    }
}

impl Workload for MlpMicro {
    fn step(&mut self, tape: &Tape) -> f32 {
        self.last_loss = self.model.train_batch(
            tape,
            &self.x,
            &self.y,
            LossKind::Mse,
            &mut self.opt,
            &mut self.rng,
        );
        self.last_loss
    }

    fn fingerprint(&self) -> Vec<u32> {
        let mut bits = vec![self.last_loss.to_bits()];
        for l in &self.model.layers {
            bits.extend(l.w.data.iter().map(|v| v.to_bits()));
            bits.extend(l.b.data.iter().map(|v| v.to_bits()));
        }
        bits
    }
}

/// The pair-by-pair DeepER-LSTM step: encode two token sequences with a
/// shared LSTM, build |ha−hb| ⧺ ha⊙hb features, classify, backprop
/// through every timestep.
struct DeeperLstmMicro {
    encoder: LstmEncoder,
    classifier: Mlp,
    opt: Adam,
    seq_a: Tensor,
    seq_b: Tensor,
    step_idx: usize,
    last_loss: f32,
}

impl DeeperLstmMicro {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 8;
        let hidden = 8;
        let tokens = 10;
        let seq_a = Tensor::randn(tokens, dim, 1.0, &mut rng);
        let seq_b = Tensor::randn(tokens, dim, 1.0, &mut rng);
        let encoder = LstmEncoder::new(dim, hidden, &mut rng);
        let classifier = Mlp::new(
            &[2 * hidden, 32, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        DeeperLstmMicro {
            encoder,
            classifier,
            opt: Adam::new(0.01),
            seq_a,
            seq_b,
            step_idx: 0,
            last_loss: 0.0,
        }
    }
}

impl Workload for DeeperLstmMicro {
    fn step(&mut self, tape: &Tape) -> f32 {
        let label = self.step_idx.is_multiple_of(2);
        self.step_idx += 1;
        let lvars = self.encoder.bind(tape);
        let cvars = self.classifier.bind(tape);
        let sa = tape.var_slice(self.seq_a.rows, self.seq_a.cols, &self.seq_a.data);
        let sb = tape.var_slice(self.seq_b.rows, self.seq_b.cols, &self.seq_b.data);
        let ha = self.encoder.forward_tape(tape, sa, &lvars);
        let hb = self.encoder.forward_tape(tape, sb, &lvars);
        let diff = tape.abs(tape.sub(ha, hb));
        let had = tape.mul(ha, hb);
        let feat = tape.concat(&[diff, had]);
        let logit = self.classifier.forward_tape(tape, feat, &cvars, None);
        let target = Tensor::scalar(if label { 1.0 } else { 0.0 });
        let loss = tape.bce_with_logits(logit, target, Tensor::scalar(1.0));
        let lv = tape.item(loss);
        tape.backward(loss);
        self.opt.begin_step();
        self.encoder.apply_grads(&mut self.opt, 0, tape, &lvars);
        let base = self.encoder.slot_count();
        self.classifier
            .apply_grads(&mut self.opt, base, tape, &cvars);
        self.last_loss = lv;
        lv
    }

    fn fingerprint(&self) -> Vec<u32> {
        let mut bits = vec![self.last_loss.to_bits()];
        for t in [&self.encoder.wx, &self.encoder.wh, &self.encoder.b] {
            bits.extend(t.data.iter().map(|v| v.to_bits()));
        }
        for l in &self.classifier.layers {
            bits.extend(l.w.data.iter().map(|v| v.to_bits()));
            bits.extend(l.b.data.iter().map(|v| v.to_bits()));
        }
        bits
    }
}

/// Run `n` baseline steps (pool off, fresh tape per step).
fn run_baseline(w: &mut dyn Workload, n: usize) {
    set_pool_enabled(false);
    for _ in 0..n {
        let tape = Tape::new();
        w.step(&tape);
    }
}

/// Run `n` pooled steps (pool on) against `tape`, recycling
/// after each.
fn run_pooled(w: &mut dyn Workload, tape: &Tape, n: usize) {
    for _ in 0..n {
        w.step(tape);
        tape.recycle();
    }
}

/// Median of a sample set (sorts in place).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[allow(clippy::too_many_arguments)]
fn bench_workload(
    name: &'static str,
    description: &'static str,
    make: &dyn Fn(u64) -> Box<dyn Workload>,
    warmup: usize,
    timed: usize,
    reps: usize,
    equiv_steps: usize,
    min_reduction_pct: f64,
    smoke: bool,
) -> WorkloadSnapshot {
    // Bitwise equivalence: identically-seeded models through both
    // configurations must agree to the last bit.
    let mut wa = make(7);
    run_baseline(wa.as_mut(), equiv_steps);
    let mut wb = make(7);
    set_pool_enabled(true);
    let equiv_tape = Tape::new();
    run_pooled(wb.as_mut(), &equiv_tape, equiv_steps);
    let bitwise_equal = wa.fingerprint() == wb.fingerprint();
    assert!(
        bitwise_equal,
        "{name}: pooled training diverged from the fresh-unpooled-tape baseline"
    );

    // Timing: interleaved baseline/pooled sample pairs so both modes
    // see the same machine conditions. Every sample restarts from the
    // same seed, so each rep times the exact same deterministic step
    // sequence — and stays in the early-training regime the repo's real
    // fits run in (long-converged models drift into denormal moments,
    // which time the FPU, not the allocator).
    set_pool_enabled(true);
    let tape = Tape::new();
    {
        // Warm the pool's size classes once; later reps re-use them.
        let mut ww = make(11);
        run_pooled(ww.as_mut(), &tape, warmup);
    }
    let warm = tape.pool_stats();

    let mut base_samples = Vec::with_capacity(reps);
    let mut pooled_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut wb = make(11);
        let t0 = Instant::now();
        run_baseline(wb.as_mut(), timed);
        base_samples.push(t0.elapsed().as_secs_f64() * 1e6 / timed as f64);

        let mut wp = make(11);
        set_pool_enabled(true);
        let t0 = Instant::now();
        run_pooled(wp.as_mut(), &tape, timed);
        pooled_samples.push(t0.elapsed().as_secs_f64() * 1e6 / timed as f64);
    }
    // Reduction is judged on the per-pair ratios: each baseline sample
    // is paired with the pooled sample taken right after it, so slow
    // spells on a shared box cancel instead of landing on one mode.
    let mut reductions: Vec<f64> = base_samples
        .iter()
        .zip(&pooled_samples)
        .map(|(b, p)| (1.0 - p / b) * 100.0)
        .collect();
    let reduction_pct = median(&mut reductions);
    let baseline_us_per_step = median(&mut base_samples);
    let pooled_us_per_step = median(&mut pooled_samples);
    let stats = tape.pool_stats();
    let warm_misses_per_step = (stats.misses - warm.misses) as f64 / (reps * timed) as f64;
    assert!(
        warm_misses_per_step < 1.0,
        "{name}: pool still missing after warmup ({warm_misses_per_step:.2}/step)"
    );

    eprintln!(
        "{name}: baseline {baseline_us_per_step:.1}us/step  pooled {pooled_us_per_step:.1}us/step  \
         ({reduction_pct:+.1}% reduction, {warm_misses_per_step:.3} misses/step warm)"
    );
    if !smoke {
        assert!(
            reduction_pct > 0.0 && reduction_pct >= min_reduction_pct,
            "{name}: expected the pooled step to beat the fresh one by >= \
             {min_reduction_pct}% (and > 0%), measured {reduction_pct:.1}%"
        );
    }

    WorkloadSnapshot {
        name,
        description,
        warmup_steps: warmup,
        timed_steps: timed,
        reps,
        baseline_us_per_step,
        pooled_us_per_step,
        reduction_pct,
        warm_misses_per_step,
        pool_hits: stats.hits,
        pool_misses: stats.misses,
        pool_high_water_bytes: stats.high_water_bytes,
        bitwise_equal,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (warmup, timed, reps, equiv_steps) = if smoke {
        (5, 20, 3, 10)
    } else {
        (30, 300, 9, 50)
    };

    let workloads = vec![
        bench_workload(
            "mlp_micro",
            "Mlp::train_batch, 4x8 batch, deep narrow [8,8x10,1] relu net, MSE",
            &|seed| Box::new(MlpMicro::new(seed)) as Box<dyn Workload>,
            warmup,
            timed,
            reps,
            equiv_steps,
            30.0,
            smoke,
        ),
        bench_workload(
            "deeper_lstm_micro",
            "DeepER-LSTM pair step: shared LSTM(8) over 2x10 tokens, |a-b| ++ a*b features, [16,32,1] head, BCE",
            &|seed| Box::new(DeeperLstmMicro::new(seed)) as Box<dyn Workload>,
            warmup,
            timed,
            reps,
            equiv_steps,
            0.0,
            smoke,
        ),
    ];

    // Short instrumented pooled pass so the snapshot embeds the pool
    // counters/gauge as dc-obs reports them (timing above runs with the
    // obs gate off, so instrumentation never skews the measurements).
    dc_obs::reset();
    dc_obs::set_enabled(true);
    let mut w = MlpMicro::new(3);
    set_pool_enabled(true);
    let tape = Tape::new();
    run_pooled(&mut w, &tape, 10);
    dc_obs::set_enabled(false);
    let obs_pool = PoolObs::from_report(&dc_obs::report());

    let snapshot = Snapshot {
        description: "training-step time: fresh unpooled tape vs one recycled pooled tape; bitwise-identical results enforced",
        smoke,
        workloads,
        obs_pool,
    };
    let json = serde_json::to_string(&snapshot).expect("serialize snapshot");
    if smoke {
        eprintln!("smoke mode: skipping BENCH_train.json write");
    } else {
        std::fs::write("BENCH_train.json", json + "\n").expect("write BENCH_train.json");
        eprintln!("wrote BENCH_train.json");
    }
}
