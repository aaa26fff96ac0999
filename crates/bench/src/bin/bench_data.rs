//! Record the out-of-core data-store snapshot into `BENCH_data.json`.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin bench_data            # full run
//! cargo run --release -p dc-bench --bin bench_data -- --smoke # CI gate
//! ```
//!
//! Three claims from ISSUE 10, each asserted here:
//!
//! * **Streaming is near-free**: training epochs driven from a
//!   file-backed [`ChunkedStore`] under a residency budget cost within
//!   15% per step of the fully resident run — for both the MLP batch
//!   workload and the pair-by-pair DeepER-LSTM workload. Both runs use
//!   the same chunk layout, so their trajectories are bitwise equal
//!   (asserted every rep, smoke included).
//! * **Warm steps allocate nothing**: on the in-memory fast path the
//!   pooled batch buffers grow only on the first step of a run —
//!   `dc_data::batch_allocs` must not move after warmup.
//! * **Larger-than-budget runs reproduce the resident run**: a demo
//!   dataset with more chunks than its resident budget completes with a
//!   loss trajectory bitwise-equal to the fully resident run of the
//!   same chunk shuffle, while actually evicting.
//!
//! Plus a CSR micro-bench (one-hot-style batch × dense embedding
//! table, sparse vs dense matmul) and an embedded dc-obs report with
//! the `data.chunk.{hit,miss,evict}` counters and the `data.gather`
//! histogram.
//!
//! `--smoke` shrinks sizes, keeps every bitwise and allocation check,
//! skips wall-clock assertions and writes no file — that mode is wired
//! into `scripts/lint.sh` and CI.

use dc_data::{batch_allocs, ChunkedDataset, ChunkedStore, Csr, Dataset, DenseView};
use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::lstm::LstmEncoder;
use dc_nn::mlp::Mlp;
use dc_nn::optim::{Adam, Optimizer};
use dc_nn::train::{
    run_dataset_epochs, Batch, MlpTrainer, StepStats, TrainCtx, TrainOpts, Trainer,
};
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct EpochWorkloadSnapshot {
    name: &'static str,
    description: &'static str,
    rows: usize,
    chunk_rows: usize,
    n_chunks: usize,
    budget: usize,
    epochs: usize,
    steps_per_run: usize,
    reps: usize,
    resident_us_per_step: f64,
    streamed_us_per_step: f64,
    overhead_pct: f64,
    bitwise_equal: bool,
    chunk_evicts: u64,
}

#[derive(Serialize)]
struct FastPathSnapshot {
    epochs: usize,
    steps: usize,
    initial_buffer_growths: u64,
    warm_batch_allocs_per_step: f64,
}

#[derive(Serialize)]
struct DemoSnapshot {
    rows: usize,
    n_chunks: usize,
    budget: usize,
    bitwise_equal: bool,
    chunk_evicts: u64,
}

#[derive(Serialize)]
struct CsrSnapshot {
    rows: usize,
    cols: usize,
    dense_cols: usize,
    nnz: usize,
    density: f64,
    sparse_us: f64,
    dense_us: f64,
    speedup: f64,
    matches_reference_bitwise: bool,
}

/// The `data.*` instruments as dc-obs reports them.
#[derive(Serialize)]
struct DataObs {
    chunk_hit: u64,
    chunk_miss: u64,
    chunk_evict: u64,
    batch_alloc: u64,
    gather_samples: u64,
}

impl DataObs {
    fn from_report(report: &dc_obs::ObsReport) -> DataObs {
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let gather_samples = report
            .timers
            .iter()
            .find(|t| t.name == "data.gather")
            .map_or(0, |t| t.hist.count);
        DataObs {
            chunk_hit: counter("data.chunk.hit"),
            chunk_miss: counter("data.chunk.miss"),
            chunk_evict: counter("data.chunk.evict"),
            batch_alloc: counter("data.batch.alloc"),
            gather_samples,
        }
    }
}

#[derive(Serialize)]
struct Snapshot {
    description: &'static str,
    smoke: bool,
    epoch_workloads: Vec<EpochWorkloadSnapshot>,
    fast_path: FastPathSnapshot,
    larger_than_budget_demo: DemoSnapshot,
    csr_onehot_matmul: CsrSnapshot,
    obs_data: DataObs,
}

/// Median of a sample set (sorts in place).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dc_bench_data_{tag}_{}.dcs", std::process::id()))
}

/// An epoch workload: builds a deterministic trainer from a seed and
/// runs it over whatever dataset it is handed, returning the loss
/// trajectory's f32 bits.
trait EpochWorkload {
    fn run(&self, ds: &mut dyn Dataset, rng: &mut StdRng) -> Vec<u32>;
    fn opts(&self) -> TrainOpts;
}

/// Supervised MLP epochs — the `Mlp::fit` shape at dataset scale.
struct MlpEpochs {
    opts: TrainOpts,
}

impl EpochWorkload for MlpEpochs {
    fn run(&self, ds: &mut dyn Dataset, rng: &mut StdRng) -> Vec<u32> {
        let mut model = Mlp::new(
            &[ds.x_cols(), 16, 1],
            Activation::Relu,
            Activation::Identity,
            rng,
        );
        let mut opt = Adam::new(0.01);
        let mut t = MlpTrainer {
            model: &mut model,
            loss: LossKind::Mse,
            opt: &mut opt,
        };
        run_dataset_epochs("bench.data.mlp", &mut t, ds, &self.opts, rng)
            .iter()
            .map(|e| e.loss.to_bits())
            .collect()
    }

    fn opts(&self) -> TrainOpts {
        self.opts
    }
}

/// The pair-by-pair DeepER-LSTM shape: the dataset serves 1×1 batches
/// holding a pair index (batch_size 1), and the trainer encodes the
/// indexed token-sequence pair with a shared LSTM — so the
/// out-of-core store drives exactly the access pattern of
/// `LstmPairTrainer`.
struct DeeperLstmEpochs {
    opts: TrainOpts,
    pairs: Vec<(Tensor, Tensor, f32)>,
}

impl DeeperLstmEpochs {
    fn new(n_pairs: usize, tokens: usize, epochs: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = (0..n_pairs)
            .map(|i| {
                (
                    Tensor::randn(tokens, 8, 1.0, &mut rng),
                    Tensor::randn(tokens, 8, 1.0, &mut rng),
                    (i % 2) as f32,
                )
            })
            .collect();
        DeeperLstmEpochs {
            opts: TrainOpts::default().with_epochs(epochs).with_batch_size(1),
            pairs,
        }
    }
}

struct LstmPairStep<'a> {
    encoder: LstmEncoder,
    classifier: Mlp,
    opt: Adam,
    pairs: &'a [(Tensor, Tensor, f32)],
    last_loss: f32,
}

impl Trainer for LstmPairStep<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let tape = ctx.tape;
        let (sa, sb, label) = &self.pairs[batch.x.data[0] as usize];
        let lvars = self.encoder.bind(tape);
        let cvars = self.classifier.bind(tape);
        let va = tape.var_slice(sa.rows, sa.cols, &sa.data);
        let vb = tape.var_slice(sb.rows, sb.cols, &sb.data);
        let ha = self.encoder.forward_tape(tape, va, &lvars);
        let hb = self.encoder.forward_tape(tape, vb, &lvars);
        let feat = tape.concat(&[tape.abs(tape.sub(ha, hb)), tape.mul(ha, hb)]);
        let logit = self.classifier.forward_tape(tape, feat, &cvars, None);
        let loss = tape.bce_with_logits(logit, Tensor::scalar(*label), Tensor::scalar(1.0));
        let lv = tape.item(loss);
        tape.backward(loss);
        self.opt.begin_step();
        self.encoder.apply_grads(&mut self.opt, 0, tape, &lvars);
        let base = self.encoder.slot_count();
        self.classifier
            .apply_grads(&mut self.opt, base, tape, &cvars);
        self.last_loss = lv;
        StepStats { loss: lv, aux: 0.0 }
    }
}

impl EpochWorkload for DeeperLstmEpochs {
    fn run(&self, ds: &mut dyn Dataset, rng: &mut StdRng) -> Vec<u32> {
        let mut t = LstmPairStep {
            encoder: LstmEncoder::new(8, 8, rng),
            classifier: Mlp::new(&[16, 16, 1], Activation::Relu, Activation::Identity, rng),
            opt: Adam::new(0.01),
            pairs: &self.pairs,
            last_loss: 0.0,
        };
        run_dataset_epochs("bench.data.lstm", &mut t, ds, &self.opts, rng)
            .iter()
            .map(|e| e.loss.to_bits())
            .collect()
    }

    fn opts(&self) -> TrainOpts {
        self.opts
    }
}

/// Time `workload` over the resident and streamed variants of the same
/// chunk layout; assert bitwise-equal trajectories and (full mode)
/// the ≤15% streamed overhead bound.
#[allow(clippy::too_many_arguments)]
fn bench_epoch_workload(
    name: &'static str,
    description: &'static str,
    workload: &dyn EpochWorkload,
    x: &Tensor,
    y: Option<&Tensor>,
    chunk_rows: usize,
    budget: usize,
    reps: usize,
    smoke: bool,
) -> EpochWorkloadSnapshot {
    let make_resident = || match y {
        Some(y) => ChunkedDataset::with_targets(
            ChunkedStore::from_tensor(x, chunk_rows),
            ChunkedStore::from_tensor(y, chunk_rows),
        ),
        None => ChunkedDataset::new(ChunkedStore::from_tensor(x, chunk_rows)),
    };
    let px = temp_path(&format!("{name}_x"));
    let py = temp_path(&format!("{name}_y"));
    ChunkedStore::write(&px, x, chunk_rows).expect("write x store");
    if let Some(y) = y {
        ChunkedStore::write(&py, y, chunk_rows).expect("write y store");
    }
    let make_streamed = || {
        let sx = ChunkedStore::open_with_budget(&px, budget).expect("open x store");
        match y {
            Some(_) => ChunkedDataset::with_targets(
                sx,
                ChunkedStore::open_with_budget(&py, budget).expect("open y store"),
            ),
            None => ChunkedDataset::new(sx),
        }
    };

    let opts = workload.opts();
    let steps_per_run = opts.epochs * x.rows.div_ceil(opts.batch_size.max(1)).max(1);
    let mut resident_samples = Vec::with_capacity(reps);
    let mut streamed_samples = Vec::with_capacity(reps);
    let mut bitwise_equal = true;
    let mut chunk_evicts = 0u64;
    for rep in 0..reps {
        // Interleaved pairs: both variants see the same machine
        // conditions; identical seeds per rep → identical step counts
        // and (asserted) identical trajectories.
        let mut rng = StdRng::seed_from_u64(1000 + rep as u64);
        let mut ds = make_resident();
        let t0 = Instant::now();
        let want = workload.run(&mut ds, &mut rng);
        resident_samples.push(t0.elapsed().as_secs_f64() * 1e6 / steps_per_run as f64);

        let mut rng = StdRng::seed_from_u64(1000 + rep as u64);
        let mut ds = make_streamed();
        let t0 = Instant::now();
        let got = workload.run(&mut ds, &mut rng);
        streamed_samples.push(t0.elapsed().as_secs_f64() * 1e6 / steps_per_run as f64);
        chunk_evicts = ds.x_store().cache_stats().evicts;

        bitwise_equal &= want == got;
        assert!(
            bitwise_equal,
            "{name}: streamed trajectory diverged from resident run at rep {rep}"
        );
    }
    std::fs::remove_file(&px).ok();
    std::fs::remove_file(&py).ok();

    let mut overheads: Vec<f64> = resident_samples
        .iter()
        .zip(&streamed_samples)
        .map(|(r, s)| (s / r - 1.0) * 100.0)
        .collect();
    let overhead_pct = median(&mut overheads);
    let resident_us_per_step = median(&mut resident_samples);
    let streamed_us_per_step = median(&mut streamed_samples);
    let n_chunks = x.rows.div_ceil(chunk_rows);
    assert!(
        n_chunks > budget,
        "{name}: demo must exceed the residency budget ({n_chunks} chunks vs budget {budget})"
    );
    assert!(
        chunk_evicts > 0,
        "{name}: streamed run never evicted — not actually out of core"
    );
    eprintln!(
        "{name}: resident {resident_us_per_step:.1}us/step  streamed {streamed_us_per_step:.1}us/step  \
         ({overhead_pct:+.1}% overhead, {chunk_evicts} evicts)"
    );
    if !smoke {
        assert!(
            overhead_pct <= 15.0,
            "{name}: streamed overhead {overhead_pct:.1}% exceeds the 15% bound"
        );
    }

    EpochWorkloadSnapshot {
        name,
        description,
        rows: x.rows,
        chunk_rows,
        n_chunks,
        budget,
        epochs: opts.epochs,
        steps_per_run,
        reps,
        resident_us_per_step,
        streamed_us_per_step,
        overhead_pct,
        bitwise_equal,
        chunk_evicts,
    }
}

/// The in-memory fast path must not allocate batch buffers after the
/// first step of a run: `run_dataset_epochs` owns one pooled batch, so buffer
/// growth is bounded by the initial x+y reservation.
fn bench_fast_path(smoke: bool) -> FastPathSnapshot {
    let mut rng = StdRng::seed_from_u64(5);
    let rows = if smoke { 64 } else { 512 };
    let epochs = if smoke { 3 } else { 10 };
    let x = Tensor::randn(rows, 12, 1.0, &mut rng);
    let y = Tensor::from_vec(rows, 1, (0..rows).map(|i| (i % 2) as f32).collect());
    let mut model = Mlp::new(
        &[12, 16, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let mut opt = Adam::new(0.01);
    let mut t = MlpTrainer {
        model: &mut model,
        loss: LossKind::Mse,
        opt: &mut opt,
    };
    let opts = TrainOpts::default().with_epochs(epochs).with_batch_size(16);
    let before = batch_allocs();
    let mut ds = DenseView::new(&x, Some(&y));
    run_dataset_epochs("bench.data.fastpath", &mut t, &mut ds, &opts, &mut rng);
    let growths = batch_allocs() - before;
    let steps = epochs * rows.div_ceil(16);
    // One growth for the x buffer, one for y, both on the first step;
    // every later step (including ragged tails) reuses capacity.
    assert!(
        growths <= 2,
        "fast path grew batch buffers {growths} times over {steps} steps (expected <=2)"
    );
    let warm_per_step = growths.saturating_sub(2) as f64 / steps as f64;
    eprintln!(
        "fast_path: {growths} initial buffer growths, {warm_per_step:.4} warm allocs/step over {steps} steps"
    );
    FastPathSnapshot {
        epochs,
        steps,
        initial_buffer_growths: growths,
        warm_batch_allocs_per_step: warm_per_step,
    }
}

/// The acceptance-criteria demo, run at a fixed small size even in
/// full mode: dataset over budget, trajectories bitwise-equal.
fn larger_than_budget_demo() -> DemoSnapshot {
    let mut rng = StdRng::seed_from_u64(9);
    let rows = 96;
    let chunk_rows = 8; // 12 chunks
    let budget = 3;
    let x = Tensor::randn(rows, 6, 1.0, &mut rng);
    let y = Tensor::from_vec(rows, 1, (0..rows).map(|i| (i % 2) as f32).collect());
    let opts = TrainOpts::default().with_epochs(3).with_batch_size(8);
    let workload = MlpEpochs { opts };

    let mut rng_a = StdRng::seed_from_u64(33);
    let mut resident = ChunkedDataset::with_targets(
        ChunkedStore::from_tensor(&x, chunk_rows),
        ChunkedStore::from_tensor(&y, chunk_rows),
    );
    let want = workload.run(&mut resident, &mut rng_a);

    let (px, py) = (temp_path("demo_x"), temp_path("demo_y"));
    ChunkedStore::write(&px, &x, chunk_rows).expect("write x");
    ChunkedStore::write(&py, &y, chunk_rows).expect("write y");
    let mut rng_b = StdRng::seed_from_u64(33);
    let mut streamed = ChunkedDataset::with_targets(
        ChunkedStore::open_with_budget(&px, budget).expect("open x"),
        ChunkedStore::open_with_budget(&py, budget).expect("open y"),
    );
    let got = workload.run(&mut streamed, &mut rng_b);
    let stats = streamed.x_store().cache_stats();
    std::fs::remove_file(&px).ok();
    std::fs::remove_file(&py).ok();

    assert_eq!(
        want, got,
        "demo: streamed trajectory diverged from resident"
    );
    assert!(stats.evicts > 0, "demo never evicted: {stats:?}");
    eprintln!(
        "demo: {} chunks under budget {budget}, {} evicts, trajectories bitwise-equal",
        rows / chunk_rows,
        stats.evicts
    );
    DemoSnapshot {
        rows,
        n_chunks: rows / chunk_rows,
        budget,
        bitwise_equal: true,
        chunk_evicts: stats.evicts,
    }
}

/// One-hot-style batch (1 nonzero per row) times a dense embedding
/// table: the CSR family vs materialising the zeros.
fn bench_csr(smoke: bool, reps: usize) -> CsrSnapshot {
    let (rows, cols, dense_cols) = if smoke {
        (256, 512, 32)
    } else {
        (2048, 4096, 64)
    };
    let mut dense = Tensor::zeros(rows, cols);
    let mut state = 0x5eed_u64;
    for r in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        dense.row_slice_mut(r)[(state >> 33) as usize % cols] = 1.0;
    }
    let table = {
        let mut rng = StdRng::seed_from_u64(21);
        Tensor::randn(cols, dense_cols, 1.0, &mut rng)
    };
    let sparse = Csr::from_dense(&dense);

    // Reference with the same skip-zero accumulation order.
    let mut want = Tensor::zeros(rows, dense_cols);
    for r in 0..rows {
        for (k, &v) in dense.row_slice(r).iter().enumerate() {
            if v != 0.0 {
                let brow = table.row_slice(k);
                for (o, &bv) in want.row_slice_mut(r).iter_mut().zip(brow) {
                    *o += v * bv;
                }
            }
        }
    }
    let got = sparse.matmul_dense(&table);
    let matches = got
        .data
        .iter()
        .zip(&want.data)
        .all(|(g, w)| g.to_bits() == w.to_bits());
    assert!(matches, "csr: sparse product diverged from reference");

    let mut sparse_samples = Vec::with_capacity(reps);
    let mut dense_samples = Vec::with_capacity(reps);
    let mut out = Tensor::zeros(0, 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        sparse.matmul_dense_into(&table, &mut out);
        sparse_samples.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let d = dense.matmul(&table);
        dense_samples.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(d);
    }
    let sparse_us = median(&mut sparse_samples);
    let dense_us = median(&mut dense_samples);
    let speedup = dense_us / sparse_us;
    eprintln!(
        "csr_onehot: sparse {sparse_us:.0}us  dense {dense_us:.0}us  ({speedup:.1}x, density {:.4})",
        sparse.density()
    );
    CsrSnapshot {
        rows,
        cols,
        dense_cols,
        nnz: sparse.nnz(),
        density: sparse.density(),
        sparse_us,
        dense_us,
        speedup,
        matches_reference_bitwise: matches,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 3 } else { 9 };

    dc_tensor::set_pool_enabled(true);

    let (mlp_rows, lstm_pairs, epochs) = if smoke { (128, 24, 2) } else { (1024, 96, 4) };
    let mut rng = StdRng::seed_from_u64(3);
    let mlp_x = Tensor::randn(mlp_rows, 12, 1.0, &mut rng);
    let mlp_y = Tensor::from_vec(mlp_rows, 1, (0..mlp_rows).map(|i| (i % 2) as f32).collect());
    let mlp = MlpEpochs {
        opts: TrainOpts::default().with_epochs(epochs).with_batch_size(16),
    };
    let lstm = DeeperLstmEpochs::new(lstm_pairs, 10, epochs, 17);
    let lstm_index = Tensor::from_vec(lstm_pairs, 1, (0..lstm_pairs).map(|i| i as f32).collect());

    let epoch_workloads = vec![
        bench_epoch_workload(
            "mlp_epochs",
            "supervised MLP epochs over a chunked feature store, batch 16",
            &mlp,
            &mlp_x,
            Some(&mlp_y),
            mlp_rows / 8,
            3,
            reps,
            smoke,
        ),
        bench_epoch_workload(
            "deeper_lstm_epochs",
            "pair-by-pair DeepER-LSTM epochs driven by a chunked pair-index store, batch 1",
            &lstm,
            &lstm_index,
            None,
            lstm_pairs.div_ceil(8),
            3,
            reps,
            smoke,
        ),
    ];

    let fast_path = bench_fast_path(smoke);
    let demo = larger_than_budget_demo();
    let csr = bench_csr(smoke, reps);

    // Short instrumented streamed pass so the snapshot embeds the
    // data.* counters and gather histogram as dc-obs reports them
    // (timings above run with the obs gate off).
    dc_obs::reset();
    dc_obs::set_enabled(true);
    {
        let mut rng = StdRng::seed_from_u64(71);
        let x = Tensor::randn(64, 6, 1.0, &mut rng);
        let path = temp_path("obs");
        ChunkedStore::write(&path, &x, 8).expect("write obs store");
        let mut ds =
            ChunkedDataset::new(ChunkedStore::open_with_budget(&path, 2).expect("open obs store"));
        let mut order = Vec::new();
        let mut batch = Tensor::zeros(0, 6);
        for _ in 0..3 {
            ds.shuffle_epoch(&mut order, &mut rng);
            // Batch 5 is deliberately misaligned with the 8-row chunks
            // so runs span batch boundaries and the hit counter moves.
            for chunk in order.chunks(5) {
                ds.fill_batch(chunk, &mut batch, None);
            }
        }
        std::fs::remove_file(&path).ok();
    }
    dc_obs::set_enabled(false);
    let obs_data = DataObs::from_report(&dc_obs::report());
    assert!(obs_data.chunk_hit > 0, "obs pass recorded no chunk hits");
    assert!(obs_data.chunk_miss > 0, "obs pass recorded no chunk misses");
    assert!(obs_data.chunk_evict > 0, "obs pass recorded no evictions");
    assert!(obs_data.gather_samples > 0, "obs pass recorded no gathers");

    let snapshot = Snapshot {
        description: "out-of-core chunked store: streamed-vs-resident epoch cost (bitwise-equal \
                      trajectories enforced), zero warm batch allocations on the fast path, \
                      larger-than-budget demo, and the sparse CSR one-hot matmul",
        smoke,
        epoch_workloads,
        fast_path,
        larger_than_budget_demo: demo,
        csr_onehot_matmul: csr,
        obs_data,
    };
    let json = serde_json::to_string(&snapshot).expect("serialize snapshot");
    if smoke {
        eprintln!("smoke mode: skipping BENCH_data.json write");
    } else {
        std::fs::write("BENCH_data.json", json + "\n").expect("write BENCH_data.json");
        eprintln!("wrote BENCH_data.json");
    }
}
