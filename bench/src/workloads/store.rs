//! `stream_store`: the one workload where dc-data is the product. Three
//! phases over one file-backed store, so a layout or prefetch change
//! that helps one kind of access and hurts another shows in one number:
//!
//! 1. **ingest** — `StoreWriter` streams wide `f32` rows (and a label
//!    column) to disk;
//! 2. **scan** — passes of `par_visit_rows` over
//!    `open_with_budget(.., 4)` computing per-column mean and variance;
//! 3. **stream** — `run_dataset_epochs` of a one-layer model at budget
//!    4, so every epoch evicts every chunk. Wide rows and a tiny model
//!    put chunk load + gather at a visible share of the epoch.

use crate::harness::{
    end_to_end, pct_over, ratio, run_for, timed_setup, Checks, Obs, Outcome, RunOpts,
};
use crate::stats;
use crate::trace::Tracer;
use dc_data::{ChunkedDataset, ChunkedStore, Dataset, StoreWriter};
use dc_nn::train::{
    run_dataset_epochs, Batch, MlpTrainer, StepStats, TrainCtx, TrainOpts, Trainer,
};
use dc_nn::{Activation, Adam, LossKind, Mlp};
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const COLS: usize = 256;
/// Resident-chunk budget of every streamed open.
const BUDGET: usize = 4;
const BATCH: usize = 256;
/// Rows per `par_visit_rows` task, and the unit the scan's accumulator
/// shards are keyed by (so the two pool threads rarely share a lock).
const SCAN_GRAIN: usize = 256;
const SCAN_SHARDS: usize = 8;

/// Sizes of one repetition.
struct Sizes {
    rows: usize,
    chunk_rows: usize,
    scan_passes: usize,
    epochs: usize,
}

struct Input {
    sizes: Sizes,
    x: Tensor,
    y: Tensor,
    /// Wrapping sum of every cell's bit pattern, as generated.
    written_checksum: u64,
    dir: PathBuf,
    model_seed: u64,
}

impl Input {
    fn x_path(&self) -> PathBuf {
        self.dir.join("x.dcstore")
    }

    fn y_path(&self) -> PathBuf {
        self.dir.join("y.dcstore")
    }

    /// Rows written + rows scanned + rows streamed in one repetition.
    fn units(&self) -> f64 {
        (self.sizes.rows * (1 + self.sizes.scan_passes + self.sizes.epochs)) as f64
    }
}

fn bits_sum(row: &[f32]) -> u64 {
    row.iter()
        .fold(0u64, |s, v| s.wrapping_add(v.to_bits() as u64))
}

fn make_input(seed: u64, smoke: bool, dir: &Path) -> Input {
    let sizes = if smoke {
        Sizes {
            rows: 2_048,
            chunk_rows: 256,
            scan_passes: 1,
            epochs: 1,
        }
    } else {
        Sizes {
            rows: 49_152,
            chunk_rows: 1_024,
            scan_passes: 3,
            epochs: 2,
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::randn(sizes.rows, COLS, 1.0, &mut rng);
    let w = Tensor::randn(1, COLS, 1.0, &mut rng);
    let labels = (0..sizes.rows)
        .map(|r| {
            let dot: f32 = x.row_slice(r).iter().zip(&w.data).map(|(a, b)| a * b).sum();
            f32::from(dot > 0.0)
        })
        .collect();
    Input {
        written_checksum: bits_sum(&x.data),
        y: Tensor::from_vec(sizes.rows, 1, labels),
        x,
        sizes,
        dir: dir.to_path_buf(),
        model_seed: seed ^ 0x570e,
    }
}

/// Phase 1: both stores, from first row pushed to `finish()` returned.
fn ingest(input: &Input) -> std::io::Result<()> {
    for (path, t) in [(input.x_path(), &input.x), (input.y_path(), &input.y)] {
        let mut w = StoreWriter::create(&path, t.cols, input.sizes.chunk_rows)?;
        w.push_rows(t)?;
        w.finish()?;
    }
    Ok(())
}

/// Per-column sums and sums of squares.
struct ColStats {
    sum: Vec<f64>,
    sq: Vec<f64>,
}

/// Phase 2: returns the checksum of everything read over all passes and
/// how far the worst column mean or variance lies from N(0,1)'s.
fn scan(input: &Input) -> std::io::Result<(u64, f64)> {
    let mut store = ChunkedStore::open_with_budget(&input.x_path(), BUDGET)?;
    let checksum = AtomicU64::new(0);
    let mut worst = 0.0f64;
    for _ in 0..input.sizes.scan_passes {
        let shards: Vec<Mutex<ColStats>> = (0..SCAN_SHARDS)
            .map(|_| {
                Mutex::new(ColStats {
                    sum: vec![0.0; COLS],
                    sq: vec![0.0; COLS],
                })
            })
            .collect();
        store.par_visit_rows(SCAN_GRAIN, |r, row| {
            checksum.fetch_add(bits_sum(row), Ordering::Relaxed);
            let mut s = shards[(r / SCAN_GRAIN) % SCAN_SHARDS]
                .lock()
                .expect("scan shard: no holder panics");
            let ColStats { sum, sq } = &mut *s;
            for ((acc, acc2), &v) in sum.iter_mut().zip(sq.iter_mut()).zip(row) {
                let v = f64::from(v);
                *acc += v;
                *acc2 += v * v;
            }
        });
        let n = input.sizes.rows as f64;
        for c in 0..COLS {
            let (mut sum, mut sq) = (0.0, 0.0);
            for s in &shards {
                let s = s.lock().expect("scan shard: no holder panics");
                sum += s.sum[c];
                sq += s.sq[c];
            }
            let mean = sum / n;
            let var = sq / n - mean * mean;
            worst = worst.max(mean.abs()).max((var - 1.0).abs());
        }
    }
    Ok((checksum.into_inner(), worst))
}

/// Per-call timing around the public `Dataset` trait, for the traced
/// pass: what the loop spends fetching rows rather than training.
struct TimedDataset<D> {
    inner: D,
    fill_s: f64,
    shuffle_s: f64,
    /// `dc_data::batch_allocs()` when the second epoch began.
    allocs_at_warm: Option<u64>,
    epochs_seen: usize,
}

impl<D: Dataset> TimedDataset<D> {
    fn new(inner: D) -> Self {
        TimedDataset {
            inner,
            fill_s: 0.0,
            shuffle_s: 0.0,
            allocs_at_warm: None,
            epochs_seen: 0,
        }
    }
}

impl<D: Dataset> Dataset for TimedDataset<D> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn x_cols(&self) -> usize {
        self.inner.x_cols()
    }

    fn y_cols(&self) -> Option<usize> {
        self.inner.y_cols()
    }

    fn shuffle_epoch(&mut self, order: &mut Vec<usize>, rng: &mut StdRng) {
        self.epochs_seen += 1;
        if self.epochs_seen == 2 {
            self.allocs_at_warm = Some(dc_data::batch_allocs());
        }
        let t = Instant::now();
        self.inner.shuffle_epoch(order, rng);
        self.shuffle_s += t.elapsed().as_secs_f64();
    }

    fn fill_batch(&mut self, idx: &[usize], x: &mut Tensor, y: Option<&mut Tensor>) {
        let t = Instant::now();
        self.inner.fill_batch(idx, x, y);
        self.fill_s += t.elapsed().as_secs_f64();
    }
}

/// Per-step timing around the public `Trainer` trait: raw samples, so
/// the step percentiles are exact.
struct TimedTrainer<'a, T> {
    inner: &'a mut T,
    step_us: &'a mut Vec<f64>,
}

impl<T: Trainer> Trainer for TimedTrainer<'_, T> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        let t = Instant::now();
        let s = self.inner.fit(batch, ctx);
        self.step_us.push(t.elapsed().as_secs_f64() * 1e6);
        s
    }
}

/// Phase 3 (and its resident twin): epochs of a linear model over `ds`.
/// Returns the per-epoch loss bits.
fn train_epochs<D: Dataset>(input: &Input, ds: &mut D, step_us: Option<&mut Vec<f64>>) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(input.model_seed);
    let mut model = Mlp::new(&[COLS, 1], Activation::Relu, Activation::Identity, &mut rng);
    let mut opt = Adam::new(0.01);
    let opts = TrainOpts::default()
        .with_epochs(input.sizes.epochs)
        .with_batch_size(BATCH);
    let mut trainer = MlpTrainer {
        model: &mut model,
        loss: LossKind::bce(),
        opt: &mut opt,
    };
    let trace = match step_us {
        Some(step_us) => {
            let mut timed = TimedTrainer {
                inner: &mut trainer,
                step_us,
            };
            run_dataset_epochs("bench.stream", &mut timed, ds, &opts, &mut rng)
        }
        None => run_dataset_epochs("bench.stream", &mut trainer, ds, &opts, &mut rng),
    };
    trace.iter().map(|e| e.loss.to_bits()).collect()
}

fn open_dataset(input: &Input, budget: usize) -> std::io::Result<ChunkedDataset> {
    Ok(ChunkedDataset::with_targets(
        ChunkedStore::open_with_budget(&input.x_path(), budget)?,
        ChunkedStore::open_with_budget(&input.y_path(), budget)?,
    ))
}

/// What one repetition produced.
struct RepOut {
    ingest_s: f64,
    scan_s: f64,
    stream_s: f64,
    read_checksum: u64,
    worst_moment_error: f64,
    loss_bits: Vec<u32>,
}

fn run_once(input: &Input, tr: &mut Tracer) -> RepOut {
    let t = Instant::now();
    tr.span("data.ingest", |_| ingest(input))
        .expect("write the stores");
    let ingest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (read_checksum, worst_moment_error) = tr
        .span("data.scan", |_| scan(input))
        .expect("scan the store");
    let scan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loss_bits = tr.span("data.stream", |_| {
        let mut ds = open_dataset(input, BUDGET).expect("open the stores");
        train_epochs(input, &mut ds, None)
    });
    RepOut {
        ingest_s,
        scan_s,
        stream_s: t.elapsed().as_secs_f64(),
        read_checksum,
        worst_moment_error,
        loss_bits,
    }
}

fn check_rep(checks: &mut Checks, input: &Input, rep: &RepOut, resident_bits: &[u32]) {
    // Every scan pass reads every cell once.
    let want = input
        .written_checksum
        .wrapping_mul(input.sizes.scan_passes as u64);
    checks.check(rep.read_checksum == want, || {
        format!(
            "row checksum read {:#x} != written {want:#x}",
            rep.read_checksum
        )
    });
    checks.check(rep.worst_moment_error < 0.1, || {
        format!("column moments off by {:.3}", rep.worst_moment_error)
    });
    checks.check(rep.loss_bits == resident_bits, || {
        format!(
            "streamed loss bits {:?} != resident {:?}",
            rep.loss_bits, resident_bits
        )
    });
}

/// Removes the store directory on success and on unwind.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(opts: &RunOpts, scratch: &Path) -> (Outcome, Vec<Tracer>) {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let dir = scratch.join(format!("store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let _guard = DirGuard(dir.clone());

    // Set-up ends with one full repetition plus the fully resident
    // epochs every streamed run is compared against.
    let (state, setup_s) = timed_setup(opts.setup_reps(), || {
        let input = make_input(opts.seed, opts.smoke, &dir);
        let warm = run_once(&input, &mut Tracer::off());
        let mut resident = open_dataset(&input, usize::MAX).expect("open the stores");
        let resident_bits = train_epochs(&input, &mut resident, None);
        (input, warm, resident_bits)
    });
    let (input, warm, resident_bits) = state;
    check_rep(&mut checks, &input, &warm, &resident_bits);

    if !opts.trace {
        let mut off = Tracer::off();
        let (reps, times, wall) = run_for(opts.seconds, |_| run_once(&input, &mut off));
        for rep in &reps {
            check_rep(&mut checks, &input, rep, &resident_bits);
        }
        let work = input.units() * reps.len() as f64;
        end_to_end(&mut out, setup_s, work, wall, &times);
        checks.record(&mut out);
        return (out, Vec::new());
    }

    // Per-layer pass: a third untraced, a third with dc-obs on, a third
    // on the probes only bench code can make (timed Dataset / Trainer
    // wrappers, resident twin, chunk loads).
    let slice = opts.seconds / 3.0;
    let mut off = Tracer::off();
    let (_, plain, _) = run_for(slice, |_| run_once(&input, &mut off));

    dc_obs::set_enabled(true);
    dc_obs::reset();
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let (reps, traced, _) = run_for(slice, |i| {
        tr.set_run(i as u32);
        tr.span("stream_store.rep", |tr| run_once(&input, tr))
    });
    let obs = Obs::snapshot();
    dc_obs::set_enabled(false);
    for rep in &reps {
        check_rep(&mut checks, &input, rep, &resident_bits);
    }
    let rows = input.sizes.rows as f64;
    let med = |f: fn(&RepOut) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let (ingest_s, scan_s, stream_s) =
        (med(|r| r.ingest_s), med(|r| r.scan_s), med(|r| r.stream_s));
    let steps_per_rep = (input.sizes.rows.div_ceil(BATCH) * input.sizes.epochs) as f64;

    let mut probe = Tracer::new(true, Instant::now(), 1);
    let (mut fill_s, mut shuffle_s, mut streamed_s, mut resident_s) =
        (vec![], vec![], vec![], vec![]);
    let (mut step_us, mut open_s, mut load_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warm_allocs, mut hits, mut misses, mut evicts) = (0u64, 0u64, 0u64, 0u64);
    run_for(slice, |i| {
        probe.set_run(i as u32);
        let t = Instant::now();
        let ds = open_dataset(&input, BUDGET).expect("open the stores");
        open_s.push(t.elapsed().as_secs_f64());
        let mut timed = TimedDataset::new(ds);
        let t = Instant::now();
        let bits = probe.span("data.stream_timed", |_| {
            train_epochs(&input, &mut timed, Some(&mut step_us))
        });
        streamed_s.push(t.elapsed().as_secs_f64());
        checks.check(bits == resident_bits, || {
            "timed streamed run diverged".to_string()
        });
        fill_s.push(timed.fill_s);
        shuffle_s.push(timed.shuffle_s);
        warm_allocs +=
            dc_data::batch_allocs() - timed.allocs_at_warm.unwrap_or_else(dc_data::batch_allocs);
        let c = timed.inner.x_store().cache_stats();
        (hits, misses, evicts) = (hits + c.hits, misses + c.misses, evicts + c.evicts);

        let mut resident =
            TimedDataset::new(open_dataset(&input, usize::MAX).expect("open the stores"));
        let t = Instant::now();
        probe.span("data.resident_timed", |_| {
            train_epochs(&input, &mut resident, None)
        });
        resident_s.push(t.elapsed().as_secs_f64());

        // Budget 1: every chunk fetch below is a load from the file.
        let mut cold = ChunkedStore::open_with_budget(&input.x_path(), 1).expect("open the store");
        for c in 0..cold.n_chunks() {
            let t = Instant::now();
            std::hint::black_box(cold.chunk(c));
            load_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });

    let steps = stats::sorted(&step_us);
    let mb = (input.sizes.rows * (COLS + 1) * 4) as f64 / 1e6;
    let m = &mut out.metrics;
    m.insert("data.ingest_rows_per_s", rows / ingest_s);
    m.insert(
        "data.scan_rows_per_s",
        rows * input.sizes.scan_passes as f64 / scan_s,
    );
    m.insert(
        "data.stream_rows_per_s",
        rows * input.sizes.epochs as f64 / stream_s,
    );
    m.insert("data.write_s", ingest_s);
    m.insert("data.write_mb_per_s", mb / ingest_s);
    m.insert("data.open_s", stats::median(&open_s));
    m.insert("data.chunk_load_us", stats::median(&load_us));
    m.insert(
        "data.chunk_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.insert("data.chunk_evicts", evicts as f64 / streamed_s.len() as f64);
    m.insert("data.fill_batch_s", stats::median(&fill_s));
    m.insert("data.shuffle_s", stats::median(&shuffle_s));
    m.insert(
        "data.fill_share",
        stats::median(&fill_s) / stats::median(&streamed_s),
    );
    m.insert("data.batch_allocs_warm", warm_allocs as f64);
    m.insert(
        "data.stream_overhead_pct",
        (stats::median(&streamed_s) / stats::median(&resident_s) - 1.0) * 100.0,
    );
    m.insert("nn.step_us", obs.timer_mean_us("bench.stream.batch"));
    m.insert("nn.mlp_step_p50_us", stats::percentile(&steps, 0.50));
    m.insert("nn.mlp_step_p95_us", stats::percentile(&steps, 0.95));
    out.samples.insert("nn.mlp_step_p95_us", steps.len());
    obs.tensor_metrics(m, steps_per_rep * reps.len() as f64);
    m.insert(
        "obs.trace_overhead_pct",
        pct_over(stats::median(&traced), stats::median(&plain)),
    );
    checks.record(&mut out);
    (out, vec![tr, probe])
}
