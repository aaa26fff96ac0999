//! Exact work profile of a streamed training run, compared to
//! `tests/work_profile_stream.json`: the `stream_store` benchmark's
//! shape at a smaller size. Two epochs of the `[256, 1]` BCE model over
//! a file-backed store opened at a two-chunk budget, so every epoch
//! evicts every chunk.
//!
//! The profile holds the chunk cache's hits, misses and evictions, the
//! tape's recorded nodes and buffer-pool hits and misses, the run's
//! allocation count, bytes allocated and peak live bytes (exact at
//! `DC_THREADS=1` only; see `tests/common/profile.rs`), and the bit
//! patterns of the two epoch losses. A change to the epoch loop, the
//! store, the tape or a kernel that does more or less work, holds more
//! memory or moves a result shows up here as an integer diff.

#[path = "common/profile.rs"]
mod profile;

use dc_data::{ChunkedDataset, ChunkedStore, StoreWriter};
use dc_nn::train::{run_dataset_epochs, MlpTrainer, TrainOpts};
use dc_nn::{Activation, Adam, LossKind, Mlp};
use dc_tensor::Tensor;
use profile::{assert_matches_recorded, counting_allocs, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const ROWS: usize = 2_048;
const COLS: usize = 256;
const CHUNK_ROWS: usize = 256;
const BUDGET: usize = 2;
const BATCH: usize = 256;
const EPOCHS: usize = 2;

/// Counters fixed by the run's shape alone: any thread count, any host.
/// A counter that never fired reads 0.
const COUNTERS: [&str; 6] = [
    "data.chunk.hit",
    "data.chunk.miss",
    "data.chunk.evict",
    "tape.nodes",
    "tape.pool.hit",
    "tape.pool.miss",
];

/// Removes the store directory on success and on unwind.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Write `x` (random rows) and `y` (a linear rule's 0/1 labels) as
/// stores under `dir`.
fn write_stores(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let mut rng = StdRng::seed_from_u64(1400);
    let x = Tensor::randn(ROWS, COLS, 1.0, &mut rng);
    let w = Tensor::randn(1, COLS, 1.0, &mut rng);
    let labels = (0..ROWS)
        .map(|r| {
            let dot: f32 = x.row_slice(r).iter().zip(&w.data).map(|(a, b)| a * b).sum();
            f32::from(dot > 0.0)
        })
        .collect();
    let y = Tensor::from_vec(ROWS, 1, labels);
    let paths = (dir.join("x.dcstore"), dir.join("y.dcstore"));
    for (path, t) in [(&paths.0, &x), (&paths.1, &y)] {
        let mut writer = StoreWriter::create(path, t.cols, CHUNK_ROWS).expect("create a store");
        writer.push_rows(t).expect("write the rows");
        writer.finish().expect("finish the store");
    }
    paths
}

/// Open both stores at the budget and train the epochs; returns the
/// epoch losses.
fn stream_epochs(x_path: &std::path::Path, y_path: &std::path::Path) -> Vec<f32> {
    let mut ds = ChunkedDataset::with_targets(
        ChunkedStore::open_with_budget(x_path, BUDGET).expect("open x"),
        ChunkedStore::open_with_budget(y_path, BUDGET).expect("open y"),
    );
    let mut rng = StdRng::seed_from_u64(1400 ^ 0x570e);
    let mut model = Mlp::new(&[COLS, 1], Activation::Relu, Activation::Identity, &mut rng);
    let mut opt = Adam::new(0.01);
    let opts = TrainOpts::default()
        .with_epochs(EPOCHS)
        .with_batch_size(BATCH);
    let mut trainer = MlpTrainer {
        model: &mut model,
        loss: LossKind::bce(),
        opt: &mut opt,
    };
    run_dataset_epochs("stream", &mut trainer, &mut ds, &opts, &mut rng)
        .iter()
        .map(|e| e.loss)
        .collect()
}

#[test]
fn streamed_epochs_work_profile_matches_the_recorded_one() {
    let dir = std::env::temp_dir().join(format!("dc-work-profile-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let _guard = DirGuard(dir.clone());
    let (x_path, y_path) = write_stores(&dir);

    dc_obs::set_enabled(true);
    dc_obs::reset();
    let (losses, alloc) = counting_allocs(|| stream_epochs(&x_path, &y_path));
    let obs = dc_obs::report();
    dc_obs::set_enabled(false);

    let mut got = Profile::new();
    got.insert(
        "counters".into(),
        COUNTERS
            .iter()
            .map(|&name| {
                let v = obs.counters.iter().find(|(n, _)| n == name);
                (name.to_string(), v.map_or(0, |&(_, v)| v))
            })
            .collect(),
    );
    got.insert("alloc".into(), alloc);
    got.insert(
        "loss_bits".into(),
        losses
            .iter()
            .enumerate()
            .map(|(e, l)| (format!("epoch{e}"), u64::from(l.to_bits())))
            .collect(),
    );
    assert_matches_recorded(
        got,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/work_profile_stream.json"
        ),
    );
}
