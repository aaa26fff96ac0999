//! Training-level dc-data equivalence (ISSUE 10).
//!
//! The chunked dataset proptests (crates/data) pin orders and batch
//! bytes; these tests pin what actually matters downstream — **loss
//! trajectories and learned weights** through the real `MlpTrainer`
//! path:
//!
//! 1. `run_dataset_epochs` over in-memory tensors (a [`DenseView`],
//!    the seed path) and over a single-chunk [`ChunkedDataset`]
//!    produce bitwise-identical traces and weights.
//! 2. A file-backed store streaming under a tiny residency budget
//!    trains bitwise-identically to the fully resident run of the same
//!    chunk layout — larger-than-memory corpora cost nothing in
//!    reproducibility.
//!
//! Run by `scripts/lint.sh` under `DC_THREADS=1`, `=2`, and default.

use dc_data::{ChunkedDataset, ChunkedStore, Dataset, DenseView};
use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::mlp::Mlp;
use dc_nn::optim::Adam;
use dc_nn::train::{run_dataset_epochs, MlpTrainer, TrainOpts};
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data(rng: &mut StdRng) -> (Tensor, Tensor) {
    let x = Tensor::randn(48, 5, 1.0, rng);
    let y = Tensor::from_vec(48, 1, (0..48).map(|i| (i % 2) as f32).collect());
    (x, y)
}

fn train(ds: &mut dyn Dataset, opts: &TrainOpts) -> (Vec<f32>, Mlp) {
    let mut rng = StdRng::seed_from_u64(77);
    let mut m = Mlp::new(&[5, 9, 1], Activation::Tanh, Activation::Identity, &mut rng);
    let mut opt = Adam::new(0.02);
    let mut t = MlpTrainer {
        model: &mut m,
        loss: LossKind::bce(),
        opt: &mut opt,
    };
    let trace = run_dataset_epochs("nn.test", &mut t, ds, opts, &mut rng);
    (trace.iter().map(|e| e.loss).collect(), m)
}

fn assert_same(a: &(Vec<f32>, Mlp), b: &(Vec<f32>, Mlp), what: &str) {
    assert_eq!(
        a.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{what}: loss trajectories diverged"
    );
    for (la, lb) in a.1.layers.iter().zip(&b.1.layers) {
        assert_eq!(la.w, lb.w, "{what}: weights diverged");
        assert_eq!(la.b, lb.b, "{what}: biases diverged");
    }
}

#[test]
fn single_chunk_dataset_trains_bitwise_like_dense_view() {
    let mut rng = StdRng::seed_from_u64(1);
    let (x, y) = data(&mut rng);
    let opts = TrainOpts::default().with_epochs(4).with_batch_size(8);
    let dense = train(&mut DenseView::new(&x, Some(&y)), &opts);
    let mut ds = ChunkedDataset::with_targets(
        ChunkedStore::from_tensor(&x, x.rows),
        ChunkedStore::from_tensor(&y, x.rows),
    );
    let chunked = train(&mut ds, &opts);
    assert_same(&dense, &chunked, "single-chunk vs dense view");
}

#[test]
fn streamed_training_is_bitwise_equal_to_resident() {
    let mut rng = StdRng::seed_from_u64(2);
    let (x, y) = data(&mut rng);
    let opts = TrainOpts::default().with_epochs(4).with_batch_size(8);
    let chunk_rows = 7; // 48 rows → 7 chunks, deliberately misaligned

    let mut resident = ChunkedDataset::with_targets(
        ChunkedStore::from_tensor(&x, chunk_rows),
        ChunkedStore::from_tensor(&y, chunk_rows),
    );
    let want = train(&mut resident, &opts);

    let dir = std::env::temp_dir();
    let (px, py) = (dir.join("dc_nn_equiv_x.dcs"), dir.join("dc_nn_equiv_y.dcs"));
    ChunkedStore::write(&px, &x, chunk_rows).expect("write x");
    ChunkedStore::write(&py, &y, chunk_rows).expect("write y");
    let mut streamed = ChunkedDataset::with_targets(
        ChunkedStore::open_with_budget(&px, 2).expect("open x"),
        ChunkedStore::open_with_budget(&py, 2).expect("open y"),
    );
    let got = train(&mut streamed, &opts);
    let stats = streamed.x_store().cache_stats();
    std::fs::remove_file(&px).ok();
    std::fs::remove_file(&py).ok();

    assert!(
        stats.evicts > 0,
        "streamed run must actually evict (budget 2 of {} chunks): {stats:?}",
        streamed.x_store().n_chunks()
    );
    assert_same(&want, &got, "streamed vs resident");
}
