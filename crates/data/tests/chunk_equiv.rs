//! Chunked-store equivalence suite (ISSUE 10).
//!
//! Properties, each run by `scripts/lint.sh` under `DC_THREADS=1`,
//! `=2`, and the default:
//!
//! 1. **In-memory fast path is the seed loop bitwise**: a
//!    [`DenseView`] — and a [`ChunkedDataset`] whose chunk holds every
//!    row — re-shuffles one persistent order vector exactly like the
//!    seed `order.shuffle(rng)`, so epoch orders and gathered batch
//!    bytes match the seed `gather_rows` loop bit for bit.
//! 2. **Residency budget never changes the data**: the two-level
//!    shuffle depends only on the chunk layout, so a file-backed store
//!    streaming under any resident-chunk budget yields the same
//!    orders and the same batch bytes as the fully resident run.
//! 3. **File round trip is bitwise**: rows written through
//!    [`StoreWriter`] come back with identical f32 bits.

use dc_data::{gather_rows_into, ChunkedDataset, ChunkedStore, Dataset, DenseView, StoreWriter};
use dc_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Deterministic LCG stream of f32 values in roughly [−4, 4].
fn lcg_f32(count: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 8192) as f32 / 1024.0 - 4.0
        })
        .collect()
}

/// Drive `ds` for `epochs` epochs of `batch` rows, collecting every
/// epoch's order and the f32 bits of every gathered x batch.
fn run_dataset(
    ds: &mut dyn Dataset,
    epochs: usize,
    batch: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<usize>>, Vec<u32>) {
    let mut order: Vec<usize> = Vec::new();
    let mut x = Tensor::zeros(0, ds.x_cols());
    let mut orders = Vec::new();
    let mut bits = Vec::new();
    for _ in 0..epochs {
        ds.shuffle_epoch(&mut order, rng);
        orders.push(order.clone());
        for chunk in order.chunks(batch.max(1)) {
            ds.fill_batch(chunk, &mut x, None);
            bits.extend(x.data.iter().map(|v| v.to_bits()));
        }
    }
    (orders, bits)
}

/// The seed loop verbatim: one order vector initialised once, then
/// `shuffle` + `gather_rows`-style copies each epoch.
fn run_seed_loop(
    x: &Tensor,
    epochs: usize,
    batch: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<usize>>, Vec<u32>) {
    let mut order: Vec<usize> = (0..x.rows).collect();
    let mut orders = Vec::new();
    let mut bits = Vec::new();
    for _ in 0..epochs {
        order.shuffle(rng);
        orders.push(order.clone());
        for chunk in order.chunks(batch.max(1)) {
            let mut b = Tensor::zeros(0, 0);
            gather_rows_into(x, chunk, &mut b);
            bits.extend(b.data.iter().map(|v| v.to_bits()));
        }
    }
    (orders, bits)
}

proptest! {
    #[test]
    fn dense_view_matches_seed_loop_bitwise(
        n in 0usize..60,
        cols in 1usize..8,
        epochs in 1usize..5,
        batch in 1usize..20,
        seed in 0u64..u64::MAX,
    ) {
        let x = Tensor::from_vec(n, cols, lcg_f32(n * cols, seed));
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xabcd);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0xabcd);
        let want = run_seed_loop(&x, epochs, batch, &mut rng_a);
        let mut view = DenseView::new(&x, None);
        let got = run_dataset(&mut view, epochs, batch, &mut rng_b);
        prop_assert_eq!(&want.0, &got.0, "orders diverged");
        prop_assert_eq!(&want.1, &got.1, "batch bytes diverged");
    }

    #[test]
    fn single_chunk_store_matches_seed_loop_bitwise(
        n in 1usize..40,
        cols in 1usize..6,
        epochs in 1usize..4,
        batch in 1usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let x = Tensor::from_vec(n, cols, lcg_f32(n * cols, seed));
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x55);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0x55);
        let want = run_seed_loop(&x, epochs, batch, &mut rng_a);
        // chunk_rows >= n → one chunk → the seed fast path.
        let mut ds = ChunkedDataset::new(ChunkedStore::from_tensor(&x, n.max(1)));
        let got = run_dataset(&mut ds, epochs, batch, &mut rng_b);
        prop_assert_eq!(&want.0, &got.0, "orders diverged");
        prop_assert_eq!(&want.1, &got.1, "batch bytes diverged");
    }

    #[test]
    fn residency_budget_never_changes_trajectories(
        n in 1usize..50,
        cols in 1usize..6,
        chunk_rows in 1usize..12,
        epochs in 1usize..4,
        batch in 1usize..16,
        budget in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let x = Tensor::from_vec(n, cols, lcg_f32(n * cols, seed));
        // Fully resident reference: in-memory chunks, same layout.
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x77);
        let mut resident = ChunkedDataset::new(ChunkedStore::from_tensor(&x, chunk_rows));
        let want = run_dataset(&mut resident, epochs, batch, &mut rng_a);
        // Streamed run: file-backed under a (possibly tiny) budget.
        let path = std::env::temp_dir().join(format!("dc_data_equiv_{seed:x}_{n}_{chunk_rows}.dcs"));
        ChunkedStore::write(&path, &x, chunk_rows).expect("write store");
        let store = ChunkedStore::open_with_budget(&path, budget).expect("open store");
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0x77);
        let mut streamed = ChunkedDataset::new(store);
        let got = run_dataset(&mut streamed, epochs, batch, &mut rng_b);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&want.0, &got.0, "orders diverged");
        prop_assert_eq!(&want.1, &got.1, "batch bytes diverged");
        if streamed.x_store().n_chunks() > budget {
            let stats = streamed.x_store().cache_stats();
            prop_assert!(stats.evicts > 0, "over-budget run must have evicted: {stats:?}");
        }
    }

    #[test]
    fn store_writer_round_trips_bitwise(
        n in 0usize..40,
        cols in 1usize..6,
        chunk_rows in 1usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let x = Tensor::from_vec(n, cols, lcg_f32(n * cols, seed));
        let path = std::env::temp_dir().join(format!("dc_data_rt_{seed:x}_{n}_{cols}.dcs"));
        let mut w = StoreWriter::create(&path, cols, chunk_rows).expect("create");
        for r in 0..n {
            w.push_row(x.row_slice(r)).expect("push");
        }
        w.finish().expect("finish");
        let mut s = ChunkedStore::open_with_budget(&path, usize::MAX).expect("open");
        let back = s.to_tensor();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.rows, n);
        prop_assert_eq!(
            back.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
