//! The minibatch-source abstraction behind the unified training loop:
//! epoch shuffles plus pooled zero-copy batch assembly.
//!
//! `dc-nn`'s epoch loop used to own both policies inline: shuffle one
//! index vector over an in-memory tensor, then `gather_rows` a fresh
//! batch tensor per step. [`Dataset`] lifts exactly those two decisions
//! behind a trait so the same loop drives:
//!
//! * [`DenseView`] — borrowed in-memory tensors. Its shuffle is the
//!   seed loop verbatim (one persistent order vector re-shuffled every
//!   epoch), so trajectories and rng draws stay bitwise identical to
//!   the pre-`dc-data` code.
//! * [`ChunkedDataset`] — a [`ChunkedStore`] (plus optional target
//!   store) under a **two-level shuffle**: chunk order first, then row
//!   order within each chunk, both from persistent state so epochs
//!   keep the seed loop's cumulative-shuffle character. Minibatches
//!   walk at most two chunks, so a streamed store faults each chunk in
//!   roughly once per epoch. With a single chunk the fast path is the
//!   seed shuffle bit-for-bit. The shuffle never looks at the
//!   residency budget, so a larger-than-budget streamed run reproduces
//!   the fully-resident run of the same chunk shuffle bitwise.
//!
//! Batch assembly is **pooled**: [`gather_rows_into`] fills a caller
//! -recycled tensor instead of allocating, counting buffer growth in
//! the `data.batch.alloc` counter (and [`batch_allocs`]) — steady
//! state is zero allocations per step. Each gather is timed into the
//! `data.gather` histogram when `DC_OBS` is on.

use crate::store::ChunkedStore;
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::sync::atomic::{AtomicU64, Ordering};

static BATCH_ALLOC: dc_obs::Counter = dc_obs::Counter::new("data.batch.alloc");
/// Gather latency per batch (`data.gather`), recorded by every
/// [`Dataset::fill_batch`] implementation in this crate.
pub static GATHER_HIST: dc_obs::Hist = dc_obs::Hist::new("data.gather");
static BATCH_GROWS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of batch-buffer growths (capacity reallocations)
/// performed by [`gather_rows_into`]. Warm training steps reuse the
/// previous step's capacity, so the delta across steady-state epochs
/// is 0 — the property `bench_data` gates on.
pub fn batch_allocs() -> u64 {
    BATCH_GROWS.load(Ordering::Relaxed)
}

/// Gather the given rows of `t` into `out`, reshaping `out` to
/// `rows.len() × t.cols` and reusing its buffer when capacity allows
/// (growth is counted in `data.batch.alloc` / [`batch_allocs`]).
///
/// The pooled counterpart of `gather_rows`: same values, no per-call
/// allocation once the buffer has grown to the working batch size.
pub fn gather_rows_into(t: &Tensor, rows: &[usize], out: &mut Tensor) {
    reserve_batch(out, rows.len(), t.cols);
    for (i, &r) in rows.iter().enumerate() {
        out.row_slice_mut(i).copy_from_slice(t.row_slice(r));
    }
}

/// Reshape `out` to `rows × cols`, reusing capacity and counting
/// growth.
fn reserve_batch(out: &mut Tensor, rows: usize, cols: usize) {
    let need = rows * cols;
    if out.data.capacity() < need {
        BATCH_GROWS.fetch_add(1, Ordering::Relaxed);
        BATCH_ALLOC.incr();
    }
    out.rows = rows;
    out.cols = cols;
    out.data.resize(need, 0.0);
}

/// A source of shuffled minibatches for the unified training loop.
///
/// The driving loop owns one persistent `order` vector and one pooled
/// batch (x and optional y tensors); per epoch it calls
/// [`Dataset::shuffle_epoch`], then [`Dataset::fill_batch`] for each
/// `batch_size` slice of the order.
pub trait Dataset {
    /// Total training rows.
    fn rows(&self) -> usize;
    /// Feature width of `x` batches.
    fn x_cols(&self) -> usize;
    /// Target width, or `None` for unsupervised sources.
    fn y_cols(&self) -> Option<usize>;
    /// Produce this epoch's row order in `order`. The same vector is
    /// passed back every epoch (it persists across epochs), so
    /// implementations may shuffle it in place — the seed loop's
    /// cumulative-shuffle semantics — or rewrite it wholesale.
    fn shuffle_epoch(&mut self, order: &mut Vec<usize>, rng: &mut StdRng);
    /// Assemble the minibatch for global row indices `idx` into the
    /// pooled `x` (and `y` when the source is supervised) buffers.
    fn fill_batch(&mut self, idx: &[usize], x: &mut Tensor, y: Option<&mut Tensor>);
}

/// In-memory fast path: borrowed `x` (and optional `y`) tensors with
/// the seed loop's shuffle, bit-for-bit.
pub struct DenseView<'a> {
    x: &'a Tensor,
    y: Option<&'a Tensor>,
}

impl<'a> DenseView<'a> {
    /// Borrow an in-memory dataset.
    pub fn new(x: &'a Tensor, y: Option<&'a Tensor>) -> Self {
        if let Some(y) = y {
            assert_eq!(x.rows, y.rows, "DenseView: x/y row mismatch");
        }
        DenseView { x, y }
    }
}

impl Dataset for DenseView<'_> {
    fn rows(&self) -> usize {
        self.x.rows
    }

    fn x_cols(&self) -> usize {
        self.x.cols
    }

    fn y_cols(&self) -> Option<usize> {
        self.y.map(|t| t.cols)
    }

    fn shuffle_epoch(&mut self, order: &mut Vec<usize>, rng: &mut StdRng) {
        seed_shuffle(self.x.rows, order, rng);
    }

    fn fill_batch(&mut self, idx: &[usize], x: &mut Tensor, y: Option<&mut Tensor>) {
        let _gather = GATHER_HIST.start();
        gather_rows_into(self.x, idx, x);
        if let Some(out) = y {
            gather_rows_into(
                self.y.expect("targets requested from unsupervised view"),
                idx,
                out,
            );
        }
    }
}

/// The seed loop's shuffle: one persistent order vector, re-shuffled
/// (not regenerated) every epoch, drawing from the rng exactly as
/// `order.shuffle(rng)` always has.
fn seed_shuffle(n: usize, order: &mut Vec<usize>, rng: &mut StdRng) {
    if order.len() != n {
        order.clear();
        order.extend(0..n);
    }
    order.shuffle(rng);
}

/// A [`ChunkedStore`]-backed dataset under the two-level shuffle, with
/// an optional row-aligned target store.
pub struct ChunkedDataset {
    x: ChunkedStore,
    y: Option<ChunkedStore>,
    /// Persistent chunk-level order (re-shuffled each epoch).
    chunk_order: Vec<usize>,
    /// Persistent within-chunk local orders (re-shuffled each epoch).
    local: Vec<Vec<usize>>,
}

impl ChunkedDataset {
    /// An unsupervised dataset over `x`.
    pub fn new(x: ChunkedStore) -> Self {
        let chunk_order: Vec<usize> = (0..x.n_chunks()).collect();
        let local = chunk_order
            .iter()
            .map(|&c| (0..x.chunk_len(c)).collect())
            .collect();
        ChunkedDataset {
            x,
            y: None,
            chunk_order,
            local,
        }
    }

    /// A supervised dataset; `y` must be row-aligned with `x` and share
    /// its chunk size (so one shuffle addresses both stores).
    pub fn with_targets(x: ChunkedStore, y: ChunkedStore) -> Self {
        assert_eq!(x.rows(), y.rows(), "ChunkedDataset: x/y row mismatch");
        assert_eq!(
            x.chunk_rows(),
            y.chunk_rows(),
            "ChunkedDataset: x/y chunk size mismatch"
        );
        let mut ds = Self::new(x);
        ds.y = Some(y);
        ds
    }

    /// The feature store (e.g. to inspect [`ChunkedStore::cache_stats`]).
    pub fn x_store(&self) -> &ChunkedStore {
        &self.x
    }

    /// The target store, when supervised.
    pub fn y_store(&self) -> Option<&ChunkedStore> {
        self.y.as_ref()
    }
}

impl Dataset for ChunkedDataset {
    fn rows(&self) -> usize {
        self.x.rows()
    }

    fn x_cols(&self) -> usize {
        self.x.cols()
    }

    fn y_cols(&self) -> Option<usize> {
        self.y.as_ref().map(|s| s.cols())
    }

    fn shuffle_epoch(&mut self, order: &mut Vec<usize>, rng: &mut StdRng) {
        let n = self.x.rows();
        if self.x.n_chunks() <= 1 {
            // In-memory fast path: one chunk holds every row, so the
            // two-level shuffle degenerates to the seed shuffle —
            // identical rng draws, identical batch composition.
            seed_shuffle(n, order, rng);
            return;
        }
        self.chunk_order.shuffle(rng);
        order.clear();
        order.reserve(n);
        for &c in &self.chunk_order {
            let base = self.x.chunk_base(c);
            let local = &mut self.local[c];
            local.shuffle(rng);
            order.extend(local.iter().map(|&i| base + i));
        }
    }

    fn fill_batch(&mut self, idx: &[usize], x: &mut Tensor, y: Option<&mut Tensor>) {
        let _gather = GATHER_HIST.start();
        reserve_batch(x, idx.len(), self.x.cols());
        fill_from_store(&mut self.x, idx, x);
        if let Some(out) = y {
            let ys = self
                .y
                .as_mut()
                .expect("targets requested from unsupervised dataset");
            reserve_batch(out, idx.len(), ys.cols());
            fill_from_store(ys, idx, out);
        }
    }
}

/// Copy rows `idx` of `s` into `out` (already shaped), walking each
/// run of same-chunk indices with a single chunk fetch. The two-level
/// shuffle emits per-chunk runs, so a batch touches at most two
/// chunks.
fn fill_from_store(s: &mut ChunkedStore, idx: &[usize], out: &mut Tensor) {
    let chunk_rows = s.chunk_rows();
    let mut i = 0;
    while i < idx.len() {
        let c = idx[i] / chunk_rows;
        let mut j = i + 1;
        while j < idx.len() && idx[j] / chunk_rows == c {
            j += 1;
        }
        let base = s.chunk_base(c);
        let t = s.chunk(c);
        for (k, &row) in idx.iter().enumerate().take(j).skip(i) {
            out.row_slice_mut(k)
                .copy_from_slice(t.row_slice(row - base));
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dense_view_shuffle_matches_seed_loop() {
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let x = Tensor::zeros(13, 2);
        let mut view = DenseView::new(&x, None);
        let mut order_seed: Vec<usize> = (0..13).collect();
        let mut order_ds: Vec<usize> = Vec::new();
        for _ in 0..4 {
            order_seed.shuffle(&mut rng_a);
            view.shuffle_epoch(&mut order_ds, &mut rng_b);
            assert_eq!(order_seed, order_ds);
        }
    }

    #[test]
    fn single_chunk_dataset_shuffles_like_seed() {
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let x = Tensor::zeros(10, 3);
        let mut ds = ChunkedDataset::new(ChunkedStore::from_tensor(&x, 64));
        let mut order_seed: Vec<usize> = (0..10).collect();
        let mut order_ds: Vec<usize> = Vec::new();
        for _ in 0..3 {
            order_seed.shuffle(&mut rng_a);
            ds.shuffle_epoch(&mut order_ds, &mut rng_b);
            assert_eq!(order_seed, order_ds);
        }
    }

    #[test]
    fn two_level_shuffle_is_a_permutation_with_chunk_runs() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::zeros(23, 1);
        let mut ds = ChunkedDataset::new(ChunkedStore::from_tensor(&x, 5));
        let mut order = Vec::new();
        for _ in 0..3 {
            ds.shuffle_epoch(&mut order, &mut rng);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..23).collect::<Vec<_>>());
            // Rows grouped by chunk: the chunk id sequence changes at
            // most n_chunks - 1 times.
            let transitions = order.windows(2).filter(|w| w[0] / 5 != w[1] / 5).count();
            assert_eq!(transitions, 4);
        }
    }

    #[test]
    fn gather_into_reuses_capacity() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(20, 4, 1.0, &mut rng);
        let mut out = Tensor::zeros(0, 0);
        let before = batch_allocs();
        gather_rows_into(&x, &[3, 1, 19], &mut out);
        assert_eq!(out.rows, 3);
        assert_eq!(out.row_slice(0), x.row_slice(3));
        assert_eq!(batch_allocs(), before + 1, "first gather grows the buffer");
        gather_rows_into(&x, &[0, 2], &mut out);
        gather_rows_into(&x, &[5, 6, 7], &mut out);
        assert_eq!(batch_allocs(), before + 1, "warm gathers must not allocate");
        assert_eq!(out.row_slice(2), x.row_slice(7));
    }

    #[test]
    fn chunked_fill_matches_dense_gather() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(29, 6, 1.0, &mut rng);
        let y = Tensor::randn(29, 2, 1.0, &mut rng);
        let mut ds = ChunkedDataset::with_targets(
            ChunkedStore::from_tensor(&x, 7),
            ChunkedStore::from_tensor(&y, 7),
        );
        let idx = [28, 3, 3, 14, 7, 21, 0];
        let (mut bx, mut by) = (Tensor::zeros(0, 0), Tensor::zeros(0, 0));
        ds.fill_batch(&idx, &mut bx, Some(&mut by));
        let mut ex = Tensor::zeros(0, 0);
        gather_rows_into(&x, &idx, &mut ex);
        assert_eq!(bx.data, ex.data);
        gather_rows_into(&y, &idx, &mut ex);
        assert_eq!(by.data, ex.data);
    }
}
