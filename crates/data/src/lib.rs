//! # dc-data
//!
//! Out-of-core chunked columnar dataset storage for AutoDC.
//!
//! Every training scenario in the reproduction (DeepER matching, DAE
//! imputation, embedding pre-training) used to shuffle index vectors
//! over one in-memory dense [`Tensor`](dc_tensor::Tensor) and copy each
//! minibatch through a fresh `gather_rows` allocation — capping every
//! corpus at RAM size and paying a heap allocation per step. This crate
//! removes both limits:
//!
//! * [`ChunkedStore`] — a dense row-group store. Rows live in
//!   fixed-size chunks, either split in memory or persisted in a
//!   std-only binary file with an indptr chunk directory. File-backed
//!   stores keep at most the budget given to
//!   [`ChunkedStore::open_with_budget`] resident under an LRU policy,
//!   so corpora larger than memory stream through a small working set. `data.chunk.{hit,miss,evict}` dc-obs counters make
//!   chunk thrash observable.
//! * [`Dataset`] — the minibatch-source abstraction the unified
//!   `dc-nn` training loop drives: an epoch shuffle plus a pooled
//!   `fill_batch` gather that reuses one batch buffer across steps
//!   (zero warm allocations; `data.batch.alloc` counts buffer growth,
//!   the `data.gather` histogram times each gather).
//! * [`DenseView`] — the in-memory fast path. Its epoch shuffle is the
//!   seed loop's `order.shuffle(rng)` verbatim, so loss trajectories
//!   and rng draws through `dc-nn`'s `run_dataset_epochs` stay bitwise
//!   identical to the pre-`dc-data` code.
//! * [`ChunkedDataset`] — two-level shuffle over a [`ChunkedStore`]
//!   (chunk granularity, then within chunks), giving each minibatch
//!   chunk locality. The shuffle depends only on the chunk layout —
//!   never on the residency budget — so a streamed larger-than-budget
//!   run reproduces the fully-resident run of the same chunk shuffle
//!   bitwise.
//! * [`Csr`] — a sparse CSR column family for the mostly-zero one-hot
//!   and bag-of-words paths (`embed::onehot`, `clean::encode`,
//!   discovery centroids), with a CSR×dense matmul kernel that runs
//!   row-parallel over the shared worker pool and is bitwise identical
//!   at every `DC_THREADS`.

pub mod csr;
pub mod dataset;
pub mod store;

pub use csr::{Csr, CsrBuilder};
pub use dataset::{
    batch_allocs, gather_rows_into, ChunkedDataset, Dataset, DenseView, GATHER_HIST,
};
pub use store::{ChunkCacheStats, ChunkedStore, StoreWriter};
