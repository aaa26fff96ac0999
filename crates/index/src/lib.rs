//! # dc-index
//!
//! The shared retrieval layer of AutoDC (DESIGN.md §9): every consumer
//! that needs "which items are close to this one" — LSH blocking for
//! entity resolution (§5.2 of the paper), nearest-neighbour queries
//! over embeddings, and data-lake discovery search (§5.1) — routes
//! through the three pieces of this crate instead of growing its own
//! naive scan:
//!
//! * [`sig`] — bit-packed random-hyperplane sign signatures: `u64`
//!   words instead of `Vec<bool>`, computed as one blocked matrix
//!   product through [`dc_tensor::kernel`] and sliced into band keys.
//! * [`lsh`] — banded inverted buckets over those signatures, keyed by
//!   `u64` band words: one [`LshIndex`] that is bulk-built for batch
//!   blocking and takes inserts, tombstone deletes and compactions for
//!   the online service (sorted tier + overflow tier), streams each
//!   candidate pair once, at its first witness, and optionally
//!   multi-probes near-boundary bits to recover pair completeness at
//!   fewer bands.
//! * [`topk`] — a binary-heap [`topk::TopK`] selector under a *total*
//!   score order (NaN sinks last, ties break toward the lower index)
//!   plus [`topk::topk_scores`], its chunked parallel scan over the
//!   shared worker pool. Every top-k in the workspace (SGNS
//!   `most_similar`, kNN imputation, table search) is this exact scan:
//!   nothing narrows the candidates first (DESIGN.md §19).
//!
//! # Determinism
//!
//! Every path is deterministic for every `DC_THREADS` setting:
//! signature bits come from kernel matmuls that are bitwise identical
//! across thread counts, bucket membership is a pure function of those
//! bits, and top-k selection under the total `(score, index)` order has
//! a unique answer regardless of how the scan was chunked.
//! `scripts/lint.sh` runs the equivalence suites under `DC_THREADS=1`,
//! `=2`, and the default to enforce this.

pub mod lsh;
pub mod sig;
pub mod topk;

pub use lsh::{LshConfig, LshIndex};
pub use sig::{sign_scores, SignatureSet};
pub use topk::{desc_nan_last, topk_scores, Hit, Order, TopK};
