//! The one execution path behind both the HTTP endpoints and the
//! `autodc::pipeline` facade.
//!
//! Every function here is a thin, stateless delegation to a fallible
//! (`DcResult`-returning) entry on the owning crate, chosen so that:
//!
//! * malformed inputs come back as [`dc_core::DcError`] (the server
//!   maps them to 4xx) instead of panicking a worker;
//! * inference goes through the **`ROW_TILE`-aligned** paths, whose
//!   per-row results are bitwise independent of batch composition and
//!   `DC_THREADS` — the property request micro-batching
//!   ([`crate::batch::MicroBatcher`]) needs, and the reason the offline
//!   `autodc::pipeline` produces bit-identical scores to the online
//!   service.

use dc_clean::{KnnImputer, TableEncoder};
use dc_core::DcResult;
use dc_discovery::{Bm25Lite, NeuralSearch};
use dc_er::DeepEr;
use dc_relational::Table;

/// Match scores for record pairs of `table`, through the aligned
/// (batch-invariant) DeepER path.
pub fn match_pairs(model: &DeepEr, table: &Table, pairs: &[(usize, usize)]) -> DcResult<Vec<f32>> {
    model.try_predict_aligned(table, pairs)
}

/// Tuple embeddings for `rows` of `table`, through the aligned encoder.
pub fn encode_rows(model: &DeepEr, table: &Table, rows: &[usize]) -> DcResult<Vec<Vec<f32>>> {
    model.try_encode(table, rows)
}

/// kNN-impute the nulls of `table` under a fitted `encoder`.
pub fn impute_knn(table: &Table, encoder: &TableEncoder, k: usize) -> DcResult<Table> {
    KnnImputer { k }.try_impute(table, encoder)
}

/// BM25 keyword top-k over the indexed tables.
pub fn search_bm25(index: &Bm25Lite, query: &str, k: usize) -> DcResult<Vec<(usize, f64)>> {
    index.search_topk(query, k)
}

/// Neural (DRMM-style interaction) exact top-k over the indexed tables.
/// `_shortlist` is ignored: search no longer narrows the candidates
/// before scoring them. It stays only so existing callers compile.
pub fn search_neural(
    index: &NeuralSearch,
    query: &str,
    k: usize,
    _shortlist: usize,
) -> DcResult<Vec<(usize, f32)>> {
    index.search_topk(query, k)
}
