//! Table search: neural IR vs keyword baseline (§5.1).
//!
//! "At its core, information retrieval involves two key steps: (a)
//! generating good representations for query and documents and (b)
//! finding relevance between query and documents." [`NeuralSearch`]
//! embeds tables and natural-language queries in the same vector space
//! and ranks by cosine; [`Bm25Lite`] is the keyword baseline; the EKG
//! expands top results with thematically related tables.

use crate::ekg::Ekg;
use dc_core::{DcError, DcResult};
use dc_embed::Embeddings;
use dc_index::{desc_nan_last, topk_scores, Order};
use dc_relational::tokenize::tokenize;
use dc_relational::Table;
use dc_tensor::tensor::cosine;
use std::collections::HashMap;

/// Embedding-based table search.
///
/// Relevance is *soft keyword matching* (the max-pooling interaction
/// of DRMM-style neural IR): each query token contributes the cosine of
/// its best-matching table token, and the table's score is the mean
/// over query tokens. This is robust where single mean-pooled table
/// vectors are not — averaging hundreds of one-off value tokens drowns
/// the few informative ones, while per-token max pooling keeps them.
///
/// [`NeuralSearch::search`] ranks every table;
/// [`NeuralSearch::search_topk`] keeps the best `k` of the same exact
/// scores through [`dc_index::topk_scores`].
pub struct NeuralSearch {
    emb: Embeddings,
    table_token_ids: Vec<Vec<usize>>,
}

impl NeuralSearch {
    /// Index tables under the given (word-level) embeddings, keeping
    /// per-table deduplicated token sets (name, column names, sampled
    /// values).
    pub fn index(emb: Embeddings, tables: &[&Table], values_per_column: usize) -> Self {
        // All-but-the-top: strip the common direction so token cosines
        // discriminate (see dc_embed::Embeddings::postprocessed).
        let emb = emb.postprocessed(1);
        let table_token_ids: Vec<Vec<usize>> = tables
            .iter()
            .map(|t| {
                let mut ids: Vec<usize> = table_tokens(t, values_per_column)
                    .iter()
                    .filter_map(|tok| emb.vocab.id(tok))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        NeuralSearch {
            emb,
            table_token_ids,
        }
    }

    /// Query tokens resolved to vocabulary ids.
    fn query_ids(&self, query: &str) -> Vec<usize> {
        tokenize(query)
            .iter()
            .filter_map(|t| self.emb.vocab.id(t))
            .collect()
    }

    /// The DRMM-style interaction score of table `i` for resolved query
    /// tokens `qids`: mean over query tokens of the best-matching table
    /// token cosine. Tables (or queries) with no representable content
    /// score −1.
    fn interaction_score(&self, i: usize, qids: &[usize]) -> f32 {
        let tids = &self.table_token_ids[i];
        if qids.is_empty() || tids.is_empty() {
            return -1.0;
        }
        let mut total = 0.0;
        for &q in qids {
            let qv = self.emb.vectors.row_slice(q);
            let best = tids
                .iter()
                .map(|&t| {
                    if t == q {
                        1.0 // exact keyword hit
                    } else {
                        cosine(qv, self.emb.vectors.row_slice(t))
                    }
                })
                .fold(f32::NEG_INFINITY, f32::max);
            total += best;
        }
        total / qids.len() as f32
    }

    /// Rank all tables for a natural-language query; returns
    /// `(table index, score)` sorted descending. Tables with no
    /// representable content sink to the bottom with score −1.
    pub fn search(&self, query: &str) -> Vec<(usize, f32)> {
        let qids = self.query_ids(query);
        let mut scored: Vec<(usize, f32)> = (0..self.table_token_ids.len())
            .map(|i| (i, self.interaction_score(i, &qids)))
            .collect();
        scored.sort_by(|a, b| desc_nan_last(a.1, b.1));
        scored
    }

    /// The top `k` tables for a query: identical tables, scores and
    /// order to [`NeuralSearch::search`] truncated to `k`. Degenerate
    /// parameters are structured errors (dc-serve returns them as a
    /// 4xx); an out-of-vocabulary query is *not* an error: it ranks
    /// everything at −1, same as [`Self::search`].
    pub fn search_topk(&self, query: &str, k: usize) -> DcResult<Vec<(usize, f32)>> {
        if k == 0 {
            return Err(DcError::invalid("search: k must be at least 1"));
        }
        if self.table_token_ids.is_empty() {
            return Err(DcError::not_found("search: no tables indexed"));
        }
        let qids = self.query_ids(query);
        let n = self.table_token_ids.len();
        Ok(
            topk_scores(n, k, Order::Largest, |i| self.interaction_score(i, &qids))
                .into_iter()
                .map(|h| (h.index, h.score))
                .collect(),
        )
    }

    /// Search, then expand each of the top `k` results with tables the
    /// EKG marks as thematically related (deduplicated, order kept).
    pub fn search_with_expansion(&self, query: &str, k: usize, ekg: &Ekg) -> Vec<usize> {
        let ranked = self.search(query);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(t, _) in ranked.iter().take(k) {
            if seen.insert(t) {
                out.push(t);
            }
            for rel in ekg.thematically_related(t) {
                if seen.insert(rel) {
                    out.push(rel);
                }
            }
        }
        out
    }
}

/// Training documents for search embeddings: one per column, holding
/// the table-name tokens, the column-name tokens and the column's
/// distinct values — so schema vocabulary ("city") and content
/// vocabulary ("paris") land in the same embedding neighbourhood, which
/// is what lets a natural-language query reach tables by either.
pub fn search_documents(tables: &[&Table], values_per_column: usize) -> Vec<Vec<String>> {
    let mut docs = Vec::new();
    for t in tables {
        for c in 0..t.schema.arity() {
            let mut doc = tokenize(&t.name);
            doc.extend(tokenize(&t.schema.attrs[c].name));
            for v in t.distinct(c).into_iter().take(values_per_column) {
                doc.extend(tokenize(&v.canonical()));
            }
            docs.push(doc);
        }
    }
    docs
}

fn table_tokens(t: &Table, values_per_column: usize) -> Vec<String> {
    let mut tokens = tokenize(&t.name);
    for a in &t.schema.attrs {
        tokens.extend(tokenize(&a.name));
    }
    for c in 0..t.schema.arity() {
        for v in t.distinct(c).into_iter().take(values_per_column) {
            tokens.extend(tokenize(&v.canonical()));
        }
    }
    tokens
}

/// A small BM25 keyword ranker over table token bags — the syntactic
/// baseline E7 compares against.
///
/// [`Bm25Lite::index`] also builds an inverted postings list
/// (token → sorted doc ids), so [`Bm25Lite::search_topk`] scores only
/// the documents that contain at least one query token instead of the
/// whole lake; every other document scores exactly 0, so the prefilter
/// loses nothing.
pub struct Bm25Lite {
    docs: Vec<HashMap<String, f64>>,
    doc_len: Vec<f64>,
    avg_len: f64,
    df: HashMap<String, usize>,
    /// Token → ascending ids of the docs containing it.
    postings: HashMap<String, Vec<u32>>,
    n: usize,
}

impl Bm25Lite {
    const K1: f64 = 1.2;
    const B: f64 = 0.75;

    /// Index tables as token bags plus an inverted postings list.
    pub fn index(tables: &[&Table], values_per_column: usize) -> Self {
        let mut docs = Vec::new();
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut postings: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, t) in tables.iter().enumerate() {
            let mut tf: HashMap<String, f64> = HashMap::new();
            for tok in table_tokens(t, values_per_column) {
                *tf.entry(tok).or_insert(0.0) += 1.0;
            }
            for tok in tf.keys() {
                *df.entry(tok.clone()).or_insert(0) += 1;
                postings.entry(tok.clone()).or_default().push(i as u32);
            }
            docs.push(tf);
        }
        let doc_len: Vec<f64> = docs.iter().map(|d| d.values().sum()).collect();
        let avg_len = if doc_len.is_empty() {
            1.0
        } else {
            doc_len.iter().sum::<f64>() / doc_len.len() as f64
        };
        Bm25Lite {
            n: docs.len(),
            docs,
            doc_len,
            avg_len,
            df,
            postings,
        }
    }

    /// BM25 score of document `i` for pre-tokenized query tokens.
    fn score(&self, i: usize, qtokens: &[String]) -> f64 {
        let mut s = 0.0;
        for q in qtokens {
            let Some(&tf) = self.docs[i].get(q) else {
                continue;
            };
            let df = *self.df.get(q).unwrap_or(&0) as f64;
            let idf = (((self.n as f64 - df + 0.5) / (df + 0.5)) + 1.0).ln();
            let denom = tf + Self::K1 * (1.0 - Self::B + Self::B * self.doc_len[i] / self.avg_len);
            s += idf * tf * (Self::K1 + 1.0) / denom;
        }
        s
    }

    /// Rank all tables for a query.
    pub fn search(&self, query: &str) -> Vec<(usize, f64)> {
        let qtokens = tokenize(query);
        let mut scored: Vec<(usize, f64)> =
            (0..self.n).map(|i| (i, self.score(i, &qtokens))).collect();
        scored.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => b.1.partial_cmp(&a.1).expect("both finite"),
        });
        scored
    }

    /// The top `k` tables for a query via the postings prefilter:
    /// score only docs containing at least one query token, then pad
    /// with zero-scoring docs (ascending id) if fewer than `k` match —
    /// exactly the head of [`Bm25Lite::search`], since BM25 scores of
    /// matching docs are strictly positive and all others are 0.
    /// Degenerate parameters are structured errors (dc-serve returns
    /// them as a 4xx).
    pub fn search_topk(&self, query: &str, k: usize) -> DcResult<Vec<(usize, f64)>> {
        if k == 0 {
            return Err(DcError::invalid("search: k must be at least 1"));
        }
        if self.n == 0 {
            return Err(DcError::not_found("search: no tables indexed"));
        }
        let qtokens = tokenize(query);
        let mut candidates: Vec<u32> = qtokens
            .iter()
            .filter_map(|q| self.postings.get(q))
            .flatten()
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut scored: Vec<(usize, f64)> = candidates
            .iter()
            .map(|&i| (i as usize, self.score(i as usize, &qtokens)))
            .collect();
        // Stable: equal scores keep ascending doc id, like `search`.
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("BM25 scores are finite"));
        scored.truncate(k);
        if scored.len() < k.min(self.n) {
            let matched: std::collections::HashSet<usize> =
                candidates.iter().map(|&i| i as usize).collect();
            scored.extend(
                (0..self.n)
                    .filter(|i| !matched.contains(i))
                    .take(k - scored.len())
                    .map(|i| (i, 0.0)),
            );
        }
        Ok(scored)
    }
}

/// Mean reciprocal rank of the first relevant item per query.
/// `rankings[q]` is the ranked list of item ids; `relevant[q]` the gold
/// set.
pub fn mrr(rankings: &[Vec<usize>], relevant: &[Vec<usize>]) -> f64 {
    assert_eq!(rankings.len(), relevant.len());
    if rankings.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (ranking, rel) in rankings.iter().zip(relevant) {
        for (i, item) in ranking.iter().enumerate() {
            if rel.contains(item) {
                total += 1.0 / (i + 1) as f64;
                break;
            }
        }
    }
    total / rankings.len() as f64
}

/// Precision@k averaged over queries.
pub fn precision_at(k: usize, rankings: &[Vec<usize>], relevant: &[Vec<usize>]) -> f64 {
    assert_eq!(rankings.len(), relevant.len());
    if rankings.is_empty() || k == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (ranking, rel) in rankings.iter().zip(relevant) {
        let hits = ranking.iter().take(k).filter(|i| rel.contains(i)).count();
        total += hits as f64 / k as f64;
    }
    total / rankings.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_datagen::Lake;
    use dc_embed::SgnsConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lake_and_search() -> (Lake, NeuralSearch, Bm25Lite) {
        let mut rng = StdRng::seed_from_u64(400);
        let lake = Lake::generate(12, 30, &mut rng);
        let refs: Vec<&Table> = lake.tables.iter().collect();
        // Word embeddings over column documents + name tokens.
        let mut docs = crate::matcher::column_documents(&refs);
        for t in &refs {
            docs.push(
                t.schema
                    .attrs
                    .iter()
                    .flat_map(|a| tokenize(&a.name))
                    .collect(),
            );
        }
        let emb = Embeddings::train(
            &docs,
            &SgnsConfig {
                dim: 24,
                window: 8,
                epochs: 6,
                ..Default::default()
            },
            &mut rng,
        );
        let neural = NeuralSearch::index(emb, &refs, 15);
        let bm25 = Bm25Lite::index(&refs, 15);
        (lake, neural, bm25)
    }

    #[test]
    fn neural_search_finds_relevant_tables() {
        let (lake, neural, _) = lake_and_search();
        let queries = lake.search_queries();
        let mut rankings = Vec::new();
        let mut relevant = Vec::new();
        for (q, rel) in &queries {
            if rel.is_empty() {
                continue;
            }
            rankings.push(neural.search(q).into_iter().map(|(i, _)| i).collect());
            relevant.push(rel.clone());
        }
        let score = mrr(&rankings, &relevant);
        assert!(score > 0.5, "neural MRR {score}");
    }

    #[test]
    fn bm25_ranks_keyword_matches_first() {
        let (lake, _, bm25) = lake_and_search();
        let queries = lake.search_queries();
        let (q, rel) = queries
            .iter()
            .find(|(_, rel)| !rel.is_empty())
            .expect("some query has relevant tables");
        let top = bm25.search(q)[0].0;
        // BM25's top hit should at least be a table whose *name tokens or
        // values* contain the query keyword — sanity, not superiority.
        let ranked: Vec<usize> = bm25.search(q).into_iter().map(|(i, _)| i).collect();
        let p = precision_at(rel.len().min(3), &[ranked], std::slice::from_ref(rel));
        assert!(p > 0.0, "bm25 found nothing for {q}; top was {top}");
    }

    #[test]
    fn expansion_adds_thematically_related() {
        let (lake, neural, _) = lake_and_search();
        let mut ekg = Ekg::new();
        for (i, t) in lake.tables.iter().enumerate() {
            ekg.add_table(i, t.schema.arity());
        }
        // Manually link table 0 and table 1.
        ekg.add_semantic_link(
            crate::matcher::ColumnRef {
                table: 0,
                column: 0,
            },
            crate::matcher::ColumnRef {
                table: 1,
                column: 0,
            },
            0.9,
        );
        let (q, _) = &lake.search_queries()[0];
        let plain: Vec<usize> = neural.search(q).into_iter().map(|(i, _)| i).collect();
        let expanded = neural.search_with_expansion(q, 1, &ekg);
        assert!(!expanded.is_empty());
        // If table 0 or 1 is the top hit, its partner must follow.
        if plain[0] == 0 {
            assert!(expanded.contains(&1));
        }
        if plain[0] == 1 {
            assert!(expanded.contains(&0));
        }
    }

    #[test]
    fn neural_search_topk_matches_full_search_head() {
        let (lake, neural, _) = lake_and_search();
        let n = lake.tables.len();
        for (q, _) in lake.search_queries().iter().take(4) {
            let full = neural.search(q);
            for k in [1, 3, 5, n] {
                let top = neural.search_topk(q, k).unwrap();
                assert_eq!(top.len(), k.min(n));
                for (got, want) in top.iter().zip(&full) {
                    assert_eq!(got.0, want.0, "query {q}, k {k}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "query {q}, k {k}");
                }
            }
        }
    }

    #[test]
    fn bm25_topk_matches_full_ranking_head() {
        let (lake, _, bm25) = lake_and_search();
        for (q, _) in lake.search_queries().iter().take(4) {
            let full = bm25.search(q);
            for k in [1, 3, 8, lake.tables.len()] {
                let top = bm25.search_topk(q, k).unwrap();
                assert_eq!(top.len(), k.min(lake.tables.len()));
                for (got, want) in top.iter().zip(&full) {
                    assert_eq!(got.0, want.0, "query {q}, k {k}");
                    assert!((got.1 - want.1).abs() < 1e-12, "query {q}, k {k}");
                }
            }
        }
    }

    #[test]
    fn degenerate_search_params_are_structured_errors() {
        let (_, neural, bm25) = lake_and_search();
        assert_eq!(
            neural.search_topk("city", 0).unwrap_err().kind(),
            "invalid_input"
        );
        assert_eq!(
            bm25.search_topk("city", 0).unwrap_err().kind(),
            "invalid_input"
        );
        let empty = Bm25Lite::index(&[], 5);
        assert_eq!(
            empty.search_topk("city", 3).unwrap_err().kind(),
            "not_found"
        );
        let empty = NeuralSearch::index(neural.emb.clone(), &[], 5);
        assert_eq!(
            empty.search_topk("city", 3).unwrap_err().kind(),
            "not_found"
        );
    }

    #[test]
    fn metric_edge_cases() {
        assert_eq!(mrr(&[], &[]), 0.0);
        assert_eq!(precision_at(0, &[vec![1]], &[vec![1]]), 0.0);
        let r = mrr(&[vec![3, 1, 2]], &[vec![2]]);
        assert!((r - 1.0 / 3.0).abs() < 1e-9);
        let p = precision_at(2, &[vec![1, 2, 3]], &[vec![2, 3]]);
        assert!((p - 0.5).abs() < 1e-9);
    }
}
