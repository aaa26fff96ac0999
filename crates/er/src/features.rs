//! Pair feature construction: distributed (DeepER) and hand-crafted
//! (the "traditional machine learning based approaches which require
//! handcrafted features, and similarity functions along with their
//! associated thresholds" that §5.2 contrasts against).

use dc_embed::{tuple2vec, Embeddings};
use dc_relational::tokenize::{jaccard, tokenize, EditScratch};
use dc_relational::{Table, Value};
use dc_tensor::tensor::cosine;
use dc_tensor::Tensor;

/// Composed tuple vectors for every row of a table (mean-of-word-
/// embeddings composition). Rows with no in-vocabulary token get a zero
/// vector, which downstream cosine treats as dissimilar to everything.
pub fn tuple_vectors(emb: &Embeddings, table: &Table) -> Vec<Vec<f32>> {
    table
        .rows
        .iter()
        .map(|row| tuple2vec(emb, row, None).unwrap_or_else(|| vec![0.0; emb.dim()]))
        .collect()
}

/// DeepER similarity vector for one pair of tuple embeddings:
/// `[ |a−b| ; a⊙b ; cos(a,b) ]` — dimension `2d + 1`.
pub fn embedding_pair_features(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "pair features: dim mismatch");
    let mut out = Vec::with_capacity(2 * a.len() + 1);
    for (&x, &y) in a.iter().zip(b) {
        out.push((x - y).abs());
    }
    for (&x, &y) in a.iter().zip(b) {
        out.push(x * y);
    }
    out.push(cosine(a, b));
    out
}

/// Build the full `n_pairs × (2d+1)` feature matrix for labelled pairs.
pub fn embedding_feature_matrix(vectors: &[Vec<f32>], pairs: &[(usize, usize)]) -> Tensor {
    let d = vectors.first().map(|v| 2 * v.len() + 1).unwrap_or(1);
    let mut x = Tensor::zeros(pairs.len(), d);
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let f = embedding_pair_features(&vectors[a], &vectors[b]);
        x.row_slice_mut(i).copy_from_slice(&f);
    }
    x
}

/// Hand-crafted per-attribute features for one tuple pair: for every
/// column, `[edit similarity, token jaccard, exact match, both-null]` —
/// the magellan-style feature family.
pub fn classical_pair_features(a: &[Value], b: &[Value]) -> Vec<f32> {
    let mut out = vec![0.0; a.len() * 4];
    classical_pair_features_into(a, b, &mut out, &mut EditScratch::default());
    out
}

/// [`classical_pair_features`] into a zeroed `out` of `4 × arity`, with
/// the edit-distance buffers supplied by the caller.
fn classical_pair_features_into(
    a: &[Value],
    b: &[Value],
    out: &mut [f32],
    scratch: &mut EditScratch,
) {
    assert_eq!(a.len(), b.len(), "classical features: arity mismatch");
    assert_eq!(out.len(), a.len() * 4, "classical features: output width");
    for ((va, vb), f) in a.iter().zip(b).zip(out.chunks_exact_mut(4)) {
        match (va.is_null(), vb.is_null()) {
            (true, true) => f[3] = 1.0,
            (true, false) | (false, true) => {}
            (false, false) => {
                let sa = va.canonical();
                let sb = vb.canonical();
                f[0] = scratch.similarity_str(&sa, &sb) as f32;
                f[1] = jaccard(&tokenize(&sa), &tokenize(&sb)) as f32;
                f[2] = if va == vb { 1.0 } else { 0.0 };
            }
        }
    }
}

/// Classical feature matrix for labelled pairs over a table.
pub fn classical_feature_matrix(table: &Table, pairs: &[(usize, usize)]) -> Tensor {
    let d = table.schema.arity() * 4;
    let mut x = Tensor::zeros(pairs.len(), d);
    let mut scratch = EditScratch::default();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        classical_pair_features_into(
            &table.rows[a],
            &table.rows[b],
            x.row_slice_mut(i),
            &mut scratch,
        );
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_embed::SgnsConfig;
    use dc_relational::table::employee_example;
    use dc_relational::tokenize_tuple;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn emb() -> Embeddings {
        let docs: Vec<Vec<String>> = employee_example()
            .rows
            .iter()
            .map(|r| tokenize_tuple(r))
            .collect();
        Embeddings::train(
            &docs,
            &SgnsConfig {
                dim: 6,
                epochs: 5,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn embedding_features_shape_and_identity() {
        let a = vec![1.0, 2.0, 3.0];
        let f = embedding_pair_features(&a, &a);
        assert_eq!(f.len(), 7);
        assert!(f[..3].iter().all(|&v| v == 0.0)); // |a−a| = 0
        assert!((f[6] - 1.0).abs() < 1e-6); // cos(a,a) = 1
    }

    #[test]
    fn tuple_vectors_cover_all_rows() {
        let t = employee_example();
        let vs = tuple_vectors(&emb(), &t);
        assert_eq!(vs.len(), 4);
        assert!(vs.iter().all(|v| v.len() == 6));
    }

    #[test]
    fn feature_matrix_rows_match_pairs() {
        let t = employee_example();
        let vs = tuple_vectors(&emb(), &t);
        let x = embedding_feature_matrix(&vs, &[(0, 1), (0, 2)]);
        assert_eq!((x.rows, x.cols), (2, 13));
    }

    #[test]
    fn classical_features_detect_exact_match() {
        let t = employee_example();
        let f = classical_pair_features(&t.rows[0], &t.rows[0]);
        assert_eq!(f.len(), 16);
        // Every column: edit sim 1, jaccard 1, exact 1, both-null 0.
        for c in 0..4 {
            assert_eq!(&f[c * 4..c * 4 + 4], &[1.0, 1.0, 1.0, 0.0]);
        }
    }

    #[test]
    fn classical_features_handle_nulls() {
        use dc_relational::Value;
        let a = vec![Value::Null, Value::text("x")];
        let b = vec![Value::Null, Value::Null];
        let f = classical_pair_features(&a, &b);
        assert_eq!(&f[0..4], &[0.0, 0.0, 0.0, 1.0]); // both null
        assert_eq!(&f[4..8], &[0.0, 0.0, 0.0, 0.0]); // one null
    }

    #[test]
    fn similar_strings_score_high() {
        use dc_relational::Value;
        let a = vec![Value::text("john smith")];
        let b = vec![Value::text("jon smith")];
        let f = classical_pair_features(&a, &b);
        assert!(f[0] > 0.8, "edit sim {}", f[0]);
        assert!(f[1] > 0.3, "jaccard {}", f[1]);
        assert_eq!(f[2], 0.0);
    }
}
