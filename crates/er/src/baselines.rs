//! Classical ER baselines DeepER is compared against (experiment E3):
//! exact matching, a threshold rule matcher, and feature-engineered
//! logistic regression ("traditional machine learning based approaches
//! which require handcrafted features, and similarity functions along
//! with their associated thresholds", §5.2).

use crate::features::{classical_feature_matrix, classical_pair_features};
use dc_data::DenseView;
use dc_nn::linear::Activation;
use dc_nn::loss::{class_weights, LossKind};
use dc_nn::mlp::Mlp;
use dc_nn::optim::Adam;
use dc_nn::train::{run_dataset_epochs, MlpTrainer, TrainOpts};
use dc_relational::tokenize::EditScratch;
use dc_relational::{Table, Value};
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Declares a pair a match only when every non-null attribute is equal.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactMatcher;

impl ExactMatcher {
    /// Predict labels for pairs.
    pub fn predict(&self, table: &Table, pairs: &[(usize, usize)]) -> Vec<bool> {
        pairs
            .iter()
            .map(|&(a, b)| {
                table.rows[a]
                    .iter()
                    .zip(&table.rows[b])
                    .all(|(x, y)| x.is_null() || y.is_null() || x == y)
            })
            .collect()
    }
}

/// Rule matcher: average attribute similarity (edit similarity over
/// canonical strings, nulls contribute 0) must exceed a threshold — the
/// hand-tuned-threshold style of pre-DL matchers.
#[derive(Clone, Copy, Debug)]
pub struct RuleMatcher {
    /// Decision threshold on mean attribute similarity.
    pub threshold: f64,
}

static MATCH_PAIRS: dc_obs::Counter = dc_obs::Counter::new("er.match.pairs");
static MATCH_FILTERED: dc_obs::Counter = dc_obs::Counter::new("er.match.filtered");
static MATCH_VERIFIED: dc_obs::Counter = dc_obs::Counter::new("er.match.verified");

impl RuleMatcher {
    /// With the given threshold.
    pub fn new(threshold: f64) -> Self {
        RuleMatcher { threshold }
    }

    /// Mean attribute similarity of one pair; 0 for zero-arity rows.
    ///
    /// # Panics
    /// Panics when the rows differ in arity.
    pub fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "rule matcher: arity mismatch ({} vs {})",
            a.len(),
            b.len()
        );
        let mut scratch = EditScratch::default();
        let mut total = 0.0;
        for (x, y) in a.iter().zip(b) {
            if !x.is_null() && !y.is_null() {
                total += scratch.similarity_str(&x.canonical(), &y.canonical());
            }
        }
        mean_similarity(total, a.len())
    }

    /// Predict labels for pairs: `score(a, b) >= threshold` for every
    /// pair, in `pairs`' iteration order — [`Self::prepare`] once, then
    /// [`PreparedMatcher::is_match`] per pair.
    ///
    /// `pairs` is any borrowed collection of pairs: a slice, or the set a
    /// blocker returns.
    ///
    /// # Panics
    /// Panics when a row's arity differs from the schema's.
    pub fn predict<'a>(
        &self,
        table: &Table,
        pairs: impl IntoIterator<Item = &'a (usize, usize)>,
    ) -> Vec<bool> {
        let mut matcher = self.prepare(table);
        pairs
            .into_iter()
            .map(|&(a, b)| matcher.is_match(a, b))
            .collect()
    }

    /// Bind the matcher to `table` for any number of
    /// [`PreparedMatcher::is_match`] calls: the table's cells are
    /// canonicalised and interned once, and columns with few distinct
    /// values get their value×value similarities tabulated up front.
    ///
    /// # Panics
    /// Panics when a row's arity differs from the schema's.
    pub fn prepare(&self, table: &Table) -> PreparedMatcher {
        let arity = table.schema.arity();
        for row in &table.rows {
            assert_eq!(
                row.len(),
                arity,
                "rule matcher: row arity {} != schema arity {arity}",
                row.len()
            );
        }
        PreparedMatcher {
            threshold: self.threshold,
            columns: (0..arity).map(|c| MatchColumn::new(table, c)).collect(),
            scratch: EditScratch::default(),
            terms: vec![0.0; arity],
            open: Vec::with_capacity(arity),
            pairs: 0,
            filtered: 0,
            verified: 0,
        }
    }

    /// Match scores (for AUC-style evaluation).
    pub fn scores(&self, table: &Table, pairs: &[(usize, usize)]) -> Vec<f32> {
        pairs
            .iter()
            .map(|&(a, b)| self.score(&table.rows[a], &table.rows[b]) as f32)
            .collect()
    }
}

/// A [`RuleMatcher`] bound to one table by [`RuleMatcher::prepare`]:
/// answers `score(a, b) >= threshold` for pairs of its row indices,
/// reusing the interned columns and the edit-distance scratch across
/// pairs. Its `er.match.{pairs,filtered,verified}` counts reach dc-obs
/// when it is dropped.
pub struct PreparedMatcher {
    threshold: f64,
    columns: Vec<MatchColumn>,
    scratch: EditScratch,
    /// Per column, the current pair's similarity term, and the columns
    /// whose term is still only a bound.
    terms: Vec<f64>,
    open: Vec<usize>,
    pairs: u64,
    filtered: u64,
    verified: u64,
}

impl PreparedMatcher {
    /// `score(a, b) >= threshold` for rows `a` and `b`, decided without
    /// computing most scores.
    ///
    /// Filter–verify (DESIGN.md §18): the pair starts from a per-column
    /// *upper bound* on its similarity — exact for equal values and for
    /// low-cardinality columns, whose value×value similarities are
    /// tabulated, and `1 − |la − lb| / max` otherwise, since an edit
    /// distance is at least the length difference. Bounds are summed in
    /// column order exactly as [`RuleMatcher::score`] sums similarities (a
    /// null column's `+ 0.0` leaves a non-negative sum bit for bit where
    /// `score` adds nothing); f64 addition and division are monotone, so a
    /// bound mean below the threshold proves the score is too. A
    /// surviving pair has its inexact columns replaced by their true
    /// similarity one at a time, re-testing after each; once none is left
    /// the sum *is* the score's sum, term for term.
    pub fn is_match(&mut self, a: usize, b: usize) -> bool {
        self.pairs += 1;
        self.open.clear();
        for (c, (col, term)) in self.columns.iter().zip(&mut self.terms).enumerate() {
            let (bound, exact) = col.bound(a, b);
            *term = bound;
            if !exact {
                self.open.push(c);
            }
        }
        let mut refined = 0;
        loop {
            let mut total = 0.0;
            for t in &self.terms {
                total += t;
            }
            let mean = mean_similarity(total, self.terms.len());
            if mean < self.threshold {
                self.filtered += u64::from(refined == 0);
                return false;
            }
            let Some(&c) = self.open.get(refined) else {
                return mean >= self.threshold;
            };
            self.terms[c] = self.columns[c].similarity(a, b, &mut self.scratch);
            refined += 1;
            self.verified += 1;
        }
    }
}

impl Drop for PreparedMatcher {
    fn drop(&mut self) {
        MATCH_PAIRS.add(self.pairs);
        MATCH_FILTERED.add(self.filtered);
        MATCH_VERIFIED.add(self.verified);
    }
}

/// The one place the similarity sum becomes a mean, so `score` and
/// `predict` divide identically. Zero-arity rows score 0, not `0 / 0`.
fn mean_similarity(total: f64, arity: usize) -> f64 {
    if arity == 0 {
        0.0
    } else {
        total / arity as f64
    }
}

/// Columns with at most this many distinct values get their value×value
/// similarity table computed up front (at most `64² / 2` edit distances,
/// against the hundreds of pairs per value such a column sees).
const MEMO_MAX_VALUES: usize = 64;

/// Id of a null cell in [`MatchColumn::ids`].
const NULL_ID: u32 = u32::MAX;

/// One column of a table, canonicalised once for pairwise matching.
struct MatchColumn {
    /// Per row: the interned id of the cell's canonical string, or
    /// [`NULL_ID`]. Equal ids mean equal canonical strings.
    ids: Vec<u32>,
    /// Per id: the canonical string's chars.
    values: Vec<Vec<char>>,
    /// Exact similarities, `values.len()` squared and row-major, when the
    /// column has at most [`MEMO_MAX_VALUES`] values; empty otherwise.
    memo: Vec<f64>,
}

impl MatchColumn {
    fn new(table: &Table, c: usize) -> Self {
        let mut interned: HashMap<String, u32> = HashMap::new();
        let mut values: Vec<Vec<char>> = Vec::new();
        let ids = table
            .rows
            .iter()
            .map(|row| {
                if row[c].is_null() {
                    return NULL_ID;
                }
                *interned.entry(row[c].canonical()).or_insert_with_key(|s| {
                    values.push(s.chars().collect());
                    (values.len() - 1) as u32
                })
            })
            .collect();
        let k = values.len();
        let mut memo = Vec::new();
        if k <= MEMO_MAX_VALUES {
            let mut scratch = EditScratch::default();
            memo = vec![1.0; k * k];
            for i in 0..k {
                for j in i + 1..k {
                    // Levenshtein distance is symmetric, so is this.
                    let sim = scratch.similarity(&values[i], &values[j]);
                    memo[i * k + j] = sim;
                    memo[j * k + i] = sim;
                }
            }
        }
        MatchColumn { ids, values, memo }
    }

    /// An upper bound on the similarity of rows `a` and `b` in this
    /// column and whether it is exact. A null on either side is an exact
    /// 0: the column adds nothing to the score.
    fn bound(&self, a: usize, b: usize) -> (f64, bool) {
        let (ia, ib) = (self.ids[a], self.ids[b]);
        if ia == NULL_ID || ib == NULL_ID {
            return (0.0, true);
        }
        if ia == ib {
            return (1.0, true);
        }
        let (ia, ib) = (ia as usize, ib as usize);
        if !self.memo.is_empty() {
            return (self.memo[ia * self.values.len() + ib], true);
        }
        // Distinct ids are distinct strings, so `max` is not 0.
        let (la, lb) = (self.values[ia].len(), self.values[ib].len());
        (1.0 - la.abs_diff(lb) as f64 / la.max(lb) as f64, false)
    }

    /// Exact similarity of two non-null cells.
    fn similarity(&self, a: usize, b: usize, scratch: &mut EditScratch) -> f64 {
        let (ia, ib) = (self.ids[a] as usize, self.ids[b] as usize);
        scratch.similarity(&self.values[ia], &self.values[ib])
    }
}

/// Feature-engineered logistic regression (magellan-style): classical
/// per-attribute features into a single-layer sigmoid classifier.
pub struct FeatureLogReg {
    model: Mlp,
}

impl FeatureLogReg {
    /// Train on labelled pairs.
    pub fn train(
        table: &Table,
        pairs: &[(usize, usize)],
        labels: &[bool],
        epochs: usize,
        rng: &mut StdRng,
    ) -> Self {
        let x = classical_feature_matrix(table, pairs);
        let y = Tensor::from_vec(
            labels.len(),
            1,
            labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect(),
        );
        let mut model = Mlp::new(
            &[x.cols, 1],
            Activation::Identity,
            Activation::Identity,
            rng,
        );
        let (w_neg, w_pos) = class_weights(labels);
        let opts = TrainOpts::default().with_epochs(epochs).with_batch_size(32);
        let mut opt = Adam::new(0.05);
        let mut trainer = MlpTrainer {
            model: &mut model,
            loss: LossKind::Bce { w_neg, w_pos },
            opt: &mut opt,
        };
        let mut ds = DenseView::new(&x, Some(&y));
        run_dataset_epochs("er.logreg", &mut trainer, &mut ds, &opts, rng);
        FeatureLogReg { model }
    }

    /// Match probabilities.
    pub fn predict(&self, table: &Table, pairs: &[(usize, usize)]) -> Vec<f32> {
        let x = classical_feature_matrix(table, pairs);
        self.model.predict_proba(&x)
    }

    /// Binary decisions at a threshold.
    pub fn predict_labels(
        &self,
        table: &Table,
        pairs: &[(usize, usize)],
        threshold: f32,
    ) -> Vec<bool> {
        self.predict(table, pairs)
            .into_iter()
            .map(|p| p >= threshold)
            .collect()
    }

    /// Number of hand-crafted features per pair for `table`.
    pub fn feature_count(table: &Table) -> usize {
        classical_pair_features(&table.rows[0], &table.rows[0]).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_datagen::{ErBenchmark, ErSuite};
    use dc_nn::metrics::f1_score;
    use rand::SeedableRng;

    #[test]
    fn exact_matcher_only_catches_identical() {
        let mut rng = StdRng::seed_from_u64(1);
        let bench = ErBenchmark::generate(ErSuite::Dirty, 40, 3, &mut rng);
        let pairs = bench.labeled_pairs(1, &mut rng);
        let p: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a, p.b)).collect();
        let gold: Vec<bool> = pairs.iter().map(|p| p.label).collect();
        let pred = ExactMatcher.predict(&bench.table, &p);
        // High precision, poor recall on dirty data.
        let c = dc_nn::metrics::confusion(&pred, &gold);
        assert!(c.precision() >= c.recall());
    }

    #[test]
    fn rule_matcher_threshold_tradeoff() {
        let mut rng = StdRng::seed_from_u64(2);
        let bench = ErBenchmark::generate(ErSuite::Clean, 50, 3, &mut rng);
        let pairs = bench.labeled_pairs(2, &mut rng);
        let p: Vec<(usize, usize)> = pairs.iter().map(|x| (x.a, x.b)).collect();
        let gold: Vec<bool> = pairs.iter().map(|x| x.label).collect();
        let loose = RuleMatcher::new(0.1).predict(&bench.table, &p);
        let strict = RuleMatcher::new(0.95).predict(&bench.table, &p);
        let loose_pos = loose.iter().filter(|&&b| b).count();
        let strict_pos = strict.iter().filter(|&&b| b).count();
        assert!(loose_pos >= strict_pos);
        // A mid threshold should do decently on clean data.
        let mid = RuleMatcher::new(0.6).predict(&bench.table, &p);
        assert!(f1_score(&mid, &gold) > 0.5);
    }

    #[test]
    fn rule_matcher_scores_zero_arity_as_zero() {
        let matcher = RuleMatcher::new(0.0);
        assert_eq!(matcher.score(&[], &[]), 0.0);
        let mut table = Table::new("empty", dc_relational::Schema::new(&[]));
        table.push(vec![]);
        table.push(vec![]);
        assert_eq!(matcher.predict(&table, &[(0, 1)]), vec![true]);
        assert_eq!(
            RuleMatcher::new(0.1).predict(&table, &[(0, 1)]),
            vec![false]
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch (2 vs 1)")]
    fn rule_matcher_rejects_arity_mismatch() {
        let a = vec![Value::text("x"), Value::text("y")];
        RuleMatcher::new(0.5).score(&a, &a[..1]);
    }

    #[test]
    fn logreg_learns_clean_benchmark() {
        let mut rng = StdRng::seed_from_u64(3);
        let bench = ErBenchmark::generate(ErSuite::Clean, 60, 3, &mut rng);
        let pairs = bench.labeled_pairs(3, &mut rng);
        let (train, test) = ErBenchmark::split_pairs(&pairs, 0.7, &mut rng);
        let tp: Vec<(usize, usize)> = train.iter().map(|x| (x.a, x.b)).collect();
        let tl: Vec<bool> = train.iter().map(|x| x.label).collect();
        let model = FeatureLogReg::train(&bench.table, &tp, &tl, 60, &mut rng);
        let ep: Vec<(usize, usize)> = test.iter().map(|x| (x.a, x.b)).collect();
        let el: Vec<bool> = test.iter().map(|x| x.label).collect();
        let pred = model.predict_labels(&bench.table, &ep, 0.5);
        let f1 = f1_score(&pred, &el);
        assert!(f1 > 0.75, "logreg F1 {f1}");
    }

    #[test]
    fn feature_count_is_4_per_attribute() {
        let mut rng = StdRng::seed_from_u64(4);
        let bench = ErBenchmark::generate(ErSuite::Clean, 5, 1, &mut rng);
        assert_eq!(
            FeatureLogReg::feature_count(&bench.table),
            bench.table.schema.arity() * 4
        );
    }
}
