//! Missing-value imputation: simple statistics, kNN and the MIDA-style
//! denoising autoencoder (§5.3).
//!
//! "A number of imputation techniques used in other areas (such as
//! mean/median) are not applicable to DC tasks" — they are implemented
//! here precisely so experiment E8 can show where the DAE's
//! pattern-aware predictions pull ahead (correlated attributes) and
//! where the simple baselines suffice.

use crate::encode::TableEncoder;
use dc_core::{DcError, DcResult};
use dc_data::DenseView;
use dc_nn::ae::{DenoisingAutoencoder, Noise};
use dc_nn::optim::Adam;
use dc_nn::train::{run_dataset_epochs, DaeTrainer, TrainOpts};
use dc_relational::{Table, Value};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Strategy for [`SimpleImputer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimpleStrategy {
    /// Mean for numerics, mode for everything else.
    MeanMode,
    /// Median for numerics, mode for everything else.
    MedianMode,
}

/// Column-statistic imputation.
#[derive(Clone, Debug)]
pub struct SimpleImputer {
    fills: Vec<Value>,
}

impl SimpleImputer {
    /// Fit fills from the observed values of `table`.
    pub fn fit(table: &Table, strategy: SimpleStrategy) -> Self {
        let fills = (0..table.schema.arity())
            .map(|c| {
                // A NaN cell (`Value::parse("NaN")` round-trips to a
                // float) is skipped like a null: it carries no statistic.
                let nums: Vec<f64> = table
                    .rows
                    .iter()
                    .filter_map(|r| r[c].as_f64())
                    .filter(|v| !v.is_nan())
                    .collect();
                let all_numeric = table
                    .rows
                    .iter()
                    .all(|r| r[c].is_null() || r[c].as_f64().is_some());
                if all_numeric && !nums.is_empty() {
                    let v = match strategy {
                        SimpleStrategy::MeanMode => nums.iter().sum::<f64>() / nums.len() as f64,
                        SimpleStrategy::MedianMode => {
                            let mut s = nums.clone();
                            s.sort_by(f64::total_cmp);
                            s[s.len() / 2]
                        }
                    };
                    Value::Float(v)
                } else {
                    // Mode of canonical strings.
                    let mut counts: std::collections::HashMap<String, usize> =
                        std::collections::HashMap::new();
                    for r in &table.rows {
                        if !r[c].is_null() {
                            *counts.entry(r[c].canonical()).or_insert(0) += 1;
                        }
                    }
                    counts
                        .into_iter()
                        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                        .map(|(v, _)| Value::text(v))
                        .unwrap_or(Value::Null)
                }
            })
            .collect();
        SimpleImputer { fills }
    }

    /// Fill every null cell of a copy of `table`.
    pub fn impute(&self, table: &Table) -> Table {
        self.try_impute(table)
            .unwrap_or_else(|e| panic!("SimpleImputer::impute: {e}"))
    }

    /// [`Self::impute`] with a structured error instead of a panic when
    /// `table`'s shape does not match the fitted fills — the
    /// service-facing entry (dc-serve returns it as a 4xx).
    pub fn try_impute(&self, table: &Table) -> DcResult<Table> {
        if table.schema.arity() != self.fills.len() {
            return Err(DcError::invalid(format!(
                "SimpleImputer: table has {} columns, imputer was fitted on {}",
                table.schema.arity(),
                self.fills.len()
            )));
        }
        let mut out = table.clone();
        for row in &mut out.rows {
            for (c, v) in row.iter_mut().enumerate() {
                if v.is_null() {
                    *v = self.fills[c].clone();
                }
            }
        }
        Ok(out)
    }
}

/// k-nearest-neighbour imputation over encoded rows.
#[derive(Clone, Debug)]
pub struct KnnImputer {
    /// Neighbours consulted per missing cell.
    pub k: usize,
}

impl KnnImputer {
    /// Impute nulls from the `k` most similar rows (distance over
    /// mutually observed encoded slots; neighbours must observe the
    /// target column).
    pub fn impute(&self, table: &Table, encoder: &TableEncoder) -> Table {
        self.try_impute(table, encoder)
            .unwrap_or_else(|e| panic!("KnnImputer::impute: {e}"))
    }

    /// [`Self::impute`] with a structured error instead of a panic on a
    /// degenerate `k` or a table/encoder shape mismatch — the
    /// service-facing entry (dc-serve returns it as a 4xx).
    pub fn try_impute(&self, table: &Table, encoder: &TableEncoder) -> DcResult<Table> {
        if self.k == 0 {
            return Err(DcError::invalid("KnnImputer: k must be at least 1"));
        }
        if table.schema.arity() != encoder.arity() {
            return Err(DcError::invalid(format!(
                "KnnImputer: table has {} columns, encoder was fitted on {}",
                table.schema.arity(),
                encoder.arity()
            )));
        }
        let (x, observed) = encoder.encode(table);
        let mut out = table.clone();
        for i in 0..table.len() {
            for c in 0..table.schema.arity() {
                if !out.rows[i][c].is_null() {
                    continue;
                }
                // Keep the k nearest rows by distance over shared
                // slots: a bounded heap (dc_index::TopK) instead of
                // scoring into a Vec and fully sorting per cell. Ties
                // break toward the lower row id, like the seed's
                // stable ascending sort.
                let mut top = dc_index::TopK::smallest(self.k);
                for j in (0..table.len()).filter(|&j| j != i && observed[j][c]) {
                    let mut d = 0.0;
                    let mut shared = 0usize;
                    for (cc, (&oi, &oj)) in observed[i].iter().zip(observed[j].iter()).enumerate() {
                        if cc == c || !oi || !oj {
                            continue;
                        }
                        for s in encoder.column_range(cc) {
                            let diff = x.get(i, s) - x.get(j, s);
                            d += diff * diff;
                        }
                        shared += 1;
                    }
                    // No shared evidence → very far.
                    let dist = if shared == 0 {
                        f32::MAX
                    } else {
                        d / shared as f32
                    };
                    top.push(j, dist);
                }
                let neighbours: Vec<usize> =
                    top.into_sorted().into_iter().map(|h| h.index).collect();
                if neighbours.is_empty() {
                    continue;
                }
                out.rows[i][c] = aggregate_neighbours(table, c, &neighbours);
            }
        }
        Ok(out)
    }
}

fn aggregate_neighbours(table: &Table, c: usize, neighbours: &[usize]) -> Value {
    let nums: Vec<f64> = neighbours
        .iter()
        .filter_map(|&j| table.rows[j][c].as_f64())
        .collect();
    let numeric = neighbours
        .iter()
        .all(|&j| table.rows[j][c].as_f64().is_some());
    if numeric && !nums.is_empty() {
        Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
    } else {
        let mut counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        for &j in neighbours {
            if !table.rows[j][c].is_null() {
                *counts.entry(table.rows[j][c].canonical()).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(v, _)| Value::text(v))
            .unwrap_or(Value::Null)
    }
}

/// MIDA-style multiple imputation with a denoising autoencoder.
pub struct DaeImputer {
    encoder: TableEncoder,
    dae: DenoisingAutoencoder,
}

impl DaeImputer {
    /// Train on the observed parts of `table` (nulls already encode as
    /// zeros, matching the DAE's masking corruption), then impute by
    /// reconstruction.
    pub fn train(
        table: &Table,
        encoder: TableEncoder,
        hidden: &[usize],
        latent: usize,
        epochs: usize,
        rng: &mut StdRng,
    ) -> Self {
        let (x, _) = encoder.encode(table);
        if dc_check::enabled() {
            // The DAE hot path validates its own graphs; here we vet the
            // *input* — a non-finite encoding would poison every epoch.
            let tape = dc_tensor::Tape::new();
            let _ = tape.var_from(&x);
            let poisoned = dc_check::sanitize(&tape);
            assert!(
                poisoned.is_empty(),
                "dc-check [DaeImputer::train]: encoded table is not finite\n{}",
                dc_check::render(&poisoned)
            );
        }
        let mut dae = DenoisingAutoencoder::new(
            encoder.width(),
            hidden,
            latent,
            Noise::Masking { p: 0.2 },
            rng,
        );
        let opts = TrainOpts::default().with_epochs(epochs).with_batch_size(32);
        let mut opt = Adam::new(0.005);
        let mut trainer = DaeTrainer {
            model: &mut dae,
            opt: &mut opt,
        };
        let mut ds = DenseView::new(&x, None);
        run_dataset_epochs("clean.impute", &mut trainer, &mut ds, &opts, rng);
        DaeImputer { encoder, dae }
    }

    /// Fill every null cell with the decoded reconstruction.
    pub fn impute(&self, table: &Table) -> Table {
        self.try_impute(table)
            .unwrap_or_else(|e| panic!("DaeImputer::impute: {e}"))
    }

    /// [`Self::impute`] with a structured error instead of a panic on a
    /// table/encoder shape mismatch — the service-facing entry
    /// (dc-serve returns it as a 4xx).
    pub fn try_impute(&self, table: &Table) -> DcResult<Table> {
        if table.schema.arity() != self.encoder.arity() {
            return Err(DcError::invalid(format!(
                "DaeImputer: table has {} columns, encoder was fitted on {}",
                table.schema.arity(),
                self.encoder.arity()
            )));
        }
        let (x, _) = self.encoder.encode(table);
        let recon = self.dae.denoise(&x);
        let mut out = table.clone();
        for i in 0..table.len() {
            for c in 0..table.schema.arity() {
                if out.rows[i][c].is_null() {
                    out.rows[i][c] = self.encoder.decode_cell(c, recon.row_slice(i));
                }
            }
        }
        Ok(out)
    }

    /// *Multiple* imputation — the "multiple" of MIDA (§5.3: "multiple
    /// imputation (where more than one cell has missing values)"
    /// produces several plausible completions, not one point estimate).
    /// Each draw perturbs the observed inputs with the DAE's own
    /// training corruption before reconstruction, so the spread across
    /// draws reflects the model's uncertainty.
    pub fn impute_multiple(&self, table: &Table, m: usize, rng: &mut StdRng) -> Vec<Table> {
        let (x, _) = self.encoder.encode(table);
        (0..m)
            .map(|_| {
                let corrupted = self.dae.noise.corrupt(&x, rng);
                let recon = self.dae.denoise(&corrupted);
                let mut out = table.clone();
                for i in 0..table.len() {
                    for c in 0..table.schema.arity() {
                        if out.rows[i][c].is_null() {
                            out.rows[i][c] = self.encoder.decode_cell(c, recon.row_slice(i));
                        }
                    }
                }
                out
            })
            .collect()
    }

    /// Per-cell agreement across multiple imputations: for every
    /// originally-null cell, the fraction of draws agreeing with the
    /// modal completion — a confidence score for review queues.
    pub fn imputation_confidence(
        &self,
        table: &Table,
        m: usize,
        rng: &mut StdRng,
    ) -> Vec<((usize, usize), f64)> {
        let draws = self.impute_multiple(table, m, rng);
        let mut out = Vec::new();
        for i in 0..table.len() {
            for c in 0..table.schema.arity() {
                if !table.rows[i][c].is_null() {
                    continue;
                }
                let mut counts: std::collections::HashMap<String, usize> =
                    std::collections::HashMap::new();
                for d in &draws {
                    *counts.entry(d.rows[i][c].canonical()).or_insert(0) += 1;
                }
                let modal = counts.values().copied().max().unwrap_or(0);
                out.push(((i, c), modal as f64 / m.max(1) as f64));
            }
        }
        out
    }
}

/// Imputation quality against ground truth: RMSE on numeric cells and
/// accuracy on categorical cells (scored only where the dirty table was
/// null and the clean table was not).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ImputeScore {
    /// Root-mean-squared error over imputed numeric cells.
    pub numeric_rmse: f64,
    /// Number of numeric cells scored.
    pub numeric_cells: usize,
    /// Exact-match accuracy over imputed categorical cells.
    pub categorical_accuracy: f64,
    /// Number of categorical cells scored.
    pub categorical_cells: usize,
}

/// Score an imputed table cell-by-cell against the clean original.
pub fn score_imputation(clean: &Table, dirty: &Table, imputed: &Table) -> ImputeScore {
    let mut se = 0.0;
    let mut nnum = 0usize;
    let mut hits = 0usize;
    let mut ncat = 0usize;
    for i in 0..clean.len() {
        for c in 0..clean.schema.arity() {
            if !dirty.rows[i][c].is_null() || clean.rows[i][c].is_null() {
                continue;
            }
            let truth = &clean.rows[i][c];
            let guess = &imputed.rows[i][c];
            match truth.as_f64() {
                Some(t) if matches!(truth, Value::Int(_) | Value::Float(_)) => {
                    let g = guess.as_f64().unwrap_or(0.0);
                    se += (t - g) * (t - g);
                    nnum += 1;
                }
                _ => {
                    ncat += 1;
                    if guess.canonical() == truth.canonical() {
                        hits += 1;
                    }
                }
            }
        }
    }
    ImputeScore {
        numeric_rmse: if nnum == 0 {
            0.0
        } else {
            (se / nnum as f64).sqrt()
        },
        numeric_cells: nnum,
        categorical_accuracy: if ncat == 0 {
            0.0
        } else {
            hits as f64 / ncat as f64
        },
        categorical_cells: ncat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_datagen::{people_table, ErrorInjector, ErrorKind};
    use rand::SeedableRng;

    fn dirty_people(rng: &mut StdRng) -> (Table, Table) {
        let clean = people_table(250, rng);
        let (dirty, _) = ErrorInjector::only(ErrorKind::Null, 0.08).inject(&clean, &[], rng);
        (clean, dirty)
    }

    #[test]
    fn simple_imputer_fills_all_nulls() {
        let mut rng = StdRng::seed_from_u64(500);
        let (_, dirty) = dirty_people(&mut rng);
        let imp = SimpleImputer::fit(&dirty, SimpleStrategy::MeanMode);
        let filled = imp.impute(&dirty);
        assert_eq!(filled.null_rate(), 0.0);
    }

    #[test]
    fn nan_cells_are_skipped_like_nulls() {
        use dc_relational::{AttrType, Schema};
        let mut t = Table::new("n", Schema::new(&[("x", AttrType::Float)]));
        for raw in ["1", "NaN", "3", ""] {
            t.push(vec![Value::parse(raw)]);
        }
        assert!(t.rows[1][0].as_f64().is_some_and(f64::is_nan));
        let mean = SimpleImputer::fit(&t, SimpleStrategy::MeanMode).impute(&t);
        let median = SimpleImputer::fit(&t, SimpleStrategy::MedianMode).impute(&t);
        assert_eq!(mean.rows[3][0].as_f64(), Some(2.0));
        assert_eq!(median.rows[3][0].as_f64(), Some(3.0));
    }

    #[test]
    fn median_differs_from_mean_on_skewed_data() {
        use dc_relational::{AttrType, Schema};
        let mut t = Table::new("s", Schema::new(&[("x", AttrType::Float)]));
        for v in [1.0, 1.0, 1.0, 100.0] {
            t.push(vec![Value::Float(v)]);
        }
        t.push(vec![Value::Null]);
        let mean = SimpleImputer::fit(&t, SimpleStrategy::MeanMode).impute(&t);
        let median = SimpleImputer::fit(&t, SimpleStrategy::MedianMode).impute(&t);
        assert!(mean.rows[4][0].as_f64().expect("num") > 20.0);
        assert!(median.rows[4][0].as_f64().expect("num") < 2.0);
    }

    #[test]
    fn knn_uses_correlated_columns() {
        // city determines country; kNN must exploit it.
        let mut rng = StdRng::seed_from_u64(501);
        let clean = people_table(200, &mut rng);
        let mut dirty = clean.clone();
        // Null out country (col 5) on 30 rows.
        for i in 0..30 {
            dirty.rows[i][5] = Value::Null;
        }
        let encoder = TableEncoder::fit(&dirty, 64);
        let filled = KnnImputer { k: 5 }.impute(&dirty, &encoder);
        let score = score_imputation(&clean, &dirty, &filled);
        assert!(
            score.categorical_accuracy > 0.8,
            "kNN country accuracy {score:?}"
        );
    }

    #[test]
    fn dae_beats_mode_on_correlated_categoricals() {
        let mut rng = StdRng::seed_from_u64(502);
        let clean = people_table(300, &mut rng);
        let mut dirty = clean.clone();
        for i in 0..60 {
            dirty.rows[i][5] = Value::Null; // country
        }
        let encoder = TableEncoder::fit(&dirty, 64);
        let dae = DaeImputer::train(&dirty, encoder, &[48], 24, 60, &mut rng);
        let dae_filled = dae.impute(&dirty);
        let dae_score = score_imputation(&clean, &dirty, &dae_filled);

        let mode_filled = SimpleImputer::fit(&dirty, SimpleStrategy::MeanMode).impute(&dirty);
        let mode_score = score_imputation(&clean, &dirty, &mode_filled);

        assert!(
            dae_score.categorical_accuracy > mode_score.categorical_accuracy,
            "DAE {dae_score:?} vs mode {mode_score:?}"
        );
        assert!(dae_score.categorical_accuracy > 0.6, "{dae_score:?}");
    }

    #[test]
    fn multiple_imputation_draws_differ_but_fill_everything() {
        let mut rng = StdRng::seed_from_u64(504);
        let clean = people_table(200, &mut rng);
        let mut dirty = clean.clone();
        for i in 0..40 {
            dirty.rows[i][5] = Value::Null;
        }
        let encoder = TableEncoder::fit(&dirty, 64);
        let dae = DaeImputer::train(&dirty, encoder, &[48], 24, 40, &mut rng);
        let draws = dae.impute_multiple(&dirty, 5, &mut rng);
        assert_eq!(draws.len(), 5);
        for d in &draws {
            assert_eq!(d.null_rate(), 0.0);
        }
        // Confidence scores are bounded and cover exactly the nulls.
        let conf = dae.imputation_confidence(&dirty, 5, &mut rng);
        assert_eq!(conf.len(), 40);
        for (_, c) in &conf {
            assert!((0.0..=1.0).contains(c));
        }
    }

    #[test]
    fn shape_mismatches_are_structured_errors() {
        use dc_relational::{AttrType, Schema};
        let mut rng = StdRng::seed_from_u64(505);
        let (_, dirty) = dirty_people(&mut rng);
        let encoder = TableEncoder::fit(&dirty, 16);
        let narrow = Table::new("n", Schema::new(&[("x", AttrType::Float)]));

        let simple = SimpleImputer::fit(&dirty, SimpleStrategy::MeanMode);
        assert_eq!(
            simple.try_impute(&narrow).unwrap_err().kind(),
            "invalid_input"
        );
        assert!(simple.try_impute(&dirty).is_ok());

        let knn = KnnImputer { k: 3 };
        assert_eq!(
            knn.try_impute(&narrow, &encoder).unwrap_err().kind(),
            "invalid_input"
        );
        assert_eq!(
            KnnImputer { k: 0 }
                .try_impute(&dirty, &encoder)
                .unwrap_err()
                .kind(),
            "invalid_input"
        );
    }

    #[test]
    fn score_only_counts_originally_missing_cells() {
        let mut rng = StdRng::seed_from_u64(503);
        let clean = people_table(20, &mut rng);
        let dirty = clean.clone(); // nothing missing
        let score = score_imputation(&clean, &dirty, &clean);
        assert_eq!(score.numeric_cells + score.categorical_cells, 0);
    }
}
