//! The DeepER matcher (Figure 5): tuple → distributed representation →
//! similarity vector → dense classifier.
//!
//! Two compositions are provided, mirroring §3.1 and §5.2:
//! * **Average** — mean of the tuple's word embeddings (fast; the
//!   similarity vector includes cosine);
//! * **Lstm** — a trained LSTM reads the tuple's token-embedding
//!   sequence and its final hidden state represents the tuple
//!   ("uni- and bi-directional recurrent neural networks (RNNs) with
//!   long short term memory (LSTM) hidden units to convert each tuple
//!   to a distributed representation").
//!
//! Word embeddings are *frozen* during matcher training, exactly as
//! DeepER froze its GloVe vectors: "built a light-weight DL model that
//! can be trained in a matter of minutes even on a CPU" (§6.1).

use crate::features::{embedding_feature_matrix, tuple_vectors};
use dc_core::{check_pairs, DcResult};
use dc_data::DenseView;
use dc_embed::Embeddings;
use dc_nn::linear::Activation;
use dc_nn::loss::{class_weights, LossKind};
use dc_nn::lstm::LstmEncoder;
use dc_nn::mlp::Mlp;
use dc_nn::optim::{Adam, Optimizer};
use dc_nn::train::{
    run_dataset_epochs, Batch, MlpTrainer, StepStats, TrainCtx, TrainOpts, Trainer,
};
use dc_relational::{tokenize_tuple, Table};
use dc_tensor::{Tape, Tensor, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// How tuples are composed into distributed representations.
#[derive(Clone, Debug)]
pub enum Composition {
    /// Mean of word embeddings (no trained parameters).
    Average,
    /// Trained LSTM over the token-embedding sequence, with the given
    /// hidden width. Token sequences are truncated to `max_tokens`.
    Lstm {
        /// Hidden-state width of the encoder.
        hidden: usize,
        /// Truncation length for tuple token sequences.
        max_tokens: usize,
    },
}

/// Hyper-parameters for DeepER training.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeepErConfig {
    /// Widths of the classifier's hidden layers.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size (average composition only; the LSTM path trains
    /// pair-by-pair).
    pub batch: usize,
    /// Use inverse-frequency class weights (§6.1 skew remedy).
    pub class_weighting: bool,
}

impl Default for DeepErConfig {
    fn default() -> Self {
        DeepErConfig {
            hidden: vec![32],
            epochs: 30,
            lr: 0.01,
            batch: 32,
            class_weighting: true,
        }
    }
}

impl DeepErConfig {
    /// Set the classifier's hidden-layer widths (builder convention,
    /// DESIGN.md §10).
    pub fn with_hidden(mut self, hidden: &[usize]) -> Self {
        self.hidden = hidden.to_vec();
        self
    }

    /// Set the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Set the Adam learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Set the minibatch size (average composition).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Toggle inverse-frequency class weighting.
    pub fn with_class_weighting(mut self, on: bool) -> Self {
        self.class_weighting = on;
        self
    }
}

/// A trained DeepER matcher. Serializable as one checkpoint object —
/// dc-serve's per-tenant model registry saves and hot-reloads it
/// through serde_json.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeepEr {
    /// Frozen word embeddings.
    pub emb: Embeddings,
    /// Tuple composition strategy (and its trained encoder, if LSTM).
    composition: CompositionState,
    /// The classifier head.
    pub classifier: Mlp,
    config: DeepErConfig,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
enum CompositionState {
    Average,
    Lstm {
        encoder: LstmEncoder,
        max_tokens: usize,
    },
}

impl DeepEr {
    /// Train a matcher on labelled pairs over `table`.
    pub fn train(
        emb: Embeddings,
        table: &Table,
        pairs: &[(usize, usize)],
        labels: &[bool],
        composition: Composition,
        config: DeepErConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(pairs.len(), labels.len(), "pair/label mismatch");
        match composition {
            Composition::Average => Self::train_average(emb, table, pairs, labels, config, rng),
            Composition::Lstm { hidden, max_tokens } => {
                Self::train_lstm(emb, table, pairs, labels, hidden, max_tokens, config, rng)
            }
        }
    }

    fn train_average(
        emb: Embeddings,
        table: &Table,
        pairs: &[(usize, usize)],
        labels: &[bool],
        config: DeepErConfig,
        rng: &mut StdRng,
    ) -> Self {
        let vectors = tuple_vectors(&emb, table);
        let x = embedding_feature_matrix(&vectors, pairs);
        let y = Tensor::from_vec(
            labels.len(),
            1,
            labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect(),
        );
        let mut dims = vec![x.cols];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mut classifier = Mlp::new(&dims, Activation::Relu, Activation::Identity, rng);
        let mut opt = Adam::new(config.lr);
        let loss = if config.class_weighting {
            let (w_neg, w_pos) = class_weights(labels);
            LossKind::Bce { w_neg, w_pos }
        } else {
            LossKind::bce()
        };
        let opts = TrainOpts::default()
            .with_epochs(config.epochs)
            .with_batch_size(config.batch);
        let mut trainer = MlpTrainer {
            model: &mut classifier,
            loss,
            opt: &mut opt,
        };
        let mut ds = DenseView::new(&x, Some(&y));
        run_dataset_epochs("er.deeper", &mut trainer, &mut ds, &opts, rng);
        DeepEr {
            emb,
            composition: CompositionState::Average,
            classifier,
            config,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn train_lstm(
        emb: Embeddings,
        table: &Table,
        pairs: &[(usize, usize)],
        labels: &[bool],
        hidden: usize,
        max_tokens: usize,
        config: DeepErConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mut encoder = LstmEncoder::new(emb.dim(), hidden, rng);
        let mut dims = vec![2 * hidden];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mut classifier = Mlp::new(&dims, Activation::Relu, Activation::Identity, rng);
        let mut opt = Adam::new(config.lr);
        let (w_neg, w_pos) = if config.class_weighting {
            class_weights(labels)
        } else {
            (1.0, 1.0)
        };

        // Pre-tokenise every row once, straight into the `T×dim`
        // sequence tensors the encoder's fused input GEMM consumes.
        let dim = emb.dim();
        let sequences: Vec<Tensor> = table
            .rows
            .iter()
            .map(|row| {
                let toks: Vec<f32> = tokenize_tuple(row)
                    .iter()
                    .filter_map(|t| emb.get(t))
                    .take(max_tokens)
                    .flat_map(|v| v.iter().copied())
                    .collect();
                if toks.is_empty() {
                    // Guarantee at least one step so empty tuples
                    // still encode.
                    Tensor::zeros(1, dim)
                } else {
                    Tensor::from_vec(toks.len() / dim, dim, toks)
                }
            })
            .collect();

        // The LSTM path trains pair-by-pair; the epoch loop drives it
        // over a column of pair indices with batch_size 1, which
        // shuffles in exactly the order the seed's hand-rolled loop did.
        let index = Tensor::from_vec(pairs.len(), 1, (0..pairs.len()).map(|i| i as f32).collect());
        let opts = TrainOpts::default()
            .with_epochs(config.epochs)
            .with_batch_size(1);
        let mut trainer = LstmPairTrainer {
            encoder: &mut encoder,
            classifier: &mut classifier,
            opt: &mut opt,
            sequences: &sequences,
            pairs,
            labels,
            w_neg,
            w_pos,
        };
        let mut ds = DenseView::new(&index, None);
        run_dataset_epochs("er.deeper_lstm", &mut trainer, &mut ds, &opts, rng);
        DeepEr {
            emb,
            composition: CompositionState::Lstm {
                encoder,
                max_tokens,
            },
            classifier,
            config,
        }
    }

    fn seq_var(tape: &Tape, seq: &Tensor) -> Var {
        tape.var_slice(seq.rows, seq.cols, &seq.data)
    }

    /// Match probabilities for candidate pairs over `table`.
    ///
    /// Panics on out-of-range pair indices; service code should use
    /// [`DeepEr::try_predict`] (or [`DeepEr::try_predict_aligned`] for
    /// the batch-invariant path) instead.
    pub fn predict(&self, table: &Table, pairs: &[(usize, usize)]) -> Vec<f32> {
        self.try_predict(table, pairs)
            .unwrap_or_else(|e| panic!("DeepEr::predict: {e}"))
    }

    /// Match probabilities for candidate pairs over `table`, validating
    /// indices instead of panicking.
    pub fn try_predict(&self, table: &Table, pairs: &[(usize, usize)]) -> DcResult<Vec<f32>> {
        check_pairs(pairs, table.rows.len())?;
        Ok(self.predict_impl(table, pairs, false))
    }

    /// [`DeepEr::try_predict`] through the row-tile-aligned GEMM paths
    /// ([`LstmEncoder::encode_batch_aligned`],
    /// [`Mlp::predict_proba_aligned`]): every pair's probability is a
    /// pure bitwise function of that pair alone, independent of what
    /// else shares the batch and of `DC_THREADS`. This is the execution
    /// path behind dc-serve's match endpoint — coalesced micro-batches
    /// return exactly the bits a solo request would.
    pub fn try_predict_aligned(
        &self,
        table: &Table,
        pairs: &[(usize, usize)],
    ) -> DcResult<Vec<f32>> {
        check_pairs(pairs, table.rows.len())?;
        Ok(self.predict_impl(table, pairs, true))
    }

    /// Distributed tuple representations for the given rows (validated):
    /// mean-of-embeddings for the average composition, the aligned LSTM
    /// hidden state for the LSTM composition. Powers dc-serve's encode
    /// endpoint; the aligned path keeps each row's vector bitwise
    /// independent of the request batch it rode in with.
    pub fn try_encode(&self, table: &Table, rows: &[usize]) -> DcResult<Vec<Vec<f32>>> {
        let n = table.rows.len();
        if let Some(&r) = rows.iter().find(|&&r| r >= n) {
            return Err(dc_core::DcError::invalid(format!(
                "row {r} out of range for {n} rows"
            )));
        }
        match &self.composition {
            CompositionState::Average => {
                let vectors = tuple_vectors(&self.emb, table);
                Ok(rows.iter().map(|&r| vectors[r].clone()).collect())
            }
            CompositionState::Lstm {
                encoder,
                max_tokens,
            } => {
                let seqs: Vec<Tensor> = rows
                    .iter()
                    .map(|&r| self.row_sequence(table, r, *max_tokens))
                    .collect();
                Ok(encoder
                    .encode_batch_aligned(&seqs)
                    .into_iter()
                    .map(|h| h.data)
                    .collect())
            }
        }
    }

    /// Token-embedding sequence for one row (empty tuples give a `0×d`
    /// sequence, which encodes to the zero state).
    fn row_sequence(&self, table: &Table, r: usize, max_tokens: usize) -> Tensor {
        let toks: Vec<Vec<f32>> = tokenize_tuple(&table.rows[r])
            .iter()
            .filter_map(|t| self.emb.get(t).map(|v| v.to_vec()))
            .take(max_tokens)
            .collect();
        Tensor::from_vec(toks.len(), self.emb.dim(), toks.concat())
    }

    /// Shared predict body; `aligned` selects the row-tile-padded GEMM
    /// paths (bitwise batch-invariant) over the packed ones (faster by
    /// a hair, ulp-level batch-dependent).
    fn predict_impl(&self, table: &Table, pairs: &[(usize, usize)], aligned: bool) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        match &self.composition {
            CompositionState::Average => {
                let vectors = tuple_vectors(&self.emb, table);
                let x = embedding_feature_matrix(&vectors, pairs);
                if aligned {
                    self.classifier.predict_proba_aligned(&x)
                } else {
                    self.classifier.predict_proba(&x)
                }
            }
            CompositionState::Lstm {
                encoder,
                max_tokens,
            } => {
                // One encoding per distinct row index. The token
                // sequences are assembled serially (hash lookups), then
                // the independent LSTM lanes run as one batch across
                // the shared worker pool.
                let mut idx: Vec<usize> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
                idx.sort_unstable();
                idx.dedup();
                let seqs: Vec<Tensor> = idx
                    .iter()
                    .map(|&r| self.row_sequence(table, r, *max_tokens))
                    .collect();
                let encoded = if aligned {
                    encoder.encode_batch_aligned(&seqs)
                } else {
                    encoder.encode_batch(&seqs)
                };
                let cache: std::collections::HashMap<usize, Tensor> =
                    idx.iter().copied().zip(encoded).collect();
                let mut feats = Vec::with_capacity(pairs.len());
                for &(a, b) in pairs {
                    let (ha, hb) = (&cache[&a], &cache[&b]);
                    let diff = ha.sub(hb).map(f32::abs);
                    let had = ha.mul(hb);
                    feats.push(Tensor::hstack(&[diff, had]));
                }
                let x = Tensor::vstack(&feats);
                if aligned {
                    self.classifier.predict_proba_aligned(&x)
                } else {
                    self.classifier.predict_proba(&x)
                }
            }
        }
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

    /// The training configuration used.
    pub fn config(&self) -> &DeepErConfig {
        &self.config
    }
}

/// Pair-by-pair [`Trainer`] for the LSTM composition: each "batch" is
/// a single row of the pair-index column, decoded back to the labelled
/// pair it names.
struct LstmPairTrainer<'a> {
    encoder: &'a mut LstmEncoder,
    classifier: &'a mut Mlp,
    opt: &'a mut Adam,
    sequences: &'a [Tensor],
    pairs: &'a [(usize, usize)],
    labels: &'a [bool],
    w_neg: f32,
    w_pos: f32,
}

impl Trainer for LstmPairTrainer<'_> {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        debug_assert_eq!(batch.x.rows, 1, "LSTM path trains pair-by-pair");
        let idx = batch.x.data[0] as usize;
        let (a, b) = self.pairs[idx];
        let label = self.labels[idx];
        let tape = ctx.tape;
        let lvars = self.encoder.bind(tape);
        let cvars = self.classifier.bind(tape);
        let sa = DeepEr::seq_var(tape, &self.sequences[a]);
        let sb = DeepEr::seq_var(tape, &self.sequences[b]);
        let ha = self.encoder.forward_tape(tape, sa, &lvars);
        let hb = self.encoder.forward_tape(tape, sb, &lvars);
        let diff = tape.abs(tape.sub(ha, hb));
        let had = tape.mul(ha, hb);
        let feat = tape.concat(&[diff, had]);
        let logit = self.classifier.forward_tape(tape, feat, &cvars, None);
        let target = Tensor::scalar(if label { 1.0 } else { 0.0 });
        let weight = Tensor::scalar(if label { self.w_pos } else { self.w_neg });
        let loss = tape.bce_with_logits(logit, target, weight);
        let loss_value = tape.item(loss);
        dc_check::debug_validate("DeepEr::train_lstm", tape, loss);
        tape.backward(loss);
        self.opt.begin_step();
        self.encoder.apply_grads(self.opt, 0, tape, &lvars);
        let base = self.encoder.slot_count();
        self.classifier.apply_grads(self.opt, base, tape, &cvars);
        StepStats {
            loss: loss_value,
            aux: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_datagen::{ErBenchmark, ErSuite};
    use dc_embed::SgnsConfig;
    use dc_nn::metrics::f1_score;
    use rand::SeedableRng;

    fn word_embeddings(bench: &ErBenchmark, rng: &mut StdRng) -> Embeddings {
        let mut docs: Vec<Vec<String>> =
            bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
        docs.extend(dc_datagen::corpus::domain_corpus(300, rng));
        Embeddings::train(
            &docs,
            &SgnsConfig {
                dim: 16,
                epochs: 5,
                ..Default::default()
            },
            rng,
        )
    }

    type Pairs = Vec<(usize, usize)>;

    fn split(bench: &ErBenchmark, rng: &mut StdRng) -> (Pairs, Vec<bool>, Pairs, Vec<bool>) {
        let pairs = bench.labeled_pairs(3, rng);
        let (train, test) = ErBenchmark::split_pairs(&pairs, 0.7, rng);
        (
            train.iter().map(|p| (p.a, p.b)).collect(),
            train.iter().map(|p| p.label).collect(),
            test.iter().map(|p| (p.a, p.b)).collect(),
            test.iter().map(|p| p.label).collect(),
        )
    }

    #[test]
    fn average_composition_learns_clean_suite() {
        let mut rng = StdRng::seed_from_u64(100);
        let bench = ErBenchmark::generate(ErSuite::Clean, 60, 3, &mut rng);
        let emb = word_embeddings(&bench, &mut rng);
        let (tp, tl, ep, el) = split(&bench, &mut rng);
        let model = DeepEr::train(
            emb,
            &bench.table,
            &tp,
            &tl,
            Composition::Average,
            DeepErConfig::default(),
            &mut rng,
        );
        let pred = model.predict_labels(&bench.table, &ep, 0.5);
        let f1 = f1_score(&pred, &el);
        assert!(f1 > 0.8, "clean-suite F1 {f1}");
    }

    #[test]
    fn average_composition_learns_dirty_suite() {
        let mut rng = StdRng::seed_from_u64(101);
        let bench = ErBenchmark::generate(ErSuite::Dirty, 60, 3, &mut rng);
        let emb = word_embeddings(&bench, &mut rng);
        let (tp, tl, ep, el) = split(&bench, &mut rng);
        let model = DeepEr::train(
            emb,
            &bench.table,
            &tp,
            &tl,
            Composition::Average,
            DeepErConfig::default(),
            &mut rng,
        );
        let pred = model.predict_labels(&bench.table, &ep, 0.5);
        let f1 = f1_score(&pred, &el);
        assert!(f1 > 0.6, "dirty-suite F1 {f1}");
    }

    #[test]
    fn lstm_composition_trains_and_predicts() {
        let mut rng = StdRng::seed_from_u64(102);
        let bench = ErBenchmark::generate(ErSuite::Clean, 25, 2, &mut rng);
        let emb = word_embeddings(&bench, &mut rng);
        let (tp, tl, ep, el) = split(&bench, &mut rng);
        let model = DeepEr::train(
            emb,
            &bench.table,
            &tp,
            &tl,
            Composition::Lstm {
                hidden: 8,
                max_tokens: 10,
            },
            DeepErConfig {
                epochs: 8,
                lr: 0.02,
                ..Default::default()
            },
            &mut rng,
        );
        let pred = model.predict_labels(&bench.table, &ep, 0.5);
        let f1 = f1_score(&pred, &el);
        assert!(f1 > 0.5, "LSTM-composition F1 {f1}");
    }

    #[test]
    fn try_predict_rejects_out_of_range_pairs() {
        let mut rng = StdRng::seed_from_u64(104);
        let bench = ErBenchmark::generate(ErSuite::Clean, 10, 2, &mut rng);
        let emb = word_embeddings(&bench, &mut rng);
        let (tp, tl, _, _) = split(&bench, &mut rng);
        let model = DeepEr::train(
            emb,
            &bench.table,
            &tp,
            &tl,
            Composition::Average,
            DeepErConfig {
                epochs: 2,
                ..Default::default()
            },
            &mut rng,
        );
        let n = bench.table.rows.len();
        let err = model.try_predict(&bench.table, &[(0, n)]).unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
        assert!(model.try_predict(&bench.table, &[]).unwrap().is_empty());
    }

    #[test]
    fn aligned_predict_is_batch_invariant_and_checkpoint_round_trips() {
        // Both compositions: per-pair probabilities through the aligned
        // path must be bitwise identical whether the pair is scored
        // alone or inside a larger batch — the dc-serve micro-batch
        // contract — and must survive a serde checkpoint round-trip.
        for (seed, comp) in [
            (105, Composition::Average),
            (
                106,
                Composition::Lstm {
                    hidden: 8,
                    max_tokens: 10,
                },
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let bench = ErBenchmark::generate(ErSuite::Clean, 20, 2, &mut rng);
            let emb = word_embeddings(&bench, &mut rng);
            let (tp, tl, ep, _) = split(&bench, &mut rng);
            let model = DeepEr::train(
                emb,
                &bench.table,
                &tp,
                &tl,
                comp,
                DeepErConfig {
                    epochs: 2,
                    ..Default::default()
                },
                &mut rng,
            );
            let all = model.try_predict_aligned(&bench.table, &ep).unwrap();
            for (i, &pair) in ep.iter().enumerate() {
                let solo = model.try_predict_aligned(&bench.table, &[pair]).unwrap();
                assert_eq!(
                    solo[0].to_bits(),
                    all[i].to_bits(),
                    "pair {pair:?} depends on batch composition"
                );
            }
            let json = serde_json::to_string(&model).unwrap();
            let back: DeepEr = serde_json::from_str(&json).unwrap();
            let redo = back.try_predict_aligned(&bench.table, &ep).unwrap();
            let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&redo), bits(&all), "checkpoint changed predictions");
        }
    }

    #[test]
    fn predict_handles_empty_tuples() {
        let mut rng = StdRng::seed_from_u64(103);
        let mut bench = ErBenchmark::generate(ErSuite::Clean, 10, 2, &mut rng);
        // Null out one row entirely.
        let arity = bench.table.schema.arity();
        for c in 0..arity {
            bench.table.rows[0][c] = dc_relational::Value::Null;
        }
        let emb = word_embeddings(&bench, &mut rng);
        let (tp, tl, _, _) = split(&bench, &mut rng);
        let model = DeepEr::train(
            emb,
            &bench.table,
            &tp,
            &tl,
            Composition::Average,
            DeepErConfig {
                epochs: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let probs = model.predict(&bench.table, &[(0, 1)]);
        assert!(probs[0].is_finite());
    }
}
