//! Skip-gram with negative sampling (word2vec), trained from scratch.
//!
//! The paper's concrete systems lean on pre-trained vectors ("DeepER
//! leveraged word embeddings from GloVe", §6.1); this environment has no
//! web corpus, so AutoDC trains its own SGNS on synthetic corpora whose
//! co-occurrence statistics encode the planted semantics (DESIGN.md §5).
//! Gradients are closed-form, so this module bypasses the autograd tape
//! for speed — the tape-backed models live in `dc-nn`.

use crate::vocab::Vocabulary;
use dc_index::{topk_scores, Order};
use dc_tensor::tensor::cosine;
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for SGNS training.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SgnsConfig {
    /// Embedding dimensionality ("often fixed (such as 300)" — §2.2; we
    /// default far smaller because the planted vocabularies are small).
    pub dim: usize,
    /// Context window radius `W` (§3.1 discusses its impact at length).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate, linearly decayed to 10% across training.
    pub lr: f32,
    /// Minimum token frequency to enter the vocabulary.
    pub min_count: u64,
    /// Subsampling threshold for frequent words (`None` disables).
    pub subsample: Option<f64>,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 32,
            window: 4,
            negative: 5,
            epochs: 12,
            lr: 0.05,
            min_count: 1,
            subsample: None,
        }
    }
}

impl SgnsConfig {
    /// Set the embedding dimensionality (builder convention,
    /// DESIGN.md §10).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Set the context window radius.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Set the negative samples per positive pair.
    pub fn with_negative(mut self, negative: usize) -> Self {
        self.negative = negative;
        self
    }

    /// Set the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Set the initial learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Set the minimum token frequency.
    pub fn with_min_count(mut self, min_count: u64) -> Self {
        self.min_count = min_count;
        self
    }

    /// Set (or clear) the frequent-word subsampling threshold.
    pub fn with_subsample(mut self, subsample: Option<f64>) -> Self {
        self.subsample = subsample;
        self
    }
}

/// Trained distributed representations: one input vector per token.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Embeddings {
    /// The vocabulary the rows are indexed by.
    pub vocab: Vocabulary,
    /// Input ("word") vectors, `|V| × dim`.
    pub vectors: Tensor,
}

impl Embeddings {
    /// Train SGNS on tokenised documents.
    pub fn train(documents: &[Vec<String>], config: &SgnsConfig, rng: &mut StdRng) -> Self {
        let vocab = Vocabulary::build(documents, config.min_count);
        assert!(!vocab.is_empty(), "empty vocabulary — nothing to train on");
        let v = vocab.len();
        let d = config.dim;
        let mut input = Tensor::rand_uniform(v, d, -0.5 / d as f32, 0.5 / d as f32, rng);
        let mut output = Tensor::zeros(v, d);

        let encoded: Vec<Vec<usize>> = documents.iter().map(|doc| vocab.encode(doc)).collect();
        let total_steps = (config.epochs * encoded.iter().map(Vec::len).sum::<usize>()).max(1);
        let mut step = 0usize;

        let sampler = vocab.negative_sampler();
        let keep = config.subsample.map(|t| vocab.keep_probabilities(t));
        let mut grad_in = vec![0.0f32; d];
        // One (center, context) group's targets — the context, then its
        // surviving negatives — and their scores, reused across groups.
        let mut targets: Vec<usize> = Vec::with_capacity(config.negative + 1);
        let mut scores: Vec<f32> = Vec::with_capacity(config.negative + 1);
        for _epoch in 0..config.epochs {
            let _epoch_span = dc_obs::span("embed.sgns");
            // BCE over every `LOSS_STRIDE`-th (center, target) term of
            // the epoch, accumulated only when observability is on. The
            // terms are picked by their count and the extra arithmetic
            // never touches the rng, so embeddings are bit-identical
            // with DC_OBS on or off.
            let observed = dc_obs::enabled();
            let mut epoch_loss = 0.0f64;
            let mut epoch_terms = 0u64;
            for doc in &encoded {
                // Optional frequent-word subsampling, re-drawn each epoch.
                let subsampled: Vec<usize>;
                let kept: &[usize] = match &keep {
                    Some(keep) => {
                        subsampled = doc
                            .iter()
                            .copied()
                            .filter(|&id| rng.gen::<f64>() < keep[id])
                            .collect();
                        &subsampled
                    }
                    None => doc,
                };
                for (pos, &center) in kept.iter().enumerate() {
                    step += 1;
                    let progress = step as f32 / total_steps as f32;
                    let lr = config.lr * (1.0 - 0.9 * progress);
                    let lo = pos.saturating_sub(config.window);
                    let hi = (pos + config.window + 1).min(kept.len());
                    for (ctx_pos, &context) in kept.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        // Only the negatives consume the rng and the
                        // centre row is written after the group, so the
                        // draws can all come first — same draws, same
                        // order, a negative equal to the context skipped.
                        targets.clear();
                        targets.push(context);
                        for _ in 0..config.negative {
                            let target = sampler.sample(rng);
                            if target != context {
                                targets.push(target);
                            }
                        }
                        // `input` and `output` are distinct tensors, so
                        // the centre row can stay borrowed while target
                        // rows are written.
                        let vin = input.row_slice(center);
                        dots(vin, &output, &targets, &mut scores);
                        grad_in.iter_mut().for_each(|g| *g = 0.0);
                        // Positive pair + negatives share the same form:
                        // dL/du_o = (σ(u_o·v_c) − label) · v_c
                        for (k, &target) in targets.iter().enumerate() {
                            let label = if k == 0 { 1.0f32 } else { 0.0 };
                            let uout = output.row_slice_mut(target);
                            // A row already updated in this group has a
                            // stale score: recompute it (DESIGN.md §18).
                            let score = if targets[..k].contains(&target) {
                                dot(vin, uout)
                            } else {
                                scores[k]
                            };
                            let p = sigmoid(score);
                            if observed {
                                if epoch_terms.is_multiple_of(LOSS_STRIDE) {
                                    let t = if k == 0 { p } else { 1.0 - p };
                                    epoch_loss -= f64::from(t.max(1e-7)).ln();
                                }
                                epoch_terms += 1;
                            }
                            let g = (p - label) * lr;
                            // Per element: the gradient reads `u` before
                            // `u` is updated (DESIGN.md §18).
                            for ((gi, u), &x) in grad_in.iter_mut().zip(uout).zip(vin) {
                                *gi += g * *u;
                                *u -= g * x;
                            }
                        }
                        for (x, &gi) in input.row_slice_mut(center).iter_mut().zip(&grad_in) {
                            *x -= gi;
                        }
                    }
                }
            }
            if epoch_terms > 0 {
                let sampled = epoch_terms.div_ceil(LOSS_STRIDE);
                dc_obs::series_push("embed.sgns", "loss", epoch_loss / sampled as f64);
            }
        }
        Embeddings {
            vocab,
            vectors: input,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.vectors.cols
    }

    /// Vector of `token` as a slice, if in vocabulary.
    pub fn get(&self, token: &str) -> Option<&[f32]> {
        self.vocab.id(token).map(|id| self.vectors.row_slice(id))
    }

    /// Cosine similarity between two tokens (`None` if either is OOV).
    pub fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        Some(cosine(self.get(a)?, self.get(b)?))
    }

    /// The `k` most similar tokens to `token` (excluding itself).
    pub fn most_similar(&self, token: &str, k: usize) -> Vec<(String, f32)> {
        let Some(target) = self.get(token) else {
            return Vec::new();
        };
        let target = target.to_vec();
        self.topk_excluding(&target, k, &[token])
    }

    /// 3CosAdd analogy: `a : b :: c : ?` — the "king − man + woman ≈
    /// queen" query of §2.2. Returns the top `k` candidates, excluding
    /// the three inputs.
    pub fn analogy(&self, a: &str, b: &str, c: &str, k: usize) -> Vec<(String, f32)> {
        let (Some(va), Some(vb), Some(vc)) = (self.get(a), self.get(b), self.get(c)) else {
            return Vec::new();
        };
        let query: Vec<f32> = vb
            .iter()
            .zip(va)
            .zip(vc)
            .map(|((b, a), c)| b - a + c)
            .collect();
        self.topk_excluding(&query, k, &[a, b, c])
    }

    /// The `k` vocabulary tokens most cosine-similar to `query`, minus
    /// `exclude`: a bounded [`topk_scores`] heap scan over token ids
    /// (`O(V log k)`, labels allocated only for survivors) asking for
    /// `k + exclude.len()` so the winners survive the exclusion filter.
    /// Ties break toward the lower token id, matching the seed's stable
    /// sort; NaN scores sink last instead of panicking.
    fn topk_excluding(&self, query: &[f32], k: usize, exclude: &[&str]) -> Vec<(String, f32)> {
        let hits = topk_scores(
            self.vocab.len(),
            k.saturating_add(exclude.len()),
            Order::Largest,
            |i| cosine(query, self.vectors.row_slice(i)),
        );
        hits.into_iter()
            .filter(|hit| !exclude.contains(&self.vocab.token(hit.index)))
            .take(k)
            .map(|hit| (self.vocab.token(hit.index).to_string(), hit.score))
            .collect()
    }

    /// "All-but-the-top" post-processing (Mu & Viswanath): subtract the
    /// vocabulary mean and the top `components` principal directions
    /// from every vector. SGNS trained briefly on small corpora leaves
    /// a dominant common direction that pushes *all* pairwise cosines
    /// towards 1; removing it restores discriminative similarity.
    /// Returns a post-processed copy.
    pub fn postprocessed(&self, components: usize) -> Embeddings {
        let mut vectors = self.vectors.clone();
        let (v, d) = (vectors.rows, vectors.cols);
        if v == 0 {
            return self.clone();
        }
        // Subtract the mean vector.
        let mut mean = vec![0.0f32; d];
        for r in 0..v {
            for (m, &x) in mean.iter_mut().zip(vectors.row_slice(r)) {
                *m += x;
            }
        }
        let inv = 1.0 / v as f32;
        mean.iter_mut().for_each(|m| *m *= inv);
        for r in 0..v {
            for (x, &m) in vectors.row_slice_mut(r).iter_mut().zip(&mean) {
                *x -= m;
            }
        }
        // Deflate the top principal components via power iteration.
        for c in 0..components {
            let mut dir = vec![0.0f32; d];
            // Deterministic varied start per component.
            for (i, x) in dir.iter_mut().enumerate() {
                *x = (((i + c * 7 + 1) % 13) as f32 - 6.0) / 13.0;
            }
            for _ in 0..30 {
                // dir ← normalize(Σ_r (row·dir) row)
                let mut next = vec![0.0f32; d];
                for r in 0..v {
                    let row = vectors.row_slice(r);
                    let proj: f32 = row.iter().zip(&dir).map(|(a, b)| a * b).sum();
                    for (n, &x) in next.iter_mut().zip(row) {
                        *n += proj * x;
                    }
                }
                let norm = next.iter().map(|x| x * x).sum::<f32>().sqrt();
                if norm < 1e-12 {
                    break;
                }
                next.iter_mut().for_each(|x| *x /= norm);
                dir = next;
            }
            for r in 0..v {
                let row = vectors.row_slice_mut(r);
                let proj: f32 = row.iter().zip(&dir).map(|(a, b)| a * b).sum();
                for (x, &u) in row.iter_mut().zip(&dir) {
                    *x -= proj * u;
                }
            }
        }
        Embeddings {
            vocab: self.vocab.clone(),
            vectors,
        }
    }

    /// Mean vector of a bag of tokens (OOV tokens skipped); `None` when
    /// nothing is in vocabulary.
    pub fn mean_vector(&self, tokens: &[String]) -> Option<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim()];
        let mut n = 0usize;
        for t in tokens {
            if let Some(v) = self.get(t) {
                for (a, &x) in acc.iter_mut().zip(v) {
                    *a += x;
                }
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        let inv = 1.0 / n as f32;
        acc.iter_mut().for_each(|a| *a *= inv);
        Some(acc)
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The observed loss series averages every `LOSS_STRIDE`-th term: the
/// `ln` per term was a fixed ~65 ms of a traced `curate_lake` run.
const LOSS_STRIDE: u64 = 8;

/// `x · row`, summed left to right from `0.0` — the seed's operation
/// order. (The seed's `Iterator::sum` starts from `-0.0`, which differs
/// only in the sign of a zero score, and [`sigmoid`] maps both to 0.5.)
fn dot(x: &[f32], row: &[f32]) -> f32 {
    x.iter().zip(row).fold(0.0, |s, (a, b)| s + a * b)
}

/// `scores[k] = x · output[targets[k]]`, three rows at a time. Each sum
/// is still its own left-to-right chain, so every score has the bits
/// [`dot`] gives it; interleaving three independent chains only hides
/// the latency of the dependent adds.
fn dots(x: &[f32], output: &Tensor, targets: &[usize], scores: &mut Vec<f32>) {
    scores.clear();
    let mut triples = targets.chunks_exact(3);
    for triple in &mut triples {
        let (r0, r1, r2) = (
            output.row_slice(triple[0]),
            output.row_slice(triple[1]),
            output.row_slice(triple[2]),
        );
        let (mut s0, mut s1, mut s2) = (0.0f32, 0.0f32, 0.0f32);
        for (((&x, &a), &b), &c) in x.iter().zip(r0).zip(r1).zip(r2) {
            s0 += x * a;
            s1 += x * b;
            s2 += x * c;
        }
        scores.extend([s0, s1, s2]);
    }
    scores.extend(
        triples
            .remainder()
            .iter()
            .map(|&t| dot(x, output.row_slice(t))),
    );
}

/// Build a synthetic corpus with planted co-occurrence structure for
/// tests and benches: each "topic" owns `words_per_topic` words, and
/// sentences only mix words within a topic.
pub fn planted_topic_corpus(
    topics: usize,
    words_per_topic: usize,
    sentences: usize,
    sentence_len: usize,
    rng: &mut StdRng,
) -> Vec<Vec<String>> {
    let mut corpus = Vec::with_capacity(sentences);
    for _ in 0..sentences {
        let topic = rng.gen_range(0..topics);
        let sent: Vec<String> = (0..sentence_len)
            .map(|_| format!("t{topic}w{}", rng.gen_range(0..words_per_topic)))
            .collect();
        corpus.push(sent);
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn same_topic_words_cluster() {
        let mut rng = StdRng::seed_from_u64(7);
        let corpus = planted_topic_corpus(3, 4, 600, 8, &mut rng);
        let emb = Embeddings::train(
            &corpus,
            &SgnsConfig {
                dim: 16,
                epochs: 8,
                ..Default::default()
            },
            &mut rng,
        );
        let within = emb.similarity("t0w0", "t0w1").expect("in vocab");
        let across = emb.similarity("t0w0", "t1w0").expect("in vocab");
        assert!(
            within > across + 0.3,
            "within {within} should beat across {across}"
        );
    }

    #[test]
    fn most_similar_prefers_same_topic() {
        let mut rng = StdRng::seed_from_u64(8);
        let corpus = planted_topic_corpus(2, 5, 500, 8, &mut rng);
        let emb = Embeddings::train(&corpus, &SgnsConfig::default(), &mut rng);
        let top = emb.most_similar("t0w0", 3);
        assert_eq!(top.len(), 3);
        let same_topic = top.iter().filter(|(t, _)| t.starts_with("t0")).count();
        assert!(same_topic >= 2, "top-3 {top:?}");
    }

    #[test]
    fn analogy_recovers_planted_relation() {
        // Corpus layout: countries share a "nation" context, cities a
        // "metropolis" context, and each pair co-occurs. The shared
        // contexts give the city−country offset a consistent direction,
        // which is what makes 3CosAdd work (§2.2's king−man+woman).
        let mut rng = StdRng::seed_from_u64(9);
        let mut corpus = Vec::new();
        for i in 0..4 {
            for _ in 0..120 {
                corpus.push(vec![format!("country{i}"), "nation".to_string()]);
                corpus.push(vec![format!("city{i}"), "metropolis".to_string()]);
                corpus.push(vec![format!("country{i}"), format!("city{i}")]);
            }
        }
        let emb = Embeddings::train(
            &corpus,
            &SgnsConfig {
                dim: 12,
                window: 2,
                epochs: 15,
                ..Default::default()
            },
            &mut rng,
        );
        // country0 : city0 :: country1 : ?  → city1 should rank highly.
        let result = emb.analogy("country0", "city0", "country1", 3);
        let names: Vec<&str> = result.iter().map(|(t, _)| t.as_str()).collect();
        assert!(
            names.contains(&"city1"),
            "expected city1 in top-3, got {names:?}"
        );
    }

    #[test]
    fn oov_queries_return_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let corpus = vec![vec!["a".to_string(), "b".to_string()]];
        let emb = Embeddings::train(&corpus, &SgnsConfig::default(), &mut rng);
        assert!(emb.get("zzz").is_none());
        assert!(emb.most_similar("zzz", 5).is_empty());
        assert!(emb.similarity("a", "zzz").is_none());
    }

    #[test]
    fn mean_vector_skips_oov() {
        let mut rng = StdRng::seed_from_u64(2);
        let corpus = vec![vec!["a".to_string(), "b".to_string()]; 20];
        let emb = Embeddings::train(&corpus, &SgnsConfig::default(), &mut rng);
        let m = emb
            .mean_vector(&["a".to_string(), "nope".to_string()])
            .expect("has a");
        assert_eq!(m.len(), emb.dim());
        assert_eq!(m, emb.get("a").expect("a").to_vec());
        assert!(emb.mean_vector(&["nope".to_string()]).is_none());
    }

    /// The seed training loop, verbatim: every element through the
    /// bounds-asserting `Tensor::get` / `set`, gradient loop before
    /// update loop, each document cloned each epoch. Kept as the bitwise
    /// oracle for [`Embeddings::train`].
    fn train_seed_loop(documents: &[Vec<String>], config: &SgnsConfig, rng: &mut StdRng) -> Tensor {
        let vocab = Vocabulary::build(documents, config.min_count);
        let v = vocab.len();
        let d = config.dim;
        let mut input = Tensor::rand_uniform(v, d, -0.5 / d as f32, 0.5 / d as f32, rng);
        let mut output = Tensor::zeros(v, d);
        let encoded: Vec<Vec<usize>> = documents.iter().map(|doc| vocab.encode(doc)).collect();
        let total_steps = (config.epochs * encoded.iter().map(Vec::len).sum::<usize>()).max(1);
        let mut step = 0usize;
        let mut grad_in = vec![0.0f32; d];
        for _epoch in 0..config.epochs {
            for doc in &encoded {
                let kept: Vec<usize> = match config.subsample {
                    Some(t) => doc
                        .iter()
                        .copied()
                        .filter(|&id| rng.gen::<f64>() < vocab.keep_probability(id, t))
                        .collect(),
                    None => doc.clone(),
                };
                for (pos, &center) in kept.iter().enumerate() {
                    step += 1;
                    let progress = step as f32 / total_steps as f32;
                    let lr = config.lr * (1.0 - 0.9 * progress);
                    let lo = pos.saturating_sub(config.window);
                    let hi = (pos + config.window + 1).min(kept.len());
                    for (ctx_pos, &context) in kept.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        grad_in.iter_mut().for_each(|g| *g = 0.0);
                        for k in 0..=config.negative {
                            let (target, label) = if k == 0 {
                                (context, 1.0f32)
                            } else {
                                (vocab.sample_negative(rng), 0.0)
                            };
                            if k > 0 && target == context {
                                continue;
                            }
                            let vin = input.row_slice(center);
                            let uout = output.row_slice(target);
                            let score: f32 = vin.iter().zip(uout).map(|(a, b)| a * b).sum();
                            let g = (sigmoid(score) - label) * lr;
                            for (i, gi) in grad_in.iter_mut().enumerate() {
                                *gi += g * output.get(target, i);
                            }
                            for i in 0..d {
                                let upd = g * input.get(center, i);
                                let cur = output.get(target, i);
                                output.set(target, i, cur - upd);
                            }
                        }
                        for (i, &gi) in grad_in.iter().enumerate() {
                            let cur = input.get(center, i);
                            input.set(center, i, cur - gi);
                        }
                    }
                }
            }
        }
        input
    }

    /// [`Embeddings::train`] against [`train_seed_loop`] from the same
    /// rng state, with frequent-word subsampling off and on and with
    /// observability off and on: same bits, same rng position after.
    fn assert_bitwise_the_seed_loop(corpus: &[Vec<String>], config: &SgnsConfig) {
        let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for subsample in [None, Some(0.01)] {
            let config = config.clone().with_subsample(subsample);
            let what = format!(
                "dim {}, negative {}, subsample {subsample:?}",
                config.dim, config.negative
            );
            let (mut rng_seed, mut rng_off, mut rng_on) = (
                StdRng::seed_from_u64(12),
                StdRng::seed_from_u64(12),
                StdRng::seed_from_u64(12),
            );
            let want = bits(&train_seed_loop(corpus, &config, &mut rng_seed));
            dc_obs::set_enabled(false);
            let off = Embeddings::train(corpus, &config, &mut rng_off);
            dc_obs::set_enabled(true);
            let on = Embeddings::train(corpus, &config, &mut rng_on);
            dc_obs::set_enabled(false);
            assert_eq!(bits(&off.vectors), want, "{what}, DC_OBS off");
            assert_eq!(bits(&on.vectors), want, "{what}, DC_OBS on");
            // Same draws consumed, so whatever trains next sees the same stream.
            let next = rng_seed.gen::<u64>();
            assert_eq!(rng_off.gen::<u64>(), next, "{what}");
            assert_eq!(rng_on.gen::<u64>(), next, "{what}");
        }
    }

    // One test, so nothing else in this binary flips the dc-obs gate; a
    // test running beside it would at most record a loss series.
    #[test]
    fn slice_loop_is_bitwise_the_seed_loop() {
        let planted = planted_topic_corpus(3, 6, 120, 9, &mut StdRng::seed_from_u64(11));
        let config = SgnsConfig::default().with_epochs(3);
        assert_bitwise_the_seed_loop(&planted, &config.clone().with_dim(10));

        // |V| = 3 with one dominant token: in almost every group the
        // negatives repeat each other and the context, so the stale-score
        // recompute and the context skip both run constantly. `negative`
        // 0 leaves only the positive pair, 5 and 9 exceed |V|, and with
        // the skips the groups hold every target count from 1 to 10, so
        // the three-row chains see every remainder; no dim is a multiple
        // of a vector width.
        let mut rng = StdRng::seed_from_u64(13);
        let collisions: Vec<Vec<String>> = (0..80)
            .map(|_| {
                (0..12)
                    .map(|_| ["a", "a", "a", "b", "b", "c"][rng.gen_range(0..6usize)].to_string())
                    .collect()
            })
            .collect();
        for negative in [0, 1, 5, 9] {
            for dim in [1, 10, 33] {
                let config = config.clone().with_negative(negative).with_dim(dim);
                assert_bitwise_the_seed_loop(&collisions, &config);
            }
        }

        // One token: every negative is the context and is skipped.
        let single = vec![vec!["a".to_string(); 6]; 10];
        assert_bitwise_the_seed_loop(&single, &config.with_dim(4));
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let corpus = planted_topic_corpus(2, 3, 100, 6, &mut StdRng::seed_from_u64(3));
        let e1 = Embeddings::train(
            &corpus,
            &SgnsConfig::default(),
            &mut StdRng::seed_from_u64(4),
        );
        let e2 = Embeddings::train(
            &corpus,
            &SgnsConfig::default(),
            &mut StdRng::seed_from_u64(4),
        );
        assert_eq!(e1.vectors, e2.vectors);
    }
}
