//! Skip-gram with negative sampling (word2vec), trained from scratch.
//!
//! The paper's concrete systems lean on pre-trained vectors ("DeepER
//! leveraged word embeddings from GloVe", §6.1); this environment has no
//! web corpus, so AutoDC trains its own SGNS on synthetic corpora whose
//! co-occurrence statistics encode the planted semantics (DESIGN.md §5).
//! Gradients are closed-form, so this module bypasses the autograd tape
//! for speed — the tape-backed models live in `dc-nn`.

use crate::vocab::{NegativeSampler, Vocabulary};
use dc_index::{topk_scores, Order};
use dc_tensor::kernel;
use dc_tensor::tensor::cosine;
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Time the update stage spends waiting for the next chunk of draws:
/// blocked on the helper, or filling the chunk itself at `DC_THREADS=1`.
static DRAW_WAIT: dc_obs::Hist = dc_obs::Hist::new("embed.sgns.draw_wait");
/// Negative samples drawn.
static DRAWS: dc_obs::Counter = dc_obs::Counter::new("embed.sgns.draws");

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
    ///
    /// Every rng read is a negative sample or a subsampling decision,
    /// and none of them reads a vector, so they run as a separate draw
    /// stage chunks ahead of the updates: on a helper thread when
    /// `DC_THREADS` (or the host) allows two or more, alternating with
    /// the updates on the caller otherwise. Both schedules make the
    /// same draws in the same order and give the same bits, and leave
    /// `rng` where a single loop would (DESIGN.md §18).
    pub fn train(documents: &[Vec<String>], config: &SgnsConfig, rng: &mut StdRng) -> Self {
        let schedule = if kernel::configured_threads() >= 2 {
            Schedule::Helper
        } else {
            Schedule::Inline
        };
        Self::train_scheduled(documents, config, rng, schedule)
    }

    fn train_scheduled(
        documents: &[Vec<String>],
        config: &SgnsConfig,
        rng: &mut StdRng,
        schedule: Schedule,
    ) -> Self {
        let vocab = Vocabulary::build(documents, config.min_count);
        assert!(!vocab.is_empty(), "empty vocabulary — nothing to train on");
        let v = vocab.len();
        let d = config.dim;
        let mut input = Tensor::rand_uniform(v, d, -0.5 / d as f32, 0.5 / d as f32, rng);
        let mut output = Tensor::zeros(v, d);
        let encoded: Vec<Vec<usize>> = documents.iter().map(|doc| vocab.encode(doc)).collect();
        let keep = config.subsample.map(|t| vocab.keep_probabilities(t));
        let draws = DrawStage::new(&encoded, keep.as_deref(), vocab.negative_sampler(), config);
        let complete = run_stages(draws, rng, schedule, |chunks| {
            update_stage(&encoded, config, &mut input, &mut output, chunks)
        });
        assert!(complete, "SGNS: the draw stage stopped before the updates");
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

/// Words (`u32` vocabulary ids) per chunk of draws: ~3 300 groups at
/// five negatives, so a hand-off is rare next to the updates it feeds.
/// A chunk is widened when one item — a group's negatives, or a
/// subsampled document — would not fit.
const CHUNK_WORDS: usize = 1 << 14;

/// Chunk buffers per training run: the update stage reads one while the
/// helper fills the others.
const CHUNKS: usize = 3;

/// Positions `lo..hi` of the context window around `pos` in a document
/// of `len` tokens, `pos` itself included. Both stages and the
/// seed-loop oracle take their bounds from here, so they agree on every
/// group; the sum saturates, so a `window` past the document's length
/// means the whole document rather than an overflow.
fn context_window(pos: usize, window: usize, len: usize) -> Range<usize> {
    pos.saturating_sub(window)..pos.saturating_add(window).saturating_add(1).min(len)
}

/// (center, context) groups in a document of `len` kept tokens.
fn group_count(len: usize, window: usize) -> usize {
    (0..len)
        .map(|pos| context_window(pos, window, len).len() - 1)
        .sum()
}

/// The update stage: the seed loop's floating-point program, with each
/// document's subsampled ids and each group's negatives read from the
/// chunk stream instead of the rng. Returns `false` if the stream ended
/// early, which only a panicking draw stage does.
fn update_stage(
    encoded: &[Vec<usize>],
    config: &SgnsConfig,
    input: &mut Tensor,
    output: &mut Tensor,
    mut chunks: ChunkReader<'_, '_>,
) -> bool {
    let total_steps = (config.epochs * encoded.iter().map(Vec::len).sum::<usize>()).max(1);
    let mut step = 0usize;
    let mut grad_in = vec![0.0f32; config.dim];
    let mut subsampled: Vec<usize> = Vec::new();
    // One (center, context) group's targets — the context, then its
    // surviving negatives — and their scores, reused across groups.
    let mut targets: Vec<usize> = Vec::with_capacity(config.negative + 1);
    let mut scores: Vec<f32> = Vec::with_capacity(config.negative + 1);
    for _epoch in 0..config.epochs {
        let _epoch_span = dc_obs::span("embed.sgns");
        // BCE over every `LOSS_STRIDE`-th (center, target) term of the
        // epoch, accumulated only when observability is on. The terms
        // are picked by their count and the extra arithmetic never
        // touches the rng, so embeddings are bit-identical with DC_OBS
        // on or off.
        let observed = dc_obs::enabled();
        let mut epoch_loss = 0.0f64;
        let mut epoch_terms = 0u64;
        for doc in encoded {
            // Optional frequent-word subsampling, re-drawn each epoch.
            let kept: &[usize] = if config.subsample.is_some() {
                let Some(&[len]) = chunks.take(1) else {
                    return false;
                };
                let Some(ids) = chunks.take(len as usize) else {
                    return false;
                };
                subsampled.clear();
                subsampled.extend(ids.iter().map(|&id| id as usize));
                &subsampled
            } else {
                doc
            };
            for (pos, &center) in kept.iter().enumerate() {
                step += 1;
                let progress = step as f32 / total_steps as f32;
                let lr = config.lr * (1.0 - 0.9 * progress);
                let window = context_window(pos, config.window, kept.len());
                for (ctx_pos, &context) in
                    kept.iter().enumerate().take(window.end).skip(window.start)
                {
                    if ctx_pos == pos {
                        continue;
                    }
                    // The centre row is written after the group, so its
                    // draws can all come first — same draws, same order,
                    // a negative equal to the context skipped.
                    let Some(negatives) = chunks.take(config.negative) else {
                        return false;
                    };
                    targets.clear();
                    targets.push(context);
                    targets.extend(
                        negatives
                            .iter()
                            .map(|&id| id as usize)
                            .filter(|&id| id != context),
                    );
                    // `input` and `output` are distinct tensors, so the
                    // centre row can stay borrowed while target rows are
                    // written.
                    let vin = input.row_slice(center);
                    dots(vin, output, &targets, &mut scores);
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
                        // Per element: the gradient reads `u` before `u`
                        // is updated (DESIGN.md §18).
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
    true
}

/// The draw stage: every rng read of training, in the seed loop's order
/// — per epoch and document the subsample filter, then `negative`
/// samples per (center, context) group — written as words into chunks.
/// A subsampled document is its kept length followed by its ids; a
/// group is its `negative` draws, a negative equal to the context
/// included (the update stage skips it). An item never straddles two
/// chunks, and [`DrawStage::fill`] resumes where the last call stopped.
struct DrawStage<'a> {
    docs: &'a [Vec<usize>],
    keep: Option<&'a [f64]>,
    sampler: NegativeSampler<'a>,
    window: usize,
    negative: usize,
    /// Documents to start over all epochs, and how many have been.
    total: usize,
    started: usize,
    /// Groups of the current document not drawn yet.
    groups: usize,
    /// Words per chunk: the largest item always fits.
    words: usize,
}

impl<'a> DrawStage<'a> {
    fn new(
        docs: &'a [Vec<usize>],
        keep: Option<&'a [f64]>,
        sampler: NegativeSampler<'a>,
        config: &SgnsConfig,
    ) -> Self {
        let longest_doc = match keep {
            Some(_) => 1 + docs.iter().map(Vec::len).max().unwrap_or(0),
            None => 0,
        };
        DrawStage {
            docs,
            keep,
            sampler,
            window: config.window,
            negative: config.negative,
            total: config.epochs * docs.len(),
            started: 0,
            groups: 0,
            words: CHUNK_WORDS.max(config.negative).max(longest_doc),
        }
    }

    /// Refill `chunk` with the next items, stopping before one that
    /// would not fit. `false` when nothing was left to draw.
    fn fill(&mut self, chunk: &mut Vec<u32>, rng: &mut StdRng) -> bool {
        chunk.clear();
        let mut draws = 0;
        loop {
            if self.groups > 0 {
                if chunk.len() + self.negative > self.words {
                    break;
                }
                // Vocabulary ids fit `u32`, as `NegativeSampler`'s guide
                // table already requires.
                chunk.extend((0..self.negative).map(|_| self.sampler.sample(rng) as u32));
                draws += self.negative;
                self.groups -= 1;
            } else if self.started < self.total {
                let doc = &self.docs[self.started % self.docs.len()];
                let len = match self.keep {
                    Some(keep) => {
                        if chunk.len() + 1 + doc.len() > self.words {
                            break;
                        }
                        let at = chunk.len();
                        chunk.push(0);
                        chunk.extend(
                            doc.iter()
                                .filter(|&&id| rng.gen::<f64>() < keep[id])
                                .map(|&id| id as u32),
                        );
                        let len = chunk.len() - at - 1;
                        chunk[at] = u32::try_from(len).expect("document length fits u32");
                        len
                    }
                    None => doc.len(),
                };
                self.groups = group_count(len, self.window);
                self.started += 1;
            } else {
                break;
            }
        }
        DRAWS.add(draws as u64);
        !chunk.is_empty()
    }
}

/// Where the draw stage runs.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    /// On the caller: it fills a chunk whenever the updates have used
    /// up the last one (`DC_THREADS=1`; no thread is spawned).
    Inline,
    /// On one scoped helper thread, up to `CHUNKS - 1` chunks ahead.
    Helper,
}

/// Where the update stage's next chunk comes from.
enum Source<'a, 'r> {
    Inline {
        draws: DrawStage<'a>,
        rng: &'r mut StdRng,
    },
    Helper {
        full: Receiver<Vec<u32>>,
        free: SyncSender<Vec<u32>>,
    },
}

impl Source<'_, '_> {
    /// Hand back a used chunk and get the next full one; `None` once
    /// the draw stage has nothing more or has stopped.
    fn next(&mut self, mut used: Vec<u32>) -> Option<Vec<u32>> {
        let _wait = DRAW_WAIT.start();
        match self {
            Source::Inline { draws, rng } => draws.fill(&mut used, rng).then_some(used),
            Source::Helper { full, free } => {
                // A helper that has stopped needs no more chunks.
                let _ = free.send(used);
                full.recv().ok()
            }
        }
    }
}

/// The update stage's cursor over the chunk stream.
struct ChunkReader<'a, 'r> {
    chunk: Vec<u32>,
    at: usize,
    source: Source<'a, 'r>,
}

impl ChunkReader<'_, '_> {
    /// The next `n` words, moving to the next chunk when this one is
    /// used up; `None` if the stream ended first.
    fn take(&mut self, n: usize) -> Option<&[u32]> {
        if n > 0 && self.at == self.chunk.len() {
            self.chunk = self.source.next(std::mem::take(&mut self.chunk))?;
            self.at = 0;
        }
        self.at += n;
        Some(&self.chunk[self.at - n..self.at])
    }
}

/// Run `update` over the chunks `draws` fills, on `schedule`, and
/// return what it returns. The caller's thread runs the updates; the
/// chunk buffers are allocated here, once, and recycled.
///
/// With a helper, each side holds one end of both channels, so a panic
/// on either side drops its ends and wakes the other: a stopped helper
/// makes `update` see the stream end, a panicking `update` makes the
/// helper's next send or receive fail. The helper's panic is re-raised
/// here; `update`'s unwinds through the scope once the helper is done.
fn run_stages<'a, 'r>(
    mut draws: DrawStage<'a>,
    rng: &'r mut StdRng,
    schedule: Schedule,
    update: impl FnOnce(ChunkReader<'a, 'r>) -> bool,
) -> bool {
    let words = draws.words;
    let chunk = || Vec::with_capacity(words);
    let reader = |source| ChunkReader {
        chunk: chunk(),
        at: 0,
        source,
    };
    match schedule {
        Schedule::Inline => update(reader(Source::Inline { draws, rng })),
        Schedule::Helper => std::thread::scope(|scope| {
            let (full_tx, full) = sync_channel(CHUNKS);
            let (free, free_rx) = sync_channel::<Vec<u32>>(CHUNKS);
            for _ in 1..CHUNKS {
                free.send(chunk()).expect("the receiver is alive");
            }
            let reader = reader(Source::Helper { full, free });
            let helper = scope.spawn(move || {
                while let Ok(mut chunk) = free_rx.recv() {
                    if !draws.fill(&mut chunk, rng) || full_tx.send(chunk).is_err() {
                        break;
                    }
                }
            });
            // `update` owns the reader, so both channel ends are gone
            // when it returns: a helper waiting for a free chunk wakes.
            let complete = update(reader);
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
            complete
        }),
    }
}

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
                    let window = context_window(pos, config.window, kept.len());
                    for (ctx_pos, &context) in
                        kept.iter().enumerate().take(window.end).skip(window.start)
                    {
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|v| v.to_bits()).collect()
    }

    /// Training on both schedules against [`train_seed_loop`] from the
    /// same rng state, with frequent-word subsampling off and on and
    /// with observability off and on: same bits, same rng position
    /// after.
    fn assert_bitwise_the_seed_loop(corpus: &[Vec<String>], config: &SgnsConfig) {
        for subsample in [None, Some(0.01)] {
            let config = config.clone().with_subsample(subsample);
            let what = format!(
                "dim {}, window {}, negative {}, subsample {subsample:?}",
                config.dim, config.window, config.negative
            );
            let mut rng_seed = StdRng::seed_from_u64(12);
            let want = bits(&train_seed_loop(corpus, &config, &mut rng_seed));
            // Same draws consumed, so whatever trains next sees the same stream.
            let next = rng_seed.gen::<u64>();
            for schedule in [Schedule::Inline, Schedule::Helper] {
                for observed in [false, true] {
                    let mut rng = StdRng::seed_from_u64(12);
                    dc_obs::set_enabled(observed);
                    let got = Embeddings::train_scheduled(corpus, &config, &mut rng, schedule);
                    dc_obs::set_enabled(false);
                    let what = format!("{what}, {schedule:?}, DC_OBS {observed}");
                    assert_eq!(bits(&got.vectors), want, "{what}");
                    assert_eq!(rng.gen::<u64>(), next, "{what}");
                }
            }
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
        assert_bitwise_the_seed_loop(&single, &config.clone().with_dim(4));

        // A subsampled document longer than a chunk widens the chunk.
        let mut long = collisions;
        long.push(
            (0..CHUNK_WORDS + 5)
                .map(|i| ["a", "b", "c", "d"][i % 4].to_string())
                .collect(),
        );
        let config = config.with_window(1).with_negative(1).with_dim(2);
        assert_bitwise_the_seed_loop(&long, &config);
    }

    #[test]
    fn a_window_past_every_document_is_the_whole_document() {
        // Documents of 1 to 9 tokens.
        let mut rng = StdRng::seed_from_u64(17);
        let corpus: Vec<Vec<String>> = (0..60)
            .map(|i| {
                (0..1 + i % 9)
                    .map(|_| format!("w{}", rng.gen_range(0..12)))
                    .collect()
            })
            .collect();
        let config = SgnsConfig::default().with_epochs(2).with_dim(6);
        for subsample in [None, Some(0.05)] {
            let config = config.clone().with_subsample(subsample);
            let whole = config.clone().with_window(9);
            let huge = config.with_window(usize::MAX);
            for schedule in [Schedule::Inline, Schedule::Helper] {
                let train = |config: &SgnsConfig| {
                    let mut rng = StdRng::seed_from_u64(5);
                    Embeddings::train_scheduled(&corpus, config, &mut rng, schedule).vectors
                };
                assert_eq!(
                    bits(&train(&huge)),
                    bits(&train(&whole)),
                    "{subsample:?}, {schedule:?}"
                );
            }
        }
    }

    #[test]
    fn concurrent_trainings_each_match_their_serial_run() {
        let corpus = planted_topic_corpus(3, 5, 150, 8, &mut StdRng::seed_from_u64(21));
        let config = |seed: u64| {
            SgnsConfig::default()
                .with_epochs(2)
                .with_dim(12)
                .with_subsample((seed % 2 == 1).then_some(0.01))
        };
        let train = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            bits(&Embeddings::train(&corpus, &config(seed), &mut rng).vectors)
        };
        let serial: Vec<Vec<u32>> = (0..4).map(train).collect();
        let concurrent: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..4)
                .map(|seed| scope.spawn(move || train(seed)))
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("training thread"))
                .collect()
        });
        assert_eq!(concurrent, serial);
    }

    /// Runs the two stages over a corpus long enough to fill every chunk
    /// buffer, and returns the panic message, if any.
    fn panic_message(keep: Option<&[f64]>, update_panics: bool) -> Option<String> {
        let docs = vec![vec!["a".to_string(), "b".to_string(), "c".to_string()]; 4000];
        let vocab = Vocabulary::build(&docs, 1);
        let encoded: Vec<Vec<usize>> = docs.iter().map(|doc| vocab.encode(doc)).collect();
        let config = SgnsConfig::default()
            .with_epochs(2)
            .with_subsample(keep.map(|_| 0.01));
        let draws = DrawStage::new(&encoded, keep, vocab.negative_sampler(), &config);
        let mut rng = StdRng::seed_from_u64(1);
        let mut input = Tensor::zeros(vocab.len(), config.dim);
        let mut output = Tensor::zeros(vocab.len(), config.dim);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_stages(draws, &mut rng, Schedule::Helper, |chunks| {
                assert!(!update_panics, "update stage failed");
                update_stage(&encoded, &config, &mut input, &mut output, chunks)
            })
        }));
        let payload = run.err()?;
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        Some(message.unwrap_or_default())
    }

    #[test]
    fn a_panic_on_either_stage_ends_the_other() {
        assert_eq!(panic_message(Some(&[1.0; 3]), false), None);
        // The update stage fails before reading a chunk; the helper,
        // waiting to hand over a full one, wakes and stops.
        assert_eq!(
            panic_message(Some(&[1.0; 3]), true).as_deref(),
            Some("update stage failed")
        );
        // A keep table too short for the vocabulary panics in the
        // helper's subsample filter; the update stage sees the stream
        // end, and the helper's own panic reaches the caller.
        let message = panic_message(Some(&[1.0; 2]), false).expect("the helper panicked");
        assert!(message.contains("index out of bounds"), "{message}");
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
