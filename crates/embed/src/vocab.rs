//! Token vocabulary with frequency statistics and the unigram^0.75
//! negative-sampling table of Mikolov et al. (cited as [40] in the
//! paper).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A vocabulary over string tokens.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vocabulary {
    /// Tokens by id.
    pub tokens: Vec<String>,
    /// Raw corpus counts, parallel to `tokens`.
    pub counts: Vec<u64>,
    index: HashMap<String, usize>,
    /// Cumulative unigram^0.75 mass for negative sampling.
    sampling_cdf: Vec<f64>,
}

impl Vocabulary {
    /// Build from documents, keeping tokens seen at least `min_count`
    /// times. Ids are assigned in descending frequency order (ties by
    /// first occurrence), which keeps downstream dumps readable.
    pub fn build(documents: &[Vec<String>], min_count: u64) -> Self {
        let mut counts: HashMap<&str, u64> = HashMap::new();
        let mut first_seen: HashMap<&str, usize> = HashMap::new();
        let mut order = 0usize;
        for doc in documents {
            for tok in doc {
                *counts.entry(tok).or_insert(0) += 1;
                first_seen.entry(tok).or_insert_with(|| {
                    order += 1;
                    order
                });
            }
        }
        let mut items: Vec<(&str, u64)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_count)
            .collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(first_seen[a.0].cmp(&first_seen[b.0])));
        let tokens: Vec<String> = items.iter().map(|(t, _)| t.to_string()).collect();
        let counts: Vec<u64> = items.iter().map(|(_, c)| *c).collect();
        let index = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        let sampling_cdf = cumulative_mass(&counts);
        Vocabulary {
            tokens,
            counts,
            index,
            sampling_cdf,
        }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Id of `token`, if in vocabulary.
    pub fn id(&self, token: &str) -> Option<usize> {
        self.index.get(token).copied()
    }

    /// Token of `id`.
    pub fn token(&self, id: usize) -> &str {
        &self.tokens[id]
    }

    /// Total corpus token count (post-min-count).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Encode a document to known-token ids.
    pub fn encode(&self, doc: &[String]) -> Vec<usize> {
        doc.iter().filter_map(|t| self.id(t)).collect()
    }

    /// The sampler over the unigram^0.75 distribution. Derived from the
    /// cumulative masses on every call — build it once per training run.
    ///
    /// # Panics
    /// Panics on an empty vocabulary.
    pub(crate) fn negative_sampler(&self) -> NegativeSampler<'_> {
        NegativeSampler::new(&self.sampling_cdf)
    }

    /// The seed's sampler, kept as the oracle for [`NegativeSampler`]:
    /// the same draw, located by binary search.
    #[cfg(test)]
    pub(crate) fn sample_negative(&self, rng: &mut StdRng) -> usize {
        let total = *self.sampling_cdf.last().expect("nonempty vocabulary");
        first_above_by_binary_search(&self.sampling_cdf, rng.gen_range(0.0..total))
    }

    /// Word2vec-style subsampling keep-probability for token `id` with
    /// threshold `t` (e.g. `1e-3`); frequent tokens are kept less often.
    pub fn keep_probability(&self, id: usize, t: f64) -> f64 {
        keep_probability(self.counts[id], self.total_count(), t)
    }

    /// [`Vocabulary::keep_probability`] of every id, with the corpus
    /// total summed once instead of once per id.
    pub(crate) fn keep_probabilities(&self, t: f64) -> Vec<f64> {
        let total = self.total_count();
        self.counts
            .iter()
            .map(|&c| keep_probability(c, total, t))
            .collect()
    }
}

/// Running sums of `count^0.75`: strictly increasing, since counts ≥ 1.
fn cumulative_mass(counts: &[u64]) -> Vec<f64> {
    let mut acc = 0.0f64;
    counts
        .iter()
        .map(|&c| {
            acc += (c as f64).powf(0.75);
            acc
        })
        .collect()
}

fn keep_probability(count: u64, total: u64, t: f64) -> f64 {
    let f = count as f64 / total as f64;
    if f <= t {
        1.0
    } else {
        ((t / f).sqrt() + t / f).min(1.0)
    }
}

/// Draws negatives from a vocabulary's unigram^0.75 distribution: one
/// uniform `x` in `[0, total)`, answered with the first id whose
/// cumulative mass exceeds `x`.
///
/// The lookup starts from an inverse-CDF guide table — bucket `b` of `K`
/// holds the first id whose cumulative mass exceeds `b · total / K` — and
/// walks to the answer, so it costs O(1) expected where a binary search
/// costs `log |V|` unpredictable branches (DESIGN.md §18).
pub(crate) struct NegativeSampler<'a> {
    /// Strictly increasing cumulative masses; the last is the total.
    cdf: &'a [f64],
    guide: Vec<u32>,
    /// Buckets per unit of mass, `K / total`.
    buckets_per_mass: f64,
}

impl<'a> NegativeSampler<'a> {
    fn new(cdf: &'a [f64]) -> Self {
        let total = *cdf.last().expect("nonempty vocabulary");
        let buckets = (2 * cdf.len()).next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut id = 0usize;
        for b in 0..buckets {
            let start = b as f64 * total / buckets as f64;
            while id + 1 < cdf.len() && cdf[id] <= start {
                id += 1;
            }
            guide.push(u32::try_from(id).expect("vocabulary ids fit u32"));
        }
        NegativeSampler {
            cdf,
            guide,
            buckets_per_mass: buckets as f64 / total,
        }
    }

    /// Draw one negative sample: exactly one `gen_range` from `rng`.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cdf[self.cdf.len() - 1];
        self.locate(rng.gen_range(0.0..total))
    }

    /// The first id whose cumulative mass exceeds `x`, or the last id
    /// when none does. The guide entry is only a starting point: the
    /// walk goes back while the previous mass still exceeds `x` and
    /// forward while the current one does not, so rounding in the bucket
    /// computation (or in the table) cannot change the answer.
    fn locate(&self, x: f64) -> usize {
        let bucket = ((x * self.buckets_per_mass) as usize).min(self.guide.len() - 1);
        let mut id = self.guide[bucket] as usize;
        while id > 0 && self.cdf[id - 1] > x {
            id -= 1;
        }
        while id + 1 < self.cdf.len() && self.cdf[id] <= x {
            id += 1;
        }
        id
    }
}

/// What the seed's `sample_negative` returned for a draw `x`.
#[cfg(test)]
fn first_above_by_binary_search(cdf: &[f64], x: f64) -> usize {
    match cdf.binary_search_by(|v| v.partial_cmp(&x).expect("finite")) {
        Ok(i) => (i + 1).min(cdf.len() - 1),
        Err(i) => i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn docs(strs: &[&str]) -> Vec<Vec<String>> {
        strs.iter()
            .map(|s| s.split(' ').map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn build_orders_by_frequency() {
        let v = Vocabulary::build(&docs(&["a b a c a b"]), 1);
        assert_eq!(v.token(0), "a");
        assert_eq!(v.token(1), "b");
        assert_eq!(v.counts, vec![3, 2, 1]);
        assert_eq!(v.id("c"), Some(2));
        assert_eq!(v.id("zz"), None);
    }

    #[test]
    fn min_count_filters() {
        let v = Vocabulary::build(&docs(&["a a b"]), 2);
        assert_eq!(v.len(), 1);
        assert_eq!(v.token(0), "a");
    }

    #[test]
    fn encode_drops_oov() {
        let v = Vocabulary::build(&docs(&["a b"]), 1);
        let enc = v.encode(&["a".into(), "zzz".into(), "b".into()]);
        assert_eq!(enc, vec![0, 1]);
    }

    #[test]
    fn negative_sampling_follows_power_law() {
        let v = Vocabulary::build(&docs(&["a a a a a a a a b"]), 1);
        let sampler = v.negative_sampler();
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = [0usize; 2];
        for _ in 0..10_000 {
            hits[sampler.sample(&mut rng)] += 1;
        }
        // a:b count ratio is 8:1 → mass ratio 8^0.75 ≈ 4.76.
        let ratio = hits[0] as f64 / hits[1] as f64;
        assert!(ratio > 3.5 && ratio < 6.5, "ratio {ratio}");
    }

    #[test]
    fn keep_probability_downweights_frequent() {
        let v = Vocabulary::build(&docs(&["the the the the the the rare"]), 1);
        let the = v.id("the").expect("the");
        let rare = v.id("rare").expect("rare");
        // With threshold 0.2: "the" (f = 6/7) is downweighted, "rare"
        // (f = 1/7 ≤ t) is always kept.
        assert!(v.keep_probability(the, 0.2) < 1.0);
        assert_eq!(v.keep_probability(rare, 0.2), 1.0);
        assert!(v.keep_probability(the, 0.2) > v.keep_probability(the, 1e-3));
    }

    /// The four shapes the guide table has to get right: a long Zipf
    /// tail of tied singletons, a flat distribution, one token, and one
    /// bucket that hides almost the whole vocabulary.
    fn count_vectors() -> Vec<(&'static str, Vec<u64>)> {
        let mut giant = vec![1u64; 501];
        giant[0] = 1_000_000_000;
        vec![
            ("zipf", (1..=3000u64).map(|r| (3000 / r).max(1)).collect()),
            ("all-equal", vec![7; 1000]),
            ("single", vec![5]),
            ("giant+singletons", giant),
        ]
    }

    #[test]
    fn guide_table_draws_are_the_binary_search_draws() {
        for (name, counts) in count_vectors() {
            let cdf = cumulative_mass(&counts);
            let total = cdf[cdf.len() - 1];
            let sampler = NegativeSampler::new(&cdf);
            let (mut rng, mut twin) = (StdRng::seed_from_u64(21), StdRng::seed_from_u64(21));
            for draw in 0..100_000 {
                let want = first_above_by_binary_search(&cdf, twin.gen_range(0.0..total));
                assert_eq!(sampler.sample(&mut rng), want, "{name}, draw {draw}");
            }
            assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "{name}: rng streams");
        }
    }

    #[test]
    fn locate_is_exact_at_every_cdf_boundary() {
        for (name, counts) in count_vectors() {
            let cdf = cumulative_mass(&counts);
            let total = cdf[cdf.len() - 1];
            let last = cdf.len() - 1;
            let mut probes = vec![0.0, total.next_down()];
            for &c in &cdf {
                probes.extend([c.next_down(), c, c.next_up()]);
            }
            let built = NegativeSampler::new(&cdf);
            // The guide is only a starting point: tables that point
            // every bucket at the first or the last id must locate the
            // same ids, one by the forward walk alone and one by the
            // backward walk alone.
            let pointing_at = |id: usize| NegativeSampler {
                cdf: &cdf,
                guide: vec![id as u32; built.guide.len()],
                buckets_per_mass: built.buckets_per_mass,
            };
            for sampler in [&built, &pointing_at(0), &pointing_at(last)] {
                // Every value a draw can take lies in [0, total).
                for &x in probes.iter().filter(|&&x| x < total) {
                    let want = first_above_by_binary_search(&cdf, x);
                    assert_eq!(sampler.locate(x), want, "{name}, x = {x:e}");
                }
                // Outside it the walk stops at the last id instead of
                // running off the table.
                for x in [total, total.next_up(), f64::INFINITY] {
                    assert_eq!(sampler.locate(x), last, "{name}, x = {x:e}");
                }
                assert_eq!(sampler.locate(-1.0), 0, "{name}");
            }
        }
    }

    #[test]
    fn keep_probabilities_are_the_per_id_values() {
        let v = Vocabulary::build(&docs(&["the the the the of of rare", "the of a"]), 1);
        for t in [0.2, 1e-3] {
            let all = v.keep_probabilities(t);
            assert_eq!(all.len(), v.len());
            for (id, p) in all.iter().enumerate() {
                assert_eq!(p.to_bits(), v.keep_probability(id, t).to_bits());
            }
        }
    }

    #[test]
    fn serialised_vocabulary_carries_no_guide_table() {
        let v = Vocabulary::build(&docs(&["a b a c a b", "d a"]), 1);
        let fields: Vec<String> = serde::Serialize::to_value(&v)
            .as_object()
            .expect("struct serialises as an object")
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        assert_eq!(fields, ["tokens", "counts", "index", "sampling_cdf"]);

        let json = serde_json::to_string(&v).expect("serialise");
        let back: Vocabulary = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.tokens, v.tokens);
        assert_eq!(back.counts, v.counts);
        assert_eq!(back.sampling_cdf, v.sampling_cdf);
        // The sampler is rebuilt from what was stored.
        let (mut rng, mut twin) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let (a, b) = (v.negative_sampler(), back.negative_sampler());
        for _ in 0..200 {
            assert_eq!(a.sample(&mut rng), b.sample(&mut twin));
        }
    }
}
