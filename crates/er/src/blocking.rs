//! Blocking: shrink the O(n²) pair space before matching.
//!
//! DeepER's efficiency claim (§5.2): "we propose a locality sensitive
//! hashing (LSH) based approach that uses distributed representations
//! of tuples; it takes all attributes of a tuple into consideration and
//! produces much smaller blocks, compared with traditional methods that
//! consider only few attributes." Experiment E4 measures exactly that
//! trade-off: reduction ratio vs pair completeness, LSH over embeddings
//! against token blocking and single-attribute key blocking.

use dc_index::{LshConfig, LshIndex};
use dc_tensor::Tensor;
use rand::rngs::StdRng;
use std::collections::{HashMap, HashSet};

/// Candidate pair set produced by a blocker (ordered `(min, max)`).
pub type Candidates = HashSet<(usize, usize)>;

/// Random-hyperplane LSH over tuple embedding vectors, with banding.
///
/// Each vector gets `bands × rows_per_band` sign bits; two tuples are
/// candidates when *any* band of bits matches exactly, plus — when
/// [`LshBlocker::with_probes`] is used — when a band matches after
/// flipping one of a tuple's lowest-margin bits (multi-probe, which
/// buys back pair completeness at fewer bands).
///
/// Since ISSUE 3 this is a thin wrapper over [`dc_index`]: signatures
/// are computed as one blocked kernel matmul and bit-packed into `u64`
/// words, and candidates come from sorted band tables instead of a
/// `HashMap<Vec<bool>, _>` per band. The seed implementation survives
/// verbatim as [`reference::LshBlocker`]; `tests/blocking_equiv.rs`
/// proves pair-set equality between the two on random inputs.
#[derive(Clone, Debug)]
pub struct LshBlocker {
    planes: Vec<Vec<f32>>,
    /// Number of bands.
    pub bands: usize,
    /// Hyperplanes (bits) per band.
    pub rows_per_band: usize,
    /// Near-boundary bits probed per tuple per band (0 = exact banding).
    pub probes: usize,
}

impl LshBlocker {
    /// Sample `bands × rows_per_band` random hyperplanes in `dim`
    /// dimensions.
    pub fn new(dim: usize, bands: usize, rows_per_band: usize, rng: &mut StdRng) -> Self {
        let planes = (0..bands * rows_per_band)
            .map(|_| Tensor::randn(1, dim, 1.0, rng).data)
            .collect();
        Self::from_planes(planes, bands, rows_per_band)
    }

    /// Build from explicit hyperplanes (row `p` is plane `p`); used by
    /// the equivalence tests to drive the new and [`reference`] paths
    /// from identical planes.
    pub fn from_planes(planes: Vec<Vec<f32>>, bands: usize, rows_per_band: usize) -> Self {
        assert_eq!(planes.len(), bands * rows_per_band, "plane count");
        LshBlocker {
            planes,
            bands,
            rows_per_band,
            probes: 0,
        }
    }

    /// Enable multi-probe: additionally look up, per band, the buckets
    /// reached by flipping each of a tuple's `probes` lowest-|margin|
    /// sign bits. Candidates become a superset of the exact-band set.
    pub fn with_probes(mut self, probes: usize) -> Self {
        self.probes = probes;
        self
    }

    /// The signature (one bit per hyperplane) of a vector.
    pub fn signature(&self, v: &[f32]) -> Vec<bool> {
        self.planes
            .iter()
            .map(|p| p.iter().zip(v).map(|(a, b)| a * b).sum::<f32>() >= 0.0)
            .collect()
    }

    /// Candidate pairs among `vectors`: the pairs [`Self::index`]
    /// streams, collected into a set.
    pub fn candidates(&self, vectors: &[Vec<f32>]) -> Candidates {
        let mut out = Candidates::new();
        self.index(vectors).for_each_pair(|i, j| {
            out.insert((i, j));
        });
        out
    }

    /// The banded index over `vectors`, whose
    /// [`LshIndex::for_each_pair`] streams the candidate pairs, each once,
    /// without holding them.
    ///
    /// Vectors are centred on their mean first: tuple embeddings from a
    /// single domain cluster in one orthant, where raw sign bits carry
    /// no information.
    pub fn index(&self, vectors: &[Vec<f32>]) -> LshIndex {
        let cfg = LshConfig {
            bands: self.bands,
            rows_per_band: self.rows_per_band,
            probes: self.probes,
        };
        if vectors.is_empty() {
            return LshIndex::new(cfg).expect("LshBlocker: at least one band of one row");
        }
        let dim = vectors[0].len();
        let mut mean = vec![0.0f32; dim];
        for v in vectors {
            for (m, &x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        let inv = 1.0 / vectors.len() as f32;
        mean.iter_mut().for_each(|m| *m *= inv);
        // Centre straight into the flat tensor buffer — element for
        // element the same arithmetic as [`center`], without its
        // per-row Vec allocations.
        let mut flat = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            flat.extend(v.iter().zip(&mean).map(|(x, m)| x - m));
        }
        let items = Tensor::from_vec(vectors.len(), dim, flat);
        // Plane rows are truncated/zero-padded to the vector dim,
        // matching the seed signature's `zip` semantics when lengths
        // disagree (extra plane components never meet a vector entry).
        let mut plane_data = Vec::with_capacity(self.planes.len() * dim);
        for (r, p) in self.planes.iter().enumerate() {
            plane_data.extend(p.iter().copied().take(dim));
            plane_data.resize((r + 1) * dim, 0.0);
        }
        let planes = Tensor::from_vec(self.planes.len(), dim, plane_data);
        LshIndex::build(&items, &planes, cfg).expect("plane count asserted by from_planes")
    }
}

/// The seed (pre-ISSUE 3) LSH blocker, kept verbatim — like
/// [`dc_tensor::kernel::reference`] — as the ground truth that
/// `tests/blocking_equiv.rs` holds the [`dc_index`]-backed
/// [`LshBlocker`](super::LshBlocker) to.
pub mod reference {
    use super::{center, Candidates};
    use std::collections::HashMap;

    /// Seed implementation: `Vec<bool>` signatures from one sequential
    /// dot per plane, bucketed through a `HashMap` per band.
    #[derive(Clone, Debug)]
    pub struct LshBlocker {
        /// Hyperplanes, one per signature bit.
        pub planes: Vec<Vec<f32>>,
        /// Number of bands.
        pub bands: usize,
        /// Hyperplanes (bits) per band.
        pub rows_per_band: usize,
    }

    impl LshBlocker {
        /// Build from explicit hyperplanes.
        pub fn from_planes(planes: Vec<Vec<f32>>, bands: usize, rows_per_band: usize) -> Self {
            assert_eq!(planes.len(), bands * rows_per_band, "plane count");
            LshBlocker {
                planes,
                bands,
                rows_per_band,
            }
        }

        /// The signature (one bit per hyperplane) of a vector.
        pub fn signature(&self, v: &[f32]) -> Vec<bool> {
            self.planes
                .iter()
                .map(|p| p.iter().zip(v).map(|(a, b)| a * b).sum::<f32>() >= 0.0)
                .collect()
        }

        /// Candidate pairs among `vectors` (seed bucketer).
        pub fn candidates(&self, vectors: &[Vec<f32>]) -> Candidates {
            let centered = center(vectors);
            let sigs: Vec<Vec<bool>> = centered.iter().map(|v| self.signature(v)).collect();
            let mut out = Candidates::new();
            for band in 0..self.bands {
                let lo = band * self.rows_per_band;
                let hi = lo + self.rows_per_band;
                let mut buckets: HashMap<Vec<bool>, Vec<usize>> = HashMap::new();
                for (i, sig) in sigs.iter().enumerate() {
                    buckets.entry(sig[lo..hi].to_vec()).or_default().push(i);
                }
                for members in buckets.values() {
                    for (x, &i) in members.iter().enumerate() {
                        for &j in &members[x + 1..] {
                            out.insert((i.min(j), i.max(j)));
                        }
                    }
                }
            }
            out
        }
    }
}

pub(crate) fn center(vectors: &[Vec<f32>]) -> Vec<Vec<f32>> {
    if vectors.is_empty() {
        return Vec::new();
    }
    let d = vectors[0].len();
    let mut mean = vec![0.0f32; d];
    for v in vectors {
        for (m, &x) in mean.iter_mut().zip(v) {
            *m += x;
        }
    }
    let inv = 1.0 / vectors.len() as f32;
    mean.iter_mut().for_each(|m| *m *= inv);
    vectors
        .iter()
        .map(|v| v.iter().zip(&mean).map(|(x, m)| x - m).collect())
        .collect()
}

/// Token blocking: two tuples are candidates when they share at least
/// one token in the chosen key column — a "traditional method that
/// considers only few attributes".
#[derive(Clone, Copy, Debug)]
pub struct TokenBlocker {
    /// The column whose tokens form blocks.
    pub column: usize,
}

impl TokenBlocker {
    /// Candidate pairs over a table.
    pub fn candidates(&self, table: &dc_relational::Table) -> Candidates {
        use dc_relational::tokenize::tokenize;
        let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, row) in table.rows.iter().enumerate() {
            if row[self.column].is_null() {
                continue;
            }
            for tok in tokenize(&row[self.column].canonical()) {
                buckets.entry(tok).or_default().push(i);
            }
        }
        let mut out = Candidates::new();
        for members in buckets.values() {
            for (x, &i) in members.iter().enumerate() {
                for &j in &members[x + 1..] {
                    if i != j {
                        out.insert((i.min(j), i.max(j)));
                    }
                }
            }
        }
        out
    }
}

/// Key blocking: exact match on a normalised key prefix of one column —
/// the crudest traditional blocker.
#[derive(Clone, Copy, Debug)]
pub struct KeyBlocker {
    /// The blocking column.
    pub column: usize,
    /// Number of leading characters of the normalised value to key on.
    pub prefix: usize,
}

impl KeyBlocker {
    /// Candidate pairs over a table.
    pub fn candidates(&self, table: &dc_relational::Table) -> Candidates {
        use dc_relational::tokenize::normalize;
        let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, row) in table.rows.iter().enumerate() {
            if row[self.column].is_null() {
                continue;
            }
            let norm = normalize(&row[self.column].canonical());
            let key: String = norm.chars().take(self.prefix).collect();
            buckets.entry(key).or_default().push(i);
        }
        let mut out = Candidates::new();
        for members in buckets.values() {
            for (x, &i) in members.iter().enumerate() {
                for &j in &members[x + 1..] {
                    out.insert((i.min(j), i.max(j)));
                }
            }
        }
        out
    }
}

/// Quality of a candidate set against ground-truth duplicate pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockingQuality {
    /// `1 − |candidates| / |all pairs|` — how much work blocking saves.
    pub reduction_ratio: f64,
    /// Fraction of true duplicate pairs surviving blocking (recall).
    pub pair_completeness: f64,
    /// Candidate count.
    pub candidates: usize,
}

/// Score a candidate set. `n` is the table size; `truth` the set of
/// ground-truth duplicate pairs (ordered `(min, max)`).
pub fn blocking_quality(
    candidates: &Candidates,
    truth: &[(usize, usize)],
    n: usize,
) -> BlockingQuality {
    let all_pairs = n * n.saturating_sub(1) / 2;
    let found = truth
        .iter()
        .filter(|&&(a, b)| candidates.contains(&(a.min(b), a.max(b))))
        .count();
    BlockingQuality {
        reduction_ratio: if all_pairs == 0 {
            0.0
        } else {
            1.0 - candidates.len() as f64 / all_pairs as f64
        },
        pair_completeness: if truth.is_empty() {
            1.0
        } else {
            found as f64 / truth.len() as f64
        },
        candidates: candidates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::tuple_vectors;
    use dc_datagen::{ErBenchmark, ErSuite};
    use dc_embed::{Embeddings, SgnsConfig};
    use dc_relational::tokenize_tuple;
    use rand::SeedableRng;

    fn setup() -> (ErBenchmark, Vec<Vec<f32>>, StdRng) {
        let mut rng = StdRng::seed_from_u64(200);
        let bench = ErBenchmark::generate(ErSuite::Dirty, 80, 3, &mut rng);
        let docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
        let emb = Embeddings::train(
            &docs,
            &SgnsConfig {
                dim: 16,
                epochs: 5,
                ..Default::default()
            },
            &mut rng,
        );
        let vectors = tuple_vectors(&emb, &bench.table);
        (bench, vectors, rng)
    }

    #[test]
    fn lsh_blocks_reduce_pairs_and_keep_duplicates() {
        let (bench, vectors, mut rng) = setup();
        let blocker = LshBlocker::new(16, 8, 4, &mut rng);
        let cands = blocker.candidates(&vectors);
        let q = blocking_quality(&cands, &bench.duplicate_pairs(), bench.table.len());
        assert!(q.reduction_ratio > 0.3, "reduction {q:?}");
        assert!(q.pair_completeness > 0.7, "completeness {q:?}");
    }

    #[test]
    fn identical_vectors_always_collide() {
        let mut rng = StdRng::seed_from_u64(1);
        let blocker = LshBlocker::new(4, 4, 3, &mut rng);
        let v = vec![vec![0.5, -0.2, 0.8, 0.1]; 2];
        let cands = blocker.candidates(&v);
        assert!(cands.contains(&(0, 1)));
    }

    #[test]
    fn more_rows_per_band_is_stricter() {
        let (_, vectors, mut rng) = setup();
        let loose = LshBlocker::new(16, 4, 1, &mut rng).candidates(&vectors);
        let strict = LshBlocker::new(16, 4, 6, &mut rng).candidates(&vectors);
        assert!(
            loose.len() > strict.len(),
            "{} vs {}",
            loose.len(),
            strict.len()
        );
    }

    #[test]
    fn token_blocker_finds_shared_name_tokens() {
        let (bench, _, _) = setup();
        let cands = TokenBlocker { column: 0 }.candidates(&bench.table);
        let q = blocking_quality(&cands, &bench.duplicate_pairs(), bench.table.len());
        // Token blocking on names is high-recall (most dups share a
        // token) but admits many shared-last-name false candidates.
        assert!(q.pair_completeness > 0.5, "{q:?}");
        assert!(q.reduction_ratio > 0.0, "{q:?}");
    }

    #[test]
    fn key_blocker_prefix_tradeoff() {
        let (bench, _, _) = setup();
        let coarse = KeyBlocker {
            column: 0,
            prefix: 1,
        }
        .candidates(&bench.table);
        let fine = KeyBlocker {
            column: 0,
            prefix: 6,
        }
        .candidates(&bench.table);
        assert!(coarse.len() >= fine.len());
    }

    #[test]
    fn multi_probe_widens_candidates_and_completeness() {
        let (bench, vectors, mut rng) = setup();
        let exact = LshBlocker::new(16, 4, 8, &mut rng);
        let probed = exact.clone().with_probes(2);
        let exact_cands = exact.candidates(&vectors);
        let probed_cands = probed.candidates(&vectors);
        assert!(
            exact_cands.is_subset(&probed_cands),
            "probing must only add pairs"
        );
        let truth = bench.duplicate_pairs();
        let n = bench.table.len();
        let q_exact = blocking_quality(&exact_cands, &truth, n);
        let q_probed = blocking_quality(&probed_cands, &truth, n);
        assert!(
            q_probed.pair_completeness >= q_exact.pair_completeness,
            "{q_exact:?} vs {q_probed:?}"
        );
    }

    #[test]
    fn empty_and_singleton_inputs_yield_no_pairs() {
        let mut rng = StdRng::seed_from_u64(3);
        let blocker = LshBlocker::new(4, 2, 2, &mut rng);
        assert!(blocker.candidates(&[]).is_empty());
        assert!(blocker.candidates(&[vec![1.0, 0.0, 0.0, 0.0]]).is_empty());
    }

    #[test]
    fn quality_edges() {
        let empty = Candidates::new();
        let q = blocking_quality(&empty, &[], 10);
        assert_eq!(q.pair_completeness, 1.0);
        assert_eq!(q.reduction_ratio, 1.0);
        let q2 = blocking_quality(&empty, &[(0, 1)], 10);
        assert_eq!(q2.pair_completeness, 0.0);
        // Tables too small to hold a pair have nothing to reduce.
        for n in [0, 1] {
            let q = blocking_quality(&empty, &[], n);
            assert_eq!((q.reduction_ratio, q.pair_completeness), (0.0, 1.0));
        }
    }
}
