//! Index equivalence suite (ISSUE 3).
//!
//! Properties, each run by `scripts/lint.sh` under `DC_THREADS=1`,
//! `=2`, and the default:
//!
//! 1. **Packed signatures vs the seed `Vec<bool>` path, bit-for-bit.**
//!    The packed path computes scores through the blocked kernel, which
//!    may associate sums differently from the seed's sequential dots —
//!    on a near-zero margin that rounding difference could flip a sign
//!    bit. The test therefore draws *quantized* dyadic inputs (grid
//!    `k/8`, small dims) so every dot product is exact in f32 and the
//!    sign is association-independent; a belt-and-braces f64 margin
//!    guard skips the (never observed) case where a margin still lands
//!    too close to zero.
//! 2. **Banded candidates vs the seed bucketer, exact set equality.**
//! 3. **Top-k vs a full stable sort, same order including ties and
//!    injected NaN scores.**

use dc_index::{topk_scores, LshConfig, LshIndex, Order, SignatureSet};
use dc_tensor::Tensor;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Deterministic quantized tensor on the dyadic grid `k/8`, |k| ≤ 32:
/// with dims this small every dot product is exactly representable, so
/// blocked and sequential sums agree bit-for-bit.
fn quantized(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((state >> 33) % 65) as i64 - 32;
            k as f32 / 8.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Seed signature path: one sequential dot per plane, `>= 0.0`.
fn naive_signature(v: &[f32], planes: &Tensor) -> Vec<bool> {
    (0..planes.rows)
        .map(|p| {
            let dot: f32 = v.iter().zip(planes.row_slice(p)).map(|(a, b)| a * b).sum();
            dot >= 0.0
        })
        .collect()
}

/// True when any f64-computed margin is too close to zero to trust the
/// f32 sign to be association-independent.
fn near_boundary(vectors: &Tensor, planes: &Tensor) -> bool {
    (0..vectors.rows).any(|i| {
        let v = vectors.row_slice(i);
        (0..planes.rows).any(|p| {
            let dot: f64 = v
                .iter()
                .zip(planes.row_slice(p))
                .map(|(a, b)| f64::from(*a) * f64::from(*b))
                .sum();
            dot.abs() < 1e-4 && dot != 0.0
        })
    })
}

/// Seed banded bucketer over `Vec<bool>` signatures.
fn naive_pairs(sigs: &[Vec<bool>], bands: usize, rows: usize) -> HashSet<(usize, usize)> {
    let mut out = HashSet::new();
    for b in 0..bands {
        let mut buckets: HashMap<Vec<bool>, Vec<usize>> = HashMap::new();
        for (i, sig) in sigs.iter().enumerate() {
            buckets
                .entry(sig[b * rows..(b + 1) * rows].to_vec())
                .or_default()
                .push(i);
        }
        for members in buckets.values() {
            for x in 0..members.len() {
                for y in x + 1..members.len() {
                    out.insert((members[x], members[y]));
                }
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn packed_signatures_match_seed_bools(
        n in 1usize..120,
        dim in 1usize..8,
        bands in 1usize..5,
        rows in 1usize..20,
        seed in 0u64..u64::MAX,
    ) {
        let nbits = bands * rows;
        let vectors = quantized(n, dim, seed);
        let planes = quantized(nbits, dim, seed ^ 0x9e3779b97f4a7c15);
        if near_boundary(&vectors, &planes) {
            return Ok(()); // sign not association-independent; skip
        }
        let packed = SignatureSet::compute(&vectors, &planes);
        prop_assert_eq!(packed.len(), n);
        prop_assert_eq!(packed.nbits(), nbits);
        for i in 0..n {
            let naive = naive_signature(vectors.row_slice(i), &planes);
            prop_assert_eq!(&packed.to_bools(i), &naive, "item {}", i);
            for (j, &bit) in naive.iter().enumerate() {
                prop_assert_eq!(packed.bit(i, j), bit);
            }
        }
    }

    #[test]
    fn banded_candidates_match_seed_bucketer(
        n in 1usize..100,
        dim in 1usize..6,
        bands in 1usize..5,
        rows in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let vectors = quantized(n, dim, seed);
        let planes = quantized(bands * rows, dim, seed ^ 0x517cc1b727220a95);
        if near_boundary(&vectors, &planes) {
            return Ok(());
        }
        let sigs: Vec<Vec<bool>> = (0..n)
            .map(|i| naive_signature(vectors.row_slice(i), &planes))
            .collect();
        let expect = naive_pairs(&sigs, bands, rows);
        let cfg = LshConfig { bands, rows_per_band: rows, probes: 0 };
        let pairs = LshIndex::build(&vectors, &planes, cfg).unwrap().candidate_pairs();
        prop_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        let got: HashSet<(usize, usize)> = pairs.into_iter().collect();
        prop_assert_eq!(&got, &expect);
    }

    #[test]
    fn multi_probe_is_a_candidate_superset(
        n in 2usize..60,
        bands in 1usize..4,
        rows in 2usize..8,
        probes in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let vectors = quantized(n, 5, seed);
        let planes = quantized(bands * rows, 5, seed ^ 0x2545f4914f6cdd1d);
        let cfg = |p| LshConfig { bands, rows_per_band: rows, probes: p };
        let exact: HashSet<(usize, usize)> =
            LshIndex::build(&vectors, &planes, cfg(0)).unwrap().candidate_pairs().into_iter().collect();
        let probed: HashSet<(usize, usize)> =
            LshIndex::build(&vectors, &planes, cfg(probes)).unwrap().candidate_pairs().into_iter().collect();
        prop_assert!(exact.is_subset(&probed));
    }

    #[test]
    fn topk_matches_full_sort_with_ties_and_nan(
        n in 1usize..4000,
        k in 1usize..40,
        tie_mod in 2u32..50,
        nan_mod in 2usize..80,
        largest in 0u32..2,
        seed in 0u64..u64::MAX,
    ) {
        let largest = largest == 1;
        let order = if largest { Order::Largest } else { Order::Smallest };
        // Coarse score grid forces heavy ties; every nan_mod-th score is NaN.
        let score = move |i: usize| {
            if i.is_multiple_of(nan_mod) {
                f32::NAN
            } else {
                let h = (i as u64).wrapping_mul(seed | 1) >> 33;
                ((h % tie_mod as u64) as f32 - tie_mod as f32 / 2.0) * 0.5
            }
        };
        let got: Vec<(usize, u32)> = topk_scores(n, k, order, score)
            .iter()
            .map(|h| (h.index, h.score.to_bits()))
            .collect();
        let mut all: Vec<usize> = (0..n).collect();
        all.sort_by(|&a, &b| {
            let (sa, sb) = (score(a), score(b));
            match (sa.is_nan(), sb.is_nan()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => if largest {
                    sb.partial_cmp(&sa).unwrap()
                } else {
                    sa.partial_cmp(&sb).unwrap()
                },
            }
            .then(a.cmp(&b))
        });
        let expect: Vec<(usize, u32)> = all[..k.min(n)]
            .iter()
            .map(|&i| (i, score(i).to_bits()))
            .collect();
        prop_assert_eq!(got, expect);
    }
}
