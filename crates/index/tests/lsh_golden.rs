//! Banded-LSH golden suite (ISSUE 23).
//!
//! Pins `candidate_pairs()` — pair count and an FNV-1a hash over the
//! sorted pair list — to constants recorded at the commit *before* the
//! batch and incremental index types were folded into one, so the fold
//! (and any later change to banding, probing or emission that claims to
//! be bit-preserving) is held to the exact pair sets both old types
//! produced:
//!
//! * bulk builds over `probes ∈ {0, 1, 2}` × band widths `{4, 16, 24,
//!   40, 70}` bits × `n ∈ {50, 300}` — the radix (width ≤ 16, n ≥ 64),
//!   packed-sort (width ≤ 32) and comparator (single- and multi-word
//!   key) `BandTable` build paths;
//! * one fixed insert / delete / compact / insert script, hashed at
//!   every stage (overflow only, overflow + tombstones, compacted,
//!   sorted + overflow + tombstones in both tiers).
//!
//! Score rows sit on the dyadic grid `k/8` and are noisy copies of a
//! few prototype rows, so wide bands still collide and |margin| ties
//! exercise the probe tie-break.

use dc_index::{LshConfig, LshIndex};
use dc_tensor::Tensor;

const BANDS: usize = 2;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dyadic(h: u64) -> f32 {
    ((h % 65) as i64 - 32) as f32 / 8.0
}

/// Row `i` copies prototype `i % (n / 5)` and redraws about one score
/// in 32.
fn score_row(i: usize, n: usize, nbits: usize, salt: u64) -> Vec<f32> {
    let proto = (i % (n / 5).max(1)) as u64;
    (0..nbits as u64)
        .map(|j| {
            let own = mix(salt ^ ((i as u64) << 32) ^ j);
            if own.is_multiple_of(32) {
                dyadic(own >> 8)
            } else {
                dyadic(mix(salt ^ (proto << 16) ^ j ^ 0xabcd_0000_0000))
            }
        })
        .collect()
}

fn score_matrix(n: usize, nbits: usize, salt: u64) -> Tensor {
    let data = (0..n).flat_map(|i| score_row(i, n, nbits, salt)).collect();
    Tensor::from_vec(n, nbits, data)
}

/// `(pair count, FNV-1a over the little-endian (i, j) u64 stream)`.
fn fingerprint(pairs: &[(usize, usize)]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(i, j) in pairs {
        for b in (i as u64)
            .to_le_bytes()
            .into_iter()
            .chain((j as u64).to_le_bytes())
        {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (pairs.len(), h)
}

/// `(probes, width, n) → (pairs, hash)`, recorded at the parent commit.
const BULK: &[(usize, usize, usize, usize, u64)] = &[
    (0, 4, 50, 286, 0xedaf84542b8e3757),
    (0, 4, 300, 6000, 0x824250171db6d4f3),
    (0, 16, 50, 87, 0x651eeadfb260d0fb),
    (0, 16, 300, 479, 0x9ba663cbc2e395da),
    (0, 24, 50, 71, 0x73366cd378e82cd7),
    (0, 24, 300, 432, 0x886117cbd4274336),
    (0, 40, 50, 58, 0x0b38902c4302e8b5),
    (0, 40, 300, 298, 0xda50444a751e9121),
    (0, 70, 50, 22, 0x029e41bd27d7ddcd),
    (0, 70, 300, 158, 0xd258358e2ff9fe95),
    (1, 4, 50, 422, 0x7acfaf421d52b569),
    (1, 4, 300, 14835, 0xcebc52755335da4b),
    (1, 16, 50, 87, 0x651eeadfb260d0fb),
    (1, 16, 300, 506, 0xded698d5208cf5e6),
    (1, 24, 50, 74, 0xec5ad013a9240b6f),
    (1, 24, 300, 443, 0x03d4d8db725e7d79),
    (1, 40, 50, 58, 0x0b38902c4302e8b5),
    (1, 40, 300, 318, 0x404d949b84e9aaee),
    (1, 70, 50, 22, 0x029e41bd27d7ddcd),
    (1, 70, 300, 161, 0x137aedd7b5360552),
    (2, 4, 50, 470, 0x3a22aa102d8ebf9e),
    (2, 4, 300, 20140, 0x6296410b41671de2),
    (2, 16, 50, 87, 0x651eeadfb260d0fb),
    (2, 16, 300, 531, 0xb0c66aa9bfcaa15d),
    (2, 24, 50, 78, 0xd68e59ec041ec435),
    (2, 24, 300, 455, 0xb6684658f5082a09),
    (2, 40, 50, 58, 0x0b38902c4302e8b5),
    (2, 40, 300, 324, 0x28bc00bfbc5c5c1a),
    (2, 70, 50, 22, 0x029e41bd27d7ddcd),
    (2, 70, 300, 164, 0xfa7c848fa2fe963e),
];

#[test]
fn bulk_build_pair_sets_match_recorded() {
    let mut got = Vec::new();
    for probes in [0, 1, 2] {
        for width in [4, 16, 24, 40, 70] {
            for n in [50, 300] {
                let cfg = LshConfig {
                    bands: BANDS,
                    rows_per_band: width,
                    probes,
                };
                let scores = score_matrix(n, BANDS * width, 23);
                let idx = LshIndex::from_scores(&scores, cfg).unwrap();
                let (len, hash) = fingerprint(&idx.candidate_pairs());
                got.push((probes, width, n, len, hash));
            }
        }
    }
    assert_eq!(got, BULK);
}

/// `(probes, stage) → (pairs, hash)`, recorded at the parent commit.
const SCRIPT: &[(usize, &str, usize, u64)] = &[
    (0, "inserted", 510, 0x35da88c16c6ca642),
    (0, "deleted", 369, 0xd78b9858b77eac1c),
    (0, "compacted", 369, 0xd78b9858b77eac1c),
    (0, "reinserted", 652, 0x8871a11d2e2a74cd),
    (2, "inserted", 1613, 0x0878eb70b48f7be8),
    (2, "deleted", 1192, 0x06af3d16a0ab4637),
    (2, "compacted", 1192, 0x06af3d16a0ab4637),
    (2, "reinserted", 2021, 0x25299cd32f562463),
];

#[test]
fn mutation_script_pair_sets_match_recorded() {
    let mut got = Vec::new();
    for probes in [0, 2] {
        let cfg = LshConfig {
            bands: 3,
            rows_per_band: 6,
            probes,
        };
        let n = 160;
        let rows: Vec<Vec<f32>> = (0..n).map(|i| score_row(i, n, 18, 77)).collect();
        let mut idx = LshIndex::new(cfg).unwrap();
        let mut stage = |idx: &LshIndex, name: &'static str| {
            let (len, hash) = fingerprint(&idx.candidate_pairs());
            got.push((probes, name, len, hash));
        };
        for r in &rows[..120] {
            idx.insert_scores(r).unwrap();
        }
        stage(&idx, "inserted");
        for id in (0..120).step_by(7) {
            idx.delete(id).unwrap();
        }
        stage(&idx, "deleted");
        idx.compact();
        stage(&idx, "compacted");
        for r in &rows[120..] {
            idx.insert_scores(r).unwrap();
        }
        for id in [1, 2, 64, 121, 150, 159] {
            idx.delete(id).unwrap();
        }
        stage(&idx, "reinserted");
        assert_eq!(idx.alive_count(), 160 - 18 - 6);
        assert_eq!(idx.overflow_len(), 40);
    }
    assert_eq!(got, SCRIPT);
}
