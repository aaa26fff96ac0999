//! Bit-packed sign signatures.
//!
//! A random-hyperplane signature assigns item `i` one bit per plane:
//! `sign(vᵢ · pⱼ)`. The seed representation (`Vec<bool>`, one dot loop
//! per plane) costs a heap allocation per item and defeats
//! vectorization; here the whole score matrix is one blocked
//! [`dc_tensor::kernel::matmul_t`] call (SIMD-dispatched, pool-parallel
//! above the kernel threshold, bitwise identical for every thread
//! count) and the signs are packed 64 per `u64` word, so a band key is
//! a shift and a mask over a handful of words.

use dc_tensor::kernel;
use dc_tensor::Tensor;

/// Raw hyperplane scores: `vectors · planesᵀ` for `n×d` item vectors
/// and `nbits×d` planes, through the blocked kernel. Row `i` holds the
/// `nbits` margins of item `i`; bit `j` of its signature is
/// `scores[i][j] >= 0`.
///
/// Runs as `matmul(vectors, planesᵀ)` rather than `matmul_t`: the
/// packed register-tiled GEMM sustains far higher throughput on the
/// skinny inner dimension typical of signatures (d « nbits « n), and
/// the one-off transpose of the small plane matrix is noise.
pub fn sign_scores(vectors: &Tensor, planes: &Tensor) -> Tensor {
    assert_eq!(
        vectors.cols, planes.cols,
        "sign_scores: item dim {} vs plane dim {}",
        vectors.cols, planes.cols
    );
    kernel::matmul(vectors, &kernel::transpose(planes))
}

/// `n` bit-packed signatures of `nbits` sign bits each.
#[derive(Clone, Debug)]
pub struct SignatureSet {
    n: usize,
    nbits: usize,
    words_per_sig: usize,
    /// Row-major packed bits: signature `i` occupies
    /// `words[i*words_per_sig .. (i+1)*words_per_sig]`; bit `j` lives
    /// in word `j / 64` at position `j % 64`. Tail bits are zero.
    words: Vec<u64>,
}

impl SignatureSet {
    /// Pack the signs of a precomputed score matrix (`n×nbits`).
    /// A score of exactly `0.0` packs as a set bit, matching the seed's
    /// `>= 0.0` convention.
    pub fn from_scores(scores: &Tensor) -> Self {
        let (n, nbits) = (scores.rows, scores.cols);
        let words_per_sig = nbits.div_ceil(64).max(1);
        let mut words = vec![0u64; n * words_per_sig];
        for i in 0..n {
            let row = scores.row_slice(i);
            let sig = &mut words[i * words_per_sig..(i + 1) * words_per_sig];
            // Branchless word-at-a-time build (the comparison lowers to
            // a SIMD/cmov mask) — the per-bit `if` + indexed `|=` was
            // the single hottest loop of index construction.
            for (slot, chunk) in sig.iter_mut().zip(row.chunks(64)) {
                let mut word = 0u64;
                for (j, &s) in chunk.iter().enumerate() {
                    word |= u64::from(s >= 0.0) << j;
                }
                *slot = word;
            }
        }
        SignatureSet {
            n,
            nbits,
            words_per_sig,
            words,
        }
    }

    /// Compute scores through the blocked kernel and pack their signs.
    pub fn compute(vectors: &Tensor, planes: &Tensor) -> Self {
        Self::from_scores(&sign_scores(vectors, planes))
    }

    /// An empty set of `nbits`-bit signatures, ready for
    /// [`Self::push_scores`] — the growable backing of the incremental
    /// index.
    pub fn with_bits(nbits: usize) -> Self {
        SignatureSet {
            n: 0,
            nbits,
            words_per_sig: nbits.div_ceil(64).max(1),
            words: Vec::new(),
        }
    }

    /// Append one signature packed from a score row (`nbits` margins,
    /// same `>= 0.0` sign convention as [`Self::from_scores`]). Returns
    /// the new signature's index.
    pub fn push_scores(&mut self, row: &[f32]) -> usize {
        assert_eq!(row.len(), self.nbits, "push_scores: score width mismatch");
        let start = self.words.len();
        self.words.resize(start + self.words_per_sig, 0);
        let sig = &mut self.words[start..];
        for (slot, chunk) in sig.iter_mut().zip(row.chunks(64)) {
            let mut word = 0u64;
            for (j, &s) in chunk.iter().enumerate() {
                word |= u64::from(s >= 0.0) << j;
            }
            *slot = word;
        }
        self.n += 1;
        self.n - 1
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the set holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bits per signature.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// The packed words of signature `i`.
    #[inline]
    pub fn sig(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_sig..(i + 1) * self.words_per_sig]
    }

    /// Bit `j` of signature `i`.
    #[inline]
    pub fn bit(&self, i: usize, j: usize) -> bool {
        debug_assert!(j < self.nbits);
        self.sig(i)[j / 64] >> (j % 64) & 1 == 1
    }

    /// Signature `i` unpacked to the seed's `Vec<bool>` layout.
    pub fn to_bools(&self, i: usize) -> Vec<bool> {
        (0..self.nbits).map(|j| self.bit(i, j)).collect()
    }

    /// Gather bits `lo..lo+width` of signature `i` into `out`
    /// (`width.div_ceil(64)` words, little-endian within the band).
    /// Bands need not align to word boundaries.
    pub fn band_key_into(&self, i: usize, lo: usize, width: usize, out: &mut [u64]) {
        debug_assert!(lo + width <= self.nbits, "band beyond signature");
        debug_assert_eq!(out.len(), width.div_ceil(64));
        let sig = self.sig(i);
        for (w, slot) in out.iter_mut().enumerate() {
            let start = lo + w * 64;
            let len = (width - w * 64).min(64);
            *slot = extract_bits(sig, start, len);
        }
    }

    /// How bits `lo..lo+width` of signatures `i` and `j` differ: the
    /// number of differing bits, counted up to 2, and the band-relative
    /// position of the lowest one (meaningful when the count is 1).
    pub(crate) fn band_diff(&self, i: usize, j: usize, lo: usize, width: usize) -> (u32, usize) {
        debug_assert!(lo + width <= self.nbits, "band beyond signature");
        let (si, sj) = (self.sig(i), self.sig(j));
        let (mut count, mut lowest) = (0, 0);
        for w in 0..width.div_ceil(64) {
            let start = lo + w * 64;
            let len = (width - w * 64).min(64);
            let d = extract_bits(si, start, len) ^ extract_bits(sj, start, len);
            if d != 0 {
                if count == 0 {
                    lowest = w * 64 + d.trailing_zeros() as usize;
                }
                count += d.count_ones();
                if count >= 2 {
                    return (2, lowest);
                }
            }
        }
        (count, lowest)
    }
}

/// `len <= 64` bits of `words` starting at bit `start`, right-aligned.
#[inline]
fn extract_bits(words: &[u64], start: usize, len: usize) -> u64 {
    let wi = start / 64;
    let off = start % 64;
    let mut v = words[wi] >> off;
    if off != 0 && wi + 1 < words.len() {
        v |= words[wi + 1] << (64 - off);
    }
    if len < 64 {
        v &= (1u64 << len) - 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes_2d() -> Tensor {
        // Four axis/diagonal planes in 2-D.
        Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    }

    #[test]
    fn packing_matches_score_signs() {
        let v = Tensor::from_vec(3, 2, vec![2.0, 1.0, -1.0, 0.5, -0.25, -4.0]);
        let p = planes_2d();
        let scores = sign_scores(&v, &p);
        let sigs = SignatureSet::compute(&v, &p);
        assert_eq!(sigs.len(), 3);
        assert_eq!(sigs.nbits(), 4);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(sigs.bit(i, j), scores.get(i, j) >= 0.0, "item {i} bit {j}");
            }
        }
    }

    #[test]
    fn band_keys_straddle_word_boundaries() {
        // 100 bits: alternating pattern, extract a band crossing bit 64.
        let scores = Tensor::from_vec(
            1,
            100,
            (0..100)
                .map(|j| if j % 3 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let sigs = SignatureSet::from_scores(&scores);
        let mut key = [0u64; 1];
        sigs.band_key_into(0, 60, 10, &mut key);
        let expect: u64 = (0..10)
            .map(|b| u64::from((60 + b) % 3 == 0) << b)
            .fold(0, |a, x| a | x);
        assert_eq!(key[0], expect);
        // Full multi-word gather round-trips through to_bools.
        let mut wide = [0u64; 2];
        sigs.band_key_into(0, 0, 100, &mut wide);
        let bools = sigs.to_bools(0);
        for (j, &b) in bools.iter().enumerate() {
            assert_eq!(wide[j / 64] >> (j % 64) & 1 == 1, b, "bit {j}");
        }
    }

    #[test]
    fn band_diff_counts_differing_bits_across_words() {
        // Signature 1 differs from signature 0 at bits 3, 70 and 71.
        let mut rows = [[-1.0f32; 130], [-1.0f32; 130]];
        for j in [3, 70, 71] {
            rows[1][j] = 1.0;
        }
        let sigs = SignatureSet::from_scores(&Tensor::from_vec(2, 130, rows.concat()));
        assert_eq!(sigs.band_diff(0, 1, 0, 3), (0, 0));
        assert_eq!(sigs.band_diff(0, 1, 0, 10), (1, 3));
        assert_eq!(sigs.band_diff(0, 1, 2, 68), (1, 1));
        assert_eq!(sigs.band_diff(0, 1, 60, 11), (1, 10));
        assert_eq!(sigs.band_diff(0, 1, 60, 70).0, 2);
        assert_eq!(sigs.band_diff(0, 1, 0, 130).0, 2);
        assert_eq!(sigs.band_diff(1, 1, 0, 130), (0, 0));
    }

    #[test]
    fn zero_scores_pack_as_set_bits() {
        let scores = Tensor::zeros(2, 3);
        let sigs = SignatureSet::from_scores(&scores);
        assert_eq!(sigs.to_bools(0), vec![true; 3]);
        assert_eq!(sigs.sig(0), sigs.sig(1));
    }
}
