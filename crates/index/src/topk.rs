//! Exact top-k selection under a total score order.
//!
//! The seed retrieval paths all follow the same shape: score every
//! item, `collect` into a `Vec`, full `sort_by(partial_cmp.expect(..))`
//! — an `O(n log n)` sort for a k-item answer and a panic the moment a
//! NaN score appears (zero vectors make `cosine` return NaN). [`TopK`]
//! replaces that with a bounded binary heap (`O(n log k)`) under a
//! *total* order: higher score is better (or lower, for
//! [`Order::Smallest`]), NaN sinks below every real score, and ties
//! break toward the smaller index — exactly the order a stable
//! descending sort over `(score, index)` would produce, so seed tie
//! semantics are preserved.
//!
//! [`topk_scores`] runs the scan in fixed-grain chunks over the shared
//! worker pool and merges the per-chunk winners in chunk order. Because
//! the order is total, the top-k set *and* its order are unique —
//! identical for every `DC_THREADS` setting and every chunking. It is
//! the one retrieval scan in the workspace: it never narrows the
//! candidate set, so every caller gets the exact answer.

use dc_tensor::kernel;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One retrieval result: item index and its score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// Index of the item in the scanned collection.
    pub index: usize,
    /// The item's score, as produced by the scoring function.
    pub score: f32,
}

/// Whether larger or smaller scores win.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Keep the k largest scores (similarities).
    Largest,
    /// Keep the k smallest scores (distances).
    Smallest,
}

/// Map a score to a `u64` "goodness": strictly monotone in the winning
/// direction, with every NaN mapped to 0 (worse than any real score).
/// The f32→u32 step is the standard sign-flip trick (negative floats
/// reverse order when viewed as raw bits).
#[inline]
fn goodness(order: Order, score: f32) -> u64 {
    if score.is_nan() {
        return 0;
    }
    let bits = score.to_bits();
    let monotone = if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    } as u64;
    match order {
        Order::Largest => monotone + 1,
        Order::Smallest => (1u64 << 32) - monotone,
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    good: u64,
    index: usize,
    score: f32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.good == other.good && self.index == other.index
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    /// Greater = better: higher goodness, ties toward the lower index.
    fn cmp(&self, other: &Self) -> Ordering {
        self.good
            .cmp(&other.good)
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// Bounded selector for the k best `(index, score)` pairs seen so far.
pub struct TopK {
    k: usize,
    order: Order,
    /// Min-heap on `Entry`'s "better" order: the root is the current
    /// worst survivor, evicted when a better entry arrives.
    heap: BinaryHeap<Reverse<Entry>>,
}

impl TopK {
    /// Selector keeping the `k` best under `order`.
    pub fn new(k: usize, order: Order) -> Self {
        TopK {
            k,
            order,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(1 << 20)),
        }
    }

    /// Keep the `k` largest scores.
    pub fn largest(k: usize) -> Self {
        Self::new(k, Order::Largest)
    }

    /// Keep the `k` smallest scores.
    pub fn smallest(k: usize) -> Self {
        Self::new(k, Order::Smallest)
    }

    /// Offer one scored item.
    #[inline]
    pub fn push(&mut self, index: usize, score: f32) {
        if self.k == 0 {
            return;
        }
        let entry = Entry {
            good: goodness(self.order, score),
            index,
            score,
        };
        if self.heap.len() < self.k {
            self.heap.push(Reverse(entry));
        } else if entry > self.heap.peek().expect("non-empty at capacity").0 {
            self.heap.pop();
            self.heap.push(Reverse(entry));
        }
    }

    /// Number of survivors held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The survivors, best first.
    pub fn into_sorted(self) -> Vec<Hit> {
        let mut entries: Vec<Entry> = self.heap.into_iter().map(|r| r.0).collect();
        entries.sort_unstable_by(|a, b| b.cmp(a));
        entries
            .into_iter()
            .map(|e| Hit {
                index: e.index,
                score: e.score,
            })
            .collect()
    }
}

/// Minimum items scanned per chunk of the parallel top-k scan. Chunk
/// boundaries are a pure function of `(n, k)`, so the merge order — and
/// therefore the result — never depends on the thread count.
const SCAN_GRAIN: usize = 1024;

/// Select the k best of `score(0..n)`, best first.
///
/// Chunks run over the shared worker pool when it has threads to offer,
/// and the per-chunk survivors are re-pushed in chunk order into one
/// selector (a `Hit`'s score recomputes its key exactly). The total
/// order makes the answer unique, so serial and parallel scans agree
/// bit-for-bit for every chunking. Chunks grow from [`SCAN_GRAIN`] to
/// `4k` for large `k` so a chunk can actually reject items (a chunk
/// narrower than `k` keeps everything and the merge degenerates into a
/// full rescan).
pub fn topk_scores(
    n: usize,
    k: usize,
    order: Order,
    score: impl Fn(usize) -> f32 + Sync,
) -> Vec<Hit> {
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let scan = |lo: usize, hi: usize| {
        let mut top = TopK::new(k, order);
        for i in lo..hi {
            top.push(i, score(i));
        }
        top.into_sorted()
    };
    let grain = SCAN_GRAIN.max(k.saturating_mul(4));
    let chunks = n.div_ceil(grain);
    if chunks <= 1 || kernel::pool().threads() <= 1 {
        return scan(0, n);
    }
    let mut partials: Vec<Vec<Hit>> = Vec::with_capacity(chunks);
    partials.resize_with(chunks, Vec::new);
    kernel::parallel_fill(&mut partials, |c| scan(c * grain, ((c + 1) * grain).min(n)));
    let mut merged = TopK::new(k, order);
    for hit in partials.iter().flatten() {
        merged.push(hit.index, hit.score);
    }
    merged.into_sorted()
}

/// Comparator for descending score sorts with NaN sinking last —
/// drop-in replacement for the seed's
/// `b.partial_cmp(a).expect("finite scores")` panic sites.
pub fn desc_nan_last(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.partial_cmp(&a).expect("both finite"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_largest_best_first() {
        let scores = [0.2f32, 0.9, -0.5, 0.9, 0.1];
        let mut top = TopK::largest(3);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i, s);
        }
        let hits = top.into_sorted();
        let got: Vec<(usize, f32)> = hits.iter().map(|h| (h.index, h.score)).collect();
        // Tie at 0.9 breaks toward index 1.
        assert_eq!(got, vec![(1, 0.9), (3, 0.9), (0, 0.2)]);
    }

    #[test]
    fn smallest_order_selects_distances() {
        let scores = [3.0f32, -1.0, 2.0, -1.0];
        let mut top = TopK::smallest(2);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i, s);
        }
        let got: Vec<usize> = top.into_sorted().iter().map(|h| h.index).collect();
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn nan_sinks_below_every_real_score() {
        let scores = [f32::NAN, -1.0e30, f32::NAN, 0.0];
        let mut top = TopK::largest(3);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i, s);
        }
        let got: Vec<usize> = top.into_sorted().iter().map(|h| h.index).collect();
        // Real scores first, then the earliest NaN.
        assert_eq!(got, vec![3, 1, 0]);
        // Same in Smallest order.
        let mut top = TopK::smallest(1);
        top.push(0, f32::NAN);
        top.push(1, f32::INFINITY);
        assert_eq!(top.into_sorted()[0].index, 1);
    }

    #[test]
    fn zero_k_and_zero_n_are_empty() {
        assert!(topk_scores(10, 0, Order::Largest, |_| 1.0).is_empty());
        assert!(topk_scores(0, 5, Order::Largest, |_| 1.0).is_empty());
        let mut top = TopK::largest(0);
        top.push(0, 1.0);
        assert!(top.is_empty());
    }

    #[test]
    fn negative_zero_ties_positive_zero() {
        let mut top = TopK::largest(2);
        top.push(0, -0.0);
        top.push(1, 0.0);
        let hits = top.into_sorted();
        // -0.0 < 0.0 under the bit order, so +0.0 wins.
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[1].index, 0);
    }

    #[test]
    fn parallel_scan_matches_serial_reference() {
        // > SCAN_GRAIN items so the chunked path engages when the pool
        // has threads; the result must match a full sort either way.
        let n = 3000;
        let score = |i: usize| ((i as f32) * 0.37).sin();
        let hits = topk_scores(n, 7, Order::Largest, score);
        let mut all: Vec<(usize, f32)> = (0..n).map(|i| (i, score(i))).collect();
        all.sort_by(|a, b| desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0)));
        let expect: Vec<usize> = all[..7].iter().map(|&(i, _)| i).collect();
        let got: Vec<usize> = hits.iter().map(|h| h.index).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn desc_nan_last_orders_for_sorts() {
        let mut v = [0.5f32, f32::NAN, 2.0, -1.0];
        v.sort_by(|a, b| desc_nan_last(*a, *b));
        assert_eq!(v[0], 2.0);
        assert_eq!(v[1], 0.5);
        assert_eq!(v[2], -1.0);
        assert!(v[3].is_nan());
    }
}
