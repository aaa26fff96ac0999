//! Mutated-index equivalence suite (ISSUE 9; one index since ISSUE 23).
//!
//! Property: after an arbitrary interleaving of inserts, deletes and
//! compactions — starting from an empty index or from a bulk-built one
//! — [`LshIndex::candidate_pairs`] equals the pair set of a fresh
//! [`LshIndex::from_scores`] rebuild over the live score rows (rebuild
//! ids mapped back through the monotone live-id list). This is the
//! contract dc-serve's mutable per-tenant blocking endpoints rely on:
//! tombstones and the unsorted overflow tier must be invisible to
//! candidate quality.
//!
//! Score rows are drawn on a dyadic grid, but no precision argument is
//! needed here: both sides consume the *same* stored score rows through
//! the same shared signature/flip helpers, so equality is structural,
//! not numeric. The grid just keeps |margins| tying often enough to
//! exercise multi-probe tie-breaking.

use dc_index::{LshConfig, LshIndex};
use dc_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic dyadic score row (`k/8`, |k| ≤ 32).
fn score_row(nbits: usize, seed: u64) -> Vec<f32> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        | 1;
    (0..nbits)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) % 65) as i64 - 32) as f32 / 8.0
        })
        .collect()
}

fn score_matrix(rows: &[&Vec<f32>], nbits: usize) -> Tensor {
    let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
    Tensor::from_vec(rows.len(), nbits, data)
}

/// Pair set of a fresh bulk build over the live rows, with the
/// rebuild's dense ids mapped back to the mutated index's ids. The live
/// list is ascending, so the map is monotone and `(min, max)` order
/// survives.
fn rebuild_pairs(inc: &LshIndex, rows: &[Vec<f32>]) -> Vec<(usize, usize)> {
    let live: Vec<usize> = (0..rows.len()).filter(|&i| inc.is_alive(i)).collect();
    let nbits = inc.config().bands * inc.config().rows_per_band;
    let live_rows: Vec<&Vec<f32>> = live.iter().map(|&i| &rows[i]).collect();
    let mut pairs: Vec<(usize, usize)> =
        LshIndex::from_scores(&score_matrix(&live_rows, nbits), inc.config())
            .unwrap()
            .candidate_pairs()
            .into_iter()
            .map(|(a, b)| (live[a], live[b]))
            .collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    // The mutation script is a vec of `(kind, arg)` codes: kind 0..=3
    // is an insert (weighted ×4 so scripts grow), 4..=5 deletes the
    // live item at rank `arg % live_count`, 6 compacts.
    #[test]
    fn interleaved_mutations_match_full_rebuild(
        bands in 1usize..4,
        rows_per_band in 1usize..6,
        probes in 0usize..3,
        seed in 0u64..1_000_000,
        // 0 starts from an empty index; otherwise from a bulk build
        // over this many rows (everything in the sorted tier, no
        // compaction behind it).
        bulk in 0usize..40,
        ops in collection::vec((0u8..7, 0usize..64), 1..48),
    ) {
        let cfg = LshConfig { bands, rows_per_band, probes };
        let nbits = bands * rows_per_band;
        let mut rows: Vec<Vec<f32>> = (0..bulk)
            .map(|i| score_row(nbits, seed ^ ((i as u64) << 20)))
            .collect();
        let mut inc = if bulk == 0 {
            LshIndex::new(cfg).unwrap()
        } else {
            let all: Vec<&Vec<f32>> = rows.iter().collect();
            LshIndex::from_scores(&score_matrix(&all, nbits), cfg).unwrap()
        };
        prop_assert_eq!(inc.overflow_len(), 0);
        let mut checks = 0usize;
        for (step, &(kind, arg)) in ops.iter().enumerate() {
            match kind {
                0..=3 => {
                    let row = score_row(nbits, seed ^ ((rows.len() as u64) << 20));
                    let id = inc.insert_scores(&row).unwrap();
                    prop_assert_eq!(id, rows.len());
                    rows.push(row);
                }
                4..=5 => {
                    let live: Vec<usize> =
                        (0..rows.len()).filter(|&i| inc.is_alive(i)).collect();
                    if !live.is_empty() {
                        inc.delete(live[arg % live.len()]).unwrap();
                    }
                }
                _ => {
                    inc.compact();
                    prop_assert_eq!(inc.overflow_len(), 0);
                }
            }
            // Checking after every step is O(ops · rebuild); thin to
            // every third step plus the end to keep the suite fast
            // while still covering mid-script states.
            if step % 3 == 0 {
                prop_assert_eq!(inc.candidate_pairs(), rebuild_pairs(&inc, &rows));
                checks += 1;
            }
        }
        prop_assert_eq!(inc.candidate_pairs(), rebuild_pairs(&inc, &rows));
        prop_assert!(checks > 0);
        prop_assert_eq!(
            inc.alive_count(),
            (0..rows.len()).filter(|&i| inc.is_alive(i)).count()
        );
    }
}
