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
//! At the end of every script [`LshIndex::for_each_pair`] is also held
//! to a brute-force oracle over every live `i < j`: it emits a pair iff
//! some band witnesses it — equal band keys, or keys one bit apart where
//! that bit is among either item's probed lowest-|margin| bits — and it
//! emits each pair exactly once, `candidate_pairs().len()` calls in all.
//! Bands wider than 64 bits (multi-word keys) are among the inputs.
//!
//! Score rows are drawn on a dyadic grid, but no precision argument is
//! needed here: both sides consume the *same* stored score rows through
//! the same shared signature/flip helpers, so equality is structural,
//! not numeric. The grid just keeps |margins| tying often enough to
//! exercise multi-probe tie-breaking. With `family > 0` the rows are
//! near-copies of a few prototypes, so that wide bands collide too and
//! one-bit neighbours meet through a probe.

use dc_index::{LshConfig, LshIndex};
use dc_tensor::Tensor;
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// Row `k` of a script: an independent [`score_row`] when `family` is
/// 0, else a copy of prototype `k % family` with, on every other copy,
/// bit `k·31 mod nbits` flipped at margin 1/16 (below every nonzero grid
/// value, so probes reach it early).
fn script_row(nbits: usize, seed: u64, k: usize, family: usize) -> Vec<f32> {
    if family == 0 {
        return score_row(nbits, seed ^ ((k as u64) << 20));
    }
    let mut row = score_row(nbits, seed ^ (((k % family) as u64) << 20));
    if (k / family) % 2 == 1 {
        let bit = k * 31 % nbits;
        row[bit] = if row[bit] >= 0.0 { -0.0625 } else { 0.0625 };
    }
    row
}

/// The candidate pairs banding defines, by brute force over every live
/// `i < j` of the score rows and without the index: some band has equal
/// keys, or keys differing in one bit that `i` or `j` probes (its
/// `probes` lowest-|margin| band bits, ties to the lower bit).
fn oracle_pairs(inc: &LshIndex, rows: &[Vec<f32>]) -> BTreeSet<(usize, usize)> {
    let cfg = inc.config();
    let width = cfg.rows_per_band;
    let ppb = cfg.probes.min(width);
    // Per live row and band: its sign bits and its probed bits.
    let bands = |row: &Vec<f32>| -> Vec<(Vec<bool>, Vec<usize>)> {
        row.chunks(width)
            .map(|band| {
                let mut order: Vec<usize> = (0..width).collect();
                order.sort_by(|&x, &y| band[x].abs().total_cmp(&band[y].abs()).then(x.cmp(&y)));
                order.truncate(ppb);
                (band.iter().map(|&s| s >= 0.0).collect(), order)
            })
            .collect()
    };
    let live: Vec<usize> = (0..rows.len()).filter(|&i| inc.is_alive(i)).collect();
    let sigs: Vec<_> = live.iter().map(|&i| bands(&rows[i])).collect();
    let mut pairs = BTreeSet::new();
    for (x, (&i, si)) in live.iter().zip(&sigs).enumerate() {
        for (&j, sj) in live[x + 1..].iter().zip(&sigs[x + 1..]) {
            let witnessed = si.iter().zip(sj).any(|((bi, pi), (bj, pj))| {
                let diff: Vec<usize> = (0..width).filter(|&t| bi[t] != bj[t]).collect();
                match diff[..] {
                    [] => true,
                    [bit] => pi.contains(&bit) || pj.contains(&bit),
                    _ => false,
                }
            });
            if witnessed {
                pairs.insert((i, j));
            }
        }
    }
    pairs
}

/// `for_each_pair` emits exactly the oracle's pairs, as `(min, max)`,
/// each once: as many calls as `candidate_pairs()` has entries.
fn check_emitter(inc: &LshIndex, rows: &[Vec<f32>]) -> Result<(), TestCaseError> {
    let mut calls = 0usize;
    let mut emitted = BTreeSet::new();
    inc.for_each_pair(|i, j| {
        calls += 1;
        emitted.insert((i, j));
    });
    prop_assert_eq!(calls, emitted.len(), "a pair was emitted twice");
    prop_assert_eq!(calls, inc.candidate_pairs().len());
    prop_assert_eq!(emitted, oracle_pairs(inc, rows));
    Ok(())
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
        width in 1usize..6,
        // 1 widens every band by 64 bits: multi-word keys of 65–69 bits.
        wide in 0usize..2,
        probes in 0usize..3,
        seed in 0u64..1_000_000,
        // 0: independent rows; otherwise near-copies of this many
        // prototypes.
        family in 0usize..4,
        // 0 starts from an empty index; otherwise from a bulk build
        // over this many rows (everything in the sorted tier, no
        // compaction behind it).
        bulk in 0usize..40,
        ops in collection::vec((0u8..7, 0usize..64), 1..48),
    ) {
        let rows_per_band = width + 64 * wide;
        let cfg = LshConfig { bands, rows_per_band, probes };
        let nbits = bands * rows_per_band;
        let mut rows: Vec<Vec<f32>> = (0..bulk)
            .map(|i| script_row(nbits, seed, i, family))
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
                    let row = script_row(nbits, seed, rows.len(), family);
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
        check_emitter(&inc, &rows)?;
        prop_assert!(checks > 0);
        prop_assert_eq!(
            inc.alive_count(),
            (0..rows.len()).filter(|&i| inc.is_alive(i)).count()
        );
    }
}
