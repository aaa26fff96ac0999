//! Filter–verify equivalence suite (ISSUE 12): `RuleMatcher::predict`
//! decides most pairs from per-column upper bounds and only refines the
//! survivors, so it must still return *exactly*
//! `score(a, b) >= threshold` for every pair — including thresholds that
//! sit on an observed score, where one ulp of difference in the sum
//! would flip the label. `RuleMatcher::score` is the oracle.
//!
//! `scripts/lint.sh` runs this suite under `DC_THREADS=1`, `=2`, and the
//! default, like the other equivalence suites (the matcher itself starts
//! no threads).

use dc_er::baselines::RuleMatcher;
use dc_relational::{AttrType, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Letters the random texts draw from: ASCII, multi-byte, and one
/// outside the BMP, so char counts differ from byte counts.
const ALPHABET: [char; 12] = [
    'a', 'b', 'c', 'e', 'é', 'ß', 'ж', '日', '本', '🙂', ' ', '-',
];

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..10) {
        0 => Value::Null,
        1 => Value::text(""),
        // Int(3), Float(3.0) and Text("3") share the canonical "3".
        2 => Value::Int(rng.gen_range(-3..120)),
        3 => Value::Float(f64::from(rng.gen_range(-2..6)) / 2.0),
        4 => Value::Bool(rng.gen_bool(0.5)),
        5 => Value::text(rng.gen_range(0..6).to_string()),
        _ => {
            let len = rng.gen_range(1..14);
            Value::text(
                (0..len)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect::<String>(),
            )
        }
    }
}

/// A typo of `v`'s canonical string: one char inserted, deleted or
/// replaced. Insertions and deletions put the edit distance *on* the
/// length bound, where a bound that is off by one would show.
fn typo(v: &Value, rng: &mut StdRng) -> Value {
    let mut chars: Vec<char> = v.canonical().chars().collect();
    let letter = ALPHABET[rng.gen_range(0..ALPHABET.len())];
    let at = rng.gen_range(0..=chars.len());
    match rng.gen_range(0..3) {
        0 => chars.insert(at, letter),
        1 if at < chars.len() => {
            chars.remove(at);
        }
        _ if at < chars.len() => chars[at] = letter,
        _ => chars.push(letter),
    }
    Value::text(chars.into_iter().collect::<String>())
}

/// A table whose column `c` draws its cells from a pool of `pools[c]`
/// values, half of them fresh and half typos of an earlier one: small
/// pools take the tabulated path, pools past the matcher's cut-off the
/// length-bound path.
fn random_table(rows: usize, pools: &[usize], rng: &mut StdRng) -> Table {
    let attrs: Vec<(String, AttrType)> = (0..pools.len())
        .map(|c| (format!("c{c}"), AttrType::Text))
        .collect();
    let attrs: Vec<(&str, AttrType)> = attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut table = Table::new("t", Schema::new(&attrs));
    let pools: Vec<Vec<Value>> = pools
        .iter()
        .map(|&k| {
            let mut pool: Vec<Value> = Vec::with_capacity(k);
            for _ in 0..k {
                let v = match pool.len() {
                    n if n > 0 && rng.gen_bool(0.5) => typo(&pool[rng.gen_range(0..n)], rng),
                    _ => random_value(rng),
                };
                pool.push(v);
            }
            pool
        })
        .collect();
    for _ in 0..rows {
        table.push(
            pools
                .iter()
                .map(|pool| pool[rng.gen_range(0..pool.len())].clone())
                .collect(),
        );
    }
    table
}

proptest! {
    #[test]
    fn predict_is_score_against_threshold(
        rows in 1usize..120,
        arity in 0usize..6,
        n_pairs in 0usize..150,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pools: Vec<usize> = (0..arity)
            .map(|_| if rng.gen_bool(0.5) { rng.gen_range(1..8) } else { rng.gen_range(70..200) })
            .collect();
        let table = random_table(rows, &pools, &mut rng);
        // Unordered, with self pairs and repeats.
        let mut pairs: Vec<(usize, usize)> = (0..n_pairs)
            .map(|_| (rng.gen_range(0..rows), rng.gen_range(0..rows)))
            .collect();
        if let Some(&first) = pairs.first() {
            pairs.push(first);
            pairs.push((first.0, first.0));
        }
        let score = |m: &RuleMatcher, (a, b): (usize, usize)| m.score(&table.rows[a], &table.rows[b]);

        // Fixed thresholds, then for a few observed scores the score
        // itself and its two f64 neighbours.
        let mut thresholds = vec![0.0, 0.35, 0.82, 1.0, 1.5, f64::NAN];
        for &pair in pairs.iter().take(4) {
            let s = score(&RuleMatcher::new(0.0), pair);
            thresholds.push(s);
            if s > 0.0 {
                thresholds.push(f64::from_bits(s.to_bits() - 1));
                thresholds.push(f64::from_bits(s.to_bits() + 1));
            }
        }
        for threshold in thresholds {
            let matcher = RuleMatcher::new(threshold);
            let got = matcher.predict(&table, &pairs);
            prop_assert_eq!(got.len(), pairs.len());
            for (&pair, &label) in pairs.iter().zip(&got) {
                let s = score(&matcher, pair);
                prop_assert!(
                    label == (s >= threshold),
                    "pair {:?}: predict {} but score {} vs threshold {}",
                    pair, label, s, threshold
                );
            }
        }
    }
}

/// The pipeline hands `predict` the blocker's candidate *set*; labels
/// must line up with the set's iteration order.
#[test]
fn predict_accepts_a_candidate_set() {
    let mut rng = StdRng::seed_from_u64(5);
    let table = random_table(40, &[3, 90, 4], &mut rng);
    let set: dc_er::blocking::Candidates = (0..300)
        .map(|_| (rng.gen_range(0..40), rng.gen_range(0..40)))
        .collect();
    let matcher = RuleMatcher::new(0.5);
    let labels = matcher.predict(&table, &set);
    assert_eq!(labels.len(), set.len());
    for (&(a, b), label) in set.iter().zip(labels) {
        assert_eq!(label, matcher.score(&table.rows[a], &table.rows[b]) >= 0.5);
    }
}
