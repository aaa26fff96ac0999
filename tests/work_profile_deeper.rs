//! Exact work profile of a DeepER-LSTM train + predict, compared to
//! `tests/work_profile_deeper.json`: the `train_deeper` benchmark's
//! shape (dirty ER suite, SGNS dim 24, `Lstm { hidden: 32, max_tokens:
//! 16 }`, pair-by-pair training) at a smaller size.
//!
//! The profile holds the tape's recorded nodes and buffer-pool hits and
//! misses, the run's allocation count, bytes allocated and peak live
//! bytes (exact at `DC_THREADS=1` only; see `tests/common/profile.rs`),
//! the bit pattern of every epoch loss, and an FNV-1a hash of the
//! predicted scores. A change to the LSTM's tape graph, the pool, the
//! epoch loop or a kernel that records more or fewer nodes, holds more
//! memory or moves a trained bit shows up here as an integer diff.

#[path = "common/profile.rs"]
mod profile;

use dc_datagen::{ErBenchmark, ErSuite};
use dc_embed::{Embeddings, SgnsConfig};
use dc_er::{Composition, DeepEr, DeepErConfig};
use dc_relational::tokenize_tuple;
use profile::{assert_matches_recorded, counting_allocs, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 1400;
const ENTITIES: usize = 40;
const EPOCHS: usize = 2;

/// Counters fixed by the run's shape alone: any thread count, any host.
const COUNTERS: [&str; 3] = ["tape.nodes", "tape.pool.hit", "tape.pool.miss"];

/// FNV-1a over a stream of 32-bit words (little-endian bytes).
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn deeper_lstm_work_profile_matches_the_recorded_one() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let bench = ErBenchmark::generate(ErSuite::Dirty, ENTITIES, 2, &mut rng);
    let docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
    let emb = Embeddings::train(
        &docs,
        &SgnsConfig::default().with_dim(24).with_epochs(3),
        &mut rng,
    );
    let labeled = bench.labeled_pairs(2, &mut rng);
    let pairs: Vec<(usize, usize)> = labeled.iter().map(|p| (p.a, p.b)).collect();
    let labels: Vec<bool> = labeled.iter().map(|p| p.label).collect();

    dc_obs::set_enabled(true);
    dc_obs::reset();
    let (scores, alloc) = counting_allocs(|| {
        let model = DeepEr::train(
            emb,
            &bench.table,
            &pairs,
            &labels,
            Composition::Lstm {
                hidden: 32,
                max_tokens: 16,
            },
            DeepErConfig::default().with_epochs(EPOCHS).with_lr(0.004),
            &mut rng,
        );
        model.predict(&bench.table, &pairs)
    });
    let obs = dc_obs::report();
    dc_obs::set_enabled(false);
    assert!(scores.iter().all(|s| s.is_finite()));

    let losses = &obs
        .series
        .iter()
        .find(|(name, _)| name == "er.deeper_lstm.loss")
        .expect("epoch loss series")
        .1;
    assert_eq!(losses.len(), EPOCHS, "one loss per epoch");

    let mut got = Profile::new();
    got.insert(
        "counters".into(),
        COUNTERS
            .iter()
            .map(|&name| {
                let v = obs.counters.iter().find(|(n, _)| n == name);
                (name.to_string(), v.map_or(0, |&(_, v)| v))
            })
            .collect(),
    );
    got.insert("alloc".into(), alloc);
    got.insert(
        "loss_bits".into(),
        losses
            .iter()
            .enumerate()
            .map(|(e, &l)| (format!("epoch{e}"), u64::from((l as f32).to_bits())))
            .collect(),
    );
    got.insert(
        "predict".into(),
        [
            ("pairs".to_string(), scores.len() as u64),
            (
                "score_hash".to_string(),
                fnv(scores.iter().map(|s| s.to_bits())),
            ),
        ]
        .into_iter()
        .collect(),
    );
    assert_matches_recorded(
        got,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/work_profile_deeper.json"
        ),
    );
}
