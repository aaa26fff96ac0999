//! Observability must be *observational*: turning `DC_OBS` recording
//! on cannot change a single bit of trained weights. The dc-obs hooks
//! in the tape, the worker pool and `run_dataset_epochs` never draw from the
//! training rng, so identical seeds must give bitwise-identical
//! classifiers whether the registry records or not — under any
//! `DC_THREADS` setting (`scripts/lint.sh` runs this under 1 and 2).

use dc_datagen::{ErBenchmark, ErSuite};
use dc_embed::{Embeddings, SgnsConfig};
use dc_er::{Composition, DeepEr, DeepErConfig};
use dc_relational::tokenize_tuple;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, OnceLock};

/// Serialise tests that flip the process-global dc-obs gate.
fn gate_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Train a small DeepER end-to-end from seed 7 and return every
/// classifier weight as raw bits.
fn train_once(obs_on: bool, composition: Composition) -> Vec<u32> {
    dc_obs::set_enabled(obs_on);
    let mut rng = StdRng::seed_from_u64(7);
    let bench = ErBenchmark::generate(ErSuite::Clean, 20, 2, &mut rng);
    let docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
    let emb = Embeddings::train(
        &docs,
        &SgnsConfig::default().with_dim(8).with_epochs(2),
        &mut rng,
    );
    let pairs = bench.labeled_pairs(2, &mut rng);
    let tp: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a, p.b)).collect();
    let tl: Vec<bool> = pairs.iter().map(|p| p.label).collect();
    let model = DeepEr::train(
        emb,
        &bench.table,
        &tp,
        &tl,
        composition,
        DeepErConfig::default().with_epochs(3),
        &mut rng,
    );
    dc_obs::set_enabled(false);
    model
        .classifier
        .layers
        .iter()
        .flat_map(|l| l.w.data.iter().chain(&l.b.data).map(|v| v.to_bits()))
        .collect()
}

#[test]
fn average_composition_weights_identical_with_obs_on_and_off() {
    let _guard = gate_lock().lock().expect("gate lock");
    let off = train_once(false, Composition::Average);
    let on = train_once(true, Composition::Average);
    assert_eq!(off, on, "DC_OBS recording perturbed Average training");
}

#[test]
fn lstm_composition_weights_identical_with_obs_on_and_off() {
    let _guard = gate_lock().lock().expect("gate lock");
    let comp = Composition::Lstm {
        hidden: 4,
        max_tokens: 6,
    };
    let off = train_once(false, comp.clone());
    let on = train_once(true, comp);
    assert_eq!(off, on, "DC_OBS recording perturbed LSTM training");
}
