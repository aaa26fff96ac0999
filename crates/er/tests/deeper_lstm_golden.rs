//! Cross-PR bit-identity gate for the nn path, the DeepER counterpart of
//! `tests/pipeline_golden.rs`: a fixed-seed `DeepEr::train` with the
//! LSTM composition must keep producing the epoch loss trace, the
//! trained encoder weights and the `predict` / `try_predict_aligned`
//! outputs recorded at 82d0e14, the commit before ISSUE 21 touched
//! `crates/nn/src/lstm.rs`. A change that is allowed to move them
//! re-records the values below and says so.

use dc_datagen::{ErBenchmark, ErSuite};
use dc_embed::{Embeddings, SgnsConfig};
use dc_er::{Composition, DeepEr, DeepErConfig};
use dc_nn::LstmEncoder;
use dc_relational::tokenize_tuple;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

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

fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// The trained encoder, dug out of the model's checkpoint tree (the
/// composition state is private to dc-er).
fn trained_encoder(model: &DeepEr) -> LstmEncoder {
    fn field<T: Deserialize>(v: &serde::Value, key: &str) -> T {
        serde::from_field(v.as_object().expect("checkpoint object"), key).expect("checkpoint")
    }
    let composition: serde::Value = field(&model.to_value(), "composition");
    let lstm: serde::Value = field(&composition, "Lstm");
    field(&lstm, "encoder")
}

#[test]
fn deeper_lstm_matches_recorded_run() {
    // dc-obs carries the per-epoch loss series out of `DeepEr::train`;
    // `obs_equiv.rs` proves recording never moves a trained bit.
    dc_obs::set_enabled(true);
    dc_obs::reset();
    let mut rng = StdRng::seed_from_u64(2100);
    let bench = ErBenchmark::generate(ErSuite::Clean, 24, 2, &mut rng);
    let docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
    let emb = Embeddings::train(
        &docs,
        &SgnsConfig::default().with_dim(8).with_epochs(2),
        &mut rng,
    );
    let labeled = bench.labeled_pairs(2, &mut rng);
    let (train, test) = ErBenchmark::split_pairs(&labeled, 0.7, &mut rng);
    let tp: Vec<(usize, usize)> = train.iter().map(|p| (p.a, p.b)).collect();
    let tl: Vec<bool> = train.iter().map(|p| p.label).collect();
    let ep: Vec<(usize, usize)> = test.iter().map(|p| (p.a, p.b)).collect();
    let model = DeepEr::train(
        emb,
        &bench.table,
        &tp,
        &tl,
        Composition::Lstm {
            hidden: 6,
            max_tokens: 7,
        },
        DeepErConfig::default().with_epochs(4).with_lr(0.02),
        &mut rng,
    );
    dc_obs::set_enabled(false);

    let report = dc_obs::report();
    let losses = &report
        .series
        .iter()
        .find(|(name, _)| name == "er.deeper_lstm.loss")
        .expect("epoch loss series")
        .1;
    assert_eq!(losses.len(), 4, "one loss per epoch");
    let loss_hash = fnv(losses.iter().map(|&l| (l as f32).to_bits()));

    let enc = trained_encoder(&model);
    assert_eq!((enc.wx.rows, enc.wx.cols), (8, 24));
    let weight_hash = fnv(bits(&enc.wx.data)
        .chain(bits(&enc.wh.data))
        .chain(bits(&enc.b.data)));

    let packed = model.predict(&bench.table, &ep);
    let aligned = model.try_predict_aligned(&bench.table, &ep).unwrap();
    assert!(!ep.is_empty() && packed.iter().all(|p| p.is_finite()));

    // Recorded at 82d0e14.
    assert_eq!(
        (
            loss_hash,
            weight_hash,
            fnv(bits(&packed)),
            fnv(bits(&aligned))
        ),
        (
            6_545_868_595_364_642_437,
            7_382_010_490_372_689_814,
            4_511_770_807_207_491_977,
            6_107_862_977_068_369_178
        )
    );
}
