//! dc-obs over SGNS training: the draw stage counts every negative it
//! draws, and the time the updates wait for draws is recorded. Its own
//! test binary, because dc-obs counters are process-wide and any other
//! training running beside it would add to them.

use dc_embed::{Embeddings, SgnsConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (center, context) groups in one pass over `corpus`, counted the
/// plain way: every ordered pair of distinct positions at most
/// `window` apart.
fn groups(corpus: &[Vec<String>], window: usize) -> u64 {
    corpus
        .iter()
        .map(|doc| {
            let n = doc.len();
            (0..n)
                .flat_map(|a| (0..n).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && a.abs_diff(b) <= window)
                .count() as u64
        })
        .sum()
}

#[test]
fn draws_are_groups_times_negative() {
    let mut rng = StdRng::seed_from_u64(4);
    // Documents of 0 to 12 tokens, so some centres have fewer than
    // `window` neighbours on a side and some documents have none.
    let corpus: Vec<Vec<String>> = (0..300)
        .map(|i| {
            (0..i % 13)
                .map(|_| format!("w{}", rng.gen_range(0..40)))
                .collect()
        })
        .collect();
    let config = SgnsConfig::default()
        .with_window(3)
        .with_negative(4)
        .with_epochs(2)
        .with_dim(8);
    assert_eq!(config.subsample, None);

    dc_obs::set_enabled(true);
    dc_obs::reset();
    Embeddings::train(&corpus, &config, &mut rng);
    let report = dc_obs::report();
    dc_obs::set_enabled(false);

    let draws = report
        .counters
        .iter()
        .find(|(name, _)| name == "embed.sgns.draws")
        .map(|&(_, n)| n);
    let want = config.epochs as u64 * groups(&corpus, config.window) * config.negative as u64;
    assert_eq!(draws, Some(want));
    // At least one chunk of draws was waited for.
    let wait = report
        .timers
        .iter()
        .find(|t| t.name == "embed.sgns.draw_wait")
        .expect("draw_wait is recorded");
    assert!(wait.hist.count >= 1, "{:?}", wait.hist);
}
