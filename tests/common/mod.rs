//! The benchmark's `curate_lake` input, shared by the suites that pin
//! `Pipeline::run` on it.

use autodc::pipeline::PipelineConfig;
use autodc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `bench/`'s `curate_lake` input: two dirty shards of one
/// `people_table(rows)` around a products decoy.
pub fn bench_lake(seed: u64, rows: usize) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(seed);
    let decoy = autodc::datagen::products_table(rows / 2, &mut rng);
    let clean = autodc::datagen::people_table(rows, &mut rng);
    let fds = autodc::datagen::people_fds();
    let inj = ErrorInjector {
        typo_rate: 0.01,
        null_rate: 0.05,
        swap_rate: 0.0,
        fd_violation_rate: 0.02,
        abbreviation_rate: 0.01,
    };
    let (mut a, _) = inj.inject(&clean, &fds, &mut rng);
    a.name = "people_a".into();
    let (mut b, _) = inj.inject(&clean, &fds, &mut rng);
    b.name = "people_b".into();
    vec![a, decoy, b]
}

/// The benchmark's pipeline configuration for that lake.
pub fn config() -> PipelineConfig {
    PipelineConfig::default()
        .with_query("people name city country")
        .with_top_k_tables(3)
}

/// The rng state the benchmark starts a run of `seed` from.
pub fn run_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)
}
