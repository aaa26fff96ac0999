//! Cross-PR bit-identity gate: `Pipeline::run` on the benchmark's
//! `curate_lake` shape must keep returning the report counts and the
//! curated rows recorded at commit 4a8b4ac, under the curated table's
//! recorded name. A change that is allowed to move them (ROADMAP item
//! 5) re-records the values below and says so. A smaller run on the same
//! shape must report its stage spans and match counters through dc-obs.

mod common;

use autodc::pipeline::Pipeline;
use common::{bench_lake, config, run_rng};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `bench/`'s FNV-1a hash over the curated table's canonical cells.
fn table_hash(t: &autodc::prelude::Table) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = |b: &[u8]| {
        for &x in b {
            h = (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in &t.rows {
        for v in row {
            bytes(v.canonical().as_bytes());
            bytes(&[0x1f]);
        }
        bytes(&[0x1e]);
    }
    h
}

/// `[rows_in, candidates, clusters_merged, repairs, cells_imputed,
/// rows_out]`, the curated-table hash and the curated table's name.
fn run(seed: u64) -> ([usize; 6], u64, String) {
    let tables = bench_lake(seed, 500);
    let (curated, r) = Pipeline::new(config()).run(&tables, &mut run_rng(seed));
    (
        [
            r.rows_in,
            r.candidates,
            r.clusters_merged,
            r.repairs,
            r.cells_imputed,
            curated.len(),
        ],
        table_hash(&curated),
        curated.name,
    )
}

// Recorded at 4a8b4ac, before `crates/embed/src/sgns.rs` was touched.
// One test per seed so the harness runs them side by side.
#[test]
fn pipeline_matches_recorded_run_seed_1400() {
    let want = [1000, 205_062, 397, 23, 134, 600];
    assert_eq!(
        run(1400),
        (want, 17_044_172_058_070_481_369, "people_a_curated".into())
    );
}

#[test]
fn pipeline_matches_recorded_run_seed_1401() {
    let want = [1000, 210_660, 399, 37, 128, 600];
    assert_eq!(
        run(1401),
        (want, 2_440_263_404_913_319_505, "people_a_curated".into())
    );
}

#[test]
fn pipeline_matches_recorded_run_seed_1402() {
    let want = [1000, 202_758, 392, 28, 156, 606];
    assert_eq!(
        run(1402),
        (want, 2_019_352_408_565_082_555, "people_a_curated".into())
    );
}

#[test]
fn pipeline_reports_stage_spans_and_match_counters() {
    let tables = bench_lake(1400, 80);
    dc_obs::set_enabled(true);
    dc_obs::reset();
    let (_, report) = Pipeline::new(config()).run(&tables, &mut StdRng::seed_from_u64(7));
    let obs = dc_obs::report();
    dc_obs::set_enabled(false);

    let counter = |name: &str| {
        obs.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // >= : the other tests in this binary may be matching concurrently.
    assert!(counter("er.match.pairs") >= report.candidates as u64);
    assert!(counter("er.match.filtered") > 0);
    assert!(counter("er.match.verified") > 0);
    for span in [
        "pipeline.discover",
        "pipeline.integrate",
        "pipeline.clean",
        "er.block",
        "er.match",
    ] {
        assert!(
            obs.spans.iter().any(|s| s.name == span),
            "span {span} missing from {:?}",
            obs.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
}
