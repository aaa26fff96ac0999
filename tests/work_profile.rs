//! Exact work profile of `Pipeline::run` on the benchmark's `curate_lake`
//! input at seed 1400, compared to `tests/work_profile.json`.
//!
//! Wall-clock figures on a shared host drift by tens of percent; work
//! counts do not. The profile holds the dc-obs counters of the pipeline's
//! hot paths (blocking, matching, SGNS) and, from a counting global
//! allocator, the run's allocation count, bytes allocated and peak
//! live bytes. A change that does more or less work — or holds more
//! memory — shows up here as an integer diff, however noisy the host.
//! The same run must also report the pipeline's stage spans
//! (`pipeline.{discover,integrate,clean}`, `er.block`, `er.match`).
//!
//! Allocation figures repeat only single-threaded; the counting
//! allocator and the comparison live in `tests/common/profile.rs`.

mod common;
#[path = "common/profile.rs"]
mod profile;

use autodc::pipeline::Pipeline;
use common::{bench_lake, config, run_rng};
use profile::{assert_matches_recorded, counting_allocs, Profile};

/// Counters whose value is fixed by the input alone: any thread count,
/// any host.
fn profiled(name: &str) -> bool {
    name.starts_with("index.candidates_")
        || name.starts_with("er.match.")
        || name == "embed.sgns.draws"
}

#[test]
fn curate_lake_work_profile_matches_the_recorded_one() {
    let tables = bench_lake(1400, 500);
    let mut rng = run_rng(1400);
    let pipeline = Pipeline::new(config());
    dc_obs::set_enabled(true);
    dc_obs::reset();
    let (out, alloc) = counting_allocs(|| pipeline.run(&tables, &mut rng));
    drop(out);
    let obs = dc_obs::report();
    dc_obs::set_enabled(false);

    // The pipeline's stages are readable from the program's own report.
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

    let mut got = Profile::new();
    got.insert(
        "counters".into(),
        obs.counters
            .into_iter()
            .filter(|(name, _)| profiled(name))
            .collect(),
    );
    got.insert("alloc".into(), alloc);
    assert_matches_recorded(
        got,
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/work_profile.json"),
    );
}
