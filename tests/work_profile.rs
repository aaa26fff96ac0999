//! Exact work profile of `Pipeline::run` on the benchmark's `curate_lake`
//! input at seed 1400, compared to `tests/work_profile.json`.
//!
//! Wall-clock figures on a shared host drift by tens of percent; work
//! counts do not. The profile holds the dc-obs counters of the pipeline's
//! hot paths (blocking, matching, SGNS) and, from the counting global
//! allocator below, the run's allocation count, bytes allocated and peak
//! live bytes. A change that does more or less work — or holds more
//! memory — shows up here as an integer diff, however noisy the host.
//! The same run must also report the pipeline's stage spans
//! (`pipeline.{discover,integrate,clean}`, `er.block`, `er.match`).
//!
//! Allocation figures repeat only single-threaded: `scripts/lint.sh`
//! runs this suite under `DC_THREADS=1`, and at any other thread count
//! only the counters are compared. On a mismatch the test prints the
//! observed profile in the file's format, ready to be reviewed and
//! recorded.

mod common;

use autodc::pipeline::Pipeline;
use common::{bench_lake, config, run_rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// `System`, counting every allocation the profiled thread makes (a
/// `realloc` counts as one of its new size) and tracking its live and
/// peak live bytes. Other threads — the test harness's own — are not
/// counted: their allocations race the run.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static PROFILED: Cell<bool> = const { Cell::new(false) };
}

fn profiled_thread() -> bool {
    PROFILED.try_with(Cell::get).unwrap_or(false)
}

fn note_alloc(size: usize) {
    if profiled_thread() {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note_dealloc(size: usize) {
    if profiled_thread() {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only updates atomics and a const-initialised thread-local `Cell`,
// neither of which allocates, and never for a failed (null) allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counters whose value is fixed by the input alone: any thread count,
/// any host.
fn profiled(name: &str) -> bool {
    name.starts_with("index.candidates_")
        || name.starts_with("er.match.")
        || name == "embed.sgns.draws"
}

type Profile = BTreeMap<String, BTreeMap<String, u64>>;

/// The profile in the checked-in file's layout: sorted keys, one entry
/// per line.
fn render(profile: &Profile) -> String {
    let sections: Vec<String> = profile
        .iter()
        .map(|(section, entries)| {
            let lines: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("    \"{k}\": {v}"))
                .collect();
            format!("  \"{section}\": {{\n{}\n  }}", lines.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

#[test]
fn curate_lake_work_profile_matches_the_recorded_one() {
    let tables = bench_lake(1400, 500);
    let mut rng = run_rng(1400);
    let pipeline = Pipeline::new(config());
    dc_obs::set_enabled(true);
    dc_obs::reset();
    PROFILED.with(|p| p.set(true));
    let out = pipeline.run(&tables, &mut rng);
    PROFILED.with(|p| p.set(false));
    let alloc = [
        ("count", ALLOCS.load(Relaxed)),
        ("bytes", BYTES.load(Relaxed)),
        ("peak_live_bytes", PEAK.load(Relaxed) as u64),
    ];
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
    got.insert(
        "alloc".into(),
        alloc.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/work_profile.json");
    let text = std::fs::read_to_string(path).expect("tests/work_profile.json");
    let mut want: Profile = serde_json::from_str(&text).expect("work_profile.json parses");
    if dc_tensor::kernel::configured_threads() != 1 {
        got.remove("alloc");
        want.remove("alloc");
    }
    assert!(
        got == want,
        "work profile moved; observed (alloc figures exact at DC_THREADS=1 only):\n{}",
        render(&got)
    );
}
