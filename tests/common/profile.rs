//! The work-profile harness shared by the suites that pin a run's exact
//! work: a counting global allocator and the checked-in profile format.
//!
//! Include it with `#[path = "common/profile.rs"] mod profile;` from the
//! suite's root file. It installs the binary's `#[global_allocator]`, so
//! only suites that count allocations may include it.
//!
//! Allocation figures repeat only single-threaded: `scripts/lint.sh`
//! runs these suites under `DC_THREADS=1`, and at any other thread
//! count [`assert_matches_recorded`] compares everything but the
//! `alloc` section. On a mismatch it prints the observed profile in the
//! file's format, ready to be reviewed and recorded.

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

/// Sections of named integers, as in the checked-in JSON file.
pub type Profile = BTreeMap<String, BTreeMap<String, u64>>;

/// Run `f` with this thread's allocations counted. Returns its result
/// and the `alloc` section — count, bytes allocated, peak live bytes —
/// read before the result is dropped. Call it once per test binary: the
/// figures are not reset between calls.
pub fn counting_allocs<R>(f: impl FnOnce() -> R) -> (R, BTreeMap<String, u64>) {
    PROFILED.with(|p| p.set(true));
    let out = f();
    PROFILED.with(|p| p.set(false));
    let alloc = [
        ("count", ALLOCS.load(Relaxed)),
        ("bytes", BYTES.load(Relaxed)),
        ("peak_live_bytes", PEAK.load(Relaxed) as u64),
    ];
    (
        out,
        alloc.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    )
}

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

/// Assert that `got` equals the profile recorded at `path`, leaving the
/// `alloc` section out of the comparison unless the run was on one
/// thread.
pub fn assert_matches_recorded(mut got: Profile, path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut want: Profile = serde_json::from_str(&text).expect("the recorded profile parses");
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
