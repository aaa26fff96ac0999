//! dc-obs: a std-only observability substrate that costs (almost)
//! nothing when it is off.
//!
//! The repo's hot layers — the autograd tape, the worker pool, the LSH
//! index, the training loops — want per-stage counters and latency
//! histograms, but the kernels cannot afford any overhead in normal
//! runs. The contract here is:
//!
//! * Everything is gated on [`enabled()`], a single relaxed atomic
//!   load plus one branch. The flag is read once from the `DC_OBS`
//!   environment variable (any value other than `0` turns it on) and
//!   cached; tests and benchmarks can override it with
//!   [`set_enabled`]. `scripts/bench_obs.sh` records the measured
//!   disabled-path cost into `BENCH_obs.json`.
//! * When enabled, recording is lock-free: counters are single
//!   `AtomicU64` adds and timers record into per-site histograms with
//!   64 log2 nanosecond buckets (`fetch_add`/`fetch_min`/`fetch_max`
//!   only). The global registry mutex is taken only on the *first*
//!   touch of a dynamically-keyed site (to intern the cell) and when
//!   snapshotting; statically-declared [`Counter`]/[`Hist`] handles
//!   cache their cell in a `OnceLock` so steady-state recording never
//!   looks anything up.
//! * Cells are leaked `&'static` allocations, so after every site has
//!   been touched once the instrumentation allocates nothing (the
//!   zero-alloc test in `tests/zero_cost.rs` pins the disabled path).
//! * [`span`]/[`span!`] give RAII wall-clock scopes with parent/child
//!   nesting tracked per thread; [`report`] snapshots everything into
//!   an [`ObsReport`] whose [`ObsReport::to_json`] output follows the
//!   `BENCH_*.json` style (flat JSON maps, milliseconds for totals).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

/// 0 = uninitialized, 1 = off, 2 = on. Relaxed everywhere: the flag
/// only gates *whether* we record, never the contents of a record, so
/// no ordering with other memory is needed.
static STATE: AtomicU8 = AtomicU8::new(0);

/// True when observability is on. The hot path is one relaxed load
/// and one compare; the environment is consulted only on the very
/// first call per process.
#[inline(always)]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
#[inline(never)]
fn init_from_env() -> bool {
    let on = std::env::var("DC_OBS").map(|v| v != "0").unwrap_or(false);
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Force the gate on or off, overriding the `DC_OBS` environment
/// check. Used by benchmarks (which always want counters) and by tests
/// that must exercise both states in one process.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// Number of log2 latency buckets: bucket `i` holds samples with
/// `bit_width(ns) == i`, i.e. `[2^(i-1), 2^i)` for `i > 0` and the
/// exact value 0 for bucket 0. 64 buckets cover the full u64 range.
pub const HIST_BUCKETS: usize = 64;

struct CounterCell {
    name: String,
    value: AtomicU64,
}

struct GaugeCell {
    name: String,
    value: AtomicU64,
}

struct HistCell {
    name: String,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new(name: String) -> Self {
        HistCell {
            name,
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: self.min_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Log2 bucket for a nanosecond sample: 0 for 0ns, otherwise the bit
/// width of the value (`64 - leading_zeros`), which is ≤ 63 for any
/// value that fits a bucket index after the 0 slot.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

type Key = (&'static str, &'static str);

struct Registry {
    /// Interned cells, keyed `(group, name)`; the values are leaked so
    /// recording holds no lock and no allocation happens after the
    /// first touch of a site.
    counters: Mutex<HashMap<Key, &'static CounterCell>>,
    gauges: Mutex<HashMap<Key, &'static GaugeCell>>,
    hists: Mutex<HashMap<Key, &'static HistCell>>,
    /// Value series (loss curves etc.): append-only vectors, low rate,
    /// so a mutex per push is fine.
    series: Mutex<BTreeMap<String, Vec<f64>>>,
    /// First-observed parent for each span name; "" means top-level.
    span_parents: Mutex<BTreeMap<&'static str, &'static str>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(HashMap::new()),
        gauges: Mutex::new(HashMap::new()),
        hists: Mutex::new(HashMap::new()),
        series: Mutex::new(BTreeMap::new()),
        span_parents: Mutex::new(BTreeMap::new()),
    })
}

fn full_name(group: &str, name: &str) -> String {
    if group.is_empty() {
        name.to_string()
    } else {
        format!("{group}.{name}")
    }
}

impl Registry {
    fn counter(&self, group: &'static str, name: &'static str) -> &'static CounterCell {
        let mut map = self.counters.lock().expect("obs counter registry");
        map.entry((group, name)).or_insert_with(|| {
            Box::leak(Box::new(CounterCell {
                name: full_name(group, name),
                value: AtomicU64::new(0),
            }))
        })
    }

    fn gauge(&self, group: &'static str, name: &'static str) -> &'static GaugeCell {
        let mut map = self.gauges.lock().expect("obs gauge registry");
        map.entry((group, name)).or_insert_with(|| {
            Box::leak(Box::new(GaugeCell {
                name: full_name(group, name),
                value: AtomicU64::new(0),
            }))
        })
    }

    fn hist(&self, group: &'static str, name: &'static str) -> &'static HistCell {
        let mut map = self.hists.lock().expect("obs hist registry");
        map.entry((group, name))
            .or_insert_with(|| Box::leak(Box::new(HistCell::new(full_name(group, name)))))
    }
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// A statically-declared counter. Declare once per site:
///
/// ```
/// static JOBS: dc_obs::Counter = dc_obs::Counter::new("pool.jobs");
/// JOBS.add(1);
/// ```
///
/// The cell pointer is cached after the first enabled-path touch, so
/// steady-state recording is one atomic add; the disabled path is one
/// relaxed load and a branch.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static CounterCell>,
}

impl Counter {
    /// Declare a counter with a fully-qualified dotted name.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Add `n` to the counter (no-op when observability is off).
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| registry().counter("", self.name))
                .value
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one (no-op when observability is off).
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A statically-declared gauge: a last-write-wins level (bytes held,
/// queue depth, high-water marks) rather than a monotonic count.
/// Same cost model as [`Counter`]: one relaxed load + branch when off,
/// one atomic store when on.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static GaugeCell>,
}

impl Gauge {
    /// Declare a gauge with a fully-qualified dotted name.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Set the gauge to `v` (no-op when observability is off).
    #[inline(always)]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| registry().gauge("", self.name))
                .value
                .store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if it is below it (high-water tracking).
    #[inline(always)]
    pub fn raise(&self, v: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| registry().gauge("", self.name))
                .value
                .fetch_max(v, Ordering::Relaxed);
        }
    }
}

/// A statically-declared latency histogram; [`Hist::start`] returns an
/// RAII guard that records elapsed wall-clock nanoseconds on drop.
pub struct Hist {
    name: &'static str,
    cell: OnceLock<&'static HistCell>,
}

impl Hist {
    /// Declare a histogram with a fully-qualified dotted name.
    pub const fn new(name: &'static str) -> Self {
        Hist {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistCell {
        self.cell.get_or_init(|| registry().hist("", self.name))
    }

    /// Start timing; the returned guard records on drop. Inert (and
    /// free of clock reads) when observability is off.
    #[inline(always)]
    pub fn start(&self) -> ScopedTimer {
        ScopedTimer {
            inner: if enabled() {
                Some((Instant::now(), self.cell()))
            } else {
                None
            },
        }
    }

    /// Record an externally-measured duration in nanoseconds.
    #[inline(always)]
    pub fn record_ns(&self, ns: u64) {
        if enabled() {
            self.cell().record(ns);
        }
    }
}

/// RAII timer guard: records elapsed nanoseconds into its histogram
/// when dropped. Obtained from [`Hist::start`] or [`timer`].
pub struct ScopedTimer {
    inner: Option<(Instant, &'static HistCell)>,
}

impl Drop for ScopedTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some((t0, cell)) = self.inner.take() {
            cell.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Add `n` to the dynamically-keyed counter `group.name`. Interns the
/// cell on first touch; later calls take the registry lock briefly to
/// look it up, so prefer a static [`Counter`] on per-element hot paths.
#[inline]
pub fn counter_add(group: &'static str, name: &'static str, n: u64) {
    if enabled() {
        registry()
            .counter(group, name)
            .value
            .fetch_add(n, Ordering::Relaxed);
    }
}

/// Start an RAII timer for the dynamically-keyed histogram
/// `group.name`. Inert when observability is off.
#[inline]
pub fn timer(group: &'static str, name: &'static str) -> ScopedTimer {
    ScopedTimer {
        inner: if enabled() {
            Some((Instant::now(), registry().hist(group, name)))
        } else {
            None
        },
    }
}

/// Record one nanosecond sample into the dynamically-keyed histogram
/// `group.name`.
#[inline]
pub fn record_ns(group: &'static str, name: &'static str, ns: u64) {
    if enabled() {
        registry().hist(group, name).record(ns);
    }
}

/// Append a value to the series `group.name` (loss curves, hit rates
/// over epochs, ...). No-op when observability is off.
pub fn series_push(group: &'static str, name: &'static str, value: f64) {
    if enabled() {
        registry()
            .series
            .lock()
            .expect("obs series registry")
            .entry(full_name(group, name))
            .or_default()
            .push(value);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII span guard from [`span`]/[`span!`]: times the scope and tracks
/// parent/child nesting per thread.
pub struct Span {
    inner: Option<(Instant, &'static HistCell)>,
}

/// Open a named span. Spans behave like timers but additionally record
/// the enclosing span (on the same thread) as their parent, so the
/// report can print a nesting tree. Inert when observability is off;
/// a span opened while off stays inert even if the gate flips before
/// it closes (and vice versa), so guards never unbalance the stack.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let reg = registry();
    let cell = reg.hist("span", name);
    reg.span_parents
        .lock()
        .expect("obs span registry")
        .entry(name)
        .or_insert(parent.unwrap_or(""));
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span {
        inner: Some((Instant::now(), cell)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((t0, cell)) = self.inner.take() {
            cell.record(t0.elapsed().as_nanos() as u64);
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Open a named span bound to the current scope:
/// `let _g = dc_obs::span!("train.epoch");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

// ---------------------------------------------------------------------------
// Snapshots and reporting
// ---------------------------------------------------------------------------

/// A mergeable snapshot of one histogram; the unit test surface for
/// the bucket layout (merge must be order-independent — see
/// `tests/hist_merge.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Largest sample (0 when empty).
    pub max_ns: u64,
    /// Log2 sample buckets; see [`bucket_index`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Record one sample (test/offline construction helper — live
    /// recording goes through the atomic cells).
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Fold another snapshot into this one. Every field update is
    /// commutative and associative (adds, mins, maxes), so merge order
    /// cannot change the result.
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Approximate quantile from the log2 buckets: the upper bound of
    /// the first bucket whose cumulative count reaches `q * count`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i.min(62) };
            }
        }
        self.max_ns
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One timer/span row in an [`ObsReport`].
#[derive(Clone, Debug)]
pub struct TimerReport {
    /// Fully-qualified site name.
    pub name: String,
    /// For spans: the first-observed enclosing span name ("" at top
    /// level); `None` for plain timers.
    pub parent: Option<String>,
    /// The merged histogram.
    pub hist: HistSnapshot,
}

/// A point-in-time snapshot of every counter, timer, span, and series
/// recorded so far. Export with [`ObsReport::to_json`].
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Counter name → value, sorted by name. Zero-valued counters are
    /// kept: a registered-but-never-hit site is itself a signal.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last-set value, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Plain timers, sorted by name.
    pub timers: Vec<TimerReport>,
    /// Spans (timers with nesting), sorted by name.
    pub spans: Vec<TimerReport>,
    /// Series name → recorded values, sorted by name.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Snapshot the global registry. Cheap relative to any workload worth
/// observing; takes each registry lock briefly.
pub fn report() -> ObsReport {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .lock()
        .expect("obs counter registry")
        .values()
        .map(|c| (c.name.clone(), c.value.load(Ordering::Relaxed)))
        .collect();
    counters.sort();

    let mut gauges: Vec<(String, u64)> = reg
        .gauges
        .lock()
        .expect("obs gauge registry")
        .values()
        .map(|c| (c.name.clone(), c.value.load(Ordering::Relaxed)))
        .collect();
    gauges.sort();

    let parents = reg.span_parents.lock().expect("obs span registry").clone();
    let mut timers = Vec::new();
    let mut spans = Vec::new();
    for (&(group, name), cell) in reg.hists.lock().expect("obs hist registry").iter() {
        if group == "span" {
            spans.push(TimerReport {
                name: name.to_string(),
                parent: Some(parents.get(name).copied().unwrap_or("").to_string()),
                hist: cell.snapshot(),
            });
        } else {
            timers.push(TimerReport {
                name: cell.name.clone(),
                parent: None,
                hist: cell.snapshot(),
            });
        }
    }
    timers.sort_by(|a, b| a.name.cmp(&b.name));
    spans.sort_by(|a, b| a.name.cmp(&b.name));

    let series: Vec<(String, Vec<f64>)> = reg
        .series
        .lock()
        .expect("obs series registry")
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();

    ObsReport {
        counters,
        gauges,
        timers,
        spans,
        series,
    }
}

/// Zero every counter and histogram and clear series/span-parent state
/// (interned cells stay registered). For tests and staged benchmarks.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("obs counter registry").values() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.lock().expect("obs gauge registry").values() {
        g.value.store(0, Ordering::Relaxed);
    }
    for h in reg.hists.lock().expect("obs hist registry").values() {
        h.reset();
    }
    reg.series.lock().expect("obs series registry").clear();
    reg.span_parents.lock().expect("obs span registry").clear();
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_hist_fields(out: &mut String, h: &HistSnapshot) {
    let min = if h.count == 0 { 0 } else { h.min_ns };
    out.push_str(&format!(
        "\"count\":{},\"total_ms\":{:.6},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p99_ns\":{}",
        h.count,
        h.sum_ns as f64 / 1e6,
        h.mean_ns(),
        min,
        h.max_ns,
        h.quantile_ns(0.50),
        h.quantile_ns(0.99),
    ));
}

impl ObsReport {
    /// Serialize as a single-line JSON object in the `BENCH_*.json`
    /// style: `{"counters":{...},"timers":{...},"spans":{...},
    /// "series":{...}}`. Hand-rolled so dc-obs stays dependency-free;
    /// the bench crate re-parses it with serde_json to embed it.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"timers\":{");
        for (i, t) in self.timers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{{", json_escape(&t.name)));
            push_hist_fields(&mut out, &t.hist);
            out.push('}');
        }
        out.push_str("},\"spans\":{");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{{", json_escape(&s.name)));
            out.push_str(&format!(
                "\"parent\":\"{}\",",
                json_escape(s.parent.as_deref().unwrap_or(""))
            ));
            push_hist_fields(&mut out, &s.hist);
            out.push('}');
        }
        out.push_str("},\"series\":{");
        for (i, (name, vals)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":[", json_escape(name)));
            for (j, v) in vals.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{v:.6}"));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module mutate the global gate, so they serialize
    /// on one lock (cargo runs #[test] fns in parallel threads).
    fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = gate_lock();
        set_enabled(false);
        reset();
        static C: Counter = Counter::new("test.disabled_counter");
        static H: Hist = Hist::new("test.disabled_hist");
        C.add(5);
        H.record_ns(10);
        drop(H.start());
        counter_add("test", "disabled_dyn", 3);
        record_ns("test", "disabled_dyn_hist", 7);
        series_push("test", "disabled_series", 1.0);
        drop(span("test.disabled_span"));
        set_enabled(true);
        let rep = report();
        assert!(rep
            .counters
            .iter()
            .all(|(n, v)| !n.starts_with("test.disabled") || *v == 0));
        assert!(rep
            .timers
            .iter()
            .all(|t| !t.name.starts_with("test.disabled") || t.hist.count == 0));
        assert!(rep.spans.iter().all(|s| s.name != "test.disabled_span"));
        assert!(rep.series.iter().all(|(n, _)| n != "test.disabled_series"));
        set_enabled(false);
    }

    #[test]
    fn enabled_records_counters_timers_series_spans() {
        let _g = gate_lock();
        set_enabled(true);
        reset();
        static C: Counter = Counter::new("test.on_counter");
        C.add(2);
        C.incr();
        counter_add("test", "on_dyn", 4);
        static G: Gauge = Gauge::new("test.on_gauge");
        G.set(7);
        G.raise(3);
        G.raise(11);
        record_ns("test", "on_hist", 1000);
        record_ns("test", "on_hist", 3000);
        static H: Hist = Hist::new("test.on_static_hist");
        H.record_ns(512);
        drop(H.start());
        series_push("test", "on_series", 0.5);
        series_push("test", "on_series", 0.25);
        {
            let _outer = span("test.outer");
            let _inner = span!("test.inner");
        }
        let rep = report();
        set_enabled(false);
        let get = |n: &str| rep.counters.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("test.on_counter"), Some(3));
        assert_eq!(get("test.on_dyn"), Some(4));
        let gauge = rep.gauges.iter().find(|(k, _)| k == "test.on_gauge");
        assert_eq!(gauge.map(|(_, v)| *v), Some(11));
        let h = rep
            .timers
            .iter()
            .find(|t| t.name == "test.on_hist")
            .unwrap();
        assert_eq!(h.hist.count, 2);
        assert_eq!(h.hist.sum_ns, 4000);
        assert_eq!(h.hist.min_ns, 1000);
        assert_eq!(h.hist.max_ns, 3000);
        let h = rep
            .timers
            .iter()
            .find(|t| t.name == "test.on_static_hist")
            .unwrap();
        assert_eq!(h.hist.count, 2, "one explicit sample, one guard drop");
        assert!(h.hist.min_ns <= 512 && h.hist.max_ns >= 512);
        let inner = rep.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent.as_deref(), Some("test.outer"));
        let outer = rep.spans.iter().find(|s| s.name == "test.outer").unwrap();
        assert_eq!(outer.parent.as_deref(), Some(""));
        assert!(outer.hist.sum_ns >= inner.hist.sum_ns);
        let series = rep
            .series
            .iter()
            .find(|(n, _)| n == "test.on_series")
            .unwrap();
        assert_eq!(series.1, vec![0.5, 0.25]);
        let json = rep.to_json();
        assert!(json.contains("\"test.on_counter\":3"));
        assert!(json.contains("\"test.on_gauge\":11"));
        assert!(json.contains("\"test.inner\":{\"parent\":\"test.outer\""));
        assert!(json.starts_with("{\"counters\":{") && json.ends_with("}}"));
        for section in ["\"timers\":{", "\"spans\":{", "\"series\":{"] {
            assert!(json.contains(section), "missing {section}");
        }
    }

    #[test]
    fn quantiles_and_merge() {
        let mut a = HistSnapshot::default();
        for ns in [10, 20, 30, 40] {
            a.record(ns);
        }
        let mut b = HistSnapshot::default();
        b.record(100_000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.min_ns, 10);
        assert_eq!(ab.max_ns, 100_000);
        assert!(ab.quantile_ns(0.5) >= 16 && ab.quantile_ns(0.5) <= 64);
        assert!(ab.quantile_ns(0.99) >= 65_536);
        assert_eq!(HistSnapshot::default().quantile_ns(0.5), 0);
    }
}
