//! What every workload shares: repeated timed set-up, the time-bounded
//! measurement loop, output checks counted as attempted/failed, peak
//! RSS, and readers over a `dc_obs::report()` snapshot.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// How one invocation was asked to run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Per-layer pass (benchmark spans + dc-obs on) instead of the
    /// end-to-end pass.
    pub trace: bool,
    /// Tiny inputs, every check, for CI.
    pub smoke: bool,
}

impl RunOpts {
    /// How often set-up is repeated: three times where `setup_s` is
    /// reported (its median), once where it is not.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            3
        }
    }
}

/// Metric name → value, as measured.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or correctness checks for batch
    /// workloads) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Sample count behind each percentile-type metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// Why the run's *timings* should not be trusted (the generator fell
    /// behind, the host pulled a replay apart). The outputs were still
    /// checked, so this never touches `failed`.
    pub invalid: Vec<String>,
}

/// Output checks for batch workloads; each one counts as an attempted
/// operation in `fail_share`. Conditions on how the *measurement* went
/// are kept apart as notes: what the host's scheduler did says nothing
/// about whether the program's outputs are right.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub invalid: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// A condition on the measurement, not on an output: when it does
    /// not hold the run is marked invalid, and nothing counts as failed.
    pub fn valid(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("RUN INVALID: {what}");
            self.invalid.push(what);
        }
    }

    /// Add these checks to the run's attempted / failed counts and notes.
    pub fn record(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.invalid.extend(self.invalid.iter().cloned());
    }
}

/// Set up `reps` times, keep the last state, and report the median
/// set-up time in seconds. Set-up ends when the first measured
/// operation could begin, so each workload's `f` includes its warm-up.
pub fn timed_setup<S>(reps: usize, mut f: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        // Drop the previous state first so peak RSS holds one copy.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), stats::median(&times))
}

/// Repeat `op` until `seconds` have elapsed (at least once). Returns
/// each call's result, each call's duration in seconds, and the wall
/// time of the whole loop.
pub fn run_for<T>(seconds: f64, mut op: impl FnMut(usize) -> T) -> (Vec<T>, Vec<f64>, f64) {
    let (mut results, mut times) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        results.push(op(results.len()));
        times.push(t.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (results, times, t0.elapsed().as_secs_f64())
}

/// The five end-to-end metrics: `work` units were completed in `wall_s`
/// seconds, and `op_s` holds each operation's time in seconds.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, work: f64, wall_s: f64, op_s: &[f64]) {
    let ms = stats::sorted(&op_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("work_per_s", work / wall_s);
    m.insert("op_p50_ms", stats::percentile(&ms, 0.50));
    m.insert("op_p95_ms", stats::percentile(&ms, 0.95));
    out.samples.insert("op_p50_ms", ms.len());
    out.samples.insert("op_p95_ms", ms.len());
}

/// Peak resident set of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream: the output fingerprints compared across
/// repetitions.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// Readers over one dc-obs snapshot (taken after `dc_obs::reset()`, so
/// values cover exactly the traced section).
pub struct Obs(pub dc_obs::ObsReport);

impl Obs {
    pub fn snapshot() -> Self {
        Obs(dc_obs::report())
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.0
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }

    /// Summed seconds of every timer whose name starts with `prefix`.
    pub fn timers_s(&self, prefix: &str) -> f64 {
        self.0
            .timers
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.hist.sum_ns as f64 / 1e9)
            .sum::<f64>()
            // An empty sum is -0.0; print it as 0.
            + 0.0
    }

    /// Mean microseconds of the timer named exactly `name`.
    pub fn timer_mean_us(&self, name: &str) -> f64 {
        self.0
            .timers
            .iter()
            .find(|t| t.name == name && t.hist.count > 0)
            .map_or(0.0, |t| t.hist.sum_ns as f64 / t.hist.count as f64 / 1e3)
    }

    /// dc-tensor figures every traced workload reports; `steps` is the
    /// number of training steps the section ran (0 when none).
    pub fn tensor_metrics(&self, m: &mut Metrics, steps: f64) {
        let (hit, miss) = (
            self.counter("tape.pool.hit"),
            self.counter("tape.pool.miss"),
        );
        let (jobs, inline) = (
            self.counter("pool.jobs"),
            self.counter("pool.serial_inline"),
        );
        m.insert("tensor.fwd_s", self.timers_s("tape.fwd."));
        m.insert("tensor.bwd_s", self.timers_s("tape.bwd."));
        m.insert(
            "tensor.tape_nodes_per_step",
            ratio(self.counter("tape.nodes"), steps),
        );
        m.insert("tensor.pool_hit_ratio", ratio(hit, hit + miss));
        m.insert(
            "tensor.pool_high_water_bytes",
            self.gauge("tape.pool.bytes"),
        );
        m.insert("tensor.kernel_jobs", jobs);
        m.insert(
            "tensor.kernel_parallel_share",
            if jobs > 0.0 { 1.0 - inline / jobs } else { 0.0 },
        );
    }
}

/// By how many percent `a` exceeds `b` (0 when `b` is 0).
pub fn pct_over(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a / b - 1.0) * 100.0
    }
}

/// The value under `key` of a JSON object.
pub fn field<'v>(v: &'v serde::Value, key: &str) -> Option<&'v serde::Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_for_runs_at_least_once_and_stops_on_time() {
        let (r, t, wall) = run_for(0.0, |i| i);
        assert_eq!((r, t.len()), (vec![0], 1));
        assert!(wall >= 0.0);
        let (r, _, wall) = run_for(0.02, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(r.len() >= 2 && (0.02..1.0).contains(&wall));
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || "fine".into());
        c.check(false, || "expected failure in test".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        // A bad measurement is a note on the run, not a failed output.
        c.valid(true, || "fine".into());
        c.valid(false, || "expected note in test".into());
        let mut out = Outcome::default();
        c.record(&mut out);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.invalid, ["expected note in test"]);
    }

    #[test]
    fn fnv_separates_bit_patterns() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f32s(&[0.0]);
        b.f32s(&[-0.0]);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
