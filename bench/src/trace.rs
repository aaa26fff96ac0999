//! Benchmark-owned spans: recorded in memory from `bench/` code around
//! each call into a layer, written out as Chrome-trace JSON when the
//! run ends. Nothing inside the program is instrumented by this file —
//! in-program numbers come from dc-obs counters (see `harness::Obs`).
//!
//! One [`Tracer`] per thread, passed explicitly (no globals, no locks);
//! the per-thread tracers are merged when the trace file is written.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same tracer) of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one repetition or request share this identifier.
    pub run: u32,
}

/// Span recorder for one thread. Disabled tracers run the wrapped code
/// and record nothing, so the untraced pass pays one branch per span.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus what their children cover.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Tracer {
            on,
            epoch,
            tid,
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    /// Tag subsequent spans with repetition / request id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span on this tracer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Record an interval that was timed by the caller (e.g. a socket
    /// phase) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            run: self.run,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Durations in seconds of every span named `name`, in order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Print the self-time table of the merged tracers to stderr.
pub fn print_self_times(tracers: &[&Tracer]) {
    let mut merged: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for t in tracers {
        for (name, tot) in totals_by_name(t.spans()) {
            let m = merged.entry(name).or_default();
            m.count += tot.count;
            m.total_ns += tot.total_ns;
            m.self_ns += tot.self_ns;
        }
    }
    let mut rows: Vec<_> = merged.into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    eprintln!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in rows {
        eprintln!(
            "{:<28} {:>8} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Write the merged tracers as Chrome-trace JSON (`chrome://tracing`,
/// Perfetto): one complete ("X") event per span, `args` carrying the run
/// id and the parent span's name.
pub fn write_chrome(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    for t in tracers {
        for s in t.spans() {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let parent = s.parent.map_or("", |p| t.spans[p].name);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"run\":{},\"parent\":\"{}\"}}}}",
                s.name,
                t.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
                parent
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union covers 10..60 = 50.
            span("b", 30, 60, Some(0)),
            span("leaf", 35, 45, Some(2)),
            // Grandchildren never reduce the root's self time directly.
            span("late", 90, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 20, 10, 10]);
    }

    #[test]
    fn child_overrunning_its_parent_is_clipped() {
        let spans = vec![span("root", 10, 20, None), span("kid", 15, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn totals_group_by_name_and_self_times_sum_to_root() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("stage", 0, 30, Some(0)),
            span("stage", 30, 90, Some(0)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["stage"].count, 2);
        assert_eq!(t["stage"].total_ns, 90);
        assert_eq!(t["rep"].self_ns, 10);
        let self_sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root interval");
    }

    #[test]
    fn tracer_nests_records_and_stays_silent_when_off() {
        let mut tr = Tracer::new(true, Instant::now(), 1);
        tr.set_run(7);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 42));
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].run), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("x", |_| 1), 1);
        off.record("y", Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}
