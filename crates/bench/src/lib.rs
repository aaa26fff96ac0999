//! # dc-bench
//!
//! The experiment harness: every figure and quantitative prose claim of
//! *"Data Curation with Deep Learning"* (EDBT 2020) mapped to a
//! regenerable table (see `DESIGN.md` §3 for the index and
//! `EXPERIMENTS.md` for recorded results).
//!
//! Each module exposes `run(scale) -> Vec<ExperimentTable>`; the
//! `report` binary prints them as markdown. The `bench_*` binaries
//! record the per-layer `BENCH_*.json` snapshots.

pub mod autoencoders;
pub mod cleaning;
pub mod discovery;
pub mod entity_resolution;
pub mod pipeline;
pub mod representations;
pub mod synthesis;
pub mod weak_supervision;

/// How much compute an experiment may spend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment; used by tests and `report --quick`.
    Quick,
    /// The EXPERIMENTS.md setting.
    Full,
}

impl Scale {
    /// Pick `q` under [`Scale::Quick`], else `f`.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// One result table of an experiment.
#[derive(Clone, Debug)]
pub struct ExperimentTable {
    /// Experiment id, e.g. `"E3"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Build with headers.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        ExperimentTable {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Format a float to 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float to 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// All experiments in id order.
pub fn run_all(scale: Scale) -> Vec<ExperimentTable> {
    let mut out = Vec::new();
    out.extend(representations::run(scale));
    out.extend(entity_resolution::run(scale));
    out.extend(discovery::run(scale));
    out.extend(cleaning::run(scale));
    out.extend(synthesis::run(scale));
    out.extend(weak_supervision::run(scale));
    out.extend(pipeline::run(scale));
    out.extend(autoencoders::run(scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = ExperimentTable::new("E0", "demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = ExperimentTable::new("E0", "demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
