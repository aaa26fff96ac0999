//! Regenerate the experiment tables recorded in `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin report            # all, full scale
//! cargo run --release -p dc-bench --bin report -- --quick # fast smoke pass
//! cargo run --release -p dc-bench --bin report -- e3 e4   # selected ids
//! cargo run --release -p dc-bench --bin report -- --check report_full.md
//! ```
//!
//! `--check <file>` regenerates the report and compares it with the
//! recorded one byte for byte, E13 excluded (its table is CPU
//! wall-clock), exiting non-zero on any difference.

use dc_bench::{run_all, ExperimentTable, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let check = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("usage: report --check <recorded report.md>");
            std::process::exit(2)
        })
    });
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && Some(*a) != check.as_ref())
        .map(|a| a.to_lowercase())
        .collect();

    let selected: Vec<ExperimentTable> = run_selected(scale, &wanted);
    let mut report = format!(
        "# AutoDC experiment report ({} scale)\n\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    );
    for table in &selected {
        report.push_str(&table.to_markdown());
        report.push('\n');
    }
    if let Some(path) = check {
        let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("report --check: cannot read {path}: {e}");
            std::process::exit(2)
        });
        let (got, want) = (deterministic(&report), deterministic(&recorded));
        if got != want {
            eprintln!("report --check: {path} differs from the regenerated report (E13 excluded):");
            for (g, w) in got.iter().zip(&want).filter(|(g, w)| g != w) {
                eprint!("  - {w}  + {g}");
            }
            if got.len() != want.len() {
                eprintln!("  {} lines recorded, {} regenerated", want.len(), got.len());
            }
            std::process::exit(1);
        }
        eprintln!("report --check: {path} matches (E13 excluded)");
        return;
    }
    print!("{report}");
    if dc_obs::enabled() {
        // With DC_OBS set, append the full observability report the
        // experiments accumulated: tape per-op timings, worker-pool
        // occupancy, LSH candidate counters, per-model loss series.
        println!("## Observability (dc-obs)\n");
        println!("```json\n{}\n```", dc_obs::report().to_json());
    }
    eprintln!("({} experiment tables)", selected.len());
}

/// The report's lines, newlines kept, without E13's section: its table
/// is CPU wall-clock, the one part of the report that differs from run
/// to run.
fn deterministic(report: &str) -> Vec<&str> {
    let mut in_e13 = false;
    report
        .split_inclusive('\n')
        .filter(|line| {
            if line.starts_with("### ") {
                in_e13 = line.starts_with("### E13 ");
            }
            !in_e13
        })
        .collect()
}

fn run_selected(scale: Scale, wanted: &[String]) -> Vec<ExperimentTable> {
    if wanted.is_empty() {
        return run_all(scale);
    }
    // Run only the modules the requested ids need, then filter.
    let mut tables = Vec::new();
    let need = |prefixes: &[&str]| -> bool {
        wanted
            .iter()
            .any(|w| prefixes.iter().any(|p| w.starts_with(p)))
    };
    if need(&["e1", "e2"]) {
        tables.extend(dc_bench::representations::run(scale));
    }
    if need(&["e3", "e4", "e5", "e13"]) {
        tables.extend(dc_bench::entity_resolution::run(scale));
    }
    if need(&["e6", "e7"]) {
        tables.extend(dc_bench::discovery::run(scale));
    }
    if need(&["e8", "e9"]) {
        tables.extend(dc_bench::cleaning::run(scale));
    }
    if need(&["e10"]) {
        tables.extend(dc_bench::synthesis::run(scale));
    }
    if need(&["e11", "e12"]) {
        tables.extend(dc_bench::weak_supervision::run(scale));
    }
    if need(&["e14"]) {
        tables.extend(dc_bench::pipeline::run(scale));
    }
    if need(&["e15"]) {
        tables.extend(dc_bench::autoencoders::run(scale));
    }
    tables.retain(|t| {
        let id = t.id.to_lowercase();
        wanted
            .iter()
            .any(|w| id == *w || id.starts_with(w.as_str()))
    });
    tables
}
