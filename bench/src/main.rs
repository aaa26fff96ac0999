//! `autodc-bench`: the repo's end-to-end ledger. See `README.md`.
//!
//! ```text
//! run.sh --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--aa [--workload NAME]]
//! ```
//!
//! With `--workload` (and no `--aa`) the workload runs in this process
//! and the last line of standard output is one JSON object — the form
//! `BENCHMARK.json`'s command is driven in. `correct` in it speaks for the
//! program's outputs only; a run whose timings the host spoiled prints a
//! `# INVALID` line above it and is counted by the suite. Without it, every workload
//! runs in a child process of its own and a table is printed.

mod harness;
mod http;
mod loadgen;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use harness::{Outcome, RunOpts};
use metrics::{Spec, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;
use workloads::{curate, serve, store, train};

/// Where traces, results and the store's temporary files go, relative to
/// the working directory `run.sh` sets (`bench/`).
const OUT_DIR: &str = "out";

/// Parsed command line.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub aa: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1400,
        seconds: 0.0,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut seconds = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
                seconds = Some(s);
            }
            // `--trace 0|1` as the driver passes it; bare `--trace` = 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    cli.trace = false;
                }
                Some("1") => {
                    i += 1;
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    cli.seconds = seconds.unwrap_or_else(|| if cli.smoke { 1.0 } else { suite::run_seconds() });
    Ok(cli)
}

/// Run one workload in this process.
fn run_workload(name: &str, opts: &RunOpts) -> Outcome {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).expect("create bench/out");
    let (mut out, tracers) = match name {
        "curate_lake" => curate::run(curate::Shape::Lake, opts),
        "curate_wide" => curate::run(curate::Shape::Wide, opts),
        "train_deeper" => train::run(opts),
        "stream_store" => store::run(opts, out_dir),
        "serve_open" => serve::run(serve::Loop::Open, opts),
        "serve_keepalive" => serve::run(serve::Loop::KeepAlive, opts),
        other => unreachable!("parse_cli admitted workload {other:?}"),
    };
    if opts.trace {
        let refs: Vec<&trace::Tracer> = tracers.iter().collect();
        trace::print_self_times(&refs);
        // The smoke gate writes no files.
        if !opts.smoke {
            let path = out_dir.join(format!("trace-{name}.json"));
            trace::write_chrome(&path, &refs).expect("write the trace file");
            eprintln!("trace: bench/{}", path.display());
        }
    }
    // Every name of the pass is printed; a layer the workload bypasses
    // did no work and reads 0. End-to-end metrics are never absent.
    let specs = if opts.trace { PER_LAYER } else { END_TO_END };
    for &(metric, _, _) in specs {
        let v = out.metrics.get(metric).copied();
        assert!(
            opts.trace || v.is_some_and(|v| v.is_finite() && v != 0.0),
            "{name}: end-to-end metric {metric} missing or zero ({v:?})"
        );
        out.metrics
            .insert(metric, v.filter(|v| v.is_finite()).unwrap_or(0.0));
    }
    out
}

/// The result object the driver reads from the last line.
fn result_json(out: &Outcome, specs: &[Spec]) -> String {
    let metrics = specs
        .iter()
        .map(|&(name, unit, _)| {
            let fields = vec![
                ("value".to_string(), Value::F64(out.metrics[name])),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ];
            (name.to_string(), Value::Object(fields))
        })
        .collect();
    let obj = Value::Object(vec![
        ("correct".to_string(), Value::Bool(out.failed == 0)),
        (
            "attempted".to_string(),
            Value::I64(out.attempted.max(1) as i64),
        ),
        ("failed".to_string(), Value::I64(out.failed as i64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&obj).expect("serialize the result")
}

/// `workload name value unit n=samples`, one line per metric.
fn print_metrics(workload: &str, specs: &[Spec], out: &Outcome) {
    for &(name, unit, _) in specs {
        let n = out.samples.get(name);
        let samples = n.map_or(String::new(), |n| format!(" n={n}"));
        println!(
            "{workload:<16} {name:<32} {:>16.6} {unit}{samples}",
            out.metrics[name]
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("autodc-bench: {e}");
            std::process::exit(2);
        }
    };
    if cli.aa {
        std::process::exit(suite::run_aa(&cli));
    }
    let Some(name) = cli.workload.as_deref() else {
        std::process::exit(suite::run_suite(&cli));
    };
    let opts = RunOpts {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let out = run_workload(name, &opts);
    let specs = if cli.trace { PER_LAYER } else { END_TO_END };
    print_metrics(name, specs, &out);
    for why in &out.invalid {
        println!("{} {name}: {why}", suite::INVALID_MARK);
    }
    println!("{}", result_json(&out, specs));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let c = cli(&[
            "--workload",
            "serve_open",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("serve_open"), 7, 12.0, false)
        );
        assert!(
            cli(&["--workload", "serve_open", "--trace", "1"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bare_trace_means_on_and_does_not_eat_the_next_flag() {
        let c = cli(&["--trace", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke && c.workload.is_none());
        assert_eq!(c.seconds, 1.0, "smoke runs are short");
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seconds", "61"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        for &(name, _, _) in END_TO_END {
            out.metrics.insert(name, 1.5);
        }
        out.attempted = 3;
        let v: Value = serde_json::from_str(&result_json(&out, END_TO_END)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
