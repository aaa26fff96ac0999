//! Everything that runs workloads as child processes: the full suite,
//! the smoke gate, and the A/A acceptance check. Bounds, directions and
//! the run length come from `../BENCHMARK.json`, never from this file.

use crate::harness::field;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::{stats, Cli, OUT_DIR};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs per workload in each A/A set — what the acceptance driver takes
/// its quartiles over.
const AA_RUNS: u64 = 10;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        _ => None,
    }
}

/// `../BENCHMARK.json`, as far as this program needs it.
struct Ledger {
    run_seconds: f64,
    /// End-to-end metric → (bound as a share, higher is better).
    bounds: BTreeMap<String, (f64, bool)>,
}

impl Ledger {
    fn parse(text: &str) -> Result<Ledger, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = field(&v, "run_seconds")
            .and_then(number)
            .ok_or("BENCHMARK.json: no run_seconds")?;
        let mut bounds = BTreeMap::new();
        for m in field(&v, "end_to_end")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let text = |k: &str| match field(m, k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: end_to_end entry without {k}")),
            };
            let bound = field(m, "bound")
                .and_then(number)
                .ok_or("BENCHMARK.json: end_to_end entry without bound")?;
            bounds.insert(text("name")?, (bound, text("better")? == "higher"));
        }
        Ok(Ledger {
            run_seconds,
            bounds,
        })
    }

    fn load() -> Ledger {
        let text = std::fs::read_to_string("../BENCHMARK.json")
            .expect("read ../BENCHMARK.json (run through bench/run.sh)");
        Ledger::parse(&text).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The ledger's run length, the default for `--seconds`.
pub fn run_seconds() -> f64 {
    Ledger::load().run_seconds
}

/// How a child's standard output marks a run whose timings are not to be
/// trusted (see `harness::Checks::valid`).
pub const INVALID_MARK: &str = "# INVALID";

/// One child run, as reported on its last line.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// The child's `name value unit n=…` lines.
    table: Vec<String>,
    /// The child's `# INVALID` lines.
    invalid: Vec<String>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.pop().ok_or(format!("{workload} printed nothing"))?;
    let v: Value =
        serde_json::from_str(&last).map_err(|e| format!("{workload} result line: {e}"))?;
    let count = |k: &str| field(&v, k).and_then(number).map(|x| x as u64);
    let mut metrics = BTreeMap::new();
    for (name, m) in field(&v, "metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
    {
        let value = field(m, "value").and_then(number);
        metrics.insert(
            name.clone(),
            value.ok_or(format!("{workload}: {name} has no value"))?,
        );
    }
    let (invalid, table) = lines.into_iter().partition(|l| l.starts_with(INVALID_MARK));
    Ok(ChildRun {
        correct: matches!(field(&v, "correct"), Some(Value::Bool(true))),
        attempted: count("attempted").ok_or("no attempted")?,
        failed: count("failed").ok_or("no failed")?,
        metrics,
        table,
        invalid,
    })
}

fn print_header(cli: &Cli) {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# autodc-bench  commit {commit}  nproc {nproc}  dc-tensor pool threads {}",
        dc_tensor::kernel::configured_threads()
    );
    println!(
        "# seed {}  seconds {}  smoke {}",
        cli.seed, cli.seconds, cli.smoke
    );
    println!(
        "# {:?}",
        dc_serve::ServeConfig::default().with_addr("127.0.0.1:0")
    );
}

fn metrics_value(run: &ChildRun) -> Value {
    Value::Object(
        run.metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect(),
    )
}

/// Every workload, end to end and — with `--trace` or `--smoke` — per
/// layer, each run in a process of its own. Returns the process exit code.
pub fn run_suite(cli: &Cli) -> i32 {
    print_header(cli);
    let (mut ok, mut invalid) = (true, 0);
    let mut results = Vec::new();
    for &w in WORKLOADS {
        let mut entry = Vec::new();
        for trace in [false, true] {
            if trace && !(cli.trace || cli.smoke) {
                continue;
            }
            match run_child(w, cli.seed, cli.seconds, trace, cli.smoke) {
                Ok(run) => {
                    run.table.iter().for_each(|l| println!("{l}"));
                    println!(
                        "{w:<16} {:<32} {:>16.6} ratio ({} of {})",
                        "fail_share",
                        run.failed as f64 / run.attempted.max(1) as f64,
                        run.failed,
                        run.attempted
                    );
                    run.invalid.iter().for_each(|l| println!("{l}"));
                    ok &= run.correct && run.failed == 0;
                    invalid += usize::from(!run.invalid.is_empty());
                    let pass = if trace { "per_layer" } else { "end_to_end" };
                    entry.push((pass.to_string(), metrics_value(&run)));
                    let notes = run.invalid.iter().cloned().map(Value::Str).collect();
                    entry.push((format!("{pass}_invalid"), Value::Array(notes)));
                    entry.push((
                        format!("{pass}_attempted"),
                        Value::I64(run.attempted as i64),
                    ));
                    entry.push((format!("{pass}_failed"), Value::I64(run.failed as i64)));
                }
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    ok = false;
                }
            }
        }
        results.push((w.to_string(), Value::Object(entry)));
    }
    if !cli.smoke {
        let doc = Value::Object(vec![
            ("seed".to_string(), Value::I64(cli.seed as i64)),
            ("seconds".to_string(), Value::F64(cli.seconds)),
            ("workloads".to_string(), Value::Object(results)),
            // This file measures; it never claims a gain.
            ("claim".to_string(), Value::Null),
        ]);
        let path = format!("{OUT_DIR}/results.json");
        std::fs::create_dir_all(OUT_DIR).expect("create bench/out");
        std::fs::write(
            &path,
            serde_json::to_string(&doc).expect("serialize results") + "\n",
        )
        .expect("write results.json");
        println!("# wrote bench/{path}");
    }
    println!(
        "# {}  {invalid} run(s) marked invalid  \"claim\": null",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    i32::from(!ok)
}

/// By how much of `a` the value `b` is worse, given the direction.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Two back-to-back sets of `AA_RUNS` runs per workload on one build,
/// judged as the acceptance driver judges them: every end-to-end
/// metric's inter-quartile spread within its bound (set-up time
/// excepted), and the second set's median not worse than the first's by
/// more than the bound. Returns the process exit code.
pub fn run_aa(cli: &Cli) -> i32 {
    print_header(cli);
    let ledger = Ledger::load();
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // sets[set][workload][metric] = the runs' values.
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> = Vec::new();
    let (mut ok, mut invalid) = (true, 0);
    for set in 0..2 {
        let mut by_workload = BTreeMap::new();
        for &w in &workloads {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for run in 0..AA_RUNS {
                match run_child(w, cli.seed + run, cli.seconds, false, false) {
                    Ok(r) => {
                        ok &= r.correct && r.failed == 0;
                        invalid += usize::from(!r.invalid.is_empty());
                        for (k, v) in r.metrics {
                            values.entry(k).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        ok = false;
                    }
                }
                eprintln!("# set {} {w} run {}/{AA_RUNS}", set + 1, run + 1);
            }
            by_workload.insert(w, values);
        }
        sets.push(by_workload);
    }

    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median_1", "median_2", "spread_1", "spread_2", "worse_by", "bound"
    );
    let mut report = Vec::new();
    for &w in &workloads {
        let mut per_metric = Vec::new();
        for &(name, _, _) in END_TO_END {
            let &(bound, higher) = ledger
                .bounds
                .get(name)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {name}"));
            let empty = Vec::new();
            let (a, b) = (
                sets[0][w].get(name).unwrap_or(&empty),
                sets[1][w].get(name).unwrap_or(&empty),
            );
            let (m1, m2) = (stats::median(a), stats::median(b));
            let (s1, s2) = (stats::iqr_share(a), stats::iqr_share(b));
            let worse = worsening(m1, m2, higher);
            let steady = name == "setup_s" || (s1 <= bound && s2 <= bound);
            let pass = steady && worse <= bound && !a.is_empty() && !b.is_empty();
            ok &= pass;
            println!(
                "{w:<16} {name:<12} {m1:>14.4} {m2:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                s1 * 100.0,
                s2 * 100.0,
                worse * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
            let f = |x: f64| Value::F64(x);
            per_metric.push((
                name.to_string(),
                Value::Object(vec![
                    ("median_1".to_string(), f(m1)),
                    ("median_2".to_string(), f(m2)),
                    ("spread_1".to_string(), f(s1)),
                    ("spread_2".to_string(), f(s2)),
                    ("bound".to_string(), f(bound)),
                ]),
            ));
        }
        report.push((w.to_string(), Value::Object(per_metric)));
    }
    let doc = Value::Object(vec![
        ("seed".to_string(), Value::I64(cli.seed as i64)),
        ("seconds".to_string(), Value::F64(cli.seconds)),
        ("runs_per_set".to_string(), Value::I64(AA_RUNS as i64)),
        ("invalid_runs".to_string(), Value::I64(invalid as i64)),
        ("workloads".to_string(), Value::Object(report)),
        ("claim".to_string(), Value::Null),
    ]);
    let path = format!("{OUT_DIR}/aa.json");
    std::fs::create_dir_all(OUT_DIR).expect("create bench/out");
    std::fs::write(
        &path,
        serde_json::to_string(&doc).expect("serialize A/A report") + "\n",
    )
    .expect("write aa.json");
    println!("# wrote bench/{path}");
    // Invalid runs stay in the sets, as they do in the acceptance
    // driver's: the medians and quartiles have to carry them.
    println!(
        "# {}  {invalid} run(s) marked invalid  \"claim\": null",
        if ok {
            "A/A agrees within every bound"
        } else {
            "A/A FAILED"
        }
    );
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 12.0, false) - 0.20).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    /// The program's metric and workload names are the ledger's.
    #[test]
    fn benchmark_json_lists_exactly_this_programs_names() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let listed = |section: &str| -> Vec<(String, String)> {
            field(&v, section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(
                    |m| match (field(m, "name"), field(m, "unit").or(field(m, "why"))) {
                        (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                        other => panic!("{section}: {other:?}"),
                    },
                )
                .collect()
        };
        let ours = |specs: &[crate::metrics::Spec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|&(n, u, _)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
        for section in ["end_to_end", "per_layer"] {
            for (m, &(_, _, higher)) in field(&v, section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .zip(if section == "end_to_end" {
                    END_TO_END
                } else {
                    PER_LAYER
                })
            {
                let better = matches!(field(m, "better"), Some(Value::Str(s)) if s == "higher");
                assert_eq!(better, higher, "{section} {:?}", field(m, "name"));
            }
        }
        let ledger = Ledger::parse(&text).unwrap();
        assert_eq!(ledger.bounds.len(), END_TO_END.len());
        assert!(ledger.bounds.values().all(|&(b, _)| b > 0.0 && b <= 0.25));
        assert!((1.0..=60.0).contains(&ledger.run_seconds));
    }
}
