//! Record the ISSUE 9 online-serving snapshot into `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin bench_serve            # full
//! cargo run --release -p dc-bench --bin bench_serve -- --smoke # gate
//! ```
//!
//! Boots a real `dc-serve` instance (free port, demo tenant) and drives
//! it with an **open-loop** load generator: every client thread sends
//! on a fixed arrival schedule derived from the offered rate, whether
//! or not earlier responses have come back, so queueing delay shows up
//! in the latency numbers instead of silently throttling the offered
//! load. The mix is 70% match (micro-batched GEMM), 15% encode, 10%
//! BM25 search, 5% health.
//!
//! Latency percentiles come from the server's own dc-obs
//! `serve.request.*` histograms — the numbers a production deployment
//! would scrape — and the batch counters report how much coalescing the
//! offered concurrency actually produced. `--smoke` shrinks the run,
//! asserts every response is well-formed, and skips the JSON write.

use dc_serve::testutil::{demo_tenant_spec, http_request};
use dc_serve::{Registry, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct EndpointRecord {
    endpoint: String,
    count: u64,
    mean_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

#[derive(Serialize)]
struct RateRecord {
    offered_qps: f64,
    duration_s: f64,
    clients: usize,
    sent: u64,
    ok: u64,
    errors: u64,
    /// Completed-OK responses per second of wall clock — the sustained
    /// throughput under this offered load.
    achieved_qps: f64,
    /// serve.batch.requests / serve.batch.flushes during this rate
    /// step: >1 means coalescing happened.
    mean_batch: f64,
    endpoints: Vec<EndpointRecord>,
}

#[derive(Serialize)]
struct Snapshot {
    description: &'static str,
    threads: usize,
    workers: usize,
    batch_max: usize,
    rates: Vec<RateRecord>,
}

/// One open-loop client: send `per_client` requests at fixed spacing,
/// draw the endpoint mix from a seeded RNG, count outcomes.
fn client(
    addr: SocketAddr,
    per_client: u64,
    spacing: Duration,
    seed: u64,
    ok: &AtomicU64,
    errors: &AtomicU64,
    strict: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    for i in 0..per_client {
        // Open loop: wait for the scheduled send time, not the
        // previous response.
        let due = spacing * i as u32;
        if let Some(sleep) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(sleep);
        }
        let roll: f64 = rng.gen();
        let (method, path, body) = if roll < 0.70 {
            let (a, b) = (rng.gen_range(0..30), rng.gen_range(0..30));
            (
                "POST",
                "/v1/t/demo/match",
                format!("{{\"pairs\":[[{a},{b}]]}}"),
            )
        } else if roll < 0.85 {
            let r = rng.gen_range(0..30);
            ("POST", "/v1/t/demo/encode", format!("{{\"rows\":[{r}]}}"))
        } else if roll < 0.95 {
            (
                "POST",
                "/v1/t/demo/search",
                "{\"query\":\"alice report\",\"k\":3}".to_string(),
            )
        } else {
            ("GET", "/v1/health", String::new())
        };
        let (status, resp) = http_request(addr, method, path, &body);
        if status == 200 {
            ok.fetch_add(1, Ordering::Relaxed);
        } else {
            errors.fetch_add(1, Ordering::Relaxed);
            if strict {
                panic!("{method} {path} -> {status}: {resp}");
            }
        }
    }
}

fn counter(report: &dc_obs::ObsReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

fn endpoint_records(report: &dc_obs::ObsReport) -> Vec<EndpointRecord> {
    report
        .timers
        .iter()
        .filter(|t| t.name.starts_with("serve.request."))
        .map(|t| EndpointRecord {
            endpoint: t.name.trim_start_matches("serve.request.").to_string(),
            count: t.hist.count,
            mean_ns: t.hist.sum_ns / t.hist.count.max(1),
            p50_ns: t.hist.quantile_ns(0.50),
            p99_ns: t.hist.quantile_ns(0.99),
            max_ns: t.hist.max_ns,
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    dc_obs::set_enabled(true);

    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(8)
        .with_batch_max(32);
    eprintln!("provisioning demo tenant...");
    let registry = Arc::new(Registry::new(cfg.max_tenants));
    registry
        .insert(
            demo_tenant_spec("demo", 7)
                .build(&cfg)
                .expect("provision demo tenant"),
        )
        .expect("register demo tenant");
    let server = dc_serve::start(cfg.clone(), registry).expect("start server");
    let addr = server.addr();
    eprintln!("serving on {addr}");

    let (rates, duration_s, clients): (&[f64], f64, usize) = if smoke {
        (&[200.0], 0.5, 4)
    } else {
        (&[200.0, 1000.0, 4000.0], 3.0, 16)
    };

    let mut rate_records = Vec::new();
    for &offered in rates {
        // Drain counters between steps by diffing before/after.
        let before = dc_obs::report();
        let per_client = ((offered * duration_s) / clients as f64).ceil() as u64;
        let spacing = Duration::from_secs_f64(clients as f64 / offered);
        let ok = AtomicU64::new(0);
        let errors = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let (ok, errors) = (&ok, &errors);
                scope.spawn(move || {
                    client(
                        addr,
                        per_client,
                        spacing,
                        0x5eed ^ (c as u64) << 8 ^ offered.to_bits(),
                        ok,
                        errors,
                        smoke,
                    )
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let after = dc_obs::report();
        let ok = ok.load(Ordering::Relaxed);
        let errors = errors.load(Ordering::Relaxed);
        let flushes =
            counter(&after, "serve.batch.flushes") - counter(&before, "serve.batch.flushes");
        let batched =
            counter(&after, "serve.batch.requests") - counter(&before, "serve.batch.requests");
        let rec = RateRecord {
            offered_qps: offered,
            duration_s: wall,
            clients,
            sent: per_client * clients as u64,
            ok,
            errors,
            achieved_qps: ok as f64 / wall,
            mean_batch: batched as f64 / flushes.max(1) as f64,
            // Cumulative across steps (dc-obs histograms merge); the
            // final step's record carries the full-run distribution.
            endpoints: endpoint_records(&after),
        };
        eprintln!(
            "offered {offered:7.0} qps: achieved {:8.1} qps  ({ok} ok, {errors} err, mean batch {:.2})",
            rec.achieved_qps, rec.mean_batch
        );
        rate_records.push(rec);
    }

    if smoke {
        assert!(
            rate_records.iter().all(|r| r.errors == 0 && r.ok > 0),
            "smoke run must complete every request cleanly"
        );
        eprintln!("smoke mode: all responses well-formed, skipping BENCH_serve.json");
        server.stop();
        return;
    }

    let snapshot = Snapshot {
        description: "open-loop load against a live dc-serve instance (70% micro-batched match, 15% encode, 10% bm25 search, 5% health); sustained QPS per offered rate, latency percentiles from the server's dc-obs serve.request.* histograms (cumulative across rate steps)",
        threads: dc_tensor::kernel::pool().threads(),
        workers: cfg.workers,
        batch_max: cfg.batch_max,
        rates: rate_records,
    };
    let json = serde_json::to_string(&snapshot).expect("serialize snapshot");
    std::fs::write("BENCH_serve.json", json + "\n").expect("write BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json");
    server.stop();
}
