//! `serve_open` and `serve_keepalive`: a live `dc_serve::start` instance
//! on an ephemeral port with one bench-built tenant, driven over real
//! sockets from this process.
//!
//! * **open** — independent callers: requests leave on a fixed arrival
//!   schedule, a new TCP connection each, latency timed from the moment
//!   the request was *due*. Read-only mix. What moves it: the
//!   micro-batch window and the accept → queue → worker hand-off.
//! * **keepalive** — pipeline workers calling synchronously: two callers,
//!   one persistent HTTP/1.1 connection each, next request only after
//!   the previous reply. Adds `/index/insert` + `/index/delete`, so
//!   index writes and background compaction contend with reads. What
//!   moves it: the keep-alive loop and the response write path.

use crate::harness::{
    end_to_end, field, pct_over, ratio, timed_setup, Checks, Obs, Outcome, RunOpts,
};
use crate::http::{request, Conn};
use crate::loadgen::{
    latencies_ms, pick, slo_share, Kind, Mix, Sample, Schedule, KEEPALIVE_MIX, OPEN_MIX,
};
use crate::stats;
use crate::trace::Tracer;
use dc_datagen::{ErBenchmark, ErSuite, Lake};
use dc_discovery::NeuralSearch;
use dc_embed::{Embeddings, SgnsConfig};
use dc_er::{Composition, DeepEr, DeepErConfig};
use dc_relational::tokenize_tuple;
use dc_serve::{engine, Registry, ServeConfig, ServerHandle, Tenant, TenantSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which load loop drives the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    Open,
    KeepAlive,
}

/// Offered rate of the open loop: about 20 % of what this server
/// sustains on fresh connections on a 2-core box. At 1000 req/s the tail
/// measured how busy the shared host was (p95 2.3-7.6 ms from one
/// half-hour to the next); at 500 it stays within 1.6-1.8 ms.
const OPEN_RATE: f64 = 500.0;
/// Sender threads of the open loop. More than the cores, because they
/// spend their time blocked on sockets and a request must never wait
/// for a free sender.
const OPEN_SENDERS: usize = 4;
/// Callers (= persistent connections) of the closed loop.
const CALLERS: usize = 2;
const TENANT: &str = "bench";
const PAIRS_PER_MATCH: usize = 8;
const ROWS_PER_ENCODE: usize = 4;
/// Inserted ids a caller holds before its next index write is a delete.
const PENDING_IDS: usize = 4;
/// `/match` requests whose scores are compared bitwise with the engine.
const PROBES: usize = 16;

/// A provisioned, listening server.
struct Fixture {
    server: Option<ServerHandle>,
    addr: SocketAddr,
    tenant: Arc<Tenant>,
    /// Signature width the tenant's incremental index expects.
    index_bits: usize,
    sgns_s: f64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Stops and joins every server thread; client connections are
        // always closed before a fixture is dropped.
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

fn build(seed: u64, smoke: bool) -> Fixture {
    let (entities, epochs, lake_tables) = if smoke { (40, 1, 6) } else { (400, 2, 24) };
    let mut rng = StdRng::seed_from_u64(seed);
    let bench = ErBenchmark::generate(ErSuite::Clean, entities, 2, &mut rng);
    let mut docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
    docs.extend(dc_datagen::corpus::domain_corpus(150, &mut rng));
    let t0 = Instant::now();
    let emb = Embeddings::train(
        &docs,
        &SgnsConfig::default().with_dim(16).with_epochs(3),
        &mut rng,
    );
    let sgns_s = t0.elapsed().as_secs_f64();
    let pairs = bench.labeled_pairs(2, &mut rng);
    let model = DeepEr::train(
        emb.clone(),
        &bench.table,
        &pairs.iter().map(|p| (p.a, p.b)).collect::<Vec<_>>(),
        &pairs.iter().map(|p| p.label).collect::<Vec<_>>(),
        Composition::Lstm {
            hidden: 32,
            max_tokens: 16,
        },
        DeepErConfig::default().with_epochs(epochs),
        &mut rng,
    );
    let lake = Lake::generate(lake_tables, 50, &mut rng);
    let refs: Vec<&dc_relational::Table> = lake.tables.iter().collect();
    let neural = NeuralSearch::index(emb, &refs, 10);
    let spec = TenantSpec::new(TENANT, model, bench.table)
        .with_search_tables(lake.tables)
        .with_neural(neural);

    let cfg = ServeConfig::default().with_addr("127.0.0.1:0");
    let registry = Arc::new(Registry::new(cfg.max_tenants));
    let tenant = registry
        .insert(spec.build(&cfg).expect("build the bench tenant"))
        .expect("register the bench tenant");
    let server = dc_serve::start(cfg, registry).expect("start dc-serve on an ephemeral port");
    Fixture {
        addr: server.addr(),
        server: Some(server),
        tenant,
        // `TenantSpec::new`'s default banding: 4 bands × 8 rows.
        index_bits: 32,
        sgns_s,
    }
}

/// A request ready to send.
struct Req {
    kind: Kind,
    bytes: Vec<u8>,
}

/// Seeded request factory; the server only ever sees what this emits.
struct Traffic {
    rng: StdRng,
    rows: usize,
    index_bits: usize,
    keep_alive: bool,
    searches: usize,
    /// Ids this caller inserted and has not yet deleted.
    pending: VecDeque<u64>,
}

impl Traffic {
    fn new(seed: u64, fx: &Fixture, keep_alive: bool) -> Self {
        Traffic {
            rng: StdRng::seed_from_u64(seed),
            rows: fx.tenant.rows(),
            index_bits: fx.index_bits,
            keep_alive,
            searches: 0,
            pending: VecDeque::new(),
        }
    }

    fn post(&self, kind: Kind, endpoint: &str, body: &str) -> Req {
        Req {
            kind,
            bytes: request(
                "POST",
                &format!("/v1/t/{TENANT}/{endpoint}"),
                body,
                self.keep_alive,
            ),
        }
    }

    fn match_pairs(&mut self) -> Vec<(usize, usize)> {
        (0..PAIRS_PER_MATCH)
            .map(|_| {
                (
                    self.rng.gen_range(0..self.rows),
                    self.rng.gen_range(0..self.rows),
                )
            })
            .collect()
    }

    fn match_req(&self, pairs: &[(usize, usize)]) -> Req {
        let list: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
        self.post(
            Kind::Match,
            "match",
            &format!("{{\"pairs\":[{}]}}", list.join(",")),
        )
    }

    fn next(&mut self, mix: &Mix) -> Req {
        match pick(mix, self.rng.gen::<f64>()) {
            Kind::Match => {
                let pairs = self.match_pairs();
                self.match_req(&pairs)
            }
            Kind::Encode => {
                let rows: Vec<String> = (0..ROWS_PER_ENCODE)
                    .map(|_| self.rng.gen_range(0..self.rows).to_string())
                    .collect();
                self.post(
                    Kind::Encode,
                    "encode",
                    &format!("{{\"rows\":[{}]}}", rows.join(",")),
                )
            }
            Kind::Search => {
                self.searches += 1;
                let engine = if self.searches.is_multiple_of(2) {
                    "bm25"
                } else {
                    "neural"
                };
                self.post(
                    Kind::Search,
                    "search",
                    &format!(
                        "{{\"query\":\"customer city name\",\"k\":3,\"engine\":\"{engine}\"}}"
                    ),
                )
            }
            Kind::Health => Req {
                kind: Kind::Health,
                bytes: request("GET", "/v1/health", "", self.keep_alive),
            },
            Kind::IndexWrite => match self.pending.len() >= PENDING_IDS {
                true => self.delete_req(),
                false => {
                    let scores: Vec<String> = (0..self.index_bits)
                        .map(|_| format!("{:.4}", self.rng.gen::<f32>() - 0.5))
                        .collect();
                    self.post(
                        Kind::IndexWrite,
                        "index/insert",
                        &format!("{{\"scores\":[{}]}}", scores.join(",")),
                    )
                }
            },
        }
    }

    /// Delete the oldest id this caller still holds.
    fn delete_req(&mut self) -> Req {
        let id = self.pending.pop_front().expect("a pending id to delete");
        self.post(
            Kind::IndexWrite,
            "index/delete",
            &format!("{{\"id\":{id}}}"),
        )
    }
}

/// Send one request, time it, and judge the reply: 200 and a JSON body.
/// Records client-side phase spans when tracing. Returns the parsed body
/// of an OK reply.
fn send(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    req: &Req,
    due: Instant,
    tr: &mut Tracer,
    samples: &mut Vec<Sample>,
) -> Option<Value> {
    let start = Instant::now();
    let fresh = conn.is_none();
    let reply = (|| {
        if conn.is_none() {
            *conn = Some(Conn::open(addr)?);
        }
        let connected = Instant::now();
        let r = conn.as_mut().expect("just opened").exchange(&req.bytes)?;
        Ok::<_, std::io::Error>((connected, r))
    })();
    let mut body = None;
    let (done, ok) = match reply {
        Ok((connected, r)) => {
            if fresh {
                tr.record("client.connect", start, connected);
            }
            tr.record("client.write", connected, r.written);
            tr.record("client.first_byte", r.written, r.first_byte);
            tr.record("client.read", r.first_byte, r.done);
            if r.status == 200 {
                body = std::str::from_utf8(&r.body)
                    .ok()
                    .and_then(|s| serde_json::from_str::<Value>(s).ok());
            }
            if body.is_none() {
                eprintln!(
                    "bad reply: {} {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                );
            }
            (r.done, body.is_some())
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            *conn = None;
            (Instant::now(), false)
        }
    };
    samples.push(Sample {
        kind: req.kind,
        latency_s: done.duration_since(due.min(start)).as_secs_f64(),
        late_s: start.saturating_duration_since(due).as_secs_f64(),
        ok,
    });
    body
}

/// What a timed section produced.
struct Section {
    samples: Vec<Sample>,
    tracers: Vec<Tracer>,
    wall_s: f64,
    achieved_over_offered: f64,
    /// Ids the server handed out and never confirmed deleted (must be 0).
    leaked_ids: usize,
}

/// Open loop: `OPEN_SENDERS` threads take the next due request from a
/// shared counter, sleep until its due time, and send it on a new
/// connection.
fn open_loop(fx: &Fixture, seed: u64, seconds: f64, trace: bool) -> Section {
    let mut traffic = Traffic::new(seed, fx, false);
    let reqs: Vec<Req> = (0..(OPEN_RATE * seconds).round() as usize)
        .map(|_| traffic.next(OPEN_MIX))
        .collect();
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let sched = Schedule::new(epoch + Duration::from_millis(5), OPEN_RATE, seconds);
    assert_eq!(
        sched.n,
        reqs.len(),
        "one generated request per scheduled arrival"
    );
    let per_thread: Vec<(Vec<Sample>, Tracer, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..OPEN_SENDERS)
            .map(|tid| {
                let (reqs, next) = (&reqs, &next);
                scope.spawn(move || {
                    let mut tr = Tracer::new(trace, epoch, tid as u32);
                    let (mut samples, mut last_send_s) = (Vec::new(), 0.0f64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            break;
                        }
                        let due = sched.due(i);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        last_send_s = last_send_s.max(sched.t0.elapsed().as_secs_f64());
                        tr.set_run(i as u32);
                        tr.span("client.request", |tr| {
                            send(&mut None, fx.addr, &reqs[i], due, tr, &mut samples)
                        });
                    }
                    (samples, tr, last_send_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect()
    });
    let wall_s = sched.t0.elapsed().as_secs_f64();
    let last_send_s = per_thread.iter().map(|t| t.2).fold(0.0, f64::max);
    let (mut samples, mut tracers) = (Vec::new(), Vec::new());
    for (s, tr, _) in per_thread {
        samples.extend(s);
        tracers.push(tr);
    }
    Section {
        samples,
        tracers,
        wall_s,
        achieved_over_offered: sched.achieved_over_offered(last_send_s),
        leaked_ids: 0,
    }
}

/// Closed loop: each caller owns one persistent connection and sends its
/// next request when the previous reply is in. Ids a caller inserted are
/// deleted by the same caller, the last of them after the deadline.
fn closed_loop(fx: &Fixture, seed: u64, seconds: f64, trace: bool) -> Section {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let per_caller: Vec<(Vec<Sample>, Tracer, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(trace, epoch, c as u32);
                    let mut traffic = Traffic::new(seed ^ ((c as u64 + 1) << 32), fx, true);
                    let (mut samples, mut conn, mut i) = (Vec::new(), None, 0u32);
                    let (mut inserted, mut deleted) = (0usize, 0usize);
                    let mut exchange = |req: Req, traffic: &mut Traffic, tr: &mut Tracer| {
                        tr.set_run(i);
                        i += 1;
                        let body = tr.span("client.request", |tr| {
                            send(&mut conn, fx.addr, &req, Instant::now(), tr, &mut samples)
                        });
                        let reply = |key| body.as_ref().and_then(|b| field(b, key));
                        if let Some(Value::I64(id)) = reply("id") {
                            traffic.pending.push_back(*id as u64);
                            inserted += 1;
                        }
                        if let Some(Value::Bool(true)) = reply("deleted") {
                            deleted += 1;
                        }
                    };
                    while Instant::now() < deadline {
                        let req = traffic.next(KEEPALIVE_MIX);
                        exchange(req, &mut traffic, &mut tr);
                    }
                    while !traffic.pending.is_empty() {
                        let req = traffic.delete_req();
                        exchange(req, &mut traffic, &mut tr);
                    }
                    (samples, tr, inserted - deleted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let (mut samples, mut tracers, mut leaked_ids) = (Vec::new(), Vec::new(), 0);
    for (s, tr, leaked) in per_caller {
        samples.extend(s);
        tracers.push(tr);
        leaked_ids += leaked;
    }
    Section {
        samples,
        tracers,
        wall_s,
        achieved_over_offered: 1.0,
        leaked_ids,
    }
}

/// Warm the server through the same client path, then check a fixed
/// probe set of `/match` scores bitwise against the engine in-process.
fn warm_and_probe(fx: &Fixture, kind: Loop, seed: u64, checks: &mut Checks) {
    let keep_alive = kind == Loop::KeepAlive;
    let mut traffic = Traffic::new(seed ^ 0xbeef, fx, keep_alive);
    let (mut conn, mut samples, mut off) = (None, Vec::new(), Tracer::off());
    let model = fx.tenant.model();
    for _ in 0..PROBES {
        let pairs = traffic.match_pairs();
        let req = traffic.match_req(&pairs);
        let body = send(
            &mut conn,
            fx.addr,
            &req,
            Instant::now(),
            &mut off,
            &mut samples,
        );
        if !keep_alive {
            conn = None;
        }
        let served: Option<Vec<u32>> = body
            .as_ref()
            .and_then(|b| field(b, "scores"))
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .map(|v| match v {
                        Value::F64(x) => (*x as f32).to_bits(),
                        Value::I64(n) => (*n as f32).to_bits(),
                        _ => u32::MAX,
                    })
                    .collect()
            });
        let local: Vec<u32> = engine::match_pairs(&model, fx.tenant.table(), &pairs)
            .expect("probe pairs are in range")
            .iter()
            .map(|s| s.to_bits())
            .collect();
        checks.check(served.as_ref() == Some(&local), || {
            format!("served scores {served:?} != engine::match_pairs {local:?}")
        });
    }
}

pub fn run(kind: Loop, opts: &RunOpts) -> (Outcome, Vec<Tracer>) {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let (fx, setup_s) = timed_setup(opts.setup_reps(), || {
        let fx = build(opts.seed, opts.smoke);
        warm_and_probe(&fx, kind, opts.seed, &mut checks);
        fx
    });
    let drive = |seconds: f64, trace: bool| match kind {
        Loop::Open => open_loop(&fx, opts.seed, seconds, trace),
        Loop::KeepAlive => closed_loop(&fx, opts.seed, seconds, trace),
    };

    if !opts.trace {
        let sec = drive(opts.seconds, false);
        let ok = sec.samples.iter().filter(|s| s.ok);
        let matches: Vec<f64> = ok
            .clone()
            .filter(|s| s.kind == Kind::Match)
            .map(|s| s.latency_s)
            .collect();
        end_to_end(&mut out, setup_s, ok.count() as f64, sec.wall_s, &matches);
        finish(&mut out, checks, &sec);
        return (out, Vec::new());
    }

    // Per-layer pass: half untraced for reference, half with dc-obs on
    // and client-side spans.
    let plain = drive(opts.seconds / 2.0, false);
    dc_obs::set_enabled(true);
    dc_obs::reset();
    let mut sec = drive(opts.seconds / 2.0, true);
    let obs = Obs::snapshot();
    dc_obs::set_enabled(false);

    let p50 = |kind| stats::percentile(&latencies_ms(&sec.samples, kind), 0.50);
    let matches = latencies_ms(&sec.samples, Kind::Match);
    let match_p50_ms = stats::percentile(&matches, 0.50);
    let server_us = obs.timer_mean_us("serve.request.match");
    let batch_run_us = obs.timer_mean_us("serve.batch.run");
    let connects: Vec<f64> = sec
        .tracers
        .iter()
        .flat_map(|t| t.durations_s("client.connect"))
        .map(|s| s * 1e6)
        .collect();
    let late = stats::sorted(
        &sec.samples
            .iter()
            .map(|s| s.late_s * 1e3)
            .collect::<Vec<_>>(),
    );
    let ok = sec.samples.iter().filter(|s| s.ok).count();
    let m = &mut out.metrics;
    m.insert("embed.sgns_s", fx.sgns_s);
    m.insert("serve.req_per_s", ok as f64 / sec.wall_s);
    m.insert("serve.slo_share", slo_share(&sec.samples));
    m.insert("serve.connect_us", stats::median(&connects));
    m.insert("serve.health_p50_us", p50(Kind::Health) * 1e3);
    m.insert("serve.match_server_us", server_us);
    m.insert("serve.match_net_us", match_p50_ms * 1e3 - server_us);
    m.insert(
        "serve.batch_mean_size",
        ratio(
            obs.counter("serve.batch.requests"),
            obs.counter("serve.batch.flushes"),
        ),
    );
    m.insert("serve.batch_run_us", batch_run_us);
    m.insert("serve.batch_wait_us", server_us - batch_run_us);
    m.insert("serve.match_p99_ms", stats::percentile(&matches, 0.99));
    m.insert("serve.encode_p50_ms", p50(Kind::Encode));
    m.insert("serve.search_p50_ms", p50(Kind::Search));
    m.insert("serve.index_write_p50_ms", p50(Kind::IndexWrite));
    m.insert("serve.gen_late_p99_ms", stats::percentile(&late, 0.99));
    m.insert("serve.achieved_over_offered", sec.achieved_over_offered);
    m.insert("index.inc_inserts", obs.counter("index.inc.inserts"));
    m.insert("index.inc_deletes", obs.counter("index.inc.deletes"));
    m.insert(
        "index.inc_compactions",
        obs.counter("index.inc.compactions"),
    );
    m.insert("index.inc_overflow", obs.gauge("index.inc.overflow"));
    obs.tensor_metrics(m, 0.0);
    let plain_p50 = stats::percentile(&latencies_ms(&plain.samples, Kind::Match), 0.50);
    m.insert("obs.trace_overhead_pct", pct_over(match_p50_ms, plain_p50));
    out.samples.insert("serve.match_p99_ms", matches.len());
    finish(&mut out, checks, &plain);
    let tracers = std::mem::take(&mut sec.tracers);
    finish(&mut out, Checks::default(), &sec);
    (out, tracers)
}

/// Fold a section's request outcomes and output checks into the
/// attempted / failed counts. A generator that fell behind marks the run
/// invalid without failing it: every reply was still checked, and a stall
/// of the shared host is not a wrong answer from the server.
fn finish(out: &mut Outcome, mut checks: Checks, sec: &Section) {
    checks.valid(sec.achieved_over_offered >= 0.99, || {
        format!(
            "generator fell behind: achieved/offered {:.3} — the run measures the generator, not the server",
            sec.achieved_over_offered
        )
    });
    checks.check(sec.leaked_ids == 0, || {
        format!("{} inserted ids were never deleted", sec.leaked_ids)
    });
    checks.record(out);
    out.attempted += sec.samples.len() as u64;
    out.failed += sec.samples.iter().filter(|s| !s.ok).count() as u64;
}
