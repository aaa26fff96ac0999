//! The request loop: accept thread → connection queue → handler
//! threads → route → JSON response, plus the background maintenance
//! thread that compacts incremental indexes.
//!
//! Handler threads only parse and route; every GEMM a handler triggers
//! runs on the shared dc-tensor worker pool, so HTTP concurrency and
//! kernel parallelism stay independently tunable. Any [`DcError`]
//! bubbling out of routing becomes a structured JSON error response
//! with the matching HTTP status — a malformed request never terminates
//! the service (proven by the `server_smoke` test).
//!
//! # Endpoints
//!
//! | Method + path | Body | Reply |
//! |---|---|---|
//! | `GET /v1/health` | — | `{"status":"ok"}` |
//! | `GET /v1/stats` | — | dc-obs report (enable with `DC_OBS=1`) |
//! | `GET /v1/tenants` | — | name/generation/rows per tenant |
//! | `POST /v1/t/{t}/match` | `{"pairs":[[a,b],...]}` | match scores (micro-batched) |
//! | `POST /v1/t/{t}/encode` | `{"rows":[r,...]}` | tuple embeddings (micro-batched) |
//! | `POST /v1/t/{t}/impute` | `{"k":3}` | cells filled by kNN imputation |
//! | `POST /v1/t/{t}/search` | `{"query":"...","k":5,"engine":"bm25"\|"neural"}` | ranked tables |
//! | `POST /v1/t/{t}/index/insert` | `{"scores":[...]}` | new item id |
//! | `POST /v1/t/{t}/index/delete` | `{"id":n}` | tombstone ack |
//! | `GET /v1/t/{t}/index/pairs` | — | candidate pairs + overflow length |
//! | `POST /v1/t/{t}/checkpoint` | `{"path":"..."}` | save live model as JSON |
//! | `POST /v1/t/{t}/reload` | `{"path":"..."}` | hot-swap model, new generation |

use crate::config::ServeConfig;
use crate::http::{frame_response, read_request, Request};
use crate::tenant::Registry;
use dc_core::{DcError, DcResult};
use serde::Value;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static REQUESTS: dc_obs::Counter = dc_obs::Counter::new("serve.requests");
static ERRORS: dc_obs::Counter = dc_obs::Counter::new("serve.errors");
/// One per response handed to the socket: `serve.requests` + protocol errors.
static WRITES: dc_obs::Counter = dc_obs::Counter::new("serve.response.writes");
static WRITE_TIME: dc_obs::Hist = dc_obs::Hist::new("serve.request.write");

/// A running service instance; dropping the handle does **not** stop it
/// — call [`ServerHandle::stop`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    queue: Arc<ConnQueue>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal every thread to stop and join them. Idempotent.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.queue.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Blocking MPMC queue of accepted connections.
struct ConnQueue {
    q: Mutex<(VecDeque<TcpStream>, bool)>,
    cv: Condvar,
}

impl ConnQueue {
    fn new() -> Self {
        ConnQueue {
            q: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Every update leaves the queue valid (one `push_back`, `pop_front` or
    /// flag store), so a poisoned lock is recovered, not passed on to all workers.
    fn lock(&self) -> MutexGuard<'_, (VecDeque<TcpStream>, bool)> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, s: TcpStream) {
        let mut q = self.lock();
        q.0.push_back(s);
        drop(q);
        self.cv.notify_one();
    }

    /// Blocks until a connection or close; `None` means shut down.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.lock();
        loop {
            if let Some(s) = q.0.pop_front() {
                return Some(s);
            }
            if q.1 {
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().1 = true;
        self.cv.notify_all();
    }
}

/// Bind, spawn the accept/handler/maintenance threads, and return.
pub fn start(cfg: ServeConfig, registry: Arc<Registry>) -> DcResult<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| DcError::internal(format!("bind {}: {e}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| DcError::internal(format!("local_addr: {e}")))?;
    let stop = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(ConnQueue::new());
    let mut threads = Vec::new();

    // Accept loop.
    {
        let (stop, queue) = (stop.clone(), queue.clone());
        threads.push(
            std::thread::Builder::new()
                .name("dc-serve-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(s) = conn {
                            // A stuck client must not pin a handler thread forever.
                            let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                            // Responses are written whole, so Nagle has nothing to
                            // coalesce; left on, it holds a reply for the ~40 ms of
                            // the client's delayed ACK while earlier bytes are unacked.
                            let _ = s.set_nodelay(true);
                            queue.push(s);
                        }
                    }
                })
                .expect("spawn accept thread"),
        );
    }

    // Handler threads.
    for i in 0..cfg.workers {
        let (queue, registry, cfg) = (queue.clone(), registry.clone(), cfg.clone());
        threads.push(
            std::thread::Builder::new()
                .name(format!("dc-serve-worker-{i}"))
                .spawn(move || {
                    let max_body = cfg.max_body_bytes;
                    let route = |req: &Request| route(req, &registry);
                    while let Some(stream) = queue.pop() {
                        // `&TcpStream` reads and writes: no cloned descriptor.
                        let reader = BufReader::new(&stream);
                        serve_connection(reader, &stream, &mut Vec::new(), max_body, route);
                    }
                })
                .expect("spawn handler thread"),
        );
    }

    // Background maintenance: compact overflowing incremental indexes.
    {
        let (stop, registry, cfg) = (stop.clone(), registry.clone(), cfg.clone());
        threads.push(
            std::thread::Builder::new()
                .name("dc-serve-maint".into())
                .spawn(move || {
                    let period = Duration::from_millis(cfg.compact_interval_ms);
                    while !stop.load(Ordering::SeqCst) {
                        for tenant in registry.all() {
                            // A poisoned index answers its own requests with
                            // a 500; there is nothing to compact.
                            let _ = tenant.maybe_compact(cfg.compact_threshold);
                        }
                        std::thread::sleep(period);
                    }
                })
                .expect("spawn maintenance thread"),
        );
    }

    Ok(ServerHandle {
        addr,
        stop,
        threads,
        queue,
    })
}

/// One connection's keep-alive request loop over any byte source and
/// sink. Every response is framed into `buf`, the connection's response
/// buffer, and handed to `writer` in exactly one `write_all`. A panicking
/// `handler` answers 500 and the loop (and its thread) lives on.
fn serve_connection(
    mut reader: impl BufRead,
    mut writer: impl Write,
    buf: &mut Vec<u8>,
    max_body: usize,
    handler: impl Fn(&Request) -> (&'static str, DcResult<String>),
) {
    let mut line = Vec::new();
    loop {
        let (keep_alive, result) = match read_request(&mut reader, &mut line, max_body) {
            Ok(None) => return,
            // Protocol-level garbage: answer once, then close (the
            // stream may be desynchronized).
            Err(e) => (false, Err(e)),
            Ok(Some(req)) => {
                REQUESTS.incr();
                let start = Instant::now();
                let (endpoint, result) = catch_unwind(AssertUnwindSafe(|| handler(&req)))
                    .unwrap_or_else(|_| ("panicked", Err(DcError::internal("handler panicked"))));
                dc_obs::record_ns("serve.request", endpoint, start.elapsed().as_nanos() as u64);
                (req.keep_alive, result)
            }
        };
        let (status, body) = match result {
            Ok(body) => (200, body),
            Err(e) => {
                ERRORS.incr();
                (e.http_status(), error_body(&e))
            }
        };
        frame_response(buf, status, &body, keep_alive);
        WRITES.incr();
        let timer = WRITE_TIME.start();
        let sent = writer.write_all(buf).and_then(|()| writer.flush());
        drop(timer);
        if sent.is_err() || !keep_alive {
            return;
        }
    }
}

#[derive(Serialize)]
struct ErrorBody {
    error: String,
    message: String,
}

fn error_body(e: &DcError) -> String {
    serde_json::to_string(&ErrorBody {
        error: e.kind().to_string(),
        message: e.message().to_string(),
    })
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string())
}

#[derive(Serialize)]
struct TenantInfo {
    name: String,
    generation: u64,
    rows: usize,
    index_overflow: usize,
}

#[derive(Serialize)]
struct MatchResp {
    scores: Vec<f32>,
    generation: u64,
}

#[derive(Serialize)]
struct EncodeResp {
    embeddings: Vec<Vec<f32>>,
    generation: u64,
}

#[derive(Serialize)]
struct ImputeResp {
    filled: usize,
    k: usize,
}

#[derive(Serialize)]
struct Bm25Resp {
    hits: Vec<(usize, f64)>,
}

#[derive(Serialize)]
struct NeuralResp {
    hits: Vec<(usize, f32)>,
}

#[derive(Serialize)]
struct InsertResp {
    id: usize,
}

#[derive(Serialize)]
struct PairsResp {
    pairs: Vec<(usize, usize)>,
    overflow: usize,
}

#[derive(Serialize)]
struct GenerationResp {
    generation: u64,
}

#[derive(Deserialize)]
struct MatchReq {
    pairs: Vec<(usize, usize)>,
}

#[derive(Deserialize)]
struct EncodeReq {
    rows: Vec<usize>,
}

#[derive(Deserialize)]
struct InsertReq {
    scores: Vec<f32>,
}

#[derive(Deserialize)]
struct IdReq {
    id: usize,
}

#[derive(Deserialize)]
struct PathReq {
    path: String,
}

/// Parse a JSON body into a request struct, mapping parse failures to
/// 4xx-shaped errors.
fn parse<T: serde::de::DeserializeOwned>(req: &Request) -> DcResult<T> {
    serde_json::from_str(req.body_str()?).map_err(|e| DcError::invalid(format!("bad request: {e}")))
}

/// Fetch an optional numeric field from a JSON object body (the derive
/// treats missing fields as errors, so optionals go through `Value`).
fn opt_usize(body: &Value, key: &str, default: usize) -> DcResult<usize> {
    match body.as_object() {
        Some(obj) => match obj.iter().find(|(k, _)| k == key) {
            Some((_, v)) => serde::from_field(obj, key)
                .map_err(|e| DcError::invalid(format!("bad request: {e}, got {}", v.kind()))),
            None => Ok(default),
        },
        None => Err(DcError::invalid("request body must be a JSON object")),
    }
}

fn opt_str(body: &Value, key: &str, default: &'static str) -> DcResult<String> {
    match body.as_object() {
        Some(obj) => match obj.iter().find(|(k, _)| k == key) {
            Some(_) => serde::from_field::<String>(obj, key)
                .map_err(|e| DcError::invalid(format!("bad request: {e}"))),
            None => Ok(default.to_string()),
        },
        None => Err(DcError::invalid("request body must be a JSON object")),
    }
}

fn to_json<T: Serialize>(value: &T) -> DcResult<String> {
    serde_json::to_string(value).map_err(|e| DcError::internal(format!("serialize response: {e}")))
}

/// Route one request. Returns the static endpoint name (the
/// `serve.request.{name}` histogram key) and the JSON result.
fn route(req: &Request, registry: &Registry) -> (&'static str, DcResult<String>) {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["v1", "health"]) => ("health", Ok("{\"status\":\"ok\"}".to_string())),
        ("GET", ["v1", "stats"]) => ("stats", Ok(dc_obs::report().to_json())),
        ("GET", ["v1", "tenants"]) => ("tenants", {
            let infos: DcResult<Vec<TenantInfo>> = registry
                .all()
                .iter()
                .map(|t| {
                    Ok(TenantInfo {
                        name: t.name().to_string(),
                        generation: t.generation(),
                        rows: t.rows(),
                        index_overflow: t.index_overflow()?,
                    })
                })
                .collect();
            infos.and_then(|infos| to_json(&infos))
        }),
        ("POST", ["v1", "t", name, rest @ ..]) => {
            let name = (*name).to_string();
            let (endpoint, out): (&'static str, DcResult<String>) = match rest {
                ["match"] => (
                    "match",
                    registry.get(&name).and_then(|t| {
                        let body: MatchReq = parse(req)?;
                        let scores = t.match_pairs(body.pairs)?;
                        to_json(&MatchResp {
                            scores,
                            generation: t.generation(),
                        })
                    }),
                ),
                ["encode"] => (
                    "encode",
                    registry.get(&name).and_then(|t| {
                        let body: EncodeReq = parse(req)?;
                        let embeddings = t.encode_rows(body.rows)?;
                        to_json(&EncodeResp {
                            embeddings,
                            generation: t.generation(),
                        })
                    }),
                ),
                ["impute"] => (
                    "impute",
                    registry.get(&name).and_then(|t| {
                        let body: Value = parse(req)?;
                        let k = opt_usize(&body, "k", 3)?;
                        let (filled, _) = t.impute(k)?;
                        to_json(&ImputeResp { filled, k })
                    }),
                ),
                ["search"] => (
                    "search",
                    registry.get(&name).and_then(|t| {
                        let body: Value = parse(req)?;
                        let query = opt_str(&body, "query", "")?;
                        let k = opt_usize(&body, "k", 5)?;
                        match opt_str(&body, "engine", "bm25")?.as_str() {
                            "bm25" => to_json(&Bm25Resp {
                                hits: t.search_bm25(&query, k)?,
                            }),
                            "neural" => to_json(&NeuralResp {
                                hits: t.search_neural(&query, k)?,
                            }),
                            other => Err(DcError::invalid(format!(
                                "unknown search engine {other:?} (bm25|neural)"
                            ))),
                        }
                    }),
                ),
                ["index", "insert"] => (
                    "index_insert",
                    registry.get(&name).and_then(|t| {
                        let body: InsertReq = parse(req)?;
                        to_json(&InsertResp {
                            id: t.index_insert(&body.scores)?,
                        })
                    }),
                ),
                ["index", "delete"] => (
                    "index_delete",
                    registry.get(&name).and_then(|t| {
                        let body: IdReq = parse(req)?;
                        t.index_delete(body.id)?;
                        Ok("{\"deleted\":true}".to_string())
                    }),
                ),
                ["checkpoint"] => (
                    "checkpoint",
                    registry.get(&name).and_then(|t| {
                        let body: PathReq = parse(req)?;
                        t.save_checkpoint(&body.path)?;
                        to_json(&GenerationResp {
                            generation: t.generation(),
                        })
                    }),
                ),
                ["reload"] => (
                    "reload",
                    registry.get(&name).and_then(|t| {
                        let body: PathReq = parse(req)?;
                        to_json(&GenerationResp {
                            generation: t.reload(&body.path)?,
                        })
                    }),
                ),
                _ => (
                    "unknown",
                    Err(DcError::not_found(format!("no route {}", req.path))),
                ),
            };
            (endpoint, out)
        }
        ("GET", ["v1", "t", name, "index", "pairs"]) => ("index_pairs", {
            registry.get(name).and_then(|t| {
                let (pairs, overflow) = t.index_pairs()?;
                to_json(&PairsResp { pairs, overflow })
            })
        }),
        _ => (
            "unknown",
            Err(DcError::not_found(format!(
                "no route {} {}",
                req.method, req.path
            ))),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_tenant_spec;
    use std::io;

    /// A sink that takes at most 7 bytes per `write` and records every
    /// hand-off: one entry per `write_all`, or per `write` made outside
    /// one.
    #[derive(Default)]
    struct ShortWriter {
        handoffs: Vec<Vec<u8>>,
        in_write_all: bool,
    }

    impl Write for ShortWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            if !self.in_write_all {
                self.handoffs.push(Vec::new());
            }
            let n = data.len().min(7);
            let current = self.handoffs.last_mut().expect("an open hand-off");
            current.extend_from_slice(&data[..n]);
            Ok(n)
        }

        fn write_all(&mut self, mut data: &[u8]) -> io::Result<()> {
            self.handoffs.push(Vec::new());
            self.in_write_all = true;
            while !data.is_empty() {
                let n = self.write(data)?;
                data = &data[n..];
            }
            self.in_write_all = false;
            Ok(())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The wire format replies have had since the seed (`write!` straight
    /// onto the socket), verbatim: framing into a buffer must not move a byte.
    fn parent_format(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
        let reason = match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            other => panic!("unexpected status {other}"),
        };
        let conn = if keep_alive { "keep-alive" } else { "close" };
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn eight_pipelined_requests_cost_one_write_all_each_from_one_buffer() {
        let cfg = ServeConfig::default();
        let registry = Registry::new(4);
        registry
            .insert(tiny_tenant_spec("acme", 7).build(&cfg).unwrap())
            .unwrap();
        let big_match = format!("{{\"pairs\":[{}[2,3]]}}", "[0,1],".repeat(399));
        let requests = [
            ("GET", "/v1/health", "", 200),
            ("POST", "/v1/t/acme/match", "{oops", 400),
            ("GET", "/v1/nowhere", "", 404),
            ("POST", "/v1/t/acme/match", big_match.as_str(), 200),
            ("GET", "/v1/tenants", "", 200),
            ("POST", "/v1/t/acme/match", "{\"pairs\":[[0,1]]}", 200),
            ("POST", "/v1/t/ghost/match", "{\"pairs\":[[0,1]]}", 404),
            ("GET", "/v1/health", "", 200),
        ];
        let mut input = Vec::new();
        let mut expected = Vec::new();
        for (i, (method, path, body, status)) in requests.into_iter().enumerate() {
            let keep_alive = i + 1 < requests.len();
            let conn = if keep_alive {
                ""
            } else {
                "Connection: close\r\n"
            };
            let len = body.len();
            input.extend_from_slice(
                format!("{method} {path} HTTP/1.1\r\n{conn}Content-Length: {len}\r\n\r\n{body}")
                    .as_bytes(),
            );
            let req = Request {
                method: method.to_string(),
                path: path.to_string(),
                body: body.as_bytes().to_vec(),
                keep_alive,
            };
            let reply = route(&req, &registry).1.unwrap_or_else(|e| error_body(&e));
            expected.push(parent_format(status, &reply, keep_alive));
        }
        let largest = expected.iter().map(Vec::len).max().unwrap();
        assert_eq!(largest, expected[3].len());
        assert!(largest > 4096, "the big /match reply is multi-KB");

        let mut buf = Vec::new();
        let serve = |buf: &mut Vec<u8>| {
            let mut writer = ShortWriter::default();
            serve_connection(&input[..], &mut writer, buf, cfg.max_body_bytes, |req| {
                route(req, &registry)
            });
            writer.handoffs
        };
        let handoffs = serve(&mut buf);
        assert_eq!(handoffs.len(), 8, "one write_all hand-off per response");
        for (i, (got, want)) in handoffs.iter().zip(&expected).enumerate() {
            assert_eq!(
                String::from_utf8_lossy(got),
                String::from_utf8_lossy(want),
                "response {i}"
            );
        }
        // The buffer grew to fit the largest reply and no further: the
        // four replies after it, and the same traffic again, reuse it.
        let capacity = buf.capacity();
        assert!((largest..2 * largest).contains(&capacity));
        assert_eq!(serve(&mut buf), handoffs);
        assert_eq!(buf.capacity(), capacity);
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_loop_lives_on() {
        let input = b"GET /ok HTTP/1.1\r\n\r\nGET /boom HTTP/1.1\r\n\r\nGET /ok HTTP/1.1\r\n\r\n";
        let mut writer = ShortWriter::default();
        serve_connection(&input[..], &mut writer, &mut Vec::new(), 0, |req| {
            assert_ne!(req.path, "/boom", "handler bug");
            ("ok", Ok("{}".to_string()))
        });
        let replies: Vec<_> = writer
            .handoffs
            .iter()
            .map(|r| String::from_utf8_lossy(r))
            .collect();
        assert_eq!(replies.len(), 3);
        assert!(replies[0].starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(replies[1].starts_with("HTTP/1.1 500 Internal Server Error\r\n"));
        assert!(replies[1]
            .ends_with("\r\n\r\n{\"error\":\"internal\",\"message\":\"handler panicked\"}"));
        assert!(replies[1].contains("Connection: keep-alive\r\n"));
        assert!(replies[2].starts_with("HTTP/1.1 200 OK\r\n"));
    }

    #[test]
    fn conn_queue_outlives_a_worker_that_panicked_holding_its_lock() {
        let queue = Arc::new(ConnQueue::new());
        let held = queue.clone();
        let worker = std::thread::spawn(move || {
            let _guard = held.q.lock().unwrap();
            panic!("worker dies holding the queue lock");
        });
        assert!(worker.join().is_err());
        assert!(queue.q.is_poisoned());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        queue.push(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        assert!(queue.pop().is_some());
        queue.close();
        assert!(queue.pop().is_none());
    }
}
