//! Deterministic tenant provisioning for tests, benchmarks and the
//! demo server: everything is seeded, so two calls with the
//! same `(name, seed)` produce bitwise-identical models.

use crate::tenant::TenantSpec;
use dc_clean::TableEncoder;
use dc_datagen::{ErBenchmark, ErSuite, ErrorInjector, ErrorKind, Lake};
use dc_discovery::NeuralSearch;
use dc_embed::{Embeddings, SgnsConfig};
use dc_er::{Composition, DeepEr, DeepErConfig};
use dc_relational::tokenize_tuple;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Train a small DeepER matcher over a generated clean-suite benchmark.
/// Returns the model, its word embeddings, and the benchmark table.
fn trained_matcher(
    entities: usize,
    dim: usize,
    epochs: usize,
    rng: &mut StdRng,
) -> (DeepEr, Embeddings, ErBenchmark) {
    let bench = ErBenchmark::generate(ErSuite::Clean, entities, 2, rng);
    let mut docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
    docs.extend(dc_datagen::corpus::domain_corpus(150, rng));
    let emb = Embeddings::train(
        &docs,
        &SgnsConfig {
            dim,
            epochs: 3,
            ..Default::default()
        },
        rng,
    );
    let pairs = bench.labeled_pairs(2, rng);
    let tp: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a, p.b)).collect();
    let tl: Vec<bool> = pairs.iter().map(|p| p.label).collect();
    let model = DeepEr::train(
        emb.clone(),
        &bench.table,
        &tp,
        &tl,
        Composition::Average,
        DeepErConfig::default()
            .with_epochs(epochs)
            .with_hidden(&[dim]),
        rng,
    );
    (model, emb, bench)
}

/// The smallest useful tenant: a matcher over ~15 entities, no search
/// or imputation workloads. Fast enough for unit tests.
pub fn tiny_tenant_spec(name: &str, seed: u64) -> TenantSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let (model, _, bench) = trained_matcher(15, 12, 5, &mut rng);
    TenantSpec::new(name, model, bench.table)
}

/// A fully-loaded tenant: matcher, dirty table + encoder for
/// imputation, lake tables behind BM25, and a neural search index.
/// Used by the demo binary, `bench_serve`, and the integration tests.
pub fn demo_tenant_spec(name: &str, seed: u64) -> TenantSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let (model, emb, bench) = trained_matcher(30, 12, 6, &mut rng);
    let (dirty, _) = ErrorInjector::only(ErrorKind::Null, 0.06).inject(&bench.table, &[], &mut rng);
    let encoder = TableEncoder::fit(&dirty, 32);
    let lake = Lake::generate(6, 24, &mut rng);
    let refs: Vec<&dc_relational::Table> = lake.tables.iter().collect();
    let neural = NeuralSearch::index(emb, &refs, 10);
    TenantSpec::new(name, model, bench.table)
        .with_dirty(dirty, encoder)
        .with_search_tables(lake.tables)
        .with_neural(neural)
}

/// A whole request in one buffer, so it reaches the kernel in one write.
fn request_bytes(method: &str, path: &str, body: &str, conn: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: {conn}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The status code on a response's first line.
fn status_of(raw: &str) -> u16 {
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"))
}

/// Bare-bones blocking HTTP client for exercising a running server:
/// one `Connection: close` request, returns `(status, body)`. Panics on
/// transport failures — it only runs inside tests and benchmarks.
pub fn http_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&request_bytes(method, path, body, "close"))
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status_of(&raw), body)
}

/// The same client over one persistent connection, behaving as a
/// well-mannered caller does: `TCP_NODELAY` on, each request in a single
/// write, each `Content-Length`-framed reply read in full before the
/// next request.
pub struct KeepAliveClient {
    stream: BufReader<TcpStream>,
}

impl KeepAliveClient {
    /// Open the connection.
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        KeepAliveClient {
            stream: BufReader::new(stream),
        }
    }

    /// One request that leaves the connection open.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        self.exchange(&request_bytes(method, path, body, "keep-alive"))
    }

    /// One `Connection: close` request; panics unless the server then
    /// closes the socket.
    pub fn close(mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let reply = self.exchange(&request_bytes(method, path, body, "close"));
        let mut rest = Vec::new();
        self.stream.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty(), "bytes after the final response");
        reply
    }

    fn exchange(&mut self, request: &[u8]) -> (u16, String) {
        self.stream
            .get_mut()
            .write_all(request)
            .expect("send request");
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            let n = self.stream.read_line(&mut head).expect("read header");
            assert!(n > 0, "connection closed inside the headers: {head:?}");
        }
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no content-length in {head:?}"));
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body).expect("read body");
        (
            status_of(&head),
            String::from_utf8(body).expect("UTF-8 body"),
        )
    }
}

/// Send a raw byte blob (possibly not even HTTP) and return the raw
/// response text; for protocol-violation tests.
pub fn raw_request(addr: SocketAddr, blob: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(blob).expect("send blob");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}
