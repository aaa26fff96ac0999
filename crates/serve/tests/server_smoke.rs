//! End-to-end smoke over real sockets: concurrent clients against a
//! running server, interleaving valid work with malformed requests, and
//! checking that every valid response is solo-exact while every
//! malformed one gets a structured 4xx — and the service outlives all
//! of it. The third test walks the remaining endpoints (impute, search,
//! blocking index, checkpoint / hot reload) on a fully-loaded tenant;
//! the last holds one persistent connection through 50 mixed requests.

use dc_datagen::{ErBenchmark, ErSuite, Lake};
use dc_discovery::NeuralSearch;
use dc_embed::{Embeddings, SgnsConfig};
use dc_relational::{tokenize_tuple, Table};
use dc_serve::testutil::{
    demo_tenant_spec, http_request, raw_request, tiny_tenant_spec, KeepAliveClient,
};
use dc_serve::{engine, Registry, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn concurrent_clients_get_solo_exact_answers_and_errors_dont_kill_it() {
    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(4);
    let registry = Arc::new(Registry::new(cfg.max_tenants));
    let tenant = registry
        .insert(tiny_tenant_spec("acme", 99).build(&cfg).unwrap())
        .unwrap();
    let server = dc_serve::start(cfg, registry).unwrap();
    let addr = server.addr();

    let pairs = [(0usize, 1usize), (2, 3)];
    let solo: Vec<u32> = engine::match_pairs(&tenant.model(), tenant.table(), &pairs)
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect();

    let handles: Vec<_> = (0..12)
        .map(|c| {
            std::thread::spawn(move || match c % 4 {
                // Valid match: must be 200 with solo-exact scores.
                0 | 1 => http_request(
                    addr,
                    "POST",
                    "/v1/t/acme/match",
                    "{\"pairs\":[[0,1],[2,3]]}",
                ),
                // Malformed JSON: must be 400.
                2 => http_request(addr, "POST", "/v1/t/acme/match", "{oops"),
                // Unknown tenant: must be 404.
                _ => http_request(addr, "POST", "/v1/t/ghost/match", "{\"pairs\":[[0,1]]}"),
            })
        })
        .collect();
    for (c, h) in handles.into_iter().enumerate() {
        let (status, body) = h.join().unwrap();
        match c % 4 {
            0 | 1 => {
                assert_eq!(status, 200, "valid match failed: {body}");
                assert_eq!(served_bits(&body), solo, "served scores must be solo-exact");
            }
            2 => {
                assert_eq!(status, 400, "malformed JSON must be 400: {body}");
                assert!(body.contains("invalid_input"));
            }
            _ => {
                assert_eq!(status, 404, "unknown tenant must be 404: {body}");
                assert!(body.contains("not_found"));
            }
        }
    }

    // The service survived all of the above.
    let (status, _) = http_request(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    let (status, body) = http_request(addr, "GET", "/v1/tenants", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"acme\""));
    server.stop();
}

#[test]
fn oversized_bodies_and_bad_methods_are_refused() {
    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(1)
        .with_max_body_bytes(256);
    let registry = Arc::new(Registry::new(4));
    registry
        .insert(tiny_tenant_spec("acme", 7).build(&cfg).unwrap())
        .unwrap();
    let server = dc_serve::start(cfg, registry).unwrap();
    let addr = server.addr();

    let big = format!("{{\"pairs\":[{}]}}", "[0,1],".repeat(100) + "[0,1]");
    let (status, body) = http_request(addr, "POST", "/v1/t/acme/match", &big);
    assert_eq!(status, 429, "body over the limit must be refused: {body}");
    assert!(body.contains("limit"));

    let (status, _) = http_request(addr, "DELETE", "/v1/t/acme/match", "");
    assert_eq!(status, 404, "unrouted method+path is a 404");

    let (status, _) = http_request(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200, "service lives on after refusals");
    server.stop();
}

/// The scores array of a `/match` response body, as bit patterns.
fn served_bits(body: &str) -> Vec<u32> {
    body.split_once('[')
        .map(|(_, rest)| rest.split(']').next().unwrap_or(""))
        .unwrap_or("")
        .split(',')
        .filter_map(|s| s.trim().parse::<f32>().ok())
        .map(|s| s.to_bits())
        .collect()
}

/// A neural search index over a 24-table lake, with word embeddings
/// trained the way the serve benchmark trains its tenant's.
fn lake_search_index() -> (NeuralSearch, Vec<Table>) {
    let mut rng = StdRng::seed_from_u64(0);
    let bench = ErBenchmark::generate(ErSuite::Clean, 30, 2, &mut rng);
    let mut docs: Vec<Vec<String>> = bench.table.rows.iter().map(|r| tokenize_tuple(r)).collect();
    docs.extend(dc_datagen::corpus::domain_corpus(150, &mut rng));
    let emb = Embeddings::train(
        &docs,
        &SgnsConfig::default().with_dim(16).with_epochs(3),
        &mut rng,
    );
    let lake = Lake::generate(24, 24, &mut rng);
    let refs: Vec<&Table> = lake.tables.iter().collect();
    (NeuralSearch::index(emb, &refs, 10), lake.tables)
}

#[test]
fn impute_search_index_and_hot_reload_answer_over_http() {
    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(2);
    let registry = Arc::new(Registry::new(cfg.max_tenants));
    let tenant = registry
        .insert(demo_tenant_spec("demo", 7).build(&cfg).unwrap())
        .unwrap();
    // A second tenant searching 24 lake tables, as the serve benchmark's
    // does, and its full neural ranking for one query.
    let (neural, lake) = lake_search_index();
    let want: Vec<(usize, f32)> = neural
        .search("customer city name")
        .into_iter()
        .take(3)
        .collect();
    let spec = tiny_tenant_spec("lake", 5)
        .with_search_tables(lake)
        .with_neural(neural);
    registry.insert(spec.build(&cfg).unwrap()).unwrap();
    let server = dc_serve::start(cfg, registry).unwrap();
    let addr = server.addr();
    let post = |path: &str, body: &str| http_request(addr, "POST", path, body);

    // Impute and both search engines answer; an unknown engine is a 400.
    let (status, body) = post("/v1/t/demo/impute", "{}");
    assert_eq!(status, 200, "impute with default k: {body}");
    assert!(body.contains("\"filled\""));
    let (status, body) = post("/v1/t/demo/search", "{\"query\":\"alice\",\"k\":3}");
    assert_eq!(status, 200, "bm25 search: {body}");
    assert!(body.contains("\"hits\""));
    let neural = "{\"query\":\"alice\",\"k\":3,\"engine\":\"neural\"}";
    assert_eq!(post("/v1/t/demo/search", neural).0, 200);
    let psychic = "{\"query\":\"x\",\"engine\":\"psychic\"}";
    assert_eq!(post("/v1/t/demo/search", psychic).0, 400);

    // Neural search is exact on a serve-sized lake too: the served top-3
    // is the head of the full ranking, same tables and score bits.
    let query = "{\"query\":\"customer city name\",\"k\":3,\"engine\":\"neural\"}";
    let hits = format!("{{\"hits\":{}}}", serde_json::to_string(&want).unwrap());
    assert_eq!(post("/v1/t/lake/search", query), (200, hits));

    // Blocking index: insert the same signature twice, see the pair;
    // delete one, the pair is gone; a wrong-width signature is a 400.
    let sig = format!("{{\"scores\":{:?}}}", vec![1.0f32; 32]);
    let (status, body) = post("/v1/t/demo/index/insert", &sig);
    assert_eq!(status, 200, "first insert: {body}");
    assert!(body.contains("\"id\""));
    assert_eq!(post("/v1/t/demo/index/insert", &sig).0, 200);
    let (status, body) = http_request(addr, "GET", "/v1/t/demo/index/pairs", "");
    assert_eq!(status, 200);
    assert!(body.contains("[0,1]"), "pairs after two inserts: {body}");
    assert_eq!(post("/v1/t/demo/index/delete", "{\"id\":1}").0, 200);
    let (_, body) = http_request(addr, "GET", "/v1/t/demo/index/pairs", "");
    assert!(!body.contains("[0,1]"), "pairs after delete: {body}");
    assert_eq!(post("/v1/t/demo/index/insert", "{\"scores\":[1.0]}").0, 400);

    // An out-of-range pair is a 400 and protocol garbage still gets an
    // HTTP reply.
    assert_eq!(post("/v1/t/demo/match", "{\"pairs\":[[0,999999]]}").0, 400);
    let raw = raw_request(addr, b"NONSENSE\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    // Checkpoint + hot reload bumps the generation and keeps served
    // scores bitwise; a missing checkpoint is a 404.
    let pairs = [(0usize, 1usize), (2, 3), (1, 4)];
    let solo: Vec<u32> = engine::match_pairs(&tenant.model(), tenant.table(), &pairs)
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let ckpt = std::env::temp_dir().join(format!("dc_serve_smoke_{}.json", std::process::id()));
    let ckpt_body = format!("{{\"path\":{:?}}}", ckpt.to_str().unwrap());
    assert_eq!(post("/v1/t/demo/checkpoint", &ckpt_body).0, 200);
    let (status, body) = post("/v1/t/demo/reload", &ckpt_body);
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(status, 200, "reload: {body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    let (status, body) = post("/v1/t/demo/match", "{\"pairs\":[[0,1],[2,3],[1,4]]}");
    assert_eq!(status, 200);
    assert_eq!(
        served_bits(&body),
        solo,
        "reloaded scores must be solo-exact"
    );
    assert_eq!(
        post("/v1/t/demo/reload", "{\"path\":\"/nope.json\"}").0,
        404
    );
    server.stop();
}

#[test]
fn fifty_mixed_requests_on_one_connection_never_stall() {
    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(1);
    let registry = Arc::new(Registry::new(cfg.max_tenants));
    let tenant = registry
        .insert(tiny_tenant_spec("acme", 11).build(&cfg).unwrap())
        .unwrap();
    let server = dc_serve::start(cfg, registry).unwrap();
    let solo: Vec<u32> = engine::match_pairs(&tenant.model(), tenant.table(), &[(0, 1), (2, 3)])
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let sig = format!("{{\"scores\":{:?}}}", vec![1.0f32; 32]);

    let mut client = KeepAliveClient::connect(server.addr());
    let started = std::time::Instant::now();
    for round in 0..10 {
        assert_eq!(
            client.request("GET", "/v1/health", ""),
            (200, "{\"status\":\"ok\"}".to_string())
        );
        let (status, body) =
            client.request("POST", "/v1/t/acme/match", "{\"pairs\":[[0,1],[2,3]]}");
        assert_eq!(status, 200, "match: {body}");
        assert_eq!(served_bits(&body), solo, "served scores must be solo-exact");
        let (status, body) = client.request("GET", "/v1/nowhere", "");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("not_found"));
        assert_eq!(
            client.request("POST", "/v1/t/acme/index/insert", &sig),
            (200, format!("{{\"id\":{round}}}"))
        );
        let delete = format!("{{\"id\":{round}}}");
        assert_eq!(
            client.request("POST", "/v1/t/acme/index/delete", &delete),
            (200, "{\"deleted\":true}".to_string())
        );
    }
    let took = started.elapsed();
    // A response that leaves as several segments without TCP_NODELAY
    // waits ~44 ms for the client's delayed ACK: 2.2 s for these 50.
    assert!(
        took < std::time::Duration::from_secs(1),
        "50 keep-alive requests took {took:?}"
    );
    // `close` panics unless the server hangs up after its reply.
    assert_eq!(client.close("GET", "/v1/health", "").0, 200);
    server.stop();
}
