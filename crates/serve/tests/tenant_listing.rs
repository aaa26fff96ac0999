//! `GET /v1/tenants` reports each tenant's overflow-tier length without
//! walking its blocking index: listing tenants must not cost a candidate
//! pair walk per tenant. dc-obs counts every walk in `index.query`; the
//! counters are process-wide, so this check has a binary of its own.

use dc_serve::testutil::{http_request, tiny_tenant_spec};
use dc_serve::{Registry, ServeConfig};
use std::sync::Arc;

/// Samples recorded so far in the `index.query` histogram.
fn index_queries() -> u64 {
    dc_obs::report()
        .timers
        .iter()
        .find(|t| t.name == "index.query")
        .map_or(0, |t| t.hist.count)
}

#[test]
fn listing_tenants_never_walks_a_blocking_index() {
    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(1);
    let registry = Arc::new(Registry::new(4));
    for (name, seed) in [("acme", 7), ("globex", 8)] {
        let tenant = registry
            .insert(tiny_tenant_spec(name, seed).build(&cfg).unwrap())
            .unwrap();
        tenant.index_insert(&[1.0; 32]).unwrap();
        tenant.index_insert(&[1.0; 32]).unwrap();
    }
    let server = dc_serve::start(cfg, registry).unwrap();
    let addr = server.addr();
    dc_obs::set_enabled(true);
    dc_obs::reset();

    let (status, body) = http_request(addr, "GET", "/v1/tenants", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"index_overflow\":2").count(), 2, "{body}");
    assert_eq!(index_queries(), 0, "the listing walked a blocking index");

    // The pairs route does walk one, and the histogram sees it.
    let (status, body) = http_request(addr, "GET", "/v1/t/acme/index/pairs", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(index_queries(), 1);

    dc_obs::set_enabled(false);
    server.stop();
}
