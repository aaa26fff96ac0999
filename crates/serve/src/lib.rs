//! dc-serve: the online, multi-tenant curation service.
//!
//! Everything the offline pipeline does — DeepER matching, tuple
//! encoding, kNN imputation, BM25/neural dataset search, LSH blocking —
//! exposed as a long-lived JSON-over-HTTP service with:
//!
//! * **request micro-batching** ([`batch::MicroBatcher`]): concurrent
//!   match/encode requests against one tenant coalesce into a single
//!   `ROW_TILE`-aligned GEMM, with responses **bitwise identical** to
//!   solo execution (the `microbatch_equiv` test proves it under
//!   `DC_THREADS` = 1, 2, and default);
//! * **incremental blocking** ([`dc_index::LshIndex`], the index batch
//!   blocking bulk-builds): inserts and deletes without rebuilding,
//!   compacted by a background thread;
//! * **per-tenant models** with generation-swapped hot reload
//!   ([`tenant::Tenant::reload`]);
//! * structured errors: malformed requests come back as
//!   [`dc_core::DcError`] JSON with a 4xx status, never a dead worker.
//!
//! The whole stack is `std`-only — the HTTP layer ([`http`]) is a
//! ~150-line HTTP/1.1 subset, not a framework.
//!
//! ```no_run
//! use dc_serve::{testutil, Registry, ServeConfig};
//! use std::sync::Arc;
//!
//! let cfg = ServeConfig::default().with_addr("127.0.0.1:0").with_workers(2);
//! let registry = Arc::new(Registry::new(cfg.max_tenants));
//! registry
//!     .insert(testutil::tiny_tenant_spec("acme", 7).build(&cfg).unwrap())
//!     .unwrap();
//! let server = dc_serve::start(cfg, registry).unwrap();
//! println!("listening on {}", server.addr());
//! server.stop();
//! ```

pub mod batch;
pub mod config;
pub mod engine;
pub mod http;
pub mod server;
pub mod tenant;
pub mod testutil;

pub use batch::MicroBatcher;
pub use config::ServeConfig;
pub use server::{start, ServerHandle};
pub use tenant::{Registry, Tenant, TenantSpec};
