//! # AutoDC — data curation with deep learning
//!
//! A full Rust implementation of the system envisioned by *"Data
//! Curation with Deep Learning"* (Thirumuruganathan, Tang, Ouzzani —
//! EDBT 2020): the AutoDC project, "towards self-driving data
//! curation".
//!
//! The paper's pipeline (its Figure 1) — **discover → integrate →
//! clean** — is orchestrated by [`pipeline::Pipeline`], and the same
//! capabilities are served online by [`serve`] (`dc-serve`); every
//! mechanism the paper describes lives in a dedicated crate,
//! re-exported here:
//!
//! | crate | paper | provides |
//! |---|---|---|
//! | [`core`](dc_core) | — | [`DcError`](dc_core::DcError)/[`DcResult`](dc_core::DcResult): the workspace's unified fallible surface |
//! | [`tensor`] | §2 | dense tensors, reverse-mode autograd, the blocked-GEMM worker pool |
//! | [`data`] | §3.2 | out-of-core chunked columnar store, zero-copy batch assembly, sparse CSR column family |
//! | [`nn`] | §2.1, Fig 2 | MLPs, LSTMs, AE/k-sparse/DAE/VAE, GANs, optimisers, the unified `Trainer` loop |
//! | [`index`] | §5.2 | packed LSH signatures, one banded index (bulk-built or incrementally mutated), exact top-k |
//! | [`obs`](dc_obs) | — | counters/gauges/histograms/spans behind `DC_OBS`; the service's SLO surface |
//! | [`relational`] | §3.1, Fig 4 | tables, FDs/CFDs, denial constraints, table graphs |
//! | [`embed`] | §2.2, §3.1, Fig 3 | SGNS, cell/tuple/column/table embeddings, coherent groups |
//! | [`er`] | §5.2, Fig 5 | DeepER, LSH blocking, classical baselines |
//! | [`discovery`] | §5.1 | EKG, semantic matcher, neural table search |
//! | [`clean`] | §5.3 | DAE/kNN imputation, fusion, FD repair, outliers, canonical forms |
//! | [`synth`] | §4 | FlashFill-style DSL, neural-guided synthesis, golden records |
//! | [`weak`] | §6.2 | labeling functions, label models, augmentation, crowd, transfer |
//! | [`datagen`] | §6.2.3 | synthetic benchmarks, BART-style error injection |
//! | [`serve`] | §3.4 | the online multi-tenant service: micro-batched match/encode, incremental blocking, impute + search endpoints, hot reload |
//!
//! ## Quickstart
//!
//! ```
//! use autodc::prelude::*;
//!
//! // A dirty table with a planted FD violation…
//! let mut table = autodc::relational::table::employee_example();
//! let fd = FunctionalDependency::new(vec![2], 3);
//! assert!(!fd.holds(&table));
//! // …repaired by majority within FD groups.
//! let repairs = autodc::clean::repair::repair_fds(&mut table, &[fd.clone()], 5);
//! assert!(fd.holds(&table));
//! assert_eq!(repairs.len(), 1);
//! ```
//!
//! To serve the same capabilities online (`cargo run -p dc-serve`), see
//! the [`serve`] crate docs and the endpoint table in the README.

pub use dc_clean as clean;
pub use dc_data as data;
pub use dc_datagen as datagen;
pub use dc_discovery as discovery;
pub use dc_embed as embed;
pub use dc_er as er;
pub use dc_index as index;
pub use dc_nn as nn;
pub use dc_relational as relational;
pub use dc_serve as serve;
pub use dc_synth as synth;
pub use dc_tensor as tensor;
pub use dc_weak as weak;

pub mod io;
pub mod pipeline;
pub mod quality;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use crate::pipeline::{Pipeline, PipelineConfig, PipelineReport};
    pub use crate::quality::{quality_score, QualityReport};
    pub use dc_clean::{DaeImputer, KnnImputer, SimpleImputer, SimpleStrategy, TableEncoder};
    pub use dc_core::{DcError, DcResult};
    pub use dc_data::{ChunkedDataset, ChunkedStore, Csr, CsrBuilder, Dataset, StoreWriter};
    pub use dc_datagen::{ErBenchmark, ErSuite, ErrorInjector, Lake};
    pub use dc_discovery::{Bm25Lite, Ekg, NeuralSearch, SemanticMatcher};
    pub use dc_embed::{Embeddings, SgnsConfig};
    pub use dc_er::{Composition, DeepEr, DeepErConfig, LshBlocker};
    pub use dc_index::{LshConfig, LshIndex};
    pub use dc_nn::{Activation, Adam, LossKind, Mlp};
    pub use dc_relational::{AttrType, FunctionalDependency, Schema, Table, TableGraph, Value};
    pub use dc_serve::{Registry, ServeConfig, TenantSpec};
    pub use dc_synth::{synthesize, SynthConfig};
    pub use dc_tensor::{Tape, Tensor};
}
