//! Per-tenant model state and the multi-tenant registry.
//!
//! Each [`Tenant`] owns everything one customer's requests touch: the
//! record table and trained DeepER matcher (match/encode), a fitted
//! encoder plus dirty table (impute), BM25/neural search indexes over
//! its lake, and a mutable [`LshIndex`] for streaming
//! blocking. Match and encode requests flow through per-tenant
//! [`MicroBatcher`]s so concurrent requests against the same model
//! coalesce into one aligned GEMM.
//!
//! **Hot reload** is generation-swapped: the live model is an
//! `Arc<DeepEr>` behind an `RwLock`; [`Tenant::reload`] parses the new
//! checkpoint *outside* the lock, then swaps the `Arc` and bumps the
//! generation counter. In-flight batches keep the snapshot `Arc` they
//! cloned at batch start — a reload never tears scores mid-batch, and
//! the next batch picks up the new generation.

use crate::batch::MicroBatcher;
use crate::config::ServeConfig;
use crate::engine;
use dc_clean::TableEncoder;
use dc_core::{check_pairs, DcError, DcResult};
use dc_discovery::{Bm25Lite, NeuralSearch};
use dc_er::DeepEr;
use dc_index::{LshConfig, LshIndex};
use dc_relational::Table;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

static TENANTS: dc_obs::Gauge = dc_obs::Gauge::new("serve.tenants");
static RELOADS: dc_obs::Counter = dc_obs::Counter::new("serve.reloads");
static COMPACTIONS: dc_obs::Counter = dc_obs::Counter::new("serve.compactions");

type MatchBatcher = MicroBatcher<Vec<(usize, usize)>, DcResult<Vec<f32>>>;
type EncodeBatcher = MicroBatcher<Vec<usize>, DcResult<Vec<Vec<f32>>>>;

/// Everything needed to provision one tenant; finalized by
/// [`TenantSpec::build`]. Chainable `with_*` builders, like every other
/// config in the workspace.
pub struct TenantSpec {
    name: String,
    model: DeepEr,
    table: Table,
    dirty: Option<(Table, TableEncoder)>,
    search_tables: Vec<Table>,
    neural: Option<NeuralSearch>,
    lsh: LshConfig,
}

impl TenantSpec {
    /// A tenant serving `model` over `table` (match/encode only until
    /// more capabilities are added).
    pub fn new(name: impl Into<String>, model: DeepEr, table: Table) -> Self {
        TenantSpec {
            name: name.into(),
            model,
            table,
            dirty: None,
            search_tables: Vec::new(),
            neural: None,
            lsh: LshConfig {
                bands: 4,
                rows_per_band: 8,
                probes: 1,
            },
        }
    }

    /// Attach an imputation workload: a table with nulls and the
    /// encoder fitted to it (chainable builder).
    pub fn with_dirty(mut self, dirty: Table, encoder: TableEncoder) -> Self {
        self.dirty = Some((dirty, encoder));
        self
    }

    /// Attach the tenant's lake tables; BM25 search indexes them at
    /// build time (chainable builder).
    pub fn with_search_tables(mut self, tables: Vec<Table>) -> Self {
        self.search_tables = tables;
        self
    }

    /// Attach a pre-built neural search index (chainable builder).
    pub fn with_neural(mut self, neural: NeuralSearch) -> Self {
        self.neural = Some(neural);
        self
    }

    /// Override the incremental blocking index's banding (chainable
    /// builder).
    pub fn with_lsh(mut self, lsh: LshConfig) -> Self {
        self.lsh = lsh;
        self
    }

    /// Finalize: wire the micro-batchers (size cap from `cfg`) and
    /// build the per-tenant indexes.
    pub fn build(self, cfg: &ServeConfig) -> DcResult<Tenant> {
        let table = Arc::new(self.table);
        let model = Arc::new(RwLock::new(Arc::new(self.model)));

        let (t, m) = (table.clone(), model.clone());
        let match_batcher = MicroBatcher::new(cfg.batch_max, move |jobs| {
            let snapshot = read(&m).clone();
            let lens: Vec<usize> = jobs.iter().map(Vec::len).collect();
            let all: Vec<(usize, usize)> = jobs.into_iter().flatten().collect();
            match engine::match_pairs(&snapshot, &t, &all) {
                Ok(scores) => {
                    let mut off = 0;
                    lens.iter()
                        .map(|&l| {
                            off += l;
                            Ok(scores[off - l..off].to_vec())
                        })
                        .collect()
                }
                Err(e) => lens.iter().map(|_| Err(e.clone())).collect(),
            }
        });

        let (t, m) = (table.clone(), model.clone());
        let encode_batcher = MicroBatcher::new(cfg.batch_max, move |jobs: Vec<Vec<usize>>| {
            let snapshot = read(&m).clone();
            let lens: Vec<usize> = jobs.iter().map(Vec::len).collect();
            let all: Vec<usize> = jobs.into_iter().flatten().collect();
            match engine::encode_rows(&snapshot, &t, &all) {
                Ok(vecs) => {
                    let mut it = vecs.into_iter();
                    lens.iter()
                        .map(|&l| Ok(it.by_ref().take(l).collect()))
                        .collect()
                }
                Err(e) => lens.iter().map(|_| Err(e.clone())).collect(),
            }
        });

        let refs: Vec<&Table> = self.search_tables.iter().collect();
        let bm25 = Bm25Lite::index(&refs, 10);
        Ok(Tenant {
            name: self.name,
            table,
            dirty: self.dirty,
            model,
            generation: AtomicU64::new(1),
            index: Mutex::new(LshIndex::new(self.lsh)?),
            bm25,
            neural: self.neural,
            match_batcher,
            encode_batcher,
        })
    }
}

/// One tenant's live state; see the module docs.
pub struct Tenant {
    name: String,
    table: Arc<Table>,
    dirty: Option<(Table, TableEncoder)>,
    model: Arc<RwLock<Arc<DeepEr>>>,
    generation: AtomicU64,
    index: Mutex<LshIndex>,
    bm25: Bm25Lite,
    neural: Option<NeuralSearch>,
    match_batcher: MatchBatcher,
    encode_batcher: EncodeBatcher,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("rows", &self.table.len())
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows in the tenant's record table.
    pub fn rows(&self) -> usize {
        self.table.len()
    }

    /// Current model generation (starts at 1; each reload bumps it).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A snapshot of the live model — stable for as long as the caller
    /// holds the `Arc`, even across reloads.
    pub fn model(&self) -> Arc<DeepEr> {
        read(&self.model).clone()
    }

    /// The tenant's record table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Match scores for `pairs`, micro-batched with concurrent
    /// requests. Validation runs **before** enqueue so a malformed
    /// request fails alone and cannot poison a batch.
    pub fn match_pairs(&self, pairs: Vec<(usize, usize)>) -> DcResult<Vec<f32>> {
        check_pairs(&pairs, self.table.len())?;
        self.match_batcher.submit(pairs)
    }

    /// Tuple embeddings for `rows`, micro-batched with concurrent
    /// requests. Same validate-before-enqueue contract as
    /// [`Tenant::match_pairs`].
    pub fn encode_rows(&self, rows: Vec<usize>) -> DcResult<Vec<Vec<f32>>> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.table.len()) {
            return Err(DcError::invalid(format!(
                "row {bad} out of range for a table of {} rows",
                self.table.len()
            )));
        }
        self.encode_batcher.submit(rows)
    }

    /// kNN-impute the tenant's dirty table; returns `(cells filled,
    /// imputed table)`.
    pub fn impute(&self, k: usize) -> DcResult<(usize, Table)> {
        let (dirty, encoder) = self
            .dirty
            .as_ref()
            .ok_or_else(|| DcError::not_found("tenant has no imputation workload"))?;
        let filled_table = engine::impute_knn(dirty, encoder, k)?;
        let before = count_nulls(dirty);
        let after = count_nulls(&filled_table);
        Ok((before - after, filled_table))
    }

    /// BM25 keyword search over the tenant's lake tables.
    pub fn search_bm25(&self, query: &str, k: usize) -> DcResult<Vec<(usize, f64)>> {
        engine::search_bm25(&self.bm25, query, k)
    }

    /// Exact neural top-k over the tenant's lake tables (404 when the
    /// tenant was provisioned without a neural index).
    pub fn search_neural(&self, query: &str, k: usize) -> DcResult<Vec<(usize, f32)>> {
        let neural = self
            .neural
            .as_ref()
            .ok_or_else(|| DcError::not_found("tenant has no neural search index"))?;
        engine::search_neural(neural, query, k, 0)
    }

    /// The blocking index. An insert, delete or compaction that panicked
    /// may have left it half-updated, so a poisoned lock is a 500 for
    /// every later caller rather than a guess at its contents.
    fn index(&self) -> DcResult<MutexGuard<'_, LshIndex>> {
        self.index
            .lock()
            .map_err(|_| DcError::internal("blocking index poisoned by an earlier panic"))
    }

    /// Insert a signature-score row into the incremental blocking
    /// index; returns the new item id.
    pub fn index_insert(&self, scores: &[f32]) -> DcResult<usize> {
        self.index()?.insert_scores(scores)
    }

    /// Tombstone an item of the blocking index.
    pub fn index_delete(&self, id: usize) -> DcResult<()> {
        self.index()?.delete(id)
    }

    /// Current candidate pairs plus the overflow-tier length.
    pub fn index_pairs(&self) -> DcResult<(Vec<(usize, usize)>, usize)> {
        let idx = self.index()?;
        Ok((idx.candidate_pairs(), idx.overflow_len()))
    }

    /// Items in the blocking index's overflow tier (the `/v1/tenants`
    /// listing), read without walking its candidate pairs.
    pub fn index_overflow(&self) -> DcResult<usize> {
        Ok(self.index()?.overflow_len())
    }

    /// Compact the blocking index if its overflow tier reached
    /// `threshold`; the background maintenance thread calls this.
    pub fn maybe_compact(&self, threshold: usize) -> DcResult<bool> {
        let mut idx = self.index()?;
        let due = idx.overflow_len() >= threshold;
        if due {
            idx.compact();
            COMPACTIONS.incr();
        }
        Ok(due)
    }

    /// Write the live model as a JSON checkpoint.
    pub fn save_checkpoint(&self, path: &str) -> DcResult<()> {
        let json = serde_json::to_string(&*self.model())
            .map_err(|e| DcError::internal(format!("serialize checkpoint: {e}")))?;
        std::fs::write(path, json).map_err(|e| DcError::internal(format!("write {path}: {e}")))
    }

    /// Hot-reload the model from a JSON checkpoint: parse outside the
    /// lock, swap the `Arc`, bump and return the generation. In-flight
    /// batches finish on their snapshot.
    pub fn reload(&self, path: &str) -> DcResult<u64> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| DcError::not_found(format!("checkpoint {path}: {e}")))?;
        let fresh: DeepEr = serde_json::from_str(&json)
            .map_err(|e| DcError::invalid(format!("checkpoint {path}: {e}")))?;
        *write(&self.model) = Arc::new(fresh);
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        RELOADS.incr();
        Ok(generation)
    }
}

/// Every write to the model and registry locks is one `Arc` swap or one
/// map insert, so a panic cannot leave them half-updated: a poisoned lock
/// is recovered, not passed on to every later request.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// See [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn count_nulls(table: &Table) -> usize {
    table
        .rows
        .iter()
        .flat_map(|r| r.iter())
        .filter(|v| v.is_null())
        .count()
}

/// The multi-tenant registry: name → [`Tenant`], capacity-limited.
pub struct Registry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    max: usize,
}

impl Registry {
    /// An empty registry holding at most `max` tenants.
    pub fn new(max: usize) -> Self {
        Registry {
            tenants: RwLock::new(HashMap::new()),
            max: max.max(1),
        }
    }

    /// Add (or replace, same name) a tenant. New names beyond the
    /// capacity limit are refused with a 429-shaped error.
    pub fn insert(&self, tenant: Tenant) -> DcResult<Arc<Tenant>> {
        let mut map = write(&self.tenants);
        if !map.contains_key(tenant.name()) && map.len() >= self.max {
            return Err(DcError::limit(format!(
                "registry is full ({} tenants)",
                self.max
            )));
        }
        let tenant = Arc::new(tenant);
        map.insert(tenant.name().to_string(), tenant.clone());
        TENANTS.set(map.len() as u64);
        Ok(tenant)
    }

    /// Look a tenant up by name.
    pub fn get(&self, name: &str) -> DcResult<Arc<Tenant>> {
        read(&self.tenants)
            .get(name)
            .cloned()
            .ok_or_else(|| DcError::not_found(format!("tenant {name:?}")))
    }

    /// All tenants, name-sorted (listing endpoint, maintenance sweep).
    pub fn all(&self) -> Vec<Arc<Tenant>> {
        let map = read(&self.tenants);
        let mut out: Vec<Arc<Tenant>> = map.values().cloned().collect();
        out.sort_by(|a, b| a.name().cmp(b.name()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_tenant_spec;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn registry_enforces_capacity_and_lookup() {
        let cfg = ServeConfig::default();
        let reg = Registry::new(2);
        reg.insert(tiny_tenant_spec("a", 11).build(&cfg).unwrap())
            .unwrap();
        reg.insert(tiny_tenant_spec("b", 12).build(&cfg).unwrap())
            .unwrap();
        // Replacing an existing name is fine at capacity...
        reg.insert(tiny_tenant_spec("b", 13).build(&cfg).unwrap())
            .unwrap();
        // ...a third name is not.
        let err = reg
            .insert(tiny_tenant_spec("c", 14).build(&cfg).unwrap())
            .unwrap_err();
        assert_eq!(err.kind(), "limit");
        assert_eq!(reg.get("a").unwrap().name(), "a");
        assert_eq!(reg.get("zzz").unwrap_err().kind(), "not_found");
        let names: Vec<String> = reg.all().iter().map(|t| t.name().to_string()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn match_validates_before_enqueue_and_scores_solo() {
        let cfg = ServeConfig::default();
        let tenant = tiny_tenant_spec("t", 21).build(&cfg).unwrap();
        let n = tenant.rows();
        assert_eq!(
            tenant.match_pairs(vec![(0, n)]).unwrap_err().kind(),
            "invalid_input"
        );
        let scores = tenant.match_pairs(vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        let embs = tenant.encode_rows(vec![0, 2]).unwrap();
        assert_eq!(embs.len(), 2);
        assert_eq!(
            tenant.encode_rows(vec![n]).unwrap_err().kind(),
            "invalid_input"
        );
    }

    #[test]
    fn reload_round_trips_and_bumps_generation() {
        let cfg = ServeConfig::default();
        let tenant = tiny_tenant_spec("t", 31).build(&cfg).unwrap();
        let before = tenant.match_pairs(vec![(0, 1), (2, 3)]).unwrap();
        assert_eq!(tenant.generation(), 1);
        let path = std::env::temp_dir().join("dc_serve_tenant_ckpt_test.json");
        let path = path.to_str().unwrap();
        tenant.save_checkpoint(path).unwrap();
        assert_eq!(tenant.reload(path).unwrap(), 2);
        let after = tenant.match_pairs(vec![(0, 1), (2, 3)]).unwrap();
        let (b, a): (Vec<u32>, Vec<u32>) = (
            before.iter().map(|s| s.to_bits()).collect(),
            after.iter().map(|s| s.to_bits()).collect(),
        );
        assert_eq!(b, a, "checkpoint round-trip must preserve scores bitwise");
        std::fs::remove_file(path).ok();
        assert_eq!(
            tenant.reload("/nonexistent/ckpt.json").unwrap_err().kind(),
            "not_found"
        );
    }

    #[test]
    fn incremental_index_endpoints_work() {
        let cfg = ServeConfig::default();
        let tenant = tiny_tenant_spec("t", 41)
            .with_lsh(LshConfig {
                bands: 2,
                rows_per_band: 4,
                probes: 0,
            })
            .build(&cfg)
            .unwrap();
        let a = tenant.index_insert(&[1.0; 8]).unwrap();
        let b = tenant.index_insert(&[1.0; 8]).unwrap();
        assert_eq!(
            tenant.index_insert(&[1.0; 3]).unwrap_err().kind(),
            "invalid_input"
        );
        let (pairs, overflow) = tenant.index_pairs().unwrap();
        assert_eq!(pairs, vec![(a, b)]);
        assert_eq!(overflow, 2);
        assert_eq!(tenant.index_overflow().unwrap(), 2);
        assert!(tenant.maybe_compact(1).unwrap());
        assert_eq!(
            tenant.index_pairs().unwrap().1,
            0,
            "compaction drains the overflow"
        );
        tenant.index_delete(b).unwrap();
        assert!(tenant.index_pairs().unwrap().0.is_empty());
    }

    /// Run `f` and swallow the panic it must raise; a lock guard it held
    /// is dropped while unwinding, which poisons that lock.
    fn die_in(f: impl FnOnce()) {
        assert!(catch_unwind(AssertUnwindSafe(f)).is_err());
    }

    #[test]
    fn model_and_registry_locks_recover_from_poisoning() {
        let cfg = ServeConfig::default();
        let reg = Registry::new(2);
        let tenant = reg
            .insert(tiny_tenant_spec("t", 51).build(&cfg).unwrap())
            .unwrap();
        let before = tenant.match_pairs(vec![(0, 1)]).unwrap();
        die_in(|| {
            let _model = tenant.model.write().unwrap();
            panic!("reload dies holding the model lock");
        });
        die_in(|| {
            let _map = reg.tenants.write().unwrap();
            panic!("insert dies holding the registry lock");
        });
        assert!(tenant.model.is_poisoned() && reg.tenants.is_poisoned());
        // The batch closure, `model()`, `reload` and every registry call
        // still work on the recovered locks.
        assert_eq!(tenant.match_pairs(vec![(0, 1)]).unwrap(), before);
        let path = std::env::temp_dir().join("dc_serve_tenant_poison_test.json");
        let path = path.to_str().unwrap();
        tenant.save_checkpoint(path).unwrap();
        assert_eq!(tenant.reload(path).unwrap(), 2);
        std::fs::remove_file(path).ok();
        assert_eq!(reg.get("t").unwrap().generation(), 2);
        reg.insert(tiny_tenant_spec("u", 52).build(&cfg).unwrap())
            .unwrap();
        assert_eq!(reg.all().len(), 2);
    }

    #[test]
    fn a_poisoned_index_answers_internal_errors() {
        let tenant = tiny_tenant_spec("t", 61)
            .build(&ServeConfig::default())
            .unwrap();
        die_in(|| {
            let _idx = tenant.index.lock().unwrap();
            panic!("insert dies holding the index lock");
        });
        let errs = [
            tenant.index_insert(&[1.0; 32]).unwrap_err(),
            tenant.index_delete(0).unwrap_err(),
            tenant.index_pairs().unwrap_err(),
            tenant.index_overflow().unwrap_err(),
            tenant.maybe_compact(1).unwrap_err(),
        ];
        for e in errs {
            assert_eq!((e.kind(), e.http_status()), ("internal", 500));
        }
        // The rest of the tenant is unaffected.
        assert_eq!(tenant.match_pairs(vec![(0, 1)]).unwrap().len(), 1);
    }
}
