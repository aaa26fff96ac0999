//! ISSUE 12 equivalence: `Pipeline::run` now matches duplicates through
//! `RuleMatcher::predict` (filter–verify) and clusters with an iterative
//! union–find. On the benchmark's `curate_lake` shape it must return the
//! same report counts and the same curated rows as the pipeline it
//! replaced, restated here stage by stage through the same public
//! functions with the seed's per-pair `score` loop and recursive `find`.
//!
//! `scripts/lint.sh` runs this suite under `DC_THREADS=1`, `=2`, and the
//! default.

mod common;

use autodc::pipeline::{Pipeline, PipelineConfig};
use autodc::prelude::*;
use common::{bench_lake, config, run_rng};
use dc_clean::{SimpleImputer, SimpleStrategy};
use dc_discovery::NeuralSearch;
use dc_embed::Embeddings;
use dc_er::baselines::RuleMatcher;
use dc_er::features::tuple_vectors;
use dc_er::LshBlocker;
use dc_relational::{discover_fds, FunctionalDependency, Value};
use dc_serve::engine;
use dc_synth::consolidate::{consolidate_cluster, PreferenceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};

/// What the seed pipeline reported, and its curated table.
struct SeedRun {
    rows_in: usize,
    candidates: usize,
    clusters_merged: usize,
    repairs: usize,
    cells_imputed: usize,
    curated: Table,
}

/// The seed `Pipeline::run` (mode-fill imputation branch), line for line
/// including rng draw order.
fn seed_pipeline(cfg: &PipelineConfig, tables: &[Table], rng: &mut StdRng) -> SeedRun {
    let refs: Vec<&Table> = tables.iter().collect();
    let docs = dc_discovery::search_documents(&refs, 15);
    let emb = Embeddings::train(&docs, &cfg.sgns, rng);
    let search = NeuralSearch::index(emb.clone(), &refs, 15);
    let ranked = engine::search_neural(&search, &cfg.query, refs.len(), refs.len())
        .expect("lake is non-empty, k >= 1");
    let base = &tables[ranked[0].0];
    let mut merged = base.clone();
    merged.name = format!("{}_curated", base.name);
    for &(ti, _) in ranked
        .iter()
        .skip(1)
        .take(cfg.top_k_tables.saturating_sub(1))
    {
        let t = &tables[ti];
        if t.schema.names() == base.schema.names() {
            for row in &t.rows {
                merged.push(row.clone());
            }
        }
    }
    let rows_in = merged.len();

    let tuple_docs: Vec<Vec<String>> = merged
        .rows
        .iter()
        .map(|r| dc_relational::tokenize_tuple(r))
        .collect();
    let tuple_emb = Embeddings::train(&tuple_docs, &cfg.sgns, rng);
    let vectors = tuple_vectors(&tuple_emb, &merged);
    let blocker = LshBlocker::new(tuple_emb.dim(), cfg.lsh.0, cfg.lsh.1, rng);
    let candidates = blocker.candidates(&vectors);
    let matcher = RuleMatcher::new(cfg.dedup_threshold);
    let mut uf = SeedUnionFind::new(merged.len());
    for &(a, b) in &candidates {
        if matcher.score(&merged.rows[a], &merged.rows[b]) >= cfg.dedup_threshold {
            uf.union(a, b);
        }
    }
    let preference = PreferenceModel::default();
    let mut integrated = Table::new(merged.name.clone(), merged.schema.clone());
    let mut clusters_merged = 0usize;
    for cluster in &uf.clusters() {
        if cluster.len() > 1 {
            clusters_merged += 1;
        }
        let rows: Vec<&[Value]> = cluster.iter().map(|&i| merged.rows[i].as_slice()).collect();
        integrated.push(consolidate_cluster(&rows, &preference));
    }
    let fds = select_repair_fds(discover_fds(&integrated, cfg.max_fd_lhs));

    let mut cleaned = integrated;
    let mut cells_imputed = 0usize;
    let key_like: Vec<bool> = (0..cleaned.schema.arity())
        .map(|c| {
            let non_null = cleaned.rows.iter().filter(|r| !r[c].is_null()).count();
            non_null > 0 && cleaned.distinct(c).len() as f64 / non_null as f64 > 0.8
        })
        .collect();
    let filled = SimpleImputer::fit(&cleaned, SimpleStrategy::MeanMode).impute(&cleaned);
    for (row, frow) in cleaned.rows.iter_mut().zip(&filled.rows) {
        for c in 0..row.len() {
            if row[c].is_null() && !key_like[c] {
                row[c] = frow[c].clone();
                cells_imputed += 1;
            }
        }
    }
    let repairs = dc_clean::repair::repair_fds(&mut cleaned, &fds, cfg.repair_rounds).len();
    let mut seen = HashSet::new();
    cleaned.rows.retain(|row| {
        let key: Vec<String> = row.iter().map(|v| v.canonical()).collect();
        seen.insert(key)
    });
    SeedRun {
        rows_in,
        candidates: candidates.len(),
        clusters_merged,
        repairs,
        cells_imputed,
        curated: cleaned,
    }
}

/// `src/pipeline.rs`'s private FD filter, restated.
fn select_repair_fds(fds: Vec<FunctionalDependency>) -> Vec<FunctionalDependency> {
    let mut kept: Vec<FunctionalDependency> = Vec::new();
    let mut rhs_taken = HashSet::new();
    for fd in fds {
        let cycles = kept
            .iter()
            .any(|k| fd.lhs.contains(&k.rhs) && k.lhs.contains(&fd.rhs));
        if rhs_taken.contains(&fd.rhs) || cycles {
            continue;
        }
        rhs_taken.insert(fd.rhs);
        kept.push(fd);
    }
    kept
}

/// The seed's recursive union–find.
struct SeedUnionFind {
    parent: Vec<usize>,
}

impl SeedUnionFind {
    fn new(n: usize) -> Self {
        SeedUnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn clusters(&mut self) -> Vec<Vec<usize>> {
        let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..self.parent.len() {
            let r = self.find(i);
            map.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = map.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

/// One bench seed: `Pipeline::run` against the restated seed pipeline,
/// both from the rng state the benchmark starts a run from.
fn assert_pipeline_equals_seed_loop(seed: u64) {
    let tables = bench_lake(seed, 500);
    let cfg = config();
    let (curated, report) = Pipeline::new(cfg.clone()).run(&tables, &mut run_rng(seed));
    let want = seed_pipeline(&cfg, &tables, &mut run_rng(seed));

    assert_eq!(report.rows_in, want.rows_in);
    assert_eq!(report.candidates, want.candidates);
    assert_eq!(report.clusters_merged, want.clusters_merged);
    assert_eq!(report.repairs, want.repairs);
    assert_eq!(report.cells_imputed, want.cells_imputed);
    assert_eq!(curated.name, want.curated.name);
    assert_eq!(curated.rows, want.curated.rows);
    // The workload's own sanity check: most planted entities merge.
    assert!(report.clusters_merged * 2 >= 500);
}

// One test per seed so the harness runs them side by side.
#[test]
fn pipeline_equals_the_seed_per_pair_loop_seed_1400() {
    assert_pipeline_equals_seed_loop(1400);
}

#[test]
fn pipeline_equals_the_seed_per_pair_loop_seed_1401() {
    assert_pipeline_equals_seed_loop(1401);
}

#[test]
fn pipeline_equals_the_seed_per_pair_loop_seed_1402() {
    assert_pipeline_equals_seed_loop(1402);
}

/// ROADMAP 4e: the pipeline's stages and the matcher's filter rate are
/// readable from the program's own report.
#[test]
fn pipeline_reports_stage_spans_and_match_counters() {
    let tables = bench_lake(1400, 80);
    dc_obs::set_enabled(true);
    dc_obs::reset();
    let (_, report) = Pipeline::new(config()).run(&tables, &mut StdRng::seed_from_u64(7));
    let obs = dc_obs::report();
    dc_obs::set_enabled(false);

    let counter = |name: &str| {
        obs.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // >= : the other tests in this binary may be matching concurrently.
    assert!(counter("er.match.pairs") >= report.candidates as u64);
    assert!(counter("er.match.filtered") > 0);
    assert!(counter("er.match.verified") > 0);
    for span in [
        "pipeline.discover",
        "pipeline.integrate",
        "pipeline.clean",
        "er.block",
        "er.match",
    ] {
        assert!(
            obs.spans.iter().any(|s| s.name == span),
            "span {span} missing from {:?}",
            obs.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
}
